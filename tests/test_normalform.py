"""Survival analysis, constraint tables, oracle, normalization."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NO_SYMMETRY_FIELD, random_reversible_field, seeded_rng
from revequiv.normalform import (
    CONSTRAINT_TABLE,
    PHI,
    CoeffConstraint,
    MixedResonantTerms,
    ResMonomial,
    ResonanceSpec,
    RevInvolution,
    belitskii_normalize,
    brute_force_kernel,
    constraint_for,
    emit_real_normal_form,
    real_group_representative,
    relaxed_hypothesis,
    resonant_monomials,
    survival_analysis,
    table_monomial,
    table_report,
    _homological,
    _symmetry_candidates,
)
from revequiv.cli import _class_labels
from revequiv.groups import generate_closure
from revequiv.solver import R0, solve_involutions, LinearPart, partition_by_group
from revequiv.vecfield import Poly, PolyMap, PolyVF, check_symmetry, conjugate


# -- resonance enumeration --------------------------------------------------


def test_resonance_spec_validation():
    with pytest.raises(ValueError):
        ResonanceSpec(2, 4)
    with pytest.raises(ValueError):
        ResonanceSpec(3, 3)
    with pytest.raises(ValueError):
        ResonanceSpec(0, 1)


@pytest.mark.parametrize("p, q", [(True, 2), (1, 2.0), (1.0, 2), (1, True)],
                         ids=["bool-p", "float-q", "float-p", "bool-q"])
def test_resonance_spec_rejects_floats_and_bools(p, q):
    # a bool would pass as 1 and a float would reach gcd; both are type errors
    with pytest.raises(TypeError, match="p and q must be ints"):
        ResonanceSpec(p, q)


def test_linear_term_always_resonant():
    for p, q in ((1, 2), (3, 5), (2, 7)):
        ms = resonant_monomials(ResonanceSpec(p, q), 1)
        assert ResMonomial(1, (1, 0, 0, 0)) in ms
        assert ResMonomial(2, (0, 0, 1, 0)) in ms
        assert len(ms) == 2


def test_off_diagonal_generator_present():
    spec = ResonanceSpec(1, 2)
    ms = resonant_monomials(spec, 2)
    assert ResMonomial(1, (0, 1, 1, 0)) in ms  # ~z1 * z2 at q-1 = 1, p = 1


def test_enumeration_matches_independent_loop():
    spec = ResonanceSpec(3, 5)
    got = set(resonant_monomials(spec, 9))
    expected = set()
    for comp, target in ((1, 3), (2, 5)):
        for a in range(10):
            for b in range(10 - a):
                for c in range(10 - a - b):
                    for d in range(10 - a - b - c):
                        if 0 < a + b + c + d <= 9 and 3 * (a - b) + 5 * (c - d) == target:
                            expected.add(ResMonomial(comp, (a, b, c, d)))
    assert got == expected


# -- constraints ------------------------------------------------------------


def test_delta_monomials_always_pure_imaginary():
    # z_j * Delta1^m * Delta2^n picks up conj(b) = -b under every reflection
    for j in range(7):
        for m, n in ((0, 1), (1, 0), (2, 1)):
            mono1 = ResMonomial(1, (m + 1, m, n, n))
            mono2 = ResMonomial(2, (m, m, n + 1, n))
            assert constraint_for(mono1, PHI[j]) is CoeffConstraint.RE_ZERO
            assert constraint_for(mono2, PHI[j]) is CoeffConstraint.RE_ZERO
            assert constraint_for(mono1, RevInvolution(0, 0)) is CoeffConstraint.RE_ZERO


def _xi_labelled_classes():
    """The n = 4 classes at 1:2, each with the label the CLI gives it."""
    lin = LinearPart(Fraction(1), Fraction(2))
    classes = partition_by_group(solve_involutions(lin, 4, include_degenerate=False))
    return list(zip(_class_labels(classes, 4), classes))


def test_phi_real_forms_are_involutions_in_distinct_classes():
    seen = set()
    for label, c in _xi_labelled_classes():
        j = int(label.removeprefix("Xi"))
        s = real_group_representative(j)
        assert any(m.s == s for m in c.members)
        assert generate_closure([R0, s]) == c.group
        seen.add(j)
    assert seen == {1, 2, 3, 4, 5, 6}


def test_phi0_is_the_degenerate_negated_reversor():
    # phi_0 = -conj in complex form; its real form is -diag(1,-1,1,-1),
    # which solves the order-4 system only degenerately (group of order 4)
    # and belongs to none of the six dihedral classes
    lin = LinearPart(Fraction(1), Fraction(2))
    m = PHI[0].real_form()
    assert m == R0.scale(-1)
    hits = [sol for sol in solve_involutions(lin, 4) if sol.s == m]
    assert len(hits) == 1 and hits[0].degenerate
    assert all(generate_closure([R0, m]) != c.group for _, c in _xi_labelled_classes())


# -- published tables -------------------------------------------------------


def test_table_rows_reproduce_stated_constraints():
    rep = table_report()
    assert len(rep) == len(CONSTRAINT_TABLE) == 38
    checked = [r for r in rep if r["satisfiable"] and not r["tautology"]]
    assert len(checked) >= 30
    for r in checked:
        assert r["agrees"], r


def test_hypothesis_text_is_evaluated_clause_by_clause():
    rows = {(r.phi_index, r.hypothesis): r for r in CONSTRAINT_TABLE}
    holds = rows[(2, "p = 1 mod 4, q even")].hypothesis_holds
    assert holds(1, 2) and holds(5, 6) and holds(9, 4)
    assert not holds(1, 3) and not holds(3, 2) and not holds(2, 4)
    holds = rows[(4, "p+q = 3 mod 4, q odd")].hypothesis_holds
    assert holds(2, 1) and holds(4, 3) and not holds(1, 2) and not holds(3, 1)
    assert rows[(0, "p+q odd")].hypothesis_holds(1, 2)
    assert not rows[(0, "p+q odd")].hypothesis_holds(1, 3)


def test_tautology_row_flagged_with_computed_constraint():
    rep = table_report()
    taut = [r for r in rep if r["tautology"]]
    assert len(taut) == 1
    assert taut[0]["stated"] is None
    assert taut[0]["computed"] == CoeffConstraint.RE_EQ_IM.value


def test_specific_table_rows():
    # phi_2 with p divisible by 4 and q odd: coefficient purely real
    spec = ResonanceSpec(4, 1)
    assert constraint_for(table_monomial(spec), PHI[2]) is CoeffConstraint.IM_ZERO
    # phi_1 with q = 3 mod 4: Re = Im
    spec = ResonanceSpec(1, 3)
    assert constraint_for(table_monomial(spec), PHI[1]) is CoeffConstraint.RE_EQ_IM


def published_pair_survivors(spec, degree):
    """The survivors under the published reversor pair (-conj, phi_1), each
    with its constraint: no reversor leaves a coefficient free, so a monomial
    survives iff both reversors force the same constraint on it."""
    return [
        (m, constraint_for(m, PHI[0]))
        for m in resonant_monomials(spec, degree)
        if constraint_for(m, PHI[0]) is constraint_for(m, PHI[1])
    ]


def test_mixed_generators_die_under_published_reversor_pair():
    # whenever the residue condition on q holds, the off-diagonal resonant
    # generators disappear from the normal form derived with the published
    # reversor pair (-conj, phi_1)
    for p in range(1, 12):
        for q in range(1, 12):
            if p == q or gcd(p, q) != 1 or p + q > 12:
                continue
            if not relaxed_hypothesis(ResonanceSpec(p, q))["q_condition"]:
                continue
            spec = ResonanceSpec(p, q)
            deg = p + q + 1
            for m, _ in published_pair_survivors(spec, deg):
                a, b, c, d = m.exps
                if m.component == 1:
                    assert not (a == 0 and d == 0 and b == q - 1 and c == p)
                else:
                    assert not (b == 0 and c == 0 and a == q and d == p - 1)


def test_canonical_pair_differs_from_published_pair_where_oracle_says_so():
    # with q divisible by 4 the generator ~z1^(q-1) z2^p survives the
    # canonical pair (conj, phi_1) although it dies under (-conj, phi_1);
    # the real-coordinates oracle for <diag(1,-1,1,-1), S_1> sides with
    # the canonical pair
    spec = ResonanceSpec(1, 4)
    r = survival_analysis(spec, 1, 4)
    assert r.parameter_count(exact_degree=4) == 2
    o = brute_force_kernel(spec, 1, 4)
    assert o.dimensions[4] == 2
    r0 = published_pair_survivors(spec, 4)
    assert sum(1 for m, _ in r0 if m.degree == 4) == 0


# -- survival analysis ------------------------------------------------------


def test_survival_odd_odd_pure_delta_cells():
    # pure-Delta cells verified at degree 7; the exceptions below show the
    # property is degree- and class-dependent, not uniform over classes 1-5
    for p, q, g in [(3, 5, g) for g in range(1, 6)] + [(1, 3, g) for g in (1, 2, 3, 5)]:
        r = survival_analysis(ResonanceSpec(p, q), g, 7)
        assert r.is_pure_delta_form()
        t = emit_real_normal_form(r)
        assert t.parameter_names()


def test_survival_fourth_group_keeps_offdiagonal_multiple():
    # for 1:3 the doubled off-diagonal generators reach degree 7 and carry a
    # consistent ReZero constraint under the fourth class -- the pure-Delta
    # pattern breaks here too, confirmed against the real-coordinates oracle
    spec = ResonanceSpec(1, 3)
    r = survival_analysis(spec, 4, 7)
    extra = sorted(str(m) for m, _ in r.surviving if not m.is_delta_type())
    assert extra == ["z1^6*~z2 d/dz2", "~z1^5*z2^2 d/dz1"]
    o = brute_force_kernel(spec, 4, 7)
    assert o.dimensions[7] == r.parameter_count(exact_degree=7) == 10
    assert survival_analysis(spec, 4, 6).is_pure_delta_form()


def test_survival_sixth_group_keeps_offdiagonal_family():
    # the sixth class is the exception to the pure-Delta claim: once the
    # degree reaches p+q-1 the off-diagonal generators carry a consistent
    # ReZero constraint under both reversors and genuinely survive --
    # confirmed against the real-coordinates oracle
    spec = ResonanceSpec(3, 5)
    r = survival_analysis(spec, 6, 7)
    extra = sorted(str(m) for m, _ in r.surviving if not m.is_delta_type())
    assert extra == ["z1^5*~z2^2 d/dz2", "~z1^4*z2^3 d/dz1"]
    o = brute_force_kernel(spec, 6, 7)
    assert o.dimensions[7] == r.parameter_count(exact_degree=7) == 10
    # below that degree the sixth class is also pure Delta
    assert survival_analysis(spec, 6, 6).is_pure_delta_form()


# quarter turns r of a real 2x2 rotation block, read off its (cos, sin)
QUARTER_TURNS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def test_survivors_are_the_monomials_fixed_by_the_rotation():
    # R0*S_j rotates z1 and z2 by r1 and r2 quarter turns; it fixes the
    # field z1^a ~z1^b z2^c ~z2^d d/dz_comp iff r1(a-b) + r2(c-d) = r_comp
    # mod 4.  The survivors under (conj, phi_j) are exactly these, each ReZero.
    for j in range(1, 7):
        rot = R0 * real_group_representative(j)
        r = [QUARTER_TURNS[rot[i, i].as_rational(), rot[i + 1, i].as_rational()]
             for i in (0, 2)]
        for q in range(2, 10):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                spec = ResonanceSpec(p, q)
                fixed = tuple(
                    (m, CoeffConstraint.RE_ZERO)
                    for m in resonant_monomials(spec, 11)
                    if (r[0] * (m.exps[0] - m.exps[1]) + r[1] * (m.exps[2] - m.exps[3])
                        - r[m.component - 1]) % 4 == 0
                )
                assert survival_analysis(spec, j, 11).surviving == fixed, (p, q, j)


def test_survival_mixed_case_has_extra_terms():
    r = survival_analysis(ResonanceSpec(1, 2), 5, 4)
    assert not r.is_pure_delta_form()
    with pytest.raises(MixedResonantTerms):
        emit_real_normal_form(r)


def test_survival_json_shape():
    r = survival_analysis(ResonanceSpec(1, 2), 2, 4)
    obj = r.to_json()
    assert obj["p"] == 1 and obj["q"] == 2 and obj["group"] == 2
    assert all(
        set(row) == {"component", "exponents", "constraint"} for row in obj["surviving"]
    )


def test_template_text_and_latex():
    r = survival_analysis(ResonanceSpec(3, 5), 1, 5)
    t = emit_real_normal_form(r)
    text = t.as_text()
    assert "dx1 = -3*x2" in text
    assert "D1 = x1^2 + x2^2" in text
    latex = t.as_latex()
    assert "\\Delta_1" in latex and "\\dot{y}_2" in latex
    assert t.parameter_names() == [
        "a01", "a10", "a02", "a11", "a20",
        "b01", "b10", "b02", "b11", "b20",
    ]
    t3 = emit_real_normal_form(survival_analysis(ResonanceSpec(3, 5), 1, 3))
    assert t3.parameter_names() == ["a01", "a10", "b01", "b10"]


# -- oracle -----------------------------------------------------------------

ORACLE_SPOT_CHECKS = [(1, 2), (2, 3)]


@pytest.mark.parametrize("pq", ORACLE_SPOT_CHECKS)
def test_oracle_matches_survival_parameter_counts(pq):
    spec = ResonanceSpec(*pq)
    for g in (1, 4, 5):
        r = survival_analysis(spec, g, 5)
        o = brute_force_kernel(spec, g, 5)
        for k in range(2, 6):
            assert o.dimensions[k] == r.parameter_count(exact_degree=k)


def test_oracle_no_resonant_quadratics_for_3_5():
    o = brute_force_kernel(ResonanceSpec(3, 5), 1, 2)
    assert o.dimensions == {2: 0}


def test_oracle_basis_fields_satisfy_all_constraints():
    spec = ResonanceSpec(1, 2)
    o = brute_force_kernel(spec, 2, 3)
    a_t = spec.linear_matrix().transpose()
    s = real_group_representative(2)
    for k, fields in o.bases.items():
        assert len(fields) == o.dimensions[k]
        for v in fields:
            assert check_symmetry(v, R0, -1).ok
            assert check_symmetry(v, s, -1).ok
            img = _homological(v, a_t)
            assert PolyVF(
                [c.truncated(k) for c in img.components], k
            ).is_zero()


# -- normalization ----------------------------------------------------------


def test_normalize_linear_field_untouched():
    spec = ResonanceSpec(1, 2)
    x = PolyVF.from_linear(spec.linear_matrix(), 4)
    nf, h = belitskii_normalize(x, spec, 4)
    assert nf == x
    assert all(h.components[i] == Poly.variable(i) for i in range(4))


def test_normalize_removes_pure_image_term():
    spec = ResonanceSpec(1, 2)
    a = spec.linear_matrix()
    # a generic quadratic has no resonant part for 1:2 except the z1bar*z2
    # family; pick a term and verify the degree-2 part shrinks to the kernel
    u = PolyVF(
        [Poly.monomial((0, 0, 2, 0), 1), Poly(), Poly(), Poly()], 3
    )
    lu = _homological(u, a)
    x = PolyVF.from_linear(a, 3) + lu
    nf, _ = belitskii_normalize(x, spec, 3)
    a_t = a.transpose()
    resid = _homological(nf.nonlinear(), a_t)
    assert PolyVF([c.truncated(3) for c in resid.components], 3).is_zero()


def test_normalize_requires_matching_linear_part():
    spec = ResonanceSpec(1, 2)
    x = PolyVF.from_linear(ResonanceSpec(1, 3).linear_matrix(), 3)
    with pytest.raises(ValueError):
        belitskii_normalize(x, spec, 3)


def test_normalize_reversible_field_end_to_end():
    rng = seeded_rng("nf-e2e")
    spec = ResonanceSpec(3, 5)
    s = real_group_representative(2)
    x = random_reversible_field(rng, spec, s, 4)
    nf, h = belitskii_normalize(x, spec, 4)
    assert check_symmetry(nf, R0, -1).ok
    assert check_symmetry(nf, s, -1).ok
    # the nonlinear part sits in the adjoint kernel, i.e. the survival set
    resid = _homological(nf.nonlinear(), spec.linear_matrix().transpose())
    assert PolyVF([c.truncated(4) for c in resid.components], 4).is_zero()
    # the change actually conjugates
    assert conjugate(x, h) == nf
    # idempotence
    nf2, h2 = belitskii_normalize(nf, spec, 4)
    assert nf2 == nf
    assert all(h2.components[i] == Poly.variable(i) for i in range(4))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(1, 2), (2, 3)]), st.integers(1, 6), st.integers(0, 2**32))
def test_normalization_is_idempotent_on_resonant_fields(pq, j, seed):
    # the off-diagonal resonant terms ~z1^(q-1) z2^p d/dz1 start at degree 2
    # for 1:2 and at degree 4 for 2:3, but only at degree 7 for 3:5
    spec = ResonanceSpec(*pq)
    x = random_reversible_field(random.Random(seed), spec, real_group_representative(j), 4)
    nf, _ = belitskii_normalize(x, spec, 4)
    nf2, h2 = belitskii_normalize(nf, spec, 4)
    assert nf2 == nf
    assert h2 == PolyMap.identity(4)


def test_normalize_field_without_detected_symmetry():
    # none of the ten candidate symmetries holds, so the change ranges over
    # every field of each block
    spec = ResonanceSpec(1, 2)
    x = PolyVF.parse(NO_SYMMETRY_FIELD, 5)
    assert not any(check_symmetry(x, s, -1).ok for s in _symmetry_candidates())
    nf, h = belitskii_normalize(x, spec, 5)
    assert nf != x
    assert conjugate(x, h) == nf
    resid = _homological(nf.nonlinear(), spec.linear_matrix().transpose())
    assert PolyVF([c.truncated(5) for c in resid.components], 5).is_zero()


def test_normalize_preserves_detected_symmetry_with_survivors():
    rng = seeded_rng("nf-surv")
    spec = ResonanceSpec(1, 2)
    s = real_group_representative(3)
    x = random_reversible_field(rng, spec, s, 3)
    nf, _ = belitskii_normalize(x, spec, 3)
    assert check_symmetry(nf, R0, -1).ok
    assert check_symmetry(nf, s, -1).ok
    allowed = set()
    for m, _c in survival_analysis(spec, 3, 3).surviving:
        allowed.add((m.component, m.degree))
    for i, comp in enumerate(nf.nonlinear().components):
        for e, _v in comp.terms.items():
            assert (i // 2 + 1, sum(e)) in {(c, d) for c, d in allowed}
