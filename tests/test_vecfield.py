"""Sparse polynomial fields, parsing, symmetry checks, linearization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly_field, random_reversible_field, seeded_rng
from revequiv.exactalg import AlgScalar, Mat4
from revequiv.normalform import ResonanceSpec, real_group_representative
from revequiv.solver import R0, reflection_block_matrix
from revequiv.vecfield import (
    FieldFormatError,
    NotAnInvolution,
    PARITY_FAMILIES,
    Poly,
    PolyMap,
    PolyVF,
    _mat_inverse,
    check_parity_conditions,
    check_symmetry,
    conjugate,
    linearize_involution,
    parse_poly,
)


def test_poly_arithmetic_basics():
    x1 = Poly.variable(0)
    y1 = Poly.variable(2)
    p = x1 * x1 + y1.scale(Fraction(3, 2))
    assert p.degree() == 2
    assert p.coefficient((2, 0, 0, 0)) != 0
    assert (p - p).is_zero()
    assert p.diff(0) == x1.scale(2)


def test_poly_truncation_in_mul():
    x1 = Poly.variable(0)
    p = x1 * x1 * x1
    assert p.mul(p, max_degree=5).is_zero()
    assert not p.mul(p, max_degree=6).is_zero()


exponents = st.tuples(*[st.integers(0, 3)] * 4)
coefficients = st.builds(
    AlgScalar,
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-2)]),
    st.just(3),
)
polys = st.dictionaries(exponents, coefficients, max_size=8).map(Poly)


@given(polys, polys, st.integers(0, 12))
def test_truncated_product_is_the_truncated_full_product(a, b, k):
    assert a.mul(b, k) == a.mul(b).truncated(k)


@given(polys, polys)
def test_product_commutes_and_keeps_no_zero_coefficient(a, b):
    ab = a.mul(b)
    assert ab == b.mul(a)
    assert all(type(c) is AlgScalar and not c.is_zero() for c in ab.terms.values())


def test_cancelled_product_terms_are_dropped():
    x1, x2 = Poly.variable(0), Poly.variable(1)
    for p in ((x1 + x2).mul(x1 - x2), (x1 + x2).mul(x1 - x2, max_degree=2)):
        assert (1, 1, 0, 0) not in p.terms
        assert p.terms == {(2, 0, 0, 0): AlgScalar(1), (0, 2, 0, 0): AlgScalar(-1)}


def test_parse_round_trip():
    text = "-1*x2 + 3/2*x2*y1^2 - 2*x1^3"
    p = parse_poly(text)
    assert p.coefficient((0, 1, 0, 0)) == Mat4.identity()[0, 0].__neg__()
    assert p.coefficient((0, 1, 2, 0)).as_rational() == Fraction(3, 2)
    assert parse_poly(str(p)) == p


def test_parse_rejects_garbage():
    for bad in ("x5", "2**x1", "x1 + + x2", "1/0*x1", "-", "x1 -", "--x1"):
        with pytest.raises((FieldFormatError, ZeroDivisionError)):
            parse_poly(bad)


def test_parse_reads_a_bare_sign_as_one():
    x1, x2, y1 = Poly.variable(0), Poly.variable(1), Poly.variable(2)
    assert parse_poly("x1 - x2") == x1 - x2
    assert parse_poly("-x2") == -x2
    assert parse_poly("-y1^2 + x1") == x1 - y1 * y1
    assert parse_poly("+x1 - 1/2*y1") == x1 - y1.scale(Fraction(1, 2))


def test_field_text_round_trip():
    rng = seeded_rng("vf-text")
    x = random_poly_field(rng, 4, nterms=15, min_degree=1)
    assert PolyVF.parse(str(x), 4) == x


def test_field_json_round_trip():
    rng = seeded_rng("vf-json")
    x = random_poly_field(rng, 5)
    assert PolyVF.from_json(x.to_json()) == x


def test_linear_part_extraction():
    spec = ResonanceSpec(1, 2)
    x = PolyVF.from_linear(spec.linear_matrix(), 3)
    assert x.linear_part() == spec.linear_matrix()
    assert x.nonlinear().is_zero()


def test_check_symmetry_trivial_rotation():
    spec = ResonanceSpec(1, 2)
    x = PolyVF.from_linear(spec.linear_matrix(), 5)
    assert check_symmetry(x, R0, -1).ok
    s = reflection_block_matrix(2, 1, 0)
    assert check_symmetry(x, s, -1).ok
    assert not check_symmetry(x, Mat4.identity(), -1).ok


def test_product_of_two_reversors_is_equivariance():
    rng = seeded_rng("two-reversors")
    spec = ResonanceSpec(3, 5)
    for j in (1, 2, 5):
        s = real_group_representative(j)
        x = random_reversible_field(rng, spec, s, 4)
        assert check_symmetry(x, R0, -1).ok
        assert check_symmetry(x, s, -1).ok
        assert check_symmetry(x, R0 * s, +1).ok


def test_conjugate_identity_and_inverse():
    rng = seeded_rng("conj")
    spec = ResonanceSpec(1, 3)
    x = PolyVF.from_linear(spec.linear_matrix(), 4) + random_poly_field(rng, 4)
    ident = PolyMap.identity(4)
    assert conjugate(x, ident) == x
    h = PolyMap(
        [
            Poly.variable(0) + Poly.monomial((0, 0, 2, 0), Fraction(1, 2)),
            Poly.variable(1),
            Poly.variable(2),
            Poly.variable(3) + Poly.monomial((1, 1, 0, 0), 1),
        ],
        4,
    )
    assert conjugate(conjugate(x, h), h.inverse()) == x


def test_conjugate_by_commuting_linear_preserves_reversibility():
    rng = seeded_rng("commuting")
    spec = ResonanceSpec(3, 5)
    s = real_group_representative(3)
    x = random_reversible_field(rng, spec, s, 4)
    # a linear map commuting with R0: diagonal scaling
    h = PolyMap.from_linear(Mat4.diagonal([2, 2, Fraction(1, 3), Fraction(1, 3)]), 4)
    y = conjugate(x, h)
    assert check_symmetry(y, R0, -1).ok


def test_map_inverse_composes_to_identity():
    h = PolyMap(
        [
            Poly.variable(0) + Poly.monomial((0, 2, 0, 0), 1),
            Poly.variable(1) + Poly.monomial((1, 0, 1, 0), Fraction(-1, 2)),
            Poly.variable(2),
            Poly.variable(3),
        ],
        5,
    )
    assert h.compose(h.inverse()) == PolyMap.identity(5)
    assert h.inverse().compose(h) == PolyMap.identity(5)


@pytest.mark.parametrize(
    "lin",
    [
        reflection_block_matrix(3, 1, 0),
        Mat4(
            [
                [1, AlgScalar(0, 1, 3), 0, 0],
                [0, 2, 0, AlgScalar(Fraction(1, 2), 1, 3)],
                [AlgScalar(0, -1, 3), 0, 1, Fraction(1, 3)],
                [0, 0, 0, 3],
            ]
        ),
    ],
    ids=["involution", "non-involution"],
)
def test_inverse_over_quadratic_field(lin):
    assert _mat_inverse(lin) * lin == Mat4.identity()
    assert lin * _mat_inverse(lin) == Mat4.identity()
    h = PolyMap(
        [
            c + Poly.monomial(e, Fraction(1, 2))
            for c, e in zip(
                PolyMap.from_linear(lin, 4).components,
                ((0, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 3), (1, 1, 1, 0)),
            )
        ],
        4,
    )
    assert h.compose(h.inverse()) == PolyMap.identity(4)
    assert h.inverse().compose(h) == PolyMap.identity(4)


def _terms(min_degree):
    """(component, exponents, coefficient) triples of degree min_degree..4."""
    exponents = (
        st.integers(min_degree, 4)
        .flatmap(lambda d: st.lists(st.integers(0, 3), min_size=d, max_size=d))
        .map(lambda variables: tuple(variables.count(i) for i in range(4)))
    )
    coefficients = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.lists(st.tuples(st.integers(0, 3), exponents, coefficients), max_size=5)


def _components(start, terms):
    comps = list(start)
    for i, e, c in terms:
        comps[i] = comps[i] + Poly.monomial(e, c)
    return comps


near_identity_maps = _terms(2).map(
    lambda t: PolyMap(_components([Poly.variable(i) for i in range(4)], t), 4)
)
fields = _terms(1).map(lambda t: PolyVF(_components([Poly()] * 4, t), 4))


@settings(max_examples=25, deadline=None)
@given(near_identity_maps)
def test_compose_with_inverse_is_identity(h):
    assert h.compose(h.inverse()) == PolyMap.identity(4)


@settings(max_examples=25, deadline=None)
@given(fields, near_identity_maps)
def test_conjugate_by_map_then_inverse_round_trips(x, h):
    assert conjugate(conjugate(x, h), h.inverse()) == x


def _family_involution(family):
    if family == "Z2Z2-S1":
        return Mat4.diagonal([-1, 1, -1, 1])
    if family == "Z2Z2-S2":
        return Mat4.diagonal([-1, 1, 1, -1])
    if family == "Z2Z2-S3":
        return Mat4.diagonal([1, -1, -1, 1])
    if family == "D4-S1":
        return real_group_representative(1)
    raise AssertionError(family)


@pytest.mark.parametrize("family", sorted(PARITY_FAMILIES))
def test_parity_conditions_match_symmetry_checks(family):
    rng = seeded_rng(f"parity-{family}")
    spec = ResonanceSpec(1, 2)
    s = _family_involution(family)
    a = spec.linear_matrix()
    lin = PolyVF.from_linear(a, 4)
    for k in range(25):
        if k % 2 == 0:
            x = lin + random_poly_field(rng, 4, nterms=8)
        else:
            x = random_reversible_field(rng, spec, s, 4)
        direct = check_symmetry(x, R0, -1).ok and check_symmetry(x, s, -1).ok
        assert check_parity_conditions(x, family) == direct


def test_linearize_involution_trivial():
    phi = PolyMap.from_linear(R0, 4)
    h = linearize_involution(phi, 4)
    lin = h.linear_part()
    assert h.compose(phi) == PolyMap.from_linear(lin, 4).compose(
        PolyMap.from_linear(R0, 4)
    ).compose(h.inverse()).compose(h)


def test_linearize_involution_conjugates_to_linear_part():
    g = PolyMap(
        [
            Poly.variable(0) + Poly.monomial((0, 0, 2, 0), Fraction(1, 3)),
            Poly.variable(1) + Poly.monomial((2, 0, 0, 0), 1),
            Poly.variable(2),
            Poly.variable(3) + Poly.monomial((1, 0, 1, 0), Fraction(-1, 2)),
        ],
        6,
    )
    phi = g.compose(PolyMap.from_linear(R0, 6)).compose(g.inverse())
    phi = PolyMap(phi.components, 6)
    h = linearize_involution(phi, 6)
    conj = h.compose(phi).compose(h.inverse())
    assert PolyMap(conj.components, 6) == PolyMap.from_linear(R0, 6)


def test_linearize_rejects_non_involution():
    not_inv = PolyMap(
        [
            Poly.variable(0) + Poly.monomial((0, 2, 0, 0), 1),
            Poly.variable(1),
            Poly.variable(2),
            Poly.variable(3),
        ],
        4,
    )
    with pytest.raises(NotAnInvolution):
        linearize_involution(not_inv, 4)
