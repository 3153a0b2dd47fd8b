"""Involution enumeration against the raw polynomial system."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from revequiv.exactalg import AlgScalar, Mat4, anticommutes, is_involution
from revequiv.groups import element_order, generate_closure, is_dihedral, sign_assignment
from revequiv.linalg import nullspace
from revequiv.solver import (
    R0,
    SUPPORTED_N,
    DegenerateResonance,
    LinearPart,
    UnsupportedGroupOrder,
    linear_part_matrix,
    partition_by_group,
    reflection_block_matrix,
    solve_involutions,
    verify_raw_system,
    _cs,
)

LIN = LinearPart(Fraction(1), Fraction(2))

frequencies = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)

HALF = Fraction(1, 2)
ROOT3_HALF = AlgScalar(0, HALF, 3)


def test_angle_table_covers_every_n_dividing_12():
    # 2*pi/12 is 30 degrees, and 2*pi*5/12 is 150 degrees
    assert _cs(12, 1) == (ROOT3_HALF, AlgScalar(HALF))
    assert _cs(12, 5) == (-ROOT3_HALF, AlgScalar(HALF))
    assert _cs(1, 7) == (AlgScalar(1), AlgScalar(0))
    assert _cs(6, -1) == _cs(6, 5) == (AlgScalar(HALF), -ROOT3_HALF)
    for n in (12, 6, 4, 3, 2, 1):
        for k in range(n):
            c, s = _cs(n, k)
            assert c * c + s * s == AlgScalar(1)
    for n in (5, 8, 0, -3):
        with pytest.raises(ValueError):
            _cs(n, 1)


def test_counts_per_order():
    assert len(solve_involutions(LIN, 2)) == 4
    assert len(solve_involutions(LIN, 3)) == 9
    assert len(solve_involutions(LIN, 4)) == 16
    assert len(solve_involutions(LIN, 6)) == 36


@settings(max_examples=10, deadline=None)
@given(frequencies, frequencies)
def test_every_solution_is_involutive_anticommuting(alpha, beta):
    # the construction guarantees both and the solver does not re-check them
    assume(abs(alpha) != abs(beta))
    lin = LinearPart(alpha, beta)
    a = lin.matrix()
    for n in SUPPORTED_N:
        for sol in solve_involutions(lin, n):
            assert is_involution(sol.s)
            assert anticommutes(sol.s, a)


@pytest.mark.parametrize("alpha, beta",
                         [(0.1, Fraction(2)), (Fraction(1), 2.0), (True, 2), (1, False)],
                         ids=["float", "float-beta", "bool", "bool-beta"])
def test_linear_part_rejects_floats_and_bools(alpha, beta):
    # no floats, ever: a float would become its binary expansion
    with pytest.raises(TypeError):
        LinearPart(alpha, beta)
    with pytest.raises(TypeError):
        linear_part_matrix(alpha, beta)


def test_group_order_is_twice_the_order_of_the_rotation():
    # solve_involutions reads the order off the angles; count the powers of
    # R0*S instead, degenerate solutions included
    for n in SUPPORTED_N:
        for sol in solve_involutions(LIN, n):
            assert sol.group_order == 2 * element_order(R0 * sol.s)


def test_degenerate_flagging():
    sols = solve_involutions(LIN, 2)
    degenerate = [s for s in sols if s.degenerate]
    assert len(degenerate) == 1
    assert degenerate[0].s == R0
    assert solve_involutions(LIN, 2, include_degenerate=False) == [
        s for s in sols if not s.degenerate
    ]


def test_known_order2_matrices():
    got = {s.s for s in solve_involutions(LIN, 2)}
    expected = {
        Mat4.diagonal([-1, 1, -1, 1]),
        Mat4.diagonal([-1, 1, 1, -1]),
        Mat4.diagonal([1, -1, -1, 1]),
        Mat4.diagonal([1, -1, 1, -1]),
    }
    assert got == expected


def test_known_order3_matrix_entries():
    s = reflection_block_matrix(3, 1, 1)
    assert s[0, 0] == AlgScalar(-HALF)
    assert s[0, 1] == ROOT3_HALF
    assert s[1, 1] == AlgScalar(HALF)
    assert s in {x.s for x in solve_involutions(LIN, 3)}


def test_partition_sizes():
    for n, expected in ((2, [1, 1, 1]), (3, [2, 2, 2, 2]), (4, [2] * 6)):
        nondeg = solve_involutions(LIN, n, include_degenerate=False)
        classes = partition_by_group(nondeg)
        assert sorted(len(c.members) for c in classes) == sorted(expected)
        for c in classes:
            assert c.group_order == 2 * n
            for m in c.members:
                assert c.group.elements == generate_closure([R0, m.s]).elements


@pytest.mark.parametrize("n", SUPPORTED_N)
@pytest.mark.parametrize("alpha, beta", [(1, 2), (2, 3), (-1, 5)])
def test_rotation_keyed_classes_are_the_classes_by_closure(n, alpha, beta):
    # partition_by_group writes each group and its rho from the rotation set;
    # the closure, sign_assignment and is_dihedral check what it wrote
    lin = LinearPart(Fraction(alpha), Fraction(beta))
    sols = solve_involutions(lin, n)
    closure = {sol.s: generate_closure([R0, sol.s]) for sol in sols}
    by_closure = {}
    for s, group in closure.items():
        by_closure.setdefault(group, set()).add(s)
    classes = partition_by_group(sols)
    assert {frozenset(m.s for m in c.members) for c in classes} == {
        frozenset(ss) for ss in by_closure.values()
    }
    for c in classes:
        assert list(c.members) == sorted(c.members, key=lambda m: m.sort_key())
        for m in c.members:
            assert closure[m.s] == c.group
        assert c.rho.signs == sign_assignment(c.group, lin.matrix()).signs
        if not c.members[0].degenerate:
            assert is_dihedral(c.group, n)
    firsts = [c.members[0].sort_key() for c in classes]
    assert firsts == sorted(firsts)


def _anticommutant(alpha, beta):
    """A basis of {S : S*A + A*S = 0}, each S as its 16 entries row by row."""
    a = linear_part_matrix(alpha, beta)
    rows = []
    for i in range(4):
        for j in range(4):
            row = [Fraction(0)] * 16
            for k in range(4):
                row[4 * i + k] += a[k, j].a
                row[4 * k + j] += a[i, k].a
            rows.append(row)
    return nullspace(rows)


def _block_diagonal(v):
    return all(v[4 * i + j] == 0 for i in range(4) for j in range(4) if i // 2 != j // 2)


@settings(max_examples=25, deadline=None)
@given(frequencies, frequencies)
def test_anticommutant_is_four_dimensional_and_block_diagonal(alpha, beta):
    # with S^2 = Id and (R0*S)^n = Id on each block, this leaves exactly the
    # n^2 reflection pairs that solve_involutions lists
    assume(abs(alpha) != abs(beta))
    basis = _anticommutant(alpha, beta)
    assert len(basis) == 4
    assert all(_block_diagonal(v) for v in basis)


@settings(max_examples=10, deadline=None)
@given(frequencies, st.sampled_from([1, -1]))
def test_anticommutant_at_equal_moduli_is_not_block_diagonal(alpha, sign):
    # where DegenerateResonance is raised, the block reduction does not hold
    basis = _anticommutant(alpha, sign * alpha)
    assert len(basis) == 8
    assert not all(_block_diagonal(v) for v in basis)


def _prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


@pytest.mark.parametrize("n", SUPPORTED_N)
def test_counts_are_jordan_totient_and_points_of_the_projective_line(n):
    j2, phi = n * n, n
    for p in _prime_divisors(n):
        j2, phi = j2 * (p * p - 1) // (p * p), phi * (p - 1) // p
    sols = solve_involutions(LIN, n)
    nondeg = [s for s in sols if not s.degenerate]
    classes = partition_by_group(nondeg)
    assert len(nondeg) == j2
    assert len(sols) - len(nondeg) == n * n - j2
    assert len(classes) == j2 // phi
    assert all(len(c.members) == phi for c in classes)
    assert (j2, j2 // phi) == {2: (3, 3), 3: (8, 4), 4: (12, 6), 6: (24, 12)}[n]


def test_class_the_published_order3_list_leaves_out():
    # criterion 2's three matrices are one member each of three classes
    published = {(1, 1), (1, 0), (0, 1)}
    classes = partition_by_group(solve_involutions(LIN, 3, include_degenerate=False))
    missed = [c for c in classes
              if not any((m.block_angles[0] * 3, m.block_angles[1] * 3) in published
                         for m in c.members)]
    assert [{m.block_angles for m in c.members} for c in missed] == [
        {(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))}
    ]


def test_solutions_independent_of_frequencies():
    other = LinearPart(Fraction(2, 3), Fraction(7))
    for n in (2, 3, 4):
        assert [s.s for s in solve_involutions(LIN, n)] == [
            s.s for s in solve_involutions(other, n)
        ]


def test_degenerate_resonance_rejected():
    with pytest.raises(DegenerateResonance):
        solve_involutions(LinearPart(Fraction(2), Fraction(-2)), 2)


def test_unsupported_order_rejected():
    with pytest.raises(UnsupportedGroupOrder):
        solve_involutions(LIN, 5)


def test_raw_system_accepts_exactly_the_solutions():
    for n in (2, 3, 4):
        for sol in solve_involutions(LIN, n):
            assert verify_raw_system(sol.s, LIN, n).ok


def test_raw_system_rejects_perturbations():
    rng = random.Random("solver-perturb")
    sols = solve_involutions(LIN, 4)
    for _ in range(50):
        base = rng.choice(sols).s
        i, j = rng.randrange(4), rng.randrange(4)
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        rows = [[base[r, c] for c in range(4)] for r in range(4)]
        rows[i][j] = rows[i][j] + delta
        assert not verify_raw_system(Mat4(rows), LIN, 4).ok


def test_raw_system_report_names_failures():
    rep = verify_raw_system(Mat4.identity(), LIN, 2)
    assert not rep.ok
    assert any(name.startswith("anticommute") for name in rep.failing)


def test_solution_json_shape():
    sol = solve_involutions(LIN, 4)[0]
    obj = sol.to_json(class_id="Xi1")
    assert set(obj) == {"matrix", "angles", "degenerate", "group_order", "class_id"}
