"""Fraction-free elimination against a plain Fraction Gauss-Jordan reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from revequiv import linalg


def reference_rref(rows):
    """Textbook Gauss-Jordan over Fraction: first nonzero entry as pivot."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def reference_nullspace(rows, ncols):
    red, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)


@st.composite
def matrices(draw, min_rows=0):
    """Rational matrices with zero rows, repeated and rescaled rows, and
    shapes both taller and wider than square."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=8))
    extra = draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 2), Fraction(5)])),
        max_size=4))
    for i, factor in extra:
        if rows:
            rows.insert(i % (len(rows) + 1), [factor * x for x in rows[i % len(rows)]])
    return rows


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_reference(rows):
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == reference_rref(rows)
    assert all(type(x) is Fraction for row in red for x in row)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(rows):
    ncols = len(rows[0]) if rows else 3
    expected = (
        reference_nullspace(rows, ncols)
        if rows
        else [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    )
    assert linalg.nullspace(rows, ncols=ncols) == expected


@settings(max_examples=200, deadline=None)
@given(matrices(min_rows=1), st.data())
def test_solve_matches_reference(rows, data):
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x = linalg.solve(rows, rhs)
    assert x == reference_solve(rows, rhs)
    if x is not None:
        assert all(sum(a * b for a, b in zip(r, x)) == c for r, c in zip(rows, rhs))


@st.composite
def sparse_systems(draw):
    """Integer rows with one to three nonzeros, as the oracle's blocks have,
    with duplicate, negated and zero rows, and some rows written with
    Fractions among their ints; plus a right-hand side."""
    ncols = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        row = [0] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=3)):
            row[c] = draw(st.integers(-6, 6).filter(bool))
        rows.append(row)
    for kind in draw(st.lists(st.sampled_from(["duplicate", "negated", "zero", "mixed"]),
                              max_size=5)):
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif kind == "negated":
            rows.insert(draw(st.integers(0, len(rows))), [-x for x in rows[i]])
        elif kind == "zero":
            rows.insert(i, [0] * ncols)
        else:
            rows[i] = [Fraction(x, draw(st.integers(1, 4))) if draw(st.booleans()) else x
                       for x in rows[i]]
    rhs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_sparse_rows_match_reference(system):
    rows, rhs = system
    ncols = len(rows[0])
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == reference_rref(rows)
    basis = linalg.nullspace(rows)
    assert basis == reference_nullspace(rows, ncols)
    x = linalg.solve(rows, rhs)
    assert x == reference_solve(rows, rhs)
    for out in red + basis + ([x] if x is not None else []):
        assert len(out) == ncols
        assert all(type(v) is Fraction for v in out)


def test_empty_and_inconsistent_inputs():
    assert linalg.rref([]) == ([], [])
    assert linalg.nullspace([]) == []
    assert linalg.solve([], []) is None
    assert linalg.solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                        [Fraction(1), Fraction(3)]) is None


def test_float_entries_are_rejected():
    # a float would otherwise become its binary expansion
    for rows in ([[0.5, 1]], [[1, 0], [0, 1.0]]):
        with pytest.raises(AttributeError):
            linalg.rref(rows)
    with pytest.raises(AttributeError):
        linalg.solve([[1, 0], [0, 1]], [0.1, 1])
