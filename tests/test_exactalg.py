"""Exact scalar and matrix arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from revequiv.exactalg import (
    AlgScalar,
    IncompatibleRadicals,
    Mat4,
    anticommutes,
    is_involution,
    scalar,
)
from revequiv.vecfield import Poly

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def alg_scalars(d):
    return st.builds(lambda a, b: AlgScalar(a, b, d), rationals, rationals)


@given(alg_scalars(3), alg_scalars(3))
def test_add_then_subtract_roundtrips(x, y):
    assert (x + y) - y == x


@given(alg_scalars(5), alg_scalars(5), alg_scalars(5))
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(alg_scalars(2))
def test_conjugate_norm_is_rational(x):
    n = x * x.conjugate()
    assert n.is_rational()


def test_radical_canonicalization():
    assert AlgScalar(Fraction(1, 2), 0, 7) == AlgScalar(Fraction(1, 2))
    assert AlgScalar(Fraction(1, 2), 0, 7).d == 0
    assert AlgScalar(0, 2, 1) == AlgScalar(2)


def test_mixed_radicals_rejected():
    x = AlgScalar(0, 1, 2)
    y = AlgScalar(0, 1, 3)
    with pytest.raises(IncompatibleRadicals):
        x + y


def test_non_squarefree_radical_rejected():
    # a radical that is not an int is rejected too, even with b = 0
    for d in (4, -3, 2.5, 3.0, True, Fraction(3)):
        with pytest.raises(ValueError):
            AlgScalar(0, 1, d)
    with pytest.raises(ValueError):
        AlgScalar(1, 0, 2.5)


def test_scalar_coercion():
    assert scalar(3) == AlgScalar(3)
    assert scalar(Fraction(2, 5)).as_rational() == Fraction(2, 5)
    # scalar() passes an AlgScalar through; the constructor takes only parts
    with pytest.raises(TypeError):
        AlgScalar(AlgScalar(3))


@pytest.mark.parametrize("bad", [0.1, 0.5, 1.0, True, False, "1/2"])
def test_inexact_parts_rejected(bad):
    # a float would be stored as its binary expansion, and a bool is no number
    with pytest.raises(TypeError):
        AlgScalar(bad)
    with pytest.raises(TypeError):
        AlgScalar(1, bad, 2)
    with pytest.raises(TypeError):
        scalar(bad)
    with pytest.raises(TypeError):
        Poly.monomial((1, 0, 0, 0), bad)
    with pytest.raises(TypeError):
        Mat4.diagonal([1, 1, 1, bad])


def test_known_quadratic_arithmetic():
    half_root3 = AlgScalar(0, Fraction(1, 2), 3)
    # (sqrt(3)/2)^2 = 3/4
    assert half_root3 * half_root3 == AlgScalar(Fraction(3, 4))


def test_json_round_trip():
    vals = [AlgScalar(Fraction(3, 2)), AlgScalar(Fraction(-1, 2), Fraction(1, 2), 3)]
    for v in vals:
        assert AlgScalar.from_json(v.to_json()) == v


def test_matrix_products_and_involutions():
    r0 = Mat4.diagonal([1, -1, 1, -1])
    assert is_involution(r0)
    assert r0 * r0 == Mat4.identity()
    a = Mat4([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]])
    assert anticommutes(r0, a)


def test_matrix_determinant_and_json():
    m = Mat4([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert m.det() == scalar(6)
    assert Mat4.from_json(m.to_json()) == m


def test_matrix_sort_key_deterministic():
    a = Mat4.diagonal([1, 1, 1, 1])
    b = Mat4.diagonal([1, 1, 1, -1])
    assert sorted([a, b], key=Mat4.sort_key) == sorted(
        [b, a], key=Mat4.sort_key
    )


# -- the rational fast path ----------------------------------------------------
# A sum or product of two rationals skips the constructor, so its result is
# compared with the constructor's, built from parts worked out by hand.

nonzero_rationals = rationals.filter(lambda r: r != 0)
KINDS = {"rational": (st.just(Fraction(0)), 0), "sqrt3": (nonzero_rationals, 3)}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _parts(kind):
    b, d = KINDS[kind]
    return st.tuples(rationals, b, st.just(d))


def _expected(op, x, y):
    """AlgScalar(a, b, d) from the parts of x op y, computed on Fractions."""
    (a1, b1, d1), (a2, b2, d2) = x, y
    d = max(d1, d2)
    if op == "+":
        return AlgScalar(a1 + a2, b1 + b2, d)
    if op == "-":
        return AlgScalar(a1 - a2, b1 - b2, d)
    return AlgScalar(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, d)


def _assert_same_scalar(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert type(got.a) is Fraction and type(got.b) is Fraction
    if got.d == 0:
        assert got.b == 0


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("left, right", [("rational", "rational"), ("rational", "sqrt3"),
                                         ("sqrt3", "rational"), ("sqrt3", "sqrt3")])
@given(data=st.data())
def test_arithmetic_matches_the_constructor(left, right, op, data):
    x = data.draw(_parts(left))
    y = data.draw(_parts(right))
    _assert_same_scalar(OPS[op](AlgScalar(*x), AlgScalar(*y)), _expected(op, x, y))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_negation_matches_the_constructor(kind, data):
    a, b, d = data.draw(_parts(kind))
    x = AlgScalar(a, b, d)
    _assert_same_scalar(-x, AlgScalar(-a, -b, d))
    _assert_same_scalar(x.conjugate(), AlgScalar(a, -b, d))


@given(rationals, nonzero_rationals, st.integers(-20, 20), rationals)
def test_int_and_fraction_operands_on_both_sides(a, b, n, r):
    for x in (AlgScalar(a), AlgScalar(a, b, 3)):
        _assert_same_scalar(n * x, AlgScalar(n * x.a, n * x.b, x.d))
        _assert_same_scalar(x * n, AlgScalar(n * x.a, n * x.b, x.d))
        _assert_same_scalar(x + r, AlgScalar(x.a + r, x.b, x.d))
        _assert_same_scalar(r + x, AlgScalar(x.a + r, x.b, x.d))
        _assert_same_scalar(x - r, AlgScalar(x.a - r, x.b, x.d))
        _assert_same_scalar(r - x, AlgScalar(r - x.a, -x.b, x.d))
    _assert_same_scalar(2 * AlgScalar(a), AlgScalar(2 * a))
    _assert_same_scalar(AlgScalar(a) + Fraction(1, 3), AlgScalar(a + Fraction(1, 3)))


@pytest.mark.parametrize("op", OPS)
def test_mixed_radicals_rejected_by_every_operation(op):
    root2, root3 = AlgScalar(1, 1, 2), AlgScalar(0, Fraction(1, 2), 3)
    for x, y in ((root2, root3), (root3, root2)):
        with pytest.raises(IncompatibleRadicals):
            OPS[op](x, y)
