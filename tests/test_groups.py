"""Matrix group closure, dihedral recognition, sign homomorphism."""

from fractions import Fraction

import pytest

from revequiv.exactalg import Mat4
from revequiv.groups import (
    ClosureCapExceeded,
    NotCompatible,
    element_order,
    generate_closure,
    is_dihedral,
    sign_assignment,
)
from revequiv.solver import (
    R0,
    LinearPart,
    partition_by_group,
    reflection_block_matrix,
    solve_involutions,
)


def test_closure_of_klein_group():
    s = Mat4.diagonal([-1, 1, 1, -1])
    g = generate_closure([R0, s])
    assert g.order == 4
    assert Mat4.identity() in g
    assert is_dihedral(g, 2)


def test_closure_contains_inverses():
    s = reflection_block_matrix(4, 1, 0)
    g = generate_closure([R0, s])
    ident = Mat4.identity()
    for m in g.elements:
        assert any(m * h == ident for h in g.elements)


def test_dihedral_orders():
    for n in (2, 3, 4, 6):
        s = reflection_block_matrix(n, 1, 0)
        g = generate_closure([R0, s])
        assert g.order == 2 * n
        assert is_dihedral(g, n)
        assert not is_dihedral(g, n + 1)


def test_element_order():
    s = reflection_block_matrix(4, 1, 0)
    assert element_order(s) == 2
    assert element_order(R0 * s) == 4
    assert element_order(Mat4.identity()) == 1


def test_closure_cap():
    # an infinite-order rational rotation blows past any cap
    m = Mat4(
        [
            [Fraction(3, 5), Fraction(-4, 5), 0, 0],
            [Fraction(4, 5), Fraction(3, 5), 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
    )
    with pytest.raises(ClosureCapExceeded):
        generate_closure([m])


def test_singular_generator_rejected():
    with pytest.raises(ValueError):
        generate_closure([Mat4.zero()])


def test_sign_assignment_multiplicative():
    lin = LinearPart(Fraction(1), Fraction(2))
    a = lin.matrix()
    for n in (2, 3, 4):
        s = reflection_block_matrix(n, 1, 1)
        g = generate_closure([R0, s])
        rho = sign_assignment(g, a)
        assert rho.is_multiplicative()
        # reversing elements form a coset of index 2
        assert sum(1 for x in rho.signs if x == -1) == g.order // 2
        assert rho[R0] == -1
        assert rho[Mat4.identity()] == +1


def test_sign_assignment_rejects_incompatible():
    lin = LinearPart(Fraction(1), Fraction(2))
    shear = Mat4([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    g = generate_closure([R0])
    bad = type(g)(elements=g.elements + (shear,))
    with pytest.raises(NotCompatible):
        sign_assignment(bad, lin.matrix())


def test_closures_of_one_class_are_equal():
    # a group is its elements: closing <R0, S> from either member of a class
    # gives one value, usable as a dict key
    lin = LinearPart(Fraction(1), Fraction(2))
    for n in (3, 4):
        for c in partition_by_group(solve_involutions(lin, n, include_degenerate=False)):
            s1, s2 = c.members[0].s, c.members[1].s
            assert s1 != s2
            g1, g2 = generate_closure([R0, s1]), generate_closure([R0, s2])
            assert g1 == g2 and hash(g1) == hash(g2)
            assert g1 == c.group
