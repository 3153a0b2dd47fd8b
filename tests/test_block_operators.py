"""The oracle's integer block operators against the generic field operators."""

from fractions import Fraction

import pytest

from revequiv.exactalg import Mat4
from revequiv.normalform import (
    ResonanceSpec,
    _blocks,
    _defect_block,
    _homological,
    _homological_block,
    _symmetry_candidates,
)
from revequiv.vecfield import Poly, PolyVF

DEGREES = range(2, 8)
# R0, the six class representatives and the other rational involutions that
# normalization detects
REVERSORS = _symmetry_candidates()


def _reversibility_defect(h, phi, sign):
    """phi . h(xi) - sign * h(phi xi); zero iff h has the symmetry."""
    comps = []
    for i in range(4):
        acc = Poly()
        for j in range(4):
            acc = acc + h.components[j].scale(phi[i, j])
        acc = acc - h.components[i].substitute_linear(phi).scale(sign)
        comps.append(acc)
    return PolyVF(comps, h.max_degree)


def _field_to_block_vector(v, basis_index):
    """Coordinates of a field in a block basis; raises if it leaks outside."""
    out = [Fraction(0)] * len(basis_index)
    for i in range(4):
        for e, c in v.components[i].terms.items():
            key = (i, e)
            if key not in basis_index:
                raise ValueError(f"operator leaks outside block: {key}")
            out[basis_index[key]] = c.as_rational()
    return out


def _basis_field(comp, e, degree):
    comps = [Poly() for _ in range(4)]
    comps[comp] = Poly.monomial(e, 1)
    return PolyVF(comps, degree)


def generic_block_matrix(block, degree, op):
    """Matrix of a field operator on one block, column by column, from the
    images of the basis fields under the generic Poly operations."""
    basis = block.basis()
    index = {key: k for k, key in enumerate(basis)}
    cols = [
        _field_to_block_vector(op(_basis_field(comp, e, degree)), index)
        for comp, e in basis
    ]
    return [[cols[c][r] for c in range(len(basis))] for r in range(len(basis))]


@pytest.mark.parametrize("pq", [(1, 2), (1, 3), (3, 5)])
def test_homological_block_matches_generic_operator(pq):
    a = ResonanceSpec(*pq).linear_matrix()
    for b in (a, a.transpose()):
        for k in DEGREES:
            for block in _blocks(k):
                expected = generic_block_matrix(block, k, lambda h: _homological(h, b))
                assert _homological_block(block, b) == expected, (pq, b, block)


@pytest.mark.parametrize("sign", [-1, 1])
def test_defect_block_matches_generic_operator(sign):
    # the defect does not involve the resonance, so this covers every p:q
    for phi in REVERSORS:
        for k in DEGREES:
            for block in _blocks(k):
                expected = generic_block_matrix(
                    block, k, lambda h: _reversibility_defect(h, phi, sign)
                )
                assert _defect_block(block, phi, sign) == expected, (phi, block)


def test_block_operators_reject_unsupported_matrices():
    block = _blocks(3)[1]
    half = Mat4.diagonal([Fraction(1, 2), 1, 1, 1])
    with pytest.raises(ValueError, match="not an integer"):
        _homological_block(block, half)
    with pytest.raises(ValueError, match="not an integer"):
        _defect_block(block, half, -1)
    shear = Mat4([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="signed permutation"):
        _defect_block(block, shear, -1)
    with pytest.raises(ValueError, match="signed permutation"):
        _defect_block(block, Mat4.diagonal([2, 1, 1, 1]), -1)
    collapse = Mat4([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="signed permutation"):
        _defect_block(block, collapse, -1)
    mixing = Mat4([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="leaks outside block"):
        _homological_block(block, mixing)
