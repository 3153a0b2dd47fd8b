"""Finite matrix-group machinery.

Closure generation by repeated multiplication, dihedral recognition, and the
sign homomorphism rho that separates time-reversing elements (which
anticommute with the linear part) from equivariant ones (which commute).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from .exactalg import Mat4, anticommutes, commutes

CAP = 64


class ClosureCapExceeded(RuntimeError):
    pass


class NotCompatible(ValueError):
    """An element neither commutes nor anticommutes with the linear part."""


@dataclass(frozen=True)
class MatGroup:
    """A finite matrix group, its elements sorted by the injective
    ``Mat4.sort_key``: groups with the same elements are equal."""

    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: Mat4) -> bool:
        return m in self.elements

    def to_json(self, rho: "SignAssignment") -> dict:
        return {
            "order": self.order,
            "elements": [m.to_json() for m in self.elements],
            "rho": list(rho.signs),
        }


@dataclass(frozen=True)
class SignAssignment:
    """A map group element -> {+1, -1}, multiplicative by construction."""

    signs: tuple  # parallel to group.elements
    group: MatGroup = field(compare=False)

    def __getitem__(self, m: Mat4) -> int:
        return self.signs[self.group.elements.index(m)]

    def as_dict(self) -> Dict[Mat4, int]:
        return dict(zip(self.group.elements, self.signs))

    def is_multiplicative(self) -> bool:
        d = self.as_dict()
        for g, sg in d.items():
            for h, sh in d.items():
                if d[g * h] != sg * sh:
                    return False
        return True


def generate_closure(gens: Sequence[Mat4]) -> MatGroup:
    """Multiplicative closure of the generators (which must be invertible).

    Deterministic element order: canonical entrywise sort.
    """
    for g in gens:
        if g.det().is_zero():
            raise ValueError("generator is singular")
    seen = {Mat4.identity()}
    frontier = [Mat4.identity()]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > CAP:
                        raise ClosureCapExceeded(f"closure exceeds cap of {CAP} elements")
        frontier = nxt
    elements = tuple(sorted(seen, key=Mat4.sort_key))
    return MatGroup(elements=elements)


def element_order(m: Mat4) -> int:
    p = m
    n = 1
    ident = Mat4.identity()
    while p != ident:
        p = p * m
        n += 1
        if n > CAP:
            raise ClosureCapExceeded("element order exceeds cap")
    return n


def is_dihedral(g: MatGroup, n: int) -> bool:
    """Structural dihedral test: |g| = 2n with a rotation r of order n such
    that every element outside <r> is an involution conjugating r to r^-1.

    For n = 2 this is the Klein group Z2 x Z2.
    """
    if g.order != 2 * n:
        return False
    rotations = [m for m in g.elements if element_order(m) == n]
    if not rotations:
        return False
    ident = Mat4.identity()
    for r in rotations:
        powers = [ident]
        for _ in range(n - 1):
            powers.append(powers[-1] * r)
        r_inv = powers[-1]  # r^(n-1) = r^-1
        outside = [m for m in g.elements if m not in powers]
        if all(m * m == ident and m * r * m == r_inv for m in outside):
            return True
    return False


def sign_assignment(g: MatGroup, a: Mat4) -> SignAssignment:
    """rho(phi) = -1 if phi anticommutes with the linear part, +1 if it
    commutes.  Raises NotCompatible otherwise; the result is always
    verified multiplicative.
    """
    signs = []
    for m in g.elements:
        if anticommutes(m, a):
            signs.append(-1)
        elif commutes(m, a):
            signs.append(+1)
        else:
            raise NotCompatible(f"element {m!r} not compatible with linear part")
    rho = SignAssignment(signs=tuple(signs), group=g)
    if not rho.is_multiplicative():
        raise NotCompatible("sign assignment is not multiplicative")
    return rho
