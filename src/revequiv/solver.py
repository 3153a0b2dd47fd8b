"""Classification of the second reversing involution.

Enumerates all linear involutions S with S*A = -A*S and (R0*S)^n = Id for the
block-rotation linear part A(alpha, beta), partitions them by the group they
generate together with R0, and writes each such group from the angles.

The enumeration is complete: when |alpha| != |beta|, S*A = -A*S forces S
block-diagonal with symmetric traceless 2x2 blocks; S^2 = Id makes each block
a unit reflection [[cos t, sin t], [sin t, -cos t]], and (R0*S)^n = Id makes
exp(i*t) an n-th root of unity.  So the solutions are the n^2 angle pairs
(k1/n, k2/n), and <R0, S> has order 2n iff gcd(n, k1, k2) = 1: there are
J2(n) = n^2 * prod_{l | n} (1 - 1/l^2) such non-degenerate S (Jordan's
totient) and n^2 - J2(n) degenerate ones.  Two share a class iff their
(k1, k2) generate the same cyclic subgroup of (Z/n)^2; its phi(n) generators
are the class, and the J2(n)/phi(n) classes are the points of P^1(Z/n):
3, 8, 12, 24 solutions in 3, 4, 6, 12 classes for n = 2, 3, 4, 6.  The
paper's order-3 list of three leaves out the class {(1/3, 2/3), (2/3, 1/3)}.
`verify_raw_system` is the independent check of this reduction, called by
the tests and criterion 4: it substitutes S into the raw polynomial system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Sequence, Tuple

from .exactalg import AlgScalar, Mat4
from .groups import MatGroup, SignAssignment

SUPPORTED_N = (2, 3, 4, 6)


class DegenerateResonance(ValueError):
    """|alpha| = |beta|: the block reduction is invalid and the case is
    outside the supported theory."""


class UnsupportedGroupOrder(ValueError):
    pass


def linear_part_matrix(alpha: Fraction, beta: Fraction) -> Mat4:
    """A(alpha, beta): two independent 2x2 rotations-generators."""
    return Mat4(
        [
            [0, -alpha, 0, 0],
            [alpha, 0, 0, 0],
            [0, 0, 0, -beta],
            [0, 0, beta, 0],
        ]
    )


R0 = Mat4.diagonal([1, -1, 1, -1])


@dataclass(frozen=True)
class LinearPart:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        for x in (self.alpha, self.beta):
            if type(x) not in (int, Fraction):
                raise TypeError(f"alpha and beta must be ints or Fractions, got {x!r}")
        a = Fraction(self.alpha)
        b = Fraction(self.beta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if a == 0 or b == 0:
            raise ValueError("alpha and beta must be nonzero")

    def matrix(self) -> Mat4:
        return linear_part_matrix(self.alpha, self.beta)

    def check_nonresonant_pair(self):
        if abs(self.alpha) == abs(self.beta):
            raise DegenerateResonance(
                "degenerate resonance, block reduction invalid: |alpha| == |beta|"
            )


# exact (cos, sin) at 0, 30 and 60 degrees
_HALF = Fraction(1, 2)
_BASE_CS = (
    (AlgScalar(1), AlgScalar(0)),
    (AlgScalar(0, _HALF, 3), AlgScalar(_HALF)),
    (AlgScalar(_HALF), AlgScalar(0, _HALF, 3)),
)


def _cs(n: int, k: int) -> Tuple[AlgScalar, AlgScalar]:
    """Exact (cos, sin) of 2*pi*k/n, for n dividing 12.

    The angle is t * 30 degrees with t = 12k/n mod 12: the base angle
    t mod 3, then t // 3 quarter turns (c, s) -> (-s, c).
    """
    if n < 1 or 12 % n:
        raise ValueError(f"n must divide 12, got {n}")
    t = 12 // n * k % 12
    c, s = _BASE_CS[t % 3]
    for _ in range(t // 3):
        c, s = -s, c
    return c, s


def reflection_block_matrix(n: int, k1: int, k2: int) -> Mat4:
    """diag-block of the two unit reflections at angles 2*pi*k1/n, 2*pi*k2/n."""
    c1, s1 = _cs(n, k1)
    c2, s2 = _cs(n, k2)
    z = AlgScalar(0)
    return Mat4(
        [
            [c1, s1, z, z],
            [s1, -c1, z, z],
            [z, z, c2, s2],
            [z, z, s2, -c2],
        ]
    )


@dataclass(frozen=True)
class InvolutionSolution:
    s: Mat4
    block_angles: Tuple[Fraction, Fraction]  # (k1/n, k2/n)
    degenerate: bool
    group_order: int

    def sort_key(self):
        return self.s.sort_key()

    def to_json(self, class_id=None) -> dict:
        out = {
            "matrix": self.s.to_json(),
            "angles": [
                {"num": a.numerator, "den": a.denominator} for a in self.block_angles
            ],
            "degenerate": self.degenerate,
            "group_order": self.group_order,
        }
        if class_id is not None:
            out["class_id"] = class_id
        return out


def rotation_angles(a: Fraction, b: Fraction) -> FrozenSet[Tuple[Fraction, Fraction]]:
    """The rotations of <R0, S> for S with block angles (a, b), in turns.

    R0*S rotates the blocks by -a and -b turns, so the rotations are the
    multiples (m*a, m*b) mod 1, and <R0, S> is them and R0 times each."""
    rotations, r = set(), (Fraction(0), Fraction(0))
    while r not in rotations:
        rotations.add(r)
        r = ((r[0] + a) % 1, (r[1] + b) % 1)
    return frozenset(rotations)


@dataclass(frozen=True)
class XiClass:
    """The solutions that generate one group <R0, S>, that group, and its
    sign homomorphism rho: -1 on the reflections, +1 on the rotations."""

    members: Tuple[InvolutionSolution, ...]
    group: MatGroup
    rho: SignAssignment

    @property
    def group_order(self) -> int:
        return self.group.order


def solve_involutions(
    lin: LinearPart, n: int, include_degenerate: bool = True
) -> List[InvolutionSolution]:
    """All S with S*A = -A*S, S^2 = Id, (R0*S)^n = Id, canonically sorted.

    Solutions whose group <R0, S> has order below 2n (in particular S = R0)
    are flagged degenerate; they are included unless ``include_degenerate``
    is false.
    """
    if n not in SUPPORTED_N:
        raise UnsupportedGroupOrder(
            f"n must be one of {SUPPORTED_N} (quadratic-field angle values); got {n}"
        )
    lin.check_nonresonant_pair()
    out = []
    for k1 in range(n):
        for k2 in range(n):
            s = reflection_block_matrix(n, k1, k2)
            angles = (Fraction(k1, n), Fraction(k2, n))
            group_order = 2 * len(rotation_angles(*angles))
            sol = InvolutionSolution(
                s=s,
                block_angles=angles,
                degenerate=group_order < 2 * n,
                group_order=group_order,
            )
            if sol.degenerate and not include_degenerate:
                continue
            out.append(sol)
    out.sort(key=InvolutionSolution.sort_key)
    return out


def partition_by_group(solutions: Sequence[InvolutionSolution]) -> List[XiClass]:
    """Group solutions by the group <R0, S>, keyed by their `rotation_angles`
    T, and write it from T: the reflections at the angles in T and R0 times
    each, the reflection with rows 2 and 4 negated.  Classes come out in the
    canonical order of their first members.
    """
    buckets = {}
    for sol in sorted(solutions, key=InvolutionSolution.sort_key):
        buckets.setdefault(rotation_angles(*sol.block_angles), []).append(sol)
    classes = []
    for angles, sols in buckets.items():
        signed = []
        for t1, t2 in angles:
            s = reflection_block_matrix(12, int(12 * t1), int(12 * t2))
            rows = [[-x for x in r] if i % 2 else r for i, r in enumerate(s.rows)]
            signed += [(s, -1), (Mat4(rows), 1)]
        signed.sort(key=lambda e: e[0].sort_key())
        group = MatGroup(elements=tuple(m for m, _ in signed))
        rho = SignAssignment(signs=tuple(sign for _, sign in signed), group=group)
        classes.append(XiClass(members=tuple(sols), group=group, rho=rho))
    return classes


@dataclass(frozen=True)
class RawSystemReport:
    """Per-equation residuals of the raw polynomial system at a candidate S."""

    residuals: Tuple[Tuple[str, AlgScalar], ...]

    @property
    def ok(self) -> bool:
        return all(r.is_zero() for _, r in self.residuals)

    @property
    def failing(self) -> List[str]:
        return [name for name, r in self.residuals if not r.is_zero()]


def verify_raw_system(s: Mat4, lin: LinearPart, n: int) -> RawSystemReport:
    """Substitute the 16 entries of s into every equation of the raw system.

    The system is generated programmatically from the matrix relations
    S*A + A*S = 0, S^2 - Id = 0 and the group relation
    S*R0 - (R0*S)^(n-1) = 0;
    evaluating each entry of these matrix expressions at s is exactly the
    substitution of s into the corresponding scalar polynomial equation.
    """
    a_mat = lin.matrix()
    residuals = []

    def record(tag: str, m: Mat4):
        for i in range(4):
            for j in range(4):
                residuals.append((f"{tag}[{i + 1},{j + 1}]", m[i, j]))

    record("anticommute", s * a_mat + a_mat * s)
    record("involution", s * s - Mat4.identity())
    power = p = R0 * s
    for _ in range(n - 2):
        power = power * p
    record("group", s * R0 - power)
    return RawSystemReport(residuals=tuple(residuals))
