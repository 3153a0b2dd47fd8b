"""Resonant normal forms for p:q-resonant, dihedrally reversible fields.

Two independent routes to the same answer:

* the complex route: enumerate resonant monomials z1^a zbar1^b z2^c zbar2^d
  and derive, for each antiholomorphic linear involution, the coefficient
  constraint it forces (purely imaginary, purely real or Re = +-Im); the
  survivors of (conj, phi_j) are those that phi_j, like conj, makes purely
  imaginary;

* the real route (the oracle): assemble, over Q, the kernel of the adjoint
  homological operator intersected with the two linear reversibility
  conditions, degree by degree, with exact nullspace computations.

Complex units are tracked as powers of i, so the whole pipeline stays in
rational arithmetic; a complex coefficient is a (Re, Im) pair of reals and a
conjugation-linear map acts on it through an explicit sign/swap rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .exactalg import Mat4
from .solver import R0, linear_part_matrix, reflection_block_matrix
from .vecfield import (
    Poly, PolyMap, PolyVF, _apply, _linear_forms, check_symmetry, conjugate
)


# ---------------------------------------------------------------------------
# resonance data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResonanceSpec:
    """A p:q resonance with coprime positive integers p != q."""

    p: int
    q: int

    def __post_init__(self):
        for x in (self.p, self.q):
            if type(x) is not int:
                raise TypeError(f"p and q must be ints, got {x!r}")
        if self.p < 1 or self.q < 1:
            raise ValueError("p, q must be positive integers")
        if gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")
        if self.p == self.q:
            raise ValueError("p == q (the 1:1 case) is outside the supported theory")

    def linear_matrix(self) -> Mat4:
        return linear_part_matrix(Fraction(self.p), Fraction(self.q))


@dataclass(frozen=True)
class ResMonomial:
    """z1^a zbar1^b z2^c zbar2^d d/dz_component, component in {1, 2}."""

    component: int
    exps: Tuple[int, int, int, int]

    def __post_init__(self):
        if self.component not in (1, 2):
            raise ValueError("component must be 1 or 2")
        if any(e < 0 for e in self.exps):
            raise ValueError("exponents must be nonnegative")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def satisfies_resonance(self, spec: ResonanceSpec) -> bool:
        a, b, c, d = self.exps
        target = spec.p if self.component == 1 else spec.q
        return spec.p * (a - b) + spec.q * (c - d) == target

    def is_delta_type(self) -> bool:
        """True for z_j * Delta1^m * Delta2^n (the always-surviving shape)."""
        a, b, c, d = self.exps
        if self.component == 1:
            return a - b == 1 and c == d
        return a == b and c - d == 1

    def sort_key(self):
        return (self.component, self.degree, self.exps)

    def __str__(self) -> str:
        a, b, c, d = self.exps
        facs = []
        for e, name in zip((a, b, c, d), ("z1", "~z1", "z2", "~z2")):
            if e == 1:
                facs.append(name)
            elif e > 1:
                facs.append(f"{name}^{e}")
        body = "*".join(facs) if facs else "1"
        return f"{body} d/dz{self.component}"


def resonant_monomials(spec: ResonanceSpec, degree: int) -> List[ResMonomial]:
    """All monomials of total degree <= degree on the resonance lattice.

    Exhaustive enumeration of exponent tuples; the structured description
    (z_j and zbar1^(q-1) z2^p bases times products of the four resonant
    invariants) is recovered from this list, not assumed by it.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    out = []
    for comp in (1, 2):
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                for c in range(degree + 1 - a - b):
                    for d in range(degree + 1 - a - b - c):
                        if a + b + c + d == 0:
                            continue
                        m = ResMonomial(comp, (a, b, c, d))
                        if m.satisfies_resonance(spec):
                            out.append(m)
    out.sort(key=ResMonomial.sort_key)
    return out


# ---------------------------------------------------------------------------
# antiholomorphic involutions and coefficient constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RevInvolution:
    """(z1, z2) -> (i^eps1 * conj(z1), i^eps2 * conj(z2)), an involution of C^2.

    The units are stored as exponents of i; only their residues mod 4 matter.
    """

    eps1: int
    eps2: int

    def real_form(self) -> Mat4:
        """The same map on (x1, x2, y1, y2), z1 = x1 + i x2, z2 = y1 + i y2:
        z -> i^k conj(z) is the reflection at angle k*pi/2."""
        return reflection_block_matrix(4, self.eps1, self.eps2)


# The seven reflections phi_0..phi_6.  phi_1..phi_6 convert, in real
# coordinates, to members of the six dihedral solution classes (one per
# class), which is validated in the tests.  phi_0 = -conj = -diag(1,-1,1,-1)
# is NOT an element of the groups <diag(1,-1,1,-1), S_j> for j in
# {1,2,3,5}; using it as the first reversor instead of conj swaps the
# classes 1<->5 and 2<->3.  The survival analysis therefore pairs phi_j with
# conj = (0, 0), the complex form of diag(1,-1,1,-1); phi_0 is kept for
# checking the published-style constraint tables, which were derived with it.
PHI = {j: RevInvolution(*units) for j, units in
       enumerate([(2, 2), (1, 0), (2, 1), (0, 1), (1, 1), (1, 2), (1, 3)])}

GROUP_INDICES = (1, 2, 3, 4, 5, 6)


def real_group_representative(group_index: int) -> Mat4:
    """The real 4x4 involution corresponding to phi_{group_index}."""
    if group_index not in GROUP_INDICES:
        raise ValueError("group index must be 1..6")
    return PHI[group_index].real_form()


class CoeffConstraint(Enum):
    """Constraint on a complex coefficient forced by reversibility."""

    RE_ZERO = "ReZero"  # conj(b) = -b
    IM_ZERO = "ImZero"  # conj(b) = b
    RE_EQ_IM = "ReEqIm"  # conj(b) = -i b
    RE_EQ_MINUS_IM = "ReEqMinusIm"  # conj(b) = i b


_CHI_TO_CONSTRAINT = {
    0: CoeffConstraint.IM_ZERO,  # chi = 1
    1: CoeffConstraint.RE_EQ_MINUS_IM,  # chi = i
    2: CoeffConstraint.RE_ZERO,  # chi = -1
    3: CoeffConstraint.RE_EQ_IM,  # chi = -i
}


def reversibility_unit(m: ResMonomial, phi: RevInvolution) -> int:
    """Exponent e with conj(coefficient) = i^e * coefficient forced by
    phi-reversibility of the monomial field."""
    a, b, c, d = m.exps
    kj = phi.eps1 if m.component == 1 else phi.eps2
    # chi = -eps1^(a-b) eps2^(c-d) conj(eps_j)
    return (2 + phi.eps1 * (a - b) + phi.eps2 * (c - d) - kj) % 4


def constraint_for(m: ResMonomial, phi: RevInvolution) -> CoeffConstraint:
    """The coefficient constraint that phi-reversibility forces on m."""
    return _CHI_TO_CONSTRAINT[reversibility_unit(m, phi)]


# ---------------------------------------------------------------------------
# survival analysis
# ---------------------------------------------------------------------------


def relaxed_hypothesis(spec: ResonanceSpec) -> Dict[str, bool]:
    """The three mod-4 side conditions under which the pure
    Delta1/Delta2 normal form is claimed."""
    p, q = spec.p, spec.q
    cond_q = (
        q % 4 == 1
        or q % 4 == 3
        or (q % 4 == 0 and (p + q) % 2 == 1)
        or (q % 4 == 2 and (p + q) % 2 == 0)
    )
    cond_p_mid = p % 4 in (1, 2, 3)
    cond_p = (
        p % 4 == 1
        or p % 4 == 3
        or (p % 4 == 0 and q % 2 == 1)
        or (p % 4 == 2 and q % 2 == 0)
    )
    return {
        "q_condition": cond_q,
        "p_nondegenerate": cond_p_mid,
        "p_condition": cond_p,
        "holds": cond_q and cond_p_mid and cond_p,
    }


@dataclass(frozen=True)
class NormalFormResult:
    surviving: Tuple[Tuple[ResMonomial, CoeffConstraint], ...]
    degree: int
    spec: ResonanceSpec
    group_index: int
    hypothesis_status: dict

    def parameter_count(self, exact_degree: Optional[int] = None) -> int:
        """One real parameter per survivor."""
        return sum(
            1
            for m, _ in self.surviving
            if exact_degree is None or m.degree == exact_degree
        )

    def is_pure_delta_form(self) -> bool:
        return all(
            m.is_delta_type() and c is CoeffConstraint.RE_ZERO
            for m, c in self.surviving
        )

    def to_json(self) -> dict:
        return {
            "p": self.spec.p,
            "q": self.spec.q,
            "group": self.group_index,
            "degree": self.degree,
            "hypothesis_status": self.hypothesis_status,
            "surviving": [
                {
                    "component": m.component,
                    "exponents": list(m.exps),
                    "constraint": c.value,
                }
                for m, c in self.surviving
            ],
        }


def survival_analysis(
    spec: ResonanceSpec, group_index: int, degree: int
) -> NormalFormResult:
    """The resonant monomials that survive reversibility under the pair
    (conj, phi_j), each with the constraint on its coefficient.

    conj = RevInvolution(0, 0) is the complex form of the canonical real
    involution fixed by the classification.  reversibility_unit(m, conj) is
    2 for every m, so conj alone makes every coefficient purely imaginary,
    and no reversor leaves a coefficient free: the pair keeps m, as ReZero,
    iff phi_j forces ReZero on it too, and forces it to zero otherwise.  The
    survivors are thus exactly the resonant monomials that the rotation
    R0*S_j = conj o phi_j fixes.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if group_index not in GROUP_INDICES:
        raise ValueError("group index must be 1..6")
    phi = PHI[group_index]
    surviving = tuple(
        (m, CoeffConstraint.RE_ZERO)
        for m in resonant_monomials(spec, degree)
        if constraint_for(m, phi) is CoeffConstraint.RE_ZERO
    )
    status = dict(relaxed_hypothesis(spec))
    result = NormalFormResult(
        surviving=surviving,
        degree=degree,
        spec=spec,
        group_index=group_index,
        hypothesis_status=status,
    )
    status["pure_delta_form"] = result.is_pure_delta_form()
    return result


# ---------------------------------------------------------------------------
# the real normal-form template
# ---------------------------------------------------------------------------


class MixedResonantTerms(ValueError):
    """Survivors outside the z_j*Delta1^m*Delta2^n family: no pure template."""


@dataclass(frozen=True)
class RealNormalForm:
    """The 4-component template with free real parameters a_mn, b_mn:

        dx1 = -p x2 - x2 * sum a_mn D1^m D2^n
        dx2 =  p x1 + x1 * sum a_mn D1^m D2^n
        dy1 = -q y2 - y2 * sum b_mn D1^m D2^n
        dy2 =  q y1 + y1 * sum b_mn D1^m D2^n

    with D1 = x1^2 + x2^2, D2 = y1^2 + y2^2.
    """

    spec: ResonanceSpec
    degree: int
    a_indices: Tuple[Tuple[int, int], ...]
    b_indices: Tuple[Tuple[int, int], ...]

    def parameter_names(self) -> List[str]:
        return [f"a{m}{n}" for m, n in self.a_indices] + [
            f"b{m}{n}" for m, n in self.b_indices
        ]

    def as_text(self) -> str:
        def s(indices, letter):
            if not indices:
                return "0"
            return " + ".join(f"{letter}{m}{n}*D1^{m}*D2^{n}" for m, n in indices)

        sa, sb = s(self.a_indices, "a"), s(self.b_indices, "b")
        p, q = self.spec.p, self.spec.q
        return "\n".join(
            [
                f"dx1 = -{p}*x2 - x2*({sa})",
                f"dx2 = {p}*x1 + x1*({sa})",
                f"dy1 = -{q}*y2 - y2*({sb})",
                f"dy2 = {q}*y1 + y1*({sb})",
                "where D1 = x1^2 + x2^2, D2 = y1^2 + y2^2",
            ]
        )

    def as_latex(self) -> str:
        def s(indices, letter):
            if not indices:
                return "0"
            return " + ".join(
                f"{letter}_{{{m}{n}}}\\Delta_1^{{{m}}}\\Delta_2^{{{n}}}"
                for m, n in indices
            )

        sa, sb = s(self.a_indices, "a"), s(self.b_indices, "b")
        p, q = self.spec.p, self.spec.q
        return "\n".join(
            [
                "\\left\\{\\begin{array}{lcl}",
                f"\\dot{{x}}_1 &=& -{p}x_2 - x_2\\left({sa}\\right)\\\\",
                f"\\dot{{x}}_2 &=& {p}x_1 + x_1\\left({sa}\\right)\\\\",
                f"\\dot{{y}}_1 &=& -{q}y_2 - y_2\\left({sb}\\right)\\\\",
                f"\\dot{{y}}_2 &=& {q}y_1 + y_1\\left({sb}\\right)",
                "\\end{array}\\right.",
            ]
        )


def emit_real_normal_form(r: NormalFormResult) -> RealNormalForm:
    """Convert a pure-Delta survival result into the real template."""
    a_idx, b_idx = [], []
    for m, c in r.surviving:
        if not (m.is_delta_type() and c is CoeffConstraint.RE_ZERO):
            raise MixedResonantTerms(
                "mixed resonant terms present; no pure Delta1/Delta2 emission: "
                f"{m} with {c.value}"
            )
        a, b, cc, d = m.exps
        if m.degree == 1:
            continue  # the linear rotation itself
        if m.component == 1:
            a_idx.append((b, cc))  # z1 D1^b D2^c
        else:
            b_idx.append((a, d))
    return RealNormalForm(
        spec=r.spec,
        degree=r.degree,
        a_indices=tuple(sorted(a_idx, key=lambda t: (t[0] + t[1], t))),
        b_indices=tuple(sorted(b_idx, key=lambda t: (t[0] + t[1], t))),
    )


# ---------------------------------------------------------------------------
# the real-coordinates oracle
# ---------------------------------------------------------------------------


def _monomial_exponents(dx: int, dy: int) -> List[Tuple[int, int, int, int]]:
    return [
        (i, dx - i, j, dy - j) for i in range(dx + 1) for j in range(dy + 1)
    ]


def _homological(h: PolyVF, b: Mat4) -> PolyVF:
    """L_B(h) = Dh . (B x) - B . h."""
    deg = h.max_degree
    bx = _linear_forms(b)
    bh = _apply(b, h.components)
    comps = []
    for i in range(4):
        acc = Poly()
        for j in range(4):
            acc = acc + h.components[i].diff(j).mul(bx[j], deg + 1)
        comps.append(acc - bh[i])
    return PolyVF(comps, deg + 1)


@dataclass(frozen=True)
class _Block:
    """One invariant coordinate block: component pair x (x-degree, y-degree)."""

    pair: int  # 0 -> components (0, 1), 1 -> components (2, 3)
    dx: int
    dy: int

    def basis(self) -> List[Tuple[int, Tuple[int, int, int, int]]]:
        comps = (0, 1) if self.pair == 0 else (2, 3)
        return [(c, e) for c in comps for e in _monomial_exponents(self.dx, self.dy)]


def _blocks(degree: int) -> List[_Block]:
    return [
        _Block(pair, dx, degree - dx) for pair in (0, 1) for dx in range(degree + 1)
    ]


def _integer_entries(m: Mat4) -> List[List[int]]:
    """The entries of m as ints; raises ValueError unless all are integers."""
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            x = m[i, j]
            if not x.is_rational() or x.as_rational().denominator != 1:
                raise ValueError(f"matrix entry ({i}, {j}) = {x} is not an integer")
            row.append(int(x.as_rational()))
        out.append(row)
    return out


def _block_matrix(block: _Block, images) -> List[List[int]]:
    """Integer matrix of a block operator, given as ``images(comp, e)``: the
    (component, exponent) keys and integer coefficients of the image of the
    basis field x^e d/dx_comp.  Raises if an image leaks outside the block."""
    basis = block.basis()
    index = {key: k for k, key in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for col, (comp, e) in enumerate(basis):
        for key, val in images(comp, e):
            if key not in index:
                raise ValueError(f"operator leaks outside block: {key}")
            rows[index[key]][col] += val
    return rows


def _homological_block(block: _Block, b: Mat4) -> List[List[int]]:
    """Integer matrix of L_B(h) = Dh . (B x) - B . h on one block.

    x^e d/dx_c goes to the sum over j, l of e_j B[j, l] x^(e - u_j + u_l)
    d/dx_c, minus the sum over i of B[i, c] x^e d/dx_i.
    """
    bm = _integer_entries(b)

    def images(comp, e):
        for j in range(4):
            for l in range(4):
                if e[j] and bm[j][l]:
                    f = list(e)
                    f[j] -= 1
                    f[l] += 1
                    yield (comp, tuple(f)), e[j] * bm[j][l]
        for i in range(4):
            if bm[i][comp]:
                yield (i, e), -bm[i][comp]

    return _block_matrix(block, images)


def _defect_block(block: _Block, phi: Mat4, sign: int) -> List[List[int]]:
    """Integer matrix of h -> phi . h(xi) - sign * h(phi xi) on one block,
    the reversibility defect (sign=-1) or equivariance defect (sign=+1).

    phi must be a signed permutation, (phi xi)_j = s_j xi_pi(j).  Then
    x^e d/dx_c goes to the sum over i of phi[i, c] x^e d/dx_i, minus
    sign * prod_j s_j^e_j x^f d/dx_c with f_pi(j) = e_j.
    """
    pm = _integer_entries(phi)
    perm = []
    for row in pm:
        nz = [(l, x) for l, x in enumerate(row) if x]
        if len(nz) != 1 or nz[0][1] not in (-1, 1):
            raise ValueError(f"not a signed permutation: {phi}")
        perm.append(nz[0])
    if sorted(l for l, _ in perm) != [0, 1, 2, 3]:
        raise ValueError(f"not a signed permutation: {phi}")

    def images(comp, e):
        for i in range(4):
            if pm[i][comp]:
                yield (i, e), pm[i][comp]
        f = [0] * 4
        s = sign
        for j, (l, sj) in enumerate(perm):
            f[l] = e[j]
            if sj < 0 and e[j] % 2:
                s = -s
        yield (comp, tuple(f)), -s

    return _block_matrix(block, images)


def _kernel(block: _Block, rows: List[List[int]], syms: Sequence[Mat4],
            sign: int) -> List[List[Fraction]]:
    """Nullspace basis on one block of ``rows`` stacked with the defect
    matrix of each symmetry in ``syms``."""
    for s in syms:
        rows = rows + _defect_block(block, s, sign)
    return linalg.nullspace(rows, ncols=len(block.basis()))


@dataclass(frozen=True)
class OracleResult:
    """Exact kernel dimensions (and bases) of the constrained real system."""

    spec: ResonanceSpec
    group_index: int
    dimensions: Dict[int, int]
    bases: Dict[int, List[PolyVF]]

    def to_json(self) -> dict:
        return {
            "p": self.spec.p,
            "q": self.spec.q,
            "group": self.group_index,
            "dimensions": {str(k): v for k, v in sorted(self.dimensions.items())},
        }


def brute_force_kernel(
    spec: ResonanceSpec, group_index: int, degree: int
) -> OracleResult:
    """Exact dimension and basis, per degree from 2, of

        ker L_{A^T}  intersect  {reversible under diag(1,-1,1,-1)}
                     intersect  {reversible under S_group}

    assembled entirely in real coordinates over Q.

    Each invariant block (component pair x bidegree) is solved on its own:
    the integer matrices of L_{A^T} and of the two reversibility defects are
    read off the exponents of the block's basis monomials
    (``_homological_block``, ``_defect_block``), and ``_kernel`` takes their
    common nullspace.
    """
    a_t = spec.linear_matrix().transpose()
    s_real = real_group_representative(group_index)
    dims: Dict[int, int] = {}
    bases: Dict[int, List[PolyVF]] = {}
    for k in range(2, degree + 1):
        vecs: List[PolyVF] = []
        for block in _blocks(k):
            basis = block.basis()
            for v in _kernel(block, _homological_block(block, a_t), (R0, s_real), -1):
                terms = [{} for _ in range(4)]
                for (comp, e), coef in zip(basis, v):
                    if coef:
                        terms[comp][e] = coef
                vecs.append(PolyVF([Poly(t) for t in terms], k))
        dims[k] = len(vecs)
        bases[k] = vecs
    return OracleResult(
        spec=spec, group_index=group_index, dimensions=dims, bases=bases
    )


# ---------------------------------------------------------------------------
# Belitskii normalization
# ---------------------------------------------------------------------------


# rational involutions used for symmetry detection during normalization
def _symmetry_candidates() -> List[Mat4]:
    cands = [R0, Mat4.diagonal([-1, 1, -1, 1]), Mat4.diagonal([-1, 1, 1, -1]),
             Mat4.diagonal([1, -1, -1, 1])]
    cands += [real_group_representative(j) for j in GROUP_INDICES]
    return cands


class NormalizationError(RuntimeError):
    pass


def belitskii_normalize(
    x: PolyVF, spec: ResonanceSpec, degree: int
) -> Tuple[PolyVF, PolyMap]:
    """Degree-by-degree normalization onto ker L_{A^T}.

    At every degree the homogeneous part is split along
    H^k = im(L_A) + ker(L_{A^T}) over Q; the image part is removed by a
    near-identity change.  Detected linear reversing symmetries of the input
    are preserved: the change is restricted to the corresponding equivariant
    subspace, and the kernel part to the reversible slice.
    """
    a = spec.linear_matrix()
    if x.linear_part() != a:
        raise ValueError("field's linear part is not the requested resonant rotation")
    deg = max(x.max_degree, degree)
    current = PolyVF(x.components, deg)
    detected = tuple(
        s for s in _symmetry_candidates() if check_symmetry(current, s, -1).ok
    )
    change = PolyMap.identity(deg)
    for k in range(2, degree + 1):
        xk = current.homogeneous_part(k)
        if xk.is_zero():
            continue
        u_terms = [{} for _ in range(4)]
        for block, (basis, equi_basis, n_kern, rows) in zip(
            _blocks(k), _normalization_spaces(spec.p, spec.q, k, detected)
        ):
            target = [xk.components[c].coefficient(e).as_rational() for c, e in basis]
            if not any(target):
                continue
            sol = linalg.solve(rows, target)
            if sol is None:
                raise NormalizationError(
                    f"homological splitting failed at degree {k} (block {block})"
                )
            for coefs, uc in zip(equi_basis, sol[n_kern:]):
                if uc == 0:
                    continue
                for (comp, e), val in zip(basis, coefs):
                    if val:
                        u_terms[comp][e] = u_terms[comp].get(e, 0) + uc * val
        u_comps = [Poly(t) for t in u_terms]
        if all(c.is_zero() for c in u_comps):
            continue
        # h = Id - u adds -L_A(u) at degree k, cancelling the image part
        h = PolyMap(
            [Poly.variable(i) - u_comps[i] for i in range(4)], deg
        )
        current = conjugate(current, h)
        change = h.compose(change)
    return current, change


@lru_cache(maxsize=None)
def _normalization_spaces(p: int, q: int, k: int, detected: Tuple[Mat4, ...]):
    """Per block of degree k: its basis, a basis of the fields equivariant
    under every detected symmetry, the number of kernel columns, and the
    matrix whose columns are the basis of ker L_{A^T} on the fields
    reversible under them, followed by the L_A images of the equivariant
    basis.  The kernel columns come first, so that already-normalized input
    solves with a zero change (idempotence)."""
    a = ResonanceSpec(p, q).linear_matrix()
    a_t = a.transpose()
    blocks_data = []
    for block in _blocks(k):
        basis = block.basis()
        nb = len(basis)
        la_rows = _homological_block(block, a)
        equi_basis = _kernel(block, [], detected, +1)
        kern_basis = _kernel(block, _homological_block(block, a_t), detected, -1)
        cols = kern_basis + [
            [sum(la_rows[r][c] * v[c] for c in range(nb)) for r in range(nb)]
            for v in equi_basis
        ]
        rows = [[col[r] for col in cols] for r in range(nb)]
        blocks_data.append((basis, equi_basis, len(kern_basis), rows))
    return blocks_data


# ---------------------------------------------------------------------------
# published constraint tables for b * ~z1^(q-1) * z2^p d/dz1
# ---------------------------------------------------------------------------


def table_monomial(spec: ResonanceSpec) -> ResMonomial:
    """The off-diagonal resonant generator ~z1^(q-1) * z2^p d/dz1."""
    return ResMonomial(1, (0, spec.q - 1, spec.p, 0))


_CLAUSE_RE = re.compile(r"(p\+q|p|q) (?:= (\d) mod 4|(even|odd))")
# a row's witness (p, q) is searched for with p + q up to this bound
_PAIR_BOUND = 60


@dataclass(frozen=True)
class ConstraintTableRow:
    """One row: under phi_{phi_index}-reversibility and the stated residue
    hypothesis on (p, q), the coefficient of ~z1^(q-1) z2^p d/dz1 satisfies
    the stated constraint."""

    phi_index: int
    hypothesis: str
    stated: Optional[CoeffConstraint]  # None: the row's condition is vacuous
    tautology: bool = False
    # the hypothesis as printed, when it differs from the one used: six of
    # the phi_2 rows are keyed "q = k mod 4" in print, which contradicts
    # their own parity tags and the row constraints match the derivation
    # conj(b) = (-1)^(q-1) i^p b only with "p = k mod 4"
    printed_hypothesis: Optional[str] = None

    def hypothesis_holds(self, p: int, q: int) -> bool:
        """Evaluate the hypothesis text: clauses joined by ", ", each
        "E = k mod 4", "E even" or "E odd" with E one of p, q, p+q."""
        value = {"p": p, "q": q, "p+q": p + q}
        for clause in self.hypothesis.split(", "):
            m = _CLAUSE_RE.fullmatch(clause)
            if m is None:
                raise ValueError(f"bad hypothesis clause {clause!r}")
            expr, residue, parity = m.groups()
            modulus, residue = (4, int(residue)) if residue else (2, parity == "odd")
            if value[expr] % modulus != residue:
                return False
        return True

    def minimal_pair(self) -> Optional[ResonanceSpec]:
        """Smallest coprime (p, q) with p != q satisfying the hypothesis,
        ordered by p+q then p; None if unsatisfiable within _PAIR_BOUND."""
        for s in range(3, _PAIR_BOUND + 1):
            for p in range(1, s):
                q = s - p
                if p == q or gcd(p, q) != 1:
                    continue
                if self.hypothesis_holds(p, q):
                    return ResonanceSpec(p, q)
        return None

    def computed(self, spec: ResonanceSpec) -> CoeffConstraint:
        return constraint_for(table_monomial(spec), PHI[self.phi_index])


def _mk_rows():
    C = CoeffConstraint
    rows = []

    def row(j, text, stated, tautology=False, printed=None):
        rows.append(ConstraintTableRow(j, text, stated, tautology, printed))

    row(0, "p+q even", C.RE_ZERO)
    row(0, "p+q odd", C.IM_ZERO)

    row(1, "q = 0 mod 4", C.RE_ZERO)
    row(1, "q = 1 mod 4", C.RE_EQ_MINUS_IM)
    row(1, "q = 2 mod 4", C.IM_ZERO)
    row(1, "q = 3 mod 4", C.RE_EQ_IM)

    row(2, "p = 0 mod 4, q even", C.RE_ZERO)
    row(2, "p = 0 mod 4, q odd", C.IM_ZERO)
    row(2, "p = 1 mod 4, q even", C.RE_EQ_IM, printed="q = 1 mod 4, q even")
    row(2, "p = 1 mod 4, q odd", C.RE_EQ_MINUS_IM, printed="q = 1 mod 4, q odd")
    row(2, "p = 2 mod 4, q even", C.IM_ZERO, printed="q = 2 mod 4, q even")
    row(2, "p = 2 mod 4, q odd", C.RE_ZERO, printed="q = 2 mod 4, q odd")
    row(2, "p = 3 mod 4, q even", C.RE_EQ_MINUS_IM, printed="q = 3 mod 4, q even")
    row(2, "p = 3 mod 4, q odd", C.RE_EQ_IM, printed="q = 3 mod 4, q odd")

    row(3, "p = 0 mod 4", C.RE_ZERO)
    row(3, "p = 1 mod 4", C.RE_EQ_IM)
    row(3, "p = 2 mod 4", C.IM_ZERO)
    row(3, "p = 3 mod 4", C.RE_EQ_MINUS_IM)

    row(4, "p+q = 0 mod 4, q even", C.RE_ZERO)
    row(4, "p+q = 0 mod 4, q odd", C.IM_ZERO)
    row(4, "p+q = 1 mod 4, q even", C.RE_EQ_IM)
    row(4, "p+q = 1 mod 4, q odd", C.RE_EQ_MINUS_IM)
    row(4, "p+q = 2 mod 4, q even", C.IM_ZERO)
    row(4, "p+q = 2 mod 4, q odd", C.RE_ZERO)
    row(4, "p+q = 3 mod 4, q even", C.RE_EQ_MINUS_IM)
    # printed condition: Im(b) = Im(b) -- vacuously true, so the row as
    # published constrains nothing; the true constraint is computed instead
    row(4, "p+q = 3 mod 4, q odd", None, tautology=True)

    row(5, "q = 0 mod 4, p+q even", C.RE_ZERO)
    row(5, "q = 0 mod 4, p+q odd", C.IM_ZERO)
    row(5, "q = 1 mod 4, p+q even", C.RE_EQ_IM)
    row(5, "q = 1 mod 4, p+q odd", C.RE_EQ_MINUS_IM)
    row(5, "q = 2 mod 4, p+q even", C.IM_ZERO)
    row(5, "q = 2 mod 4, p+q odd", C.RE_ZERO)
    row(5, "q = 3 mod 4, p+q even", C.RE_EQ_MINUS_IM)
    row(5, "q = 3 mod 4, p+q odd", C.RE_EQ_IM)

    row(6, "p+q = 0 mod 4", C.RE_ZERO)
    row(6, "p+q = 1 mod 4", C.RE_EQ_MINUS_IM)
    row(6, "p+q = 2 mod 4", C.IM_ZERO)
    row(6, "p+q = 3 mod 4", C.RE_EQ_IM)

    return tuple(rows)


CONSTRAINT_TABLE = _mk_rows()


def table_report() -> List[dict]:
    """Evaluate every published row: satisfiability, witness (p, q), the
    computed constraint there, and agreement with the stated one."""
    out = []
    for r in CONSTRAINT_TABLE:
        spec = r.minimal_pair()
        entry = {
            "phi": r.phi_index,
            "hypothesis": r.hypothesis,
            "stated": r.stated.value if r.stated is not None else None,
            "tautology": r.tautology,
            "satisfiable": spec is not None,
        }
        if r.printed_hypothesis is not None:
            entry["printed_hypothesis"] = r.printed_hypothesis
        if spec is not None:
            c = r.computed(spec)
            entry["witness"] = [spec.p, spec.q]
            entry["computed"] = c.value
            entry["agrees"] = (r.stated is None) or (c is r.stated)
        out.append(entry)
    return out
