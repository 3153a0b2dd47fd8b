"""Polynomial vector fields on R^4 with exact coefficients.

Sparse representation: a polynomial is a map exponent-tuple -> coefficient,
with coefficients in Q or a quadratic field.  All compositions are truncated
at an explicit degree.

Variables are (x1, x2, y1, y2), indexed 0..3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .exactalg import AlgScalar, Mat4, ZERO, is_involution, scalar
from .solver import R0

VARS = ("x1", "x2", "y1", "y2")

Expo = Tuple[int, int, int, int]


class Poly:
    """Sparse polynomial in 4 variables with exact scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Expo, AlgScalar]] = None):
        clean: Dict[Expo, AlgScalar] = {}
        if terms:
            for e, c in terms.items():
                c = scalar(c)
                if not c.is_zero():
                    clean[tuple(e)] = c  # type: ignore[index]
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(c) -> "Poly":
        return Poly({(0, 0, 0, 0): scalar(c)})

    @staticmethod
    def variable(i: int) -> "Poly":
        e = [0, 0, 0, 0]
        e[i] = 1
        return Poly({tuple(e): scalar(1)})

    @staticmethod
    def monomial(e: Expo, c=1) -> "Poly":
        return Poly({tuple(e): scalar(c)})

    @staticmethod
    def linear_form(coeffs: Sequence) -> "Poly":
        out: Dict[Expo, AlgScalar] = {}
        for i, c in enumerate(coeffs):
            c = scalar(c)
            if not c.is_zero():
                e = [0, 0, 0, 0]
                e[i] = 1
                out[tuple(e)] = c
        return Poly(out)

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_part(self, k: int) -> "Poly":
        return Poly({e: c for e, c in self.terms.items() if sum(e) == k})

    def truncated(self, max_degree: int) -> "Poly":
        return Poly({e: c for e, c in self.terms.items() if sum(e) <= max_degree})

    def coefficient(self, e: Expo) -> AlgScalar:
        return self.terms.get(tuple(e), ZERO)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        c = scalar(c)
        return Poly({e: c * v for e, v in self.terms.items()})

    def mul(self, other: "Poly", max_degree: Optional[int] = None) -> "Poly":
        out: Dict[Expo, AlgScalar] = {}
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        for e1, c1 in self.terms.items():
            room = None if max_degree is None else max_degree - sum(e1)
            a0, a1, a2, a3 = e1
            for e2, d2, c2 in right:
                if room is not None and d2 > room:
                    continue
                e = (a0 + e2[0], a1 + e2[1], a2 + e2[2], a3 + e2[3])
                if e in out:
                    out[e] = out[e] + c1 * c2
                else:
                    out[e] = c1 * c2
        # the coefficients are AlgScalars already; only cancellations are dropped
        product = Poly()
        product.terms = {e: c for e, c in out.items() if not c.is_zero()}
        return product

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul(other)

    def diff(self, i: int) -> "Poly":
        out: Dict[Expo, AlgScalar] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Poly(out)

    def substitute(
        self, args: Sequence["Poly"], max_degree: Optional[int] = None
    ) -> "Poly":
        """Evaluate at four polynomial arguments, truncating at max_degree."""
        # cache powers of each argument
        maxpow = [0, 0, 0, 0]
        for e in self.terms:
            for i in range(4):
                maxpow[i] = max(maxpow[i], e[i])
        powers: List[List[Poly]] = []
        for i in range(4):
            row = [Poly.constant(1)]
            for _ in range(maxpow[i]):
                row.append(row[-1].mul(args[i], max_degree))
            powers.append(row)
        out = Poly()
        for e, c in self.terms.items():
            term = Poly.constant(c)
            for i in range(4):
                if e[i]:
                    term = term.mul(powers[i][e[i]], max_degree)
            out = out + term
        return out

    def substitute_linear(self, m: Mat4) -> "Poly":
        """Evaluate at the linear change xi -> m @ xi (no truncation needed)."""
        return self.substitute(_linear_forms(m))

    # -- comparison / display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        """Graded-lex order: by total degree, then reverse-lex on exponents."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(VARS[i])
                elif p > 1:
                    factors.append(f"{VARS[i]}^{p}")
            cs = str(c)
            if "sqrt" in cs and factors:
                cs = f"({cs})"
            parts.append("*".join([cs] + factors) if factors else cs)
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> list:
        return [
            {"exponents": list(e), "coefficient": c.to_json()}
            for e, c in self.sorted_terms()
        ]

    @staticmethod
    def from_json(obj) -> "Poly":
        terms = {}
        for t in obj:
            e = tuple(t["exponents"])
            if len(e) != 4 or any(type(x) is not int or x < 0 for x in e):
                raise FieldFormatError(
                    f"exponents must be 4 nonnegative integers, got {t['exponents']!r}"
                )
            terms[e] = AlgScalar.from_json(t["coefficient"])
        return Poly(terms)


# ---------------------------------------------------------------------------
# text format: one line per component, e.g. "dx1 = -1*x2 + 3/2*x2*y1^2"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<sign>-?)(?P<num>\d+(?:/\d+)?)?"
    r"(?P<vars>(?:\*?(?:x1|x2|y1|y2)(?:\^\d+)?)*)$"
)


class FieldFormatError(ValueError):
    pass


def parse_poly(text: str) -> Poly:
    """Parse '3/2*x2*y1^2 - x1' style polynomial text."""
    s = text.replace(" ", "")
    if not s or s == "0":
        return Poly()
    # normalize leading sign, then split into signed terms
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    out = Poly()
    for chunk in s.split("+"):
        if not chunk:
            raise FieldFormatError(f"empty term in {text!r}")
        m = _TERM_RE.match(chunk)
        if not m or not (m.group("num") or m.group("vars")):
            raise FieldFormatError(f"bad term {chunk!r}")
        # a sign without a number is +-1
        try:
            coef = Fraction(m.group("sign") + (m.group("num") or "1"))
        except ZeroDivisionError:
            raise FieldFormatError(f"zero denominator in {chunk!r}") from None
        e = [0, 0, 0, 0]
        vs = m.group("vars") or ""
        for vm in re.finditer(r"(x1|x2|y1|y2)(?:\^(\d+))?", vs):
            i = VARS.index(vm.group(1))
            e[i] += int(vm.group(2)) if vm.group(2) else 1
        out = out + Poly.monomial(tuple(e), coef)
    return out


# ---------------------------------------------------------------------------
# vector fields and polynomial maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of a coefficientwise symmetry check."""

    ok: bool
    offending: Tuple[Tuple[int, Expo, AlgScalar], ...]  # (component, expo, value)

    def __bool__(self) -> bool:
        return self.ok


class _Components:
    """Four polynomial components over (x1, x2, y1, y2), truncated at
    max_degree and immutable; the common part of PolyVF and PolyMap."""

    __slots__ = ("components", "max_degree")
    # left-hand side of a component line in the text format: "dx1" or "x1"
    _prefix = ""

    def __init__(self, components: Sequence[Poly], max_degree: int):
        comps = tuple(c.truncated(max_degree) for c in components)
        if len(comps) != 4:
            raise ValueError(f"a {type(self).__name__} needs 4 components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "max_degree", max_degree)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_linear(cls, m: Mat4, max_degree: int):
        return cls(_linear_forms(m), max_degree)

    def linear_part(self) -> Mat4:
        return Mat4(
            [
                [
                    self.components[i].coefficient(
                        tuple(1 if j == k else 0 for k in range(4))
                    )
                    for j in range(4)
                ]
                for i in range(4)
            ]
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.components == other.components

    def __str__(self) -> str:
        return "\n".join(
            f"{self._prefix}{VARS[i]} = {self.components[i]}" for i in range(4)
        )

    @classmethod
    def parse(cls, text: str, max_degree: int):
        return cls(_parse_component_lines(text, cls._prefix), max_degree)

    def to_json(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, obj):
        max_degree = obj["max_degree"]
        if type(max_degree) is not int or max_degree < 0:
            raise FieldFormatError(
                f"max_degree must be a nonnegative integer, got {max_degree!r}"
            )
        components = [Poly.from_json(c) for c in obj["components"]]
        degree = max((c.degree() for c in components), default=-1)
        if degree > max_degree:
            raise FieldFormatError(
                f"a term of degree {degree} above max_degree {max_degree}"
            )
        return cls(components, max_degree)


class PolyVF(_Components):
    """A polynomial vector field on R^4, graded by total degree."""

    __slots__ = ()
    _prefix = "d"

    def nonlinear(self) -> "PolyVF":
        return PolyVF(
            [c - c.homogeneous_part(1) - c.homogeneous_part(0) for c in self.components],
            self.max_degree,
        )

    def homogeneous_part(self, k: int) -> "PolyVF":
        return PolyVF([c.homogeneous_part(k) for c in self.components], self.max_degree)

    def __add__(self, other: "PolyVF") -> "PolyVF":
        deg = max(self.max_degree, other.max_degree)
        return PolyVF(
            [a + b for a, b in zip(self.components, other.components)], deg
        )

    def __sub__(self, other: "PolyVF") -> "PolyVF":
        deg = max(self.max_degree, other.max_degree)
        return PolyVF(
            [a - b for a, b in zip(self.components, other.components)], deg
        )

    def scale(self, c) -> "PolyVF":
        return PolyVF([p.scale(c) for p in self.components], self.max_degree)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __hash__(self) -> int:
        return hash(self.components)


class PolyMap(_Components):
    """A polynomial map of R^4 with invertible linear part."""

    __slots__ = ()

    def __init__(self, components: Sequence[Poly], max_degree: int):
        super().__init__(components, max_degree)
        if self.linear_part().det().is_zero():
            raise ValueError("map has singular linear part")

    @staticmethod
    def identity(max_degree: int) -> "PolyMap":
        return PolyMap([Poly.variable(i) for i in range(4)], max_degree)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner, truncated at max_degree."""
        deg = self.max_degree
        return PolyMap(
            [c.substitute(inner.components, deg) for c in self.components], deg
        )

    def inverse(self) -> "PolyMap":
        """Truncated formal inverse g with self(g(x)) = x up to max_degree."""
        deg = self.max_degree
        lin = self.linear_part()
        lin_inv = _mat_inverse(lin)
        higher = [c - l for c, l in zip(self.components, _linear_forms(lin))]
        # iterate g <- Linv(x) - n(g) with n = Linv(higher); degree-k
        # coefficients stabilize after k iterations, and once an iterate
        # repeats so do all later ones
        n = _apply(lin_inv, higher)
        g = first = _linear_forms(lin_inv)
        for _ in range(deg):
            nxt = [f - h.substitute(g, deg) for f, h in zip(first, n)]
            if nxt == g:
                break
            g = nxt
        return PolyMap(g, deg)


def _parse_component_lines(text: str, prefix: str) -> List[Poly]:
    comps: Dict[str, Poly] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FieldFormatError(f"missing '=' in line {line!r}")
        lhs, rhs = line.split("=", 1)
        lhs = lhs.strip()
        if prefix and lhs.startswith(prefix):
            lhs = lhs[len(prefix):]
        if lhs not in VARS:
            raise FieldFormatError(f"unknown component {lhs!r}")
        if lhs in comps:
            raise FieldFormatError(f"duplicate component {lhs!r}")
        comps[lhs] = parse_poly(rhs)
    missing = [v for v in VARS if v not in comps]
    if missing:
        raise FieldFormatError(f"missing components: {missing}")
    return [comps[v] for v in VARS]


def _linear_forms(m: Mat4) -> List[Poly]:
    """The components of the linear map x -> m x."""
    return [Poly.linear_form([m[i, j] for j in range(4)]) for i in range(4)]


def _apply(m: Mat4, comps: Sequence[Poly]) -> List[Poly]:
    """m . (c0, ..., c3): component i is the sum over j of m[i, j] * c_j."""
    return [sum((comps[j].scale(m[i, j]) for j in range(4)), Poly()) for i in range(4)]


def _mat_inverse(m: Mat4) -> Mat4:
    """Exact inverse by restriction of scalars to Q.

    m = m0 + sqrt(d)*m1 acts on v = v0 + sqrt(d)*v1 as the rational 8x8
    matrix [[m0, d*m1], [m1, m0]] on (v0, v1); ``linalg.rref`` inverts that,
    and the first block column of the result holds m^-1 = n0 + sqrt(d)*n1.
    """
    m0 = [[m[i, j].a for j in range(4)] for i in range(4)]
    m1 = [[m[i, j].b for j in range(4)] for i in range(4)]
    rows = [r0 + [m.d * x for x in r1] for r0, r1 in zip(m0, m1)]
    rows += [r1 + r0 for r0, r1 in zip(m0, m1)]
    red, pivots = linalg.rref(
        [row + [int(i == j) for j in range(8)] for i, row in enumerate(rows)]
    )
    if pivots != list(range(8)):
        raise ValueError("singular matrix")
    return Mat4(
        [
            [AlgScalar(red[i][8 + j], red[4 + i][8 + j], m.d) for j in range(4)]
            for i in range(4)
        ]
    )


# ---------------------------------------------------------------------------
# symmetry checking
# ---------------------------------------------------------------------------


def check_symmetry(x: PolyVF, phi: Mat4, sign: int) -> SymmetryReport:
    """Coefficientwise check of phi . X(xi) = sign * X(phi xi) up to max_degree.

    sign = -1 is reversibility, sign = +1 equivariance.  Only linear
    symmetries are accepted; nonlinear involutions go through
    linearize_involution first.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    deg = x.max_degree
    lhs = _apply(phi, x.components)
    rhs = [c.substitute_linear(phi).truncated(deg) for c in x.components]
    offending = []
    for i in range(4):
        diff = lhs[i] - rhs[i].scale(sign)
        for e, c in diff.sorted_terms():
            offending.append((i, e, c))
    return SymmetryReport(ok=not offending, offending=tuple(offending))


# parity-condition families: each identity reads f_i(xi) = sign * f_j(T xi)
# for a signed coordinate permutation T, and each family adds vanishing
# conditions on coordinate slices.  Every family holds the four identities
# of R0 = diag(1, -1, 1, -1) and four of its own T.
_R0_IDENTITIES = ((0, -1, 0), (1, +1, 1), (2, -1, 2), (3, +1, 3))

# family -> (T, its identities (i, sign, j), list of (components,
# fixed-zero vars))
PARITY_FAMILIES = {
    "Z2Z2-S1": (
        Mat4.diagonal([-1, 1, -1, 1]),
        ((0, +1, 0), (1, -1, 1), (2, +1, 2), (3, -1, 3)),
        [((0, 2), (1, 3)), ((1, 3), (0, 2))],
    ),
    "Z2Z2-S2": (
        Mat4.diagonal([-1, 1, 1, -1]),
        ((0, +1, 0), (1, -1, 1), (2, -1, 2), (3, +1, 3)),
        [((0, 2), (1, 3)), ((1, 2), (0, 3))],
    ),
    "Z2Z2-S3": (
        Mat4.diagonal([1, -1, -1, 1]),
        ((0, -1, 0), (1, +1, 1), (2, +1, 2), (3, -1, 3)),
        [((0, 2), (1, 3)), ((0, 3), (1, 2))],
    ),
    "D4-S1": (
        Mat4([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        ((0, -1, 1), (1, -1, 0), (2, -1, 2), (3, +1, 3)),
        # only the odd-slice vanishing of the first and third components is a
        # consequence of the identities here; the mirrored slice condition
        # one might expect for the other two components does not follow (a
        # pure y2^4 term in the fourth component is a counterexample) and is
        # deliberately not imposed
        [((0, 2), (1, 3))],
    ),
}


def check_parity_conditions(x: PolyVF, family: str) -> bool:
    """True iff the nonlinear components satisfy every functional identity of
    the named family (coefficientwise), including the derived vanishing
    conditions on coordinate slices."""
    if family not in PARITY_FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(PARITY_FAMILIES)}")
    t, identities, vanishing = PARITY_FAMILIES[family]
    f = x.nonlinear().components
    for m, ids in ((R0, _R0_IDENTITIES), (t, identities)):
        for i, sgn, j in ids:
            if f[i] - f[j].substitute_linear(m).scale(sgn) != Poly():
                return False
    for comps, zvars in vanishing:
        for i in comps:
            if any(all(e[v] == 0 for v in zvars) for e in f[i].terms):
                return False
    return True


# ---------------------------------------------------------------------------
# involution linearization and conjugation
# ---------------------------------------------------------------------------


class NotAnInvolution(ValueError):
    pass


def linearize_involution(phi: PolyMap, k: int) -> PolyMap:
    """The classical linearizing change h = Id + Dphi(0) . phi.

    For an involution phi (to order k) with involutive linear part, h
    conjugates phi to its linear part: h o phi o h^-1 = Dphi(0) up to
    degree k.
    """
    dphi = phi.linear_part()
    if not is_involution(dphi):
        raise NotAnInvolution("linear part is not an involution")
    comp = phi.compose(PolyMap(phi.components, k))
    if PolyMap(comp.components, k) != PolyMap.identity(k):
        raise NotAnInvolution("phi is not an involution up to the requested degree")
    h = [Poly.variable(i) + c for i, c in enumerate(_apply(dphi, phi.components))]
    return PolyMap([c.truncated(k) for c in h], k)


def conjugate(x: PolyVF, h: PolyMap) -> PolyVF:
    """Pushforward (Dh . X) o h^-1, truncated at x.max_degree."""
    deg = x.max_degree
    h_inv = PolyMap(h.components, deg).inverse()
    # (Dh . X)_i = sum_j dh_i/dx_j * X_j, then substitute h^-1
    pushed = []
    for i in range(4):
        acc = Poly()
        for j in range(4):
            acc = acc + h.components[i].diff(j).mul(x.components[j], deg)
        pushed.append(acc.substitute(h_inv.components, deg))
    return PolyVF(pushed, deg)
