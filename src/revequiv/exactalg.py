"""Exact arithmetic over Q and quadratic extensions Q(sqrt(d)), plus 4x4 matrices.

Every value is immutable and every operation is exact: there is no floating
point anywhere in this package.  A scalar is ``a + b*sqrt(d)`` with rational
``a, b`` and a square-free nonnegative integer ``d``; plain rationals are the
case ``d = 0``.  Matrices reject mixed radicals at construction so that all
entries live in a single quadratic field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

ScalarLike = Union["AlgScalar", Fraction, int]


class IncompatibleRadicals(ValueError):
    """Raised when combining values from Q(sqrt(d1)) and Q(sqrt(d2)), d1 != d2."""


def _squarefree(d: int) -> bool:
    if d < 0:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class AlgScalar:
    """An element a + b*sqrt(d) of Q or a real quadratic field Q(sqrt(d)).

    Canonical form: if b == 0 (or d in {0, 1}) the value is stored with d = 0,
    so equality and hashing are structural.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational | int = 0, b: Rational | int = 0, d: int = 0):
        if type(d) is not int:
            raise ValueError(f"d must be an integer, got {d!r}")
        # exact parts only, no float and no bool; Fractions are kept as they are
        if type(a) is not Fraction or type(b) is not Fraction:
            if type(a) not in (int, Fraction) or type(b) not in (int, Fraction):
                raise TypeError(f"parts must be ints or Fractions, got {a!r}, {b!r}")
            a, b = Fraction(a), Fraction(b)
        if d == 1:
            a, b, d = a + b, Fraction(0), 0
        if b == 0:
            d = 0
        if d == 0:
            b = Fraction(0)
        if not _squarefree(d):
            raise ValueError(f"d must be square-free and nonnegative, got {d}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("AlgScalar is immutable")

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.d == 0

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(x: ScalarLike) -> "AlgScalar":
        if isinstance(x, AlgScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return AlgScalar(x)
        return NotImplemented  # type: ignore[return-value]

    def _joint_d(self, other: "AlgScalar") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise IncompatibleRadicals(f"sqrt({self.d}) vs sqrt({other.d})")

    def __add__(self, other: ScalarLike) -> "AlgScalar":
        if type(other) is not AlgScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.d == 0 and other.d == 0:
            return _make(self.a + other.a, _Q0, 0)
        d = self._joint_d(other)
        return AlgScalar(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "AlgScalar":
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other: ScalarLike) -> "AlgScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "AlgScalar":
        return (-self) + other

    def __mul__(self, other: ScalarLike) -> "AlgScalar":
        if type(other) is not AlgScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.d == 0 and other.d == 0:
            return _make(self.a * other.a, _Q0, 0)
        d = self._joint_d(other)
        # (a1 + b1 r)(a2 + b2 r) with r^2 = d
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return AlgScalar(a, b, d)

    __rmul__ = __mul__

    def conjugate(self) -> "AlgScalar":
        """Galois conjugate a - b*sqrt(d)."""
        return _make(self.a, -self.b, self.d)

    # -- comparison & ordering ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = AlgScalar(other)
        if not isinstance(other, AlgScalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        """Deterministic total order (d, a, b), for canonical matrix lists."""
        return (self.d, self.a, self.b)

    # -- conversion / display -------------------------------------------

    def as_rational(self) -> Fraction:
        if self.d != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __repr__(self) -> str:
        if self.d == 0:
            return f"AlgScalar({self.a})"
        return f"AlgScalar({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.a)
        parts = []
        if self.a != 0:
            parts.append(str(self.a))
        rad = f"sqrt({self.d})" if self.b.denominator == 1 and abs(self.b.numerator) == 1 else f"{abs(self.b)}*sqrt({self.d})"
        parts.append(("-" if self.b < 0 else ("+" if parts else "")) + rad)
        return "".join(parts)

    def to_json(self) -> dict:
        if self.d == 0:
            return {"num": self.a.numerator, "den": self.a.denominator}
        return {
            "a": {"num": self.a.numerator, "den": self.a.denominator},
            "b": {"num": self.b.numerator, "den": self.b.denominator},
            "d": self.d,
        }

    @staticmethod
    def from_json(obj) -> "AlgScalar":
        def rational(r) -> Fraction:
            if type(r["num"]) is not int or type(r["den"]) is not int:
                raise ValueError(f"num and den must be integers, got {r!r}")
            return Fraction(r["num"], r["den"])

        if isinstance(obj, dict) and "num" in obj:
            return AlgScalar(rational(obj))
        if isinstance(obj, dict) and "a" in obj:
            return AlgScalar(rational(obj["a"]), rational(obj["b"]), obj["d"])
        raise ValueError(f"not a scalar encoding: {obj!r}")


_Q0 = Fraction(0)
_set_a = AlgScalar.a.__set__
_set_b = AlgScalar.b.__set__
_set_d = AlgScalar.d.__set__


def _make(a: Fraction, b: Fraction, d: int) -> AlgScalar:
    """An ``AlgScalar`` from parts already in canonical form, unchecked.

    Only this module calls it, on parts that an exact operation on
    canonical scalars produced: ``Fraction`` a and b, and b == 0 exactly
    when d == 0.  A rational sum or product then costs one ``Fraction``
    operation, not the constructor's coercions and ``_squarefree``.
    """
    x = object.__new__(AlgScalar)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


ZERO = AlgScalar(0)


def scalar(x: ScalarLike) -> AlgScalar:
    return x if isinstance(x, AlgScalar) else AlgScalar(x)


class Mat4:
    """Immutable 4x4 matrix over a single quadratic field.

    All irrational entries must share one radical d; rationals (d = 0) mix
    freely with them.
    """

    __slots__ = ("rows", "d")

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("Mat4 requires a 4x4 array")
        ents = tuple(tuple(scalar(x) for x in r) for r in rows)
        d = 0
        for r in ents:
            for x in r:
                if x.d != 0:
                    if d != 0 and x.d != d:
                        raise IncompatibleRadicals(
                            f"mixed radicals in matrix: sqrt({d}) and sqrt({x.d})"
                        )
                    d = x.d
        object.__setattr__(self, "rows", ents)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Mat4 is immutable")

    @staticmethod
    def identity() -> "Mat4":
        return Mat4([[1 if i == j else 0 for j in range(4)] for i in range(4)])

    @staticmethod
    def zero() -> "Mat4":
        return Mat4([[0] * 4 for _ in range(4)])

    @staticmethod
    def diagonal(entries: Iterable[ScalarLike]) -> "Mat4":
        e = list(entries)
        return Mat4([[e[i] if i == j else 0 for j in range(4)] for i in range(4)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other: "Mat4") -> "Mat4":
        if not isinstance(other, Mat4):
            return NotImplemented
        return Mat4(
            [
                [
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(4)),
                        ZERO,
                    )
                    for j in range(4)
                ]
                for i in range(4)
            ]
        )

    def __add__(self, other: "Mat4") -> "Mat4":
        if not isinstance(other, Mat4):
            return NotImplemented
        return Mat4(
            [[self.rows[i][j] + other.rows[i][j] for j in range(4)] for i in range(4)]
        )

    def __sub__(self, other: "Mat4") -> "Mat4":
        return self + (-other)

    def __neg__(self) -> "Mat4":
        return Mat4([[-x for x in r] for r in self.rows])

    def scale(self, c: ScalarLike) -> "Mat4":
        c = scalar(c)
        return Mat4([[c * x for x in r] for r in self.rows])

    def transpose(self) -> "Mat4":
        return Mat4([[self.rows[j][i] for j in range(4)] for i in range(4)])

    def det(self) -> AlgScalar:
        def det2(a, b, c, d):
            return a * d - b * c

        r = self.rows
        total = ZERO
        sign = 1
        for j in range(4):
            cols = [c for c in range(4) if c != j]
            minor = ZERO
            s2 = 1
            for jj_idx, jj in enumerate(cols):
                cols2 = [c for c in cols if c != jj]
                minor = minor + AlgScalar(s2) * r[1][jj] * det2(
                    r[2][cols2[0]], r[2][cols2[1]], r[3][cols2[0]], r[3][cols2[1]]
                )
                s2 = -s2
            total = total + AlgScalar(sign) * r[0][j] * minor
            sign = -sign
        return total

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat4):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def sort_key(self):
        return tuple(x.sort_key() for r in self.rows for x in r)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Mat4[{body}]"

    def to_json(self) -> list:
        return [[x.to_json() for x in r] for r in self.rows]

    @staticmethod
    def from_json(obj) -> "Mat4":
        return Mat4([[AlgScalar.from_json(x) for x in r] for r in obj])


def is_involution(s: Mat4) -> bool:
    """True iff s*s is exactly the identity."""
    return s * s == Mat4.identity()


def anticommutes(s: Mat4, a: Mat4) -> bool:
    """True iff s*a + a*s = 0 exactly."""
    return (s * a + a * s).is_zero()


def commutes(s: Mat4, a: Mat4) -> bool:
    return (s * a - a * s).is_zero()
