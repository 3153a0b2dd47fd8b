"""Exact linear algebra over Q by fraction-free integer elimination.

``rref`` scales every row to a primitive integer row (denominators cleared,
content divided out, first nonzero entry positive) and drops zero and
duplicate rows.  Gauss-Jordan elimination then runs on integers: a row is
updated by a cross-multiplication with the pivot row and divided by its
content again, which keeps the entries as small as the row space allows (the
fraction-free idea of Bareiss 1968, Math. Comp. 22, 565-578).  Only the final
reduced rows are formed as Fractions.  The reduced row echelon form of a
matrix is unique, so the result does not depend on the pivot order.

Small systems only: the callers decompose their operators into invariant
blocks first, so matrices here stay well under a few hundred columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Row = List[Fraction]


def _primitive(row: Sequence[Fraction | int]) -> Optional[Tuple[int, ...]]:
    """The primitive integer multiple of a rational row, or None if it is zero."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    if g == 0:
        return None
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def rref(rows: List[Row]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The reduced rows come first, padded with zero rows to ``len(rows)``.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    work: List[List[int]] = []
    seen = set()
    for r in rows:
        v = _primitive(r)
        if v is not None and v not in seen:
            seen.add(v)
            work.append(list(v))
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = min(
            (i for i in range(r, len(work)) if work[i][c]),
            key=lambda i: abs(work[i][c]),
            default=None,
        )
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        a = prow[c]
        for i, row in enumerate(work):
            b = row[c]
            if i != r and b:
                g = gcd(a, b)
                row = [a // g * x - b // g * y for x, y in zip(row, prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        # rows below the pivot row that are now zero were dependent
        work = work[: r + 1] + [row for row in work[r + 1 :] if any(row)]
        pivots.append(c)
    red = [[Fraction(x, work[r][c]) for x in work[r]] for r, c in enumerate(pivots)]
    red += [[Fraction(0)] * ncols for _ in range(len(rows) - len(pivots))]
    return red, pivots


def nullspace(rows: List[Row], ncols: Optional[int] = None) -> List[Row]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    if not rows:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows: List[Row], rhs: Row) -> Optional[Row]:
    """One solution of M x = b (free variables set to zero), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x
