"""Exact linear algebra over Q by fraction-free elimination on sparse rows.

``rref`` keeps each row as a ``{column: int}`` map of its nonzeros, scaled
to a primitive integer row (denominators cleared, content divided out,
first nonzero entry positive), and drops zero and duplicate rows.  Integer
rows skip the denominator step.  Gauss-Jordan elimination then runs on
integers, column by column: the pivot is the row with the fewest nonzeros,
then the smallest entry in that column, the rule of Markowitz (1957,
Management Sci. 3, 255-269) restricted to a fixed column order, which keeps
the rows sparse.  A row is updated by a cross-multiplication with the pivot
row and divided by its content again, which keeps the entries as small as
the row space allows (the fraction-free idea of Bareiss 1968, Math. Comp.
22, 565-578).  Only the nonzeros of the final reduced rows are formed as
Fractions.  The reduced row echelon form of a matrix is unique, so the
result does not depend on the pivot order.

Small systems only: the callers decompose their operators into invariant
blocks first, so matrices here stay well under a few hundred columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

Row = List[Fraction]


def _primitive(row: Sequence[Fraction | int]) -> Optional[Dict[int, int]]:
    """The primitive integer multiple of a rational row as its nonzeros
    ``{column: entry}``, or None if it is zero."""
    nz = {c: x for c, x in enumerate(row) if x}
    if not nz:
        return None
    try:
        g = gcd(*nz.values())  # a TypeError unless every entry is an int
    except TypeError:
        den = lcm(*(x.denominator for x in nz.values()))
        nz = {c: x.numerator * (den // x.denominator) for c, x in nz.items()}
        g = gcd(*nz.values())
    if next(iter(nz.values())) < 0:
        g = -g
    return nz if g == 1 else {c: x // g for c, x in nz.items()}


def rref(rows: List[Row]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The reduced rows come first, padded with zero rows to ``len(rows)``.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    primitive = (_primitive(r) for r in rows)
    work = list({tuple(v.items()): v for v in primitive if v is not None}.values())
    pivots: List[int] = []
    done: List[Dict[int, int]] = []
    for c in range(ncols):
        if not work:
            break
        hits = [row for row in work if c in row]
        if not hits:
            continue
        prow = min(hits, key=lambda row: (len(row), abs(row[c])))
        a = prow[c]
        for row in done + hits:
            if row is prow or c not in row:
                continue
            b = row[c]
            g = gcd(a, b)
            a_g, b_g = a // g, b // g
            if a_g != 1:
                for k in row:
                    row[k] *= a_g
            for k, y in prow.items():
                x = row.get(k, 0) - b_g * y
                if x:
                    row[k] = x
                else:
                    del row[k]
            g = gcd(*row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
        # rows that are now zero were dependent
        work = [row for row in work if row and row is not prow]
        done.append(prow)
        pivots.append(c)
    zero = Fraction(0)
    red = []
    for c, row in zip(pivots, done):
        out = [zero] * ncols
        for k, x in row.items():
            out[k] = Fraction(x, row[c])
        red.append(out)
    red += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
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
