"""Gaussian elimination over exact rationals.

Small dense systems only; rows are sequences of Fraction (ints are accepted
and coerced).  No pivoting strategy is needed beyond "first nonzero" because
arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _rref(rows: list[list[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form on the first `width` columns.

    Returns the matrix and the list of pivot columns.  Columns beyond `width`
    ride along (augmented right-hand sides).
    """
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _as_fractions(row: Sequence) -> list[Fraction]:
    return [v if isinstance(v, Fraction) else Fraction(v) for v in row]


def rank(rows: Sequence[Sequence]) -> int:
    rows = [_as_fractions(r) for r in rows]
    if not rows:
        return 0
    _, pivots = _rref(rows, len(rows[0]))
    return len(pivots)


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Unique solution of rows @ x = rhs, or None.

    None means the (possibly overdetermined) system is inconsistent or does
    not pin down every variable.
    """
    if not rows:
        return None
    n = len(rows[0])
    aug = [_as_fractions(r) + [Fraction(b)] for r, b in zip(rows, rhs)]
    aug, pivots = _rref(aug, n)
    for row in aug[len(pivots):]:
        if row[n] != 0:
            return None
    if len(pivots) < n:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def dot(a: Sequence, b: Sequence) -> Fraction:
    total = Fraction(0)
    for x, y in zip(a, b):
        if x and y:
            total += Fraction(x) * Fraction(y)
    return total
