"""Exact linear algebra on integer tables: one fraction-free pivot step.

Rational rows are scaled to integers (`integers`), and both the simplex and
Gauss-Jordan elimination then pivot with the same update: every row except
the pivot row becomes (row * p - row[c] * pivot_row) // det, where p is the
new pivot and det the previous one (Bareiss 1968).  The division is exact,
and after each step the table is det times its rational counterpart, so
callers read answers as numerators over det and stay in integers.  Small
dense systems only; no pivoting strategy is needed beyond "first nonzero"
because arithmetic is exact.
"""

from __future__ import annotations

import math
from typing import Sequence


def integers(rows) -> tuple[list[list[int]], int]:
    """Rational rows scaled to integers by the lcm D of their denominators, and D."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def _pivot(table: list[list[int]], r: int, c: int, det: int) -> int:
    """Fraction-free pivot on table[r][c]; returns the new det, that entry."""
    pivot_row = table[r]
    pivot = pivot_row[c]
    for i, row in enumerate(table):
        if i != r:
            f = row[c]
            table[i] = [(x * pivot - f * y) // det for x, y in zip(row, pivot_row)]
    return pivot


def simplex(a: list[list[int]], b: list[int], cost: list[int]) -> tuple[list[int], list[int], int]:
    """max cost.w s.t. a w <= b, w >= 0, for integer a and cost and b >= 0.

    The tableau starts from the slack basis and stays integer under
    fraction-free pivots, and Bland's rule (lowest entering column;
    ratio-test ties to the lowest basic variable) cannot cycle.  Returns the
    primal w, the dual (the objective row's slack entries) and the optimum,
    as numerators over one positive denominator.  Every caller's program is
    bounded.
    """
    rows, cols = len(a), len(a[0])
    width = cols + rows
    table = [row + [int(k == i) for k in range(rows)] + [rhs] for i, (row, rhs) in enumerate(zip(a, b))]
    table.append([-c for c in cost] + [0] * (rows + 1))
    basis = list(range(cols, width))
    det = 1
    while (col := next((j for j in range(width) if table[rows][j] < 0), None)) is not None:
        # minimum ratio rhs / entry (compared crosswise, entries are
        # positive), ties to the lowest basic variable
        leave = None
        for i in range(rows):
            e = table[i][col]
            if e > 0 and (
                leave is None
                or (table[i][-1] * table[leave][col], basis[i]) < (table[leave][-1] * e, basis[leave])
            ):
                leave = i
        det = _pivot(table, leave, col, det)
        basis[leave] = col
    primal = [0] * cols
    for var, row in zip(basis, table):
        if var < cols:
            primal[var] = row[-1]
    objective = table[rows]
    return primal, objective[cols:width], objective[-1]


def eliminate(rows: Sequence[Sequence], n: int) -> tuple[list[list[int]], list[int], int] | None:
    """Fraction-free Gauss-Jordan form of the rational rows [coefficients | rhs]
    over n unknowns, scaled to integers by `integers`.

    Returns the table, its pivot columns (pivot column k in row k, every
    pivot entry equal to det) and det > 0, or None when the system is
    inconsistent.  The table is det times the reduced row echelon form, so
    the solutions are x[pivots[k]] = (table[k][n] - sum over free f of
    table[k][f] x[f]) / det.
    """
    table, _ = integers(rows)
    pivots: list[int] = []
    det = 1
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(table)) if table[i][c]), None)
        if pr is None:
            continue
        table[r], table[pr] = table[pr], table[r]
        det = _pivot(table, r, c, det)
        pivots.append(c)
    if any(row[n] for row in table[len(pivots):]):
        return None
    if det < 0:
        table = [[-v for v in row] for row in table]
        det = -det
    return table, pivots, det
