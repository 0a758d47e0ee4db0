"""Exact linear algebra helpers: Gaussian elimination and a small simplex.

Everything operates on `fractions.Fraction` so feasibility and optimality
answers are exact.  The simplex takes only `<=` rows with nonnegative
right-hand sides, so it starts at the slack basis, which is feasible, and
needs no phase 1.  Its tableau keeps the objective as a last row that every
pivot updates, and Bland's rule picks each pivot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ParameterError, ShapeError


def solve_linear(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve the square system a x = b exactly.

    Returns the unique solution, or None when the matrix is singular
    (no solution or infinitely many).
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ShapeError("solve_linear expects a square system")
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [e * inv for e in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [e - factor * p for e, p in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = Fraction(1) / tab[row][col]
    tab[row] = [e * inv for e in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            factor = tab[r][col]
            tab[r] = [e - factor * p for e, p in zip(tab[r], tab[row])]
    basis[row] = col


def simplex_maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize c.x subject to a_ub x <= b_ub, x >= 0, where b_ub >= 0.

    Returns (status, value, x) with status 'optimal' or 'unbounded'; value
    and x are None unless optimal.
    """
    n, m = len(c), len(a_ub)
    if len(b_ub) != m or any(len(row) != n for row in a_ub):
        raise ShapeError("simplex_maximize expects one b_ub entry per a_ub row "
                         "and len(c) entries per row")
    if any(b < 0 for b in b_ub):
        raise ParameterError("simplex_maximize expects b_ub >= 0")
    # Columns: x, one slack per row, then the right-hand side.  The last row
    # is the objective: minus each column's reduced cost, then the value.
    tab = [
        list(row) + [Fraction(int(k == i)) for k in range(m)] + [Fraction(b_ub[i])]
        for i, row in enumerate(a_ub)
    ]
    tab.append([-e for e in c] + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))
    # Bland's rule: lowest-index entering column with a negative objective
    # entry, lowest basis index breaking leaving-row ties.
    while True:
        entering = next((j for j in range(n + m) if tab[m][j] < 0), -1)
        if entering < 0:
            break
        leave = -1
        best_ratio: Fraction | None = None
        for r in range(m):
            if tab[r][entering] > 0:
                ratio = tab[r][-1] / tab[r][entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            return "unbounded", None, None
        _pivot(tab, basis, leave, entering)
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tab[r][-1]
    return "optimal", tab[m][-1], x
