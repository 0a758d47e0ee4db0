"""An exact simplex for the support LPs.

It takes only `<=` rows with nonnegative right-hand sides, so it starts
at the slack basis, which is feasible, and needs no phase 1.  Its tableau
keeps the objective as a last row that every pivot updates, and Bland's rule
picks each pivot.

The simplex tableau holds integers only, pivoted fraction-free (Bareiss
1968, as in lrsnash): each row's denominators are cleared once, slack
coefficients stay 1, and each pivot multiplies every other row by the pivot
and divides it, exactly, by the previous pivot.  The tableau is then the
true tableau times the current pivot, a positive number, so every sign and
ratio, and with them Bland's pivot sequence, is that of the rational
tableau.  `Fraction` values are built only for the returned optimum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import ParameterError, ShapeError


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(L * values, L) for L the least common multiple of the denominators."""
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int) -> None:
    """Bareiss pivot on tab[row][col]: the pivot row stays, and every other
    row becomes (e*p - f*q) // d, where p is the pivot, f the row's entry in
    column col, q the pivot row's entry, and d the previous pivot, which
    every basic row holds in its basic column and which divides exactly."""
    pivot_row = tab[row]
    p, d = pivot_row[col], pivot_row[basis[row]]
    for r, line in enumerate(tab):
        if r != row:
            f = line[col]
            tab[r] = [(e * p - f * q) // d for e, q in zip(line, pivot_row)]
    basis[row] = col


def simplex_maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize c.x subject to a_ub x <= b_ub, x >= 0, where b_ub >= 0.

    Entries are ints or Fractions.  Returns (status, value, x) with status
    'optimal' or 'unbounded'; value and x are None unless optimal.
    """
    n, m = len(c), len(a_ub)
    if len(b_ub) != m or any(len(row) != n for row in a_ub):
        raise ShapeError("simplex_maximize expects one b_ub entry per a_ub row "
                         "and len(c) entries per row")
    if any(b < 0 for b in b_ub):
        raise ParameterError("simplex_maximize expects b_ub >= 0")
    # Columns: x, one slack per row, then the right-hand side.  The last row
    # is the objective: minus each column's reduced cost, then the value,
    # all times `unit`.
    tab = []
    for i, row in enumerate(a_ub):
        ints, _ = _cleared([*row, b_ub[i]])
        tab.append(ints[:n] + [int(k == i) for k in range(m)] + ints[n:])
    objective, unit = _cleared(c)
    tab.append([-e for e in objective] + [0] * (m + 1))
    basis = list(range(n, n + m))
    # Bland's rule: lowest-index entering column with a negative objective
    # entry, lowest basis index breaking leaving-row ties.  Ratios
    # rhs/entry are compared by cross-multiplying positive entries.
    while True:
        entering = next((j for j in range(n + m) if tab[m][j] < 0), -1)
        if entering < 0:
            break
        leave = -1
        for r in range(m):
            if tab[r][entering] > 0:
                if leave < 0:
                    leave = r
                    continue
                here = tab[r][-1] * tab[leave][entering]
                best = tab[leave][-1] * tab[r][entering]
                if here < best or (here == best and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            return "unbounded", None, None
        _pivot(tab, basis, leave, entering)
    d = tab[0][basis[0]] if m else 1
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[r][-1], d)
    return "optimal", Fraction(tab[m][-1], d * unit), x
