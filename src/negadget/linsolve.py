"""An exact simplex for the support LPs.

It takes only `<=` rows with nonnegative right-hand sides, all integers, so
it starts at the slack basis, which is feasible, and needs no phase 1.  It
pivots a compact integer dictionary, as lrs does (Avis 2000): one column
per nonbasic variable and the right-hand side, one row per basic variable
and the objective.  ``basis`` names each row's variable and ``cobasis`` each
column's (x is 0..n-1, the slacks n..n+m-1).  Each pivot is fraction-free
(Bareiss 1968): an entry off the pivot row becomes (e*p - f*q) // d, d the
previous pivot, and the entering column passes to the leaving variable, d
on the pivot row and -f on every other.  Each entry is that of the full
tableau, which is d > 0 times the true tableau; so every sign and ratio,
and with them Bland's pivot sequence, is that of the rational tableau.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import ParameterError, ShapeError


def _pivot(dic: list[list[int]], basis: list[int], cobasis: list[int],
           d: int, row: int, col: int) -> int:
    """Bareiss pivot on dic[row][col] after pivot d; returns the pivot p, the
    next d.  Other rows become (e*p - f*q) // d, f being their entry in column
    col and q the pivot row's, and column col passes to the leaving variable."""
    pivot_row = dic[row]
    p = pivot_row[col]
    for r, line in enumerate(dic):
        if r != row:
            f = line[col]
            line = [(e * p - f * q) // d for e, q in zip(line, pivot_row)]
            line[col] = -f
            dic[r] = line
    pivot_row[col] = d
    basis[row], cobasis[col] = cobasis[col], basis[row]
    return p


def simplex_maximize(
    c: Sequence[int],
    a_ub: Sequence[Sequence[int]],
    b_ub: Sequence[int],
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize c.x subject to a_ub x <= b_ub, x >= 0, where b_ub >= 0.

    Every entry is an ``int``; any other type raises ``ParameterError``.
    Returns (status, value, x) with status 'optimal' or 'unbounded'; value
    and x are None unless optimal.
    """
    n, m = len(c), len(a_ub)
    if len(b_ub) != m or any(len(row) != n for row in a_ub):
        raise ShapeError("simplex_maximize expects one b_ub entry per a_ub row "
                         "and len(c) entries per row")
    for e in chain(c, b_ub, *a_ub):
        if type(e) is not int:
            raise ParameterError("simplex_maximize expects ints, got "
                                 f"{type(e).__name__} {e!r}")
    if any(b < 0 for b in b_ub):
        raise ParameterError("simplex_maximize expects b_ub >= 0")
    # The rows, then the objective row: minus each reduced cost, the value.
    dic = [[*row, b] for row, b in zip(a_ub, b_ub)] + [[-e for e in c] + [0]]
    basis, cobasis, d = list(range(n, n + m)), list(range(n)), 1
    # Bland's rule: the lowest-index entering variable with a negative
    # objective entry, the lowest basis index breaking leaving-row ties.
    # Ratios rhs/entry are compared by cross-multiplying positive entries.
    while (entering := min((j for j in range(n) if dic[m][j] < 0),
                           key=cobasis.__getitem__, default=-1)) >= 0:
        leave = -1
        for r in range(m):
            f = dic[r][entering]
            if f > 0 and (leave < 0 or (dic[r][n] * dic[leave][entering], basis[r])
                          < (dic[leave][n] * f, basis[leave])):
                leave = r
        if leave < 0:
            return "unbounded", None, None
        d = _pivot(dic, basis, cobasis, d, leave, entering)
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(dic[r][n], d)
    return "optimal", Fraction(dic[m][n], d), x
