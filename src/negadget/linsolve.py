"""Exact linear algebra helpers: Gaussian elimination and a small simplex.

Everything operates on `fractions.Fraction` so feasibility and optimality
answers are exact.  The simplex is a Bland's-rule tableau method that
starts at the slack basis and needs one artificial variable (Chvatal's
auxiliary problem max -x0) only when a right-hand side is negative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ShapeError


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


def _optimize(
    tab: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    ncols: int,
) -> str:
    """Maximize `cost . x` on the tableau in place; 'optimal' or 'unbounded'.

    Bland's rule throughout: lowest-index entering column with positive
    reduced cost, lowest basis index breaking leaving-row ties.
    """
    while True:
        # Reduced costs recomputed from scratch each round: the tableaus here
        # are tiny and this keeps the code obviously correct.
        basis_cost = [cost[b] for b in basis]
        entering = -1
        for j in range(ncols):
            if j in basis:
                continue
            rc = cost[j] - sum(
                basis_cost[r] * tab[r][j] for r in range(len(tab))
            )
            if rc > 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leave = -1
        best_ratio: Fraction | None = None
        for r in range(len(tab)):
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
            return "unbounded"
        _pivot(tab, basis, leave, entering)


def simplex_maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Returns (status, value, x) with status one of 'optimal', 'infeasible',
    'unbounded'; value and x are None unless optimal.
    """
    n = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i, row in enumerate(a_ub):
        if len(row) != n:
            raise ShapeError("a_ub row length mismatch")
        rows.append(list(row))
        rhs.append(Fraction(b_ub[i]))
    # Each equality becomes two opposite <= rows, so every row has a slack.
    for i, row in enumerate(a_eq):
        if len(row) != n:
            raise ShapeError("a_eq row length mismatch")
        rows += [list(row), [-e for e in row]]
        rhs += [Fraction(b_eq[i]), -Fraction(b_eq[i])]
    m = len(rows)
    width = n + m
    # Columns: x, one slack per row, then x0 with -1 in every row.
    tab = [
        rows[i] + [Fraction(int(k == i)) for k in range(m)] + [Fraction(-1), rhs[i]]
        for i in range(m)
    ]
    basis = list(range(n, width))

    if any(b < 0 for b in rhs):
        # Entering x0 on the most negative row makes every rhs nonnegative.
        _pivot(tab, basis, rhs.index(min(rhs)), width)
        phase1_cost = [Fraction(0)] * width + [Fraction(-1)]
        status = _optimize(tab, basis, phase1_cost, width + 1)
        assert status == "optimal"  # phase 1 is bounded by construction
        if width in basis:
            r = basis.index(width)
            if tab[r][-1] > 0:
                return "infeasible", None, None
            # [A | I] has full row rank, so the row has a nonzero entry.
            _pivot(tab, basis, r, next(j for j in range(width) if tab[r][j] != 0))

    # x0 stays in the tableau but may not re-enter the basis.
    phase2_cost = list(c) + [Fraction(0)] * (m + 1)
    status = _optimize(tab, basis, phase2_cost, width)
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tab[r][-1]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return "optimal", value, x
