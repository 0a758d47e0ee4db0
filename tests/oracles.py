"""Independent oracles that only the tests use: exact Gaussian
elimination, the exact equilibria of games up to 5x5, and the grid eps-NE
sweep.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from negadget.errors import ResourceError, ShapeError
from negadget.games import (
    BimatrixGame,
    Matrix,
    MixedProfile,
    Rational,
    Vector,
    frac,
    regret_report,
)
from negadget.search import (
    _eps_ne_scan,
    _reverified,
    _spread,
    k_uniform_strategies,
)


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


def exhaustive_ne_oracle(
    game: BimatrixGame, grid: int = 8
) -> list[MixedProfile]:
    """Independent oracle: exact equilibria of a small game.

    Combines support enumeration (solving the indifference systems
    exactly and validating best-response maximality) with a grid sweep
    that reports grid profiles of exactly zero regret.  Intended for
    games up to 5x5 only.
    """
    if game.rows > 5 or game.cols > 5:
        raise ResourceError("oracle supports games up to 5x5")
    out: list[MixedProfile] = []
    seen: set[tuple[Vector, Vector]] = set()

    def record(p: MixedProfile) -> None:
        key = (p.x, p.y)
        if key not in seen:
            seen.add(key)
            out.append(p)

    for size in range(1, min(game.rows, game.cols) + 1):
        for rows in itertools.combinations(range(game.rows), size):
            for cols in itertools.combinations(range(game.cols), size):
                p = _support_ne(game, rows, cols)
                if p is not None:
                    record(p)
    for x, y in itertools.product(
        k_uniform_strategies(game.rows, grid), k_uniform_strategies(game.cols, grid)
    ):
        p = MixedProfile(x=x, y=y)
        if regret_report(game, p).within(0):
            record(p)
    return out


def _support_ne(
    game: BimatrixGame, rows: Sequence[int], cols: Sequence[int]
) -> MixedProfile | None:
    """Solve the indifference system for equal-size supports; validate."""
    y = _indifferent(game.R, rows, cols)
    if y is None:
        return None
    x = _indifferent(game.Ct, cols, rows)
    if x is None:
        return None
    p = MixedProfile(x=_spread(game.rows, rows, x), y=_spread(game.cols, cols, y))
    return p if regret_report(game, p).within(0) else None


def _indifferent(
    payoff: Matrix, supp: Sequence[int], opp_supp: Sequence[int]
) -> list[Fraction] | None:
    """The positive q over opp_supp (then the value v) making every row of
    ``payoff`` in ``supp`` earn v against q, or None."""
    size = len(opp_supp)
    a = [[payoff[i][j] for j in opp_supp] + [Fraction(-1)] for i in supp]
    a.append([Fraction(1)] * size + [Fraction(0)])
    b = [Fraction(0)] * len(supp) + [Fraction(1)]
    sol = solve_linear(a, b)
    if sol is None or any(e <= 0 for e in sol[:size]):
        return None
    return sol[:size]


def grid_eps_ne(
    game: BimatrixGame, grid: int, eps: Rational
) -> list[MixedProfile]:
    """All grid profiles (denominator ``grid``) with regret at most eps."""
    e = frac(eps)
    return [
        _reverified(game, MixedProfile(x=x, y=y), e)
        for _, x, y, _, _ in _eps_ne_scan(game, e, grid, math.inf)
    ]
