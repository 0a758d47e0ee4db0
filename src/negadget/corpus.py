"""Named CNF fixtures and seeded random generators for tests.

The fixtures are intentionally tiny: the gadget blocks grow exponentially
in the number of questions, so everything here is sized to stay within
the default enumeration budgets.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .games import BimatrixGame, MixedProfile
from .sat import BipartiteGraph, Cnf3Formula


def full_sign_pattern(
    variables: tuple[int, int, int] = (1, 2, 3), num_vars: int | None = None
) -> Cnf3Formula:
    """All 8 sign patterns over three variables; unsatisfiable with d = 8."""
    a, b, c = variables
    clauses = tuple(
        (a * sa, b * sb, c * sc)
        for sa, sb, sc in itertools.product((1, -1), repeat=3)
    )
    return Cnf3Formula(
        num_vars=num_vars or max(variables), clauses=clauses
    )


def satisfiable_fixtures() -> dict[str, Cnf3Formula]:
    """Small satisfiable formulas spanning a few shapes and degrees."""
    seven = tuple(
        c
        for c in full_sign_pattern().clauses
        if c != (-1, -2, -3)  # drop the clause falsified by all-true
    )
    return {
        "single": Cnf3Formula(num_vars=3, clauses=((1, 2, 3),)),
        "two-clause": Cnf3Formula(num_vars=4, clauses=((1, 2, 3), (-1, 2, 4))),
        "complementary": Cnf3Formula(
            num_vars=3, clauses=((1, 2, 3), (-1, -2, -3))
        ),
        "alternating": Cnf3Formula(
            num_vars=3,
            clauses=((-1, 2, 3), (1, -2, 3), (1, 2, -3), (-1, -2, 3)),
        ),
        "seven-of-eight": Cnf3Formula(num_vars=3, clauses=seven),
    }


def unsatisfiable_fixtures() -> dict[str, Cnf3Formula]:
    """Unsatisfiable formulas; all have max_sat_fraction < 1."""
    pattern = full_sign_pattern()
    return {
        "pattern": pattern,
        "pattern-slack-var": full_sign_pattern(num_vars=4),
        "pattern-plus": Cnf3Formula(
            num_vars=4, clauses=pattern.clauses + ((1, 2, 4),)
        ),
        "pattern-shifted": full_sign_pattern(variables=(2, 3, 4)),
    }


def capped_base_games() -> dict[str, BimatrixGame]:
    """Tiny games whose payoffs never exceed 1/2.

    In the extended decision games these caps force all approximate
    equilibria onto the appended threat strategies.
    """
    h = Fraction(1, 2)
    z = Fraction(0)
    return {
        "null": BimatrixGame(R=((z,),), C=((z,),)),
        "capped-pennies": BimatrixGame(
            R=((h, z), (z, h)), C=((z, h), (h, z))
        ),
        "lopsided": BimatrixGame(
            R=((h, Fraction(1, 4)), (z, Fraction(1, 3))),
            C=((Fraction(1, 4), h), (Fraction(1, 3), z)),
        ),
    }


def random_game(
    rng: random.Random, rows: int, cols: int, denom: int = 8
) -> BimatrixGame:
    """Uniform random payoffs from {0, 1/denom, ..., (denom-1)/denom}."""
    r, c = _random_payoffs(rng, rows, cols, denom)
    return BimatrixGame(R=r, C=c)


def _random_payoffs(
    rng: random.Random, rows: int, cols: int, denom: int
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """`random_game`'s R and C, drawn in its order, as lists of rows."""
    r = [[Fraction(rng.randrange(denom), denom) for _ in range(cols)]
         for _ in range(rows)]
    c = [[Fraction(rng.randrange(denom), denom) for _ in range(cols)]
         for _ in range(rows)]
    return r, c


def random_planted_game(
    rng: random.Random, rows: int, cols: int, denom: int = 8
) -> BimatrixGame:
    """Random game with one cell raised to (1, 1).

    That cell is a pure equilibrium of maximum possible welfare, so the
    best equilibrium welfare is known to be exactly 2 by construction.
    """
    # The cell is planted in the drawn payoffs: a game's R and C are views,
    # and reading them would build both only to copy them.
    r, c = _random_payoffs(rng, rows, cols, denom)
    i = rng.randrange(rows)
    j = rng.randrange(cols)
    r[i][j] = c[i][j] = Fraction(1)
    return BimatrixGame(R=r, C=c)


def random_profile(rng: random.Random, rows: int, cols: int, denom: int = 12) -> MixedProfile:
    """Random profile with entries on a 1/denom grid, summing exactly to 1."""

    def side(n: int) -> tuple[Fraction, ...]:
        cuts = sorted(rng.randrange(denom + 1) for _ in range(n - 1))
        return tuple(Fraction(b - a, denom) for a, b in itertools.pairwise((0, *cuts, denom)))

    return MixedProfile(x=side(rows), y=side(cols))


def random_bipartite_graph(
    rng: random.Random, left: int, right: int, max_degree: int
) -> BipartiteGraph:
    """Random bipartite graph with both side degrees at most max_degree."""
    left_degree = [0] * left
    edges: set[tuple[int, int]] = set()
    for v in range(right):
        want = rng.randrange(max_degree + 1)
        candidates = [u for u in range(left) if left_degree[u] < max_degree]
        rng.shuffle(candidates)
        for u in candidates[:want]:
            edges.add((u, v))
            left_degree[u] += 1
    return BipartiteGraph(
        left_count=left, right_count=right, edges=frozenset(edges)
    )
