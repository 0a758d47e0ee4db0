"""Two-prover cooperative games, deterministic strategies, and game value.

A game is a tuple (X, Y, A, B, D, V): Arthur draws a question pair from D,
each Merlin answers from a per-question answer set, and V awards payoff 0
or 1.  D may be a sub-distribution; the missing mass pays 0.  A free game
has the uniform product distribution over X x Y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ParameterError,
    ResourceError,
    ShapeError,
    ValidationError,
)
from .games import (
    BimatrixGame, Matrix, MixedProfile, Vector, cleared, frac, mat_vec, vector
)

# V is stored as a nested tuple: V[x][y][a][b] in {0, 1}.
VTable = tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]

VALUE_BUDGET_DEFAULT = 2**24


@dataclass(frozen=True)
class TwoProverGame:
    """Question sets are implicit ranges; answer sets are per-question counts.

    ``x_answers[i]`` is the number of legal answers for question i on the
    X side (likewise ``y_answers``).  ``dist`` of None means the uniform
    product distribution (a free game); otherwise it is an |X| x |Y| matrix
    of nonnegative rationals summing to at most 1.
    """

    x_answers: tuple[int, ...]
    y_answers: tuple[int, ...]
    table: VTable
    dist: Matrix | None = None

    def __post_init__(self) -> None:
        if not self.x_answers or not self.y_answers:
            raise ShapeError("question sets must be nonempty")
        if any(a < 1 for a in self.x_answers + self.y_answers):
            raise ValidationError("every question needs at least one answer")
        if len(self.table) != self.nx:
            raise ShapeError("V table has wrong X dimension")
        for x, per_y in enumerate(self.table):
            if len(per_y) != self.ny:
                raise ShapeError("V table has wrong Y dimension")
            for y, per_a in enumerate(per_y):
                if len(per_a) != self.x_answers[x]:
                    raise ShapeError(f"V table answer dimension at x={x}")
                for per_b in per_a:
                    if len(per_b) != self.y_answers[y]:
                        raise ShapeError(f"V table answer dimension at y={y}")
                    if any(v not in (0, 1) for v in per_b):
                        raise ValidationError("V entries must be 0 or 1")
        if self.dist is not None:
            # Exact Fractions, so game_value can read every denominator.
            d = tuple([vector(row) for row in self.dist])
            object.__setattr__(self, "dist", d)
            if len(d) != self.nx or any(len(row) != self.ny for row in d):
                raise ShapeError("distribution has wrong shape")
            if any(e < 0 for row in d for e in row):
                raise ValidationError("distribution entries must be >= 0")
            if sum(e for row in d for e in row) > 1:
                raise ValidationError("distribution mass exceeds 1")

    @property
    def nx(self) -> int:
        return len(self.x_answers)

    @property
    def ny(self) -> int:
        return len(self.y_answers)

    @property
    def is_free(self) -> bool:
        return self.dist is None

    def prob(self, x: int, y: int) -> Fraction:
        if self.dist is None:
            return Fraction(1, self.nx * self.ny)
        return self.dist[x][y]

    def strategy_counts(self) -> tuple[int, int]:
        """(|S1|, |S2|): number of deterministic strategies per prover."""
        s1 = 1
        for a in self.x_answers:
            s1 *= a
        s2 = 1
        for b in self.y_answers:
            s2 *= b
        return s1, s2


@dataclass(frozen=True)
class ProverStrategy:
    """A deterministic strategy: one answer per question, by index."""

    answers: tuple[int, ...]


def _check_strategy(s: ProverStrategy, sizes: tuple[int, ...], side: str) -> None:
    if len(s.answers) != len(sizes):
        raise ValidationError(
            f"{side} strategy answers {len(s.answers)} of {len(sizes)} questions"
        )
    for q, (a, size) in enumerate(zip(s.answers, sizes)):
        if not (0 <= a < size):
            raise ValidationError(f"{side} strategy answer {a} at question {q}")


def prover_payoff(
    t: TwoProverGame, s1: ProverStrategy, s2: ProverStrategy
) -> Fraction:
    """Exact expected payoff E_{(x,y)~D}[V(x, y, s1(x), s2(y))]."""
    _check_strategy(s1, t.x_answers, "X")
    _check_strategy(s2, t.y_answers, "Y")
    total = Fraction(0)
    for x in range(t.nx):
        for y in range(t.ny):
            if t.table[x][y][s1.answers[x]][s2.answers[y]]:
                total += t.prob(x, y)
    return total


def game_value(t: TwoProverGame, budget: int = VALUE_BUDGET_DEFAULT) -> Fraction:
    """Exact maximum payoff over deterministic strategy pairs.

    Given one prover's strategy, the other prover's best reply decomposes
    per question, so only the side with fewer strategies is enumerated.
    The budget contracts on the full pair count |S1| x |S2| and is checked
    before anything is built.

    The sums are integers: each question pair weighs its probability
    cleared by `games.cleared` (over nx*ny for a free game, where every
    weight is 1); one Fraction is built at the end.  The scan stops once
    the value reaches the weight of the question pairs that some answer
    pair wins, an exact upper bound.
    """
    s1_count, s2_count = t.strategy_counts()
    if s1_count * s2_count > budget:
        raise ResourceError(
            f"|S1|*|S2| = {s1_count * s2_count} exceeds budget {budget}"
        )
    table, x_range, y_range = t.table, range(t.nx), range(t.ny)
    weight, denom = cleared([[t.prob(x, y) for y in y_range] for x in x_range])
    # wins[q][p][a][b]: the weight won when the enumerated prover answers a
    # to its question p and the replying prover answers b to its question q.
    if s2_count < s1_count:
        own = t.y_answers
        wins = [[[[weight[x][y] * table[x][y][a][b] for a in range(t.x_answers[x])]
                  for b in range(t.y_answers[y])] for y in y_range] for x in x_range]
    else:
        own = t.x_answers
        wins = [[[[weight[x][y] * v for v in per_b] for per_b in table[x][y]]
                 for x in x_range] for y in y_range]
    bound = sum(weight[x][y] for x in x_range for y in y_range
                if any(map(any, table[x][y])))
    best = 0
    for answers in itertools.product(*map(range, own)):
        value = sum(max(map(sum, zip(*[w[a] for w, a in zip(per_q, answers)])))
                    for per_q in wins)
        best = max(best, value)
        if best == bound:
            break
    return Fraction(best, denom)


@dataclass(frozen=True)
class InducedGameResult:
    """The sub-distribution game read off a profile on the gadget game."""

    game: TwoProverGame
    s_x: ProverStrategy
    s_y: ProverStrategy
    x_marginal: Vector
    y_marginal: Vector


def _canonical_side(
    mass: list[list[Fraction]], payoff_of: list[list[Fraction]]
) -> tuple[list[list[Fraction]], list[int]]:
    """Shift each question's mass onto its weakly-best answer.

    ``mass[q][a]`` is the probability on (question q, answer a);
    ``payoff_of[q][a]`` is that pure strategy's expected payoff.  Ties go
    to the lowest answer index, and zero-mass questions get answer 0.
    """
    out: list[list[Fraction]] = []
    chosen: list[int] = []
    for q, per_answer in enumerate(mass):
        total = sum(per_answer, Fraction(0))
        row = [Fraction(0)] * len(per_answer)
        if total > 0:
            # Best only among the answers actually carrying probability;
            # ties go to the lowest answer index.
            candidates = [a for a, m in enumerate(per_answer) if m > 0]
            best = max(payoff_of[q][a] for a in candidates)
            a = next(a for a in candidates if payoff_of[q][a] == best)
            row[a] = total
        else:
            a = 0
        out.append(row)
        chosen.append(a)
    return out, chosen


def _by_question(flat: Vector, counts: tuple[int, ...]) -> list[list[Fraction]]:
    """Split a question-major flat vector into one list per question."""
    out, start = [], 0
    for count in counts:
        out.append(list(flat[start:start + count]))
        start += count
    return out


def induced_two_prover(
    f: TwoProverGame, game: BimatrixGame, p: MixedProfile
) -> InducedGameResult:
    """Build the induced sub-distribution game T_(x,y) from a gadget profile.

    The gadget game must carry an "RC" block whose rows enumerate (x, a)
    pairs in question-major order matching ``f.x_answers`` and whose
    columns enumerate (y, b) likewise.  The profile is first canonicalized
    so each question carries a single positive-probability answer (all of
    a question's mass moves to its weakly-best answer against the current
    opponent profile); the induced distribution is the outer product of
    the resulting question marginals.
    """
    if not f.is_free:
        raise ValidationError("induced game requires a free base game")
    name, r0, r1, c0, c1 = game.block("RC")
    if r1 - r0 != sum(f.x_answers) or c1 - c0 != sum(f.y_answers):
        raise ShapeError("RC block size does not match the free game")
    if len(p.x) != game.rows or len(p.y) != game.cols:
        raise ShapeError("profile does not match the gadget game")

    # Canonicalize rows against the original column profile, then columns
    # against the updated row profile.
    x_mass, sx = _canonical_side(
        _by_question(p.x[r0:r1], f.x_answers),
        _by_question(mat_vec(game.R[r0:r1], p.y), f.x_answers),
    )
    x_vec = p.x[:r0] + tuple(m for row in x_mass for m in row) + p.x[r1:]
    y_mass, sy = _canonical_side(
        _by_question(p.y[c0:c1], f.y_answers),
        _by_question(mat_vec(game.Ct[c0:c1], x_vec), f.y_answers),
    )

    x_marginal = tuple(sum(row, Fraction(0)) for row in x_mass)
    y_marginal = tuple(sum(row, Fraction(0)) for row in y_mass)
    dist = tuple(
        tuple(x_marginal[x] * y_marginal[y] for y in range(f.ny))
        for x in range(f.nx)
    )
    induced = TwoProverGame(
        x_answers=f.x_answers, y_answers=f.y_answers, table=f.table, dist=dist
    )
    return InducedGameResult(
        game=induced,
        s_x=ProverStrategy(answers=tuple(sx)),
        s_y=ProverStrategy(answers=tuple(sy)),
        x_marginal=x_marginal,
        y_marginal=y_marginal,
    )


def uniformity_gap(marginal: Vector, q: int) -> Fraction:
    """L1 distance between a (sub-)marginal and the uniform distribution."""
    if q < 1:
        raise ParameterError("question count must be at least 1")
    if len(marginal) != q:
        raise ShapeError(f"marginal has {len(marginal)} entries, expected {q}")
    u = Fraction(1, q)
    return sum((abs(frac(m) - u) for m in marginal), Fraction(0))
