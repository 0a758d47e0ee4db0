"""Two-prover cooperative games, deterministic strategies, and game value.

A game is a tuple (X, Y, A, B, D, V): Arthur draws a question pair from D,
each Merlin answers from a per-question answer set, and V awards payoff 0
or 1.  D may be a sub-distribution; the missing mass pays 0.  A free game
has the uniform product distribution over X x Y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ResourceError,
    ShapeError,
    ValidationError,
    count_text,
)
from .games import (BimatrixGame, Matrix, MixedProfile, Sparse, Vector, check_count,
                     cleared, frac, int_readers, vector, weighted_lines)

# V is stored as a nested tuple: V[x][y][a][b] in {0, 1}.
VTable = tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]

VALUE_BUDGET_DEFAULT = 2**24


@dataclass(frozen=True)
class TwoProverGame:
    """Question sets are implicit ranges; answer sets are per-question counts.

    ``x_answers[i]`` is the number of legal answers for question i on the
    X side (likewise ``y_answers``).  ``dist`` of None means the uniform
    product distribution (a free game); otherwise it is an |X| x |Y| matrix
    of nonnegative rationals summing to at most 1.  ``weights`` holds the
    distribution cleared, out of ``==``, ``hash`` and ``repr``: (W, L) with
    D[x][y] = W[x][y] / L, every weight 1 over L = |X|*|Y| for a free game.
    """

    x_answers: tuple[int, ...]
    y_answers: tuple[int, ...]
    table: VTable
    dist: Matrix | None = None
    weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.x_answers or not self.y_answers:
            raise ShapeError("question sets must be nonempty")
        counts = self.x_answers + self.y_answers
        if any(type(a) is not int for a in counts):  # 2.0 and True pass below
            raise ValidationError("every answer count must be an int")
        if any(a < 1 for a in counts):
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
                    try:  # in C: bytes() refuses Fraction(1), 1.0 and -1
                        bad = bytes(per_b).translate(None, b"\0\1")
                    except (TypeError, ValueError):
                        bad = True
                    if bad:
                        raise ValidationError("V entries must be 0 or 1")
        if self.dist is None:
            weights = ((1,) * self.ny,) * self.nx, self.nx * self.ny
        else:
            # Exact Fractions, so `cleared` can read every denominator.
            d = tuple([vector(row) for row in self.dist])
            object.__setattr__(self, "dist", d)
            if len(d) != self.nx or any(len(row) != self.ny for row in d):
                raise ShapeError("distribution has wrong shape")
            ints, scale = weights = cleared(d)
            if min(map(min, ints)) < 0:
                raise ValidationError("distribution entries must be >= 0")
            if sum(map(sum, ints)) > scale:
                raise ValidationError("distribution mass exceeds 1")
        object.__setattr__(self, "weights", weights)

    @property
    def nx(self) -> int:
        return len(self.x_answers)

    @property
    def ny(self) -> int:
        return len(self.y_answers)

    @property
    def is_free(self) -> bool:
        return self.dist is None

    def strategy_counts(self) -> tuple[int, int]:
        """(|S1|, |S2|): number of deterministic strategies per prover."""
        return math.prod(self.x_answers), math.prod(self.y_answers)


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
        if type(a) is not int or not 0 <= a < size:  # 0.0 and True index V too
            raise ValidationError(f"{side} strategy answer {a} at question {q}")


def prover_payoff(
    t: TwoProverGame, s1: ProverStrategy, s2: ProverStrategy
) -> Fraction:
    """Exact expected payoff E_{(x,y)~D}[V(x, y, s1(x), s2(y))]."""
    _check_strategy(s1, t.x_answers, "X")
    _check_strategy(s2, t.y_answers, "Y")
    weight, denom = t.weights
    won = sum(weight[x][y] for x, a in enumerate(s1.answers)
              for y, b in enumerate(s2.answers) if t.table[x][y][a][b])
    return Fraction(won, denom)


def game_value(t: TwoProverGame, budget: int = VALUE_BUDGET_DEFAULT) -> Fraction:
    """Exact maximum payoff over deterministic strategy pairs.

    Given one prover's strategy, the other prover's best reply decomposes
    per question, so only the side with fewer strategies is enumerated.
    The budget contracts on the full pair count |S1| x |S2| and is checked
    before anything is built.

    The sums are integers: each question pair weighs its cleared
    probability from ``t.weights``; one Fraction is built at the end.  The
    scan stops once the value reaches the weight of the question pairs that
    some answer pair wins, an exact upper bound.
    """
    check_count(budget, "budget")
    s1_count, s2_count = t.strategy_counts()
    if s1_count * s2_count > budget:
        raise ResourceError(
            f"|S1|*|S2| = {count_text(s1_count * s2_count)} exceeds budget {budget}"
        )
    table, x_range, y_range = t.table, range(t.nx), range(t.ny)
    weight, denom = t.weights
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
    sparse: Sparse, pays: list[int], counts: tuple[int, ...], start: int
) -> tuple[list[int], list[int]]:
    """(each question's mass over the side's M, its chosen answer) of one
    cleared profile side ``sparse``, whose question q holds ``counts[q]``
    answer lines from ``start + sum(counts[:q])`` on.  A question's mass
    moves to its weakly-best answer against the integer ``pays`` among the
    answers that carry mass, the lowest index on ties; a question with no
    mass keeps answer 0."""
    weight = dict(zip(*sparse[:2]))
    masses, chosen = [], []
    for count in counts:
        held = [t for t in range(start, start + count) if t in weight]
        masses.append(sum(map(weight.__getitem__, held)))
        chosen.append(max(held, key=pays.__getitem__, default=start) - start)
        start += count
    return masses, chosen


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
    the resulting question marginals.  The canonicalization runs on the
    profile's cleared integer sides and integer payoff lines; the only
    Fractions are the marginals and their outer product.
    """
    if not f.is_free:
        raise ValidationError("induced game requires a free base game")
    name, r0, r1, c0, c1 = game.block("RC")
    if r1 - r0 != sum(f.x_answers) or c1 - c0 != sum(f.y_answers):
        raise ShapeError("RC block size does not match the free game")
    if p.rows != game.rows or p.cols != game.cols:
        raise ShapeError("profile does not match the gadget game")

    # Canonicalize rows against the original column profile, then columns
    # against x', x with each question's mass on its chosen answer.
    c_row, r_col, _ = int_readers(game)
    x_mass, sx = _canonical_side(p.sparse_x, weighted_lines(r_col, p.sparse_y),
                                 f.x_answers, r0)
    support, weights, mx = p.sparse_x
    moved = {t: w for t, w in zip(support, weights) if not r0 <= t < r1}
    offsets = itertools.accumulate(f.x_answers, initial=r0)
    moved.update((o + a, m) for o, a, m in zip(offsets, sx, x_mass) if m)
    x_moved = (tuple(moved), tuple(moved.values()), mx)
    y_mass, sy = _canonical_side(p.sparse_y, weighted_lines(c_row, x_moved),
                                 f.y_answers, c0)

    x_marginal = tuple([Fraction(m, mx) for m in x_mass])
    y_marginal = tuple([Fraction(m, p.sparse_y[2]) for m in y_mass])
    dist = tuple([tuple([a * b for b in y_marginal]) for a in x_marginal])
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
    check_count(q, "q", 1)
    if len(marginal) != q:
        raise ShapeError(f"marginal has {len(marginal)} entries, expected {q}")
    u = Fraction(1, q)
    return sum((abs(frac(m) - u) for m in marginal), Fraction(0))
