"""Bimatrix games, mixed profiles, and exact equilibrium verification.

All arithmetic is over `fractions.Fraction`; verification never touches
floating point.  Games are immutable; every operation returns new values.

Each game holds the column player's payoffs transposed (``Ct``), so both
players' sides are the same computation: R against y for the row player
and Ct against x for the column player, through the one kernel
``mat_vec``.  The kernel and ``dot`` read only the nonzero entries of a
mixed strategy, and the kernel computes each distinct row pattern on the
support once: rows that hold the same entry objects under the same weight
objects share one value.  So a report costs per distinct row pattern on
the support, not per cell, when a game is laid out from a few shared
entries (as the gadget games are) and a profile shares its weights.
Games and profiles keep the `Fraction` objects they are given.
``regret_report`` stays in `Fraction` arithmetic: it is the exact oracle
that the integer k-uniform scan of `negadget.search` is checked against.
Every integer kernel (that scan, the support LPs, the simplex and
`game_value`) leaves `Fraction` through one helper, ``cleared``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Iterable, Sequence, Union

from .errors import InvariantError, ParameterError, ShapeError, ValidationError

Rational = Union[Fraction, int, str]

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

# A block annotation: (name, row_start, row_end, col_start, col_end),
# half-open row/column ranges.
Block = tuple[str, int, int, int, int]


def frac(value: Rational) -> Fraction:
    """Coerce ints, strings ('3/4', '0.25'), and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def vector(entries: Iterable[Rational]) -> Vector:
    # tuple() of lists here and below: a tuple grown from a generator by
    # resizing is kept in CPython's free lists, which then fill up the heap.
    # Fractions are kept as given (not copied), so shared objects stay shared.
    return tuple([e if isinstance(e, Fraction) else Fraction(e) for e in entries])


def matrix(rows: Iterable[Iterable[Rational]]) -> Matrix:
    out = tuple([vector(r) for r in rows])
    if out and any(len(r) != len(out[0]) for r in out):
        raise ShapeError("ragged matrix")
    return out


def cleared(*matrices: Sequence[Sequence[Fraction]]) -> tuple:
    """(L*m1, L*m2, ..., L): each matrix as integer rows over one common
    denominator L, the least common multiple of every denominator in them.
    Entries are ints or Fractions."""
    scale = math.lcm(*[e.denominator for m in matrices for row in m for e in row])
    return (*[[[e.numerator * (scale // e.denominator) for e in row] for row in m]
              for m in matrices], scale)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """u . v, reading v only where u is nonzero."""
    if len(u) != len(v):
        raise ShapeError(f"dot: lengths {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v) if a), Fraction(0))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    """m @ v (one entry per row): the one matrix-vector kernel.  It reads
    only the nonzero entries of v, the support of a mixed strategy, and
    computes each distinct row pattern on the support once.

    The support's columns are grouped by weight object; a row's pattern is,
    for each group, the sorted ids of its entries in that group's columns.
    Rows of one pattern hold the same objects under the same weights, so
    they share one value: the sum over the groups of w times the sum of the
    group's entries.  Objects are compared, not values: one object has one
    value, and hashing a Fraction costs more than the products it saves.
    So the result is exact for any input; sharing decides only how often a
    value is computed.
    """
    if m and len(m[0]) != len(v):
        raise ShapeError(f"mat_vec: {len(m[0])} columns vs length {len(v)}")
    by_weight: dict[int, tuple[Fraction, list[int]]] = {}
    for j, e in enumerate(v):
        if e:
            by_weight.setdefault(id(e), (e, []))[1].append(j)
    # Each getter returns a tuple of a row's entries in one group's columns
    # (a one-column group takes a slice: itemgetter(j) returns the entry).
    groups = [(w, itemgetter(*cols) if len(cols) > 1
               else itemgetter(slice(cols[0], cols[0] + 1)))
              for w, cols in by_weight.values()]
    # An empty support has one pattern, (), whose value is 0.
    values: dict[tuple, Fraction] = {(): Fraction(0)}
    out = []
    for row in m:
        key = tuple([tuple(sorted(map(id, get(row)))) for _, get in groups])
        value = values.get(key)
        if value is None:
            value = values[key] = reduce(
                add, [w * reduce(add, get(row)) for w, get in groups])
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class BimatrixGame:
    """A bimatrix game (R, C) with optional named block structure.

    ``blocks`` is a tuple of (name, r0, r1, c0, c1) annotations with
    half-open ranges; when present they must partition the full index
    rectangle exactly.
    """

    R: Matrix
    C: Matrix
    blocks: tuple[Block, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "R", matrix(self.R))
        object.__setattr__(self, "C", matrix(self.C))
        if not self.R or not self.R[0]:
            raise ShapeError("game must be at least 1x1")
        if len(self.R) != len(self.C) or len(self.R[0]) != len(self.C[0]):
            raise ShapeError(
                f"R is {len(self.R)}x{len(self.R[0])} but "
                f"C is {len(self.C)}x{len(self.C[0])}"
            )
        if self.blocks is not None:
            object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
            self._check_blocks()

    def _check_blocks(self) -> None:
        rows, cols = self.rows, self.cols
        area = 0
        seen: list[Block] = []
        for name, r0, r1, c0, c1 in self.blocks or ():
            if not (0 <= r0 < r1 <= rows and 0 <= c0 < c1 <= cols):
                raise ValidationError(f"block {name!r} out of range")
            for _, p0, p1, q0, q1 in seen:
                if r0 < p1 and p0 < r1 and c0 < q1 and q0 < c1:
                    raise ValidationError(f"block {name!r} overlaps another block")
            seen.append(("", r0, r1, c0, c1))
            area += (r1 - r0) * (c1 - c0)
        if area != rows * cols:
            raise ValidationError("blocks do not partition the payoff matrix")

    @cached_property
    def Ct(self) -> Matrix:
        """C transposed, built once: Ct @ x is each column's payoff."""
        return tuple(list(zip(*self.C)))

    @property
    def rows(self) -> int:
        return len(self.R)

    @property
    def cols(self) -> int:
        return len(self.R[0])

    def block(self, name: str) -> Block:
        for b in self.blocks or ():
            if b[0] == name:
                return b
        raise ValidationError(f"no block named {name!r}")

    def has_block(self, name: str) -> bool:
        return any(b[0] == name for b in self.blocks or ())


@dataclass(frozen=True)
class MixedProfile:
    """A pair of exact probability vectors (row player x, column player y)."""

    x: Vector
    y: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", vector(self.x))
        object.__setattr__(self, "y", vector(self.y))
        for name, v in (("x", self.x), ("y", self.y)):
            if not v:
                raise ShapeError(f"{name} is empty")
            # Each distinct object is checked once, since a profile of a wide
            # game holds a few shared weights: the sum is count * w over the
            # distinct objects (in first-seen order, as the counts are),
            # cleared to integers.
            objects = dict(zip(map(id, v), v))
            if any(e.numerator < 0 for e in objects.values()):
                raise ValidationError(f"{name} has a negative entry")
            (weights,), scale = cleared([objects.values()])
            if sum(map(mul, Counter(map(id, v)).values(), weights)) != scale:
                raise ValidationError(f"{name} does not sum to 1")

    @property
    def support_x(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.x) if e > 0)

    @property
    def support_y(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.y) if e > 0)


@dataclass(frozen=True)
class RegretReport:
    """Exact regrets, payoffs, and welfare of one profile in one game."""

    row_regret: Fraction
    col_regret: Fraction
    row_pure_regret: Fraction
    col_pure_regret: Fraction
    row_payoff: Fraction
    col_payoff: Fraction
    welfare: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.row_regret <= self.row_pure_regret):
            raise InvariantError("row regret exceeds pure row regret")
        if not (0 <= self.col_regret <= self.col_pure_regret):
            raise InvariantError("col regret exceeds pure col regret")
        if self.welfare != self.row_payoff + self.col_payoff:
            raise InvariantError("welfare != sum of payoffs")

    def within(self, eps: Fraction, pure: bool = False) -> bool:
        """Both regrets (pure-strategy regrets if ``pure``) are at most eps."""
        if pure:
            return self.row_pure_regret <= eps and self.col_pure_regret <= eps
        return self.row_regret <= eps and self.col_regret <= eps


def _check_shapes(game: BimatrixGame, p: MixedProfile) -> None:
    if len(p.x) != game.rows or len(p.y) != game.cols:
        raise ShapeError(
            f"profile is {len(p.x)}/{len(p.y)} but game is "
            f"{game.rows}x{game.cols}"
        )


def _side(
    payoff: Matrix, own: Vector, opp: Vector
) -> tuple[Fraction, Fraction, Fraction]:
    """(payoff, best pure payoff, worst payoff on the support) of the
    player with payoff matrix ``payoff`` and strategy ``own`` against
    ``opp``: (R, x, y) for the row player, (Ct, y, x) for the column."""
    vals = mat_vec(payoff, opp)
    # Rows of one pattern share one object (see mat_vec): compare it once.
    best = max({id(v): v for v in vals}.values())
    worst = min({id(v): v for v, e in zip(vals, own) if e}.values())
    return dot(own, vals), best, worst


def regret_report(game: BimatrixGame, p: MixedProfile) -> RegretReport:
    """Compute exact regrets and payoffs for a profile.

    Regret is the best-response payoff minus the realized payoff; the
    pure-strategy regret replaces the realized payoff by the worst payoff
    among pure strategies actually in the support.
    """
    _check_shapes(game, p)
    row_payoff, row_best, row_supp_min = _side(game.R, p.x, p.y)
    col_payoff, col_best, col_supp_min = _side(game.Ct, p.y, p.x)
    return RegretReport(
        row_regret=row_best - row_payoff,
        col_regret=col_best - col_payoff,
        row_pure_regret=row_best - row_supp_min,
        col_pure_regret=col_best - col_supp_min,
        row_payoff=row_payoff,
        col_payoff=col_payoff,
        welfare=row_payoff + col_payoff,
    )


def is_eps_ne(game: BimatrixGame, p: MixedProfile, eps: Rational) -> bool:
    """True iff both players' regrets are at most eps (exact comparison)."""
    return regret_report(game, p).within(frac(eps))


def is_eps_wsne(game: BimatrixGame, p: MixedProfile, eps: Rational) -> bool:
    """True iff both players' pure-strategy regrets are at most eps."""
    return regret_report(game, p).within(frac(eps), pure=True)


def social_welfare(game: BimatrixGame, p: MixedProfile) -> Fraction:
    """x'Ry + x'Cy, exactly."""
    _check_shapes(game, p)
    return dot(p.x, mat_vec(game.R, p.y)) + dot(p.x, mat_vec(game.C, p.y))


def tv_distance(p1: MixedProfile, p2: MixedProfile) -> Fraction:
    """Maximum coordinatewise probability difference over both vectors."""
    if len(p1.x) != len(p2.x) or len(p1.y) != len(p2.y):
        raise ShapeError("profiles have different shapes")
    return max(
        max(abs(a - b) for a, b in zip(p1.x, p2.x)),
        max(abs(a - b) for a, b in zip(p1.y, p2.y)),
    )


def affine_rescale(
    game: BimatrixGame, shift: Rational, divisor: Rational
) -> BimatrixGame:
    """Map every payoff e to (e + shift)/divisor, keeping block annotations."""
    s, d = frac(shift), frac(divisor)
    if d <= 0:
        raise ParameterError("divisor must be positive")
    return BimatrixGame(
        R=[[(e + s) / d for e in row] for row in game.R],
        C=[[(e + s) / d for e in row] for row in game.C],
        blocks=game.blocks,
    )


def pure_profile(game: BimatrixGame, i: int, j: int) -> MixedProfile:
    """The profile placing all mass on row i and column j."""
    if not (0 <= i < game.rows and 0 <= j < game.cols):
        raise ShapeError(f"pure profile ({i},{j}) out of range")
    x = tuple(Fraction(int(t == i)) for t in range(game.rows))
    y = tuple(Fraction(int(t == j)) for t in range(game.cols))
    return MixedProfile(x=x, y=y)
