"""Hardness-game construction: the four-block gadget, rescaling, the
completeness certificate, the decision-game extensions, and parameter
derivation.

The unscaled gadget game G has blocks

    RC   | D2      rows: (question, answer) pairs over X
    -----+----     then half-subset rows over Y
    D1   | ZERO    columns: (question, answer) pairs over Y,
                   then half-subset columns over X

RC replays the free game's verification payoffs (identical for both
players).  D1/D2 are zero-sum blocks indexed by functions selecting
exactly half of the opposite side's questions; they punish non-uniform
question marginals.  Every payoff is 0, 1, +D1 or -D1, with D1 < 4.  G_s
maps them into (0, 1), adding 4 and dividing by 8, and is laid out from
the four rescaled constants; `games.affine_rescale` is the generic
per-entry map that the tests compare G_s against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from .errors import (
    ParameterError,
    PreconditionError,
    ResourceError,
    ShapeError,
    ValidationError,
)
from .formats import format_rational
from .games import (
    BimatrixGame,
    MixedProfile,
    Rational,
    frac,
    regret_report,
)
from .provers import ProverStrategy, TwoProverGame, prover_payoff

G_CONSTANT = Fraction(1, 138)
RESCALE_SHIFT = Fraction(4)
RESCALE_DIVISOR = Fraction(8)

HALF_CAP_DEFAULT = 2**16
CELL_CAP = 2**22  # G's cells; a 10-variable, 12-clause formula's G has 692,040

Halves = list[tuple[int, ...]]  # 0/1 vectors, each selecting half the questions
Pair = tuple[Fraction, Fraction]  # (row player, column player) payoffs


@dataclass(frozen=True)
class ReductionParams:
    """The constants of the reduction, all derived from eps*.

    eps* = (1 - 4*g*delta*)/8 with g = 1/138 fixes delta*, and from it
    n* = 1/delta* and u = 10/8 - delta*/522.  ``delta``, the soundness gap
    a gadget game is built with, is delta*.  eps* must lie in
    [(1-4g)/8, 1/8), so that delta* lands in (0, 1].
    """

    eps_star: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_star", frac(self.eps_star))
        if not (0 < self.delta_star <= 1):
            raise ParameterError(
                f"eps_star={format_rational(self.eps_star)} gives "
                f"delta*={format_rational(self.delta_star)}, outside (0, 1]"
            )

    @property
    def g(self) -> Fraction:
        return G_CONSTANT

    @property
    def delta_star(self) -> Fraction:
        return (1 - 8 * self.eps_star) / (4 * G_CONSTANT)

    @property
    def delta(self) -> Fraction:
        return self.delta_star

    @property
    def n_star(self) -> Fraction:
        return 1 / self.delta_star

    @property
    def u_frak(self) -> Fraction:
        return Fraction(10, 8) - self.delta_star / 522

    @property
    def d1_payoff(self) -> Fraction:
        return Fraction(4) / (1 + 4 * G_CONSTANT * self.delta)


def derive_params(eps_star: Rational) -> ReductionParams:
    """The reduction's constants for eps* in [(1-4g)/8, 1/8)."""
    return ReductionParams(eps_star=eps_star)


def half_subsets(q: int, cap: int = HALF_CAP_DEFAULT) -> Halves:
    """All 0/1 vectors of length q with q/2 ones, descending lexicographic."""
    if q < 2 or q % 2 != 0:
        raise ParameterError(f"question count must be even and >= 2, got {q}")
    count = comb(q, q // 2)
    if count > cap:
        raise ResourceError(f"C({q},{q // 2}) = {count} exceeds cap {cap}")
    out = []
    for ones in itertools.combinations(range(q), q // 2):
        vec = [0] * q
        for i in ones:
            vec[i] = 1
        out.append(tuple(vec))
    return out


RowLabel = tuple  # ("qa", question, answer) or ("half", index)


@dataclass(frozen=True)
class GadgetGame:
    """The unscaled gadget game plus its index bookkeeping."""

    game: BimatrixGame
    row_index: tuple[RowLabel, ...]
    col_index: tuple[RowLabel, ...]
    params: ReductionParams
    free_game: TwoProverGame


def build_hardness_game(
    f: TwoProverGame,
    params: ReductionParams,
    half_cap: int = HALF_CAP_DEFAULT,
) -> GadgetGame:
    """Assemble the unscaled four-block gadget game from a free game.

    The half-subset blocks need an even number (at least 2) of questions
    on each side; `half_subsets` raises ``ParameterError`` otherwise.
    `build_clause_variable_free_game` always emits even sides.  A G of
    more than ``CELL_CAP`` cells raises ``ResourceError`` before it is built.
    """
    if not f.is_free:
        raise PreconditionError("the base game must be free (uniform product)")
    rows = sum(f.x_answers) + comb(f.ny, f.ny // 2)
    cols = sum(f.y_answers) + comb(f.nx, f.nx // 2)
    if rows * cols > CELL_CAP:
        raise ResourceError(f"G would be {rows}x{cols}, over {CELL_CAP} cells")

    halves_y = half_subsets(f.ny, cap=half_cap)
    halves_x = half_subsets(f.nx, cap=half_cap)
    row_index = [("qa", x, a) for x in range(f.nx) for a in range(f.x_answers[x])]
    col_index = [("qa", y, b) for y in range(f.ny) for b in range(f.y_answers[y])]
    return GadgetGame(
        game=_lay_out(f, halves_x, halves_y, params.d1_payoff, lambda v: v),
        row_index=tuple(row_index + [("half", i) for i in range(len(halves_y))]),
        col_index=tuple(col_index + [("half", i) for i in range(len(halves_x))]),
        params=params,
        free_game=f,
    )


def _lay_out(f: TwoProverGame, halves_x: Halves, halves_y: Halves,
             pay: Fraction, scale: Callable[[Fraction], Fraction]) -> BimatrixGame:
    """The blocks RC | D2 over D1 | ZERO, every entry one of the four shared
    objects scale(0), scale(1), scale(pay) and scale(-pay)."""
    zero, one, plus, minus = (scale(Fraction(v)) for v in (0, 1, pay, -pay))
    qa_cols = [(y, b) for y in range(f.ny) for b in range(f.y_answers[y])]
    r, c = [], []
    for x, per_y in enumerate(f.table):
        for a in range(f.x_answers[x]):
            rc = [one if per_y[y][a][b] else zero for y, b in qa_cols]
            # D2: half-subset columns over X; zero-sum, mirrored.
            r.append(rc + [minus if half[x] else zero for half in halves_x])
            c.append(rc + [plus if half[x] else zero for half in halves_x])
    rc_rows, rc_cols, cols = len(r), len(qa_cols), len(r[0])
    pad = [zero] * len(halves_x)
    for half in halves_y:
        # D1: half-subset rows over Y against (y, b) columns; zero-sum.
        r.append([plus if half[y] else zero for y, _ in qa_cols] + pad)
        c.append([minus if half[y] else zero for y, _ in qa_cols] + pad)
    blocks = (
        ("RC", 0, rc_rows, 0, rc_cols),
        ("D2", 0, rc_rows, rc_cols, cols),
        ("D1", rc_rows, len(r), 0, rc_cols),
        ("ZERO", rc_rows, len(r), rc_cols, cols),
    )
    return BimatrixGame(R=r, C=c, blocks=blocks)


def rescale_game(gg: GadgetGame) -> BimatrixGame:
    """Map the unscaled gadget game into (0, 1): add 4, divide by 8.

    Only `build_hardness_game` makes a `GadgetGame`, so every payoff is 0,
    1 or +-D1 with D1 < 4 (`ReductionParams` keeps delta* in (0, 1]), and
    the result equals ``affine_rescale(gg.game, 4, 8)``: it is laid out
    from the four constants, each mapped once.  ``gg.game`` holds the
    half subsets, so its sides bound their counts.
    """
    f, g = gg.free_game, gg.game
    return _lay_out(f, half_subsets(f.nx, cap=g.cols),
                    half_subsets(f.ny, cap=g.rows), gg.params.d1_payoff,
                    lambda v: (v + RESCALE_SHIFT) / RESCALE_DIVISOR)


def completeness_certificate(
    f: TwoProverGame,
    s1: ProverStrategy,
    s2: ProverStrategy,
    gg: GadgetGame,
) -> MixedProfile:
    """The profile spreading mass uniformly over the winning answers.

    Requires a value-1 strategy pair for the free game.  The result has
    mass 1/|X| on each row (x, s1(x)) and 1/|Y| on each column (y, s2(y)),
    and verifies as a (1 - 4*g*delta)-NE of the unscaled gadget game with
    social welfare exactly 2.
    """
    if gg.free_game.x_answers != f.x_answers or gg.free_game.y_answers != f.y_answers:
        raise ShapeError("free game does not match the gadget game")
    if prover_payoff(f, s1, s2) != 1:
        raise PreconditionError("strategies must win with probability 1")
    x = [Fraction(0)] * gg.game.rows
    y = [Fraction(0)] * gg.game.cols
    for i, label in enumerate(gg.row_index):
        if label[0] == "qa" and s1.answers[label[1]] == label[2]:
            x[i] = Fraction(1, f.nx)
    for j, label in enumerate(gg.col_index):
        if label[0] == "qa" and s2.answers[label[1]] == label[2]:
            y[j] = Fraction(1, f.ny)
    return MixedProfile(x=tuple(x), y=tuple(y))


def _append(game: BimatrixGame, col: Pair, row: Pair, corner: Pair,
            col_name: str, row_name: str) -> BimatrixGame:
    """Append one column and one row to ``game``: ``col`` pays against every
    old row, ``row`` against every old column.  A game without blocks gets
    one BASE block over its old entries."""
    rows, cols = game.rows, game.cols
    r = [[*old, col[0]] for old in game.R]
    c = [[*old, col[1]] for old in game.C]
    r.append([row[0]] * cols + [corner[0]])
    c.append([row[1]] * cols + [corner[1]])
    blocks = (game.blocks or (("BASE", 0, rows, 0, cols),)) + (
        (col_name, 0, rows, cols, cols + 1),
        (row_name, rows, rows + 1, 0, cols + 1),
    )
    return BimatrixGame(R=r, C=c, blocks=blocks)


def extend_gprime(gs: BimatrixGame, eps_star: Rational) -> BimatrixGame:
    """Append the threat row/column pair that caps welfare-poor equilibria.

    The new row pays its owner 5/8 + eps* against every old column (and
    the column player 0); symmetrically for the new column; the new corner
    is (1, 1) and is an exact pure equilibrium.
    """
    e = frac(eps_star)
    if not (0 < e < Fraction(1, 8)):
        raise ParameterError(
            f"eps_star must be in (0, 1/8), got {format_rational(e)}")
    # Each distinct entry object once, in the order of first appearance.
    distinct: dict[int, Fraction] = {}
    for row in (*gs.R, *gs.C):
        distinct.update(zip(map(id, row), row))
    for entry in distinct.values():
        if not (0 <= entry <= 1):
            raise ValidationError(f"payoff {format_rational(entry)} outside [0, 1]")
    threat, zero, one = Fraction(5, 8) + e, Fraction(0), Fraction(1)
    return _append(gs, (zero, threat), (threat, zero), (one, one),
                   "COL_J", "ROW_I")


def extend_gdoubleprime(gp: BimatrixGame) -> BimatrixGame:
    """Append the flat 5/8 row/column pair with a (0, 0) corner."""
    if not (gp.has_block("ROW_I") and gp.has_block("COL_J")):
        raise PreconditionError("input must come from extend_gprime")
    flat, zero = Fraction(5, 8), Fraction(0)
    return _append(gp, (flat, flat), (flat, flat), (zero, zero),
                   "COL_JP", "ROW_IP")


def extend_profile(p: MixedProfile, extra_rows: int, extra_cols: int) -> MixedProfile:
    """Pad a profile with zero-mass entries for appended rows/columns."""
    return MixedProfile(
        x=p.x + (Fraction(0),) * extra_rows,
        y=p.y + (Fraction(0),) * extra_cols,
    )


def gdoubleprime_wsne_witness(
    cert: MixedProfile, gdp: BimatrixGame
) -> MixedProfile:
    """The well-supported witness on the doubly extended game.

    Spreads the row mass uniformly over the certificate's support plus
    the flat extra row, and pads the certificate's column side with zeros.
    The support of x therefore has size |X| + 1.
    """
    extra_rows = gdp.rows - len(cert.x)
    extra_cols = gdp.cols - len(cert.y)
    if extra_rows != 2 or extra_cols != 2:
        raise ShapeError("witness expects the doubly extended game")
    supp = cert.support_x
    share = Fraction(1, len(supp) + 1)
    x = [Fraction(0)] * gdp.rows
    for i in supp:
        x[i] = share
    x[gdp.rows - 1] = share  # the flat extra row
    y = list(cert.y) + [Fraction(0)] * extra_cols
    return MixedProfile(x=tuple(x), y=tuple(y))


def check_certificate(
    gg: GadgetGame, gs: BimatrixGame, cert: MixedProfile
) -> tuple[bool, Fraction, bool, Fraction, bool]:
    """(unscaled ok, unscaled welfare, rescaled ok, rescaled welfare,
    rescaled eps*-WSNE) of the certificate on ``gg`` and on its rescaled
    game ``gs = rescale_game(gg)``, from one regret report per game."""
    eps_unscaled = 1 - 4 * gg.params.g * gg.params.delta
    unscaled = regret_report(gg.game, cert)
    scaled = regret_report(gs, cert)
    return (unscaled.within(eps_unscaled), unscaled.welfare,
            scaled.within(eps_unscaled / RESCALE_DIVISOR), scaled.welfare,
            scaled.within(gg.params.eps_star, pure=True))
