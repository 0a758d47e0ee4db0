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
question marginals.  Payoffs stay strictly inside (-4, 4) and are mapped
into (0, 1) by adding 4 and dividing by 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    ParameterError,
    PreconditionError,
    ResourceError,
    ShapeError,
    ValidationError,
)
from .games import (
    BimatrixGame,
    MixedProfile,
    Rational,
    affine_rescale,
    frac,
    regret_report,
)
from .provers import ProverStrategy, TwoProverGame, prover_payoff

G_CONSTANT = Fraction(1, 138)
RESCALE_SHIFT = Fraction(4)
RESCALE_DIVISOR = Fraction(8)

HALF_CAP_DEFAULT = 2**16


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
                f"eps_star={self.eps_star} gives delta*={self.delta_star}, "
                "outside (0, 1]"
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


def half_subsets(q: int, cap: int = HALF_CAP_DEFAULT) -> list[tuple[int, ...]]:
    """All 0/1 vectors of length q with exactly q/2 ones, lexicographic."""
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
    out.sort(reverse=True)  # lexicographic on the 0/1 strings, 1 before 0
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
    `build_clause_variable_free_game` always emits even sides.
    """
    if not f.is_free:
        raise PreconditionError("the base game must be free (uniform product)")

    row_index: list[RowLabel] = [
        ("qa", x, a) for x in range(f.nx) for a in range(f.x_answers[x])
    ]
    col_index: list[RowLabel] = [
        ("qa", y, b) for y in range(f.ny) for b in range(f.y_answers[y])
    ]
    halves_y = half_subsets(f.ny, cap=half_cap)
    halves_x = half_subsets(f.nx, cap=half_cap)
    rc_rows = len(row_index)
    rc_cols = len(col_index)
    row_index.extend(("half", i) for i in range(len(halves_y)))
    col_index.extend(("half", i) for i in range(len(halves_x)))
    rows = len(row_index)
    cols = len(col_index)

    pay = params.d1_payoff
    zero = Fraction(0)
    r = [[zero] * cols for _ in range(rows)]
    c = [[zero] * cols for _ in range(rows)]
    for i, (_, x, a) in enumerate(row_index[:rc_rows]):
        for j, (_, y, b) in enumerate(col_index[:rc_cols]):
            v = Fraction(f.table[x][y][a][b])
            r[i][j] = v
            c[i][j] = v
    # D1: half-subset rows over Y against (y, b) columns; zero-sum.
    for hi, half in enumerate(halves_y):
        i = rc_rows + hi
        for j, (_, y, b) in enumerate(col_index[:rc_cols]):
            if half[y]:
                r[i][j] = pay
                c[i][j] = -pay
    # D2: (x, a) rows against half-subset columns over X; zero-sum, mirrored.
    for hj, half in enumerate(halves_x):
        j = rc_cols + hj
        for i, (_, x, a) in enumerate(row_index[:rc_rows]):
            if half[x]:
                r[i][j] = -pay
                c[i][j] = pay

    blocks = (
        ("RC", 0, rc_rows, 0, rc_cols),
        ("D2", 0, rc_rows, rc_cols, cols),
        ("D1", rc_rows, rows, 0, rc_cols),
        ("ZERO", rc_rows, rows, rc_cols, cols),
    )
    game = BimatrixGame(R=r, C=c, blocks=blocks)
    return GadgetGame(
        game=game,
        row_index=tuple(row_index),
        col_index=tuple(col_index),
        params=params,
        free_game=f,
    )


def rescale_game(gg: GadgetGame) -> BimatrixGame:
    """Map the unscaled gadget game into (0, 1): add 4, divide by 8."""
    for m in (gg.game.R, gg.game.C):
        for row in m:
            for e in row:
                if not (-4 < e < 4):
                    raise ValidationError(f"payoff {e} outside (-4, 4)")
    return affine_rescale(gg.game, RESCALE_SHIFT, RESCALE_DIVISOR)


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


def extend_gprime(gs: BimatrixGame, eps_star: Rational) -> BimatrixGame:
    """Append the threat row/column pair that caps welfare-poor equilibria.

    The new row pays its owner 5/8 + eps* against every old column (and
    the column player 0); symmetrically for the new column; the new corner
    is (1, 1) and is an exact pure equilibrium.
    """
    e = frac(eps_star)
    if not (0 < e < Fraction(1, 8)):
        raise ParameterError(f"eps_star must be in (0, 1/8), got {e}")
    for m in (gs.R, gs.C):
        for row in m:
            for entry in row:
                if not (0 <= entry <= 1):
                    raise ValidationError(f"payoff {entry} outside [0, 1]")
    threat = Fraction(5, 8) + e
    zero = Fraction(0)
    r = [list(row) + [zero] for row in gs.R]
    c = [list(row) + [threat] for row in gs.C]
    r.append([threat] * gs.cols + [Fraction(1)])
    c.append([zero] * gs.cols + [Fraction(1)])
    base_blocks = gs.blocks or (("BASE", 0, gs.rows, 0, gs.cols),)
    blocks = base_blocks + (
        ("COL_J", 0, gs.rows, gs.cols, gs.cols + 1),
        ("ROW_I", gs.rows, gs.rows + 1, 0, gs.cols + 1),
    )
    return BimatrixGame(R=r, C=c, blocks=blocks)


def extend_gdoubleprime(gp: BimatrixGame) -> BimatrixGame:
    """Append the flat 5/8 row/column pair with a (0, 0) corner."""
    if not (gp.has_block("ROW_I") and gp.has_block("COL_J")):
        raise PreconditionError("input must come from extend_gprime")
    flat = Fraction(5, 8)
    zero = Fraction(0)
    r = [list(row) + [flat] for row in gp.R]
    c = [list(row) + [flat] for row in gp.C]
    r.append([flat] * gp.cols + [zero])
    c.append([flat] * gp.cols + [zero])
    blocks = (gp.blocks or ()) + (
        ("COL_JP", 0, gp.rows, gp.cols, gp.cols + 1),
        ("ROW_IP", gp.rows, gp.rows + 1, 0, gp.cols + 1),
    )
    return BimatrixGame(R=r, C=c, blocks=blocks)


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
