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
question marginals.  Every payoff is 0, 1, +D1 or -D1, with D1 < 4, so G
is laid out as code rows over a palette of four (R, C) pairs (see
`negadget.games`): RC's verdict bits are its codes.  No row or column
carries a label: RC's rows are the (x, a) pairs question-major, so row
(x, a) is offset[x] + a with offset the running sums of the X answer
counts, and likewise for its columns.  G_s maps the payoffs into (0, 1),
adding 4 and dividing by 8: it is `games.affine_rescale` of G, which
keeps G's code rows.  G' and G'' each append one code to every row, one
row and three palette pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .errors import (
    ParameterError,
    PreconditionError,
    ResourceError,
    ShapeError,
    ValidationError,
    count_text,
)
from .formats import format_rational
from .games import (
    BimatrixGame,
    MixedProfile,
    Pair,
    Rational,
    add_pair,
    affine_rescale,
    check_count,
    frac,
    regret_ints,
)
from .provers import ProverStrategy, TwoProverGame, prover_payoff

G_CONSTANT = Fraction(1, 138)
RESCALE_SHIFT = Fraction(4)
RESCALE_DIVISOR = Fraction(8)

HALF_CAP_DEFAULT = 2**16
CELL_CAP = 2**22  # G's cells; a 10-variable, 12-clause formula's G has 692,040

Halves = list[tuple[int, ...]]  # 0/1 vectors, each selecting half the questions


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
    check_count(cap, "cap")
    check_count(q, "q", 2)
    if q % 2:
        raise ParameterError(f"q must be even, got {q}")
    count = comb(q, q // 2)
    if count > cap:
        raise ResourceError(f"C({q},{q // 2}) = {count_text(count)} exceeds cap {cap}")
    out = []
    for ones in itertools.combinations(range(q), q // 2):
        vec = [0] * q
        for i in ones:
            vec[i] = 1
        out.append(tuple(vec))
    return out


@dataclass(frozen=True)
class GadgetGame:
    """The unscaled gadget game, the parameters and the free game it was
    built from; the free game's answer counts give each row its meaning."""

    game: BimatrixGame
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
    check_count(half_cap, "half_cap")
    if not f.is_free:
        raise PreconditionError("the base game must be free (uniform product)")
    rows = sum(f.x_answers) + comb(f.ny, f.ny // 2)
    cols = sum(f.y_answers) + comb(f.nx, f.nx // 2)
    if rows * cols > CELL_CAP:
        raise ResourceError(f"G would be {count_text(rows)}x{count_text(cols)}, "
                            f"over {CELL_CAP} cells")

    halves_y = half_subsets(f.ny, cap=half_cap)
    game = _lay_out(f, half_subsets(f.nx, cap=half_cap), halves_y, params.d1_payoff)
    return GadgetGame(game=game, params=params, free_game=f)


def _lay_out(f: TwoProverGame, halves_x: Halves, halves_y: Halves,
             pay: Fraction) -> BimatrixGame:
    """The blocks RC | D2 over D1 | ZERO as code rows over the palette
    (0, 0), (1, 1), (-pay, pay) and (pay, -pay), each entry one of four
    shared objects.  RC's rows are its verdict bits, read as codes 0 and 1;
    (1, 1) leaves the palette when no verdict is 1, so that every pair of
    the palette occurs in some cell."""
    zero, one, plus, minus = (Fraction(v) for v in (0, 1, pay, -pay))
    palette = [(zero, zero), (one, one), (minus, plus), (plus, minus)]
    if not any(1 in bits for per_y in f.table for per_a in per_y for bits in per_a):
        del palette[1]
    d2, d1 = chr(len(palette) - 2), chr(len(palette) - 1)
    r = []
    for x, per_y in enumerate(f.table):
        # D2: half-subset columns over X; zero-sum, mirrored.
        d2_x = "".join([d2 if half[x] else "\0" for half in halves_x])
        r += [b"".join(map(bytes, bits_by_y)).decode("latin-1") + d2_x
              for bits_by_y in zip(*per_y)]
    rc_rows, rc_cols = len(r), sum(f.y_answers)
    pad = "\0" * len(halves_x)
    for half in halves_y:
        # D1: half-subset rows over Y against (y, b) columns; zero-sum.
        r.append("".join([(d1 if half[y] else "\0") * n
                          for y, n in enumerate(f.y_answers)]) + pad)
    cols = len(r[0])
    blocks = (
        ("RC", 0, rc_rows, 0, rc_cols),
        ("D2", 0, rc_rows, rc_cols, cols),
        ("D1", rc_rows, len(r), 0, rc_cols),
        ("ZERO", rc_rows, len(r), rc_cols, cols),
    )
    return BimatrixGame.coded(tuple(palette), tuple(r), blocks)


def rescale_game(gg: GadgetGame) -> BimatrixGame:
    """Map the unscaled gadget game into (0, 1): add 4, divide by 8.

    Only `build_hardness_game` makes a `GadgetGame`, so every payoff is 0,
    1 or +-D1 with D1 < 4 (`ReductionParams` keeps delta* in (0, 1]).
    """
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
    # Question q's answers start at the running sum of the counts before q.
    x, y = ((tuple(map(add, itertools.accumulate(counts, initial=0), s.answers)),
             (1,) * n, n) for counts, s, n in ((f.x_answers, s1, f.nx),
                                               (f.y_answers, s2, f.ny)))
    return MixedProfile.of_sides(gg.game.rows, gg.game.cols, x, y)


def _append(game: BimatrixGame, col: Pair, row: Pair, corner: Pair,
            col_name: str, row_name: str) -> BimatrixGame:
    """Append one column and one row to ``game``: ``col`` pays against every
    old row, ``row`` against every old column.  Each pair takes one new
    code.  A game without blocks gets one BASE block over its old entries."""
    rows, cols = game.rows, game.cols
    palette = list(game.palette)
    col_code, row_code, corner_code = (add_pair(palette, p) for p in (col, row, corner))
    codes = [old + col_code for old in game.codes]
    codes.append(row_code * cols + corner_code)
    blocks = (game.blocks or (("BASE", 0, rows, 0, cols),)) + (
        (col_name, 0, rows, cols, cols + 1),
        (row_name, rows, rows + 1, 0, cols + 1),
    )
    return BimatrixGame.coded(tuple(palette), tuple(codes), blocks)


def extend_gprime(gs: BimatrixGame, eps_star: Rational) -> BimatrixGame:
    """Append the threat row/column pair that caps welfare-poor equilibria.

    The new row pays its owner 5/8 + eps* against every old column (and
    the column player 0); symmetrically for the new column; the new corner
    is (1, 1) and is an exact pure equilibrium.  The [0, 1] check of ``gs``
    reads its palette and names the first bad cell of R, else of C.
    """
    e = frac(eps_star)
    if not (0 < e < Fraction(1, 8)):
        raise ParameterError(
            f"eps_star must be in (0, 1/8), got {format_rational(e)}")
    for entries in (gs.r_entries, gs.c_entries):
        bad = {chr(i) for i, entry in enumerate(entries) if not 0 <= entry <= 1}
        if bad:
            code = next(code for row in gs.codes for code in row if code in bad)
            raise ValidationError(
                f"payoff {format_rational(entries[ord(code)])} outside [0, 1]")
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
    check_count(extra_rows, "extra_rows")
    check_count(extra_cols, "extra_cols")
    return MixedProfile.of_sides(p.rows + extra_rows, p.cols + extra_cols,
                                 p.sparse_x, p.sparse_y)


def gdoubleprime_wsne_witness(
    cert: MixedProfile, gdp: BimatrixGame
) -> MixedProfile:
    """The well-supported witness on the doubly extended game.

    Spreads the row mass uniformly over the certificate's support plus
    the flat extra row, and pads the certificate's column side with zeros.
    The support of x therefore has size |X| + 1.
    """
    if (gdp.rows - cert.rows, gdp.cols - cert.cols) != (2, 2):
        raise ShapeError("witness expects the doubly extended game")
    supp = cert.support_x + (gdp.rows - 1,)  # and the flat extra row
    return MixedProfile.of_sides(gdp.rows, gdp.cols, (supp, (1,) * len(supp), len(supp)),
                                 cert.sparse_y)


def check_certificate(
    gg: GadgetGame, gs: BimatrixGame, cert: MixedProfile
) -> tuple[bool, Fraction, bool, Fraction, bool]:
    """(unscaled ok, unscaled welfare, rescaled ok, rescaled welfare,
    rescaled eps*-WSNE) of the certificate on ``gg`` and on its rescaled
    game ``gs = rescale_game(gg)``, from one regret report per game."""
    eps_unscaled = 1 - 4 * gg.params.g * gg.params.delta
    unscaled = regret_ints(gg.game, cert)
    scaled = regret_ints(gs, cert)
    return (unscaled.within(eps_unscaled), unscaled.welfare,
            scaled.within(eps_unscaled / RESCALE_DIVISOR), scaled.welfare,
            scaled.within(gg.params.eps_star, pure=True))
