"""Independent oracles that only the tests use: the `bgm 1` reader that
parses line by line and the `bgm 2` writer that formats cell by cell, C's
transpose, the dot product, the matrix-vector product, its cleared integer
lines, the regret report (its seven `Fraction`s and their eps test) and
rescaling computed cell by cell, profile distance and supports entry by
entry, the gadget's certificate placed by
row and column labels, the induced two-prover game on Fraction rows per
question, the integer lines of a game cleared in full, the integer
k-uniform scan candidate by candidate, a multiset's rank one binomial per
member, every support pair sorted
into the support walk's order, a support side's LP always solved by the
simplex, exact Gaussian elimination, the simplex on the full tableau, the
exact equilibria of games up to 5x5, the grid eps-NE sweep, and the
clause/variable free game and MAX-3SAT checked literal by literal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, Sequence

from negadget.errors import FormatError, ResourceError, ShapeError, ValidationError
from negadget.formats import format_rational
from negadget.games import (
    BimatrixGame,
    Matrix,
    MixedProfile,
    Rational,
    Sparse,
    Vector,
    cleared,
    frac,
    int_lines,
    parse_rational,
    regret_report,
    side_vector,
)
from negadget.gadget import GadgetGame
from negadget.linsolve import simplex_maximize
from negadget.provers import InducedGameResult, ProverStrategy, TwoProverGame
from negadget.sat import Cnf3Formula, FreeGameBuild
from negadget.search import (
    Multiset,
    _integer_scan,
    _scan_witness,
    k_uniform_strategies,
)


def parse_bgm_per_line(text: str) -> BimatrixGame:
    """`formats.parse_bgm` on a `bgm 1` text, with one pass per entry line,
    each line split and placed cell by cell: the reference for its
    line-memoised reader.  Each distinct token is parsed once, so equal
    entries share one Fraction."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "bgm 1":
        raise FormatError("missing 'bgm 1' header")
    body = [l for l in lines[1:] if not l.startswith("#")]
    block_lines = [l for l in lines[1:] if l.split()[0] == "#block"]
    try:
        rows, cols = (int(t) for t in body[0].split())
    except (IndexError, ValueError) as exc:
        raise FormatError("bad dimension line") from exc
    if rows < 1 or cols < 1:
        raise FormatError(f"dimensions must be positive, got {rows} {cols}")
    if len(body) != 1 + rows * cols:
        raise FormatError(
            f"expected {rows * cols} entry lines, found {len(body) - 1}"
        )
    r = [[Fraction(0)] * cols for _ in range(rows)]
    c = [[Fraction(0)] * cols for _ in range(rows)]
    values: dict[str, Fraction] = {}
    for idx, line in enumerate(body[1:]):
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"entry line {line!r} needs two rationals")
        for tok in toks:
            if tok not in values:
                values[tok] = parse_rational(tok)
        i, j = divmod(idx, cols)
        r[i][j] = values[toks[0]]
        c[i][j] = values[toks[1]]
    blocks = None
    if block_lines:
        parsed = []
        for line in block_lines:
            toks = line.split()
            if len(toks) != 6:
                raise FormatError(f"bad block line {line!r}")
            try:
                parsed.append((toks[1], *(int(t) for t in toks[2:])))
            except ValueError as exc:
                raise FormatError(f"bad block bounds in {line!r}") from exc
        blocks = tuple(parsed)
    try:
        return BimatrixGame(
            R=tuple(map(tuple, r)), C=tuple(map(tuple, c)), blocks=blocks
        )
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def write_bgm_per_cell(game: BimatrixGame) -> str:
    """`formats.write_bgm` as plain loops over the R and C views: each cell's
    pair printed, the distinct printed pairs sorted and numbered, and each
    cell written as its number's w base-93 digits over the printable ASCII
    characters but "#", w the least with 93**w at least the pair count.
    The reference for the palette writer."""
    printed = [[f"{format_rational(r)} {format_rational(c)}"
                for r, c in zip(r_row, c_row)] for r_row, c_row in zip(game.R, game.C)]
    lines = sorted({pair for row in printed for pair in row})
    number = {pair: i for i, pair in enumerate(lines)}
    digits = [chr(i) for i in range(33, 127) if chr(i) != "#"]
    width = 1
    while 93 ** width < len(lines):
        width += 1

    def code(n: int) -> str:
        out = ""
        for _ in range(width):
            n, d = divmod(n, 93)
            out = digits[d] + out
        return out

    out = ["bgm 2", f"{game.rows} {game.cols}", str(len(lines)), *lines]
    out += ["".join(code(number[pair]) for pair in row) for row in printed]
    out += [f"#block {name} {r0} {r1} {c0} {c1}"
            for name, r0, r1, c0, c1 in game.blocks or ()]
    return "\n".join(out) + "\n"


def c_transposed(game: BimatrixGame) -> Matrix:
    """C's columns as rows, read from the C view: the column player's payoff
    lines, one per column."""
    return tuple(zip(*game.C))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """u . v, one product per entry."""
    if len(u) != len(v):
        raise ShapeError(f"dot: lengths {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec_per_cell(m: Matrix, v: Sequence[Fraction]) -> Vector:
    """m @ v with one product and one sum per row and support cell."""
    support = [(j, e) for j, e in enumerate(v) if e]
    return tuple([sum((row[j] * e for j, e in support), Fraction(0)) for row in m])


def weighted_lines_per_cell(game: BimatrixGame,
                            p: MixedProfile) -> tuple[list, list]:
    """(L*M_y*(R @ y), L*M_x*(C' @ x)) from `mat_vec_per_cell`, with L the
    LCM of every cell's denominator and M a side's LCM: the reference for
    `games.weighted_lines` on a profile's two sides."""
    scale = math.lcm(*[e.denominator for m in (game.R, game.C) for row in m
                       for e in row])
    my, mx = (math.lcm(*[e.denominator for e in v]) for v in (p.y, p.x))
    return ([v * scale * my for v in mat_vec_per_cell(game.R, p.y)],
            [v * scale * mx for v in mat_vec_per_cell(c_transposed(game), p.x)])


@dataclass(frozen=True)
class FractionReport:
    """The seven `Fraction` views of a `games.RegretReport`, and the
    `Fraction` eps test that its integer ``within`` is checked against."""

    row_regret: Fraction
    col_regret: Fraction
    row_pure_regret: Fraction
    col_pure_regret: Fraction
    row_payoff: Fraction
    col_payoff: Fraction
    welfare: Fraction

    @classmethod
    def of(cls, report) -> FractionReport:
        """The views that ``report`` (a `games.RegretReport`) gives."""
        return cls(*[getattr(report, f.name) for f in fields(cls)])

    def within(self, eps: Fraction, pure: bool = False, strict: bool = False) -> bool:
        """Both regrets (the pure regrets if ``pure``) are at most eps, or
        below it if ``strict``."""
        worst = (max(self.row_pure_regret, self.col_pure_regret) if pure
                 else max(self.row_regret, self.col_regret))
        return worst < eps if strict else worst <= eps


def regret_report_per_cell(game: BimatrixGame, p: MixedProfile) -> FractionReport:
    """`games.regret_report`'s views recomputed from `mat_vec_per_cell`,
    taking the best and the worst-on-support payoff over every entry."""
    views = {}
    for side, payoff, own, opp in (("row", game.R, p.x, p.y),
                                   ("col", c_transposed(game), p.y, p.x)):
        vals = mat_vec_per_cell(payoff, opp)
        pay = sum((a * b for a, b in zip(own, vals)), Fraction(0))
        best = max(vals)
        views[f"{side}_payoff"] = pay
        views[f"{side}_regret"] = best - pay
        views[f"{side}_pure_regret"] = best - min(
            v for v, e in zip(vals, own) if e > 0)
    return FractionReport(welfare=views["row_payoff"] + views["col_payoff"], **views)


def affine_rescale_per_cell(game: BimatrixGame, shift: Rational,
                            divisor: Rational) -> BimatrixGame:
    """`games.affine_rescale` as (e + shift)/divisor of every cell of the R
    and C views, one new Fraction per cell."""
    s, d = frac(shift), frac(divisor)
    return BimatrixGame(R=[[(e + s) / d for e in row] for row in game.R],
                        C=[[(e + s) / d for e in row] for row in game.C],
                        blocks=game.blocks)


def tv_distance_per_entry(p1: MixedProfile, p2: MixedProfile) -> Fraction:
    """The largest |a - b| over every coordinate of both vectors: the
    reference for `games.tv_distance`."""
    return max(abs(a - b) for a, b in zip(p1.x + p1.y, p2.x + p2.y))


def support_per_entry(v: Vector) -> tuple[int, ...]:
    """The indices of v's entries greater than 0: the reference for
    `MixedProfile.support_x` and ``support_y``."""
    return tuple(i for i, e in enumerate(v) if e > 0)


def question_of(counts: Sequence[int], index: int) -> int:
    """The question of position ``index`` in a question-major list of
    (question, answer) pairs with ``counts[q]`` answers for question q, as
    the gadget's RC rows (X answer counts) and columns (Y answer counts)."""
    offset = 0
    for q, count in enumerate(counts):
        offset += count
        if index < offset:
            return q
    raise IndexError(f"position {index} is past the {offset} answers")


def completeness_certificate_per_label(
    f: TwoProverGame, s1: ProverStrategy, s2: ProverStrategy, gg: GadgetGame
) -> MixedProfile:
    """`gadget.completeness_certificate` by labels: each row and column of G
    is labelled ("qa", question, answer) in question-major order, then
    ("half", i), and the labels of the winning answers get 1/|X| or 1/|Y|."""
    def labels(counts: Sequence[int], size: int) -> list[tuple]:
        qa = [("qa", q, a) for q, count in enumerate(counts) for a in range(count)]
        return qa + [("half", i) for i in range(size - len(qa))]

    x = [Fraction(int(label[0] == "qa" and s1.answers[label[1]] == label[2]), f.nx)
         for label in labels(f.x_answers, gg.game.rows)]
    y = [Fraction(int(label[0] == "qa" and s2.answers[label[1]] == label[2]), f.ny)
         for label in labels(f.y_answers, gg.game.cols)]
    return MixedProfile(x=tuple(x), y=tuple(y))


def induced_two_prover_reference(
    f: TwoProverGame, game: BimatrixGame, p: MixedProfile
) -> InducedGameResult:
    """`provers.induced_two_prover` on Fraction rows per question, with the
    payoffs from `mat_vec_per_cell`: the rows move against y, then the
    columns against the Fraction vector x' of the moved rows."""
    _, r0, r1, c0, c1 = game.block("RC")
    x_rows, sx = _canonical_per_question(
        p.x[r0:r1], mat_vec_per_cell(game.R, p.y)[r0:r1], f.x_answers)
    x_moved = p.x[:r0] + tuple(m for row in x_rows for m in row) + p.x[r1:]
    y_rows, sy = _canonical_per_question(
        p.y[c0:c1], mat_vec_per_cell(c_transposed(game), x_moved)[c0:c1],
        f.y_answers)
    x_marginal = tuple(sum(row, Fraction(0)) for row in x_rows)
    y_marginal = tuple(sum(row, Fraction(0)) for row in y_rows)
    dist = tuple(tuple(a * b for b in y_marginal) for a in x_marginal)
    return InducedGameResult(
        game=TwoProverGame(x_answers=f.x_answers, y_answers=f.y_answers,
                           table=f.table, dist=dist),
        s_x=ProverStrategy(answers=tuple(sx)), s_y=ProverStrategy(answers=tuple(sy)),
        x_marginal=x_marginal, y_marginal=y_marginal)


def _canonical_per_question(
    mass: Vector, pays: Vector, counts: Sequence[int]
) -> tuple[list[list[Fraction]], list[int]]:
    """One Fraction row per question, its whole mass on the weakly-best
    answer that carries mass (the lowest index on ties), and the chosen
    answers; a question without mass keeps an all-zero row and answer 0."""
    rows, chosen, start = [], [], 0
    for count in counts:
        per_answer = list(mass[start:start + count])
        per_pay = pays[start:start + count]
        start += count
        total = sum(per_answer, Fraction(0))
        row = [Fraction(0)] * count
        a = 0
        if total > 0:
            candidates = [b for b, m in enumerate(per_answer) if m > 0]
            best = max(per_pay[b] for b in candidates)
            a = next(b for b in candidates if per_pay[b] == best)
            row[a] = total
        rows.append(row)
        chosen.append(a)
    return rows, chosen


def int_lines_per_cell(game: BimatrixGame) -> tuple[list, list, int]:
    """(C's rows, R's columns, L), every line of ``games.cleared(R, C')``:
    the full-matrix reference for the lines `games.int_lines` builds on
    demand."""
    r_int, ct_int, scale = cleared(game.R, c_transposed(game))
    return [list(row) for row in zip(*ct_int)], [list(col) for col in zip(*r_int)], scale


def integer_scan_per_candidate(
    eps: Fraction, k: int, budget: float,
    r_int: list[list[int]], ct_int: list[list[int]], scale: int,
) -> Iterator[tuple[int, Sparse, Sparse, int, int]]:
    """`search._integer_scan`'s hits, found by testing every candidate (x, y)
    in index order, both sides in full: the reference for its pruned y loop.
    A hit's multisets are given as sides (members, multiplicities, k),
    counted member by member.
    """
    if budget < 1:
        return
    slack = eps.numerator * k * k * scale // eps.denominator
    fresh_ys = itertools.combinations_with_replacement(range(len(ct_int)), k)
    # (y's multiset, k*L*(R @ y), the least row payoff that passes)
    seen_ys: list[tuple[Multiset, list[int], int]] = []

    def each_y() -> Iterator[tuple[Multiset, list[int], int]]:
        yield from seen_ys
        for yc in fresh_ys:
            row_vals = [sum(row[j] for j in yc) for row in r_int]
            seen_ys.append((yc, row_vals, k * max(row_vals) - slack))
            yield seen_ys[-1]

    index = 0
    for xc in itertools.combinations_with_replacement(range(len(r_int)), k):
        col_vals = [sum(col[i] for i in xc) for col in ct_int]
        col_least = k * max(col_vals) - slack
        for yc, row_vals, row_least in each_y():
            if ((row_pay := sum(row_vals[i] for i in xc)) >= row_least
                    and (col_pay := sum(col_vals[j] for j in yc)) >= col_least):
                yield index, multiset_side_per_member(xc), multiset_side_per_member(yc), row_pay, col_pay
            index += 1
            if index >= budget:
                return


def multiset_side_per_member(c: Multiset) -> Sparse:
    """The side (members, multiplicities, k) of the sorted multiset ``c``."""
    members = sorted(set(c))
    return tuple(members), tuple(c.count(t) for t in members), len(c)


def multiset_rank_reference(c: Multiset, m: int) -> int:
    """The lexicographic rank of the sorted multiset ``c`` among those over
    [m], one binomial per member: the reference for `search._multiset_rank`,
    which sums each run of one member at once.

    c_t + t is a strictly increasing size-k subset of [n], n = m+k-1, in the
    same lexicographic order, so its rank is the combinadic one:
    C(n, k) - 1 - sum over t of C(n-1-c_t-t, k-t).
    """
    k = len(c)
    n = m + k - 1
    return math.comb(n, k) - 1 - sum(math.comb(n - 1 - j - t, k - t)
                                     for t, j in enumerate(c))


def pairs_in_order(game: BimatrixGame) -> list[tuple[tuple[int, ...], ...]]:
    """Every support pair, by total size, then lexicographic supports: the
    sorted reference for the order `search._support_pairs` walks."""
    def subsets(n):
        return [s for size in range(1, n + 1)
                for s in itertools.combinations(range(n), size)]
    return sorted(itertools.product(subsets(game.rows), subsets(game.cols)),
                  key=lambda rc: (len(rc[0]) + len(rc[1]), rc[0], rc[1]))


def one_side_lp_reference(
    lines: Sequence[Sequence[int]],
    supp: Sequence[int],
    eps: Fraction,
    scale: int,
    strict: bool = False,
) -> list[Fraction] | None:
    """The reference for `search._side_lp` and the simplex after it: the
    same LP, always solved, with no one-row certificate.

    Find q in the simplex over the opponent's support with min coordinate
    maximized, subject to: every row in supp is eps-best among all rows
    against q.  ``lines`` are the payoff matrix P's columns on that support
    times the integer ``scale``: R's columns, or C's rows for the columns.

    Variables: q_j for each line j, then t (the min-coordinate slack).
    Maximize t; feasible with t > 0 means the exact support works.  In
    strict mode the slack t is also charged against every regret
    constraint, so a positive optimum certifies regret strictly below
    eps.

    The rows are homogeneous with sum(q) <= 1, so every right-hand side is
    0 or 1, as `simplex_maximize` requires, and the origin is a feasible
    start; a feasible (q, t) with t > 0 scales by 1/sum(q) to a larger t,
    so a positive optimum has sum(q) = 1.

    The rows compare each support row only with the other rows; its regret
    against itself is 0, which is strictly below eps only when eps > 0
    (the callers take eps >= 0).
    """
    if strict and eps == 0:
        return None
    n_rows = len(lines[0])
    m = len(lines)
    a_ub: list[list[int]] = []
    # For each support row i and each row r: (P_r - P_i - eps) . q <= 0
    # (strict mode: (P_r - P_i - eps) . q + t <= 0), times b*scale for
    # eps = a/b, so that every coefficient is an integer.
    b = eps.denominator
    shift = eps.numerator * scale
    slack = b * scale if strict else 0
    for i in supp:
        for r in range(n_rows):
            if r == i:
                continue
            a_ub.append([b * (col[r] - col[i]) - shift for col in lines] + [slack])
    # t <= q_j for each j.
    for j in range(m):
        row = [0] * (m + 1)
        row[j] = -1
        row[m] = 1
        a_ub.append(row)
    a_ub.append([1] * m + [0])
    b_ub = [0] * (len(a_ub) - 1) + [1]
    status, value, solution = simplex_maximize([0] * m + [1], a_ub, b_ub)
    if status != "optimal" or value is None or value <= 0:
        return None
    return solution[:m]


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


def simplex_full_tableau(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> tuple[str, Fraction | None, list[Fraction] | None, list[tuple[int, int]]]:
    """`linsolve.simplex_maximize` on the full integer tableau: every slack
    column kept, an m x m identity built, every pivot rewriting every
    column.  Returns its (status, value, x) and the (entering, leaving)
    variables of each pivot, Bland's rule picking each.  Variables 0..n-1
    are x and n..n+m-1 the slacks, which are also the tableau's columns."""
    n, m = len(c), len(a_ub)
    rows, [objective], unit = cleared([[*row, b] for row, b in zip(a_ub, b_ub)], [c])
    tab = [ints[:n] + [int(k == i) for k in range(m)] + ints[n:]
           for i, ints in enumerate(rows)]
    tab.append([-e for e in objective] + [0] * (m + 1))
    basis = list(range(n, n + m))
    pivots = []
    while True:
        entering = next((j for j in range(n + m) if tab[m][j] < 0), -1)
        if entering < 0:
            break
        leave = -1
        for r in range(m):
            if tab[r][entering] > 0:
                if leave < 0:
                    leave = r
                    continue
                here = tab[r][-1] * tab[leave][entering]
                best = tab[leave][-1] * tab[r][entering]
                if here < best or (here == best and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            return "unbounded", None, None, pivots
        pivots.append((entering, basis[leave]))
        # Bareiss: every other row becomes (e*p - f*q) // d, d the previous
        # pivot, which every basic row holds in its basic column.
        pivot_row = tab[leave]
        p, d = pivot_row[entering], pivot_row[basis[leave]]
        for r, line in enumerate(tab):
            if r != leave:
                f = line[entering]
                tab[r] = [(e * p - f * q) // d for e, q in zip(line, pivot_row)]
        basis[leave] = entering
    d = tab[0][basis[0]] if m else 1
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[r][-1], d)
    return "optimal", Fraction(tab[m][-1], d * unit), x, pivots


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
    x = _indifferent(c_transposed(game), cols, rows)
    if x is None:
        return None
    p = MixedProfile(x=side_vector(game.rows, (rows, x, 1)),
                     y=side_vector(game.cols, (cols, y, 1)))
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
        _scan_witness(game, xc, yc, e)
        for _, xc, yc, _, _ in _integer_scan(game, int_lines(game), e, grid, math.inf)
    ]


def _literal_true(lit: int, value: int) -> bool:
    """Whether the signed 1-based literal holds when its variable is
    ``value`` (0 or 1)."""
    return (lit > 0) == bool(value)


def free_game_verdict(
    f: Cnf3Formula, build: FreeGameBuild, i: int, j: int, a: int, b: int
) -> int:
    """V(i, j, a, b) of the clause/variable free game, entry by entry: Y
    answer b satisfies every clause of question j and agrees with X answer
    a on every variable both questions assign."""
    assign_b = {v: (b >> t) & 1 for t, v in enumerate(build.y_vars[j])}
    for ci in build.y_clauses[j]:
        if not any(_literal_true(lit, assign_b[abs(lit) - 1])
                   for lit in f.clauses[ci]):
            return 0
    for t, v in enumerate(build.x_vars[i]):
        if v in assign_b and ((a >> t) & 1) != assign_b[v]:
            return 0
    return 1


def max_sat_reference(f: Cnf3Formula) -> tuple[int, Fraction]:
    """(lowest bitmask satisfying the most clauses, the fraction it
    satisfies), every clause of every mask checked literal by literal."""
    if not f.clauses:
        return 0, Fraction(1)

    def hits(mask: int) -> int:
        return sum(
            any(_literal_true(lit, (mask >> (abs(lit) - 1)) & 1) for lit in c)
            for c in f.clauses
        )

    best = max(range(2**f.num_vars), key=hits)  # the first of equal maxima
    return best, Fraction(hits(best), f.num_clauses)


def strategy_answer(variables: Sequence[int], assignment: int) -> int:
    """The answer index that gives each of ``variables`` (0-based) its value
    in the bitmask ``assignment``, read as the binary numeral whose t-th
    lowest digit is variables[t]'s value."""
    digits = "".join(str((assignment >> v) & 1) for v in reversed(variables))
    return int(digits or "0", 2)
