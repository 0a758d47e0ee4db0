"""Constrained equilibrium search: k-uniform enumeration, the ten
decision problems, and well-supported feasibility via exact linear
programs.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InvariantError, ResourceError, ValidationError, count_text
)
from .games import (
    BimatrixGame,
    IntLines,
    MixedProfile,
    Rational,
    RegretReport,
    Sparse,
    Vector,
    check_count,
    frac,
    int_lines,
    is_eps_ne,
    nonnegative_eps,
    regret_ints,
    side_vector,
    tv_distance,
    weighted_lines,
)
from .linsolve import simplex_maximize

SEARCH_BUDGET_DEFAULT = 2**22
K_CAP = 8  # the largest k that `default_k` picks

Support = tuple[int, ...]  # sorted strategy indices
Multiset = tuple[int, ...]  # sorted strategy indices, repeats allowed
_Pending = dict[int, "DecisionInstance"]  # a phase's problems, by index in the call

WITNESS_NE = "NE"
WITNESS_WSNE = "WSNE"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a decision search.

    ``answer`` is "yes", "no", or "unknown"; a yes always carries a
    witness that re-verifies exactly (a scan's or an LP's witness that does
    not raises ``InvariantError``).  For problem 3 the witness is the
    first profile of the far-apart pair and ``witness_pair`` holds both.

    ``checked_count`` counts the candidates decided up to the answer:
    k-uniform profiles for problems 1-6, whether tested or ruled out
    untested because a column of y lies outside the slack of x's best
    response (see `_integer_scan`), and for problems 7-10 the support
    pairs that pass the problem's predicate.  For `lmm_best_welfare` it is
    the whole family within the budget: when a hit reaches the game's
    largest cell welfare, the candidates left unscanned are decided by
    that ceiling and count as checked, as the column-bound ones do.  A
    hint that answers counts 0.

    ``reason`` says why the search stopped: "hint" (a hint certified it),
    "found" (a scan or a support walk found a witness), "ceiling" (the
    `lmm_best_welfare` hit at the game's largest cell welfare), "exhausted"
    (every candidate was decided without a witness), "budget" (the family
    exceeds the budget), "k-over-budget" (k exceeds the budget, so no
    candidate is checked) or "support-pairs-over-budget" (the support
    pairs exceed the budget, so none is decided).
    """

    answer: str
    witness: MixedProfile | None = None
    witness_pair: tuple[MixedProfile, MixedProfile] | None = None
    checked_count: int = 0
    reason: str | None = None


@dataclass(frozen=True)
class DecisionInstance:
    """One of the ten decision problems, with its parameter.

    Problems 1-6 quantify over eps-NE; 7-10 over eps-WSNE.  ``PROBLEMS``
    holds what each problem reads and accepts.
    """

    problem_id: int
    game: BimatrixGame
    eps: Fraction
    u: Fraction | None = None
    d: Fraction | None = None
    p: Fraction | None = None
    v: Fraction | None = None
    k: int | None = None
    index_set: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        problem = PROBLEMS.get(self.problem_id)
        # 3.0 and True hash as 3 and 1: an id must be an int as given.
        if problem is None or type(self.problem_id) is not int:
            raise ValidationError(f"unknown problem id {self.problem_id}")
        object.__setattr__(self, "eps", nonnegative_eps(self.eps))
        for name in ("u", "d", "p", "v"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, frac(value))
        value = required_param(self.problem_id, vars(self))
        if problem.param == "index_set":
            index_set = _sorted_ints(value, "index set entries")
            object.__setattr__(self, "index_set", index_set)
        elif problem.param == "k":
            check_count(value, "k", 1)
        for test, message in problem.checks:
            if not test(self):
                raise ValidationError(message.format(pid=self.problem_id))

    @property
    def witness_kind(self) -> str:
        return PROBLEMS[self.problem_id].witness

    def holds(self, *args) -> bool:
        """The problem's predicate on this instance (see `Problem`)."""
        return PROBLEMS[self.problem_id].holds(self, *args)


def required_param(problem_id: int, params: Mapping[str, object]) -> object:
    """Problem ``problem_id``'s parameter in ``params``, looked up by its
    name; ``ValidationError`` when it is missing or None.  `DecisionInstance`
    makes this check, and `cli decide` makes it before reading the game."""
    name = PROBLEMS[problem_id].param
    value = params.get(name)
    if value is None:
        raise ValidationError(f"problem {problem_id} requires parameter {name!r}")
    return value


@dataclass(frozen=True)
class Problem:
    """One row of the problem table.

    ``checks`` are the tests its parameter ``param`` must pass, in order,
    each with the message of its failure (``{pid}`` is the problem id).
    ``holds`` is its Table predicate, on a profile known to be an eps-NE
    (problems 1-6) or eps-WSNE (7-10): problems 1-6 read (inst, x's side
    (support, weights, M), row payoff, col payoff, unit), payoffs over unit,
    as a hint (``sparse_x``, the `regret_ints` unit L*M_x*M_y) and a scan
    hit (multiplicities, k*k*L) give them; 7-10 read only the supports,
    (inst, rows, cols), since a support-pair witness has exactly those
    supports.  Problem 3, whose witness is a far-apart pair, has none.
    ``least_size`` is the least total support size that a 7-10 predicate
    accepts.
    """

    param: str
    checks: tuple[tuple[Callable[[DecisionInstance], bool], str], ...]
    witness: str
    holds: Callable[..., bool] | None = None
    least_size: Callable[[DecisionInstance], int] | None = None


# `DecisionInstance` sorts and dedups an index set before these checks.
_INDEX_SET = (
    (lambda i: bool(i.index_set), "index set must be nonempty"),
    (lambda i: all(0 <= r < i.game.rows for r in i.index_set),
     "index set out of row range"),
)

PROBLEMS: dict[int, Problem] = {
    1: Problem("u", ((lambda i: 0 < i.u <= 1, "problem 1 requires u in (0, 1]"),),
               WITNESS_NE, lambda i, x, row, col, unit:
               min(row, col) * i.u.denominator >= i.u.numerator * unit),
    2: Problem("index_set", _INDEX_SET, WITNESS_NE,
               lambda i, x, row, col, unit: set(x[0]).issubset(i.index_set)),
    3: Problem("d", ((lambda i: 0 < i.d <= 1, "problem 3 requires d in (0, 1]"),),
               WITNESS_NE),
    4: Problem("p", ((lambda i: 0 < i.p < 1, "problem 4 requires p in (0, 1)"),),
               WITNESS_NE, lambda i, x, row, col, unit:
               max(x[1]) * i.p.denominator <= i.p.numerator * x[2]),
    5: Problem("v", ((lambda i: 0 <= i.v < 2, "problem 5 requires v in [0, 2)"),),
               WITNESS_NE, lambda i, x, row, col, unit:
               (row + col) * i.v.denominator <= i.v.numerator * unit),
    6: Problem("u", ((lambda i: 0 <= i.u < 1, "problem 6 requires u in [0, 1)"),),
               WITNESS_NE, lambda i, x, row, col, unit:
               row * i.u.denominator <= i.u.numerator * unit),
    7: Problem("k", (), WITNESS_WSNE,
               lambda i, rows, cols: len(rows) + len(cols) >= 2 * i.k,
               lambda i: 2 * i.k),
    8: Problem("k", (), WITNESS_WSNE,
               lambda i, rows, cols: min(len(rows), len(cols)) >= i.k,
               lambda i: 2 * i.k),
    9: Problem("k", (), WITNESS_WSNE,
               lambda i, rows, cols: len(rows) >= i.k, lambda i: i.k + 1),
    10: Problem("index_set", _INDEX_SET, WITNESS_WSNE,
                lambda i, rows, cols: set(i.index_set) <= set(rows),
                lambda i: len(i.index_set) + 1),
}


def k_uniform_strategies(n: int, k: int) -> Iterator[Vector]:
    """All size-k multisets over [n] as probability vectors, lexicographic.

    Yields C(n+k-1, k) vectors; each entry is multiplicity/k.
    """
    check_count(n, "n", 1)
    check_count(k, "k", 1)
    for combo in itertools.combinations_with_replacement(range(n), k):
        yield side_vector(n, _multiset_side(combo))


def _multiset_side(combo: Multiset) -> Sparse:
    """The side (members, multiplicities, k) of the sorted size-k multiset ``combo``."""
    members, counts = zip(*[(t, len(list(run))) for t, run in itertools.groupby(combo)])
    return members, counts, len(combo)


def k_uniform_count(n: int, k: int) -> int:
    """C(n+k-1, k): how many vectors ``k_uniform_strategies(n, k)`` yields."""
    check_count(n, "n", 1)
    check_count(k, "k", 1)
    return comb(n + k - 1, k)


def default_k(n: int, eps: Rational) -> int:
    """ceil(log2(n)/eps^2), clamped to [1, K_CAP], decided without a float.

    This is the least k in [1, K_CAP) with k*eps^2 >= log2(max(n, 2)), or
    K_CAP when there is none.
    """
    e = frac(eps)
    if e <= 0:
        return K_CAP
    n = max(n, 2)
    return next((k for k in range(1, K_CAP) if _at_least_log2(k * e * e, n)), K_CAP)


def _at_least_log2(t: Fraction, n: int) -> bool:
    """Whether t >= log2(n), exactly, for n >= 2."""
    if n & (n - 1) == 0:
        return t >= n.bit_length() - 1
    # log2(n) is irrational, so lo * 2**e <= n**b <= hi * 2**e puts b*log2(n)
    # strictly between f_lo and f_hi + 1, the floors of the bounds' logs.
    # Square (b doubles) until t*b falls outside; when truncating to `bits`
    # loosens the bounds past one unit, start again with twice the bits.
    bits = 64
    while True:
        b, e, lo, hi = 1, 0, n, n
        while True:
            f_lo = e + lo.bit_length() - 1
            f_hi = e + hi.bit_length() - 1
            if t * b >= f_hi + 1:
                return True
            if t * b <= f_lo:
                return False
            if f_hi - f_lo > 1:
                break
            s = max(0, 2 * hi.bit_length() - bits)
            b, e, lo, hi = 2 * b, 2 * e + s, lo * lo >> s, -(-hi * hi >> s)
        bits *= 2


def lmm_best_welfare(
    game: BimatrixGame,
    eps: Rational,
    k: int,
    budget: int = SEARCH_BUDGET_DEFAULT,
) -> SearchOutcome:
    """Maximize welfare over k-uniform eps-NE profiles.

    Returns "yes" with the best witness when any candidate passes,
    "no" when the whole family was scanned without a hit, and
    "unknown" (with the best partial witness) when the family exceeds
    the budget.  The witness is the lowest-index hit of the best welfare.

    A profile's welfare is an average of its support cells' welfares, so
    none exceeds the game's largest cell welfare, max(R + C), and a
    candidate reaches it iff every cell of supp(x) x supp(y) does.  The
    scan first walks only those candidates (`_integer_scan`'s ``ceiling``);
    its first hit, when there is one, is the lowest-index hit at the
    ceiling, which no later hit can beat.  Only when it finds none is the
    whole family scanned for the best welfare below the ceiling.  The
    candidates left unscanned still count in ``checked_count``.
    """
    e = nonnegative_eps(eps)
    check_count(budget, "budget")
    checked, over = _scan_size(game, k, budget)
    # The ceiling codes: the palette pairs of the largest cell welfare.  When
    # every pair has it, the first pass is the whole family, and the last.
    r_ints, c_ints, _ = game.int_entries
    welfare = {code: r + c_ints[code] for code, r in r_ints.items()}
    top = max(welfare.values())
    ceiling = "".join([code for code, w in welfare.items() if w == top])
    constant = len(ceiling) == len(welfare)
    lines = int_lines(game)  # both passes build each line once
    best = next(_integer_scan(game, lines, e, k, checked,
                              None if constant else ceiling), None)
    at_ceiling = best is not None
    if best is None and not constant:
        # Welfare as integers on the scan's scale, k*k*L; max keeps the first maximum.
        best = max(_integer_scan(game, lines, e, k, checked),
                   key=lambda hit: hit[3] + hit[4], default=None)
    witness = None if best is None else _scan_witness(game, *best[1:3], e)
    if over:
        answer, reason = "unknown", over
    elif best is None:
        answer, reason = "no", "exhausted"
    else:
        answer, reason = "yes", "ceiling" if at_ceiling else "found"
    return SearchOutcome(answer=answer, witness=witness, checked_count=checked,
                         reason=reason)


def _scan_size(game: BimatrixGame, k: int, budget: int) -> tuple[int, str | None]:
    """(candidates a k-uniform scan checks, the reason the budget cuts it,
    or None when it does not: "budget", or "k-over-budget" when k is).

    The budget counts candidates, but one candidate holds k indices a side,
    so a k above the budget checks none and the scan builds nothing.
    """
    total = k_uniform_count(game.rows, k) * k_uniform_count(game.cols, k)
    checked = 0 if k > budget else min(total, budget)
    return checked, (None if total == checked else
                     "k-over-budget" if k > budget else "budget")


def _integer_scan(
    game: BimatrixGame, lines: tuple[IntLines, IntLines, int], eps: Fraction,
    k: int, budget: int, ceiling: str | None = None,
) -> Iterator[tuple[int, Sparse, Sparse, int, int]]:
    """Stream the k-uniform eps-NE among the first ``budget`` candidates.

    Candidates (x, y) run in lexicographic order of their size-k
    multisets, x outermost, and candidate (x, y) has index
    rank(x)*C(m+k-1, k) + rank(y) for m columns.  Each passing candidate is
    yielded as (index, x side, y side, row payoff, col payoff), a side being
    a multiset as (members, multiplicities, k) and the payoffs integers over
    k*k*L, ``lines`` being `int_lines` (L last).

    With ``ceiling``, a string of palette codes, only the candidates whose
    every support cell has one of those codes are walked, in the same
    order and with the same indices: x is drawn from the rows that hold
    such a cell, and y from the columns where every row of x holds one.

    The test uses integers only.  A multiset y gives vals = k*L*(R @ y), the
    sum of y's R columns, and a multiset x the payoff pay = k*k*L*(x @ R @ y),
    and the same for the columns with x's C rows.  With eps = a/b a side
    passes iff k*max(vals) - pay <= slack = floor(a*L*k*k / b).

    For the column side, k*max(vals) - pay is the sum over y's columns j of
    max(vals) - vals[j], and every term is at least 0.  So a y is visited
    only when every one of its columns is within the slack of x's best
    response; any other y fails, and is decided without being visited.
    C @ x is computed once per x, R @ y once per y that passes a column test
    inside the budget, and rank(y) once per y that passes both, each per
    distinct member of the side; only the k-tuples and the two payoff sums
    over them cost O(k), in C.  The scan stops at the first x past the
    budget, and inside the x where the budget ends it ranks each y before
    building anything for it, so no line (`int_lines`) outside the budget
    is built, and a hit there reuses that rank.  R @ y is kept for later
    x's only outside that x: at most min(budget, C(m+k-1, k)) lines are kept.
    """
    if budget < 1:
        return
    c_rows, r_cols, scale = lines
    unit = k * k * scale
    slack = eps.numerator * unit // eps.denominator
    n, m = game.rows, game.cols
    per_x = comb(m + k - 1, k)
    held = range(n) if ceiling is None else [
        i for i, row in enumerate(game.codes) if any(map(row.__contains__, ceiling))]
    # y's multiset -> [its side, k*L*(R @ y), the least row payoff that passes, rank]
    rows_of: dict[Multiset, list] = {}
    for position, xc in enumerate(itertools.combinations_with_replacement(held, k)):
        x_side = _multiset_side(xc)
        base = per_x * (position if ceiling is None else _multiset_rank(x_side, n))
        if base >= budget:
            return
        cols = range(m) if ceiling is None else sorted(set.intersection(
            *[_columns_of(game.codes[i], ceiling) for i in x_side[0]]))
        if not cols:
            continue
        cut = base + per_x > budget
        col_vals = weighted_lines(c_rows.__getitem__, x_side)
        top = max(col_vals)
        allowed = [j for j in cols if top - col_vals[j] <= slack]
        col_least = k * top - slack
        for yc in itertools.combinations_with_replacement(allowed, k):
            if cut:
                y_side = _multiset_side(yc)
                if base + (rank := _multiset_rank(y_side, m)) >= budget:
                    return
            if (col_pay := sum(map(col_vals.__getitem__, yc))) < col_least:
                continue
            entry = rows_of.get(yc)
            if entry is None:
                y_side = y_side if cut else _multiset_side(yc)
                row_vals = weighted_lines(r_cols.__getitem__, y_side)
                entry = [y_side, row_vals, k * max(row_vals) - slack, None]
                if not cut:  # no later x reads the entries of the last one
                    rows_of[yc] = entry
            y_side, row_vals, row_least, known = entry
            if (row_pay := sum(map(row_vals.__getitem__, xc))) >= row_least:
                if not cut and known is None:
                    known = entry[3] = _multiset_rank(y_side, m)
                yield base + (rank if cut else known), x_side, y_side, row_pay, col_pay


def _columns_of(row: str, codes: str) -> set[int]:
    """The columns of the code row ``row`` whose cells have one of
    ``codes``, found by C-level ``find``."""
    found = set()
    for code in codes:
        j = row.find(code)
        while j >= 0:
            found.add(j)
            j = row.find(code, j + 1)
    return found


def _multiset_rank(side: Sparse, m: int) -> int:
    """The lexicographic rank of ``side``, members ascending, among multisets over [m].

    c_t + t is a strictly increasing size-k subset of [n], n = m+k-1, in the
    same lexicographic order, so its rank is the combinadic one:
    C(n, k) - 1 - sum over t of C(n-1-c_t-t, k-t).  Member j's terms, at
    positions t to t+c-1, are C(u, m-2-j) for u from n-j-t-c to n-1-j-t; by
    the hockey-stick identity they sum to C(n-j-t, m-1-j) - C(n-j-t-c, m-1-j).
    """
    members, counts, k = side
    n = m + k - 1
    rank, t = comb(n, k) - 1, 0
    for j, c in zip(members, counts):
        rank -= comb(n - j - t, m - 1 - j) - comb(n - j - t - c, m - 1 - j)
        t += c
    return rank


def _counts(hit: tuple[Sparse, Sparse]) -> tuple[Counter, Counter]:
    """A hit's (x, y) multiplicities per coordinate, from its sides."""
    return tuple(Counter(dict(zip(*side[:2]))) for side in hit)


def _far(a: tuple[Counter, Counter], b: tuple[Counter, Counter], apart: int) -> bool:
    """Whether two hits' (x, y) multiplicities differ by ``apart`` = ceil(d*k)
    or more somewhere: whether their k-uniform profiles are d or more apart."""
    return any(abs(s[t] - u[t]) >= apart for s, u in zip(a, b) for t in {*s, *u})


class _EarlierHits:
    """The scan hits' sides so far, in order, with each side's largest and
    least multiplicity per coordinate among them (least 0 where some hit
    lacks the coordinate): a new hit is far from some earlier one iff it
    is far from those bounds, one test however many hits came before."""

    def __init__(self) -> None:
        self.hits: list[tuple[Sparse, Sparse]] = []
        self.most: tuple[Counter, ...] = ()
        self.least: tuple[Counter, ...] = ()

    def add(self, hit: tuple[Sparse, Sparse], counts: tuple[Counter, Counter]) -> None:
        if not self.hits:
            self.most, self.least = tuple(map(Counter, counts)), tuple(map(Counter, counts))
        for most, least, c in zip(self.most, self.least, counts):
            most |= c  # Counter's | and & keep the larger and smaller count
            least &= c
        self.hits.append(hit)

    def first_far(self, counts: tuple[Counter, Counter],
                  apart: int) -> tuple[Sparse, Sparse] | None:
        """The first earlier hit that `_far` puts ``apart`` from ``counts``,
        found in one pass over the hits once the bounds show there is one."""
        if not self.hits or all(
            gap < apart for most, least, c in zip(self.most, self.least, counts)
            for gap in ((most - c) | (c - least)).values()
        ):
            return None
        return next(h for h in self.hits if _far(_counts(h), counts, apart))


def _sorted_ints(indices: Iterable[object], name: str) -> Support:
    """The distinct ``indices`` in order; ``ValidationError``, before the
    sort, unless every one is an int that is not a bool."""
    try:
        items = iter(indices)
    except TypeError:
        raise ValidationError(
            f"{name} must be ints in an iterable, got {indices!r}") from None
    indices = tuple(items)
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int):
            raise ValidationError(f"{name} must be ints, got {i!r}")
    return tuple(sorted(set(indices)))


def _scan_witness(game: BimatrixGame, x_side: Sparse, y_side: Sparse,
                  eps: Fraction) -> MixedProfile:
    """The profile of a scan hit's sides, after the exact oracle has
    confirmed that it is an eps-NE."""
    p = MixedProfile.of_sides(game.rows, game.cols, x_side, y_side)
    if not is_eps_ne(game, p, eps):
        raise InvariantError("k-uniform scan and is_eps_ne disagree on a witness")
    return p


def wsne_support_feasible(
    game: BimatrixGame,
    rows: Sequence[int],
    cols: Sequence[int],
    eps: Rational,
    strict: bool = False,
) -> MixedProfile | None:
    """Exact well-supported equilibrium with supports exactly (rows, cols).

    The two sides decouple: the row conditions constrain only y (every
    row in the support must be within eps of the best row against y) and
    the column conditions only x.  Each side is an exact linear program
    maximizing the minimum support coordinate; a positive optimum on both
    sides yields a witness.  A side one of its rows proves dead needs no
    simplex, nor does a live side against one opposite strategy (`_side_lp`).

    With ``strict`` set, both pure-strategy regrets must be strictly
    below eps, which excludes profiles sitting exactly on the regret
    boundary.  A negative eps raises ``ValidationError``.
    """
    e = nonnegative_eps(eps)
    rows = _sorted_ints(rows, "support indices")
    cols = _sorted_ints(cols, "support indices")
    if not rows or not cols:
        raise ValidationError("supports must be nonempty")
    if min(rows + cols) < 0 or rows[-1] >= game.rows or cols[-1] >= game.cols:
        raise ValidationError(f"supports {rows}/{cols} out of the game's range")
    return _pair_witness(game, int_lines(game), rows, cols, e, strict)[0]


def _pair_witness(
    game: BimatrixGame,
    lines: tuple[IntLines, IntLines, int],
    rows: Support,
    cols: Support,
    eps: Fraction,
    strict: bool,
) -> tuple[MixedProfile | None, tuple[int, frozenset[int]] | None]:
    """(the support pair's witness or None, the dead side to record or None),
    from the LPs of y on R's columns in ``cols`` and of x on C's rows in
    ``rows``, both built before either is solved, so that a side `_side_lp`
    proves dead costs no simplex; ``lines`` is `int_lines`.  A dead side is
    (0, part of rows), to record against cols, or (1, part of cols), to
    record against rows: the one strategy whose regret row proved it dead,
    or the whole support when its LP's optimum is not positive.  The row
    side comes first, so a pair whose row side is dead leaves its column
    side unknown.  A side against one opposite strategy that no row proved
    dead has q = (1,), with no simplex (see `_side_lp`).  An LP side that is
    not a distribution, or a witness whose pure regrets `regret_ints` finds
    above eps (not below it when ``strict``), raises ``InvariantError``."""
    c_rows, r_cols, scale = lines
    sides = ((rows, cols, r_cols), (cols, rows, c_rows))
    lps = []
    for which, (supp, other, side_lines) in enumerate(sides):
        lp = _side_lp([side_lines[t] for t in other], supp, eps, scale, strict)
        if type(lp) is int:
            return None, (which, frozenset((lp,)))
        lps.append(lp)
    solved = []
    for which, ((supp, other, _), lp) in enumerate(zip(sides, lps)):
        if len(other) == 1:  # q = (1,) is optimal with t > 0: see `_side_lp`
            solved.append([1])
            continue
        status, value, q = simplex_maximize(*lp)
        if status != "optimal" or value <= 0:
            return None, (which, frozenset(supp))
        solved.append(q[:-1])
    y, x = solved
    try:
        p = MixedProfile.of_sides(game.rows, game.cols, (rows, x, 1), (cols, y, 1))
    except ValidationError as exc:
        raise InvariantError("support LP gave a side that is not a distribution") from exc
    if not regret_ints(game, p).within(eps, pure=True, strict=strict):
        raise InvariantError("support LP and regret_ints disagree on a witness")
    return p, None


def _side_lp(
    lines: Sequence[Sequence[int]],
    supp: Sequence[int],
    eps: Fraction,
    scale: int,
    strict: bool = False,
) -> tuple[list[int], list[list[int]], list[int]] | int:
    """The LP (c, a_ub, b_ub) for `simplex_maximize` of q in the simplex
    over the opponent's support, maximizing its least coordinate subject
    to: every row in supp is eps-best among all rows against q; or, when
    one row proves the side dead, that row i of supp.  ``lines`` are P's
    columns on that support times the integer ``scale``: R's columns, or
    C's rows for the columns.

    Variables: q_j for each line j, then t (the min-coordinate slack).
    Maximize t; feasible with t > 0 means the exact support works.  In
    strict mode t is also charged against every regret constraint, so a
    positive optimum certifies regret strictly below eps.

    The rows are homogeneous with sum(q) <= 1, so every right-hand side is
    0 or 1, as `simplex_maximize` requires, and the origin is a feasible
    start; a feasible (q, t) with t > 0 scales by 1/sum(q) to a larger t,
    so a positive optimum has sum(q) = 1.

    The rows compare each support row only with the other rows; its regret
    against itself is 0, which is strictly below eps only when eps > 0
    (the callers take eps >= 0), so at eps = 0 every strict side is dead,
    by its first row.  As every variable is >= 0, a regret row of row i
    with no negative q-coefficient forces q_j = 0 where its coefficient is
    positive, and t = 0 in strict mode: with t <= q_j the optimum is 0 (a
    one-row Farkas certificate), so the first such row gives i.  That row
    reads only i and the lines, so every support holding i is dead against
    the same lines.  A weak row of zeros (P_r - P_i = eps on every line)
    forces nothing.

    With one line (m = 1) and no row giving i, every regret row's one
    coefficient c is <= 0, and < 0 in strict mode.  Then q = (1,) meets
    each row, with t = 1 in weak mode and, in strict mode, t the least of 1
    and -c/(b*scale) over the rows, b*scale being t's coefficient: the
    optimum is positive at q = (1,), the only point of sum(q) = 1, so
    `_pair_witness` runs no simplex on it.
    """
    if strict and eps == 0:
        return supp[0]
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
            row = [b * (col[r] - col[i]) - shift for col in lines]
            if min(row) >= 0 and (strict or any(row)):
                return i
            row.append(slack)
            a_ub.append(row)
    # t <= q_j for each j.
    for j in range(m):
        row = [0] * (m + 1)
        row[j] = -1
        row[m] = 1
        a_ub.append(row)
    a_ub.append([1] * m + [0])
    return [0] * m + [1], a_ub, [0] * (len(a_ub) - 1) + [1]


def enumerate_wsne_supports(
    game: BimatrixGame,
    eps: Rational,
    budget: int = SEARCH_BUDGET_DEFAULT,
    strict: bool = False,
) -> Iterator[MixedProfile]:
    """All feasible exact-support well-supported profiles, one witness per
    support pair, ordered by (total support size, lexicographic supports).

    ``strict`` restricts the enumeration to profiles whose pure-strategy
    regrets are strictly below eps; at eps = 0 there are none, and no pair
    is decided.

    Pairs are pruned without an LP.  With the columns fixed, the row side's
    LP only gains constraints as the row support grows, so a row side an LP
    proved dead rules out the row side of every pair with more rows and the
    same columns; a row side one row i proves dead rules out every row side
    that holds i.  The column side is the mirror case.  Both of a pair's LPs
    are built first; a side one row proves dead needs no simplex, and
    neither does a live side against one opposite strategy.
    Raises ``ValidationError`` for a negative eps and ``ParameterError``
    for a negative budget when called, and ``ResourceError`` at the first
    ``next()``, before any LP, when the pairs exceed the budget.
    """
    e = nonnegative_eps(eps)
    check_count(budget, "budget")
    # At eps = 0 every strict side is dead (see `_side_lp`): walk no size,
    # past the largest pair.
    least = game.rows + game.cols + 1 if strict and e == 0 else 2
    every_pair = _support_pairs(game, e, budget, strict, lambda r, c: True, least)
    return (witness for _, _, witness, _ in every_pair if witness is not None)


def _support_pairs(
    game: BimatrixGame,
    eps: Fraction,
    budget: int,
    strict: bool,
    wanted: Callable[[Support, Support], object],
    least_size: int,
) -> Iterator[tuple[Support, Support, MixedProfile | None, object]]:
    """Decide, in ``enumerate_wsne_supports``' order, the support pairs
    for which ``wanted(rows, cols)`` is truthy when the pair comes up, and
    yield each as (rows, cols, its witness or None, what ``wanted``
    returned).  ``wanted`` accepts no pair of total size below
    ``least_size``, so those sizes are not walked.

    Each total size is walked as a merge of one lexicographic stream of row
    supports per row count, and each row support's column supports follow
    it in lexicographic order: the order of (size, rows, cols), one merge
    step per row support.  A wanted pair is skipped when a side recorded
    dead against the same opposite support is a subset of its own side.
    Only dead sides are recorded, keyed by that opposite support: the one
    strategy whose regret row proved the side dead, or the whole side when
    its LP did (`_pair_witness`).  Every pair between a dead side and a
    superset of it lies at a walked size, so this prunes what carrying dead
    sides through every pair would.  When the row side fails, the column
    side stays unknown.  A budget below the pair count, a negative one too,
    raises ``ResourceError`` before the first pair.
    """
    n, m = game.rows, game.cols
    total = (2 ** n - 1) * (2 ** m - 1)
    if total > budget:
        raise ResourceError(f"{count_text(total)} support pairs exceed budget {budget}")
    lines = int_lines(game)
    dead_rows, dead_cols = {}, {}  # dead sides, as frozensets, by opposite support
    for size in range(least_size, n + m + 1):
        for rows in heapq.merge(*(itertools.combinations(range(n), r)
                                  for r in range(max(1, size - m), min(n, size - 1) + 1))):
            for cols in itertools.combinations(range(m), size - len(rows)):
                takers = wanted(rows, cols)
                if not takers:
                    continue
                witness = None
                if not (any(side.issubset(rows) for side in dead_rows.get(cols, ()))
                        or any(side.issubset(cols) for side in dead_cols.get(rows, ()))):
                    witness, dead = _pair_witness(game, lines, rows, cols, eps, strict)
                    if dead is not None:
                        records, against = (dead_cols, rows) if dead[0] else (dead_rows, cols)
                        records.setdefault(against, []).append(dead[1])
                yield rows, cols, witness, takers


def decide(
    inst: DecisionInstance,
    k: int | None = None,
    budget: int = SEARCH_BUDGET_DEFAULT,
    hints: Iterable[MixedProfile | tuple[MixedProfile, MixedProfile]] = (),
) -> SearchOutcome:
    """Decide one of the ten problems: the one-instance ``decide_many``."""
    return decide_many([inst], k, budget, hints)[0]


def decide_many(
    insts: Sequence[DecisionInstance],
    k: int | None = None,
    budget: int = SEARCH_BUDGET_DEFAULT,
    hints: Iterable[MixedProfile | tuple[MixedProfile, MixedProfile]] = (),
) -> list[SearchOutcome]:
    """Decide problems on one game at one eps, each as if alone: by the
    first of ``hints`` (profiles, or pairs for problem 3) that certifies it,
    else 1-6 by one k-uniform scan ("no": no k-uniform witness) and 7-10 by
    one exact support enumeration ("no" is unconditional within budget)."""
    check_count(budget, "budget")
    if k is not None:
        check_count(k, "k", 1)
    if not insts:
        return []
    game, eps = insts[0].game, insts[0].eps
    if any(inst.game != game or inst.eps != eps for inst in insts):
        raise ValidationError("decide_many needs one game and one eps")
    outcomes = _hint_outcomes(game, eps, dict(enumerate(insts)), hints)
    pending: dict[str, _Pending] = {WITNESS_NE: {}, WITNESS_WSNE: {}}
    for i, inst in enumerate(insts):
        if i not in outcomes:
            pending[inst.witness_kind][i] = inst
    outcomes |= _scan_outcomes(game, eps, pending[WITNESS_NE], k, budget)
    outcomes |= _support_outcomes(game, eps, pending[WITNESS_WSNE], budget)
    return [outcomes[i] for i in range(len(insts))]


def _hint_outcomes(game: BimatrixGame, eps: Fraction, pending: _Pending,
                   hints: Iterable) -> dict[int, SearchOutcome]:
    """A yes for each problem in ``pending`` that a hint certifies."""
    # One kernel call per hint object, keyed by identity: the list keeps
    # every hint alive for the call, and hashing a profile hashes both sides.
    hints = list(hints)
    reports: dict[int, RegretReport] = {}

    def report(p: MixedProfile) -> RegretReport:
        rep = reports.get(id(p))
        if rep is None:
            rep = reports[id(p)] = regret_ints(game, p)
        return rep

    settled = {}
    for i, inst in pending.items():
        pair = inst.problem_id == 3
        for hint in hints:
            if pair != isinstance(hint, tuple):
                continue
            if pair:
                certified = (all(report(p).within(eps) for p in hint)
                             and tv_distance(*hint) >= inst.d)
            else:
                rep = report(hint)
                wsne = inst.witness_kind == WITNESS_WSNE
                certified = rep.within(eps, pure=wsne) and (
                    inst.holds(hint.support_x, hint.support_y) if wsne
                    else inst.holds(hint.sparse_x, rep.row_pay, rep.col_pay, rep.unit)
                )
            if certified:
                settled[i] = SearchOutcome(
                    answer="yes", witness=hint[0] if pair else hint,
                    witness_pair=hint if pair else None, reason="hint")
                break
    return settled


def _scan_outcomes(game: BimatrixGame, eps: Fraction, pending: _Pending,
                   k: int | None, budget: int) -> dict[int, SearchOutcome]:
    """Every problem in ``pending`` (1-6) settled by one k-uniform scan."""
    if not pending:
        return {}
    if k is None:
        k = default_k(max(game.rows, game.cols), eps)
    checked, over = _scan_size(game, k, budget)
    miss = SearchOutcome(answer="unknown" if over else "no", checked_count=checked,
                         reason=over or "exhausted")
    outcomes, left = dict.fromkeys(pending, miss), dict(pending)
    lines = int_lines(game)
    unit = k * k * lines[2]
    earlier = _EarlierHits()  # while p3 is pending
    for index, x_side, y_side, row, col in _integer_scan(game, lines, eps, k, checked):
        sides = x_side, y_side
        p3_pending = any(inst.problem_id == 3 for inst in left.values())
        counts = _counts(sides) if p3_pending else None  # p3's, only while pending
        for i, inst in list(left.items()):
            if inst.problem_id == 3:  # witnessed by a far-apart pair (q, this)
                apart = -(-inst.d.numerator * k // inst.d.denominator)
                q = earlier.first_far(counts, apart)
                hit = None if q is None else (q, sides)
            else:
                hit = (sides,) if inst.holds(x_side, row, col, unit) else None
            if hit is not None:
                hit = tuple(_scan_witness(game, *w, eps) for w in hit)
                outcomes[i] = SearchOutcome(answer="yes", witness=hit[0],
                                            witness_pair=hit if len(hit) == 2 else None,
                                            checked_count=index + 1, reason="found")
                del left[i]
        if not left:
            break
        if p3_pending:  # harmless when this hit settled the last p3
            earlier.add(sides, counts)
    return outcomes


def _support_outcomes(game: BimatrixGame, eps: Fraction, pending: _Pending,
                      budget: int) -> dict[int, SearchOutcome]:
    """Every problem in ``pending`` (7-10) settled by one support enumeration,
    each counting the pairs its own predicate accepts, as it would alone.  A
    pair's witness has exactly that pair as its supports, so a pair that no
    problem left accepts is never decided, and sizes below the least that
    any problem accepts are not walked.  Each predicate of a problem left
    runs once per walked pair: the walk hands back the problems that
    accept the pair, and those are the ones it counts."""
    if not pending:
        return {}
    found, pairs_seen = {}, dict.fromkeys(pending, 0)  # witnesses, accepted pairs
    left = dict(pending)  # the problems with no witness yet
    least = min(PROBLEMS[inst.problem_id].least_size(inst) for inst in pending.values())

    def wanted(rows: Support, cols: Support) -> list[int]:
        return [i for i, inst in left.items() if inst.holds(rows, cols)]

    try:
        for _, _, witness, takers in _support_pairs(game, eps, budget, False,
                                                    wanted, least):
            for i in takers:
                pairs_seen[i] += 1
                if witness is not None:
                    found[i] = witness
                    del left[i]
            if not left:
                break
    except ResourceError:  # raised before the first pair: the pairs exceed the budget
        return dict.fromkeys(pending, SearchOutcome(answer="unknown",
                                                    reason="support-pairs-over-budget"))
    return {i: SearchOutcome(answer="yes" if i in found else "no", witness=found.get(i),
                             checked_count=pairs_seen[i],
                             reason="found" if i in found else "exhausted")
            for i in pending}
