"""Constrained equilibrium search: k-uniform enumeration, the ten
decision problems, and well-supported feasibility via exact linear
programs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InvariantError, ParameterError, ResourceError, ValidationError
)
from .games import (
    BimatrixGame,
    MixedProfile,
    Rational,
    Vector,
    cleared,
    frac,
    is_eps_ne,
    regret_report,
    tv_distance,
)
from .linsolve import simplex_maximize

SEARCH_BUDGET_DEFAULT = 2**22

Support = tuple[int, ...]  # sorted strategy indices
Multiset = tuple[int, ...]  # sorted strategy indices, repeats allowed

WITNESS_NE = "NE"
WITNESS_WSNE = "WSNE"

# problem id -> (parameter name, witness kind)
_PROBLEMS: dict[int, tuple[str | None, str]] = {
    1: ("u", WITNESS_NE),
    2: ("index_set", WITNESS_NE),
    3: ("d", WITNESS_NE),
    4: ("p", WITNESS_NE),
    5: ("v", WITNESS_NE),
    6: ("u", WITNESS_NE),
    7: ("k", WITNESS_WSNE),
    8: ("k", WITNESS_WSNE),
    9: ("k", WITNESS_WSNE),
    10: ("index_set", WITNESS_WSNE),
}


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a decision search.

    ``answer`` is "yes", "no", or "unknown"; a yes always carries a
    witness that re-verifies exactly.  For problem 3 the witness is the
    first profile of the far-apart pair and ``witness_pair`` holds both.

    ``checked_count`` counts the candidates checked up to the answer:
    k-uniform profiles for problems 1-6, and for problems 7-10 the support
    pairs that pass the problem's predicate.  A hint that answers counts 0.
    """

    answer: str
    witness: MixedProfile | None = None
    witness_pair: tuple[MixedProfile, MixedProfile] | None = None
    checked_count: int = 0


@dataclass(frozen=True)
class DecisionInstance:
    """One of the ten decision problems, with its parameter.

    Problems 1-6 quantify over eps-NE; 7-10 over eps-WSNE.
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
        if self.problem_id not in _PROBLEMS:
            raise ValidationError(f"unknown problem id {self.problem_id}")
        object.__setattr__(self, "eps", frac(self.eps))
        for name in ("u", "d", "p", "v"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, frac(value))
        if self.eps < 0:
            raise ValidationError("eps must be nonnegative")
        pid = self.problem_id
        param, _ = _PROBLEMS[pid]
        if param is not None and getattr(self, param) is None:
            raise ValidationError(f"problem {pid} requires parameter {param!r}")
        if pid == 1 and not (0 < self.u <= 1):
            raise ValidationError("problem 1 requires u in (0, 1]")
        if pid == 3 and not (0 < self.d <= 1):
            raise ValidationError("problem 3 requires d in (0, 1]")
        if pid == 4 and not (0 < self.p < 1):
            raise ValidationError("problem 4 requires p in (0, 1)")
        if pid == 5 and not (0 <= self.v < 2):
            raise ValidationError("problem 5 requires v in [0, 2)")
        if pid == 6 and not (0 <= self.u < 1):
            raise ValidationError("problem 6 requires u in [0, 1)")
        if pid in (7, 8, 9) and self.k < 1:
            raise ValidationError(f"problem {pid} requires k >= 1")
        if pid in (2, 10):
            idx = tuple(sorted(set(self.index_set)))
            object.__setattr__(self, "index_set", idx)
            if not idx:
                raise ValidationError("index set must be nonempty")
            if any(not (0 <= i < self.game.rows) for i in idx):
                raise ValidationError("index set out of row range")

    @property
    def witness_kind(self) -> str:
        return _PROBLEMS[self.problem_id][1]


def k_uniform_strategies(n: int, k: int) -> Iterator[Vector]:
    """All size-k multisets over [n] as probability vectors, lexicographic.

    Yields C(n+k-1, k) vectors; each entry is multiplicity/k.
    """
    for combo in _multisets(n, k):
        yield _multiset_vector(n, combo)


def _multisets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The size-k multisets over [n] as sorted index tuples, lexicographic."""
    if n < 1 or k < 1:
        raise ParameterError("n and k must be at least 1")
    return itertools.combinations_with_replacement(range(n), k)


def _multiset_vector(n: int, combo: Sequence[int]) -> Vector:
    """The probability vector over [n] of the multiset ``combo``: each
    entry is its multiplicity over len(combo)."""
    counts = [0] * n
    for i in combo:
        counts[i] += 1
    return tuple([Fraction(c, len(combo)) for c in counts])


def k_uniform_count(n: int, k: int) -> int:
    """C(n+k-1, k): how many vectors ``k_uniform_strategies(n, k)`` yields."""
    if n < 1 or k < 1:
        raise ParameterError("n and k must be at least 1")
    return comb(n + k - 1, k)


def default_k(n: int, eps: Rational, cap: int = 8) -> int:
    """ceil(log2(n)/eps^2), clamped to [1, cap], decided without a float.

    This is the least k in [1, cap) with k*eps^2 >= log2(max(n, 2)), or cap
    when there is none.
    """
    e = frac(eps)
    if e <= 0:
        return cap
    n = max(n, 2)
    return next((k for k in range(1, cap) if _at_least_log2(k * e * e, n)), cap)


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
    the budget.
    """
    e = frac(eps)
    checked, truncated = _scan_size(game, k, budget)
    # Welfare compared as integers on the scan's scale; max() keeps the
    # first of equal maxima, the lowest-index best welfare.
    hits = _integer_scan(e, k, budget, *cleared(game.R, game.Ct))
    best = max(hits, key=lambda c: c[3] + c[4], default=None)
    if best is None:
        return SearchOutcome(
            answer="unknown" if truncated else "no", checked_count=checked
        )
    witness = MixedProfile(x=_multiset_vector(game.rows, best[1]),
                           y=_multiset_vector(game.cols, best[2]))
    witness = _reverified(game, witness, e)
    return SearchOutcome(
        answer="unknown" if truncated else "yes", witness=witness, checked_count=checked
    )


def _scan_size(game: BimatrixGame, k: int, budget: int) -> tuple[int, bool]:
    """(candidates a k-uniform scan checks, whether the budget cuts it)."""
    total = k_uniform_count(game.rows, k) * k_uniform_count(game.cols, k)
    return min(total, max(budget, 0)), total > budget


def _eps_ne_scan(
    game: BimatrixGame, eps: Fraction, k: int, budget: float
) -> Iterator[tuple[int, Vector, Vector, Fraction, Fraction]]:
    """Stream the k-uniform eps-NE among the first ``budget`` candidates,
    each as (index, x, y, row payoff, col payoff): `_integer_scan`'s hits
    with their Fraction vectors and payoffs."""
    r_int, ct_int, scale = cleared(game.R, game.Ct)
    unit = k * k * scale
    for index, xc, yc, row_pay, col_pay in _integer_scan(eps, k, budget, r_int,
                                                         ct_int, scale):
        yield (index, _multiset_vector(game.rows, xc),
               _multiset_vector(game.cols, yc),
               Fraction(row_pay, unit), Fraction(col_pay, unit))


def _integer_scan(
    eps: Fraction, k: int, budget: float,
    r_int: list[list[int]], ct_int: list[list[int]], scale: int,
) -> Iterator[tuple[int, Multiset, Multiset, int, int]]:
    """Stream the k-uniform eps-NE among the first ``budget`` candidates.

    Candidates (x, y) run in lexicographic order of their size-k
    multisets, x outermost.  Each passing candidate is yielded as (index,
    x multiset, y multiset, row payoff, col payoff), the payoffs as
    integers over k*k*scale.

    The test uses integers only.  ``r_int`` and ``ct_int`` are L*R and L*Ct,
    cleared by `games.cleared` over one L (``scale``), so a multiset y gives
    the integer vector vals = k*L*(R @ y) and a multiset x the payoff
    pay = k*k*L*(x @ R @ y), and the same for the column side.  With
    eps = a/b a side passes iff b*(k*max(vals) - pay) <= a*L*k*k, that is
    iff pay >= k*max(vals) - floor(a*L*k*k / b).  No Fraction is built
    here.  Ct @ x is computed once per x and R @ y once per y; a y is kept
    only once the scan reaches it, so nothing outside the budget is built.
    """
    unit = k * k * scale
    slack = eps.numerator * unit // eps.denominator
    fresh_ys = _multisets(len(ct_int), k)
    # (y's multiset, k*L*(R @ y), the least row payoff that passes)
    seen_ys: list[tuple[Multiset, list[int], int]] = []

    def each_y() -> Iterator[tuple[Multiset, list[int], int]]:
        yield from seen_ys
        for yc in fresh_ys:
            row_vals = [sum(row[j] for j in yc) for row in r_int]
            seen_ys.append((yc, row_vals, k * max(row_vals) - slack))
            yield seen_ys[-1]

    index = 0
    for xc in _multisets(len(r_int), k):
        col_vals = [sum(col[i] for i in xc) for col in ct_int]
        col_least = k * max(col_vals) - slack
        for yc, row_vals, row_least in each_y():
            if index >= budget:
                return
            if ((row_pay := sum(row_vals[i] for i in xc)) >= row_least
                    and (col_pay := sum(col_vals[j] for j in yc)) >= col_least):
                yield index, xc, yc, row_pay, col_pay
            index += 1


def _reverified(game: BimatrixGame, p: MixedProfile, eps: Fraction) -> MixedProfile:
    """Return a scan witness after the exact oracle has confirmed it."""
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
    sides yields a witness.

    With ``strict`` set, both pure-strategy regrets must be strictly
    below eps, which excludes profiles sitting exactly on the regret
    boundary.
    """
    rows = tuple(sorted(set(rows)))
    cols = tuple(sorted(set(cols)))
    if not rows or not cols:
        raise ValidationError("supports must be nonempty")
    if min(rows + cols) < 0 or rows[-1] >= game.rows or cols[-1] >= game.cols:
        raise ValidationError(f"supports {rows}/{cols} out of the game's range")
    return _pair_witness(cleared(game.R, game.Ct), rows, cols, frac(eps), strict)[0]


def _pair_witness(
    payoffs: tuple[list[list[int]], list[list[int]], int],
    rows: Support,
    cols: Support,
    eps: Fraction,
    strict: bool,
) -> tuple[MixedProfile | None, bool]:
    """(the support pair's witness or None, whether its row side is
    feasible): the row-side LP for y, then, only if that side is feasible,
    the column-side LP for x.  ``payoffs`` is ``cleared(game.R, game.Ct)``."""
    r_int, ct_int, scale = payoffs
    y = _one_side_feasible(r_int, rows, cols, eps, scale, strict)
    if y is None:
        return None, False
    x = _one_side_feasible(ct_int, cols, rows, eps, scale, strict)
    if x is None:
        return None, True
    return MixedProfile(x=_spread(len(r_int), rows, x),
                        y=_spread(len(ct_int), cols, y)), True


def _spread(n: int, supp: Sequence[int], values: Sequence[Fraction]) -> Vector:
    """The length-n vector with ``values`` on ``supp`` and 0 elsewhere."""
    full = [Fraction(0)] * n
    for i, value in zip(supp, values):
        full[i] = value
    return tuple(full)


def _one_side_feasible(
    payoff: Sequence[Sequence[int]],
    supp: Sequence[int],
    opp_supp: Sequence[int],
    eps: Fraction,
    scale: int,
    strict: bool = False,
) -> list[Fraction] | None:
    """Find q in the simplex over opp_supp with min coordinate maximized,
    subject to: every row in supp is eps-best among all rows against q.
    ``payoff`` is the payoff matrix P times the integer ``scale``, one side
    of `games.cleared`.

    Variables: q_j for j in opp_supp, then t (the min-coordinate slack).
    Maximize t; feasible with t > 0 means the exact support works.  In
    strict mode the slack t is also charged against every regret
    constraint, so a positive optimum certifies regret strictly below
    eps.

    The rows are homogeneous with sum(q) <= 1, so every right-hand side is
    0 or 1, as `simplex_maximize` requires, and the origin is a feasible
    start; a feasible (q, t) with t > 0 scales by 1/sum(q) to a larger t,
    so a positive optimum has sum(q) = 1.

    The rows compare each support row only with the other rows; its regret
    against itself is 0, which is at most eps only when eps >= 0, and
    strictly below eps only when eps > 0.
    """
    if eps < 0 or (strict and eps == 0):
        return None
    n_rows = len(payoff)
    m = len(opp_supp)
    a_ub: list[list[int]] = []
    # For each support row i and each row r: (P_r - P_i - eps) . q <= 0
    # (strict mode: (P_r - P_i - eps) . q + t <= 0), times b*scale for
    # eps = a/b, so that every coefficient is an integer.
    b = eps.denominator
    shift = eps.numerator * scale
    slack = b * scale if strict else 0
    for i in supp:
        own = [payoff[i][j] for j in opp_supp]
        for r in range(n_rows):
            if r == i:
                continue
            other = payoff[r]
            a_ub.append([b * (other[j] - p) - shift for j, p in zip(opp_supp, own)]
                        + [slack])
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


def enumerate_wsne_supports(
    game: BimatrixGame,
    eps: Rational,
    budget: int = SEARCH_BUDGET_DEFAULT,
    strict: bool = False,
) -> Iterator[MixedProfile]:
    """All feasible exact-support well-supported profiles, one witness per
    support pair, ordered by (total support size, lexicographic supports).

    ``strict`` restricts the enumeration to profiles whose pure-strategy
    regrets are strictly below eps.

    Pairs are pruned without an LP.  With the columns fixed, the row side's
    LP only gains constraints as the row support grows, so a pair whose row
    side is infeasible rules out the row side of every pair with more rows
    and the same columns; the column side is the mirror case.  Every
    immediate subset of a pair comes earlier in the order, so a pair is
    known infeasible when one of them is.
    """
    e = frac(eps)
    every_pair = _support_pairs(game, e, budget, strict, lambda rows, cols: True)
    for _, _, witness in every_pair:
        if witness is not None:
            yield witness


def _support_pairs(
    game: BimatrixGame,
    eps: Fraction,
    budget: int,
    strict: bool,
    wanted: Callable[[Support, Support], bool],
) -> Iterator[tuple[Support, Support, MixedProfile | None]]:
    """Decide, in ``enumerate_wsne_supports``' order, the support pairs
    that ``wanted(rows, cols)`` accepts when the pair comes up, and yield
    each as (rows, cols, its witness or None).

    Only sides known to be infeasible are recorded: found so by an LP, or
    by an immediate subset, on every pair, wanted or not.  When the row
    side fails, the column side stays unknown.
    """
    total = (2 ** game.rows - 1) * (2 ** game.cols - 1)
    if total > budget:
        raise ResourceError(
            f"{total} support pairs exceed budget {budget}"
        )
    pairs = sorted(
        itertools.product(_subsets(game.rows), _subsets(game.cols)),
        key=lambda rc: (len(rc[0]) + len(rc[1]), rc[0], rc[1]),
    )
    payoffs = cleared(game.R, game.Ct)
    row_dead: set[tuple[Support, Support]] = set()
    col_dead: set[tuple[Support, Support]] = set()
    for rows, cols in pairs:
        pair = (rows, cols)
        if any((rows[:k] + rows[k + 1:], cols) in row_dead
               for k in range(len(rows))):
            row_dead.add(pair)
        if any((rows, cols[:k] + cols[k + 1:]) in col_dead
               for k in range(len(cols))):
            col_dead.add(pair)
        if not wanted(rows, cols):
            continue
        witness = None
        if pair not in row_dead and pair not in col_dead:
            witness, row_feasible = _pair_witness(payoffs, rows, cols, eps, strict)
            if not row_feasible:
                row_dead.add(pair)
            elif witness is None:
                col_dead.add(pair)
        yield rows, cols, witness


def _subsets(n: int) -> list[tuple[int, ...]]:
    """The nonempty subsets of range(n), by size, then lexicographic."""
    return [s for size in range(1, n + 1)
            for s in itertools.combinations(range(n), size)]


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
    """Decide problems on one game at one eps by candidate enumeration,
    each exactly as it would be decided alone.

    ``hints`` are candidate profiles (or pairs, for problem 3) checked
    before any enumeration; a hint that satisfies the predicate certifies
    a yes immediately.  Problems 1-6 scan k-uniform profiles, so their
    "no" means "no k-uniform witness"; problems 7-10 enumerate support
    patterns exactly, so their "no" is unconditional (within budget).
    The problems share one regret report per distinct hint profile, one
    k-uniform scan and one support enumeration.  The enumeration decides
    only the support pairs that some pending problem's predicate accepts,
    since a pair's witness has exactly that pair as its supports.
    """
    if not insts:
        return []
    game, eps = insts[0].game, insts[0].eps
    if any(inst.game != game or inst.eps != eps for inst in insts):
        raise ValidationError("decide_many needs one game and one eps")
    if k is None:
        k = default_k(max(game.rows, game.cols), eps)
    # Problem 3 takes only pair hints, the others only profile hints.
    report = functools.cache(functools.partial(regret_report, game))
    hints = list(hints)
    outcomes: list[SearchOutcome | None] = [None] * len(insts)
    for i, inst in enumerate(insts):
        for hint in hints:
            if (inst.problem_id == 3) != isinstance(hint, tuple):
                continue
            if inst.problem_id == 3:
                p1, p2 = hint
                both = report(p1).within(eps) and report(p2).within(eps)
                if both and tv_distance(p1, p2) >= inst.d:
                    outcomes[i] = SearchOutcome(answer="yes", witness=p1,
                                                witness_pair=(p1, p2))
                    break
            else:
                rep = report(hint)
                if rep.within(eps, inst.witness_kind == WITNESS_WSNE) and _predicate(
                    inst, hint, rep.row_payoff, rep.col_payoff
                ):
                    outcomes[i] = SearchOutcome(answer="yes", witness=hint)
                    break
    scan = {i: inst for i, inst in enumerate(insts)
            if outcomes[i] is None and inst.witness_kind == WITNESS_NE}
    supports = {i: inst for i, inst in enumerate(insts)
                if outcomes[i] is None and inst.witness_kind == WITNESS_WSNE}

    if scan:
        checked, truncated = _scan_size(game, k, budget)
        found: list[MixedProfile] = []  # earlier hits, kept while p3 is pending
        for index, x, y, row_pay, col_pay in _eps_ne_scan(game, eps, k, budget):
            p = MixedProfile(x=x, y=y)
            for i, inst in list(scan.items()):
                if inst.problem_id == 3:  # witnessed by a far-apart pair (q, p)
                    q = next((q for q in found if tv_distance(p, q) >= inst.d), None)
                    hit = None if q is None else (q, p)
                else:
                    hit = (p,) if _predicate(inst, p, row_pay, col_pay) else None
                if hit is not None:
                    hit = tuple(_reverified(game, w, eps) for w in hit)
                    outcomes[i] = SearchOutcome(
                        answer="yes", witness=hit[0], checked_count=index + 1,
                        witness_pair=hit if inst.problem_id == 3 else None,
                    )
                    del scan[i]
            if not scan:
                break
            if any(inst.problem_id == 3 for inst in scan.values()):
                found.append(p)
        for i in scan:
            outcomes[i] = SearchOutcome(answer="unknown" if truncated else "no",
                                        checked_count=checked)

    if supports:
        # Each problem counts the pairs its own predicate accepts, so its
        # count is the one it gets alone; a pair no pending problem can
        # use is never decided.
        pairs_seen = dict.fromkeys(supports, 0)
        miss = "no"

        def wanted(rows: Support, cols: Support) -> bool:
            return any(_support_predicate(inst, rows, cols)
                       for inst in supports.values())

        try:
            for rows, cols, witness in _support_pairs(game, eps, budget, False,
                                                      wanted):
                for i, inst in list(supports.items()):
                    if not _support_predicate(inst, rows, cols):
                        continue
                    pairs_seen[i] += 1
                    if witness is not None:
                        outcomes[i] = SearchOutcome(answer="yes", witness=witness,
                                                    checked_count=pairs_seen[i])
                        del supports[i]
                if not supports:
                    break
        except ResourceError:
            # Raised before the first support pair: the pairs exceed the budget.
            miss = "unknown"
        for i in supports:
            outcomes[i] = SearchOutcome(answer=miss, checked_count=pairs_seen[i])
    return outcomes


def _predicate(
    inst: DecisionInstance,
    p: MixedProfile,
    row_pay: Fraction | None = None,
    col_pay: Fraction | None = None,
) -> bool:
    """The Table predicate of every problem but 3, on a profile known to be
    an eps-NE (problems 1-6) or eps-WSNE (7-10) of the game.  Problems 1,
    5 and 6 read the profile's payoffs ``row_pay`` and ``col_pay``."""
    pid = inst.problem_id
    if pid == 1:
        return min(row_pay, col_pay) >= inst.u
    if pid == 2:
        return set(p.support_x) <= set(inst.index_set)
    if pid == 4:
        return max(p.x) <= inst.p
    if pid == 5:
        return row_pay + col_pay <= inst.v
    if pid == 6:
        return row_pay <= inst.u
    return _support_predicate(inst, p.support_x, p.support_y)


def _support_predicate(
    inst: DecisionInstance, rows: Sequence[int], cols: Sequence[int]
) -> bool:
    """The predicate of problems 7-10, which reads only the supports: a
    support-pair witness has supports exactly (rows, cols)."""
    pid = inst.problem_id
    if pid == 7:
        return len(rows) + len(cols) >= 2 * inst.k
    if pid == 8:
        return min(len(rows), len(cols)) >= inst.k
    if pid == 9:
        return len(rows) >= inst.k
    if pid == 10:
        return set(inst.index_set) <= set(rows)
    raise ValidationError(f"problem {pid} has no single-profile predicate")
