from __future__ import annotations

import dataclasses
import decimal
import gc
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negadget import formats, games, linsolve, pipeline, search
from negadget.corpus import (
    capped_base_games, random_game, random_planted_game, unsatisfiable_fixtures,
)
from negadget.errors import (
    InvariantError, ParameterError, ResourceError, ShapeError, ValidationError
)
from negadget.games import (
    BimatrixGame,
    MixedProfile,
    is_eps_ne,
    is_eps_wsne,
    pure_profile,
    regret_report,
    tv_distance,
)
from negadget.gadget import (
    build_hardness_game,
    derive_params,
    extend_gdoubleprime,
    extend_gprime,
    extend_profile,
    half_subsets,
    rescale_game,
)
from negadget.linsolve import simplex_maximize
from negadget.provers import game_value, uniformity_gap
from negadget.sat import (
    build_clause_variable_free_game, formula_degree, incidence_graph,
    max_sat, partition_bipartite, reduce_to_free_game,
)
from negadget.search import (
    DecisionInstance,
    decide,
    decide_many,
    default_k,
    enumerate_wsne_supports,
    k_uniform_count,
    k_uniform_strategies,
    lmm_best_welfare,
    wsne_support_feasible,
)

from oracles import (
    c_transposed,
    dot,
    exhaustive_ne_oracle,
    grid_eps_ne,
    int_lines_per_cell,
    integer_scan_per_candidate,
    multiset_rank_reference,
    multiset_side_per_member,
    one_side_lp_reference,
    pairs_in_order,
    simplex_full_tableau,
    solve_linear,
    support_per_entry,
    tv_distance_per_entry,
)
from test_golden import UNSAT_WIDE, _dimacs

F = Fraction

MATCHING_PENNIES = BimatrixGame(R=((1, 0), (0, 1)), C=((0, 1), (1, 0)))
COORDINATION = BimatrixGame(R=((1, 0), (0, 1)), C=((1, 0), (0, 1)))


def solve_with_pivots(c, a_ub, b_ub):
    """simplex_maximize's (status, value, x), then its pivots as
    (entering, leaving) variables, as `simplex_full_tableau` returns them."""
    pivots = []
    real_pivot = linsolve._pivot

    def recorded(dic, basis, cobasis, d, row, col):
        pivots.append((cobasis[col], basis[row]))
        return real_pivot(dic, basis, cobasis, d, row, col)

    with mock.patch.object(linsolve, "_pivot", recorded):
        return (*simplex_maximize(c, a_ub, b_ub), pivots)


def spy_int_lines(monkeypatch, game):
    """The integer lines of ``game`` that `games.IntLines` builds, in
    order, as ("C row", i) or ("R col", j)."""
    built = []
    real = games.IntLines.__missing__

    def spy(lines, t):
        built.append(("C row" if lines.read.__name__ == "c_row" else "R col", t))
        return real(lines, t)

    monkeypatch.setattr(games.IntLines, "__missing__", spy)
    return built


def cleared_lp(c, a_ub, b_ub):
    """A rational LP as the integer LP `simplex_maximize` takes: the rows
    and right-hand sides over one denominator, c over its own, K.  Returns
    (c, a_ub, b_ub, K): the same feasible region and optimal x, with the
    optimum K times the rational one."""
    rows, _ = games.cleared([[*row, b] for row, b in zip(a_ub, b_ub)])
    [c_int], scale = games.cleared([c])
    return c_int, [row[:-1] for row in rows], [row[-1] for row in rows], scale


class TestLinsolve:
    def test_unique_solution(self):
        sol = solve_linear([[F(2), F(0)], [F(0), F(4)]], [F(2), F(2)])
        assert sol == [F(1), F(1, 2)]

    def test_singular(self):
        assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None

    def test_simplex_basic(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6
        status, value, x = simplex_maximize(
            [1, 1],
            a_ub=[[1, 2], [3, 1]],
            b_ub=[4, 6],
        )
        assert status == "optimal"
        assert value == F(14, 5)

    def test_simplex_unbounded(self):
        status, _, _ = simplex_maximize([1], a_ub=[[-1]], b_ub=[0])
        assert status == "unbounded"

    def test_negative_rhs_rejected(self):
        with pytest.raises(ParameterError):
            simplex_maximize([1], a_ub=[[1], [-1]], b_ub=[1, -1])

    @pytest.mark.parametrize("a_ub, b_ub", [
        ([[1], [2]], [1]),
        ([[1]], [1, 2]),
        ([[1, 0]], [1]),
    ])
    def test_shape_mismatch_rejected(self, a_ub, b_ub):
        with pytest.raises(ShapeError):
            simplex_maximize([1], a_ub=a_ub, b_ub=b_ub)

    @pytest.mark.parametrize("c, a_ub, b_ub", [
        ([1.5], [[1]], [1]),
        ([1, 1], [[1, 0.5]], [1]),
        ([1], [[1]], [2.0]),
        ([1], [[1]], [float("nan")]),
    ], ids=["c", "a_ub", "b_ub", "nan"])
    def test_float_entry_rejected(self, c, a_ub, b_ub):
        with pytest.raises(ParameterError, match="expects ints, got float"):
            simplex_maximize(c, a_ub, b_ub)

    @pytest.mark.parametrize("c, a_ub, b_ub, kind", [
        ([F(1, 2)], [[1]], [1], "Fraction"),
        ([1], [[F(2)]], [1], "Fraction"),
        ([1], [[1]], [F(1)], "Fraction"),
        ([1], [[True]], [1], "bool"),
        ([1], [[decimal.Decimal(1)]], [1], "Decimal"),
    ])
    def test_non_int_entry_rejected_before_any_pivot(self, c, a_ub, b_ub, kind):
        # An entry must be an int as given, even one equal to an integer.
        pivoted = AssertionError("pivoted before the type check")
        with mock.patch.object(linsolve, "_pivot", side_effect=pivoted), \
                pytest.raises(ParameterError, match=f"expects ints, got {kind} "):
            simplex_maximize(c, a_ub, b_ub)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_compact_dictionary_matches_full_tableau(self, data):
        # Degenerate LPs on purpose: zero right-hand sides and repeated
        # rows give ratio ties, which Bland's lowest-basis-index rule breaks.
        n = data.draw(st.integers(1, 5))
        entry = st.one_of(st.integers(-3, 3),
                          st.builds(F, st.integers(-4, 4), st.integers(1, 3)))
        row = st.lists(entry, min_size=n, max_size=n)
        c = data.draw(row)
        a_ub, b_ub = [], []
        for _ in range(data.draw(st.integers(0, 8))):
            if a_ub and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(a_ub) - 1))
                a_ub.append(a_ub[i])
                b_ub.append(b_ub[i])
            else:
                a_ub.append(data.draw(row))
                b_ub.append(data.draw(st.sampled_from([0, 0, 1, 2, F(1, 2)])))
        status, value, x, pivots = simplex_full_tableau(c, a_ub, b_ub)
        c_int, a_int, b_int, scale = cleared_lp(c, a_ub, b_ub)
        assert solve_with_pivots(c_int, a_int, b_int) == (
            status, None if value is None else value * scale, x, pivots)

    def test_entering_is_lowest_variable_not_lowest_column(self):
        # After x0 and x1 enter, slack 4 holds column 0 and x2 column 2, both
        # with a negative objective entry; Bland's rule takes x2, unbounded.
        lp = ([1, 3, 3], [[3, 3, -1], [3, -1, 0]], [3, 2])
        assert solve_with_pivots(*lp) == simplex_full_tableau(*lp) == (
            "unbounded", None, None, [(0, 4), (1, 3)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_simplex_matches_vertex_enumeration(self, data):
        n = data.draw(st.integers(1, 3))
        small = st.integers(-3, 3)
        row = st.lists(small, min_size=n, max_size=n)
        c = data.draw(row)
        a_ub, b_ub = [], []
        for _ in range(data.draw(st.integers(0, 3))):
            a_ub.append(data.draw(row))
            b_ub.append(data.draw(st.integers(0, 4)))
        bound = data.draw(st.integers(1, 3))
        for i in range(n):
            a_ub.append([int(k == i) for k in range(n)])
            b_ub.append(bound)

        # Bland's rule never cycles: no basis is visited twice.
        seen = set()

        def pivot_once_per_basis(dic, basis, cobasis, d, row, col):
            pivot = real_pivot(dic, basis, cobasis, d, row, col)
            assert frozenset(basis) not in seen
            seen.add(frozenset(basis))
            return pivot

        real_pivot = linsolve._pivot
        with mock.patch.object(linsolve, "_pivot", pivot_once_per_basis):
            status, value, x = simplex_maximize(c, a_ub, b_ub)

        # Reference: the box makes the region a polytope that holds the
        # origin, so its optimum sits at a vertex, where n of the
        # constraints are tight.
        def feasible(p):
            return all(v >= 0 for v in p) and all(
                dot(r, p) <= b for r, b in zip(a_ub, b_ub)
            )

        tight = list(zip(a_ub, b_ub)) + [
            ([int(k == i) for k in range(n)], 0) for i in range(n)
        ]
        vertices = []
        for chosen in itertools.combinations(tight, n):
            p = solve_linear([[F(a) for a in r] for r, _ in chosen],
                             [F(b) for _, b in chosen])
            if p is not None and feasible(p):
                vertices.append(p)
        assert status == "optimal"
        assert value == max(dot(c, p) for p in vertices)
        assert feasible(x)
        assert value == dot(c, x)


class TestKUniform:
    def test_pure(self):
        assert list(k_uniform_strategies(2, 1)) == [(1, 0), (0, 1)]

    def test_n2_k2(self):
        assert list(k_uniform_strategies(2, 2)) == [
            (1, 0),
            (F(1, 2), F(1, 2)),
            (0, 1),
        ]

    def test_count(self):
        assert len(list(k_uniform_strategies(3, 2))) == 6
        assert k_uniform_count(3, 2) == 6

    @pytest.mark.parametrize("n, k", [(0, 1), (2, 0), (2, -1)])
    def test_count_rejects_below_one(self, n, k):
        # comb(n + k - 1, k) alone raises ValueError for k < 0.
        with pytest.raises(ParameterError):
            k_uniform_count(n, k)

    def test_default_k(self):
        assert default_k(4, F(1, 2)) == 8
        assert default_k(4, 0) == 8
        assert default_k(2, 1) == 1

    def test_default_k_matches_integer_powers(self):
        # k*(p/q)^2 >= log2(n) exactly when 2**(k*p*p) >= n**(q*q).
        for q in range(1, 7):
            for p in range(3 * q):
                for n in range(1, 40):
                    want = next((k for k in range(1, 8)
                                 if 2 ** (k * p * p) >= max(n, 2) ** (q * q)), 8)
                    assert default_k(n, F(p, q)) == want, (n, p, q)

    def test_log2_comparison_near_convergents(self):
        # Convergents a/d of log2(3) lie within 1/d**2 of it, alternately
        # below and above; the deep ones need more than 64 bits of bounds.
        with decimal.localcontext() as ctx:
            ctx.prec = 100
            log2_3 = decimal.Decimal(3).ln() / decimal.Decimal(2).ln()
            x, (a0, a1), (d0, d1) = log2_3, (0, 1), (1, 0)
            for _ in range(45):
                whole = int(x)
                a0, a1, d0, d1 = a1, whole * a1 + a0, d1, whole * d1 + d0
                x = 1 / (x - whole)
                assert search._at_least_log2(F(a1, d1), 3) == (
                    decimal.Decimal(a1) / d1 >= log2_3
                )

    def test_default_k_extreme_eps(self):
        # float(eps * eps) would underflow to 0 and overflow respectively.
        assert default_k(4, F(1, 10**200)) == 8
        assert default_k(4, F(10**200)) == 1


class TestLmm:
    def test_coordination_pure(self):
        out = lmm_best_welfare(COORDINATION, 0, 1)
        assert out.answer == "yes"
        assert regret_report(COORDINATION, out.witness).welfare == 2

    def test_matching_pennies_uniform(self):
        out = lmm_best_welfare(MATCHING_PENNIES, 0, 2)
        assert out.answer == "yes"
        assert regret_report(MATCHING_PENNIES, out.witness).welfare == 1
        assert out.witness.x == (F(1, 2), F(1, 2))

    def test_no_pure_zero_ne(self):
        out = lmm_best_welfare(MATCHING_PENNIES, 0, 1)
        assert out.answer == "no"

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            lmm_best_welfare(MATCHING_PENNIES, 0, -1)

    def test_negative_eps_rejected(self):
        # As DecisionInstance rejects it: no eps-NE exists below 0, so a
        # scan would answer a silent "no".
        with pytest.raises(ValidationError, match="eps must be nonnegative"):
            lmm_best_welfare(MATCHING_PENNIES, F(-1, 4), 2)

    def test_budget_unknown(self):
        out = lmm_best_welfare(MATCHING_PENNIES, 1, 2, budget=3)
        assert out.answer == "unknown"
        assert out.witness is not None  # partial best attached

    def test_certificate_is_k_uniform(self, single_build, params):
        gs = rescale_game(single_build.gadget)
        k = single_build.build.game.nx
        out = lmm_best_welfare(gs, params.eps_star, k, budget=10**5)
        assert out.answer == "yes"
        assert regret_report(gs, out.witness).welfare >= F(10, 8)

    def test_monotone_in_eps_and_k(self):
        rng = random.Random(3)
        game = random_game(rng, 3, 3)

        def value(eps, k):
            out = lmm_best_welfare(game, eps, k)
            if out.witness is None:
                return None
            return regret_report(game, out.witness).welfare

        v_half = value(F(1, 2), 2)
        v_one = value(1, 2)
        if v_half is not None:
            assert v_one >= v_half


class TestWsneSupports:
    def test_pennies_uniform_support(self):
        witness = wsne_support_feasible(MATCHING_PENNIES, (0, 1), (0, 1), 0)
        assert witness is not None
        assert is_eps_wsne(MATCHING_PENNIES, witness, 0)

    def test_side_lps_build_only_the_support_lines(self, monkeypatch):
        # The row side reads R's columns in cols, the column side C's rows
        # in rows; no other line of the 3x4 game is built.
        game = BimatrixGame(R=[[int(i == j) for j in range(4)] for i in range(3)],
                            C=[[int(i == j) for j in range(4)] for i in range(3)])
        built = spy_int_lines(monkeypatch, game)
        witness = wsne_support_feasible(game, (0, 1), (0, 1), 0)
        assert witness is not None and is_eps_wsne(game, witness, 0)
        assert built == [("R col", 0), ("R col", 1), ("C row", 0), ("C row", 1)]

    @staticmethod
    def _wrong_lp(c, a_ub, b_ub):
        """A positive q that sums to 1 but is no optimum: q_j in proportion to j + 1."""
        m = len(c) - 1
        q = [F(j + 1, m * (m + 1) // 2) for j in range(m)]
        return "optimal", q[0], q + [q[0]]

    @pytest.mark.parametrize("eps, strict, stands", [
        (0, False, False), (F(1, 3), True, False), (F(1, 3), False, True),
    ])
    def test_lp_witness_rechecked_by_the_oracle(self, monkeypatch, eps, strict, stands):
        # Matching pennies' only LPs are the full support's; the wrong q,
        # (1/3, 2/3) on both sides, leaves pure regrets of exactly 1/3.
        monkeypatch.setattr(search, "simplex_maximize", self._wrong_lp)
        if stands:
            [p] = enumerate_wsne_supports(MATCHING_PENNIES, eps, strict=strict)
            assert p.x == p.y == (F(1, 3), F(2, 3))
            return
        with pytest.raises(InvariantError, match="disagree on a witness"):
            list(enumerate_wsne_supports(MATCHING_PENNIES, eps, strict=strict))
        if not strict:
            p7 = DecisionInstance(problem_id=7, game=MATCHING_PENNIES, eps=eps, k=1)
            with pytest.raises(InvariantError, match="disagree on a witness"):
                decide(p7)

    def test_lp_side_that_is_no_distribution_is_an_invariant_error(self, monkeypatch):
        def doubled(c, a_ub, b_ub):
            status, value, q = self._wrong_lp(c, a_ub, b_ub)
            return status, value, [2 * v for v in q]

        monkeypatch.setattr(search, "simplex_maximize", doubled)
        with pytest.raises(InvariantError, match="not a distribution") as err:
            list(enumerate_wsne_supports(MATCHING_PENNIES, 0))
        assert isinstance(err.value.__cause__, ValidationError)

    def test_pennies_pure_support_infeasible(self):
        assert wsne_support_feasible(MATCHING_PENNIES, (0,), (0,), 0) is None

    @pytest.mark.parametrize("rows, cols", [
        ((5,), (0,)), ((-1,), (0,)), ((0,), (2,)), ((0,), (-1, 0)),
    ])
    def test_support_out_of_range_rejected(self, rows, cols):
        with pytest.raises(ValidationError):
            wsne_support_feasible(MATCHING_PENNIES, rows, cols, 0)

    @pytest.mark.parametrize("rows, cols", [
        ([0.0], [0]), ([True], [0]), ([0], [False, 1]), ([0], [F(1)]), ([0], ["1"]),
    ])
    def test_non_int_support_index_rejected(self, rows, cols):
        with mock.patch.object(search, "simplex_maximize") as lp:
            with pytest.raises(ValidationError, match="support indices must be ints"):
                wsne_support_feasible(MATCHING_PENNIES, rows, cols, 0)
        lp.assert_not_called()

    def test_non_iterable_support_rejected(self):
        # Not a bare TypeError from the sort.
        with pytest.raises(ValidationError, match="^support indices must be ints "
                                                  "in an iterable, got 5$"):
            wsne_support_feasible(MATCHING_PENNIES, 5, [0], 0)

    def test_negative_eps_rejected(self):
        # As decide and lmm_best_welfare do, not a silent "no".
        with mock.patch.object(search, "simplex_maximize") as lp:
            with pytest.raises(ValidationError, match="^eps must be nonnegative$"):
                list(enumerate_wsne_supports(COORDINATION, -1))
            with pytest.raises(ValidationError, match="^eps must be nonnegative$"):
                wsne_support_feasible(COORDINATION, [0], [0], -1)
            with pytest.raises(ValidationError, match="^eps must be nonnegative$"):
                list(enumerate_wsne_supports(COORDINATION, F(-1, 8), strict=True))
        lp.assert_not_called()

    def test_arguments_checked_when_called(self):
        # Not at the first next(), as decide_many checks them at once.
        with pytest.raises(ValidationError, match="^eps must be nonnegative$"):
            enumerate_wsne_supports(COORDINATION, -1, budget=-5)
        with pytest.raises(ParameterError, match="^budget must be at least 0, got -5$"):
            enumerate_wsne_supports(COORDINATION, 0, budget=-5)
        # The pair count is the walk's: it comes at the first next().
        pairs = enumerate_wsne_supports(MATCHING_PENNIES, 0, budget=2)
        with pytest.raises(ResourceError):
            next(pairs)

    def test_pair_count_too_long_to_print(self):
        # (2^1 - 1)(2^14300 - 1) pairs: str() of the count would raise.
        game = BimatrixGame(R=((0,) * 14300,), C=((0,) * 14300,))
        with pytest.raises(ResourceError, match=(
                r"^at least 2\^14299 support pairs exceed budget 4194304$")):
            list(enumerate_wsne_supports(game, F(1, 8)))

    def test_enumeration_finds_all_coordination(self):
        found = list(enumerate_wsne_supports(COORDINATION, 0))
        supports = {(p.support_x, p.support_y) for p in found}
        assert ((0,), (0,)) in supports
        assert ((1,), (1,)) in supports
        assert ((0, 1), (0, 1)) in supports

    def test_budget(self):
        with pytest.raises(ResourceError):
            list(enumerate_wsne_supports(MATCHING_PENNIES, 0, budget=2))

    def test_witnesses_verify(self):
        rng = random.Random(9)
        for _ in range(5):
            game = random_game(rng, 3, 3)
            for witness in enumerate_wsne_supports(game, F(1, 4)):
                assert is_eps_wsne(game, witness, F(1, 4))

    def test_strict_excludes_boundary_support(self):
        # Row 1 trails the best row by exactly 1/4: its support is
        # feasible at eps=1/4 under the weak (<=) reading but not
        # strictly.
        game = BimatrixGame(R=((1,), (F(3, 4),)), C=((0,), (0,)))
        assert wsne_support_feasible(game, (1,), (0,), F(1, 4)) is not None
        assert (
            wsne_support_feasible(game, (1,), (0,), F(1, 4), strict=True)
            is None
        )
        assert (
            wsne_support_feasible(game, (0,), (0,), F(1, 4), strict=True)
            is not None
        )

    def test_strict_subset_of_weak(self):
        rng = random.Random(13)
        for _ in range(5):
            game = random_game(rng, 3, 3)
            weak = {
                (p.support_x, p.support_y)
                for p in enumerate_wsne_supports(game, F(1, 4))
            }
            strict = {
                (p.support_x, p.support_y)
                for p in enumerate_wsne_supports(game, F(1, 4), strict=True)
            }
            assert strict <= weak


class TestOracle:
    def test_matching_pennies_unique(self):
        out = exhaustive_ne_oracle(MATCHING_PENNIES, grid=4)
        assert len(out) == 1
        assert out[0].x == (F(1, 2), F(1, 2))

    def test_coordination_three(self):
        out = exhaustive_ne_oracle(COORDINATION, grid=4)
        assert len(out) == 3

    def test_one_by_one(self):
        game = BimatrixGame(R=((1,),), C=((1,),))
        out = exhaustive_ne_oracle(game, grid=2)
        assert len(out) == 1

    def test_all_zero_regret(self):
        rng = random.Random(21)
        for _ in range(5):
            game = random_game(rng, 3, 3)
            for p in exhaustive_ne_oracle(game, grid=3):
                rep = regret_report(game, p)
                assert rep.row_regret == 0 and rep.col_regret == 0

    def test_size_cap(self):
        rng = random.Random(22)
        with pytest.raises(ResourceError):
            exhaustive_ne_oracle(random_game(rng, 6, 6))


class TestDecide:
    def test_p1_coordination(self):
        inst = DecisionInstance(
            problem_id=1, game=COORDINATION, eps=0, u=1
        )
        out = decide(inst, k=1)
        assert out.answer == "yes"
        assert is_eps_ne(COORDINATION, out.witness, 0)

    def test_p2_support_restriction(self):
        inst = DecisionInstance(
            problem_id=2, game=COORDINATION, eps=0, index_set=(1,)
        )
        out = decide(inst, k=1)
        assert out.answer == "yes"
        assert out.witness.support_x == (1,)

    def test_p3_two_far_apart(self):
        inst = DecisionInstance(problem_id=3, game=COORDINATION, eps=0, d=1)
        out = decide(inst, k=1)
        assert out.answer == "yes"
        p1, p2 = out.witness_pair
        assert tv_distance(p1, p2) >= 1

    def test_p3_no_far_pair_in_pennies(self):
        inst = DecisionInstance(
            problem_id=3, game=MATCHING_PENNIES, eps=0, d=F(1, 2)
        )
        assert decide(inst, k=2).answer == "no"

    def test_p4_small_max_probability(self):
        inst = DecisionInstance(
            problem_id=4, game=MATCHING_PENNIES, eps=0, p=F(1, 2)
        )
        out = decide(inst, k=2)
        assert out.answer == "yes"
        assert max(out.witness.x) <= F(1, 2)

    def test_p5_low_welfare(self):
        inst = DecisionInstance(problem_id=5, game=COORDINATION, eps=0, v=F(3, 2))
        out = decide(inst, k=2)
        assert out.answer == "yes"
        assert regret_report(COORDINATION, out.witness).welfare <= F(3, 2)

    def test_p6_low_row_payoff(self):
        inst = DecisionInstance(
            problem_id=6, game=MATCHING_PENNIES, eps=0, u=F(1, 2)
        )
        assert decide(inst, k=2).answer == "yes"

    def test_p7_p8_p9_supports(self):
        for pid in (7, 8, 9):
            inst = DecisionInstance(
                problem_id=pid, game=MATCHING_PENNIES, eps=0, k=2
            )
            out = decide(inst)
            assert out.answer == "yes"
            assert is_eps_wsne(MATCHING_PENNIES, out.witness, 0)

    def test_p9_large_support_impossible(self):
        game = BimatrixGame(R=((1, 1), (0, 0)), C=((1, 1), (1, 1)))
        inst = DecisionInstance(problem_id=9, game=game, eps=0, k=2)
        assert decide(inst).answer == "no"

    def test_p10_membership(self):
        inst = DecisionInstance(
            problem_id=10, game=COORDINATION, eps=0, index_set=(1,)
        )
        out = decide(inst)
        assert out.answer == "yes"
        assert 1 in out.witness.support_x

    def test_hint_short_circuits(self):
        hint = MixedProfile(x=(1, 0), y=(1, 0))
        inst = DecisionInstance(problem_id=1, game=COORDINATION, eps=0, u=1)
        out = decide(inst, k=1, hints=[hint])
        assert out.answer == "yes" and out.checked_count == 0

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValidationError):
            DecisionInstance(problem_id=1, game=COORDINATION, eps=0, u=2)
        with pytest.raises(ValidationError):
            DecisionInstance(problem_id=5, game=COORDINATION, eps=0, v=2)
        with pytest.raises(ValidationError):
            DecisionInstance(problem_id=6, game=COORDINATION, eps=0, u=1)
        with pytest.raises(ValidationError):
            DecisionInstance(problem_id=4, game=COORDINATION, eps=0, p=1)

    @pytest.mark.parametrize("name", ["eps", "u"])
    def test_float_parameter_rejected(self, name):
        # 0.1 is 3602879701896397/36028797018963968, not 1/10.
        params = {"eps": 0, "u": 1, name: 0.1}
        with pytest.raises(ParameterError, match="got float 0.1"):
            DecisionInstance(problem_id=1, game=COORDINATION, **params)

    # problem id -> (parameter, an out-of-range value and its message,
    # an accepted boundary value)
    # A k out of range is a count out of range, as the scan's k is.
    PARAMETERS = {
        1: ("u", F(0), ValidationError, "problem 1 requires u in (0, 1]", F(1)),
        2: ("index_set", (2,), ValidationError, "index set out of row range", (1,)),
        3: ("d", F(0), ValidationError, "problem 3 requires d in (0, 1]", F(1)),
        4: ("p", F(1), ValidationError, "problem 4 requires p in (0, 1)",
            F(999, 1000)),
        5: ("v", F(2), ValidationError, "problem 5 requires v in [0, 2)", F(0)),
        6: ("u", F(1), ValidationError, "problem 6 requires u in [0, 1)", F(0)),
        7: ("k", 0, ParameterError, "k must be at least 1, got 0", 1),
        8: ("k", 0, ParameterError, "k must be at least 1, got 0", 1),
        9: ("k", 0, ParameterError, "k must be at least 1, got 0", 1),
        10: ("index_set", (-1,), ValidationError, "index set out of row range", (0,)),
    }

    @pytest.mark.parametrize("pid", range(1, 11))
    def test_parameter_table(self, pid):
        name, bad, error, message, edge = self.PARAMETERS[pid]
        with pytest.raises(ValidationError) as missing:
            DecisionInstance(problem_id=pid, game=COORDINATION, eps=0)
        assert str(missing.value) == f"problem {pid} requires parameter {name!r}"
        with pytest.raises(error) as out_of_range:
            DecisionInstance(problem_id=pid, game=COORDINATION, eps=0, **{name: bad})
        assert str(out_of_range.value) == message
        inst = DecisionInstance(problem_id=pid, game=COORDINATION, eps=0,
                                **{name: edge})
        assert getattr(inst, name) == edge
        assert inst.witness_kind == ("NE" if pid <= 6 else "WSNE")
        # eps is checked before the parameter.
        with pytest.raises(ValidationError, match="^eps must be nonnegative$"):
            DecisionInstance(problem_id=pid, game=COORDINATION, eps=-1)

    @pytest.mark.parametrize("pid", [2, 10])
    def test_index_set_errors_and_normal_form(self, pid):
        def make(index_set):
            return DecisionInstance(problem_id=pid, game=COORDINATION, eps=0,
                                    index_set=index_set)

        with pytest.raises(ValidationError, match="^index set must be nonempty$"):
            make(())
        for bad in ((0, 2), (-1, 0)):
            with pytest.raises(ValidationError,
                               match="^index set out of row range$"):
                make(bad)
        assert make((1, 0, 1)).index_set == (0, 1)

    @pytest.mark.parametrize("pid", [2, 10])
    @pytest.mark.parametrize("index_set", [(0.5,), (True,), (1.0,), ("0",), (0, F(1))])
    def test_non_int_index_set_rejected(self, pid, index_set):
        # Else each reads as a "no", as row 1, or raises a bare TypeError.
        with pytest.raises(ValidationError, match="index set entries must be ints"):
            DecisionInstance(problem_id=pid, game=MATCHING_PENNIES, eps=0,
                             index_set=index_set)

    def test_non_iterable_index_set_rejected(self):
        with pytest.raises(ValidationError, match="^index set entries must be ints "
                                                  "in an iterable, got 5$"):
            DecisionInstance(problem_id=2, game=MATCHING_PENNIES, eps=0, index_set=5)

    def test_unknown_problem_rejected(self):
        # 3.0 and True were decided as problems 3 and 1.
        for pid in (0, 11, 3.0, True):
            with pytest.raises(ValidationError,
                               match=f"^unknown problem id {pid}$"):
                DecisionInstance(problem_id=pid, game=COORDINATION, eps=0, u=1)

    def test_p3_permutation_symmetry(self):
        rng = random.Random(31)
        for _ in range(5):
            game = random_game(rng, 3, 3)
            perm = [0, 1, 2]
            rng.shuffle(perm)
            permuted = BimatrixGame(
                R=tuple(tuple(game.R[i][j] for j in perm) for i in perm),
                C=tuple(tuple(game.C[i][j] for j in perm) for i in perm),
            )
            for g1, g2 in ((game, permuted),):
                a1 = decide(
                    DecisionInstance(problem_id=3, game=g1, eps=F(1, 4), d=F(1, 2)),
                    k=2,
                ).answer
                a2 = decide(
                    DecisionInstance(problem_id=3, game=g2, eps=F(1, 4), d=F(1, 2)),
                    k=2,
                ).answer
                assert a1 == a2

    def test_lmm_existence_floor(self):
        # For eps >= 1/2 a 2-uniform witness always exists on small games.
        rng = random.Random(41)
        for _ in range(10):
            game = random_game(rng, 3, 3)
            out = lmm_best_welfare(game, F(1, 2), 2)
            assert out.answer == "yes"


class TestGridSearch:
    def test_grid_eps_ne_uniform_found(self):
        found = grid_eps_ne(MATCHING_PENNIES, 2, 0)
        assert any(p.x == (F(1, 2), F(1, 2)) for p in found)


def _reference_hits(game, eps, k, budget):
    """Brute force: every eps-NE among the first ``budget`` k-uniform
    candidates as (index, profile, report), the candidates checked, and
    whether the budget cut the family short."""
    pairs = [
        (x, y)
        for x in k_uniform_strategies(game.rows, k)
        for y in k_uniform_strategies(game.cols, k)
    ]
    hits = []
    for index, (x, y) in enumerate(pairs[:budget]):
        p = MixedProfile(x=x, y=y)
        rep = regret_report(game, p)
        if rep.within(eps):
            hits.append((index, p, rep))
    return hits, min(len(pairs), budget), len(pairs) > budget


def _scan_budget(k, budget):
    """The candidates `decide` and `lmm_best_welfare` may check: none when
    k, the indices one size-k candidate holds a side, exceeds the budget."""
    return 0 if k > budget else budget


_QUARTERS = st.sampled_from([F(i, 4) for i in range(5)])


@st.composite
def _small_games(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.lists(
        st.lists(_QUARTERS, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )
    return BimatrixGame(R=draw(cells), C=draw(cells))


class TestScanMatchesBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(
        game=_small_games(),
        k=st.integers(1, 3),
        eps=st.sampled_from([F(0), F(1, 4), F(1, 2)]),
        budget=st.integers(1, 120),
        threshold=st.sampled_from([F(1, 4), F(1, 2), F(2, 3), F(1)]),
        index_set=st.sets(st.integers(0, 2), min_size=1),
        d=st.sampled_from([F(1, 2), F(2, 3), F(1)]),
    )
    def test_lmm_and_decide_agree_with_regret_report(
        self, game, k, eps, budget, threshold, index_set, d
    ):
        hits, checked, truncated = _reference_hits(
            game, eps, k, _scan_budget(k, budget)
        )
        miss = "unknown" if truncated else "no"

        out = lmm_best_welfare(game, eps, k, budget=budget)
        assert out.checked_count == checked
        if hits:
            best = max(rep.welfare for _, _, rep in hits)
            first_best = next(p for _, p, rep in hits if rep.welfare == best)
            assert out.answer == ("unknown" if truncated else "yes")
            assert out.witness == first_best
        else:
            assert (out.answer, out.witness) == (miss, None)

        cap = min(threshold, F(2, 3))  # problems 4 and 6 need p, u < 1
        rows = {r % game.rows for r in index_set}
        predicates = {
            1: ({"u": threshold},
                lambda p, rep: min(rep.row_payoff, rep.col_payoff) >= threshold),
            2: ({"index_set": rows},
                lambda p, rep: set(support_per_entry(p.x)) <= rows),
            4: ({"p": cap}, lambda p, rep: max(p.x) <= cap),
            5: ({"v": threshold}, lambda p, rep: rep.welfare <= threshold),
            6: ({"u": cap}, lambda p, rep: rep.row_payoff <= cap),
        }
        for pid, (param, holds) in predicates.items():
            inst = DecisionInstance(problem_id=pid, game=game, eps=eps, **param)
            out = decide(inst, k=k, budget=budget)
            first = next(((i, p) for i, p, rep in hits if holds(p, rep)), None)
            if first is None:
                assert (out.answer, out.witness, out.checked_count) == (
                    miss, None, checked
                )
            else:
                index, p = first
                assert (out.answer, out.witness, out.checked_count) == (
                    "yes", p, index + 1
                )

        # Problem 3: the first hit with a far-apart earlier hit, paired
        # with the first such earlier hit.  A d above 1/k leaves some
        # earlier hits near, so the first far one is not just any.
        out = decide(DecisionInstance(problem_id=3, game=game, eps=eps, d=d),
                     k=k, budget=budget)
        pair = next(((q, p, index) for j, (index, p, _) in enumerate(hits)
                     for _, q, _ in hits[:j]
                     if tv_distance_per_entry(q, p) >= d), None)
        if pair is None:
            assert (out.answer, out.witness_pair, out.checked_count) == (
                miss, None, checked
            )
        else:
            q, p, index = pair
            assert (out.answer, out.witness, out.witness_pair,
                    out.checked_count) == ("yes", q, (q, p), index + 1)


@st.composite
def _integer_scan_cases(draw):
    """A game up to 3x4 with negative entries and mixed denominators, k, a
    budget, and an eps that is either some candidate's regret exactly or
    has a denominator prime to every payoff denominator."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    cells = st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    game = BimatrixGame(R=draw(cells), C=draw(cells))
    k = draw(st.integers(1, 3))
    pairs = list(itertools.product(
        k_uniform_strategies(rows, k), k_uniform_strategies(cols, k)
    ))
    budget = draw(st.integers(1, len(pairs)))
    x, y = draw(st.sampled_from(pairs[:budget]))
    rep = regret_report(game, MixedProfile(x=x, y=y))
    on_regret = st.just(max(rep.row_regret, rep.col_regret))
    coprime = st.builds(F, st.integers(0, 40), st.sampled_from([5, 7, 11, 25]))
    return game, draw(on_regret | coprime), k, budget


class TestIntegerScanMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=_integer_scan_cases())
    def test_scan_equals_regret_report_filter(self, case):
        game, eps, k, budget = case
        hits, _, _ = _reference_hits(game, eps, k, budget)
        unit = k * k * game.int_entries[2]
        scanned = []
        lines = games.int_lines(game)
        for index, xc, yc, row, col in search._integer_scan(game, lines, eps, k, budget):
            p = search._scan_witness(game, xc, yc, eps)
            scanned.append((index, p.x, p.y, F(row, unit), F(col, unit)))
        assert scanned == [
            (index, p.x, p.y, rep.row_payoff, rep.col_payoff)
            for index, p, rep in hits
        ]


@st.composite
def _pruned_scan_cases(draw):
    """A game up to 4x5 on a grid of nine payoffs, so best responses tie,
    with eps, k, and a budget of 0, 1, one that ends inside an x (when an x
    has more than one y), the family's size, or past it."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.sampled_from([F(i, 4) for i in range(-2, 7)])
    cells = st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    game = BimatrixGame(R=draw(cells), C=draw(cells))
    eps = draw(st.sampled_from([F(0), F(1, 8), F(31, 250), F(1, 2), F(1), F(3)]))
    k = draw(st.integers(1, 4))
    per_x = k_uniform_count(cols, k)
    total = k_uniform_count(rows, k) * per_x
    inside = draw(st.integers(0, total // per_x - 1)) * per_x + draw(
        st.integers(min(1, per_x - 1), per_x - 1))
    budget = draw(st.sampled_from([0, 1, inside, total, total + 3]))
    return game, eps, k, budget


class TestPrunedScanMatchesPerCandidate:
    @settings(max_examples=200, deadline=None)
    @given(case=_pruned_scan_cases())
    def test_same_hits_in_the_same_order(self, case):
        # The scan reads lines built on demand; the oracle takes the full
        # matrices cleared over the same L.
        game, eps, k, budget = case
        c_rows, r_cols, scale = games.int_lines(game)
        assert ([c_rows[i] for i in range(game.rows)],
                [r_cols[j] for j in range(game.cols)], scale) == int_lines_per_cell(game)
        hits = search._integer_scan(game, games.int_lines(game), eps, k, budget)
        assert list(hits) == list(
            integer_scan_per_candidate(eps, k, budget,
                                       *games.cleared(game.R, c_transposed(game))))

    @pytest.mark.parametrize("k, m", [(k, m) for k in range(1, 6) for m in range(1, 7)]
                             + [(k, m) for k in (12, 31, 60) for m in range(1, 4)])
    def test_multiset_rank_is_the_position(self, m, k):
        # Up to k = 60 a multiset over m <= 3 holds long runs of one member;
        # each last run reaches the end (k - t - c = 0), and where its member
        # is below m - 1 the run's second binomial is C(m-1-j, m-1-j) = 1.
        ranks = [search._multiset_rank(multiset_side_per_member(c), m)
                 for c in itertools.combinations_with_replacement(range(m), k)]
        assert ranks == list(range(k_uniform_count(m, k)))

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 50), data=st.data())
    def test_multiset_rank_matches_the_per_member_reference(self, m, data):
        # Runs of any length, up to k = 500: one pair of binomials per
        # distinct member against one binomial per member.
        c = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=500))
        c = tuple(sorted(c))
        assert search._multiset_rank(multiset_side_per_member(c), m) == (
            multiset_rank_reference(c, m))


def _assert_lmm_first_best_hit(game, eps, k, budget):
    """`lmm_best_welfare` answers as the brute force does: the lowest-index
    hit of the best welfare, with every candidate in the budget checked."""
    hits, checked, truncated = _reference_hits(game, eps, k, _scan_budget(k, budget))
    out = lmm_best_welfare(game, eps, k, budget=budget)
    if not hits:
        miss = "unknown" if truncated else "no"
        assert (out.answer, out.witness, out.checked_count) == (miss, None, checked)
        return
    best = max(rep.welfare for _, _, rep in hits)
    first = next(p for _, p, rep in hits if rep.welfare == best)
    assert (out.answer, out.witness, out.checked_count) == (
        "unknown" if truncated else "yes", first, checked
    )


class TestLmmIntegerWelfare:
    @settings(max_examples=150, deadline=None)
    @given(case=_integer_scan_cases())
    def test_first_maximum_welfare_equilibrium(self, case):
        # Signed entries with mixed denominators, so equal and near-equal
        # welfares come from payoffs with different denominators.
        _assert_lmm_first_best_hit(*case)

    def test_witness_rechecked_by_the_oracle(self, monkeypatch):
        monkeypatch.setattr(search, "is_eps_ne", lambda game, p, eps: False)
        with pytest.raises(InvariantError):
            lmm_best_welfare(COORDINATION, 0, 1)


@st.composite
def _ceiling_games(draw):
    """A game up to 4x4 with entries 0 and 1/2, so that welfares below the
    ceiling tie often, and one or two cells raised to (1, 1): each is a
    pure NE at the game's largest cell welfare, 2.  One is in the last
    row, so small budgets end before it; the other, if any, may come
    before or after it in index order."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.sampled_from([F(0), F(1, 2)])
    cells = st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    r, c = draw(cells), draw(cells)
    planted = [(rows - 1, draw(st.integers(0, cols - 1)))]
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    planted += draw(st.lists(cell, max_size=1))
    for i, j in planted:
        r[i][j] = c[i][j] = F(1)
    return BimatrixGame(R=r, C=c)


class TestLmmStopsAtCeiling:
    @settings(max_examples=200, deadline=None)
    @given(
        game=_ceiling_games(),
        eps=st.sampled_from([F(0), F(1, 4), F(1, 2)]),
        k=st.integers(1, 3),
        budget=st.integers(1, 120),
    )
    def test_same_outcome_as_the_full_scan(self, game, eps, k, budget):
        # Budgets below the first ceiling hit end the scan before the stop,
        # where ties below the ceiling decide the witness.
        _assert_lmm_first_best_hit(game, eps, k, budget)

    def test_scan_ends_at_the_first_ceiling_hit(self, monkeypatch):
        # COORDINATION's first candidate, (0, 0), is a pure NE of welfare 2.
        drawn = []
        scan = search._integer_scan

        def counted(*args):
            for hit in scan(*args):
                drawn.append(hit)
                yield hit

        monkeypatch.setattr(search, "_integer_scan", counted)
        out = lmm_best_welfare(COORDINATION, 0, 2)
        assert [hit[0] for hit in drawn] == [0]
        assert out.witness == pure_profile(COORDINATION, 0, 0)
        assert out.checked_count == 9


def _top_cells(game):
    """The cells (i, j) of the game's largest welfare R[i][j] + C[i][j]."""
    welfare = {(i, j): r + c for i, (rr, cc) in enumerate(zip(game.R, game.C))
               for j, (r, c) in enumerate(zip(rr, cc))}
    top = max(welfare.values())
    return {cell for cell, w in welfare.items() if w == top}


def _ceiling_indices(game, k):
    """The indices of the k-uniform candidates whose every support cell is
    a top-welfare cell: those whose welfare reaches max(R + C)."""
    top = _top_cells(game)
    pairs = itertools.product(k_uniform_strategies(game.rows, k),
                              k_uniform_strategies(game.cols, k))
    return [index for index, (x, y) in enumerate(pairs)
            if all((i, j) in top for i in support_per_entry(x)
                   for j in support_per_entry(y))]


def _spy_scan_passes(monkeypatch):
    """The arguments of every `_integer_scan` call, in order."""
    passes = []
    scan = search._integer_scan

    def counted(*args):
        passes.append(args)
        return scan(*args)

    monkeypatch.setattr(search, "_integer_scan", counted)
    return passes


@st.composite
def _fallback_cases(draw):
    """A game up to 4x4 (3x3 at k = 3) of entries 0, 1 and 2 whose top
    cells, of welfare 3, are (2, 1) cells with a (0, 2) cell beside them in
    their row (or the transpose), so that at eps < 1 the column (row)
    player gains by leaving them, plus cells of welfare up to 2, some
    planted at (1, 1).  The budget ends before the first ceiling candidate,
    between the first and the last, or after the last."""
    k = draw(st.integers(1, 3))
    side = st.integers(1, 3 if k == 3 else 4)
    rows, cols = draw(side), draw(side)
    pair = st.sampled_from([(r, c) for r in range(3) for c in range(3) if r + c <= 2])
    cells = draw(st.lists(st.lists(pair, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for i, j in draw(st.lists(cell, max_size=2)):
        cells[i][j] = (1, 1)
    flip = draw(st.booleans())
    for i, j in draw(st.lists(cell, min_size=1, max_size=2)):
        if flip:
            cells[i][j] = (1, 2)
            cells[(i + 1) % rows][j] = (2, 0)
        else:
            cells[i][j] = (2, 1)
            cells[i][(j + 1) % cols] = (0, 2)
    game = BimatrixGame(R=[[r for r, _ in row] for row in cells],
                        C=[[c for _, c in row] for row in cells])
    ceiling = _ceiling_indices(game, k)
    first, last = ceiling[0], ceiling[-1]
    total = k_uniform_count(rows, k) * k_uniform_count(cols, k)
    budget = draw(st.one_of(
        st.integers(1, max(1, first)),
        st.integers(first + 1, last + 1),
        st.sampled_from([last + 1, total, total + 3]),
    ))
    eps = draw(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)]))
    return game, eps, k, budget


class TestLmmCeilingFirst:
    @settings(max_examples=200, deadline=None)
    @given(case=_fallback_cases())
    def test_same_outcome_as_the_full_scan(self, case):
        # When no ceiling candidate within the budget passes, the answer
        # comes from the second, full pass.
        _assert_lmm_first_best_hit(*case)

    def test_top_cell_no_equilibrium_takes_the_full_pass(self, monkeypatch):
        # The prisoner's dilemma: (0, 0) has the top welfare, 6, and each
        # player gains 2 by leaving it; (1, 1) is the only equilibrium.
        game = BimatrixGame(R=((3, 0), (5, 1)), C=((3, 5), (0, 1)))
        passes = _spy_scan_passes(monkeypatch)
        out = lmm_best_welfare(game, 0, 2)
        assert len(passes) == 2  # the ceiling candidates, then the family
        assert (out.answer, out.witness) == ("yes", pure_profile(game, 1, 1))
        assert out.checked_count == 9

    def test_planted_games_take_one_pass_over_ceiling_rows(self, monkeypatch):
        # The planted cell (1, 1) is a pure NE at the ceiling, 2, so the
        # first pass hits; an x line is summed only over rows that hold a
        # ceiling cell.
        rng = random.Random(777)
        planted = [random_planted_game(rng, 4, 4) for _ in range(50)]
        k_eps = ((1, F(0)), (2, F(0)), (3, F(0)), (4, F(0)), (2, F(1, 2)))
        passes = _spy_scan_passes(monkeypatch)
        x_lines = []
        summed = search.weighted_lines

        def spy(line, side):
            if line.__self__.read.__name__ == "c_row":  # C's rows
                x_lines.append(side[0])
            return summed(line, side)

        monkeypatch.setattr(search, "weighted_lines", spy)
        for game in planted:
            rows = {i for i, _ in _top_cells(game)}
            for k, eps in k_eps:
                passes.clear()
                x_lines.clear()
                out = lmm_best_welfare(game, eps, k)
                assert out.answer == "yes"
                assert regret_report(game, out.witness).welfare == 2
                assert len(passes) == 1
                assert x_lines and all(set(xc) <= rows for xc in x_lines)

    @pytest.mark.parametrize("draw", [10, 20, 22, 26])
    def test_both_passes_build_each_line_once(self, monkeypatch, draw):
        # Seeded 4x4 games whose ceiling pass finds no equilibrium, so the
        # full pass runs too; it used to rebuild lines the first had built.
        rng = random.Random(777)
        game = [random_game(rng, 4, 4) for _ in range(draw + 1)][-1]
        passes = _spy_scan_passes(monkeypatch)
        built = spy_int_lines(monkeypatch, game)
        lmm_best_welfare(game, 0, 2)
        assert len(passes) == 2
        assert built and len(built) == len(set(built))

    def test_constant_welfare_takes_one_pass(self, monkeypatch):
        # Every cell of matching pennies has welfare 1, so the first pass
        # is the whole family; at k = 1 it holds no pure NE.
        passes = _spy_scan_passes(monkeypatch)
        out = lmm_best_welfare(MATCHING_PENNIES, 0, 1)
        assert (out.answer, out.witness, out.checked_count) == ("no", None, 4)
        assert len(passes) == 1


class TestScanBudget:
    def test_thin_game_scan_stops_at_budget_without_building_the_family(self):
        # 2x40 at k = 8: C(47, 8) ~ 3e8 column strategies.  Row 1 dominates,
        # so the first 1000 candidates (all on row 0) fail the regret test.
        game = BimatrixGame(R=((0,) * 40, (1,) * 40), C=((0,) * 40, (0,) * 40))
        inst = DecisionInstance(problem_id=1, game=game, eps=0, u=1)
        tracemalloc.start()
        try:
            out = decide(inst, k=8, budget=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.answer == "unknown"
        assert out.checked_count == 1000
        assert peak < 4 * 2**20, peak

    def test_scan_memory_stays_flat_as_the_budget_grows_inside_one_x(self):
        # Every candidate of an all-zero game is an exact NE, and none has
        # payoff 1.  The first x holds C(301, 2) = 45,150 candidates, so each
        # budget ends inside it, where no y is seen again.
        zero = ((0,) * 300,) * 8
        inst = DecisionInstance(problem_id=1, game=BimatrixGame(R=zero, C=zero),
                                eps=0, u=1)
        # The warm-up at the larger budget caches the game's palette integers
        # and fills CPython's free lists as far as either scan needs them.
        # A full collection empties those lists, so the collector is paused
        # from the warm-up to the last window: each window then measures
        # the scan, not where a collection happened to land.
        peaks = []
        gc.disable()
        try:
            decide(inst, k=2, budget=16000)
            for budget in (1000, 16000):
                tracemalloc.start()
                try:
                    out = decide(inst, k=2, budget=budget)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert (out.answer, out.checked_count) == ("unknown", budget)
        finally:
            gc.enable()
        assert peaks[1] <= peaks[0] + 2**12, peaks

    def test_scan_ranks_each_y_once_where_the_budget_ends(self, monkeypatch):
        # The budget ends inside the first x, so each of its 2,000 hits was
        # ranked by the budget check, and the 2,001st y is ranked to stop.
        zero = ((0,) * 300,) * 8
        inst = DecisionInstance(problem_id=1, game=BimatrixGame(R=zero, C=zero),
                                eps=0, u=1)
        calls = []
        real = search._multiset_rank

        def spy(c, m):
            calls.append(c)
            return real(c, m)

        monkeypatch.setattr(search, "_multiset_rank", spy)
        out = decide(inst, k=2, budget=2000)
        assert (out.answer, out.checked_count) == ("unknown", 2000)
        assert len(calls) == 2001

    def test_large_k_work_per_candidate_is_per_distinct_member(self, monkeypatch):
        # Every candidate of the all-zero 2x2 game is an exact NE, and none
        # has payoff 1, so the budget ends inside the fifth x.  At k = 1,000
        # a rank that took one binomial per member made 1,000 `comb` calls,
        # and a line sum one C-level map per member; a multiset here has at
        # most two distinct members, however long their runs.
        zero = ((0, 0), (0, 0))
        inst = DecisionInstance(problem_id=1, game=BimatrixGame(R=zero, C=zero),
                                eps=0, u=1)
        combs, ranks, sums = [], [], []
        real_comb, real_rank, real_sum = (search.comb, search._multiset_rank,
                                          search.weighted_lines)

        def comb(n, k):
            combs.append(n)
            return real_comb(n, k)

        def rank(side, m):
            before = len(combs)
            r = real_rank(side, m)
            ranks.append((len(combs) - before, len(side[0])))
            return r

        def summed(line, side):
            sums.append(len(side[0]))
            return real_sum(line, side)

        monkeypatch.setattr(search, "comb", comb)
        monkeypatch.setattr(search, "_multiset_rank", rank)
        monkeypatch.setattr(search, "weighted_lines", summed)
        out = decide(inst, k=1000, budget=5000)
        assert (out.answer, out.checked_count) == ("unknown", 5000)
        assert ranks and all(calls <= 2 * distinct + 1 for calls, distinct in ranks)
        assert sums and all(size <= 2 for size in sums)

    def test_k_above_budget_builds_no_candidate(self):
        # One candidate at k = 10**6 holds a million indices a side; at
        # budget 3 the scan answers unknown before it builds any.
        game = BimatrixGame(R=[[(i * j) % 5 for j in range(13)] for i in range(10)],
                            C=[[(i + j) % 3 for j in range(13)] for i in range(10)])
        inst = DecisionInstance(problem_id=1, game=game, eps=F(1, 8), u=F(1, 2))
        tracemalloc.start()
        try:
            out = decide(inst, k=10**6, budget=3)
            welfare = lmm_best_welfare(game, F(1, 8), 10**6, budget=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.answer, out.checked_count) == ("unknown", 0)
        assert (welfare.answer, welfare.checked_count) == ("unknown", 0)
        assert peak < 2**20, peak

    def test_large_k_sums_lines_without_nesting_iterators(self):
        # Column 0 is the column player's only best response and row 0 the
        # row player's against it, so the first candidate, index 0 k times
        # a side, is the scan's one hit inside the budget.  Each side sums
        # k = 10**5 copies of one line; a sum that nested one lazy map per
        # line would overflow the C stack.
        game = BimatrixGame(R=[[1, 0], [0, 0]], C=[[1, 0], [1, 0]])
        k = 10**5
        pure = MixedProfile(x=(F(1), F(0)), y=(F(1), F(0)))
        out = decide(DecisionInstance(problem_id=1, game=game, eps=0, u=1),
                     k=k, budget=k)
        assert (out.answer, out.witness, out.checked_count) == ("yes", pure, 1)
        best = lmm_best_welfare(game, 0, k, budget=k)
        assert (best.answer, best.witness, best.checked_count) == ("unknown", pure, k)

    def test_unsat_wide_scan_builds_only_the_lines_it_reads(self, monkeypatch):
        # Unsat wide's G' is 57x16,417.  The pipeline's p1-p6 scan at
        # k = nx = 6 and budget 2000 stays inside x = row 0 six times, so it
        # should build C's row 0 and the R columns of the y multisets it
        # tests, each once, and no line of any other cell.
        params = derive_params(F(31, 250))
        partition = partition_bipartite(incidence_graph(UNSAT_WIDE),
                                        formula_degree(UNSAT_WIDE))
        build = build_clause_variable_free_game(UNSAT_WIDE, partition)
        gs = rescale_game(build_hardness_game(build.game, params))
        gp = extend_gprime(gs, params.eps_star)
        gdp = extend_gdoubleprime(gp)
        assert (gp.rows, gp.cols) == (57, 16417)
        assert not hasattr(BimatrixGame, "cleared")
        built = spy_int_lines(monkeypatch, gp)
        config = pipeline.PipelineConfig("unsat-wide.cnf", "out")
        results = pipeline._run_deciders(config, params, build, gs, gp, gdp, None)
        assert results == {f"p{pid}": {"answer": "unknown",
                                       "checked": 2000 if pid <= 6 else 0}
                           for pid in range(1, 11)}
        # y = (0, 0, 0, 0, 0, j) has rank j, so the budget ends before j =
        # 2000.  Such a y is tested iff its columns are within the slack of
        # x's best response: k*max(C[0]) - (C[0][0]*(k-1) + C[0][j]) <= k*eps.
        # C[0][0] = 1/2 is far below the best, 251/252, so none is: the scan
        # builds one line of 16,417 integers, where it cleared 2 x 935,769.
        row0 = [gp.palette[ord(code)][1] for code in gp.codes[0]]
        k, eps, top = build.game.nx, params.eps_star, max(row0)
        tested = [(0,) * (k - 1) + (j,) for j in range(2000)
                  if k * top - (k - 1) * row0[0] - row0[j] <= k * eps]
        assert built == [("C row", 0)] + [
            ("R col", j) for j in dict.fromkeys(j for y in tested for j in y)]

    def test_negative_budget_is_a_parameter_error(self, single_build):
        inst = DecisionInstance(problem_id=1, game=MATCHING_PENNIES, eps=0, u=1)
        with pytest.raises(ParameterError, match="budget"):
            decide_many([inst], k=1, budget=-1)
        with pytest.raises(ParameterError, match="budget"):
            lmm_best_welfare(MATCHING_PENNIES, 0, 1, budget=-1)
        with pytest.raises(ParameterError, match="budget"):
            list(enumerate_wsne_supports(MATCHING_PENNIES, 0, budget=-1))
        # The next six compared -1 with their count and raised ResourceError.
        f, free = single_build.formula, single_build.build.game
        partition = partition_bipartite(incidence_graph(f), formula_degree(f))
        below = "must be at least 0, got -1$"
        with pytest.raises(ParameterError, match="^budget " + below):
            game_value(free, budget=-1)
        with pytest.raises(ParameterError, match="^budget " + below):
            max_sat(f, -1)
        with pytest.raises(ParameterError, match="^cap " + below):
            half_subsets(4, cap=-1)
        with pytest.raises(ParameterError, match="^half_cap " + below):
            build_hardness_game(free, derive_params(F(31, 250)), half_cap=-1)
        with pytest.raises(ParameterError, match="^answer_cap " + below):
            build_clause_variable_free_game(f, partition, answer_cap=-1)
        with pytest.raises(ParameterError, match="^answer_cap " + below):
            reduce_to_free_game(f, -1)
        with pytest.raises(ParameterError,
                           match="^search_budget must be at least 1, got 0$"):
            pipeline.PipelineConfig("f.cnf", "out", search_budget=0)
        with pytest.raises(ParameterError, match="^q must be at least 1, got 0$"):
            uniformity_gap((), 0)

    @pytest.mark.parametrize("value", [2.5, True, F(2), "3"])
    def test_count_parameters_must_be_ints(self, value, single_build):
        # A float or bool budget came back as the checked count, a float k
        # raised a bare TypeError from comb, and k=True was read as 1; a
        # float budget or cap of the reduction was compared as given.
        inst = DecisionInstance(problem_id=1, game=MATCHING_PENNIES, eps=0, u=1)
        with pytest.raises(ParameterError, match="budget must be an int"):
            decide(inst, k=1, budget=value)
        with pytest.raises(ParameterError, match="budget must be an int"):
            lmm_best_welfare(MATCHING_PENNIES, 0, 1, budget=value)
        with pytest.raises(ParameterError, match="budget must be an int"):
            list(enumerate_wsne_supports(MATCHING_PENNIES, 0, budget=value))
        with pytest.raises(ParameterError, match="k must be an int"):
            decide(inst, k=value, budget=10)
        # k is checked before any phase runs: p7 never scans and the hint
        # settles p1, and both used to answer without reading k.
        p7 = DecisionInstance(problem_id=7, game=MATCHING_PENNIES, eps=0, k=1)
        hinted = DecisionInstance(problem_id=1, game=COORDINATION, eps=0, u=1)
        for insts, hints in (([p7], ()), ([hinted], [pure_profile(COORDINATION, 0, 0)]),
                             ([], ())):
            with pytest.raises(ParameterError, match="k must be an int"):
                decide_many(insts, k=value, budget=10, hints=hints)
        with pytest.raises(ParameterError, match="k must be an int"):
            lmm_best_welfare(MATCHING_PENNIES, 0, value, budget=10)
        with pytest.raises(ParameterError, match="k must be an int"):
            k_uniform_count(2, value)
        with pytest.raises(ParameterError, match="k must be an int"):
            list(k_uniform_strategies(2, value))
        for pid in (7, 8, 9):
            with pytest.raises(ParameterError, match="k must be an int"):
                DecisionInstance(problem_id=pid, game=MATCHING_PENNIES, eps=0,
                                 k=value)
        with pytest.raises(ParameterError, match="search_budget must be an int"):
            pipeline.PipelineConfig("f.cnf", "out", search_budget=value)
        f, free = single_build.formula, single_build.build.game
        partition = partition_bipartite(incidence_graph(f), formula_degree(f))
        with pytest.raises(ParameterError, match="budget must be an int"):
            game_value(free, budget=value)
        with pytest.raises(ParameterError, match="cap must be an int"):
            half_subsets(4, cap=value)
        with pytest.raises(ParameterError, match="half_cap must be an int"):
            build_hardness_game(free, derive_params(F(31, 250)), half_cap=value)
        with pytest.raises(ParameterError, match="answer_cap must be an int"):
            build_clause_variable_free_game(f, partition, answer_cap=value)
        with pytest.raises(ParameterError, match="answer_cap must be an int"):
            reduce_to_free_game(f, value)

    def test_budget_zero_checks_nothing(self):
        insts = [DecisionInstance(problem_id=1, game=MATCHING_PENNIES, eps=0, u=1),
                 DecisionInstance(problem_id=7, game=MATCHING_PENNIES, eps=0, k=1)]
        outs = decide_many(insts, k=1, budget=0)
        assert [(o.answer, o.checked_count) for o in outs] == [("unknown", 0)] * 2
        out = lmm_best_welfare(MATCHING_PENNIES, 0, 1, budget=0)
        assert (out.answer, out.checked_count) == ("unknown", 0)


@st.composite
def _shared_decisions(draw):
    """Problems 1-10 on one small game at one eps, with candidate hints."""
    game = draw(_small_games())
    eps = draw(st.sampled_from([F(0), F(1, 4), F(1, 2)]))
    rows = st.lists(st.integers(0, game.rows - 1), min_size=1, max_size=3)
    thresholds = st.sampled_from([F(1, 4), F(1, 2), F(1)])
    params = {
        1: st.fixed_dictionaries({"u": thresholds}),
        2: st.fixed_dictionaries({"index_set": rows}),
        3: st.fixed_dictionaries({"d": thresholds}),
        4: st.fixed_dictionaries({"p": st.sampled_from([F(1, 3), F(1, 2), F(2, 3)])}),
        5: st.fixed_dictionaries({"v": st.sampled_from([F(0), F(1), F(3, 2)])}),
        6: st.fixed_dictionaries({"u": st.sampled_from([F(0), F(1, 4), F(1, 2)])}),
        7: st.fixed_dictionaries({"k": st.integers(1, 3)}),
        8: st.fixed_dictionaries({"k": st.integers(1, 3)}),
        9: st.fixed_dictionaries({"k": st.integers(1, 3)}),
        10: st.fixed_dictionaries({"index_set": rows}),
    }
    pids = draw(st.lists(st.integers(1, 10), min_size=1, max_size=6))
    insts = [
        DecisionInstance(problem_id=pid, game=game, eps=eps, **draw(params[pid]))
        for pid in pids
    ]
    # 2-uniform profiles: some are eps-NE or eps-WSNE witnesses, some not.
    profiles = st.builds(
        MixedProfile,
        x=st.sampled_from(list(k_uniform_strategies(game.rows, 2))),
        y=st.sampled_from(list(k_uniform_strategies(game.cols, 2))),
    )
    hints = draw(st.lists(profiles | st.tuples(profiles, profiles), max_size=3))
    return insts, hints


class TestEarlierHits:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 4),
        data=st.data(),
        apart=st.integers(1, 4),
    )
    def test_first_far_is_the_first_far_earlier_hit(self, k, data, apart):
        # Hits as (x, y) multisets over up to 3 rows and 3 columns; each new
        # hit's answer is checked against `_far` on every earlier hit.
        side = st.lists(st.integers(0, 2), min_size=k, max_size=k).map(
            lambda c: tuple(sorted(c)))
        hits = data.draw(st.lists(st.tuples(side, side), max_size=12))
        # The scan gives each hit as its two sides.
        earlier = search._EarlierHits()
        for n, (xc, yc) in enumerate(hits):
            counts = Counter(xc), Counter(yc)
            expected = next((q for q in hits[:n] if search._far(
                (Counter(q[0]), Counter(q[1])), counts, apart)), None)
            expected = expected and tuple(map(multiset_side_per_member, expected))
            assert earlier.first_far(counts, apart) == expected
            earlier.add(tuple(map(multiset_side_per_member, (xc, yc))), counts)


class TestDecideMany:
    # Every profile of a constant game is an exact NE and WSNE.
    CONSTANT = BimatrixGame(R=((F(1, 2),) * 2,) * 2, C=((F(1, 2),) * 2,) * 2)
    UNIFORM = MixedProfile(x=(F(1, 2), F(1, 2)), y=(F(1, 2), F(1, 2)))
    CORNER = MixedProfile(x=(0, 1), y=(0, 1))

    @settings(max_examples=100, deadline=None)
    @given(
        decisions=_shared_decisions(),
        k=st.integers(1, 3),
        budget=st.integers(0, 120),
    )
    def test_each_problem_decided_as_if_alone(self, decisions, k, budget):
        insts, hints = decisions
        assert decide_many(insts, k, budget, hints) == [
            decide_many([inst], k, budget, hints)[0] for inst in insts
        ]

    def test_one_regret_report_per_distinct_hint(self, monkeypatch):
        # The certificate decides problems 1-9 from the hints alone.
        game, cert, corner = self.CONSTANT, self.UNIFORM, self.CORNER
        params = {
            1: {"u": F(1, 2)}, 2: {"index_set": (0, 1)}, 3: {"d": F(1, 2)},
            4: {"p": F(1, 2)}, 5: {"v": F(1)}, 6: {"u": F(1, 2)},
            7: {"k": 2}, 8: {"k": 2}, 9: {"k": 2},
        }
        insts = [
            DecisionInstance(problem_id=pid, game=game, eps=0, **kw)
            for pid, kw in params.items()
        ]
        reported = []
        real = games.regret_ints

        def counted(g, p):
            reported.append(p)
            return real(g, p)

        monkeypatch.setattr(games, "regret_ints", counted)
        monkeypatch.setattr(search, "regret_ints", counted)
        outcomes = decide_many(insts, hints=[cert, (cert, corner)])
        assert [(o.answer, o.checked_count) for o in outcomes] == [("yes", 0)] * 9
        assert outcomes[2].witness_pair == (cert, corner)
        assert reported == [cert, corner]

    def test_first_certifying_hint_wins(self):
        insts = [
            DecisionInstance(problem_id=1, game=self.CONSTANT, eps=0, u=F(1, 2)),
            DecisionInstance(problem_id=6, game=self.CONSTANT, eps=0, u=F(1, 2)),
        ]
        for hints in ([self.UNIFORM, self.CORNER], [self.CORNER, self.UNIFORM]):
            outcomes = decide_many(insts, hints=hints)
            assert [o.witness for o in outcomes] == [hints[0]] * 2

    @pytest.fixture()
    def gprime_decisions(self, sat_builds, params):
        """Problems 1-9 on the two-clause G' with the pipeline's hints: the
        certificate extended to G', and with the corner for problem 3."""
        b = sat_builds["two-clause"]
        gp = extend_gprime(rescale_game(b.gadget), params.eps_star)
        nx, e = b.build.game.nx, params.eps_star
        kwargs = {1: {"u": F(5, 8)},
                  2: {"index_set": range(sum(b.build.game.x_answers))},
                  3: {"d": 1 - e / (1 - e)}, 4: {"p": F(1, nx)},
                  5: {"v": F(10, 8)}, 6: {"u": F(5, 8)},
                  7: {"k": nx}, 8: {"k": nx}, 9: {"k": nx}}
        insts = [DecisionInstance(problem_id=pid, game=gp, eps=e, **kw)
                 for pid, kw in kwargs.items()]
        cert = extend_profile(b.cert, 1, 1)
        return insts, nx, cert, pure_profile(gp, gp.rows - 1, gp.cols - 1)

    def test_one_report_per_hint_object_and_no_profile_hash(
        self, gprime_decisions, monkeypatch
    ):
        insts, nx, cert, corner = gprime_decisions
        reported = []
        real = games.regret_ints

        def counted(g, p):
            reported.append(p)
            return real(g, p)

        def unhashable(p):
            raise AssertionError("a hint report hashed a profile")

        monkeypatch.setattr(search, "regret_ints", counted)
        monkeypatch.setattr(MixedProfile, "__hash__", unhashable)
        outcomes = decide_many(insts, k=nx, budget=50,
                               hints=[cert, (cert, corner)])
        assert [o.answer for o in outcomes] == ["yes"] * 9
        assert [id(p) for p in reported] == [id(cert), id(corner)]

    def test_equal_distinct_hints_give_the_same_outcomes(self, gprime_decisions):
        insts, nx, cert, corner = gprime_decisions
        twin_cert, twin_corner = (MixedProfile(x=p.x, y=p.y) for p in (cert, corner))
        assert twin_cert == cert and twin_cert is not cert
        alone = decide_many(insts, k=nx, budget=50, hints=[cert, (cert, corner)])
        for hints in ([twin_cert, (twin_cert, twin_corner)],
                      [twin_cert, cert, (cert, twin_corner), (twin_cert, corner)]):
            assert decide_many(insts, k=nx, budget=50, hints=hints) == alone

    def test_witnesses_lay_out_no_vector(self, monkeypatch):
        # Every candidate of an all-zero game is an exact NE of payoffs 0:
        # p1 (u = 1) fails every hit, p6 (u = 0) and p3 (d = 1) pass.
        zero = ((0,) * 50,) * 8
        game = BimatrixGame(R=zero, C=zero)
        built = []
        real = games.side_vector

        def counted(n, side):
            built.append(n)
            return real(n, side)

        # A witness is held as its sides: nothing lays one out.
        monkeypatch.setattr(games, "side_vector", counted)
        p1 = DecisionInstance(problem_id=1, game=game, eps=0, u=1)
        assert decide(p1, k=2, budget=500).answer == "unknown"
        assert built == []
        p6 = DecisionInstance(problem_id=6, game=game, eps=0, u=0)
        out = decide(p6, k=2, budget=500)
        assert (out.answer, out.checked_count) == ("yes", 1)
        assert built == []
        p3 = DecisionInstance(problem_id=3, game=game, eps=0, d=1)
        out = decide(p3, k=2, budget=500)
        assert out.answer == "yes"
        assert built == []

    def test_only_write_prof_lays_out_a_vector(self, gprime_decisions, tmp_path,
                                               monkeypatch):
        # A profile is held as its sides.  The pipeline on a satisfiable
        # formula, the hint checks (p3's pair included) and the best-welfare
        # scan lay out no vector; only `write_prof`, which prints every
        # entry, does.
        laid_out, writing = [], []
        real_layout, real_write = games.side_vector, formats.write_prof

        def layout(n, side):
            laid_out.append(bool(writing))
            return real_layout(n, side)

        def write(p):
            writing.append(p)
            try:
                return real_write(p)
            finally:
                writing.pop()

        monkeypatch.setattr(games, "side_vector", layout)
        monkeypatch.setattr(formats, "write_prof", write)
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        report = pipeline.run_pipeline(pipeline.PipelineConfig(str(cnf), str(tmp_path / "o")))
        assert report["certificate"]["unscaled_ne"]
        assert laid_out == [True, True]  # cert.prof's x and y
        insts, nx, cert, corner = gprime_decisions
        outcomes = decide_many(insts, k=nx, budget=50, hints=[cert, (cert, corner)])
        assert [o.answer for o in outcomes] == ["yes"] * 9
        rng = random.Random(777)
        scanned = [random_planted_game(rng, 4, 4)] + [random_game(rng, 4, 4) for _ in range(3)]
        witnesses = [lmm_best_welfare(game, F(1, 4), k).witness
                     for game in scanned for k in (1, 2, 3)]
        assert all(witnesses)
        assert laid_out == [True, True]

    def test_p3_one_pass_over_earlier_hits(self, monkeypatch):
        # Every candidate of the all-zero 1x2 game is an exact NE.  At
        # d = 1 only the first and last of the k + 1 hits are far apart,
        # so each of the 500 earlier hits is compared at most once.
        game = BimatrixGame(R=((0, 0),), C=((0, 0),))
        far = []
        real = search._far

        def counted(a, b, apart):
            far.append(apart)
            return real(a, b, apart)

        monkeypatch.setattr(search, "_far", counted)
        out = decide(DecisionInstance(problem_id=3, game=game, eps=0, d=1),
                     k=500, budget=10**6)
        assert (out.answer, out.checked_count) == ("yes", 501)
        assert out.witness_pair == (pure_profile(game, 0, 0), pure_profile(game, 0, 1))
        assert 1 <= len(far) <= 500

    def test_a_phase_with_nothing_pending_runs_nothing(self, monkeypatch):
        # The hints settle every problem, so no scan runs and no k is
        # picked; the 2x2 game's nine support pairs exceed the budget of 5,
        # which an enumeration would answer "unknown".
        game, cert, corner = self.CONSTANT, self.UNIFORM, self.CORNER
        params = {1: {"u": F(1, 2)}, 3: {"d": F(1, 2)}, 6: {"u": F(1, 2)},
                  7: {"k": 2}, 8: {"k": 2}, 9: {"k": 2}, 10: {"index_set": (0,)}}
        insts = [DecisionInstance(problem_id=pid, game=game, eps=0, **kw)
                 for pid, kw in params.items()]
        assert decide(insts[-1], budget=5).answer == "unknown"

        def never(*args):
            raise AssertionError("a phase with nothing pending ran")

        for name in ("_integer_scan", "default_k", "_support_pairs"):
            monkeypatch.setattr(search, name, never)
        scan, supports = insts[:3], insts[3:]
        for group in (scan, supports, insts):
            outcomes = decide_many(group, budget=5, hints=[cert, (cert, corner)])
            assert [(o.answer, o.checked_count) for o in outcomes] == (
                [("yes", 0)] * len(group))

    def test_instances_must_share_game_and_eps(self):
        p1 = DecisionInstance(problem_id=1, game=COORDINATION, eps=0, u=1)
        with pytest.raises(ValidationError):
            decide_many([p1, DecisionInstance(
                problem_id=1, game=MATCHING_PENNIES, eps=0, u=1)])
        with pytest.raises(ValidationError):
            decide_many([p1, DecisionInstance(
                problem_id=1, game=COORDINATION, eps=F(1, 4), u=1)])


class TestReasons:
    # Row 1 is strictly dominated: no eps = 0 WSNE has both rows in its support.
    DOMINATED = BimatrixGame(R=((1, 1), (0, 0)), C=((1, 0), (1, 0)))

    def test_pipeline_unknowns_carry_their_reasons(self, tmp_path, monkeypatch):
        # No hint reaches an unsatisfiable run, so each of its unknowns is a
        # cut: the p1-p6 scan at its budget, the p7-p10 walk at its pairs.
        got = []
        real = pipeline.decide_many

        def spy(insts, *args, **kwargs):
            outcomes = real(insts, *args, **kwargs)
            got.extend((inst.problem_id, o.answer, o.reason)
                       for inst, o in zip(insts, outcomes))
            return outcomes

        monkeypatch.setattr(pipeline, "decide_many", spy)
        for name, formula in unsatisfiable_fixtures().items():
            cnf = tmp_path / f"{name}.cnf"
            cnf.write_text(_dimacs(formula))
            got.clear()
            pipeline.run_pipeline(pipeline.PipelineConfig(str(cnf), str(tmp_path / name)))
            assert sorted(got) == [
                (pid, "unknown", "budget" if pid <= 6 else "support-pairs-over-budget")
                for pid in range(1, 11)], name

    def test_each_phase_says_why_it_stopped(self):
        def run(pid, game, hints=(), scan_k=1, budget=1000, **param):
            out = decide(DecisionInstance(problem_id=pid, game=game, eps=0, **param),
                         k=scan_k, budget=budget, hints=hints)
            return out.answer, out.reason

        corner = pure_profile(COORDINATION, 0, 0)
        assert run(1, COORDINATION, hints=[corner], u=1) == ("yes", "hint")
        assert run(3, COORDINATION, hints=[(corner, pure_profile(COORDINATION, 1, 1))],
                   d=1) == ("yes", "hint")
        assert run(1, COORDINATION, u=1) == ("yes", "found")
        assert run(1, MATCHING_PENNIES, u=F(1, 2)) == ("no", "exhausted")
        assert run(1, MATCHING_PENNIES, scan_k=2, budget=3, u=F(1, 2)) == ("unknown", "budget")
        assert run(1, MATCHING_PENNIES, scan_k=4, budget=3, u=F(1, 2)) == (
            "unknown", "k-over-budget")
        assert run(7, MATCHING_PENNIES, k=2) == ("yes", "found")
        assert run(9, self.DOMINATED, k=2) == ("no", "exhausted")
        assert run(7, MATCHING_PENNIES, budget=2, k=1) == (
            "unknown", "support-pairs-over-budget")

    def test_lmm_says_whether_it_stopped_at_the_ceiling(self):
        # Two pure NE of welfare 1 below the ceiling 3/2 of cell (2, 2).
        h = F(1, 2)
        tied = BimatrixGame(R=((h, 0, 1), (0, h, 0), (0, 0, F(3, 4))),
                            C=((h, 0, 0), (0, h, 0), (0, 0, F(3, 4))))
        cases = [(COORDINATION, 1, 1000, ("yes", "ceiling")),
                 (tied, 1, 1000, ("yes", "found")),
                 (MATCHING_PENNIES, 1, 1000, ("no", "exhausted")),
                 (COORDINATION, 2, 3, ("unknown", "budget")),
                 (COORDINATION, 4, 3, ("unknown", "k-over-budget"))]
        for game, k, budget, expected in cases:
            out = lmm_best_welfare(game, 0, k, budget)
            assert (out.answer, out.reason) == expected, (game, k, budget)


@st.composite
def _support_search_games(draw):
    """Games up to 3x3 with quarter entries (many ties) or signed entries
    with mixed denominators."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = draw(st.sampled_from([
        _QUARTERS, st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4])),
    ]))
    cells = st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    return BimatrixGame(R=draw(cells), C=draw(cells))


class TestSupportSearchMatchesEveryPair:
    @settings(max_examples=120, deadline=None)
    @given(
        game=_support_search_games(),
        eps=st.sampled_from([F(0), F(1, 4), F(1, 2)]),
        k=st.integers(1, 3),
        index_set=st.lists(st.integers(0, 2), min_size=1, max_size=2),
    )
    def test_pruned_and_filtered_search_equals_one_lp_per_pair(
        self, game, eps, k, index_set
    ):
        order = pairs_in_order(game)
        decided = {}
        for strict in (False, True):
            decided[strict] = [
                (rows, cols, wsne_support_feasible(game, rows, cols, eps, strict))
                for rows, cols in order
            ]
            every = [w for _, _, w in decided[strict] if w is not None]
            assert list(enumerate_wsne_supports(game, eps, strict=strict)) == every
            for w in every:
                assert is_eps_wsne(game, w, eps)
                rep = regret_report(game, w)
                if strict:
                    assert max(rep.row_pure_regret, rep.col_pure_regret) < eps

        index_set = [i for i in index_set if i < game.rows] or [0]
        predicates = {
            (7, "k"): lambda sx, sy: len(sx) + len(sy) >= 2 * k,
            (8, "k"): lambda sx, sy: min(len(sx), len(sy)) >= k,
            (9, "k"): lambda sx, sy: len(sx) >= k,
            (10, "index_set"): lambda sx, sy: set(index_set) <= set(sx),
        }
        for (pid, name), holds in predicates.items():
            param = k if name == "k" else index_set
            inst = DecisionInstance(problem_id=pid, game=game, eps=eps,
                                    **{name: param})
            out = decide(inst)
            # A pair counts once its predicate holds; the first such pair
            # with a witness answers.
            accepted = [(rows, cols, w) for rows, cols, w in decided[False]
                        if holds(rows, cols)]
            hit = next((n for n, (_, _, w) in enumerate(accepted, 1)
                        if w is not None), None)
            if hit is None:
                assert (out.answer, out.witness, out.checked_count) == (
                    "no", None, len(accepted))
            else:
                w = accepted[hit - 1][2]
                assert (out.answer, out.witness, out.checked_count) == ("yes", w, hit)
                assert is_eps_wsne(game, out.witness, eps)
                assert holds(out.witness.support_x, out.witness.support_y)

    def test_no_support_is_strictly_below_zero_eps(self):
        # A lone row has no rival, but its regret against itself is 0.
        game = BimatrixGame(R=((0,),), C=((0,),))
        assert list(enumerate_wsne_supports(game, 0, strict=True)) == []
        assert list(enumerate_wsne_supports(game, 0)) == [
            MixedProfile(x=(1,), y=(1,))
        ]


def side_solved(lines, supp, eps, scale, strict):
    """One support side as `search._pair_witness` decides it: `_side_lp`,
    which names the row of supp that proves the side dead, if one does;
    else q = (1,) for one line, and the simplex on its LP for more."""
    lp = search._side_lp(lines, supp, eps, scale, strict)
    if type(lp) is int:
        assert lp in supp
        return None
    if len(lines) == 1:
        return [1]
    status, value, q = simplex_maximize(*lp)
    return q[:-1] if status == "optimal" and value > 0 else None


@st.composite
def _grid_support_pairs(draw):
    """A game up to 4x4 with entries on a grid of 2, 3 or 8 steps (many
    ties, and rows exactly eps apart), with a row and a column support."""
    steps = draw(st.sampled_from([2, 3, 8]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.integers(0, steps).map(lambda v: F(v, steps))
    cells = st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n)
    rows = draw(st.sets(st.integers(0, n - 1), min_size=1))
    cols = draw(st.sets(st.integers(0, m - 1), min_size=1))
    game = BimatrixGame(R=draw(cells), C=draw(cells))
    return game, tuple(sorted(rows)), tuple(sorted(cols))


class TestSideCertificate:
    """The one-row certificate against the LP it skips: the reference
    always runs the simplex, so a certificate that killed a live side
    would show here, which the enumeration-against-pairs test cannot."""

    @settings(max_examples=400, deadline=None)
    @given(pair=_grid_support_pairs(),
           eps=st.sampled_from([F(0), F(1, 8), F(1, 4), F(1, 2)]),
           strict=st.booleans())
    # One line a side: a weak row of zeros (row 1 is exactly eps better),
    # strict with eps > 0 and rows 1/2 behind, and eps = 0 with ties.
    @example(pair=(BimatrixGame(R=((0, 0), (F(1, 2), 0)), C=((0, 0), (0, 0))),
                   (0,), (0,)), eps=F(1, 2), strict=False)
    @example(pair=(BimatrixGame(R=((1, 0), (F(1, 2), 0)), C=((1, F(1, 2)), (0, 0))),
                   (0,), (0,)), eps=F(1, 8), strict=True)
    @example(pair=(BimatrixGame(R=((1, 1), (1, 1)), C=((1, 1), (1, 1))),
                   (0, 1), (1,)), eps=F(0), strict=False)
    def test_sides_and_pair_match_the_lp_reference(self, pair, eps, strict):
        game, rows, cols = pair
        c_rows, r_cols, scale = games.int_lines(game)
        sides = []
        for lines, supp in (([r_cols[j] for j in cols], rows),
                            ([c_rows[i] for i in rows], cols)):
            q = one_side_lp_reference(lines, supp, eps, scale, strict)
            assert side_solved(lines, supp, eps, scale, strict) == q
            sides.append(q)
        y, x = sides
        expected = None
        if x is not None and y is not None:
            expected = MixedProfile(
                x=[dict(zip(rows, x)).get(i, 0) for i in range(game.rows)],
                y=[dict(zip(cols, y)).get(j, 0) for j in range(game.cols)])
        assert wsne_support_feasible(game, rows, cols, eps, strict) == expected

    def test_weak_row_of_zeros_stays_feasible(self):
        # Row 1 is worth exactly eps = 1/2 more than row 0 on the one line:
        # its coefficient b*(1 - 0) - a*scale is 2 - 2 = 0.
        lines, eps = [[0, 1]], F(1, 2)
        assert type(search._side_lp(lines, (0,), eps, 2, False)) is tuple
        assert side_solved(lines, (0,), eps, 2, False) == [1]
        assert one_side_lp_reference(lines, (0,), eps, 2, False) == [1]

    def test_strict_row_of_zeros_is_dead(self):
        # The same row charged t > 0 forces t = 0.
        lines, eps = [[0, 1]], F(1, 2)
        assert search._side_lp(lines, (0,), eps, 2, True) == 0
        assert one_side_lp_reference(lines, (0,), eps, 2, True) is None

    def test_one_row_strict_side_at_zero_eps_is_dead(self):
        # No regret row at all: its regret against itself, 0, is not < 0.
        assert search._side_lp([[5]], (0,), F(0), 1, True) == 0
        assert one_side_lp_reference([[5]], (0,), F(0), 1, True) is None
        assert side_solved([[5]], (0,), F(0), 1, False) == [1]

    @pytest.mark.parametrize("R, cols, lps", [
        (((0, 0), (0, 0)), (1,), 0),  # C's column 1 trails column 0: dead
        (((0, 0), (1, 1)), (0,), 0),  # R's row 1 beats row 0: dead
        (((0, 0), (0, 0)), (0,), 0),  # no row certifies either side, one line each
    ])
    def test_certified_sides_solve_no_lp(self, R, cols, lps):
        game = BimatrixGame(R=R, C=((1, 0), (1, 0)))
        with mock.patch.object(search, "simplex_maximize",
                               wraps=simplex_maximize) as lp:
            witness = wsne_support_feasible(game, (0,), cols, 0)
        assert lp.call_count == lps
        live = not any(R[1]) and cols == (0,)
        assert witness == (pure_profile(game, 0, 0) if live else None)

    def test_two_line_sides_solve_both_lps(self):
        # All ties: no row certifies either side, and each has two lines.
        game = BimatrixGame(R=((0, 0), (0, 0)), C=((0, 0), (0, 0)))
        with mock.patch.object(search, "simplex_maximize",
                               wraps=simplex_maximize) as lp:
            witness = wsne_support_feasible(game, (0, 1), (0, 1), 0)
        assert lp.call_count == 2
        assert witness == MixedProfile(x=(F(1, 2), F(1, 2)), y=(F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("R, eps, strict", [
        (((0,), (1,)), F(1), False),  # a weak row of zeros: row 1 is eps better
        (((1,),), F(1, 8), True),  # strict, eps > 0, one row: no rival
        (((1,), (0,), (F(15, 16),)), F(1, 8), True),  # strict, rivals below eps
        (((1,), (1,)), F(0), False),  # eps = 0 with a tie
    ])
    def test_one_line_sides_solve_no_lp(self, R, eps, strict):
        game = BimatrixGame(R=R, C=[[0]] * len(R))
        with mock.patch.object(search, "simplex_maximize",
                               wraps=simplex_maximize) as lp:
            witness = wsne_support_feasible(game, (0,), (0,), eps, strict)
            assert search._pair_witness(game, games.int_lines(game), (0,), (0,),
                                        eps, strict) == (witness, None)
        assert lp.call_count == 0
        assert witness == pure_profile(game, 0, 0)


class TestSupportWalk:
    @pytest.mark.parametrize("rows, cols",
                             itertools.product(range(1, 7), range(1, 7)))
    def test_walk_asks_about_every_pair_in_order(self, rows, cols):
        game = random_game(random.Random(rows * 7 + cols), rows, cols)
        asked = []

        def wanted(sx, sy):
            asked.append((sx, sy))
            return False  # so no pair is decided and no LP runs

        assert list(search._support_pairs(game, F(0), 2**12, False, wanted, 2)) == []
        assert asked == pairs_in_order(game)

    def test_dead_sides_carry_from_one_size_to_the_next(self, monkeypatch):
        # The six capped G'/G'' games at eps* = 31/250; a walk that lost a
        # dead side between two total sizes would solve more LPs.
        eps = F(31, 250)
        real = search._pair_witness
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(search, "_pair_witness", counted)
        for base in capped_base_games().values():
            gp = extend_gprime(base, eps)
            for game in (gp, extend_gdoubleprime(gp)):
                for strict in (False, True):
                    list(enumerate_wsne_supports(game, eps, strict=strict))
                for pid, kw in ((7, {"k": 2}), (8, {"k": 2}), (9, {"k": 2}),
                                (10, {"index_set": (0,)})):
                    decide(DecisionInstance(problem_id=pid, game=game, eps=eps,
                                            **kw))
        # 493 while a one-row certificate recorded its whole side.
        assert len(calls) == 454
        # A 6x6 game at eps = 0, where dead sides prune pairs several sizes
        # up: without them, each of its 3,969 pairs would be solved (305
        # with whole sides only).
        calls.clear()
        game = random_game(random.Random(5), 6, 6, 2)
        assert len(list(enumerate_wsne_supports(game, F(0)))) == 48
        assert len(calls) == 279

    def test_strict_zero_eps_decides_no_pair(self, monkeypatch):
        # `_side_lp` proves every strict side dead at eps = 0, so none of
        # the 3,969 pairs is decided (378 `_pair_witness` calls once); the
        # pair count still meets the budget at the first next().
        real = search._pair_witness
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(search, "_pair_witness", counted)
        game = random_game(random.Random(5), 6, 6, 2)
        assert list(enumerate_wsne_supports(game, F(0), strict=True)) == []
        pairs = enumerate_wsne_supports(game, F(0), budget=3968, strict=True)
        with pytest.raises(ResourceError,
                           match="^3969 support pairs exceed budget 3968$"):
            next(pairs)
        assert calls == []
        assert len(list(enumerate_wsne_supports(game, F(1, 4), strict=True))) > 0
        assert calls

    def test_a_dead_row_prunes_every_side_that_holds_it(self, monkeypatch):
        # Rows 2 and 3 beat rows 0 and 1 on the one column.  p9 (k = 2)
        # starts at two rows: (0, 1) is dead by row 0 and records {0}, so
        # (0, 2) and (0, 3) need no LP, nor does (1, 3) once (1, 2) records
        # {1}.  Recording the whole side (0, 1) would decide all six pairs.
        game = BimatrixGame(R=((0,), (0,), (1,), (1,)), C=((0,),) * 4)
        decided = []
        real = search._pair_witness

        def spied(game, lines, rows, cols, eps, strict):
            decided.append((rows, cols))
            return real(game, lines, rows, cols, eps, strict)

        monkeypatch.setattr(search, "_pair_witness", spied)
        out = decide(DecisionInstance(problem_id=9, game=game, eps=F(0), k=2))
        assert decided == [((0, 1), (0,)), ((1, 2), (0,)), ((2, 3), (0,))]
        accepted = [(rows, cols) for rows, cols in pairs_in_order(game)
                    if len(rows) >= 2]
        witnesses = [wsne_support_feasible(game, rows, cols, 0)
                     for rows, cols in accepted]
        hit = next(n for n, w in enumerate(witnesses, 1) if w is not None)
        assert (out.answer, out.witness, out.checked_count) == (
            "yes", witnesses[hit - 1], hit)
        assert (hit, out.witness.support_x) == (6, (2, 3))

    def test_each_pending_predicate_runs_once_per_walked_pair(self, monkeypatch):
        game = random_game(random.Random(2), 3, 3)
        eps = F(1, 8)
        asked = Counter()
        for pid in (7, 8, 9, 10):
            problem = search.PROBLEMS[pid]

            def spy(inst, rows, cols, holds=problem.holds):
                asked[inst.problem_id, rows, cols] += 1
                return holds(inst, rows, cols)

            monkeypatch.setitem(search.PROBLEMS, pid,
                                dataclasses.replace(problem, holds=spy))
        insts = [DecisionInstance(problem_id=pid, game=game, eps=eps, **kw)
                 for pid, kw in ((7, {"k": 2}), (8, {"k": 2}), (9, {"k": 3}),
                                 (10, {"index_set": (1,)}))]
        outs = decide_many(insts)
        assert [out.answer for out in outs] == ["yes", "yes", "no", "yes"]
        assert set(asked.values()) == {1}
        # p9's "no" walks every pair from p10's least size, 2, on; each
        # problem is asked about each of them up to its witness.
        walked = [pair for pair in pairs_in_order(game) if sum(map(len, pair)) >= 2]
        for inst, out in zip(insts, outs):
            end = (len(walked) if out.witness is None else
                   walked.index((out.witness.support_x, out.witness.support_y)) + 1)
            assert [pair[1:] for pair in asked if pair[0] == inst.problem_id] == (
                walked[:end])

    @pytest.mark.parametrize("shape, pid, k, limit", [
        ((8, 8), 7, 8, 2**20),
        ((16, 1), 9, 16, 4 * 2**20),
    ])
    def test_walk_holds_one_size_at_a_time(self, shape, pid, k, limit):
        # Each answers from one pair, the last of the walk; a walk that
        # listed every pair first peaked near 9 and 16 MB.
        game = random_game(random.Random(1), *shape)
        inst = DecisionInstance(problem_id=pid, game=game, eps=F(1, 8), k=k)
        tracemalloc.start()
        try:
            out = decide(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.answer, out.checked_count) == ("no", 1)
        assert peak < limit, peak


    def test_sizes_below_the_least_wanted_are_not_walked(self, monkeypatch):
        # p7 with k = 10 accepts only the one pair of total size 20; the
        # walk used to visit all 1,046,529 pairs of the 10x10 game first.
        game = random_game(random.Random(1), 10, 10)
        eps = F(1, 8)
        sizes = []
        real = search._support_pairs

        def spied(game, eps, budget, strict, wanted, least_size):
            def asked(rows, cols):
                sizes.append(len(rows) + len(cols))
                return wanted(rows, cols)
            return real(game, eps, budget, strict, asked, least_size)

        monkeypatch.setattr(search, "_support_pairs", spied)
        out = decide(DecisionInstance(problem_id=7, game=game, eps=eps, k=10))
        assert sizes == [20]
        everything = tuple(range(10))
        witness = wsne_support_feasible(game, everything, everything, eps)
        assert (out.answer, out.witness, out.checked_count) == (
            "no" if witness is None else "yes", witness, 1)


class TestSimplexRational:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rational_coefficients_match_vertex_enumeration(self, data):
        n = data.draw(st.integers(1, 3))
        ratio = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
        rhs = st.builds(F, st.integers(0, 8), st.sampled_from([1, 2, 3, 5]))
        row = st.lists(ratio, min_size=n, max_size=n)
        c = data.draw(row)
        a_ub, b_ub = [], []
        for _ in range(data.draw(st.integers(0, 3))):
            a_ub.append(data.draw(row))
            b_ub.append(data.draw(rhs))
        bound = data.draw(st.builds(F, st.integers(1, 6), st.sampled_from([1, 2, 3])))
        for i in range(n):
            a_ub.append([F(int(k == i)) for k in range(n)])
            b_ub.append(bound)

        c_int, a_int, b_int, scale = cleared_lp(c, a_ub, b_ub)
        status, value, x = simplex_maximize(c_int, a_int, b_int)
        value /= scale

        # The box bounds the region, which holds the origin, so the optimum
        # sits at a vertex: n tight constraints among the rows and x >= 0.
        def feasible(p):
            return all(v >= 0 for v in p) and all(
                dot(r, p) <= b for r, b in zip(a_ub, b_ub)
            )

        tight = list(zip(a_ub, b_ub)) + [
            ([F(int(k == i)) for k in range(n)], F(0)) for i in range(n)
        ]
        vertices = [
            p for chosen in itertools.combinations(tight, n)
            if (p := solve_linear([r for r, _ in chosen], [b for _, b in chosen]))
            is not None and feasible(p)
        ]
        assert status == "optimal"
        assert value == max(dot(c, p) for p in vertices)
        assert all(isinstance(v, F) for v in x)
        assert feasible(x)
        assert value == dot(c, x)

