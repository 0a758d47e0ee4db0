from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negadget import pipeline, sat
from negadget.corpus import (
    full_sign_pattern,
    random_bipartite_graph,
    satisfiable_fixtures,
    unsatisfiable_fixtures,
)
from negadget.errors import (
    FormatError, InvariantError, ParameterError, ResourceError, ValidationError
)
from negadget.provers import game_value, prover_payoff
from negadget.sat import (
    BipartiteGraph,
    Cnf3Formula,
    best_assignment,
    build_clause_variable_free_game,
    formula_degree,
    incidence_graph,
    max_sat,
    max_sat_fraction,
    parse_dimacs,
    partition_bipartite,
    reduce_to_free_game,
    winning_strategies,
)
from oracles import free_game_verdict, max_sat_reference, strategy_answer
from test_golden import PROBE

F = Fraction


class TestParseDimacs:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert f.num_vars == 3
        assert f.clauses == ((1, 2, 3),)
        assert f.max_var_degree == 1

    def test_duplicate_variable_rejected(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 3 1\n1 -1 2 0\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 3 1\n1 2 0\n")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 3 1\n1 2 9 0\n")

    def test_full_pattern_degree(self):
        text = "p cnf 3 8\n" + "\n".join(
            f"{a} {b} {c} 0" for a in (1, -1) for b in (2, -2) for c in (3, -3)
        )
        f = parse_dimacs(text)
        assert f.max_var_degree == 8
        assert f.clauses == full_sign_pattern().clauses

    @pytest.mark.parametrize("text", [
        "p cnf x 1\n1 2 3 0\n", "p cnf 3 1.0\n1 2 3 0\n", "p cnf 3 1\n1 2 x 0\n",
    ])
    def test_non_integer_token_rejected(self, text):
        with pytest.raises(FormatError):
            parse_dimacs(text)

    def test_second_problem_line_rejected(self):
        # It used to replace the first, so one clause was read as a formula.
        with pytest.raises(FormatError, match="second problem line: 'p cnf 3 1'"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\np cnf 3 1\n")

    def test_comments_and_blank_lines(self):
        f = parse_dimacs("c hi\n\np cnf 3 1\nc mid\n1 2 3 0\n")
        assert f.num_clauses == 1

    def test_memory_independent_of_declared_vars(self):
        # A table of 10**7 + 1 degrees would take about 80 MB.
        tracemalloc.start()
        try:
            f = parse_dimacs("p cnf 10000000 1\n1 2 3 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.max_var_degree == 1
        assert peak < 2**20, peak


class TestMaxSat:
    def test_satisfiable(self):
        f = Cnf3Formula(num_vars=4, clauses=((1, 2, 3), (-1, 2, 4)))
        assert max_sat_fraction(f) == 1

    def test_full_pattern_seven_eighths(self):
        assert max_sat_fraction(full_sign_pattern()) == F(7, 8)

    def test_empty_clause_list(self):
        assert max_sat_fraction(Cnf3Formula(num_vars=3, clauses=())) == 1

    def test_budget(self):
        f = full_sign_pattern()
        with pytest.raises(ResourceError):
            max_sat_fraction(f, budget=4)

    @pytest.mark.parametrize("search", [max_sat_fraction, best_assignment])
    def test_budget_charges_every_clause(self, search):
        # 2^3 assignments fit the budget, but 2^3 * 8 clause checks do not.
        with pytest.raises(ResourceError, match="8 clauses"):
            search(full_sign_pattern(), budget=8)

    def test_budget_is_compared_before_two_to_the_n_is_built(self):
        # 2^(10^9) alone takes 125 MB, and seconds to multiply by m.
        f = Cnf3Formula(num_vars=10**9, clauses=((1, 2, 3),))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as info:
                max_sat(f, 2**20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "2^1000000000 assignments x 1 clauses exceed budget 1048576")
        assert peak < 2**20, peak

    @pytest.mark.parametrize("budget", [2.5, True, "8"])
    def test_budget_must_be_an_int(self, budget):
        with pytest.raises(ParameterError, match="budget must be an int"):
            max_sat(full_sign_pattern(), budget)

    def test_best_assignment_is_lowest_mask(self):
        f = Cnf3Formula(num_vars=3, clauses=((1, 2, 3),))
        # mask 1 (x1 true) already satisfies; mask 0 does not.
        assert best_assignment(f) == 1

    def test_pipeline_runs_one_max_sat_pass(self, tmp_path, monkeypatch):
        # The certificate takes the pass's mask instead of a second search.
        passes = []
        real = sat.max_sat

        def spy(f, budget):
            passes.append(f)
            return real(f, budget)

        monkeypatch.setattr(sat, "max_sat", spy)
        monkeypatch.setattr(pipeline, "max_sat", spy)
        cnf = tmp_path / "single.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        report = pipeline.run_pipeline(
            pipeline.PipelineConfig(cnf_path=str(cnf), out_dir=str(tmp_path / "out"))
        )
        assert report["satisfiable"]
        assert "certificate" in report
        assert len(passes) == 1


class TestIncidenceGraph:
    def test_single_clause_edges(self):
        g = incidence_graph(Cnf3Formula(num_vars=3, clauses=((1, 2, 3),)))
        assert len(g.edges) == 3

    def test_disjoint_clauses(self):
        f = Cnf3Formula(num_vars=6, clauses=((1, 2, 3), (4, 5, 6)))
        assert len(incidence_graph(f).edges) == 6

    def test_full_pattern_24_edges(self):
        assert len(incidence_graph(full_sign_pattern()).edges) == 24


def check_partition(graph, partition, d):
    n = graph.left_count + graph.right_count
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    assert partition.K == k
    size_cap = 2 * k
    assert sorted(v for s in partition.S for v in s) == list(
        range(graph.left_count)
    )
    assert sorted(c for t in partition.T for c in t) == list(
        range(graph.right_count)
    )
    for block in partition.S + partition.T:
        assert len(block) <= size_cap
    block_of_left = {}
    for i, block in enumerate(partition.S):
        for v in block:
            block_of_left[v] = i
    block_of_right = {}
    for j, block in enumerate(partition.T):
        for c in block:
            block_of_right[c] = j
    cross = {}
    for u, v in graph.edges:
        key = (block_of_left[u], block_of_right[v])
        cross[key] = cross.get(key, 0) + 1
    assert all(count <= 2 * d * d for count in cross.values())


class TestPartition:
    def test_fixture_formulas(self):
        fixtures = {**satisfiable_fixtures(), **unsatisfiable_fixtures()}
        for f in fixtures.values():
            d = formula_degree(f)
            graph = incidence_graph(f)
            check_partition(graph, partition_bipartite(graph, d), d)

    def test_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(25):
            left = rng.randrange(1, 60)
            right = rng.randrange(1, 60)
            graph = random_bipartite_graph(rng, left, right, 4)
            check_partition(graph, partition_bipartite(graph, 4), 4)

    def test_clause_side_degree_binds(self):
        # A star: the clause's degree 4 is the largest, where every fixture's
        # largest degree is a variable's.
        graph = BipartiteGraph(4, 1, frozenset({(0, 0), (1, 0), (2, 0), (3, 0)}))
        assert graph.degree_bound() == 4
        with pytest.raises(ParameterError, match="graph degree exceeds d=3"):
            partition_bipartite(graph, 3)
        check_partition(graph, partition_bipartite(graph, 4), 4)

    def test_edgeless_graph_has_degree_zero(self):
        graph = BipartiteGraph(2, 3, frozenset())
        assert graph.degree_bound() == 0
        check_partition(graph, partition_bipartite(graph, 1), 1)

    def test_degree_violation_rejected(self):
        graph = incidence_graph(full_sign_pattern())
        with pytest.raises(ParameterError):
            partition_bipartite(graph, 3)

    @pytest.mark.parametrize("d, message", [
        (3.5, "^d must be an int, got float 3.5$"),
        (True, "^d must be an int, got bool True$"),
        (0, "^d must be at least 1, got 0$"),
    ])
    def test_degree_bound_must_be_a_positive_int(self, d, message):
        # 3.5 placed clauses against an edge cap of 2*d*d = 24.5.
        graph = incidence_graph(full_sign_pattern())
        with pytest.raises(ParameterError, match=message):
            partition_bipartite(graph, d)


class TestFreeGame:
    def test_satisfiable_value_one(self, sat_builds):
        b = sat_builds["single"]
        assert game_value(b.build.game) == 1

    def test_winning_strategies_win(self, sat_builds):
        for b in sat_builds.values():
            assert prover_payoff(b.build.game, b.s1, b.s2) == 1

    def test_unsat_value_below_one(self, unsat_builds):
        b = unsat_builds["pattern"]
        assert game_value(b.build.game) < 1

    def test_no_shared_vars_accepts_satisfying_answer(self):
        # Two variable blocks, one clause block over the second block only:
        # any X answer for the first block is consistent.
        f = Cnf3Formula(num_vars=4, clauses=((2, 3, 4),))
        graph = incidence_graph(f)
        partition = partition_bipartite(graph, formula_degree(f))
        build = build_clause_variable_free_game(f, partition)
        # Find an (i, j) pair sharing no variables with a satisfying b.
        found = False
        for i, x_vars in enumerate(build.x_vars):
            for j, y_vars in enumerate(build.y_vars):
                if set(x_vars) & set(y_vars):
                    continue
                if not build.y_clauses[j]:
                    continue
                for b_ans in range(build.game.y_answers[j]):
                    if any(
                        build.game.table[i][j][a][b_ans]
                        for a in range(build.game.x_answers[i])
                    ):
                        # Satisfying answers accept for every a.
                        assert all(
                            build.game.table[i][j][a][b_ans]
                            for a in range(build.game.x_answers[i])
                        )
                        found = True
        assert found

    def test_even_question_counts(self, sat_builds, unsat_builds):
        for b in {**sat_builds, **unsat_builds}.values():
            assert b.build.game.nx % 2 == 0
            assert b.build.game.ny % 2 == 0

    def test_one_call_equals_the_explicit_chain(self):
        formulas = {**satisfiable_fixtures(), **unsatisfiable_fixtures(), "probe": PROBE}
        for name, f in formulas.items():
            partition = partition_bipartite(incidence_graph(f), formula_degree(f))
            want = build_clause_variable_free_game(f, partition)
            got = reduce_to_free_game(f)
            assert (got.game, got.x_vars, got.y_vars, got.y_clauses) == (
                want.game, want.x_vars, want.y_vars, want.y_clauses), name

    def test_answer_cap(self):
        f = satisfiable_fixtures()["two-clause"]
        graph = incidence_graph(f)
        partition = partition_bipartite(graph, formula_degree(f))
        with pytest.raises(ResourceError):
            build_clause_variable_free_game(f, partition, answer_cap=2)


@st.composite
def _formulas(draw):
    """3-8 variables and 1-10 clauses over distinct variables."""
    n = draw(st.integers(3, 8))
    clause = st.tuples(
        st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True),
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
    ).map(lambda c: tuple(v if pos else -v for v, pos in zip(*c)))
    return Cnf3Formula(num_vars=n,
                       clauses=tuple(draw(st.lists(clause, min_size=1, max_size=10))))


class TestClauseEncodingMatchesLiterals:
    @settings(max_examples=60, deadline=None)
    @given(f=_formulas())
    def test_table_max_sat_and_strategies(self, f):
        build = build_clause_variable_free_game(
            f, partition_bipartite(incidence_graph(f), formula_degree(f))
        )
        game = build.game
        assert game.table == tuple(
            tuple(
                tuple(
                    tuple(free_game_verdict(f, build, i, j, a, b)
                          for b in range(game.y_answers[j]))
                    for a in range(game.x_answers[i])
                )
                for j in range(game.ny)
            )
            for i in range(game.nx)
        )
        mask, fraction = max_sat(f, 2**20)
        assert (mask, fraction) == max_sat_reference(f)
        s1, s2 = winning_strategies(build, mask)
        assert s1.answers == tuple(strategy_answer(vs, mask) for vs in build.x_vars)
        assert s2.answers == tuple(strategy_answer(vs, mask) for vs in build.y_vars)
        if fraction == 1:
            assert all(
                free_game_verdict(f, build, i, j, s1.answers[i], s2.answers[j])
                for i in range(game.nx) for j in range(game.ny)
            )


class TestGapLemma:
    def test_gap_bound_all_unsat_fixtures(self, unsat_builds):
        for b in unsat_builds.values():
            e = 1 - max_sat_fraction(b.formula)
            d = formula_degree(b.formula)
            omega = game_value(b.build.game, budget=2**26)
            assert omega <= 1 - e / (2 * d)

    def test_sat_fixtures_value_one(self, sat_builds):
        for b in sat_builds.values():
            omega = game_value(b.build.game, budget=2**26)
            assert omega == 1


class TestValidation:
    def test_bad_clause(self):
        with pytest.raises(ValidationError):
            Cnf3Formula(num_vars=3, clauses=((1, 2),))
        with pytest.raises(ValidationError):
            Cnf3Formula(num_vars=2, clauses=((1, 2, 3),))

    @pytest.mark.parametrize("num_vars", [3.0, True, F(3)])
    def test_num_vars_must_be_an_int(self, num_vars):
        # 3.0 passed here, then max_sat raised a bare TypeError at budget >> 3.0.
        with pytest.raises(ValidationError, match="^num_vars must be an int"):
            Cnf3Formula(num_vars=num_vars, clauses=((1, 2, 3),))

    @pytest.mark.parametrize("literal", [1.0, True])
    def test_literal_must_be_an_int(self, literal):
        # Both were built, and max_sat read them as variable 1.
        with pytest.raises(ValidationError, match=(
                rf"^clause \({literal}, 2, 3\) has a literal that is not an int$")):
            Cnf3Formula(num_vars=3, clauses=((literal, 2, 3),))

    @pytest.mark.parametrize("num_vars", [0, -1])
    def test_num_vars_below_one(self, num_vars):
        with pytest.raises(ValidationError,
                           match="^formula needs at least one variable$"):
            Cnf3Formula(num_vars=num_vars, clauses=())
        with pytest.raises(FormatError,
                           match="^formula needs at least one variable$"):
            parse_dimacs(f"p cnf {num_vars} 0\n")
