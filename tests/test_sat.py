from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from negadget.corpus import (
    full_sign_pattern,
    random_bipartite_graph,
    satisfiable_fixtures,
    unsatisfiable_fixtures,
)
from negadget.errors import FormatError, InvariantError, ResourceError, ValidationError
from negadget.provers import game_value, prover_payoff
from negadget.sat import (
    Cnf3Formula,
    best_assignment,
    build_clause_variable_free_game,
    formula_degree,
    incidence_graph,
    max_sat_fraction,
    parse_dimacs,
    partition_bipartite,
    winning_strategies,
)

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

    def test_best_assignment_is_lowest_mask(self):
        f = Cnf3Formula(num_vars=3, clauses=((1, 2, 3),))
        # mask 1 (x1 true) already satisfies; mask 0 does not.
        assert best_assignment(f) == 1


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

    def test_degree_violation_rejected(self):
        graph = incidence_graph(full_sign_pattern())
        from negadget.errors import ParameterError

        with pytest.raises(ParameterError):
            partition_bipartite(graph, 3)


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

    def test_answer_cap(self):
        f = satisfiable_fixtures()["two-clause"]
        graph = incidence_graph(f)
        partition = partition_bipartite(graph, formula_degree(f))
        with pytest.raises(ResourceError):
            build_clause_variable_free_game(f, partition, answer_cap=2)


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
