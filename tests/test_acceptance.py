"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact rational arithmetic (tolerance zero) unless a
criterion states otherwise; oracles are independent brute-force
computations, never the code path under test.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from negadget.corpus import (
    capped_base_games,
    random_bipartite_graph,
    random_game,
    random_planted_game,
    random_profile,
    satisfiable_fixtures,
    unsatisfiable_fixtures,
)
from negadget.gadget import (
    build_hardness_game,
    check_certificate,
    completeness_certificate,
    derive_params,
    extend_gdoubleprime,
    extend_gprime,
    gdoubleprime_wsne_witness,
    rescale_game,
)
from negadget.games import (
    affine_rescale,
    int_lines,
    is_eps_ne,
    is_eps_wsne,
    regret_report,
    weighted_lines,
)
from negadget.provers import game_value
from negadget.sat import (
    best_assignment,
    build_clause_variable_free_game,
    formula_degree,
    incidence_graph,
    max_sat_fraction,
    partition_bipartite,
    winning_strategies,
)
from negadget.search import enumerate_wsne_supports, lmm_best_welfare

from conftest import EPS_STAR
from oracles import exhaustive_ne_oracle, grid_eps_ne

F = Fraction


def _report(number: int, name: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status}")


def test_criterion_1_completeness_certificate():
    params = derive_params(EPS_STAR)
    fixtures = satisfiable_fixtures()
    assert len(fixtures) >= 5
    failures = []
    for name, formula in fixtures.items():
        assert formula.num_vars <= 10
        start = time.monotonic()
        partition = partition_bipartite(
            incidence_graph(formula), formula_degree(formula)
        )
        build = build_clause_variable_free_game(formula, partition)
        gg = build_hardness_game(build.game, params)
        s1, s2 = winning_strategies(build, best_assignment(formula))
        cert = completeness_certificate(build.game, s1, s2, gg)
        ok_u, w_u, ok_s, w_s, _ = check_certificate(gg, rescale_game(gg), cert)
        elapsed = time.monotonic() - start
        if not (ok_u and w_u == 2 and ok_s and w_s == F(10, 8)):
            failures.append(name)
        if elapsed >= 10:
            failures.append(f"{name}:slow({elapsed:.1f}s)")
    _report(1, "completeness certificate", not failures)
    assert not failures, failures


def test_criterion_2_partition_lemma():
    import math

    start = time.monotonic()
    violations = []

    def check(graph, d, label):
        partition = partition_bipartite(graph, d)
        n = graph.left_count + graph.right_count
        k = math.isqrt(n)
        if k * k < n:
            k += 1
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
        if any(len(b) > 2 * k for b in partition.S + partition.T):
            violations.append(f"{label}:size")
        if any(count > 2 * d * d for count in cross.values()):
            violations.append(f"{label}:edges")
        if sorted(v for s in partition.S for v in s) != list(
            range(graph.left_count)
        ) or sorted(c for t in partition.T for c in t) != list(
            range(graph.right_count)
        ):
            violations.append(f"{label}:partition")

    rng = random.Random(20240)
    for trial in range(100):
        left = rng.randrange(1, 201)
        right = rng.randrange(1, 401 - left) if left < 400 else 1
        graph = random_bipartite_graph(rng, left, right, 4)
        check(graph, 4, f"random-{trial}")
    for name, formula in {
        **satisfiable_fixtures(),
        **unsatisfiable_fixtures(),
    }.items():
        check(incidence_graph(formula), formula_degree(formula), name)
    elapsed = time.monotonic() - start
    if elapsed >= 5:
        violations.append(f"slow({elapsed:.1f}s)")
    _report(2, "partition lemma", not violations)
    assert not violations, violations


def test_criterion_3_free_game_gap():
    failures = []
    unsat = unsatisfiable_fixtures()
    assert len(unsat) >= 4
    for name, formula in unsat.items():
        e = 1 - max_sat_fraction(formula)
        d = formula_degree(formula)
        partition = partition_bipartite(
            incidence_graph(formula), d
        )
        build = build_clause_variable_free_game(formula, partition)
        omega = game_value(build.game, budget=2**26)
        if not (omega <= 1 - e / (2 * d)):
            failures.append(name)
    for name, formula in satisfiable_fixtures().items():
        partition = partition_bipartite(
            incidence_graph(formula), formula_degree(formula)
        )
        build = build_clause_variable_free_game(formula, partition)
        if game_value(build.game, budget=2**26) != 1:
            failures.append(name)
    _report(3, "free-game gap", not failures)
    assert not failures, failures


def test_criterion_4_d1_row_flatness():
    params = derive_params(EPS_STAR)
    expected = F(2) / (1 + 4 * params.g * params.delta_star)
    failures = []
    for name, formula in satisfiable_fixtures().items():
        partition = partition_bipartite(
            incidence_graph(formula), formula_degree(formula)
        )
        build = build_clause_variable_free_game(formula, partition)
        gg = build_hardness_game(build.game, params)
        s1, s2 = winning_strategies(build, best_assignment(formula))
        cert = completeness_certificate(build.game, s1, s2, gg)
        _, r_cols, scale = int_lines(gg.game)
        row_vals = weighted_lines(r_cols.stream, cert.sparse_y)
        _, d0, d1_, _, _ = gg.game.block("D1")
        if any(row_vals[i] != expected * scale * cert.sparse_y[2]
               for i in range(d0, d1_)):
            failures.append(name)
    _report(4, "D1-row flatness", not failures)
    assert not failures, failures


def _capped_gprime_instances():
    params = derive_params(EPS_STAR)
    out = []
    for name, base in capped_base_games().items():
        # Oracle check: the base caps every player's payoff below 5/8 at
        # every exact equilibrium (indeed at every profile, by payoff cap).
        for p in exhaustive_ne_oracle(base, grid=4):
            rep = regret_report(base, p)
            assert rep.row_payoff < F(5, 8) and rep.col_payoff < F(5, 8)
        out.append((name, extend_gprime(base, params.eps_star)))
    return params, out


def test_criterion_5_gprime_concentration():
    params, instances = _capped_gprime_instances()
    assert len(instances) >= 3
    bound = 1 - params.eps_star / (1 - params.eps_star)
    violations = []
    for name, gp in instances:
        candidates = grid_eps_ne(gp, 12, params.eps_star)
        candidates += exhaustive_ne_oracle(gp, grid=4)
        found = 0
        for p in candidates:
            if not is_eps_ne(gp, p, params.eps_star):
                continue
            found += 1
            if not (p.x[gp.rows - 1] > bound and p.y[gp.cols - 1] > bound):
                violations.append((name, p.x, p.y))
        assert found > 0  # at least the pure corner equilibrium
    _report(5, "G' concentration", not violations)
    assert not violations, violations


def test_criterion_6_wsne_uniqueness_and_witness():
    params, instances = _capped_gprime_instances()
    violations = []
    for name, gp in instances:
        gdp = extend_gdoubleprime(gp)
        for game, corner in ((gp, (gp.rows - 1, gp.cols - 1)),
                             (gdp, (gdp.rows - 2, gdp.cols - 2))):
            for witness in enumerate_wsne_supports(
                game, params.eps_star, budget=2**20
            ):
                if witness.support_x != (corner[0],) or witness.support_y != (
                    corner[1],
                ):
                    violations.append((name, game.rows, witness.support_x,
                                       witness.support_y))
    # Satisfiable side: a well-supported witness containing the flat row.
    for name, formula in satisfiable_fixtures().items():
        partition = partition_bipartite(
            incidence_graph(formula), formula_degree(formula)
        )
        build = build_clause_variable_free_game(formula, partition)
        gg = build_hardness_game(build.game, params)
        s1, s2 = winning_strategies(build, best_assignment(formula))
        cert = completeness_certificate(build.game, s1, s2, gg)
        gdp = extend_gdoubleprime(
            extend_gprime(rescale_game(gg), params.eps_star)
        )
        witness = gdoubleprime_wsne_witness(cert, gdp)
        ok = (
            is_eps_wsne(gdp, witness, params.eps_star)
            and gdp.rows - 1 in witness.support_x
            and len(witness.support_x) == build.game.nx + 1
        )
        if not ok:
            violations.append((name, "witness"))
    _report(6, "WSNE uniqueness", not violations)
    assert not violations, violations


def test_criterion_7_lmm_consistency():
    start = time.monotonic()
    rng = random.Random(777)
    violations = []
    for trial in range(50):
        game = random_planted_game(rng, 4, 4)
        oracle_max = max(
            regret_report(game, p).welfare
            for p in exhaustive_ne_oracle(game, grid=2)
        )
        values = []
        for k in range(1, 5):
            out = lmm_best_welfare(game, 0, k, budget=10**5)
            value = (
                regret_report(game, out.witness).welfare
                if out.witness is not None
                else None
            )
            values.append(value)
            if value != oracle_max:
                violations.append((trial, k, value, oracle_max))
        # Monotone in k (None counts as minus infinity).
        numeric = [v for v in values if v is not None]
        if any(
            a is not None and b is not None and b < a
            for a, b in zip(values, values[1:])
        ):
            violations.append((trial, "k-monotonicity", values))
        # Monotone in eps.
        relaxed = lmm_best_welfare(game, F(1, 2), 2, budget=10**5)
        base = lmm_best_welfare(game, 0, 2, budget=10**5)
        if base.witness is not None and relaxed.witness is not None:
            if (regret_report(game, relaxed.witness).welfare
                    < regret_report(game, base.witness).welfare):
                violations.append((trial, "eps-monotonicity"))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        violations.append(f"slow({elapsed:.1f}s)")
    _report(7, "LMM consistency", not violations)
    assert not violations, violations


def test_criterion_8_invariants():
    rng = random.Random(31337)
    violations = 0
    for trial in range(1000):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        game = random_game(rng, rows, cols)
        p = random_profile(rng, rows, cols)
        eps = F(rng.randrange(0, 13), 8)
        shift = F(rng.randrange(-8, 9), 4)
        div = F(rng.randrange(1, 9), 2)
        scaled = affine_rescale(game, shift, div)
        if is_eps_ne(game, p, eps) != is_eps_ne(scaled, p, eps / div):
            violations += 1
        if is_eps_wsne(game, p, eps) != is_eps_wsne(scaled, p, eps / div):
            violations += 1
        if is_eps_wsne(game, p, eps) and not is_eps_ne(game, p, eps):
            violations += 1
    _report(8, "scale-equivalence and WSNE in NE", violations == 0)
    assert violations == 0
