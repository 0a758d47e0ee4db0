from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import pytest

from negadget.corpus import satisfiable_fixtures, unsatisfiable_fixtures
from negadget.gadget import (
    GadgetGame,
    ReductionParams,
    build_hardness_game,
    completeness_certificate,
    derive_params,
)
from negadget.games import MixedProfile
from negadget.provers import ProverStrategy
from negadget.sat import (
    Cnf3Formula,
    FreeGameBuild,
    best_assignment,
    build_clause_variable_free_game,
    formula_degree,
    incidence_graph,
    max_sat_fraction,
    partition_bipartite,
    winning_strategies,
)

EPS_STAR = Fraction(31, 250)


@dataclass(frozen=True)
class BuiltFixture:
    """Everything the reduction produces for one CNF fixture."""

    name: str
    formula: Cnf3Formula
    build: FreeGameBuild
    gadget: GadgetGame
    cert: MixedProfile | None
    s1: ProverStrategy | None
    s2: ProverStrategy | None


@pytest.fixture(scope="session")
def params() -> ReductionParams:
    return derive_params(EPS_STAR)


def _build(name: str, formula: Cnf3Formula, params: ReductionParams) -> BuiltFixture:
    partition = partition_bipartite(incidence_graph(formula), formula_degree(formula))
    build = build_clause_variable_free_game(formula, partition)
    gadget = build_hardness_game(build.game, params)
    cert = s1 = s2 = None
    if max_sat_fraction(formula) == 1:
        s1, s2 = winning_strategies(build, best_assignment(formula))
        cert = completeness_certificate(build.game, s1, s2, gadget)
    return BuiltFixture(
        name=name, formula=formula, build=build, gadget=gadget,
        cert=cert, s1=s1, s2=s2,
    )


@pytest.fixture(scope="session")
def sat_builds(params) -> dict[str, BuiltFixture]:
    return {
        name: _build(name, f, params)
        for name, f in satisfiable_fixtures().items()
    }


@pytest.fixture(scope="session")
def unsat_builds(params) -> dict[str, BuiltFixture]:
    return {
        name: _build(name, f, params)
        for name, f in unsatisfiable_fixtures().items()
    }


@pytest.fixture(scope="session")
def single_build(sat_builds) -> BuiltFixture:
    return sat_builds["single"]
