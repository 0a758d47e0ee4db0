"""End-to-end construction: CNF -> free game -> gadget -> decision games.

``run_pipeline`` emits every intermediate artifact plus a JSON report and
is byte-deterministic for a fixed configuration.  A rerun into an existing
directory rewrites each artifact in place (``formats.write_file``) and
removes a ``cert.prof`` left by an earlier run when it writes none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

from . import formats
from .errors import GadgetError, ResourceError, StageError
from .gadget import (
    GadgetGame,
    HALF_CAP_DEFAULT,
    ReductionParams,
    build_hardness_game,
    check_certificate,
    completeness_certificate,
    derive_params,
    extend_gdoubleprime,
    extend_gprime,
    extend_profile,
    gdoubleprime_wsne_witness,
    rescale_game,
)
from .games import (
    BimatrixGame,
    MixedProfile,
    check_count,
    frac,
    pure_profile,
)
from .provers import game_value, VALUE_BUDGET_DEFAULT
from .sat import (
    ANSWER_CAP_DEFAULT,
    FreeGameBuild,
    SAT_BUDGET_DEFAULT,
    max_sat,
    parse_dimacs,
    reduce_to_free_game,
    winning_strategies,
)
from .search import DecisionInstance, decide_many


@dataclass(frozen=True)
class PipelineConfig:
    cnf_path: str
    out_dir: str
    eps_star: Fraction = Fraction(31, 250)
    # The stage limits are constants, read as cfg.<name> like the fields.
    answer_cap: ClassVar[int] = ANSWER_CAP_DEFAULT
    half_cap: ClassVar[int] = HALF_CAP_DEFAULT
    value_budget: ClassVar[int] = VALUE_BUDGET_DEFAULT
    sat_budget: ClassVar[int] = SAT_BUDGET_DEFAULT
    # Deliberately small: pipeline games are large, and a truncated scan
    # reports "unknown" anyway, so a big budget only burns time.
    search_budget: int = 2000

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_star", frac(self.eps_star))
        check_count(self.search_budget, "search_budget", 1)


def _stage(name: str):
    def wrap(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GadgetError as exc:
            raise StageError(name, exc) from exc

    return wrap


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run the full reduction and return the (JSON-serializable) report."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    formula = _stage("parse")(
        lambda: parse_dimacs(Path(cfg.cnf_path).read_text())
    )
    params = _stage("derive_params")(derive_params, cfg.eps_star)

    best_mask, sat_fraction = _stage("max_sat")(
        max_sat, formula, budget=cfg.sat_budget
    )
    satisfiable = sat_fraction == 1

    build = _stage("free_game")(reduce_to_free_game, formula, cfg.answer_cap)
    formats.write_file(out / "F.fgm", formats.write_fgm(build.game))

    omega = None
    try:
        omega = game_value(build.game, budget=cfg.value_budget)
    except ResourceError:
        pass

    gg = _stage("gadget")(
        build_hardness_game, build.game, params, half_cap=cfg.half_cap
    )
    formats.write_file(out / "G.bgm", formats.write_bgm(gg.game))
    gs = _stage("rescale")(rescale_game, gg)
    formats.write_file(out / "Gs.bgm", formats.write_bgm(gs))
    gp = _stage("extend")(extend_gprime, gs, params.eps_star)
    formats.write_file(out / "Gprime.bgm", formats.write_bgm(gp))
    gdp = _stage("extend")(extend_gdoubleprime, gp)
    formats.write_file(out / "Gdouble.bgm", formats.write_bgm(gdp))

    report: dict = {
        "input": str(cfg.cnf_path),
        "eps_star": formats.format_rational(params.eps_star),
        "params": {
            "g": formats.format_rational(params.g),
            "delta_star": formats.format_rational(params.delta_star),
            "n_star": formats.format_rational(params.n_star),
            "u_frak": formats.format_rational(params.u_frak),
            "d1_payoff": formats.format_rational(params.d1_payoff),
        },
        "num_vars": formula.num_vars,
        "num_clauses": formula.num_clauses,
        "max_var_degree": formula.max_var_degree,
        "max_sat_fraction": formats.format_rational(sat_fraction),
        "satisfiable": satisfiable,
        "omega": formats.format_rational(omega) if omega is not None else None,
    }

    cert = None
    if satisfiable:
        cert = _certificate(build, best_mask, gg, gs, report, out)
    else:  # no certificate: drop one an earlier run left in this directory
        (out / "cert.prof").unlink(missing_ok=True)
    report["deciders"] = _run_deciders(cfg, params, build, gs, gp, gdp, cert)

    formats.write_file(
        out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report


def _certificate(
    build: FreeGameBuild,
    assignment: int,
    gg: GadgetGame,
    gs: BimatrixGame,
    report: dict,
    out: Path,
) -> MixedProfile:
    s1, s2 = winning_strategies(build, assignment)
    cert = _stage("certificate")(
        completeness_certificate, build.game, s1, s2, gg
    )
    formats.write_file(out / "cert.prof", formats.write_prof(cert))
    ok_unscaled, w_unscaled, ok_scaled, w_scaled, wsne_scaled = (
        check_certificate(gg, gs, cert)
    )
    report["certificate"] = {
        "unscaled_ne": ok_unscaled,
        "unscaled_welfare": formats.format_rational(w_unscaled),
        "scaled_ne": ok_scaled,
        "scaled_welfare": formats.format_rational(w_scaled),
        "scaled_wsne": wsne_scaled,
    }
    return cert


def _run_deciders(
    cfg: PipelineConfig,
    params: ReductionParams,
    build: FreeGameBuild,
    gs: BimatrixGame,
    gp: BimatrixGame,
    gdp: BimatrixGame,
    cert: MixedProfile | None,
) -> dict:
    """Instantiate the ten decision problems on the extended games.

    On satisfiable inputs the certificate supplies witness hints, so the
    yes-answers come cheap; without it the searches are usually over
    budget on pipeline-scale games and honestly report unknown.
    """
    e = params.eps_star
    nx = build.game.nx
    rc_rows = sum(build.game.x_answers)
    half = Fraction(5, 8)
    d_gap = 1 - e / (1 - e)

    # Each game's hints go to all of its problems (see decide_many).
    gp_hints = gdp_hints = ()
    if cert is not None:
        cert_gp = extend_profile(cert, 1, 1)
        gp_hints = (cert_gp, (cert_gp, pure_profile(gp, gp.rows - 1, gp.cols - 1)))
        gdp_hints = (gdoubleprime_wsne_witness(cert, gdp),)

    specs: list[tuple[int, BimatrixGame, dict]] = [
        (1, gp, {"u": half}),
        (2, gp, {"index_set": tuple(range(rc_rows))}),
        (3, gp, {"d": d_gap}),
        (4, gp, {"p": Fraction(1, nx)}),
        (5, gp, {"v": Fraction(10, 8)}),
        (6, gp, {"u": half}),
        (7, gp, {"k": nx}),
        (8, gp, {"k": nx}),
        (9, gp, {"k": nx}),
        (10, gdp, {"index_set": (gdp.rows - 1,)}),
    ]
    results = {}
    for game, hints in ((gp, gp_hints), (gdp, gdp_hints)):
        insts = [DecisionInstance(problem_id=pid, game=g, eps=e, **kwargs)
                 for pid, g, kwargs in specs if g is game]
        outcomes = decide_many(insts, k=nx, budget=cfg.search_budget, hints=hints)
        for inst, outcome in zip(insts, outcomes):
            results[f"p{inst.problem_id}"] = {
                "answer": outcome.answer,
                "checked": outcome.checked_count,
            }
    return results
