"""The four workloads: their inputs, one pass of top-level public calls, the
traced replays that attribute time to layers, and the output checks.

Every function takes ``ng``, a namespace of freshly imported negadget
modules (see ``run.load_negadget``), so the code under test is always the
checkout's ``src/``.  Span names are ``<module>.<what>``; ``layers.py``
turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref
from spans import NullTracer, Tracer
from speed import Meter

EPS_STAR = Fraction(31, 250)
VERIFY_MODES = ("ne", "wsne")
SUPPORT_PROBLEMS = ((7, {"k": 2}), (8, {"k": 2}), (9, {"k": 2}),
                    (10, {"index_set": (0,)}))
# A call's time is corrected for the machine's drifting speed only while
# the call is short (see speed.py), and a run should make several passes:
# hence the unsatisfiable pipeline scans 50 candidates per decider instead
# of the default 2000 (about 1 s per call, not 25-35 s), and only the capped
# games up to 3x3 get full support enumerations (2.5-3.2 s a call on 4x4).
UNSAT_SEARCH_BUDGET = 50
ENUM_MAX_SIDE = 3
LMM_GAMES = 50
LMM_SHAPE = (4, 4)
LMM_SETTINGS = ((1, Fraction(0)), (2, Fraction(0)), (3, Fraction(0)),
                (4, Fraction(0)), (2, Fraction(1, 2)))


@dataclass
class Recorder:
    """What a pass records with: spans (in traced runs) and speed probes."""

    tracer: Tracer | NullTracer
    meter: Meter


@dataclass
class Call:
    """One top-level public call: what was called and what came back.

    ``replay_errors`` holds check failures found while replaying the
    call's stages in a traced pass.
    """

    key: tuple
    result: object = None
    error: str | None = None
    start: float = 0.0
    end: float = 0.0
    replay_errors: list[str] = field(default_factory=list)


def call(rec: Recorder, span_name, key, fn, *args, counts=None) -> Call:
    """Make one timed top-level call inside a span; an exception is a failure."""
    rec.meter.probe_if_due()
    with rec.tracer.span(span_name, call=1) as span:
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            return Call(key, error=traceback.format_exc(), start=start,
                        end=time.perf_counter())
        end = time.perf_counter()
        if counts is not None and rec.tracer.enabled:
            span.counts.update(counts(result))
    return Call(key, result=result, start=start, end=end)


def decision_counts(outcome, candidates: bool) -> dict:
    out = {"problems": 1, "decided": int(outcome.answer in ("yes", "no"))}
    if candidates:
        out["candidates"] = outcome.checked_count
    return out


# ---------------------------------------------------------------- checks


def _regret(tracer, game, fn, *args):
    """One regret check the benchmark makes, as a games.regret span."""
    with tracer.span("games.regret", calls=1, cells=game.rows * game.cols):
        return fn(game, *args)


def predicate_holds(inst, witness, report) -> bool:
    """The decision problem's predicate, written apart from negadget.search."""
    pid = inst.problem_id
    sx, sy = len(witness.support_x), len(witness.support_y)
    if pid == 1:
        return min(report.row_payoff, report.col_payoff) >= inst.u
    if pid == 2:
        return set(witness.support_x) <= set(inst.index_set)
    if pid == 4:
        return max(witness.x) <= inst.p
    if pid == 5:
        return report.welfare <= inst.v
    if pid == 6:
        return report.row_payoff <= inst.u
    if pid == 7:
        return sx + sy >= 2 * inst.k
    if pid == 8:
        return min(sx, sy) >= inst.k
    if pid == 9:
        return sx >= inst.k
    if pid == 10:
        return set(inst.index_set) <= set(witness.support_x)
    raise ValueError(f"no predicate for problem {pid}")


def decision_errors(ng, tracer, inst, outcome, expected: str) -> list[str]:
    """Compare one decide() answer with its reference; re-verify a witness."""
    pid = inst.problem_id
    if outcome.answer != expected:
        return [f"p{pid}: answer {outcome.answer}, reference {expected}"]
    if outcome.answer != "yes":
        return []
    game, eps = inst.game, inst.eps
    if pid == 3:
        p, q = outcome.witness_pair
        ok = (_regret(tracer, game, ng.games.is_eps_ne, p, eps)
              and _regret(tracer, game, ng.games.is_eps_ne, q, eps)
              and ng.games.tv_distance(p, q) >= inst.d)
        return [] if ok else ["p3: witness pair fails re-verification"]
    w = outcome.witness
    check = ng.games.is_eps_ne if pid <= 6 else ng.games.is_eps_wsne
    ok = _regret(tracer, game, check, w, eps) and predicate_holds(
        inst, w, _regret(tracer, game, ng.games.regret_report, w))
    return [] if ok else [f"p{pid}: witness fails re-verification"]


# ------------------------------------------------------------- pipelines


def dimacs(formula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in formula.clauses]
    return "\n".join(lines) + "\n"


def run_verify(ng, out_dir: Path, mode: str) -> tuple[int, str]:
    """`negadget verify Gs.bgm cert.prof`, in process, output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ng.cli.main(["verify", str(out_dir / "Gs.bgm"),
                            str(out_dir / "cert.prof"), "--eps",
                            str(EPS_STAR), "--mode", mode])
    return code, buf.getvalue()


def decider_specs(ng, params, build, gp, gdp, cert):
    """The ten (problem, game, parameters, hints) of run_pipeline's deciders."""
    gadget, games = ng.gadget, ng.games
    e = params.eps_star
    nx = build.game.nx
    rc_rows = sum(build.game.x_answers)
    half = Fraction(5, 8)
    d_gap = 1 - e / (1 - e)
    cert_gp = cert_gdp = None
    if cert is not None:
        cert_gp = gadget.extend_profile(cert, 1, 1)
        cert_gdp = gadget.gdoubleprime_wsne_witness(
            gadget.extend_profile(cert, 0, 0), gdp)
    corner = games.pure_profile(gp, gp.rows - 1, gp.cols - 1)
    specs = [
        (1, gp, {"u": half}, [cert_gp]),
        (2, gp, {"index_set": tuple(range(rc_rows))}, [cert_gp]),
        (3, gp, {"d": d_gap}, [(cert_gp, corner)] if cert_gp else []),
        (4, gp, {"p": Fraction(1, nx)}, [cert_gp]),
        (5, gp, {"v": Fraction(10, 8)}, [cert_gp]),
        (6, gp, {"u": half}, [cert_gp]),
        (7, gp, {"k": nx}, [cert_gp]),
        (8, gp, {"k": nx}, [cert_gp]),
        (9, gp, {"k": nx}, [cert_gp]),
        (10, gdp, {"index_set": (gdp.rows - 1,)}, [cert_gdp]),
    ]
    return [(pid, game, kw, [h for h in hints if h is not None])
            for pid, game, kw, hints in specs]


class Replay:
    """Replays run_pipeline's stages, one public call per span."""

    def __init__(self, ng, tracer):
        self.ng = ng
        self.tracer = tracer
        # (game, k, eps, budget) of p1 when it scanned instead of taking a hint.
        self.p1_scan = None

    def gadget(self, fn, *args, **kwargs):
        """One gadget-module call; counts the cells of the game it builds."""
        with self.tracer.span("gadget.build") as span:
            out = fn(*args, **kwargs)
        game = getattr(out, "game", out)  # a GadgetGame wraps its game
        if isinstance(game, self.ng.games.BimatrixGame):
            span.counts["cells"] = game.rows * game.cols
        return out

    def write(self, fn, value) -> str:
        with self.tracer.span("formats.write") as span:
            text = fn(value)
            span.counts["bytes"] = len(text.encode())
        return text

    def run(self, cfg, cnf_text: str, expected: dict):
        """Replay one pipeline; return replay errors and the decide() results
        as (instance, outcome) pairs for the caller to re-verify."""
        ng, tr = self.ng, self.tracer
        sat, gadget, fmt = ng.sat, ng.gadget, ng.formats
        with tr.span("sat"):
            formula = sat.parse_dimacs(cnf_text)
        params = self.gadget(gadget.derive_params, cfg.eps_star)
        with tr.span("sat", assignments=2 ** formula.num_vars):
            sat_fraction = sat.max_sat_fraction(formula, budget=cfg.sat_budget)
        with tr.span("sat"):
            partition = sat.partition_bipartite(
                sat.incidence_graph(formula), sat.formula_degree(formula))
            build = sat.build_clause_variable_free_game(
                formula, partition, answer_cap=cfg.answer_cap)
        self.write(fmt.write_fgm, build.game)
        s1_count, s2_count = build.game.strategy_counts()
        with tr.span("provers.game_value", strategy_pairs=s1_count * s2_count):
            try:
                ng.provers.game_value(build.game, budget=cfg.value_budget)
            except ng.errors.ResourceError:
                pass
        gg = self.gadget(gadget.build_hardness_game, build.game, params,
                         half_cap=cfg.half_cap)
        self.write(fmt.write_bgm, gg.game)
        gs = self.gadget(gadget.rescale_game, gg)
        gs_text = self.write(fmt.write_bgm, gs)
        gp = self.gadget(gadget.extend_gprime, gs, params.eps_star)
        self.write(fmt.write_bgm, gp)
        gdp = self.gadget(gadget.extend_gdoubleprime, gp)
        self.write(fmt.write_bgm, gdp)

        errors = []
        cert = None
        if sat_fraction == 1:
            with tr.span("sat", assignments=2 ** formula.num_vars):
                assignment = sat.best_assignment(formula, budget=cfg.sat_budget)
                s1, s2 = sat.winning_strategies(build, assignment)
            cert = self.gadget(gadget.completeness_certificate, build.game,
                               s1, s2, gg)
            cert_text = self.write(fmt.write_prof, cert)
            eps_unscaled = 1 - 4 * params.g * params.delta
            gs_again = self.gadget(gadget.rescale_game, gg)
            flags = {
                "unscaled_ne": _regret(tr, gg.game, ng.games.is_eps_ne,
                                       cert, eps_unscaled),
                "scaled_ne": _regret(tr, gs_again, ng.games.is_eps_ne,
                                     cert, eps_unscaled / 8),
                "scaled_wsne": _regret(tr, gs_again, ng.games.is_eps_wsne,
                                       cert, params.eps_star),
            }
            for name, value in flags.items():
                if value != expected["certificate"][name]:
                    errors.append(f"replayed certificate {name} is {value}")
            # What `negadget verify` reads back.
            with tr.span("formats.parse"):
                fmt.parse_bgm(gs_text)
                fmt.parse_prof(cert_text)

        decisions = []
        specs = decider_specs(ng, params, build, gp, gdp, cert)
        for pid, game, kwargs, hints in specs:
            inst = ng.search.DecisionInstance(
                problem_id=pid, game=game, eps=params.eps_star, **kwargs)
            scan = pid <= 6
            with tr.span("search.scan" if scan else "search.enum") as span:
                try:
                    outcome = ng.search.decide(
                        inst, k=build.game.nx, budget=cfg.search_budget,
                        hints=hints)
                except ng.errors.ResourceError:
                    outcome = ng.search.SearchOutcome(answer="unknown")
                span.counts.update(decision_counts(outcome, scan))
            decisions.append((inst, outcome))
            if pid == 1 and not hints:
                self.p1_scan = (gp, build.game.nx, params.eps_star,
                                cfg.search_budget)
        return errors, decisions

    def p1_scan_regrets(self) -> None:
        """is_eps_ne on p1's first ``budget`` k-uniform candidates, in order:
        the regret work inside the scan, seen from outside."""
        game, k, eps, limit = self.p1_scan
        search, games = self.ng.search, self.ng.games
        ys = list(search.k_uniform_strategies(game.cols, k))
        candidates = [
            games.MixedProfile(x=x, y=y)
            for x, y in itertools.islice(
                ((x, y) for x in search.k_uniform_strategies(game.rows, k)
                 for y in ys), limit)
        ]
        with self.tracer.span("games.regret", calls=len(candidates),
                              cells=game.rows * game.cols):
            for p in candidates:
                games.is_eps_ne(game, p, eps)


class PipelineWorkload:
    """run_pipeline on CNF fixtures written as DIMACS, with the default
    config apart from ``config``; on satisfiable inputs each pipeline is
    followed by `negadget verify` of its certificate in both modes."""

    def __init__(self, satisfiable: bool, **config):
        self.satisfiable = satisfiable
        self.config = config  # PipelineConfig fields that differ from default

    def setup(self, ng, seed: int, workdir: Path) -> dict[str, Path]:
        if self.satisfiable:
            fixtures = ng.corpus.satisfiable_fixtures()
        else:
            fixtures = {"pattern": ng.corpus.unsatisfiable_fixtures()["pattern"]}
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, formula in fixtures.items():
            paths[name] = workdir / f"{name}.cnf"
            paths[name].write_text(dimacs(formula))
        return paths

    def run_pass(self, ng, inputs: dict[str, Path], rec: Recorder) -> list[Call]:
        tracer = rec.tracer
        calls = []
        for name, cnf in inputs.items():
            out_dir = cnf.parent / name
            cfg = ng.pipeline.PipelineConfig(cnf_path=str(cnf),
                                             out_dir=str(out_dir), **self.config)
            run = call(rec, "pipeline.run", ("pipeline", name),
                       ng.pipeline.run_pipeline, cfg)
            calls.append(run)
            if self.satisfiable:
                for mode in VERIFY_MODES:
                    calls.append(call(rec, "cli.verify",
                                      ("verify", name, mode),
                                      run_verify, ng, out_dir, mode))
            if tracer.enabled:
                expected = ref.PIPELINE[name]
                replay = Replay(ng, tracer)
                with tracer.span("pipeline.replay"):
                    errors, decisions = replay.run(cfg, cnf.read_text(),
                                                   expected)
                for inst, outcome in decisions:
                    errors += decision_errors(
                        ng, tracer, inst, outcome,
                        expected["deciders"][f"p{inst.problem_id}"])
                if replay.p1_scan is not None:
                    replay.p1_scan_regrets()
                run.replay_errors += errors
        return calls

    def check(self, ng, inputs, c: Call, tracer) -> list[str]:
        if c.key[0] == "verify":
            _, _, mode = c.key
            code, text = c.result
            if code != ref.VERIFY_EXIT[mode] or "ok: True" not in text.splitlines():
                return [f"verify --mode {mode}: exit {code}"]
            return []
        name = c.key[1]
        expected = ref.PIPELINE[name]
        report = c.result
        errors = list(c.replay_errors)
        if report.get("eps_star") != str(EPS_STAR):
            errors.append(f"eps_star {report.get('eps_star')}")
        if report.get("params") != ref.PARAMS:
            errors.append(f"params {report.get('params')}")
        for key in ("satisfiable", "max_sat_fraction", "omega"):
            if report.get(key) != expected[key]:
                errors.append(f"{key} {report.get(key)!r}, "
                              f"reference {expected[key]!r}")
        cert_ref = expected["certificate"]
        cert = report.get("certificate")
        if cert_ref is None or cert is None:
            if cert is not cert_ref:
                errors.append(f"certificate {cert!r}, reference {cert_ref!r}")
        else:
            for key, value in cert_ref.items():
                if cert.get(key) != value:
                    errors.append(f"certificate {key} {cert.get(key)!r}")
            errors += self._recheck_certificate(ng, inputs[name].parent / name,
                                                tracer)
        deciders = report.get("deciders", {})
        for pid, answer in expected["deciders"].items():
            got = deciders.get(pid, {}).get("answer")
            if got != answer:
                errors.append(f"{pid}: answer {got}, reference {answer}")
        return errors

    @staticmethod
    def _recheck_certificate(ng, out_dir: Path, tracer) -> list[str]:
        """Re-verify the certificate the pipeline wrote, from its files."""
        gs = ng.formats.parse_bgm((out_dir / "Gs.bgm").read_text())
        cert = ng.formats.parse_prof((out_dir / "cert.prof").read_text())
        ok = (_regret(tracer, gs, ng.games.is_eps_ne, cert, EPS_STAR)
              and _regret(tracer, gs, ng.games.is_eps_wsne, cert, EPS_STAR)
              and _regret(tracer, gs, ng.games.regret_report, cert).welfare
              == Fraction(ref.SAT_CERTIFICATE["scaled_welfare"]))
        return [] if ok else ["cert.prof fails re-verification on Gs.bgm"]


# ------------------------------------------------------------ wsne-enum


def support_pairs(game):
    """All support pairs in enumerate_wsne_supports' documented order."""
    def subsets(n):
        return [s for size in range(1, n + 1)
                for s in itertools.combinations(range(n), size)]
    return sorted(((r, c) for r in subsets(game.rows) for c in subsets(game.cols)),
                  key=lambda rc: (len(rc[0]) + len(rc[1]), rc[0], rc[1]))


def enumerate_supports(ng, game, strict: bool) -> list:
    return list(ng.search.enumerate_wsne_supports(game, EPS_STAR, strict=strict))


def decide_support(ng, game, pid: int, kwargs: dict):
    inst = ng.search.DecisionInstance(problem_id=pid, game=game, eps=EPS_STAR,
                                      **kwargs)
    return inst, ng.search.decide(inst)


class WsneWorkload:
    """Full weak and strict enumerate_wsne_supports on the capped games up to
    3x3, and decide p7-p10 on all six capped games."""

    def setup(self, ng, seed: int, workdir: Path) -> dict:
        games = {}
        for base_name, base in ng.corpus.capped_base_games().items():
            gp = ng.gadget.extend_gprime(base, EPS_STAR)
            games[f"{base_name}/gprime"] = gp
            games[f"{base_name}/gdoubleprime"] = ng.gadget.extend_gdoubleprime(gp)
        return games

    def run_pass(self, ng, inputs: dict, rec: Recorder) -> list[Call]:
        tracer = rec.tracer
        calls = []
        for name, game in inputs.items():
            enumerate_all = max(game.rows, game.cols) <= ENUM_MAX_SIDE
            pairs = (2 ** game.rows - 1) * (2 ** game.cols - 1)
            for mode in ("weak", "strict") if enumerate_all else ():
                calls.append(call(
                    rec, "search.enum", ("enum", name, mode),
                    enumerate_supports, ng, game, mode == "strict",
                    counts=lambda ws, n=pairs: {"pairs": n, "witnesses": len(ws)}))
            for pid, kwargs in SUPPORT_PROBLEMS:
                calls.append(call(
                    rec, "search.enum", ("decide", name, pid),
                    decide_support, ng, game, pid, kwargs,
                    counts=lambda r: decision_counts(r[1], False)))
            if tracer.enabled and enumerate_all:
                self.replay_support_lps(ng, tracer, game)
        return calls

    @staticmethod
    def replay_support_lps(ng, tracer, game) -> None:
        """wsne_support_feasible once per support pair, per mode."""
        order = support_pairs(game)
        for strict in (False, True):
            with tracer.span("search.support_lp", calls=len(order)):
                for rows, cols in order:
                    ng.search.wsne_support_feasible(game, rows, cols, EPS_STAR,
                                                    strict=strict)

    def check(self, ng, inputs, c: Call, tracer) -> list[str]:
        kind, name, arg = c.key
        game = inputs[name]
        if kind == "decide":
            inst, outcome = c.result
            return decision_errors(ng, tracer, inst, outcome,
                                   ref.WSNE_ANSWERS[name][arg])
        witnesses = c.result
        found = [(w.support_x, w.support_y) for w in witnesses]
        if found != ref.WSNE_SUPPORTS[name, arg]:
            return [f"{name} {arg}: supports {found}"]
        for w in witnesses:
            rep = _regret(tracer, game, ng.games.regret_report, w)
            ok = _regret(tracer, game, ng.games.is_eps_wsne, w, EPS_STAR)
            if arg == "strict":
                ok = ok and max(rep.row_pure_regret, rep.col_pure_regret) < EPS_STAR
            if not ok:
                return [f"{name} {arg}: witness {w.support_x}/{w.support_y} "
                        "fails re-verification"]
        return []


# ---------------------------------------------------------- lmm-planted


class LmmWorkload:
    """lmm_best_welfare on seeded planted 4x4 games, k = 1..4 at eps = 0 and
    k = 2 at eps = 1/2."""

    def setup(self, ng, seed: int, workdir: Path) -> list:
        rng = random.Random(seed)
        return [ng.corpus.random_planted_game(rng, *LMM_SHAPE)
                for _ in range(LMM_GAMES)]

    def run_pass(self, ng, inputs: list, rec: Recorder) -> list[Call]:
        calls = []
        for gi, game in enumerate(inputs):
            for k, eps in LMM_SETTINGS:
                calls.append(call(
                    rec, "search.scan", ("lmm", gi, k, eps),
                    ng.search.lmm_best_welfare, game, eps, k,
                    counts=lambda o: decision_counts(o, True)))
        return calls

    def check(self, ng, inputs, c: Call, tracer) -> list[str]:
        _, gi, k, eps = c.key
        game = inputs[gi]
        outcome = c.result
        where = f"game {gi} k={k} eps={eps}"
        if outcome.answer != ref.LMM_ANSWER or outcome.witness is None:
            return [f"{where}: answer {outcome.answer}"]
        w = outcome.witness
        if not _regret(tracer, game, ng.games.is_eps_ne, w, eps):
            return [f"{where}: witness is not an eps-NE"]
        welfare = _regret(tracer, game, ng.games.regret_report, w).welfare
        if welfare != ref.LMM_WELFARE:
            return [f"{where}: best welfare {welfare}"]
        return []


WORKLOADS = {
    "pipeline-sat": PipelineWorkload(satisfiable=True),
    "pipeline-unsat": PipelineWorkload(satisfiable=False,
                                       search_budget=UNSAT_SEARCH_BUDGET),
    "wsne-enum": WsneWorkload(),
    "lmm-planted": LmmWorkload(),
}
