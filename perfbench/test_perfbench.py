"""Tests of the benchmark itself: span and speed arithmetic, the output
checker, and one checked, traced pass of every workload (about 30 s).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
from fractions import Fraction

import pytest

import run
from layers import PER_LAYER, layer_metrics
from spans import NullTracer, Span, Tracer, self_times
from speed import PROBE_NOMINAL_S, Meter
from workloads import WORKLOADS, Call, Recorder, decide_support


@pytest.fixture(scope="module")
def ng():
    return run.load_negadget(run.ROOT / "src")


@pytest.fixture
def workdir(tmp_path):
    yield tmp_path / "work"
    shutil.rmtree(tmp_path / "work", ignore_errors=True)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _span(i, parent, start, end, name="x", **counts):
    return Span(i, name, parent, "r", start, end, counts=counts)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),   # overlaps span 1: union is [1, 6]
        _span(3, 1, 2.0, 3.0),
        _span(4, 0, 8.0, 12.0),  # runs past the parent: only [8, 10] counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 5 - 2)
    assert own[1] == pytest.approx(3 - 1)
    assert own[2] == pytest.approx(3)
    assert own[3] == pytest.approx(1)
    assert own[4] == pytest.approx(4)


def test_layer_metrics_on_synthetic_pipeline_pass():
    spans = [
        _span(0, None, 0.0, 10.0, "pass"),
        _span(1, 0, 0.0, 4.0, "pipeline.run", call=1),
        _span(2, 0, 4.0, 9.0, "pipeline.replay"),
        _span(3, 2, 4.0, 5.0, "sat", assignments=8),
        _span(4, 2, 5.0, 7.0, "gadget.build", cells=12),
        _span(5, 2, 7.0, 7.5, "search.scan", problems=1, decided=0,
              candidates=2000),
        _span(6, 0, 9.0, 9.5, "games.regret", calls=3, cells=20),
    ]
    m = layer_metrics(spans)
    assert m["pipeline.self_s"] == pytest.approx(4 - 3.5)
    assert m["trace.overhead_ratio"] == pytest.approx(10 / 4)
    assert m["sat.s"] == pytest.approx(1)
    assert m["sat.assignments"] == 8
    assert m["gadget.cells"] == 12
    assert m["search.scan_candidates_per_s"] == pytest.approx(4000)
    assert m["search.decided_ratio"] == 0
    assert m["games.regret_calls"] == 3 and m["games.max_cells"] == 20


def test_tracer_records_parent_and_run_id():
    tracer = Tracer()
    tracer.run_id = "p0"
    with tracer.span("outer"):
        with tracer.span("inner", calls=2) as inner:
            inner.counts["cells"] = 4
    outer, inner = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.run_id == "p0" and inner.counts == {"calls": 2, "cells": 4}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_checker_rejects_non_equilibrium_lmm_witness(ng, workdir):
    wl = WORKLOADS["lmm-planted"]
    games = wl.setup(ng, 777, workdir)
    game, k, eps = games[0], 1, Fraction(0)
    good = Call(("lmm", 0, k, eps), ng.search.lmm_best_welfare(game, eps, k))
    assert wl.check(ng, games, good, NullTracer()) == []
    bad_profile = next(
        p for i in range(game.rows) for j in range(game.cols)
        if not ng.games.is_eps_ne(game, p := ng.games.pure_profile(game, i, j), 0))
    tampered = Call(good.key, ng.search.SearchOutcome(answer="yes",
                                                      witness=bad_profile))
    assert wl.check(ng, games, tampered, NullTracer())


def test_checker_rejects_flipped_decider_answers(ng, workdir):
    wl = WORKLOADS["wsne-enum"]
    games = wl.setup(ng, 0, workdir)
    inst, outcome = decide_support(ng, games["null/gprime"], 7, {"k": 2})
    assert outcome.answer == "no"
    key = ("decide", "null/gprime", 7)
    assert wl.check(ng, games, Call(key, (inst, outcome)), NullTracer()) == []
    flipped = ng.search.SearchOutcome(answer="yes", witness=ng.games.pure_profile(
        inst.game, inst.game.rows - 1, inst.game.cols - 1))
    assert wl.check(ng, games, Call(key, (inst, flipped)), NullTracer())

    pipe = WORKLOADS["pipeline-sat"]
    cnfs = pipe.setup(ng, 0, workdir)
    cnfs = {"single": cnfs["single"]}
    calls = pipe.run_pass(ng, cnfs, Recorder(NullTracer(), Meter()))
    assert all(pipe.check(ng, cnfs, c, NullTracer()) == [] for c in calls)
    calls[0].result["deciders"]["p4"]["answer"] = "no"
    assert pipe.check(ng, cnfs, calls[0], NullTracer())


def test_meter_scales_by_the_probes_around_the_interval():
    meter = Meter()
    meter.starts, meter.durations = [0.0, 10.0, 20.0], [0.001, 0.004, 0.002]
    # Between the probes at 10 s and 20 s: mean probe 0.003 s.
    assert meter.normalised(12.0, 15.0) == pytest.approx(
        3.0 * PROBE_NOMINAL_S / 0.003)
    # After the last probe only the one before counts.
    assert meter.normalised(21.0, 22.0) == pytest.approx(
        PROBE_NOMINAL_S / 0.002)


# Count metrics that must repeat exactly in every traced pass.
TRACED_COUNTS = {
    "pipeline-sat": {"cli.verify_calls": 10, "search.decided_ratio": 1,
                     "provers.strategy_pairs": 73856},
    "pipeline-unsat": {"search.scan_candidates": 300,
                       "games.regret_calls": 50, "search.decided_ratio": 0},
    "wsne-enum": {"search.support_pairs": 312,
                  "search.support_lp_calls": 312},
    "lmm-planted": {"search.scan_candidates": 92050},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_traced_pass_of_each_workload_passes_its_check(ng, workdir, name):
    wl = WORKLOADS[name]
    inputs = wl.setup(ng, 777, workdir)
    rec = Recorder(Tracer(), Meter())
    with rec.tracer.span("pass"):
        calls = wl.run_pass(ng, inputs, rec)
        for c in calls:
            assert c.error is None, c.error
            assert wl.check(ng, inputs, c, rec.tracer) == [], c.key
    metrics = layer_metrics(rec.tracer.spans)
    for key, value in TRACED_COUNTS[name].items():
        assert metrics[key] == value, key
