"""Per-layer metrics of one traced pass, computed from its spans.

Times are self times summed per span name; counts are summed from the
counts the spans carry, which come from return values only.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, self_times

PER_LAYER = {
    "games.regret_calls": "count",
    "games.regret_s": "s",
    "games.max_cells": "count",
    "search.scan_s": "s",
    "search.scan_candidates": "count",
    "search.scan_candidates_per_s": "1/s",
    "search.decided_ratio": "ratio",
    "search.enum_s": "s",
    "search.support_pairs": "count",
    "search.support_witnesses": "count",
    "search.feasible_ratio": "ratio",
    "search.support_lp_calls": "count",
    "search.support_lp_s": "s",
    "provers.game_value_s": "s",
    "provers.strategy_pairs": "count",
    "sat.s": "s",
    "sat.assignments": "count",
    "gadget.build_s": "s",
    "gadget.cells": "count",
    "formats.write_s": "s",
    "formats.parse_s": "s",
    "formats.bytes": "bytes",
    "cli.verify_calls": "count",
    "cli.verify_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Metrics of one pass: ``spans`` share one run id and one root span."""
    own = self_times(spans)
    time: dict[str, float] = defaultdict(float)
    count: dict[tuple[str, str], int] = defaultdict(int)
    for s in spans:
        time[s.name] += own[s.span_id]
        for key, value in s.counts.items():
            count[s.name, key] += value
    root = next(s for s in spans if s.parent is None)
    calls_s = sum(s.duration for s in spans if s.counts.get("call"))
    replayed = sum(s.duration - own[s.span_id] for s in spans
                   if s.name == "pipeline.replay")
    problems = count["search.scan", "problems"] + count["search.enum", "problems"]
    decided = count["search.scan", "decided"] + count["search.enum", "decided"]
    candidates = count["search.scan", "candidates"]
    pairs = count["search.enum", "pairs"]
    witnesses = count["search.enum", "witnesses"]
    return {
        "games.regret_calls": count["games.regret", "calls"],
        "games.regret_s": time["games.regret"],
        "games.max_cells": max((s.counts["cells"] for s in spans
                                if s.name == "games.regret"), default=0),
        "search.scan_s": time["search.scan"],
        "search.scan_candidates": candidates,
        "search.scan_candidates_per_s": _ratio(candidates, time["search.scan"]),
        "search.decided_ratio": _ratio(decided, problems),
        "search.enum_s": time["search.enum"],
        "search.support_pairs": pairs,
        "search.support_witnesses": witnesses,
        "search.feasible_ratio": _ratio(witnesses, pairs),
        "search.support_lp_calls": count["search.support_lp", "calls"],
        "search.support_lp_s": time["search.support_lp"],
        "provers.game_value_s": time["provers.game_value"],
        "provers.strategy_pairs": count["provers.game_value", "strategy_pairs"],
        "sat.s": time["sat"],
        "sat.assignments": count["sat", "assignments"],
        "gadget.build_s": time["gadget.build"],
        "gadget.cells": count["gadget.build", "cells"],
        "formats.write_s": time["formats.write"],
        "formats.parse_s": time["formats.parse"],
        "formats.bytes": count["formats.write", "bytes"],
        "cli.verify_calls": count["cli.verify", "call"],
        "cli.verify_s": time["cli.verify"],
        "pipeline.self_s": time["pipeline.run"] - replayed,
        "trace.overhead_ratio": _ratio(root.duration, calls_s),
    }
