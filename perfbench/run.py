"""negadget benchmark: one workload in one process, no threads.

    python3 perfbench/run.py --workload pipeline-sat --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 777

The checkout's ``src/negadget`` is imported from source.  With ``--trace 0``
the run prints the end-to-end metrics; with ``--trace 1`` it prints the
per-layer metrics of a separate traced run and writes its spans to
``.perfbench_out/``.  Every call's output is checked against the seed
references.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from layers import PER_LAYER, layer_metrics
from spans import NullTracer, Tracer
from speed import Meter
from workloads import WORKLOADS, Recorder

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("errors", "games", "search", "linsolve", "provers", "sat",
           "gadget", "formats", "pipeline", "cli", "corpus")
# Set-up (import + input generation) is short, so it is repeated and the
# median reported; the first repetition also pays for compiling .pyc files.
SETUP_REPEATS = 7
END_TO_END = {"wall_s": "s", "calls_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def load_negadget(src: Path) -> SimpleNamespace:
    """Import negadget afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "negadget" or m.startswith("negadget.")]:
        del sys.modules[name]
    if not sys.path or sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("negadget")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"negadget came from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"negadget.{m}")
                              for m in MODULES})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds``, check every call; return the result."""
    wl = WORKLOADS[name]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    meter = Meter()
    rec = Recorder(Tracer() if trace else NullTracer(), meter)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            meter.probe()
            t0 = time.perf_counter()
            ng = load_negadget(ROOT / "src")
            inputs = wl.setup(ng, seed, workdir)
            t1 = time.perf_counter()
            meter.probe()
            setups.append(meter.normalised(t0, t1))

        raw: list[float] = []   # wall time of each pass
        walls: list[float] = []  # the same, at the reference speed
        attempted = failed = 0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            rec.tracer.run_id = f"{name}/seed{seed}/pass{len(walls)}"
            with rec.tracer.span("pass"):
                t0 = time.perf_counter()
                calls = wl.run_pass(ng, inputs, rec)
                raw.append(time.perf_counter() - t0)
                meter.probe()
                walls.append(sum(meter.normalised(c.start, c.end) for c in calls))
                for c in calls:
                    errors = [c.error] if c.error else _check(wl, ng, inputs, c,
                                                               rec.tracer)
                    attempted += 1
                    if errors:
                        failed += 1
                        print(f"FAIL {name} {c.key}: {'; '.join(errors)}",
                              file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(walls)
    print(f"workload {name}  seed {seed}  {n} passes of "
          f"{attempted // n} calls  ({'traced' if trace else 'untraced'})")
    print(f"  fail_ratio      {failed}/{attempted} = {failed / attempted:.4g}")
    if trace:
        rec.tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.json")
        metrics = _median_layers(rec.tracer)
        units = PER_LAYER
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "calls_per_s": attempted / n / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for key, value in metrics.items():
        print(f"  {key:<29} {value:.6g} {units[key]}")
    if not trace:
        print(f"  (wall_s: median of {n} passes, max {max(walls):.4f} s, "
              f"at the reference speed; raw wall time: median "
              f"{statistics.median(raw):.4f} s, max {max(raw):.4f} s; "
              f"setup_s: median of {len(setups)} set-ups)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _check(wl, ng, inputs, c, tracer) -> list[str]:
    try:
        return wl.check(ng, inputs, c, tracer)
    except Exception:
        return [traceback.format_exc()]


def _median_layers(tracer: Tracer) -> dict[str, float]:
    """Median over passes of each pass's layer metrics; counts repeat exactly."""
    by_pass: dict[str, list] = {}
    for s in tracer.spans:
        by_pass.setdefault(s.run_id, []).append(s)
    per_pass = [layer_metrics(spans) for spans in by_pass.values()]
    return {key: statistics.median(m[key] for m in per_pass) for key in PER_LAYER}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            total["correct"] = False
            continue
        total["correct"] &= result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "negadget" / "__init__.py").is_file():
        print(f"error: no negadget sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
