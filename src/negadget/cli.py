"""Command-line interface.

Subcommands: verify, value, reduce, forge, decide, pipeline.
Exit codes for `verify`: 0 = passes, 1 = fails.  For `decide`:
0 = yes, 1 = no, 2 = unknown.  Every input, usage or resource error, such as
a missing file, a file that is not UTF-8 or a malformed rational, exits 3
with a one-line message.  The argument parser is built on the first `main`
call and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import formats
from .errors import FormatError, GadgetError
from .gadget import (
    HALF_CAP_DEFAULT,
    build_hardness_game,
    completeness_certificate,
    derive_params,
    extend_gdoubleprime,
    extend_gprime,
    rescale_game,
)
from .games import nonnegative_eps, parse_rational, regret_ints
from .pipeline import PipelineConfig, run_pipeline
from .provers import VALUE_BUDGET_DEFAULT, game_value
from .sat import ANSWER_CAP_DEFAULT, parse_dimacs, reduce_to_free_game
from .search import (
    PROBLEMS, SEARCH_BUDGET_DEFAULT, DecisionInstance, decide, required_param
)


_REPORT_VIEWS = ("row_regret", "col_regret", "row_pure_regret", "col_pure_regret",
                 "row_payoff", "col_payoff", "welfare")


def _report_dict(rep) -> dict:
    return {name: formats.format_rational(getattr(rep, name)) for name in _REPORT_VIEWS}


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for key in sorted(data):
            print(f"{key}: {data[key]}")


def cmd_verify(args: argparse.Namespace) -> int:
    # eps first: a bad eps needs no game read.
    eps = nonnegative_eps(parse_rational(args.eps))
    game = formats.parse_bgm(Path(args.game).read_text())
    profile = formats.parse_prof(
        Path(args.profile).read_text(), normalize=args.normalize
    )
    rep = regret_ints(game, profile)
    ok = rep.within(eps, pure=args.mode == "wsne")
    data = _report_dict(rep)
    data["mode"] = args.mode
    data["eps"] = formats.format_rational(eps)
    data["ok"] = ok
    _emit(data, args.format)
    return 0 if ok else 1


def cmd_value(args: argparse.Namespace) -> int:
    game = formats.parse_fgm(Path(args.game).read_text())
    value = game_value(game, budget=args.budget)
    print(formats.format_rational(value))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    formula = parse_dimacs(Path(args.input).read_text())
    build = reduce_to_free_game(formula, args.cap)
    formats.write_file(args.output, formats.write_fgm(build.game))
    return 0


def cmd_forge(args: argparse.Namespace) -> int:
    if args.strategies is not None and args.what != "cert":  # refused, not dropped
        raise FormatError(f"forge {args.what} takes no strategies file")
    if args.what == "gdoubleprime":  # G'' takes no eps*
        base = formats.parse_bgm(Path(args.input).read_text())
        formats.write_file(args.output, formats.write_bgm(extend_gdoubleprime(base)))
        return 0
    params = derive_params(parse_rational(args.eps_star))
    if args.what == "build":
        free = formats.parse_fgm(Path(args.input).read_text())
        gg = build_hardness_game(free, params, half_cap=args.cap)
        game = rescale_game(gg) if args.scaled else gg.game
        formats.write_file(args.output, formats.write_bgm(game))
        return 0
    if args.what == "gprime":
        base = formats.parse_bgm(Path(args.input).read_text())
        formats.write_file(
            args.output, formats.write_bgm(extend_gprime(base, params.eps_star))
        )
        return 0
    # cert, the one action left: argparse's choices refuse any other.
    if args.strategies is None:
        raise FormatError("forge cert needs a strategies file")
    free = formats.parse_fgm(Path(args.input).read_text())
    s1, s2 = formats.parse_strat(Path(args.strategies).read_text())
    gg = build_hardness_game(free, params, half_cap=args.cap)
    cert = completeness_certificate(gg.free_game, s1, s2, gg)
    formats.write_file(args.output, formats.write_prof(cert))
    return 0


def _parse_index_set(text: str) -> tuple[int, ...]:
    """Comma-separated integer indices, such as `decide --set 0,2`."""
    try:
        return tuple(int(t) for t in text.split(",") if t)
    except ValueError as exc:
        raise FormatError(f"bad index set {text!r}") from exc


def cmd_decide(args: argparse.Namespace) -> int:
    pid = int(args.problem.lstrip("p"))
    # The options first: a bad one needs no game read.
    kwargs: dict = {name: parse_rational(getattr(args, name))
                    for name in ("u", "d", "p", "v") if getattr(args, name) is not None}
    if args.k_param is not None:
        kwargs["k"] = args.k_param
    if args.index_set is not None:
        kwargs["index_set"] = _parse_index_set(args.index_set)
    eps = nonnegative_eps(parse_rational(args.eps))
    required_param(pid, kwargs)
    if pid == 3 and len(args.hint or ()) % 2:
        raise FormatError(f"p3 takes its hints in pairs, got {len(args.hint)}")
    game = formats.parse_bgm(Path(args.game).read_text())
    inst = DecisionInstance(problem_id=pid, game=game, eps=eps, **kwargs)
    hints = [formats.parse_prof(Path(path).read_text()) for path in args.hint or ()]
    if pid == 3:  # p3's witness is a far-apart pair: its hints come two by two
        hints = list(zip(hints[::2], hints[1::2]))
    outcome = decide(inst, k=args.k, budget=args.budget, hints=hints)
    # The witness first: a failed write prints no answer.
    if outcome.witness is not None and args.witness_out:
        formats.write_file(args.witness_out, formats.write_prof(outcome.witness))
    print(outcome.answer)
    return {"yes": 0, "no": 1, "unknown": 2}[outcome.answer]


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = PipelineConfig(
        cnf_path=args.input,
        out_dir=args.out_dir,
        eps_star=parse_rational(args.eps_star),
    )
    report = run_pipeline(cfg)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"satisfiable: {report['satisfiable']}")
        print(f"omega: {report['omega']}")
        for pid, res in sorted(report["deciders"].items()):
            print(f"{pid}: {res['answer']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 like other input errors; 2 means "unknown"."""

    def error(self, message: str):
        raise FormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="negadget",
        description="Bimatrix-game hardness gadgets and equilibrium search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a profile against a game")
    p.add_argument("game")
    p.add_argument("profile")
    p.add_argument("--eps", required=True)
    p.add_argument("--mode", choices=["ne", "wsne"], default="ne")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("value", help="brute-force two-prover game value")
    p.add_argument("game")
    p.add_argument("--budget", type=int, default=VALUE_BUDGET_DEFAULT)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("reduce", help="3SAT to free game")
    p.add_argument("kind", choices=["sat2free"])
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cap", type=int, default=ANSWER_CAP_DEFAULT)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("forge", help="build and extend gadget games")
    p.add_argument("what", choices=["build", "gprime", "gdoubleprime", "cert"])
    p.add_argument("input")
    p.add_argument("strategies", nargs="?")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--eps-star", default=str(PipelineConfig.eps_star))
    p.add_argument("--cap", type=int, default=HALF_CAP_DEFAULT)
    p.add_argument("--scaled", action="store_true")
    p.set_defaults(func=cmd_forge)

    p = sub.add_parser("decide", help="one of the ten decision problems")
    p.add_argument("problem", choices=[f"p{i}" for i in PROBLEMS])
    p.add_argument("game")
    p.add_argument("--eps", required=True)
    p.add_argument("--u")
    p.add_argument("--d")
    p.add_argument("--p")
    p.add_argument("--v")
    p.add_argument("--k-param", type=int, help="the problem's k parameter")
    p.add_argument("--set", dest="index_set", help="comma-separated row indices")
    p.add_argument("--k", type=int, help="k-uniform enumeration granularity")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET_DEFAULT)
    p.add_argument("--hint", action="append",
                   help="candidate .prof file; p3 reads them two by two, as pairs")
    p.add_argument("--witness-out")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("pipeline", help="run the full reduction on a CNF")
    p.add_argument("input")
    p.add_argument("-o", "--out-dir", required=True)
    p.add_argument("--eps-star", default=str(PipelineConfig.eps_star))
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_pipeline)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing reads it and changes nothing."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (GadgetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
