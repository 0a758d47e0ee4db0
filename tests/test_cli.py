from __future__ import annotations

import dataclasses
import errno
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from negadget import cli, formats, gadget, games, pipeline, sat, search
from negadget.cli import main
from negadget.errors import GadgetError, ParameterError
from negadget.gadget import derive_params, extend_gprime, rescale_game
from negadget.games import BimatrixGame, MixedProfile
from negadget.pipeline import PipelineConfig, run_pipeline
from negadget.provers import TwoProverGame

F = Fraction

SINGLE_CNF = "p cnf 3 1\n1 2 3 0\n"
PATTERN_CNF = "p cnf 3 8\n" + "\n".join(
    f"{a} {b} {c} 0" for a in (1, -1) for b in (2, -2) for c in (3, -3)
) + "\n"

COORDINATION = BimatrixGame(R=((1, 0), (0, 1)), C=((1, 0), (0, 1)))
ODD_X_GAME = TwoProverGame(
    x_answers=(2,), y_answers=(1, 1),
    table=((((1,), (0,)), ((1,), (0,))),),
)


def _unlimited_str(value: Fraction) -> str:
    """str(value) with CPython's limit on printed digits lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture()
def coordination_paths(tmp_path):
    game_path = tmp_path / "game.bgm"
    game_path.write_text(formats.write_bgm(COORDINATION))
    prof_path = tmp_path / "p.prof"
    prof_path.write_text(
        formats.write_prof(MixedProfile(x=(1, 0), y=(1, 0)))
    )
    return game_path, prof_path


class TestVerify:
    def test_exact_ne_passes(self, coordination_paths, capsys):
        game, prof = coordination_paths
        assert main(["verify", str(game), str(prof), "--eps", "0"]) == 0
        assert "ok: True" in capsys.readouterr().out

    def test_failing_profile(self, tmp_path, coordination_paths, capsys):
        game, _ = coordination_paths
        bad = tmp_path / "bad.prof"
        bad.write_text(formats.write_prof(MixedProfile(x=(0, 1), y=(1, 0))))
        assert main(["verify", str(game), str(bad), "--eps", "0"]) == 1

    def test_wsne_mode_json(self, coordination_paths, capsys):
        game, prof = coordination_paths
        code = main(
            ["verify", str(game), str(prof), "--eps", "0",
             "--mode", "wsne", "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["row_pure_regret"] == "0"

    @pytest.mark.parametrize("mode, eps, ok", [
        ("ne", "4/3", True), ("ne", "5/4", False),
        ("wsne", "2", True), ("wsne", "4/3", False),
    ])
    def test_json_output_pinned(self, mode, eps, ok, tmp_path, capsys):
        # Ry = (5/2, 1/2) and xC = (5/3, 2): every regret is nonzero, and
        # each pure regret exceeds its regret.
        game = BimatrixGame(R=((3, 1), (0, 2)), C=((1, 0), (2, 3)))
        profile = MixedProfile(x=(F(1, 3), F(2, 3)), y=(F(3, 4), F(1, 4)))
        game_path, prof_path = tmp_path / "g.bgm", tmp_path / "p.prof"
        game_path.write_text(formats.write_bgm(game))
        prof_path.write_text(formats.write_prof(profile))
        argv = ["verify", str(game_path), str(prof_path), "--eps", eps,
                "--mode", mode, "--format", "json"]
        assert main(argv) == (0 if ok else 1)
        assert json.loads(capsys.readouterr().out) == {
            "row_regret": "4/3", "col_regret": "1/4",
            "row_pure_regret": "2", "col_pure_regret": "1/3",
            "row_payoff": "7/6", "col_payoff": "7/4", "welfare": "35/12",
            "mode": mode, "eps": eps, "ok": ok,
        }

    def test_eps_longer_than_str_prints(self, tmp_path, capsys):
        # 1e-4300 parses, but its 4301-digit denominator is past the
        # length str() prints.
        game = tmp_path / "one.bgm"
        game.write_text(formats.write_bgm(BimatrixGame(R=((1,),), C=((1,),))))
        prof = tmp_path / "one.prof"
        prof.write_text(formats.write_prof(MixedProfile(x=(1,), y=(1,))))
        assert main(["verify", str(game), str(prof), "--eps", "1e-4300"]) == 0
        out = capsys.readouterr().out
        assert f"eps: 1/1{'0' * 4300}\n" in out
        assert "ok: True" in out

    def test_regret_longer_than_str_prints(self, tmp_path, capsys):
        # The row regret 10**-2200 - 10**-4400 has a 4401-digit denominator.
        tiny = F(1, 10**2200)
        game = BimatrixGame(R=((tiny,), (0,)), C=((0,), (0,)))
        profile = MixedProfile(x=(tiny, 1 - tiny), y=(1,))
        game_path, prof_path = tmp_path / "g.bgm", tmp_path / "p.prof"
        game_path.write_text(formats.write_bgm(game))
        prof_path.write_text(formats.write_prof(profile))
        argv = ["verify", str(game_path), str(prof_path), "--eps", "1",
                "--format", "json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["row_regret"] == _unlimited_str(tiny - tiny * tiny)
        assert data["welfare"] == _unlimited_str(tiny * tiny)

    def test_malformed_profile_errors(self, tmp_path, coordination_paths, capsys):
        game, _ = coordination_paths
        bad = tmp_path / "bad.prof"
        bad.write_text("prof 1\n2 2\n1/2\n1/3\n1\n0\n")
        assert main(["verify", str(game), str(bad), "--eps", "0"]) == 3

    def test_normalize_keeps_one_weight_object_per_side(
        self, sat_builds, tmp_path, capsys
    ):
        two = sat_builds["two-clause"]
        game, prof = tmp_path / "Gs.bgm", tmp_path / "cert.prof"
        game.write_text(formats.write_bgm(rescale_game(two.gadget)))
        prof.write_text(formats.write_prof(two.cert))
        p = formats.parse_prof(prof.read_text(), normalize=True)
        assert p == two.cert
        assert [len({id(e) for e in v if e}) for v in (p.x, p.y)] == [1, 1]
        runs = []
        for extra in ([], ["--normalize"]):
            code = main(["verify", str(game), str(prof), "--eps", "31/250", *extra])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]


    def test_verify_builds_no_memo_table(self, single_build, tmp_path, monkeypatch,
                                         capsys):
        # The report streams each support line from the code rows: it makes
        # no `IntLines` table and keeps no line, even at full support.
        game = rescale_game(single_build.gadget)
        uniform = MixedProfile(x=(F(1, game.rows),) * game.rows,
                               y=(F(1, game.cols),) * game.cols)
        game_path = tmp_path / "Gs.bgm"
        game_path.write_text(formats.write_bgm(game))
        made, kept = [], []
        real_init, real_missing = games.IntLines.__init__, games.IntLines.__missing__
        monkeypatch.setattr(games.IntLines, "__init__",
                            lambda lines, *args: made.append(args) or real_init(lines, *args))
        monkeypatch.setattr(games.IntLines, "__missing__",
                            lambda lines, t: kept.append(t) or real_missing(lines, t))
        for p in (single_build.cert, uniform):
            prof_path = tmp_path / "p.prof"
            prof_path.write_text(formats.write_prof(p))
            assert main(["verify", str(game_path), str(prof_path), "--eps", "1"]) == 0
        assert "ok: True" in capsys.readouterr().out
        assert (made, kept) == ([], [])

class TestOneParser:
    """`main` builds its parser once per process; no call sees the options
    of an earlier one."""

    def _verify(self, paths, capsys, *options):
        game, prof = paths
        code = main(["verify", str(game), str(prof), "--eps", "0", *options])
        return code, capsys.readouterr().out

    def test_built_on_the_first_call_only(self, coordination_paths, monkeypatch,
                                          capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            runs = [self._verify(coordination_paths, capsys) for _ in range(3)]
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert runs == [runs[0]] * 3 and runs[0][0] == 0

    def test_usage_error_after_a_successful_call(self, coordination_paths, capsys):
        assert self._verify(coordination_paths, capsys)[0] == 0
        game, _ = coordination_paths
        assert main(["decide", "p1", str(game), "--u", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert self._verify(coordination_paths, capsys)[0] == 0

    def test_mode_does_not_carry_over(self, coordination_paths, capsys):
        first = self._verify(coordination_paths, capsys)
        wsne = self._verify(coordination_paths, capsys, "--mode", "wsne")
        again = self._verify(coordination_paths, capsys)
        assert "mode: wsne" in wsne[1].splitlines()
        assert "mode: ne" in first[1].splitlines() and again == first

    def test_format_does_not_carry_over(self, coordination_paths, capsys):
        first = self._verify(coordination_paths, capsys)
        as_json = self._verify(coordination_paths, capsys, "--format", "json")
        again = self._verify(coordination_paths, capsys)
        assert json.loads(as_json[1])["mode"] == "ne"
        assert "ok: True" in first[1].splitlines() and again == first


class TestValue:
    def test_value_of_reduced_game(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        out = tmp_path / "f.fgm"
        assert main(["reduce", "sat2free", str(cnf), "-o", str(out)]) == 0
        assert main(["value", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_value_longer_than_str_prints(self, tmp_path, capsys):
        fgm = tmp_path / "tiny.fgm"
        fgm.write_text("fgm 1\n1 1\n1\n1\n1\nD\n1e-4300\n")
        assert main(["value", str(fgm)]) == 0
        assert capsys.readouterr().out == f"1/1{'0' * 4300}\n"


class TestForge:
    def test_gprime_of_an_entry_longer_than_str(self, tmp_path):
        base = tmp_path / "tiny.bgm"
        base.write_text("bgm 1\n1 1\n1e-4300 0\n")
        out = tmp_path / "gp.bgm"
        assert main(["forge", "gprime", str(base), "-o", str(out)]) == 0
        expected = extend_gprime(formats.parse_bgm(base.read_text()),
                                 PipelineConfig.eps_star)
        assert formats.parse_bgm(out.read_text()) == expected
        assert f"1/1{'0' * 4300} 0\n" in out.read_text()

    def test_extensions_of_a_blockless_game(self, tmp_path):
        # A game without blocks gets one BASE block, which G'' keeps.
        base = tmp_path / "base.bgm"
        base.write_text("bgm 1\n1 1\n1/2 1/4\n")
        gp, gdp = tmp_path / "gp.bgm", tmp_path / "gdp.bgm"
        assert main(["forge", "gprime", str(base), "-o", str(gp)]) == 0
        assert main(["forge", "gdoubleprime", str(gp), "-o", str(gdp)]) == 0
        # Each text's palette lines are its distinct printed pairs, sorted,
        # and its code rows spell the cells with "!" for the first.
        assert gp.read_bytes() == (
            b"bgm 2\n2 2\n4\n"
            b"0 749/1000\n1 1\n1/2 1/4\n749/1000 0\n"
            b"$!\n"
            b"%\"\n"
            b"#block BASE 0 1 0 1\n"
            b"#block COL_J 0 1 1 2\n"
            b"#block ROW_I 1 2 0 2\n"
        )
        assert gdp.read_bytes() == (
            b"bgm 2\n3 3\n6\n"
            b"0 0\n0 749/1000\n1 1\n1/2 1/4\n5/8 5/8\n749/1000 0\n"
            b"%\"&\n"
            b"'$&\n"
            b"&&!\n"
            b"#block BASE 0 1 0 1\n"
            b"#block COL_J 0 1 1 2\n"
            b"#block ROW_I 1 2 0 2\n"
            b"#block COL_JP 0 2 2 3\n"
            b"#block ROW_IP 2 3 0 3\n"
        )

    def test_eps_star_checked_only_where_used(self, tmp_path, capsys):
        # eps* = 1/8 gives delta* = 0: G' rejects it, G'' takes no eps*.
        base = tmp_path / "base.bgm"
        base.write_text("bgm 1\n1 1\n1/2 1/4\n")
        gp, gdp = tmp_path / "gp.bgm", tmp_path / "gdp.bgm"
        eps_star = ["--eps-star", "1/8"]
        assert main(["forge", "gprime", str(base), "-o", str(gp)] + eps_star) == 3
        assert "delta*=0" in capsys.readouterr().err
        assert main(["forge", "gprime", str(base), "-o", str(gp)]) == 0
        assert main(["forge", "gdoubleprime", str(gp), "-o", str(gdp)] + eps_star) == 0
        assert formats.parse_bgm(gdp.read_text()).rows == 3

    @pytest.mark.parametrize("action", ["build", "gprime", "gdoubleprime"])
    def test_strategies_file_refused_where_unused(self, action, tmp_path, capsys,
                                                  monkeypatch):
        # Only cert reads one: refused before any file is read or written.
        read = []
        monkeypatch.setattr(Path, "read_text", lambda path, *a: read.append(path))
        out = tmp_path / "out.bgm"
        assert main(["forge", action, str(tmp_path / "in"), str(tmp_path / "s.strat"),
                     "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: forge {action} takes no strategies file\n"
        assert read == [] and not out.exists()

    def test_build_and_extend(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        fgm = tmp_path / "f.fgm"
        main(["reduce", "sat2free", str(cnf), "-o", str(fgm)])
        gs = tmp_path / "gs.bgm"
        assert main(["forge", "build", str(fgm), "-o", str(gs), "--scaled"]) == 0
        gp = tmp_path / "gp.bgm"
        assert main(["forge", "gprime", str(gs), "-o", str(gp)]) == 0
        gdp = tmp_path / "gdp.bgm"
        assert main(["forge", "gdoubleprime", str(gp), "-o", str(gdp)]) == 0
        game = formats.parse_bgm(gdp.read_text())
        parsed_gp = formats.parse_bgm(gp.read_text())
        assert game.rows == parsed_gp.rows + 1


class TestDecide:
    def test_p1_yes_exit_code(self, tmp_path, coordination_paths, capsys):
        game, _ = coordination_paths
        witness = tmp_path / "w.prof"
        code = main(
            ["decide", "p1", str(game), "--eps", "0", "--u", "1",
             "--k", "1", "--witness-out", str(witness)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"
        # The emitted witness re-verifies.
        assert main(
            ["verify", str(game), str(witness), "--eps", "0"]
        ) == 0

    def test_p10_with_set(self, coordination_paths, capsys):
        game, _ = coordination_paths
        code = main(
            ["decide", "p10", str(game), "--eps", "0", "--set", "1"]
        )
        assert code == 0

    def test_no_exit_code(self, tmp_path, capsys):
        pennies = tmp_path / "mp.bgm"
        pennies.write_text(
            formats.write_bgm(
                BimatrixGame(R=((1, 0), (0, 1)), C=((0, 1), (1, 0)))
            )
        )
        code = main(
            ["decide", "p3", str(pennies), "--eps", "0", "--d", "1/2",
             "--k", "2"]
        )
        assert code == 1

    def test_p3_reads_its_hints_as_pairs(self, single_build, params, tmp_path, capsys):
        # The pipeline's p3 hint on the single fixture's G': the certificate
        # extended to G' and the corner, far apart.
        gp = extend_gprime(rescale_game(single_build.gadget), params.eps_star)
        files = {"Gprime.bgm": formats.write_bgm(gp),
                 "cert_gp.prof": formats.write_prof(gadget.extend_profile(single_build.cert,
                                                                         1, 1)),
                 "corner.prof": formats.write_prof(games.pure_profile(gp, gp.rows - 1,
                                                                      gp.cols - 1))}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        e = params.eps_star
        argv = ["decide", "p3", str(tmp_path / "Gprime.bgm"), "--eps", str(e),
                "--d", str(1 - e / (1 - e)), "--budget", "50",
                "--witness-out", str(tmp_path / "w.prof")]
        cert, corner = ["--hint", str(tmp_path / "cert_gp.prof")], [
            "--hint", str(tmp_path / "corner.prof")]
        assert main(argv + cert + corner) == 0
        assert capsys.readouterr() == ("yes\n", "")
        assert (tmp_path / "w.prof").read_text() == files["cert_gp.prof"]
        # An odd count exits 3 with one error line.
        for hints, count in ((cert, 1), (cert + corner + cert, 3)):
            assert main(argv + hints) == 3
            assert capsys.readouterr() == (
                "", f"error: p3 takes its hints in pairs, got {count}\n")

    def test_failed_witness_write_prints_no_answer(self, tmp_path, coordination_paths,
                                                  capsys):
        game, _ = coordination_paths
        witness = tmp_path / "missing" / "w.prof"
        argv = ["decide", "p1", str(game), "--eps", "0", "--u", "1",
                "--witness-out", str(witness)]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 2]") and err.count("\n") == 1

    @pytest.mark.parametrize("options, message", [
        (["--eps", "abc"], "bad rational 'abc'"),
        (["--eps", "0", "--u", "1/0"], "bad rational '1/0'"),
        (["--eps", "0", "--set", "0,x"], "bad index set '0,x'"),
    ])
    def test_options_read_before_the_game(self, options, message, tmp_path,
                                          coordination_paths, monkeypatch, capsys):
        # As verify does: a bad option is named, whether or not the game file
        # exists, and the game is not read.
        game, _ = coordination_paths
        read = []
        monkeypatch.setattr(formats, "parse_bgm", read.append)
        for path in (game, tmp_path / "missing.bgm"):
            assert main(["decide", "p1", str(path), *options]) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert read == []

    @pytest.mark.parametrize("problem, options, message", [
        ("p7", ["--eps", "31/250"], "problem 7 requires parameter 'k'"),
        ("p1", ["--eps", "0", "--k-param", "2"], "problem 1 requires parameter 'u'"),
        ("p10", ["--eps", "0"], "problem 10 requires parameter 'index_set'"),
        ("p7", ["--eps", "-1"], "eps must be nonnegative"),
    ])
    def test_parameters_checked_before_the_game(self, problem, options, message,
                                                tmp_path, coordination_paths,
                                                monkeypatch, capsys):
        # The checks DecisionInstance makes, in its order (eps first), and
        # with its messages: a missing parameter needs no game read either.
        game, _ = coordination_paths
        read = []
        monkeypatch.setattr(formats, "parse_bgm", read.append)
        for path in (game, tmp_path / "missing.bgm"):
            assert main(["decide", problem, str(path), *options]) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert read == []

    def test_pair_count_too_long_to_print_is_unknown(self, tmp_path, capsys):
        # A 1x14,300 game has 2^14300 - 1 support pairs, over the budget;
        # their count is past what str() prints, and the answer is unknown.
        game = tmp_path / "wide.bgm"
        game.write_text("bgm 1\n1 14300\n" + "0 0\n" * 14300)
        code = main(["decide", "p10", str(game), "--eps", "1/8", "--set", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("unknown\n", "")

    def test_support_problem_over_budget_is_unknown(self, tmp_path, capsys):
        # Matching pennies has 9 support pairs, over a budget of 2.
        pennies = tmp_path / "mp.bgm"
        pennies.write_text(
            formats.write_bgm(
                BimatrixGame(R=((1, 0), (0, 1)), C=((0, 1), (1, 0)))
            )
        )
        code = main(
            ["decide", "p7", str(pennies), "--eps", "0", "--k-param", "1",
             "--budget", "2"]
        )
        assert code == 2
        assert capsys.readouterr().out.strip() == "unknown"


class TestInputErrors:
    """Input errors exit 3 with a one-line message and no traceback."""

    def _assert_one_line_error(self, capsys):
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_missing_input_file(self, tmp_path, coordination_paths, capsys):
        _, prof = coordination_paths
        missing = tmp_path / "missing.bgm"
        assert main(["verify", str(missing), str(prof), "--eps", "0"]) == 3
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", [
        ["verify", "{game}", "{prof}", "--eps", "abc"],
        ["decide", "p1", "{game}", "--eps", "0", "--u", "1/0"],
    ])
    def test_malformed_rational(self, command, coordination_paths, capsys):
        game, prof = coordination_paths
        argv = [a.format(game=game, prof=prof) for a in command]
        assert main(argv) == 3
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", [
        ["decide", "p1", "{game}", "--eps", "0", "--u", "1", "--budget", "abc"],
        ["decide", "p1", "{game}", "--u", "1"],
    ])
    def test_usage_error_is_not_unknown(self, command, coordination_paths, capsys):
        # argparse alone would exit 2, the code of the "unknown" verdict.
        game, _ = coordination_paths
        argv = [a.format(game=game) for a in command]
        assert main(argv) == 3
        self._assert_one_line_error(capsys)

    def test_negative_budget_is_not_unknown(self, coordination_paths, capsys):
        game, _ = coordination_paths
        argv = ["decide", "p1", str(game), "--eps", "0", "--u", "1", "--budget", "-1"]
        assert main(argv) == 3
        self._assert_one_line_error(capsys)

    def test_negative_k(self, coordination_paths, capsys):
        game, _ = coordination_paths
        argv = ["decide", "p1", str(game), "--eps", "0", "--u", "1", "--k", "-1"]
        assert main(argv) == 3
        self._assert_one_line_error(capsys)

    def test_k_below_one_for_a_support_problem(self, coordination_paths, capsys):
        # p7 enumerates supports, so no scan reads --k; it went unchecked.
        game, _ = coordination_paths
        argv = ["decide", "p7", str(game), "--eps", "0", "--k-param", "1", "--k", "0"]
        assert main(argv) == 3
        self._assert_one_line_error(capsys)

    def test_huge_exponent(self, coordination_paths, capsys):
        game, prof = coordination_paths
        assert main(["verify", str(game), str(prof), "--eps", "1e5000"]) == 3
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("mode", ["ne", "wsne"])
    def test_negative_eps_is_an_input_error(self, mode, coordination_paths, capsys):
        # Not a verdict: no profile has a negative regret to fail on.
        game, prof = coordination_paths
        argv = ["verify", str(game), str(prof), "--eps=-1/2", "--mode", mode]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: eps must be nonnegative\n"

    def test_negative_eps_is_checked_before_the_files(self, tmp_path, capsys):
        # Neither file exists: the eps check alone decides, before any read.
        argv = ["verify", str(tmp_path / "missing.bgm"), str(tmp_path / "missing.prof"),
                "--eps=-1/2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: eps must be nonnegative\n"

    @pytest.mark.parametrize("eps", ["1e4300", "123e4299"])
    def test_value_too_long_to_print(self, eps, coordination_paths, capsys):
        # The exponent is within the limit, but str() of a 4301-digit
        # numerator raises ValueError.
        game, prof = coordination_paths
        assert main(["verify", str(game), str(prof), "--eps", eps]) == 3
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("command, game, prof", [
        (["pipeline", "{cnf}", "-o", "{out}", "--eps-star", "1e-4300"], "", ""),
        (["forge", "gprime", "{game}", "-o", "{out}", "--eps-star", "1e-4300"],
         "bgm 1\n1 1\n1 1\n", ""),
        (["forge", "gprime", "{game}", "-o", "{out}"], "bgm 1\n1 1\n-1e-4300 0\n", ""),
        (["verify", "{game}", "{prof}", "--eps", "0"], "bgm 1\n2 1\n1 1\n0 0\n",
         "prof 1\n2 1\n1e-4300\n0\n1\n"),
    ], ids=["pipeline", "gprime-eps-star", "gprime-payoff", "verify"])
    def test_error_message_holds_a_long_rational(self, command, game, prof,
                                                 tmp_path, capsys):
        # Each message names a value with a 4301-digit denominator, which
        # str() refuses to print; verify would otherwise exit 1, "fails".
        paths = {"cnf": tmp_path / "single.cnf", "game": tmp_path / "g.bgm",
                 "prof": tmp_path / "p.prof", "out": tmp_path / "out"}
        paths["cnf"].write_text(SINGLE_CNF)
        paths["game"].write_text(game)
        paths["prof"].write_text(prof)
        assert main([a.format(**paths) for a in command]) == 3
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("command, game, text, message", [
        (["value", "{game}"], "v.fgm",
         "fgm 1\n1 14300\n1\n" + "2 " * 14300 + "\n" + "0\n" * 28600,
         "|S1|*|S2| = at least 2^14300 exceeds budget 16777216"),
        (["forge", "build", "{game}", "-o", "{out}"], "b.fgm",
         "fgm 1\n2 15000\n1 1\n" + "1 " * 15000 + "\n" + "0\n" * 30000,
         "G would be at least 2^14992x15002, over 4194304 cells"),
        (["value", "{game}"], "a.fgm", f"fgm 1\n1 1\n{'7' * 4000}\n{'7' * 4000}\n0\n",
         "expected at least 2^26574 V entries"),
        (["verify", "{game}", "{prof}", "--eps", "0"], "d.bgm",
         f"bgm 1\n{'9' * 3000} {'9' * 3000}\n0 0\n",
         "expected at least 2^19931 entry lines, found 1"),
        (["verify", "{one}", "{game}", "--eps", "0"], "d.prof",
         f"prof 1\n{'9' * 4300} {'9' * 4300}\n1\n1\n",
         "expected at least 2^14285 entries, found 2"),
    ], ids=["game_value", "build_hardness_game", "parse_fgm", "parse_bgm",
            "parse_prof"])
    def test_count_too_long_to_print(self, command, game, text, message,
                                     tmp_path, coordination_paths, capsys):
        # Each count has more digits than str() prints (4,300): the message
        # must still print, and the exit is 3, not a traceback's 1.
        _, prof = coordination_paths
        paths = {"game": tmp_path / game, "prof": prof, "one": tmp_path / "one.bgm",
                 "out": tmp_path / "out"}
        paths["game"].write_text(text)
        paths["one"].write_text("bgm 1\n1 1\n0 0\n")
        assert main([a.format(**paths) for a in command]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("answers, message", [
        ("1", "expected 900000000 V entries"),
        ("0", "every question needs at least one answer"),
    ])
    def test_fgm_refused_in_time_linear_in_its_text(self, answers, message, tmp_path):
        # 30,000 questions a side in 120 KB: a loop over the 9*10^8 question
        # pairs, to count V entries or to build an empty table, takes minutes.
        free = tmp_path / "wide.fgm"
        free.write_text("fgm 1\n30000 30000\n" + f"{answers} " * 30000 + "\n"
                        + f"{answers} " * 30000 + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(formats.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from negadget.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "value", str(free)],
            env=env, capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stderr) == (3, f"error: {message}\n")

    def test_bgm_dimension_past_maxsize(self, tmp_path, coordination_paths, capsys):
        # islice() refuses a stop past sys.maxsize; the entry count is wrong.
        _, prof = coordination_paths
        game = tmp_path / "m.bgm"
        game.write_text(f"bgm 1\n1 {sys.maxsize + 1}\n0 0\n")
        assert main(["verify", str(game), str(prof), "--eps", "0"]) == 3
        assert capsys.readouterr().err == (
            f"error: expected {sys.maxsize + 1} entry lines, found 1\n")

    def test_bgm2_dimension_past_maxsize(self, tmp_path, coordination_paths, capsys):
        # The code rows cannot hold rows*cols*w characters: refused before
        # islice or a split sees the dimensions.
        _, prof = coordination_paths
        game = tmp_path / "m.bgm"
        text = f"bgm 2\n1 {sys.maxsize + 1}\n1\n0 0\n!\n"
        game.write_text(text)
        assert main(["verify", str(game), str(prof), "--eps", "0"]) == 3
        assert capsys.readouterr().err == (
            f"error: 1x{sys.maxsize + 1} codes do not fit in {len(text)} characters\n")

    def test_gadget_over_cell_cap_fails_before_it_is_built(self, tmp_path, capsys):
        # 16 one-answer questions a side: C(16, 8) = 12,870 half subsets pass
        # the half cap, but G would be 12,886 x 12,886.
        free = tmp_path / "wide.fgm"
        free.write_text(formats.write_fgm(TwoProverGame(
            x_answers=(1,) * 16, y_answers=(1,) * 16,
            table=((((1,),),) * 16,) * 16,
        )))
        tracemalloc.start()
        try:
            code = main(["forge", "build", str(free), "-o", str(tmp_path / "G")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        self._assert_one_line_error(capsys)
        assert peak < 2**20, peak

    @pytest.mark.parametrize("command", [
        ["verify", "{bin}", "{prof}", "--eps", "0"],
        ["decide", "p1", "{bin}", "--eps", "0", "--u", "1"],
        ["value", "{bin}"],
        ["reduce", "sat2free", "{bin}", "-o", "{out}"],
        ["forge", "build", "{bin}", "-o", "{out}"],
        ["pipeline", "{bin}", "-o", "{out}"],
    ])
    def test_input_not_utf8(self, command, tmp_path, coordination_paths, capsys):
        # verify and decide would otherwise exit 1, a verdict.
        _, prof = coordination_paths
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe")
        argv = [a.format(bin=binary, prof=prof, out=tmp_path / "out")
                for a in command]
        assert main(argv) == 3
        self._assert_one_line_error(capsys)

    def test_forge_build_odd_side(self, tmp_path, capsys):
        # One X question: the gadget's half-subset blocks need even sides.
        free = tmp_path / "odd.fgm"
        free.write_text(formats.write_fgm(ODD_X_GAME))
        out = tmp_path / "G.bgm"
        assert main(["forge", "build", str(free), "-o", str(out)]) == 3
        self._assert_one_line_error(capsys)
        assert not out.exists()

    def test_malformed_index_set(self, coordination_paths, capsys):
        game, _ = coordination_paths
        assert main(["decide", "p10", str(game), "--eps", "0", "--set", "a"]) == 3
        self._assert_one_line_error(capsys)

    def test_too_many_entry_pairs(self, coordination_paths, capsys, monkeypatch):
        # COORDINATION has two distinct (R, C) pairs, one past this limit.
        monkeypatch.setattr(games, "PALETTE_LIMIT", 1)
        game, prof = coordination_paths
        assert main(["verify", str(game), str(prof), "--eps", "0"]) == 3
        self._assert_one_line_error(capsys)

    def test_non_integer_block_bound(self, tmp_path, coordination_paths, capsys):
        _, prof = coordination_paths
        game = tmp_path / "block.bgm"
        game.write_text(formats.write_bgm(COORDINATION) + "#block A x 1 0 1\n")
        assert main(["verify", str(game), str(prof), "--eps", "0"]) == 3
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", [
        ["reduce", "sat2free", "{cnf}", "-o", "{out}"],
        ["pipeline", "{cnf}", "-o", "{out}"],
    ])
    def test_non_integer_problem_line(self, command, tmp_path, capsys):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf x 1\n1 2 3 0\n")
        out = tmp_path / "out"
        assert main([a.format(cnf=cnf, out=out) for a in command]) == 3
        self._assert_one_line_error(capsys)

    def test_answer_cap_fails_before_blocks_are_built(
        self, tmp_path, capsys, monkeypatch
    ):
        # K = 1001 blocks of about 999 variables each: X question 0 alone
        # has 2^999 answers, which the formula's sizes already show.
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 1000000 1\n1 2 3 0\n")

        def no_partition(*args, **kwargs):
            raise AssertionError("partition_bipartite called")

        monkeypatch.setattr(sat, "partition_bipartite", no_partition)
        tracemalloc.start()
        try:
            code = main(["reduce", "sat2free", str(cnf), "-o", str(tmp_path / "F")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == (
            "error: X question 0 has 2^999 answers, cap 65536\n"
        )
        assert peak < 2**20, peak

    @pytest.mark.parametrize("num_vars, size", [
        (10**18, 999999999), (10**40, 99999999999999999999),
    ])
    def test_answer_cap_of_a_huge_header_builds_no_power(
        self, num_vars, size, tmp_path, capsys
    ):
        # 2^size was built to compare it with the cap: 5 s and 430 MB at
        # 10^18 variables.  At 10^40 len() of a block overflowed, and an
        # OverflowError traceback exited 1, the "fail" verdict.
        cnf = tmp_path / "huge.cnf"
        cnf.write_text(f"p cnf {num_vars} 1\n1 2 3 0\n")
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["reduce", "sat2free", str(cnf), "-o", str(tmp_path / "F")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: X question 0 has 2^{size} answers, cap 65536\n"
        )
        assert peak < 2**20, peak

    @pytest.mark.parametrize("command, message", [
        (["reduce", "sat2free", "{cnf}", "-o", "{out}"],
         "both sides must be nonempty"),
        (["pipeline", "{cnf}", "-o", "{out}"],
         "stage 'free_game' failed: both sides must be nonempty"),
    ])
    def test_clause_free_formula(self, command, message, tmp_path, capsys):
        # The pipeline's partition runs inside its one free_game stage,
        # which names the failure; it was stage 'partition'.
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 3 0\n")
        out = tmp_path / "out"
        assert main([a.format(cnf=cnf, out=out) for a in command]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, name", [
        (["value", "{fgm}", "--budget", "-1"], "budget"),
        (["reduce", "sat2free", "{cnf}", "-o", "{out}", "--cap", "-1"], "answer_cap"),
        (["forge", "build", "{fgm}", "-o", "{out}", "--cap", "-1"], "half_cap"),
    ])
    def test_negative_budget_or_cap(self, command, name, tmp_path, capsys):
        # Each said that a count exceeded -1, a ResourceError.
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        fgm = tmp_path / "F.fgm"
        assert main(["reduce", "sat2free", str(cnf), "-o", str(fgm)]) == 0
        out = tmp_path / "out"
        assert main([a.format(cnf=cnf, fgm=fgm, out=out) for a in command]) == 3
        assert capsys.readouterr().err == f"error: {name} must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["reduce", "sat2free", "{cnf}", "-o", "{out}"],
        ["pipeline", "{cnf}", "-o", "{out}"],
    ])
    def test_second_problem_line(self, command, tmp_path, capsys):
        cnf = tmp_path / "two.cnf"
        cnf.write_text("p cnf 3 2\n1 2 3 0\np cnf 3 1\n")
        out = tmp_path / "out"
        assert main([a.format(cnf=cnf, out=out) for a in command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("second problem line: 'p cnf 3 1'\n")

    def test_bgm_dimension_below_one(self, tmp_path, coordination_paths, capsys):
        _, prof = coordination_paths
        game = tmp_path / "neg.bgm"
        # (-1) * (-1) = 1 entry line, so the count check alone passes it.
        game.write_text("bgm 1\n-1 -1\n1 1\n")
        assert main(["verify", str(game), str(prof), "--eps", "0"]) == 3
        self._assert_one_line_error(capsys)

    def test_prof_dimension_below_one(self, tmp_path, capsys):
        # Two entries would otherwise read as a 1x1 profile.
        game = tmp_path / "one.bgm"
        game.write_text(formats.write_bgm(BimatrixGame(R=((1,),), C=((1,),))))
        prof = tmp_path / "neg.prof"
        prof.write_text("prof 1\n-1 3\n1\n1\n")
        assert main(["verify", str(game), str(prof), "--eps", "0"]) == 3
        self._assert_one_line_error(capsys)

    def test_forge_cert_without_strategies(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        fgm = tmp_path / "f.fgm"
        assert main(["reduce", "sat2free", str(cnf), "-o", str(fgm)]) == 0
        out = tmp_path / "c.prof"
        assert main(["forge", "cert", str(fgm), "-o", str(out)]) == 3
        self._assert_one_line_error(capsys)
        assert not out.exists()


class TestPipeline:
    @pytest.mark.parametrize("name", ["search_budget"])
    def test_limits_must_be_positive(self, name):
        with pytest.raises(GadgetError, match=f"{name} must be at least 1, got 0"):
            PipelineConfig(cnf_path="f.cnf", out_dir="out", **{name: 0})

    def test_eps_star_must_be_exact(self):
        # 0.1 would enter every verdict as 3602879701896397/2**55.
        with pytest.raises(ParameterError, match="expected an exact rational, got float"):
            PipelineConfig(cnf_path="f.cnf", out_dir="out", eps_star=0.1)
        assert PipelineConfig("f.cnf", "out", eps_star="31/250").eps_star == F(31, 250)

    @pytest.mark.parametrize(
        "name", ["answer_cap", "half_cap", "value_budget", "sat_budget"]
    )
    def test_stage_limits_are_constants(self, name):
        assert name not in {f.name for f in dataclasses.fields(PipelineConfig)}
        with pytest.raises(TypeError):
            PipelineConfig(cnf_path="f.cnf", out_dir="out", **{name: 1})
        assert getattr(PipelineConfig("f.cnf", "out"), name) >= 1

    def test_reduce_and_pipeline_partition_once(self, tmp_path, monkeypatch):
        # Both reach the free game through sat.reduce_to_free_game alone.
        calls = []
        real = sat.partition_bipartite

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sat, "partition_bipartite", spy)
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        assert main(["reduce", "sat2free", str(cnf), "-o", str(tmp_path / "F")]) == 0
        assert len(calls) == 1
        run_pipeline(PipelineConfig(str(cnf), str(tmp_path / "out")))
        assert len(calls) == 2

    def test_satisfiable_run(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        out_dir = tmp_path / "out"
        code = main(
            ["pipeline", str(cnf), "-o", str(out_dir), "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["satisfiable"] is True
        assert report["omega"] == "1"
        assert report["certificate"]["unscaled_welfare"] == "2"
        assert all(
            res["answer"] == "yes" for res in report["deciders"].values()
        )
        for name in ("F.fgm", "G.bgm", "Gs.bgm", "Gprime.bgm",
                     "Gdouble.bgm", "cert.prof", "report.json"):
            assert (out_dir / name).exists()

    def test_byte_determinism(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            run_pipeline(
                PipelineConfig(cnf_path=str(cnf), out_dir=str(out_dir))
            )
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out_dir.iterdir())
                }
            )
        assert outputs[0] == outputs[1]

    def test_one_report_and_one_rescale_per_game(self, tmp_path, monkeypatch):
        # The regret kernel runs on the certificate once on G and once on
        # Gs, and the deciders run it on the two G' hints and the G'' hint.
        calls = {"report": 0, "rescale": 0}
        real_report, real_rescale = games.regret_ints, gadget.rescale_game

        def report(g, p):
            calls["report"] += 1
            return real_report(g, p)

        def rescale(gg):
            calls["rescale"] += 1
            return real_rescale(gg)

        for module in (games, search, gadget):
            monkeypatch.setattr(module, "regret_ints", report)
        for module in (gadget, pipeline):
            monkeypatch.setattr(module, "rescale_game", rescale)
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        run_pipeline(PipelineConfig(cnf_path=str(cnf), out_dir=str(tmp_path / "o")))
        assert calls == {"report": 5, "rescale": 1}

    def test_bad_eps_star_stage_error(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        code = main(
            ["pipeline", str(cnf), "-o", str(tmp_path / "out"),
             "--eps-star", "1/8"]
        )
        assert code == 3
        assert "derive_params" in capsys.readouterr().err

    def test_report_of_an_eps_star_longer_than_str(self, tmp_path):
        # eps* = 1/8 - 10**-4300, so eps*, delta* and D1 have 4301-digit
        # denominators.
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        eps_star = F(1, 8) - F(1, 10**4300)
        text = formats.format_rational(eps_star)
        code = main(["pipeline", str(cnf), "-o", str(tmp_path / "out"),
                     "--eps-star", text])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["eps_star"] == text
        assert games.parse_rational(report["params"]["d1_payoff"]) == (
            derive_params(eps_star).d1_payoff)

    def test_certificate_reverifies_via_cli(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        out_dir = tmp_path / "out"
        run_pipeline(PipelineConfig(cnf_path=str(cnf), out_dir=str(out_dir)))
        report = json.loads((out_dir / "report.json").read_text())
        eps = F(1) - 4 * F(1, 138) * F(report["params"]["delta_star"])
        assert main(
            ["verify", str(out_dir / "G.bgm"), str(out_dir / "cert.prof"),
             "--eps", str(eps)]
        ) == 0


class TestArtifactWrites:
    """Every artifact is saved by formats.write_file, which rewrites an
    existing file in place instead of truncating it to zero first."""

    ARTIFACTS = ("F.fgm", "G.bgm", "Gs.bgm", "Gprime.bgm", "Gdouble.bgm",
                 "cert.prof", "report.json")

    def _run(self, tmp_path, cnf_text, out_dir):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(cnf_text)
        return run_pipeline(PipelineConfig(cnf_path=str(cnf), out_dir=str(out_dir)))

    def test_rerun_rewrites_each_artifact_in_place(self, tmp_path):
        out_dir = tmp_path / "out"
        self._run(tmp_path, SINGLE_CNF, out_dir)
        first = {n: ((out_dir / n).read_bytes(), (out_dir / n).stat().st_ino)
                 for n in self.ARTIFACTS}
        self._run(tmp_path, SINGLE_CNF, out_dir)
        second = {n: ((out_dir / n).read_bytes(), (out_dir / n).stat().st_ino)
                  for n in self.ARTIFACTS}
        assert second == first

    def test_rerun_never_truncates_to_zero(self, tmp_path, monkeypatch):
        # ext4 flushes a file truncated to zero when it is closed.
        out_dir = tmp_path / "out"
        self._run(tmp_path, SINGLE_CNF, out_dir)
        flags, real_open = [], os.open

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        self._run(tmp_path, SINGLE_CNF, out_dir)
        writes = [f for f in flags if f & os.O_WRONLY]
        assert len(writes) == len(self.ARTIFACTS)
        assert not any(f & os.O_TRUNC for f in writes)

    def test_unsatisfiable_rerun_removes_a_stale_certificate(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        self._run(tmp_path, SINGLE_CNF, out_dir)
        assert (out_dir / "cert.prof").exists()
        report = self._run(tmp_path, PATTERN_CNF, out_dir)
        assert report["satisfiable"] is False
        assert not (out_dir / "cert.prof").exists()
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            n for n in self.ARTIFACTS if n != "cert.prof")
        # With no certificate there is nothing to verify G_s against.
        assert main(["verify", str(out_dir / "Gs.bgm"),
                     str(out_dir / "cert.prof"), "--eps", "0"]) == 3
        assert "No such file" in capsys.readouterr().err

    def test_shorter_rewrite_leaves_no_trailing_bytes(self, tmp_path):
        path = tmp_path / "a.txt"
        formats.write_file(path, "0123456789\n" * 10)
        formats.write_file(path, "short\n")
        assert path.read_bytes() == b"short\n"
        formats.write_file(path, "")
        assert path.read_bytes() == b""

    def test_failed_write_leaves_an_empty_file(self, tmp_path, monkeypatch):
        path = tmp_path / "G.bgm"
        path.write_text("old " * 1000)
        real_open = open

        class HalfThenFull:
            """Writes the first half of the text, then the disk is full."""

            def __init__(self, *args, **kwargs):
                self.f = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                self.f.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(formats, "open", HalfThenFull, raising=False)
        with pytest.raises(OSError) as info:
            formats.write_file(path, "new " * 100)
        assert info.value.errno == errno.ENOSPC
        assert path.read_bytes() == b""

    def test_write_cut_short_by_the_kernel_leaves_an_empty_file(self, tmp_path):
        # RLIMIT_FSIZE makes the kernel fail the write past 4096 bytes with
        # EFBIG after the first 4096 reached the file (Python ignores SIGXFSZ).
        path = tmp_path / "G.bgm"
        path.write_text("o" * 10_000)
        code = (
            "import resource, sys\n"
            "from negadget import formats\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))\n"
            "try:\n"
            "    formats.write_file(sys.argv[1], 'n' * 100_000)\n"
            "except OSError as e:\n"
            "    sys.exit(e.errno)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(formats.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env)
        assert done.returncode == errno.EFBIG
        assert path.read_bytes() == b""

    def test_same_bytes_as_write_text(self, tmp_path):
        text = "bgm 1\n2 2\n1/2 -3\r\n\n0 0\n"
        (tmp_path / "a").write_text(text)
        formats.write_file(tmp_path / "b", text)
        assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()

    def test_write_follows_a_symlink_and_keeps_hard_links(self, tmp_path):
        target = tmp_path / "target.bgm"
        target.write_text("old text that is longer\n")
        link = tmp_path / "link.bgm"
        link.symlink_to(target)
        hard = tmp_path / "hard.bgm"
        hard.hardlink_to(target)
        formats.write_file(link, "new\n")
        assert link.is_symlink()
        assert target.read_text() == hard.read_text() == "new\n"

    def test_modes_match_write_text(self, tmp_path):
        old_umask = os.umask(0o027)
        try:
            (tmp_path / "a").write_text("x")
            formats.write_file(tmp_path / "b", "x")
        finally:
            os.umask(old_umask)
        assert (tmp_path / "b").stat().st_mode == (tmp_path / "a").stat().st_mode
        (tmp_path / "b").chmod(0o600)
        formats.write_file(tmp_path / "b", "yy")
        assert stat.S_IMODE((tmp_path / "b").stat().st_mode) == 0o600

    @pytest.mark.parametrize("action", ["build", "gprime", "gdoubleprime"])
    def test_forge_to_a_directory_exits_3(self, action, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CNF)
        fgm, gs = tmp_path / "f.fgm", tmp_path / "gs.bgm"
        assert main(["reduce", "sat2free", str(cnf), "-o", str(fgm)]) == 0
        assert main(["forge", "build", str(fgm), "-o", str(gs), "--scaled"]) == 0
        source = fgm if action == "build" else gs
        assert main(["forge", action, str(source), "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_other_file_writer_in_the_library(self):
        src = Path(formats.__file__).parent
        offenders = [p.name for p in sorted(src.glob("*.py"))
                     if "write_text(" in p.read_text()]
        assert offenders == []
