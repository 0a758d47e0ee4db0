from __future__ import annotations

import json
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from negadget import cli, formats
from negadget.cli import main
from negadget.errors import GadgetError
from negadget.gadget import derive_params, extend_gprime
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
        assert gp.read_bytes() == (
            b"bgm 1\n2 2\n"
            b"1/2 1/4\n0 749/1000\n"
            b"749/1000 0\n1 1\n"
            b"#block BASE 0 1 0 1\n"
            b"#block COL_J 0 1 1 2\n"
            b"#block ROW_I 1 2 0 2\n"
        )
        assert gdp.read_bytes() == (
            b"bgm 1\n3 3\n"
            b"1/2 1/4\n0 749/1000\n5/8 5/8\n"
            b"749/1000 0\n1 1\n5/8 5/8\n"
            b"5/8 5/8\n5/8 5/8\n0 0\n"
            b"#block BASE 0 1 0 1\n"
            b"#block COL_J 0 1 1 2\n"
            b"#block ROW_I 1 2 0 2\n"
            b"#block COL_JP 0 2 2 3\n"
            b"#block ROW_IP 2 3 0 3\n"
        )

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

    def test_negative_k(self, coordination_paths, capsys):
        game, _ = coordination_paths
        argv = ["decide", "p1", str(game), "--eps", "0", "--u", "1", "--k", "-1"]
        assert main(argv) == 3
        self._assert_one_line_error(capsys)

    def test_huge_exponent(self, coordination_paths, capsys):
        game, prof = coordination_paths
        assert main(["verify", str(game), str(prof), "--eps", "1e5000"]) == 3
        self._assert_one_line_error(capsys)

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

        monkeypatch.setattr(cli, "partition_bipartite", no_partition)
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
    @pytest.mark.parametrize(
        "name",
        ["answer_cap", "half_cap", "value_budget", "sat_budget", "search_budget"],
    )
    def test_limits_must_be_positive(self, name):
        with pytest.raises(GadgetError, match=f"{name} must be positive"):
            PipelineConfig(cnf_path="f.cnf", out_dir="out", **{name: 0})

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
        # The certificate is reported once on G and once on Gs; the
        # deciders report the two G' hints and the one G'' hint.
        from negadget import gadget, games, pipeline, search

        calls = {"report": 0, "rescale": 0}
        real_report, real_rescale = games.regret_report, gadget.rescale_game

        def report(g, p):
            calls["report"] += 1
            return real_report(g, p)

        def rescale(gg):
            calls["rescale"] += 1
            return real_rescale(gg)

        for module in (games, gadget, search):
            monkeypatch.setattr(module, "regret_report", report)
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
        assert formats._parse_rational(report["params"]["d1_payoff"]) == (
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
