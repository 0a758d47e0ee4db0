"""Golden SHA-256 hashes of the pipeline artifacts.

`run_pipeline` runs at the default `PipelineConfig` on the five satisfiable
corpus fixtures, on the unsatisfiable `pattern` fixture, on `probe` and on
`wide-probe`, and every artifact it writes must hash to the value recorded
here.  The runs use relative paths from a temporary working directory, so
the ``input`` key of `report.json` does not depend on where the tests run.
A change that alters an artifact on purpose updates these hashes and says
why in CHANGES.md.

`VALUES` pins each fixture's artifacts as the values read back from them, a
game by its `canonical` form and a free game or a profile by its fields, so
it holds through a change of text format that keeps every value.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from negadget.cli import main
from negadget.corpus import (
    full_sign_pattern, satisfiable_fixtures, unsatisfiable_fixtures
)
from negadget.formats import (
    format_rational, parse_bgm, parse_fgm, parse_prof, write_fgm
)
from negadget.pipeline import PipelineConfig, run_pipeline
from negadget.sat import (
    Cnf3Formula,
    build_clause_variable_free_game,
    formula_degree,
    incidence_graph,
    partition_bipartite,
)

# A satisfiable formula whose G is 292x2370, large enough that a per-entry
# cost in the gadget layer or the writers shows.  It stays out of the
# corpus, whose satisfiable fixtures the benchmark runs.
PROBE = Cnf3Formula(num_vars=10, clauses=(
    (10, -9, -7), (5, 1, -4), (-4, -3, 1), (-3, 2, -6), (7, -8, -6),
    (4, -6, -1), (-2, -9, 6), (-5, 9, 6), (-3, -7, 9), (-3, -10, -7),
    (-10, -2, 6), (6, -9, -3),
))

# A satisfiable formula whose free game has 33,284 Y answers, large enough
# that a per-entry cost in the verdict table shows.  Its G is 56x33,304,
# 1.87 M cells: its artifacts pin the gadget layer and the writers at
# gadget scale, and the whole pipeline on it takes about 2 s.
WIDE_PROBE = Cnf3Formula(num_vars=15, clauses=(
    (-3, 10, 13), (8, 15, 11), (15, -14, 7), (-8, -5, 12), (6, -1, -14),
    (-7, -11, -4), (-13, 8, -14), (-13, 8, -5), (15, -11, -2), (-2, -12, -6),
    (7, 9, -11), (8, -14, 9), (12, 13, -7), (-12, 13, -11), (-2, 13, 3),
    (1, -8, -15),
))
WIDE_PROBE_FGM = "c6ca1835cbe215c241240b98ec38ae6df581a9e921770330e9a144c6bbfc0dfb"

# WIDE_PROBE's first eight clauses and every sign pattern over x1, x2, x3:
# unsatisfiable, with G 56x16,416.  G' has (2^57 - 1)(2^16417 - 1) support
# pairs, a count past what str() prints.
UNSAT_WIDE = Cnf3Formula(num_vars=15, clauses=(
    WIDE_PROBE.clauses[:8] + full_sign_pattern((1, 2, 3)).clauses))
UNSAT_WIDE_FGM = "d9c96164c496e972d27f2078778106382610d5346ef98e5332b3d0e289af759a"

FIXTURES = {
    **satisfiable_fixtures(),
    "pattern": unsatisfiable_fixtures()["pattern"],
    "probe": PROBE,
    "wide-probe": WIDE_PROBE,
}

GOLDEN = {
    "alternating/F.fgm":
        "f7d7747370e01bd83081e6d9a3ef054055f09c1b84e3c8599e526332151bb8a1",
    "alternating/G.bgm":
        "356297ca2c96185a15203f6e8d0ca4b7c2f7ed1f87c9f67d5a708a93afdfc322",
    "alternating/Gdouble.bgm":
        "b970020d1a4df8b44c7aa7d4c8a8a1955f2d0c623a7dc7ce55e265368e304430",
    "alternating/Gprime.bgm":
        "35002f6a782e4f1c921c59f1462f4f8331af1afe757b2136c1384a6eca53f918",
    "alternating/Gs.bgm":
        "20b857c33ce69ea1406792cb722b556f217f0d238913424733a3fe49e4afe16e",
    "alternating/cert.prof":
        "c70bb50ae6c5f2fe56f0cbc434080eefec5ea926950a828a3f445730d0685027",
    "alternating/report.json":
        "f3dafc1033b991f51144f51bb214f12963c96690fc3d285b20fbebe7bdfa6a12",
    "complementary/F.fgm":
        "168f29a2be7159bcee0d7e338ed5e68806152badda3d65aea0bb9d834076f589",
    "complementary/G.bgm":
        "fde354026be5d1fe83ab87659db943ca6c8ef696a4e1ed1fdafe49deee7ff3bb",
    "complementary/Gdouble.bgm":
        "b4ed6d816a1f7c0033f2ae9e35a04e181e542cf180499e2f96b6e2a230771b9a",
    "complementary/Gprime.bgm":
        "2da3ec376f0a4bf9011ca638bd1d684c249332822fea679a292033b26d2b9ec2",
    "complementary/Gs.bgm":
        "35bb09629359c8f7a827965c4cd56dacbde30f4ab5862c858de45e91baef7f1b",
    "complementary/cert.prof":
        "7a8e8623404524cdf15215adeee0cfdd58134741be1160f2608bf90b9385a03f",
    "complementary/report.json":
        "ee3c511c5f5597abe6703da59373510819de9163992602e8799ac61a1c2fe888",
    "pattern/F.fgm":
        "bd5f12f347ce0bb04c171f0fd929ad7c962cc00c3f012b26b66d64361bd164f7",
    "pattern/G.bgm":
        "f5d18ec8ccf9eb0e39105d2e8fcccb016f6d169510b847e626534ae1030237e4",
    "pattern/Gdouble.bgm":
        "d22e1d7682694e5498aa1b553a83556545838be40a8c8d2ad2797bfe7842bb48",
    "pattern/Gprime.bgm":
        "f774df1b50fc9939b0f0e078d712eb39a663721eaf0a37372894f4b6c746a280",
    "pattern/Gs.bgm":
        "7efa4619f568ab90e705f11e2e58a132e86d90fc070ad76b8490eda37b8fdafb",
    "pattern/report.json":
        "c10c065a2b7bd1e292b0dc3ba1f7c393454fe6669868fb16ef30db3a37790fc7",
    "probe/F.fgm":
        "837d7af07da1bf640be510656edac9e7a1b12bb70232b70cd6198a84dba4caae",
    "probe/G.bgm":
        "1e9dfb13b9678ccff19b5fd4a650995859bf6fcba92ff8357ce55d604ee53441",
    "probe/Gdouble.bgm":
        "f133b0f8f8f58084b7b7f1cfe41e66f3155e8ba7b7423f849e91f37939ec3d8f",
    "probe/Gprime.bgm":
        "f0324aea6df4054d548be2d55b45a701dfa1896e69865e1e27b8971f83ea7f8d",
    "probe/Gs.bgm":
        "9d8492782024b1232540224ff892596b05e05da019053dd4340875f5bdf88a7e",
    "probe/cert.prof":
        "ac980415098aa1de4bf2d0aaa2d04811b8597bba4a50837b673b2cdda0ee195e",
    "probe/report.json":
        "d11488eac3b0229d4c815dcaab9fdf3bdf8b0c0e4ef61f9c5de0b77532087184",
    "seven-of-eight/F.fgm":
        "5fe65c62564fc6726244693acd67eb5dff7cd19cbd7399cce60ab9f39476ec47",
    "seven-of-eight/G.bgm":
        "2f4c27a09588c4c62f3b15c967e4edd6a16340d83d4a1bf970a9a9c0911a5dcf",
    "seven-of-eight/Gdouble.bgm":
        "03448324a17877681b60b60bd1e341b3e725be4146ac66b5761ebcf412a125e7",
    "seven-of-eight/Gprime.bgm":
        "6197df1167d7b7cd666c70875db5a51db4bec3d2c2ee8122401fa2910ee8ebd0",
    "seven-of-eight/Gs.bgm":
        "b2dde1c91cdfdb93034eadfeba62e6b7cf43dedb4f4edd026cb03f46937e7f48",
    "seven-of-eight/cert.prof":
        "e0c595160a5606e396f303df6b47efb708b2dbccdf55370aa7eb9073a4ec6ef5",
    "seven-of-eight/report.json":
        "7225639f592f9982b8982cd09a7630d03835e26846570a32556379c66d05ccfb",
    "single/F.fgm":
        "92a1e974707c634d30df7feb75ffbd96d58d2b2a400608290bc7f9ea847cbba7",
    "single/G.bgm":
        "5008a72d00eecd6d9989f7082b3fcc55ab5b49f22f1f79059e5cd5875374389f",
    "single/Gdouble.bgm":
        "c5d1a902060e5254a458dbfe098bb54c67b0a3427e8563e2533e3ea2fb855657",
    "single/Gprime.bgm":
        "7443f4d68ff909eb496a60bc4327762cf4b78070db98593c8aab986b41c463e5",
    "single/Gs.bgm":
        "2f4c3fe91e7bd157ceb0d7ef9265ad024b2ce13930e969d415e18ef905fd2138",
    "single/cert.prof":
        "7d8ef5ab4a5428753698e54bd536727f7e910b8902340962e61f41888ef8b27c",
    "single/report.json":
        "29c5052e5aa9289397e6eba85002bf165f8960d8db290388c91a70a816cbb4b8",
    "wide-probe/F.fgm":
        "c6ca1835cbe215c241240b98ec38ae6df581a9e921770330e9a144c6bbfc0dfb",
    "wide-probe/G.bgm":
        "3e3b172e9901025bc0410ea6e887d0a654be18d3205417f092eabe615d98258a",
    "wide-probe/Gdouble.bgm":
        "ec7448ce02a370a37794a94ee9cfe7ec1a4ae2946e1d5ccbf511a6f961d99f29",
    "wide-probe/Gprime.bgm":
        "dae8c6b06b960ddd8d3666fb8e334f07d5b2fc9eab6fe657e54e0a96cd002107",
    "wide-probe/Gs.bgm":
        "bcf48a1b5c5205a16428d34ad2842f3e6e9383d3b0dfe8d60b74693823f7a85c",
    "wide-probe/cert.prof":
        "c048a3078b84fe69a38b8c1ed6a5e287ffc615b169c78f89bfed430ae2d13ec0",
    "wide-probe/report.json":
        "6bd011028a6698f13ca6c057c514d93c390afdf6a02e165fef140faf316d7207",
    "two-clause/F.fgm":
        "eec2549a71ae2a99e8af805adedf80a2abe454da21dce7cd6bf3d5b4301ca4e9",
    "two-clause/G.bgm":
        "a9cb6a4f4a8abae02da7919cd3882db1a4c5216d2e8f5bf0e4eb838b032cd6dc",
    "two-clause/Gdouble.bgm":
        "66a1a5d55fb0af47baeef8410617a2ec04e6505a09e88409c119707a58f661e2",
    "two-clause/Gprime.bgm":
        "8268ca2810af90aedeaf2463f9ea90c70efa31f563c3a154acd9dc336d4398b2",
    "two-clause/Gs.bgm":
        "f45314c3f006988811d4e158f3d97b581b9f17de1ff05e212013441d96c5811c",
    "two-clause/cert.prof":
        "545d7ec44f674664219ab9fdd81980bc2063a61437520f72eec234e8d930de79",
    "two-clause/report.json":
        "8597582731ae1dc17a251432d224bee2b9f18d989a4877bb976bfd62bea5c453",
}


# The sha256 of `_values(out_dir)` per fixture, and of `_free_value` for the
# unsat wide probe's F.fgm.
VALUES = {
    "single": "ff23569b3df33e3c5110e8943e90c86298beebae06f6c4c5e3bca27aef8d05e6",
    "two-clause": "8edb5b8a48e1178198460a5cb9bc6c9f690edb637a4d98a52cef3438c7eb6cb7",
    "complementary": "6a0acec54471a4d6550cbd696b90208b73611a81e293def8d3ec354a8975a0ea",
    "alternating": "f92b2d6fb3bc1476eb1d1e89be7a2a70fe115f1e77bd11c49926e2e27110a986",
    "seven-of-eight": "8544e4ba954e9a988eb780fb47d86498b88e7b09d295aa17789bb635e6617f09",
    "pattern": "8bf2d76dc3e273122b9c210a7140e2bcd94b515fb58f2c6a96d959e5af3ff2da",
    "probe": "07741999983b9d32388aae6c3e314182cfd2bea71be8a952eed31fa3a925b71f",
    "wide-probe": "0494bf1cbbf945ac11a14515e7cb71e2e4120c00dfcdae5a7ed4b8fb71963e54",
}
UNSAT_WIDE_FGM_VALUE = "f58b04c0aebf28961c626cbf2138ee364cd9c1aed7062cbdd2af964b4e9e8af9"


def _rationals(values) -> list[str]:
    return list(map(format_rational, values))


def _free_value(text: str) -> list:
    t = parse_fgm(text)
    return [t.x_answers, t.y_answers, t.table,
            t.dist and [_rationals(row) for row in t.dist]]


def _value(path: Path) -> list:
    """The value read from a `.bgm`, `.fgm` or `.prof` artifact, as JSON."""
    text = path.read_text()
    if path.suffix == ".bgm":
        pairs, codes, blocks = parse_bgm(text).canonical
        return [[_rationals(pair) for pair in pairs], codes, blocks]
    if path.suffix == ".fgm":
        return _free_value(text)
    p = parse_prof(text)
    return [p.rows, p.cols, _rationals(p.x), _rationals(p.y)]


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _values(out_dir: Path) -> str:
    """The sha256 of every text artifact's value in ``out_dir``, by name."""
    return _sha({p.name: _value(p) for p in sorted(out_dir.iterdir())
                 if p.suffix in (".bgm", ".fgm", ".prof")})


def _dimacs(formula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in formula.clauses]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", list(FIXTURES))
def test_artifacts_match_golden_hashes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cnf = Path(f"{name}.cnf")
    cnf.write_text(_dimacs(FIXTURES[name]))
    run_pipeline(PipelineConfig(cnf_path=str(cnf), out_dir=name))
    hashes = {
        f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in Path(name).iterdir()
    }
    assert hashes == {
        key: value for key, value in GOLDEN.items()
        if key.startswith(f"{name}/")
    }


@pytest.mark.parametrize("name", list(FIXTURES))
def test_artifacts_read_back_to_pinned_values(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cnf = Path(f"{name}.cnf")
    cnf.write_text(_dimacs(FIXTURES[name]))
    run_pipeline(PipelineConfig(cnf_path=str(cnf), out_dir=name))
    assert _values(Path(name)) == VALUES[name]


def test_wide_probe_free_game_matches_golden_hash():
    partition = partition_bipartite(
        incidence_graph(WIDE_PROBE), formula_degree(WIDE_PROBE)
    )
    text = write_fgm(build_clause_variable_free_game(WIDE_PROBE, partition).game)
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_PROBE_FGM


def test_unsat_wide_pipeline_reports_support_problems_unknown(
        tmp_path, monkeypatch, capsys):
    # p7-p10's support pairs exceed the budget, so they answer unknown,
    # although str() of the pair count in the budget's message would raise.
    monkeypatch.chdir(tmp_path)
    Path("unsat-wide.cnf").write_text(_dimacs(UNSAT_WIDE))
    assert main(["pipeline", "unsat-wide.cnf", "-o", "out"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(Path("out/report.json").read_text())
    assert report["satisfiable"] is False
    support = ("p7", "p8", "p9", "p10")
    assert {p: report["deciders"][p] for p in support} == dict.fromkeys(
        support, {"answer": "unknown", "checked": 0})
    fgm = hashlib.sha256(Path("out/F.fgm").read_bytes()).hexdigest()
    assert fgm == UNSAT_WIDE_FGM
    assert _sha(_free_value(Path("out/F.fgm").read_text())) == UNSAT_WIDE_FGM_VALUE
