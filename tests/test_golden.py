"""Golden SHA-256 hashes of the pipeline artifacts.

`run_pipeline` runs at the default `PipelineConfig` on the five satisfiable
corpus fixtures, on the unsatisfiable `pattern` fixture, on `probe` and on
`wide-probe`, and every artifact it writes must hash to the value recorded
here.  The runs use relative paths from a temporary working directory, so
the ``input`` key of `report.json` does not depend on where the tests run.
A change that alters an artifact on purpose updates these hashes and says
why in CHANGES.md.
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
from negadget.formats import write_fgm
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
WIDE_PROBE_FGM = "4fa4ff3bb647a4fd906ff209fa48fe66d1790c1e5cc868ef4980a80d81408b21"

# WIDE_PROBE's first eight clauses and every sign pattern over x1, x2, x3:
# unsatisfiable, with G 56x16,416.  G' has (2^57 - 1)(2^16417 - 1) support
# pairs, a count past what str() prints.
UNSAT_WIDE = Cnf3Formula(num_vars=15, clauses=(
    WIDE_PROBE.clauses[:8] + full_sign_pattern((1, 2, 3)).clauses))
UNSAT_WIDE_FGM = "aebd2125353c777a93c671ea725c272fff3eba3a22db7a750e346882a831e3a6"

FIXTURES = {
    **satisfiable_fixtures(),
    "pattern": unsatisfiable_fixtures()["pattern"],
    "probe": PROBE,
    "wide-probe": WIDE_PROBE,
}

GOLDEN = {
    "alternating/F.fgm":
        "e9b5c20c2a292e8a05e499dbcca0db254a02eaa7aa2a67bca7fbbb03ceec6184",
    "alternating/G.bgm":
        "644f257a5babca1034ac3b188dd0acda4e9f0fb84fd4fdfaca5c730162539f47",
    "alternating/Gdouble.bgm":
        "f5ea126d5f9352d494588efb2df70fa4ddd3fadf0f257289527f19dd04737836",
    "alternating/Gprime.bgm":
        "8fd7af9a87fcd36e4188923709291c46ec6369ea3a2f3997d893bc5b98e5acdd",
    "alternating/Gs.bgm":
        "3522e77774454742ff65155ec3b616d6fc21a0888785d128b8552e53adeda4f0",
    "alternating/cert.prof":
        "c70bb50ae6c5f2fe56f0cbc434080eefec5ea926950a828a3f445730d0685027",
    "alternating/report.json":
        "f3dafc1033b991f51144f51bb214f12963c96690fc3d285b20fbebe7bdfa6a12",
    "complementary/F.fgm":
        "bf8aa6cfb4c95018415a0b210dfd2e576e36ef16206bb0bf6df6a5fe368aa6ce",
    "complementary/G.bgm":
        "afbe889ebcce9b8b9e61e31de1a17e154e01d5b180f7ef2c5b3f866d35a32909",
    "complementary/Gdouble.bgm":
        "e294f8e6bfed0c3c9a4891aa35930cec3d5f932714bab4f448f69217b36ee361",
    "complementary/Gprime.bgm":
        "d5e0ba34768949d33c6fff92a2796fd82f72b57b28f63caf64ca86ec2226d174",
    "complementary/Gs.bgm":
        "60b02d96860c2745a7ee669dc50eb134bb3f951fbe38383836755e5643b44882",
    "complementary/cert.prof":
        "7a8e8623404524cdf15215adeee0cfdd58134741be1160f2608bf90b9385a03f",
    "complementary/report.json":
        "ee3c511c5f5597abe6703da59373510819de9163992602e8799ac61a1c2fe888",
    "pattern/F.fgm":
        "d63bec936dae7fae132790e57759c4815e4853f85e92b33b03662f9e6b0117f2",
    "pattern/G.bgm":
        "b27cd7f77b5cb2b85eb055b15de83617b9d5225e5ce4acccaaacd58f275bbc25",
    "pattern/Gdouble.bgm":
        "421a7e34ca400a3c228e28b10374688089be4e47d3a476df30cc10042fc2495c",
    "pattern/Gprime.bgm":
        "03df48e41ff645c99cfcd87afeda63c3e230534ff97a9078578fb2a39a40ca8c",
    "pattern/Gs.bgm":
        "4ec3dd1970cdd4c1452a08daf459ec7e58a33bcab26808cf6b194b798a783b88",
    "pattern/report.json":
        "c10c065a2b7bd1e292b0dc3ba1f7c393454fe6669868fb16ef30db3a37790fc7",
    "probe/F.fgm":
        "c922f1362fb964b54dec5f4e8de4cef12f0c4d941211926d3b4d3a922a1a8fb3",
    "probe/G.bgm":
        "0dd8aacb935302de3dee51c539b242a6e5e0a44193f824bb26f3195adae2b2fd",
    "probe/Gdouble.bgm":
        "796f4cf02f11eed1f3e07eef1758a916889415e05a2479322d9cc7f5b5575233",
    "probe/Gprime.bgm":
        "cd75d71a1cd2d6b7bcfe0dc84f5d48c10a883f4f0f2b8d30a5c6cee62f0195f3",
    "probe/Gs.bgm":
        "e89672c904f70515469cb830ed2f53eae31af21569558f99b723372a72482bf6",
    "probe/cert.prof":
        "ac980415098aa1de4bf2d0aaa2d04811b8597bba4a50837b673b2cdda0ee195e",
    "probe/report.json":
        "d11488eac3b0229d4c815dcaab9fdf3bdf8b0c0e4ef61f9c5de0b77532087184",
    "seven-of-eight/F.fgm":
        "e6eba24f4c25447a03aea7966c17c92cd11e895ef3b9dc71c39a27e8989ce17f",
    "seven-of-eight/G.bgm":
        "085ce85b23f85211bbf7f622b7b56b3caf92fd9786f2289358d93f7a738e2697",
    "seven-of-eight/Gdouble.bgm":
        "74c8eb3fcf0d996acdf192e943cfc5fc1564ce474eb8a202b6e699abf7a7f4dc",
    "seven-of-eight/Gprime.bgm":
        "df52968127c3847cc3fe93058270188c726231cca90ae84f6b0651c60ea22089",
    "seven-of-eight/Gs.bgm":
        "a384edfde0c43f3a3b2ef92c68df4aa96f1cf2e8ba8fab94189c92b405a123bd",
    "seven-of-eight/cert.prof":
        "e0c595160a5606e396f303df6b47efb708b2dbccdf55370aa7eb9073a4ec6ef5",
    "seven-of-eight/report.json":
        "7225639f592f9982b8982cd09a7630d03835e26846570a32556379c66d05ccfb",
    "single/F.fgm":
        "8c6791160ee5015f6b24a2d3a2b1ea5aa1494919b8d712d02c66631c8869cc17",
    "single/G.bgm":
        "9a63dc03f20d72f52abb63872624d1bd3c3d68a23506e674c8757071d4479044",
    "single/Gdouble.bgm":
        "8b7fed89a9a6f339b0212c2ff2b477a0f556911f3507509f22d7f32d20fe256f",
    "single/Gprime.bgm":
        "e523c64913378c58ff247547e9ac10c6be3f77243659009cfced53f23f6e9107",
    "single/Gs.bgm":
        "011365894aa64f615269df920a8e8da2afeadf63f4ce7ba7d6d0b18aa5eb8612",
    "single/cert.prof":
        "7d8ef5ab4a5428753698e54bd536727f7e910b8902340962e61f41888ef8b27c",
    "single/report.json":
        "29c5052e5aa9289397e6eba85002bf165f8960d8db290388c91a70a816cbb4b8",
    "wide-probe/F.fgm":
        "4fa4ff3bb647a4fd906ff209fa48fe66d1790c1e5cc868ef4980a80d81408b21",
    "wide-probe/G.bgm":
        "0aeaf7814e016fa9cff45835a81488c7a3d3cdce6892c9cdd8e933e87498f052",
    "wide-probe/Gdouble.bgm":
        "a79d427d7dce2e2f4fe33651a12b24e6f129a549e084e5ce9320178775f68f7e",
    "wide-probe/Gprime.bgm":
        "e7f643bd54c118005f9b8ef378446c7b217fb5ad818bbc578111cb4d482dd184",
    "wide-probe/Gs.bgm":
        "231b1353cac6247935ef601ae9fd51d961dde7c25b88849863c8e9053007aa1f",
    "wide-probe/cert.prof":
        "c048a3078b84fe69a38b8c1ed6a5e287ffc615b169c78f89bfed430ae2d13ec0",
    "wide-probe/report.json":
        "6bd011028a6698f13ca6c057c514d93c390afdf6a02e165fef140faf316d7207",
    "two-clause/F.fgm":
        "e043eb7b04fc45b4c1fd5871820ae2cbd5882f08d71881768b0879a93611bbd8",
    "two-clause/G.bgm":
        "2ebda742bb5362e00907a93ae8e884739baea808dac330b7aa9f4c068bc79bb4",
    "two-clause/Gdouble.bgm":
        "39fc895dd53bd3c3e8b4f0246948ae8ce13ebb81b11e65399f5009a48528dbab",
    "two-clause/Gprime.bgm":
        "3c1d140a24af5ece867a4caf943e32f8901097b87d4be838304fe0292fe5cbc3",
    "two-clause/Gs.bgm":
        "ec92a6d91f92e23b3fe9828ca76175bec61378550b7ed0ad417315386d1f06e8",
    "two-clause/cert.prof":
        "545d7ec44f674664219ab9fdd81980bc2063a61437520f72eec234e8d930de79",
    "two-clause/report.json":
        "8597582731ae1dc17a251432d224bee2b9f18d989a4877bb976bfd62bea5c453",
}


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
