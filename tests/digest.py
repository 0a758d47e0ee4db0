"""Same-answers digest: one sha256 per layer over a fixed, seeded corpus.

    PYTHONPATH=src python tests/digest.py           # the full corpus
    PYTHONPATH=src python tests/digest.py --quick   # the subset test_digest pins

The layers are `regret_report`, `induced_two_prover`, `lmm_best_welfare`,
`decide_many` (p1-p10: answer, witness, witness pair, checked count),
`enumerate_wsne_supports` (weak and strict), `profiles`, the vectors
of the library's profile builders: `pure_profile`, the completeness
certificate, `extend_profile`, `gdoubleprime_wsne_witness` and
`k_uniform_strategies`, `large_k`, p1-p6 and `lmm_best_welfare` at k
up to 40, where a multiset holds long runs of one member and the budget
ends inside an x, `readers`, each text the digest can write, and
seeded mutations of it, read back: the value read, or the error's class and
message, and `support_walk`, weak and strict enumeration and p7-p10
(together and each alone) on seeded 5x5 games, where a side found dead
prunes pairs several sizes up, and `verdicts`, `is_eps_ne` and
`is_eps_wsne` at each regret and one step either side, and p1-p10 decided
by hints whose payoffs, welfares, weights and supports set the parameters
at and one step past each boundary.  Each layer's results are
written as plain lists of ints and strings, every rational through
`formats.format_rational`, and hashed as JSON, so a field added to a result
type changes no digest.  The script reads only the standard library and
public `negadget` names, so one copy of it runs on two revisions and shows
whether they give the same answers, witnesses and lowest-index tie-breaks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

from negadget import corpus, formats, gadget, sat
from negadget.errors import GadgetError
from negadget.formats import format_rational
from negadget.games import (
    BimatrixGame, MixedProfile, is_eps_ne, is_eps_wsne, pure_profile, regret_report,
    tv_distance,
)
from negadget.provers import induced_two_prover
from negadget.search import (
    DecisionInstance, decide_many, enumerate_wsne_supports, k_uniform_count,
    k_uniform_strategies, lmm_best_welfare,
)

F = Fraction
EPS_STAR = F(31, 250)
STEP = F(1, 10**12)  # the verdict layer's step either side of a boundary
# Primes up to about 10**12, so that weights over them have coprime
# denominators and a side's LCM grows to a product of several of them.
PRIMES = (3, 7, 101, 1000003, 998244353, 1000000007, 2147483647, 4294967291,
          9999999967, 99999999977, 999999999959, 999999999989, 1000000000039)
PLANTED_SEEDS = (777, 90210)
# (k, eps) of each `lmm_best_welfare` call on a planted 4x4 game.
PLANTED_SETTINGS = ((1, F(0)), (2, F(0)), (3, F(0)), (4, F(0)), (2, F(1, 2)))
# The tokens a mutation puts in place of one token of a text.
TOKENS = ("2", "x", "1/0", "1e4300", "#")


def rationals(values) -> list[str]:
    return [format_rational(v) for v in values]


def profile(p: MixedProfile | None) -> list | None:
    return None if p is None else [rationals(p.x), rationals(p.y)]


def prime_profile(rng: random.Random, rows: int, cols: int) -> MixedProfile:
    """A profile whose positive weights are a/p normalized, p a prime above,
    each side with at least one positive weight."""
    def side(n: int) -> tuple[Fraction, ...]:
        raw = [F(0) if rng.random() < 0.3 else F(rng.randint(1, 10**12),
                                                  rng.choice(PRIMES))
               for _ in range(n)]
        raw[rng.randrange(n)] = F(rng.randint(1, 10**12), rng.choice(PRIMES))
        return tuple(w / sum(raw) for w in raw)

    return MixedProfile(x=side(rows), y=side(cols))


def seeded_games(seed: int, count: int, rows: int, cols: int) -> list:
    """``count`` random games up to rows x cols, their entries on grids of
    2, 3 or 8 steps, so that equal payoffs and ties recur."""
    rng = random.Random(seed)
    return [corpus.random_game(rng, rng.randint(1, rows), rng.randint(1, cols),
                               rng.choice((2, 3, 8)))
            for _ in range(count)]


def reductions(quick: bool) -> list:
    """(free game, G, G_s, G', G'', certificate, strategies) per
    satisfiable fixture."""
    params = gadget.derive_params(EPS_STAR)
    out = []
    for name, formula in corpus.satisfiable_fixtures().items():
        if quick and name not in ("single", "seven-of-eight"):
            continue
        partition = sat.partition_bipartite(sat.incidence_graph(formula),
                                            sat.formula_degree(formula))
        build = sat.build_clause_variable_free_game(formula, partition)
        gg = gadget.build_hardness_game(build.game, params)
        s1, s2 = sat.winning_strategies(build, sat.best_assignment(formula))
        cert = gadget.completeness_certificate(build.game, s1, s2, gg)
        gs = gadget.rescale_game(gg)
        gp = gadget.extend_gprime(gs, params.eps_star)
        out.append((build.game, gg.game, gs, gp, gadget.extend_gdoubleprime(gp),
                    cert, (s1, s2)))
    return out


def capped_games() -> list:
    """The six capped G'/G'' games: each capped base game extended once
    and twice."""
    out = []
    for base in corpus.capped_base_games().values():
        gp = gadget.extend_gprime(base, EPS_STAR)
        out += [gp, gadget.extend_gdoubleprime(gp)]
    return out


def regret_pairs(quick: bool, built: list) -> list:
    """The (game, profile) pairs of the regret and verdict layers: each
    fixture's certificate and its extensions, prime profiles on G, G_s and
    G', and prime and grid profiles on seeded games."""
    rng = random.Random(1)
    pairs = []
    for free, g, gs, gp, gdp, cert, _ in built:
        pairs += [(g, cert), (gs, cert), (gp, gadget.extend_profile(cert, 1, 1)),
                  (gdp, gadget.gdoubleprime_wsne_witness(cert, gdp))]
        pairs += [(game, prime_profile(rng, game.rows, game.cols))
                  for game in (g, gs, gp) for _ in range(2)]
    for game in seeded_games(2, 60 if quick else 300, 4, 5):
        pairs += [(game, prime_profile(rng, game.rows, game.cols)),
                  (game, corpus.random_profile(rng, game.rows, game.cols))]
    return pairs


def regret_layer(pairs: list) -> list:
    out = []
    for game, p in pairs:
        rep = regret_report(game, p)
        out.append(rationals([rep.row_regret, rep.col_regret, rep.row_pure_regret,
                              rep.col_pure_regret, rep.row_payoff, rep.col_payoff,
                              rep.welfare]))
    return out


def verdicts_layer(quick: bool, pairs: list) -> list:
    """`is_eps_ne` and `is_eps_wsne` on the regret layer's pairs at eps 0,
    EPS_STAR and each of the four regrets, exactly and one STEP either side;
    then p1-p10 through `decide_many` with grid-profile hints on seeded
    games, each hint setting the parameters at its exact payoff, welfare,
    largest weight, distance or support size and one step past it."""
    out = []
    for game, p in pairs:
        rep = regret_report(game, p)
        regrets = (rep.row_regret, rep.col_regret, rep.row_pure_regret,
                   rep.col_pure_regret)
        epss = [F(0), EPS_STAR] + [r + s for r in regrets for s in (0, STEP, -STEP)]
        out.append([[is_eps_ne(game, p, e), is_eps_wsne(game, p, e)] for e in epss])
    rng = random.Random(15)
    for game in seeded_games(16, 15 if quick else 60, 4, 5):
        hints = [corpus.random_profile(rng, game.rows, game.cols) for _ in range(3)]
        hints.append(pure_profile(game, rng.randrange(game.rows), rng.randrange(game.cols)))
        hints += [(hints[0], hints[1]), (hints[2], hints[3])]
        reports = [regret_report(game, h) for h in hints[:4]]
        insts = [(pid, name, value) for h, rep in zip(hints, reports)
                 for pid, name, value in hint_params(game, h, rep)]
        insts += [(3, "d", d + s) for h in hints[4:] for d in (tv_distance(*h),)
                  for s in (0, STEP)]
        for eps in (max(reports[0].row_regret, reports[0].col_regret),
                    max(reports[1].row_pure_regret, reports[1].col_pure_regret),
                    rng.choice((F(0), F(1, 8), F(1, 4)))):
            group = []
            for pid, name, value in insts:
                try:
                    group.append(DecisionInstance(problem_id=pid, game=game, eps=eps,
                                                  **{name: value}))
                except GadgetError:  # a value outside the problem's range
                    pass
            for o in decide_many(group, 1, 20, hints):
                pair = o.witness_pair and list(map(profile, o.witness_pair))
                out.append([o.answer, profile(o.witness), pair, o.checked_count])
    return out


def hint_params(game: BimatrixGame, h: MixedProfile, rep) -> list:
    """(problem, parameter, value) of p1, p2 and p4-p10 at the hint's own
    payoff, welfare, largest weight, support and support sizes, and one
    step past each, so that the hint holds at the first and not the second."""
    low = min(rep.row_payoff, rep.col_payoff)
    rows, cols = h.support_x, h.support_y
    outside = tuple(i for i in range(game.rows) if i not in rows)
    # p2 holds iff supp(x) is inside the set, p10 iff the set is inside it.
    sets = {2: (rows, rows[:-1]), 10: (rows, rows + outside[-1:])}
    sizes = {7: (len(rows) + len(cols)) // 2, 8: min(len(rows), len(cols)),
             9: len(rows)}
    return ([(1, "u", low + s) for s in (0, STEP)]
            + [(pid, "index_set", i) for pid, two in sets.items() for i in two if i]
            + [(4, "p", max(h.x) - s) for s in (0, STEP)]
            + [(5, "v", rep.welfare - s) for s in (0, STEP)]
            + [(6, "u", rep.row_payoff - s) for s in (0, STEP)]
            + [(pid, "k", size + s) for pid, size in sizes.items() for s in (0, 1)])


def induced_layer(quick: bool, built: list) -> list:
    rng = random.Random(3)
    out = []
    for free, g, gs, gp, gdp, cert, _ in built:
        for game, p in [(g, cert), (gp, gadget.extend_profile(cert, 1, 1))] + [
                (game, prime_profile(rng, game.rows, game.cols))
                for game in (g, gs) for _ in range(1 if quick else 4)]:
            res = induced_two_prover(free, game, p)
            out.append([list(res.s_x.answers), list(res.s_y.answers),
                        rationals(res.x_marginal), rationals(res.y_marginal),
                        [rationals(row) for row in res.game.dist]])
    return out


def lmm_layer(quick: bool) -> list:
    calls = []
    for seed in PLANTED_SEEDS:
        rng = random.Random(seed)
        planted = [corpus.random_planted_game(rng, 4, 4) for _ in range(50)]
        calls += [(game, eps, k, 2**22) for game in planted[:5 if quick else 50]
                  for k, eps in PLANTED_SETTINGS]
    # Two pure NE of welfare 1 below the ceiling 3/2 of cell (2, 2), which
    # row 0 beats: a scan must keep the first of equal maxima.
    h = F(1, 2)
    tied = BimatrixGame(R=((h, 0, 1), (0, h, 0), (0, 0, F(3, 4))),
                        C=((h, 0, 0), (0, h, 0), (0, 0, F(3, 4))))
    calls += [(tied, eps, k, 2**22) for k in (1, 2, 3) for eps in (F(0), F(1, 4))]
    # Games without a planted ceiling, with ties between welfares, and
    # budgets that cut the scan.
    rng = random.Random(4)
    for game in seeded_games(5, 100 if quick else 400, 3, 4):
        calls.append((game, rng.choice((F(0), F(1, 4), F(1, 2))), rng.randint(1, 3),
                      rng.choice((7, 60, 2**22))))
    out = []
    for game, eps, k, budget in calls:
        o = lmm_best_welfare(game, eps, k, budget)
        out.append([o.answer, profile(o.witness), o.checked_count])
    return out


def instances(rng: random.Random, game, eps: Fraction) -> list:
    """p1-p10 on one game at one eps, each parameter drawn from a few."""
    index_set = tuple(rng.sample(range(game.rows), rng.randint(1, game.rows)))
    params = [("u", (F(1, 4), F(1, 2), F(3, 4), F(1))), ("index_set", (index_set,)),
              ("d", (F(1, 4), F(1, 2), F(1))), ("p", (F(1, 3), F(1, 2), F(3, 4))),
              ("v", (F(1, 2), F(1), F(3, 2))), ("u", (F(0), F(1, 4), F(1, 2))),
              ("k", (1, 2, 3)), ("k", (1, 2)), ("k", (1, 2, 3)),
              ("index_set", (index_set,))]
    return [DecisionInstance(problem_id=pid, game=game, eps=eps,
                             **{name: rng.choice(values)})
            for pid, (name, values) in enumerate(params, 1)]


def decide_layer(quick: bool) -> list:
    rng = random.Random(6)
    runs = [(game, EPS_STAR, 2, 2000) for game in capped_games()]
    for game in seeded_games(7, 40 if quick else 200, 4, 5):
        runs.append((game, rng.choice((F(0), F(1, 8), F(1, 4), F(1, 2))),
                     rng.randint(1, 3), rng.choice((3, 10, 40, 400, 5000))))
    out = []
    for game, eps, k, budget in runs:
        for o in decide_many(instances(rng, game, eps), k, budget):
            pair = o.witness_pair and list(map(profile, o.witness_pair))
            out.append([o.answer, profile(o.witness), pair, o.checked_count])
    return out


def wsne_layer(quick: bool) -> list:
    rng = random.Random(8)
    runs = [(game, EPS_STAR) for game in capped_games()
            if max(game.rows, game.cols) <= 3]
    runs += [(game, rng.choice((F(0), F(1, 8), F(1, 4))))
             for game in seeded_games(9, 30 if quick else 150, 3, 3)]
    return [[list(map(profile, enumerate_wsne_supports(game, eps, strict=strict)))
             for strict in (False, True)] for game, eps in runs]


def profiles_layer(quick: bool, built: list) -> list:
    """Every pure profile of the capped and some seeded games, each fixture's
    certificate, its padding and its G'' witness, and the k-uniform vectors
    for n <= 4 and k <= 3."""
    games = capped_games() + seeded_games(10, 10 if quick else 40, 3, 4)
    out = [profile(pure_profile(game, i, j)) for game in games
           for i in range(game.rows) for j in range(game.cols)]
    for free, g, gs, gp, gdp, cert, _ in built:
        out += [profile(cert), profile(gadget.extend_profile(cert, 1, 1)),
                profile(gadget.gdoubleprime_wsne_witness(cert, gdp)),
                profile(pure_profile(gp, gp.rows - 1, gp.cols - 1))]
    out += [[rationals(v) for v in k_uniform_strategies(n, k)]
            for n in range(1, 5) for k in range(1, 4)]
    return out


def large_k_layer(quick: bool) -> list:
    """p1-p6 and `lmm_best_welfare` on seeded 2x2, 2x3 and 3x3 games at
    k of 6, 12 and 40, each budget ending inside the second to fifth x."""
    rng = random.Random(11)
    out = []
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        for k in (6, 12, 40):
            per_x = k_uniform_count(cols, k)
            for _ in range(2 if quick else 6):
                game = corpus.random_game(rng, rows, cols, rng.choice((2, 3, 8)))
                eps = rng.choice((F(0), F(1, 8), F(1, 4), F(1, 2)))
                budget = rng.randint(1, 4) * per_x + rng.randint(1, per_x - 1)
                for o in decide_many(instances(rng, game, eps)[:6], k, budget):
                    pair = o.witness_pair and list(map(profile, o.witness_pair))
                    out.append([o.answer, profile(o.witness), pair, o.checked_count])
                o = lmm_best_welfare(game, eps, k, budget)
                out.append([o.answer, profile(o.witness), o.checked_count])
    return out


def support_walk_layer(quick: bool) -> list:
    """Weak and strict `enumerate_wsne_supports`, and p7-p10 with drawn k
    and index sets through `decide_many`, together and each alone, on
    2 (8) seeded 5x5 games at eps 0, 1/8 and 1/4: each witness and
    checked count."""
    rng = random.Random(14)
    out = []
    for _ in range(2 if quick else 8):
        game = corpus.random_game(rng, 5, 5, rng.choice((2, 3, 8)))
        for eps in (F(0), F(1, 8), F(1, 4)):
            out += [list(map(profile, enumerate_wsne_supports(game, eps, strict=strict)))
                    for strict in (False, True)]
            index_set = tuple(rng.sample(range(5), rng.randint(1, 3)))
            insts = [DecisionInstance(problem_id=pid, game=game, eps=eps,
                                      **({"index_set": index_set} if pid == 10
                                         else {"k": rng.randint(1, 4)}))
                     for pid in (7, 8, 9, 10)]
            for group in [insts] + [[inst] for inst in insts]:
                out += [[o.answer, profile(o.witness), o.checked_count]
                        for o in decide_many(group)]
    return out


def mutations(rng: random.Random, text: str) -> list[str]:
    """Five seeded mutations of a text: a line dropped, a line duplicated,
    one token replaced from ``TOKENS``, the text cut short, and every copy
    of one of its characters replaced by another (in a `bgm 2` text, often
    one code by another, so that a palette line loses its cells)."""
    lines = text.splitlines(keepends=True)
    drop, dup = rng.randrange(len(lines)), rng.randrange(len(lines))
    line = rng.choice([i for i, l in enumerate(lines) if l.split()])
    toks = lines[line].split()
    toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
    return ["".join(lines[:drop] + lines[drop + 1:]),
            "".join(lines[:dup + 1] + lines[dup:]),
            "".join(lines[:line] + [" ".join(toks) + "\n"] + lines[line + 1:]),
            text[:rng.randrange(len(text))],
            text.replace(rng.choice(text), rng.choice(text))]


def game_record(game: BimatrixGame) -> list:
    return [[rationals(pair) for pair in game.palette], list(game.codes),
            game.blocks and [list(b) for b in game.blocks]]


def free_record(t) -> list:
    return [list(t.x_answers), list(t.y_answers), t.table,
            t.dist and [rationals(row) for row in t.dist]]


def readers_layer(quick: bool, built: list) -> list:
    """Each game, profile, free game and strategy pair the digest builds,
    written and read back, and then 4 (16) rounds of its mutations read: each
    value read, or each error's class and message."""
    rng = random.Random(12)
    games = capped_games() + seeded_games(13, 10 if quick else 40, 4, 5)
    profiles = [corpus.random_profile(rng, game.rows, game.cols) for game in games]
    profiles += [prime_profile(rng, game.rows, game.cols) for game in games]
    free_games, strategies = [], []
    for free, g, gs, gp, gdp, cert, strats in built:
        games += [g, gs, gp, gdp]
        profiles += [cert, gadget.extend_profile(cert, 1, 1),
                     gadget.gdoubleprime_wsne_witness(cert, gdp)]
        free_games += [free, induced_two_prover(free, g, cert).game]
        strategies.append(strats)
    texts = [(formats.parse_bgm, game_record, formats.write_bgm(g)) for g in games]
    texts += [(reader, profile, formats.write_prof(p)) for p in profiles
              for reader in (formats.parse_prof,
                             lambda text: formats.parse_prof(text, normalize=True))]
    texts += [(formats.parse_fgm, free_record, formats.write_fgm(t))
              for t in free_games]
    texts += [(formats.parse_strat, lambda s: [list(s[0].answers), list(s[1].answers)],
               formats.write_strat(*s)) for s in strategies]
    out = []
    for reader, record, text in texts:
        rounds = [mutations(rng, text) for _ in range(4 if quick else 16)]
        for mutated in [text, *itertools.chain.from_iterable(rounds)]:
            try:
                out.append(record(reader(mutated)))
            except GadgetError as exc:
                out.append([type(exc).__name__, str(exc)])
    return out


def digests(quick: bool = False) -> dict[str, str]:
    """Each layer's name and the sha256 of its results, in a fixed order."""
    built = reductions(quick)
    pairs = regret_pairs(quick, built)
    layers = {"regret_report": regret_layer(pairs),
              "induced_two_prover": induced_layer(quick, built),
              "lmm_best_welfare": lmm_layer(quick),
              "decide_many": decide_layer(quick),
              "enumerate_wsne_supports": wsne_layer(quick),
              "profiles": profiles_layer(quick, built),
              "large_k": large_k_layer(quick),
              "readers": readers_layer(quick, built),
              "support_walk": support_walk_layer(quick),
              "verdicts": verdicts_layer(quick, pairs)}
    return {name: hashlib.sha256(json.dumps(records).encode()).hexdigest()
            for name, records in layers.items()}


if __name__ == "__main__":
    for name, digest in digests(quick="--quick" in sys.argv[1:]).items():
        print(f"{name:24} {digest}")
