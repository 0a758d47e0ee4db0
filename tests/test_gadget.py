from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negadget import games
from negadget.corpus import capped_base_games
from negadget.errors import (
    ParameterError,
    PreconditionError,
    ResourceError,
    ValidationError,
)
from negadget.gadget import (
    G_CONSTANT,
    GadgetGame,
    ReductionParams,
    build_hardness_game,
    check_certificate,
    completeness_certificate,
    derive_params,
    extend_gdoubleprime,
    extend_gprime,
    extend_profile,
    gdoubleprime_wsne_witness,
    half_subsets,
    rescale_game,
)
from negadget.formats import parse_bgm, write_bgm
from negadget.games import (
    BimatrixGame,
    MixedProfile,
    affine_rescale,
    int_lines,
    is_eps_ne,
    is_eps_wsne,
    pure_profile,
    regret_report,
    weighted_lines,
)
from negadget.provers import (
    ProverStrategy,
    TwoProverGame,
    induced_two_prover,
    prover_payoff,
    uniformity_gap,
)
from negadget.search import enumerate_wsne_supports

from oracles import (
    FractionReport,
    affine_rescale_per_cell,
    completeness_certificate_per_label,
    int_lines_per_cell,
    question_of,
    regret_report_per_cell,
    weighted_lines_per_cell,
    write_bgm_per_cell,
)

F = Fraction


class TestDeriveParams:
    def test_reference_point(self):
        p = derive_params(F(31, 250))
        assert p.delta_star == F(69, 250)
        assert p.n_star == F(250, 69)
        assert p.u_frak == F(10, 8) - F(69, 250) / 522
        assert p.d1_payoff == F(250, 63)

    def test_g_constant(self):
        assert G_CONSTANT == F(1, 138)

    def test_boundary_rejected(self):
        with pytest.raises(ParameterError):
            derive_params(F(1, 8))
        # Below (1-4g)/8 the derived delta* exceeds 1.
        with pytest.raises(ParameterError):
            derive_params(F(1, 10))

    def test_interval_lower_edge(self):
        lo = (1 - 4 * G_CONSTANT) / 8
        p = derive_params(lo + F(1, 10**6))
        assert 0 < p.delta_star < 1
        assert derive_params(lo).delta_star == 1

    def test_eps_consistency(self):
        # Every derived constant, on a grid over [(1-4g)/8, 1/8).
        lo, hi = (1 - 4 * G_CONSTANT) / 8, F(1, 8)
        for e in [F(31, 250)] + [lo + (hi - lo) * i / 40 for i in range(40)]:
            p = derive_params(e)
            assert p.g == G_CONSTANT
            assert p.eps_star == (1 - 4 * p.g * p.delta_star) / 8
            assert p.u_frak == F(10, 8) - p.delta_star / 522
            assert p.n_star * p.delta_star == 1
            assert p.delta == p.delta_star
            assert 0 < p.d1_payoff < 4

    def test_eps_star_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(ReductionParams)] == ["eps_star"]
        p = ReductionParams(eps_star="31/250")
        assert p == derive_params(F(31, 250))
        with pytest.raises(ParameterError):
            ReductionParams(eps_star=F(1, 8))


class TestHalfSubsets:
    def test_two(self):
        assert half_subsets(2) == [(1, 0), (0, 1)]

    def test_four(self):
        subs = half_subsets(4)
        assert len(subs) == 6
        assert all(sum(s) == 2 for s in subs)

    def test_odd_rejected(self):
        with pytest.raises(ParameterError):
            half_subsets(3)

    def test_cap(self):
        with pytest.raises(ResourceError):
            half_subsets(10, cap=5)

    def test_count_too_long_to_print(self):
        # C(30000, 15000) has 9,029 digits, past what str() prints.
        with pytest.raises(ResourceError, match=(
                r"^C\(30000,15000\) = at least 2\^29992 exceeds cap 65536$")):
            half_subsets(30000)

    @pytest.mark.parametrize("q", range(2, 13, 2))
    def test_all_halves_strictly_descending(self, q):
        subs = half_subsets(q)
        assert len(subs) == comb(q, q // 2)
        assert all(sum(s) == q // 2 for s in subs)
        assert all(a > b for a, b in zip(subs, subs[1:]))


# One X question with answers 0 and 1, two Y questions with one answer
# each; V = 1 iff the X answer is 0.
ODD_X_GAME = TwoProverGame(
    x_answers=(2,), y_answers=(1, 1),
    table=((((1,), (0,)), ((1,), (0,))),),
)


class TestBuild:
    def test_odd_side_rejected(self, params):
        # Only the SAT build makes sides even; a hand-made odd game is an error.
        with pytest.raises(ParameterError):
            build_hardness_game(ODD_X_GAME, params)

    def test_block_shapes(self, single_build):
        game = single_build.gadget.game
        free = single_build.build.game
        _, r0, r1, c0, c1 = game.block("RC")
        assert (r1 - r0, c1 - c0) == (
            sum(free.x_answers),
            sum(free.y_answers),
        )
        assert game.has_block("D1") and game.has_block("D2")
        assert game.has_block("ZERO")

    def test_payoff_ranges(self, single_build, params):
        game = single_build.gadget.game
        pay = params.d1_payoff
        _, r0, r1, c0, c1 = game.block("RC")
        for i in range(r0, r1):
            for j in range(c0, c1):
                assert game.R[i][j] in (0, 1)
                assert game.R[i][j] == game.C[i][j]
        _, d0, d1_, e0, e1 = game.block("D1")
        for i in range(d0, d1_):
            for j in range(e0, e1):
                assert game.R[i][j] in (0, pay)
                assert game.C[i][j] == -game.R[i][j]
        _, z0, z1, w0, w1 = game.block("ZERO")
        for i in range(z0, z1):
            for j in range(w0, w1):
                assert game.R[i][j] == 0 and game.C[i][j] == 0
        for m in (game.R, game.C):
            for row in m:
                for e in row:
                    assert -4 < e < 4

    def test_half_subset_rows_cover_half(self, single_build):
        gg = single_build.gadget
        free = single_build.build.game
        game = gg.game
        _, d0, d1_, c0, c1 = game.block("D1")
        for i in range(d0, d1_):
            covered = {
                question_of(free.y_answers, j)
                for j in range(c0, c1)
                if game.R[i][j] != 0
            }
            assert len(covered) == free.ny // 2

    def test_rescale(self, single_build):
        gs = rescale_game(single_build.gadget)
        for m in (gs.R, gs.C):
            for row in m:
                for e in row:
                    assert 0 < e < 1
        assert gs.blocks == single_build.gadget.game.blocks


@st.composite
def _even_free_games(draw):
    """Free games with 2 or 4 questions a side and 1-3 answers each."""
    nx, ny = draw(st.sampled_from([2, 4])), draw(st.sampled_from([2, 4]))
    xa = tuple(draw(st.lists(st.integers(1, 3), min_size=nx, max_size=nx)))
    ya = tuple(draw(st.lists(st.integers(1, 3), min_size=ny, max_size=ny)))
    bit = st.integers(0, 1)
    table = tuple(
        tuple(
            tuple(tuple(draw(bit) for _ in range(ya[y])) for _ in range(xa[x]))
            for y in range(ny)
        )
        for x in range(nx)
    )
    return TwoProverGame(x_answers=xa, y_answers=ya, table=table)


@st.composite
def _won_free_games(draw):
    """An `_even_free_games` game in which one drawn answer per question
    wins every question pair, with that strategy pair."""
    f = draw(_even_free_games())
    s1, s2 = (ProverStrategy(answers=tuple([draw(st.integers(0, n - 1)) for n in counts]))
              for counts in (f.x_answers, f.y_answers))

    def won(x, y, a, b):
        return int(f.table[x][y][a][b] or (a, b) == (s1.answers[x], s2.answers[y]))

    table = tuple(tuple(tuple(tuple(won(x, y, a, b) for b in range(f.y_answers[y]))
                              for a in range(f.x_answers[x]))
                        for y in range(f.ny)) for x in range(f.nx))
    return TwoProverGame(x_answers=f.x_answers, y_answers=f.y_answers, table=table), s1, s2


def _assert_matches_affine_rescale(gg: GadgetGame) -> None:
    gs = rescale_game(gg)
    ref = affine_rescale_per_cell(gg.game, 4, 8)
    assert gs.R == ref.R and gs.C == ref.C and gs.blocks == ref.blocks
    assert gs == ref == affine_rescale(gg.game, 4, 8)


def _entry_objects(game: BimatrixGame) -> int:
    return len({id(e) for m in (game.R, game.C) for row in m for e in row})


class TestRescaleLayout:
    """G and G_s are laid out from four constants, and G_s is
    affine_rescale of G; (e + 4)/8 of every cell is the reference."""

    def test_matches_affine_rescale_on_corpus(self, sat_builds, unsat_builds):
        for b in (*sat_builds.values(), *unsat_builds.values()):
            _assert_matches_affine_rescale(b.gadget)

    @settings(max_examples=60, deadline=None)
    @given(f=_even_free_games(), step=st.integers(0, 39))
    def test_matches_affine_rescale_on_random_free_games(self, f, step):
        lo, hi = (1 - 4 * G_CONSTANT) / 8, F(1, 8)
        params = derive_params(lo + (hi - lo) * step / 40)
        _assert_matches_affine_rescale(build_hardness_game(f, params))

    def test_at_most_four_entry_objects(self, sat_builds, unsat_builds):
        for b in (*sat_builds.values(), *unsat_builds.values()):
            assert _entry_objects(b.gadget.game) <= 4, b.name
            assert _entry_objects(rescale_game(b.gadget)) <= 4, b.name


@pytest.fixture(scope="module")
def fixture_games(sat_builds, unsat_builds, params) -> list[tuple[str, BimatrixGame]]:
    """G, G_s, G' and G'' of every corpus fixture, labelled."""
    out = []
    for b in (*sat_builds.values(), *unsat_builds.values()):
        gs = rescale_game(b.gadget)
        gp = extend_gprime(gs, params.eps_star)
        out += [(f"{b.name}/{label}", game) for label, game in (
            ("G", b.gadget.game), ("Gs", gs), ("Gprime", gp),
            ("Gdouble", extend_gdoubleprime(gp)))]
    return out


def _assert_coded(game: BimatrixGame) -> None:
    """Every palette pair occurs in a cell, and the palette readers agree
    with the same reads of the views."""
    assert set("".join(game.codes)) == set(map(chr, range(len(game.palette))))
    c_rows, r_cols, scale = int_lines(game)
    assert ([c_rows[i] for i in range(game.rows)],
            [r_cols[j] for j in range(game.cols)], scale) == int_lines_per_cell(game)
    assert game == BimatrixGame(R=game.R, C=game.C, blocks=game.blocks)


@st.composite
def _sparse_shared_weights(draw, n):
    """A distribution on n entries with a small support, one object per
    distinct value (zero included), as the gadget's profiles share them."""
    w = draw(st.lists(st.sampled_from([0] * 8 + [1, 2, 3]), min_size=n,
                      max_size=n).filter(any))
    objects: dict[Fraction, Fraction] = {}
    return tuple(objects.setdefault(F(e, sum(w)), F(e, sum(w))) for e in w)


class TestCodedGames:
    """The gadget games are code rows over a palette; the views, the text
    formats and the kernel agree with their per-cell references."""

    def test_views_palette_and_round_trip(self, fixture_games):
        for label, game in fixture_games:
            _assert_coded(game)
            text = write_bgm(game)
            assert text == write_bgm_per_cell(game), label
            again = parse_bgm(text)
            assert again == game and hash(again) == hash(game), label

    def test_hash_and_equality_build_no_view(self, single_build, params):
        g = build_hardness_game(single_build.build.game, params).game
        hash(g)
        again = parse_bgm(write_bgm(g))
        assert g == again and hash(g) == hash(again)
        assert not {"R", "C", "Ct"} & (vars(g).keys() | vars(again).keys())

    def test_rescale_keeps_the_code_rows(self, sat_builds):
        gg = sat_builds["two-clause"].gadget
        assert rescale_game(gg).codes is gg.game.codes
        assert len(gg.game.palette) == 4

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_the_per_cell_reference(self, fixture_games, data):
        label, game = data.draw(st.sampled_from(fixture_games))
        p = MixedProfile(x=data.draw(_sparse_shared_weights(game.rows)),
                         y=data.draw(_sparse_shared_weights(game.cols)))
        c_rows, r_cols, _ = int_lines(game)
        assert (weighted_lines(r_cols.stream, p.sparse_y),
                weighted_lines(c_rows.stream, p.sparse_x)) == weighted_lines_per_cell(game, p)
        assert FractionReport.of(regret_report(game, p)) == regret_report_per_cell(game, p), label

    @settings(max_examples=60, deadline=None)
    @given(f=_even_free_games())
    def test_every_palette_pair_occurs_on_random_free_games(self, f):
        # A table without a 1 leaves (1, 1) out of G's palette.
        gg = build_hardness_game(f, derive_params(F(31, 250)))
        for game in (gg.game, rescale_game(gg)):
            _assert_coded(game)

    def test_no_verdict_of_one_leaves_one_out(self):
        zero = TwoProverGame(x_answers=(1, 1), y_answers=(1, 1),
                             table=((((0,),),) * 2,) * 2)
        gg = build_hardness_game(zero, derive_params(F(31, 250)))
        assert len(gg.game.palette) == 3
        _assert_coded(gg.game)

    def test_append_past_the_palette_limit(self, single_build, params, monkeypatch):
        gs = rescale_game(single_build.gadget)
        monkeypatch.setattr(games, "PALETTE_LIMIT", len(gs.palette) + 2)
        with pytest.raises(ResourceError, match="distinct"):
            extend_gprime(gs, params.eps_star)


class TestCertificate:
    def test_all_satisfiable_fixtures(self, sat_builds, params):
        for b in sat_builds.values():
            ok_u, w_u, ok_s, w_s, _ = check_certificate(
                b.gadget, rescale_game(b.gadget), b.cert
            )
            assert ok_u and w_u == 2
            assert ok_s and w_s == F(10, 8)

    def test_matches_the_label_walk_on_the_corpus(self, sat_builds):
        # The unsatisfiable fixtures have no winning strategy pair.
        for b in sat_builds.values():
            walked = completeness_certificate_per_label(b.build.game, b.s1, b.s2, b.gadget)
            assert b.cert == walked, b.name

    @settings(max_examples=60, deadline=None)
    @given(won=_won_free_games())
    def test_matches_the_label_walk_on_random_free_games(self, won):
        f, s1, s2 = won
        gg = build_hardness_game(f, derive_params(F(31, 250)))
        cert = completeness_certificate(f, s1, s2, gg)
        assert cert == completeness_certificate_per_label(f, s1, s2, gg)

    def test_one_weight_object_per_side(self, sat_builds):
        # Shared weights are cleared once per object (MixedProfile).
        cert = sat_builds["two-clause"].cert
        for side in (cert.x, cert.y):
            assert len({id(e) for e in side if e}) == 1

    def test_wsne_on_rescaled(self, sat_builds, params):
        for b in sat_builds.values():
            gs = rescale_game(b.gadget)
            assert is_eps_wsne(gs, b.cert, params.eps_star)

    def test_d1_flatness(self, sat_builds, params):
        expected = F(2) / (1 + 4 * params.g * params.delta_star)
        for b in sat_builds.values():
            game = b.gadget.game
            _, r_cols, scale = int_lines(game)
            row_vals = weighted_lines(r_cols.stream, b.cert.sparse_y)
            _, d0, d1_, _, _ = game.block("D1")
            for i in range(d0, d1_):
                assert row_vals[i] == expected * scale * b.cert.sparse_y[2]

    def test_non_winning_strategies_rejected(self, unsat_builds):
        b = unsat_builds["pattern"]
        free = b.build.game
        s1 = ProverStrategy(answers=(0,) * free.nx)
        s2 = ProverStrategy(answers=(0,) * free.ny)
        assert prover_payoff(free, s1, s2) < 1
        with pytest.raises(PreconditionError):
            completeness_certificate(free, s1, s2, b.gadget)


def perturb_cert(b, eta: Fraction) -> MixedProfile:
    """Move mass eta from the first certificate row/column to the gadget
    blocks, keeping RC mass at 1 - eta per side."""
    game = b.gadget.game
    x = list(b.cert.x)
    y = list(b.cert.y)
    i0 = b.cert.support_x[0]
    j0 = b.cert.support_y[0]
    _, r0, r1, _, _ = game.block("D1")
    _, _, _, c0, c1 = game.block("D2")
    x[i0] -= eta
    x[r0] += eta
    y[j0] -= eta
    y[c0] += eta
    return MixedProfile(x=tuple(x), y=tuple(y))


class TestSoundnessChainProperties:
    def test_payoff_comparison(self, sat_builds, params):
        # Profiles with >= 1 - g*delta mass on RC per side: the row payoff
        # in the gadget differs from the induced-game payoff by <= 4*g*delta.
        bound = 4 * params.g * params.delta_star
        eta = params.g * params.delta_star / 2
        for b in sat_builds.values():
            for p in (b.cert, perturb_cert(b, eta)):
                rep = regret_report(b.gadget.game, p)
                induced = induced_two_prover(b.build.game, b.gadget.game, p)
                value = prover_payoff(induced.game, induced.s_x, induced.s_y)
                assert abs(rep.row_payoff - value) <= bound

    def test_transport_bound(self, sat_builds, params):
        eta = params.g * params.delta_star / 2
        for b in sat_builds.values():
            free = b.build.game
            for p in (b.cert, perturb_cert(b, eta)):
                induced = induced_two_prover(free, b.gadget.game, p)
                gap_x = uniformity_gap(induced.x_marginal, free.nx)
                gap_y = uniformity_gap(induced.y_marginal, free.ny)
                on_induced = prover_payoff(induced.game, induced.s_x, induced.s_y)
                on_free = prover_payoff(free, induced.s_x, induced.s_y)
                assert abs(on_induced - on_free) <= 2 * (gap_x + gap_y)

    def test_probability_mass_property(self, sat_builds, params):
        # Welfare above 2 - 2*g*delta forces >= 1 - g*delta RC mass per side.
        gd = params.g * params.delta_star
        for b in sat_builds.values():
            game = b.gadget.game
            _, r0, r1, c0, c1 = game.block("RC")
            for eta in (F(0), gd / 4, gd / 2):
                p = perturb_cert(b, eta) if eta else b.cert
                if regret_report(game, p).welfare > 2 - 2 * gd:
                    assert sum(p.x[r0:r1]) >= 1 - gd
                    assert sum(p.y[c0:c1]) >= 1 - gd

    def test_uniformity_property(self, sat_builds, params):
        # Near-equilibrium profiles in our family have near-uniform marginals.
        eps = 1 - 4 * params.g * params.delta_star
        cap = 16 * params.g * params.delta_star
        eta = params.g * params.delta_star / 4
        for b in sat_builds.values():
            free = b.build.game
            for p in (b.cert, perturb_cert(b, eta)):
                if is_eps_ne(b.gadget.game, p, eps):
                    induced = induced_two_prover(free, b.gadget.game, p)
                    assert uniformity_gap(induced.x_marginal, free.nx) < cap
                    assert uniformity_gap(induced.y_marginal, free.ny) < cap

    def test_concentrated_marginal_is_punished(self, single_build, params):
        # All column mass on one question: a half-subset row covering it
        # pays nearly the full D1 payoff, far above the winning payoff 1,
        # so the profile cannot be a (1 - 4*g*delta)-NE.
        b = single_build
        game = b.gadget.game
        y = [F(0)] * game.cols
        y[0] = F(1)
        p = MixedProfile(x=b.cert.x, y=tuple(y))
        eps = 1 - 4 * params.g * params.delta_star
        free = b.build.game
        question = question_of(free.y_answers, 0)
        _, d0, d1_, _, _ = game.block("D1")
        covering = [d0 + t for t, half in enumerate(half_subsets(free.ny))
                    if half[question]]
        assert covering == [i for i in range(d0, d1_) if game.R[i][0] != 0]
        _, r_cols, scale = int_lines(game)
        row_vals = weighted_lines(r_cols.stream, p.sparse_y)
        assert max(row_vals[i] for i in covering) >= 2 * scale * p.sparse_y[2]
        assert not is_eps_ne(game, p, eps)


class TestExtensions:
    def test_gprime_shape_and_corner(self, single_build, params):
        gs = rescale_game(single_build.gadget)
        gp = extend_gprime(gs, params.eps_star)
        assert gp.rows == gs.rows + 1 and gp.cols == gs.cols + 1
        assert gp.R[-1][-1] == 1 and gp.C[-1][-1] == 1
        threat = F(5, 8) + params.eps_star
        assert all(e == threat for e in gp.R[-1][:-1])
        assert all(gp.C[i][-1] == threat for i in range(gs.rows))
        assert all(gp.C[-1][j] == 0 for j in range(gs.cols))

    def test_corner_is_exact_pure_ne(self, single_build, params):
        gs = rescale_game(single_build.gadget)
        gp = extend_gprime(gs, params.eps_star)
        corner = pure_profile(gp, gp.rows - 1, gp.cols - 1)
        rep = regret_report(gp, corner)
        assert rep.row_regret == 0 and rep.col_regret == 0

    def test_gprime_eps_range(self, single_build, params):
        gs = rescale_game(single_build.gadget)
        with pytest.raises(ParameterError):
            extend_gprime(gs, F(1, 8))

    def test_gprime_rejects_out_of_range_payoffs(self, single_build, params):
        with pytest.raises(ValidationError):
            extend_gprime(single_build.gadget.game, params.eps_star)

    @pytest.mark.parametrize("bad", [F(9, 8), F(-1, 8)])
    @pytest.mark.parametrize("side", ["R", "C"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_gprime_checks_every_cell(self, sat_builds, params, bad, side, where):
        # G_s shares four entry objects; a fresh out-of-range object in any
        # one cell must still be caught.
        gs = rescale_game(sat_builds["two-clause"].gadget)
        i, j = {"first": (0, 0), "middle": (gs.rows // 2, gs.cols // 2),
                "last": (gs.rows - 1, gs.cols - 1)}[where]
        m = [list(row) for row in getattr(gs, side)]
        m[i][j] = F(bad.numerator, bad.denominator)
        game = BimatrixGame(**{"R": gs.R, "C": gs.C, side: m}, blocks=gs.blocks)
        with pytest.raises(ValidationError, match=f"payoff {bad} outside"):
            extend_gprime(game, params.eps_star)

    def test_gdoubleprime_shape(self, single_build, params):
        gs = rescale_game(single_build.gadget)
        gp = extend_gprime(gs, params.eps_star)
        gdp = extend_gdoubleprime(gp)
        assert gdp.rows == gp.rows + 1 and gdp.cols == gp.cols + 1
        assert gdp.R[-1][-1] == 0 and gdp.C[-1][-1] == 0
        assert all(e == F(5, 8) for e in gdp.R[-1][:-1])
        assert all(gdp.R[i][-1] == F(5, 8) for i in range(gp.rows))

    def test_gdoubleprime_requires_gprime(self, single_build):
        gs = rescale_game(single_build.gadget)
        with pytest.raises(PreconditionError):
            extend_gdoubleprime(gs)

    def test_extended_certificate_on_gprime(self, sat_builds, params):
        # The padded certificate stays an eps*-NE and eps*-WSNE of G'.
        for b in sat_builds.values():
            gs = rescale_game(b.gadget)
            gp = extend_gprime(gs, params.eps_star)
            ext = extend_profile(b.cert, 1, 1)
            rep = regret_report(gp, ext)
            assert rep.row_regret == params.eps_star
            assert rep.col_regret == params.eps_star
            assert is_eps_wsne(gp, ext, params.eps_star)
            assert regret_report(gp, ext).welfare == F(10, 8)

    @pytest.mark.parametrize("extra, message", [
        ((-1, 0), "^extra_rows must be at least 0, got -1$"),
        ((0, -2), "^extra_cols must be at least 0, got -2$"),
        ((1.0, 1), "^extra_rows must be an int, got float 1.0$"),
    ])
    def test_extend_profile_refuses_a_bad_extra_count(self, single_build, extra,
                                                      message):
        # A negative count once padded nothing; laid out by length, it
        # would cut the profile short.
        with pytest.raises(ParameterError, match=message):
            extend_profile(single_build.cert, *extra)

    def test_gdoubleprime_witness(self, sat_builds, params):
        # Mixing the flat row into the certificate support gives an exact
        # eps*-WSNE whose support has size |X| + 1 and contains the new row.
        for b in sat_builds.values():
            gs = rescale_game(b.gadget)
            gdp = extend_gdoubleprime(extend_gprime(gs, params.eps_star))
            witness = gdoubleprime_wsne_witness(b.cert, gdp)
            assert is_eps_wsne(gdp, witness, params.eps_star)
            nx = b.build.game.nx
            assert len(witness.support_x) == nx + 1
            assert gdp.rows - 1 in witness.support_x

    def test_gdoubleprime_new_col_payoff(self, sat_builds, params):
        # Against the witness, the flat column pays |X|/(|X|+1) * 5/8.
        for b in sat_builds.values():
            gs = rescale_game(b.gadget)
            gdp = extend_gdoubleprime(extend_gprime(gs, params.eps_star))
            witness = gdoubleprime_wsne_witness(b.cert, gdp)
            nx = b.build.game.nx
            col_val = sum(
                witness.x[i] * gdp.C[i][gdp.cols - 1]
                for i in range(gdp.rows)
            )
            assert col_val == F(nx, nx + 1) * F(5, 8)


class TestExtensionUniqueness:
    """Sharp uniqueness of the pure corner profile on the extended games.

    Under the weak reading (pure regret <= eps), the second extension
    admits boundary profiles besides the corner: against any old row the
    flat column trails the threat column by exactly eps*, so a profile
    sitting on that boundary has pure regret exactly eps*.  Strictly
    inside the regret budget the corner is the only well-supported
    profile, on both extensions.
    """

    def _instances(self, params):
        out = []
        for name, base in capped_base_games().items():
            gp = extend_gprime(base, params.eps_star)
            out.append((name, gp, (gp.rows - 1, gp.cols - 1)))
            gdp = extend_gdoubleprime(gp)
            out.append((name, gdp, (gdp.rows - 2, gdp.cols - 2)))
        return out

    def test_strict_enumeration_only_corner(self, params):
        for name, game, corner in self._instances(params):
            found = [
                (p.support_x, p.support_y)
                for p in enumerate_wsne_supports(
                    game, params.eps_star, budget=2**20, strict=True
                )
            ]
            assert found == [((corner[0],), (corner[1],))], (name, found)

    def test_weak_extras_sit_on_regret_boundary(self, params):
        for name, game, corner in self._instances(params):
            for p in enumerate_wsne_supports(
                game, params.eps_star, budget=2**20
            ):
                if (p.support_x, p.support_y) == ((corner[0],), (corner[1],)):
                    continue
                rep = regret_report(game, p)
                assert (
                    max(rep.row_pure_regret, rep.col_pure_regret)
                    == params.eps_star
                ), (name, p.support_x, p.support_y)
