from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negadget.corpus import random_game, random_profile
from negadget.errors import InvariantError, ParameterError, ShapeError, ValidationError
from negadget.games import (
    BimatrixGame,
    MixedProfile,
    RegretReport,
    affine_rescale,
    cleared,
    is_eps_ne,
    is_eps_wsne,
    pure_profile,
    regret_report,
    social_welfare,
    tv_distance,
)

F = Fraction

MATCHING_PENNIES = BimatrixGame(
    R=((1, 0), (0, 1)),
    C=((0, 1), (1, 0)),
)
UNIFORM = MixedProfile(x=(F(1, 2), F(1, 2)), y=(F(1, 2), F(1, 2)))


class TestRegretReport:
    def test_matching_pennies_uniform(self):
        rep = regret_report(MATCHING_PENNIES, UNIFORM)
        assert rep.row_regret == 0
        assert rep.col_regret == 0
        assert rep.row_pure_regret == 0
        assert rep.col_pure_regret == 0
        assert rep.welfare == 1

    def test_one_by_one(self):
        game = BimatrixGame(R=((1,),), C=((1,),))
        rep = regret_report(game, MixedProfile(x=(1,), y=(1,)))
        assert rep.row_regret == 0 and rep.col_regret == 0
        assert rep.welfare == 2

    def test_off_equilibrium_regret(self):
        # R=[[1,0],[0,0]], C=R^T, x=(0,1), y=(1,0): row player passes up
        # payoff 1 at row 0, so regret is exactly 1.
        game = BimatrixGame(R=((1, 0), (0, 0)), C=((1, 0), (0, 0)))
        p = MixedProfile(x=(0, 1), y=(1, 0))
        rep = regret_report(game, p)
        assert rep.row_regret == 1
        assert not is_eps_ne(game, p, F(1, 2))
        assert is_eps_ne(game, p, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            regret_report(MATCHING_PENNIES, MixedProfile(x=(1,), y=(1,)))

    def test_transposed_roles_swap(self):
        rng = random.Random(5)
        game = random_game(rng, 3, 2)
        p = random_profile(rng, 3, 2)
        swapped = BimatrixGame(
            R=tuple(zip(*game.C)), C=tuple(zip(*game.R))
        )
        rep = regret_report(game, p)
        rep_t = regret_report(swapped, MixedProfile(x=p.y, y=p.x))
        assert rep_t.row_regret == rep.col_regret
        assert rep_t.col_regret == rep.row_regret
        assert rep_t.row_pure_regret == rep.col_pure_regret
        assert rep_t.welfare == rep.welfare

    @pytest.mark.parametrize("broken", [
        {"row_regret": F(1)},  # above the pure row regret
        {"col_regret": F(-1)},
        {"welfare": F(3)},  # not the sum of the payoffs
    ])
    def test_inconsistent_report_is_an_invariant_error(self, broken):
        fields = dict(row_regret=F(0), col_regret=F(0), row_pure_regret=F(0),
                      col_pure_regret=F(0), row_payoff=F(1), col_payoff=F(1),
                      welfare=F(2))
        RegretReport(**fields)
        with pytest.raises(InvariantError):
            RegretReport(**{**fields, **broken})


class TestProfiles:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            MixedProfile(x=(F(1, 2), F(1, 3)), y=(1, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            MixedProfile(x=(F(3, 2), F(-1, 2)), y=(1, 0))

    def test_support(self):
        p = MixedProfile(x=(0, 1), y=(F(1, 2), F(1, 2)))
        assert p.support_x == (1,)
        assert p.support_y == (0, 1)


class TestWsne:
    def test_uniform_pennies(self):
        assert is_eps_wsne(MATCHING_PENNIES, UNIFORM, 0)

    def test_support_gap_fails(self):
        # Uniform row mass over rows whose payoffs differ by 1.
        game = BimatrixGame(R=((1, 1), (0, 0)), C=((0, 0), (0, 0)))
        p = MixedProfile(x=(F(1, 2), F(1, 2)), y=(F(1, 2), F(1, 2)))
        assert not is_eps_wsne(game, p, F(1, 2))
        assert is_eps_wsne(game, p, 1)

    def test_pure_ne_is_wsne(self):
        game = BimatrixGame(R=((1, 0), (0, 0)), C=((1, 0), (0, 0)))
        assert is_eps_wsne(game, pure_profile(game, 0, 0), 0)


class TestWelfareAndDistance:
    def test_pure_welfare(self):
        game = BimatrixGame(R=((1,),), C=((1,),))
        assert social_welfare(game, MixedProfile(x=(1,), y=(1,))) == 2

    def test_zero_sum_constant(self):
        game = BimatrixGame(
            R=MATCHING_PENNIES.R,
            C=tuple(tuple(-e for e in row) for row in MATCHING_PENNIES.R),
        )
        rng = random.Random(1)
        for _ in range(5):
            p = random_profile(rng, 2, 2)
            assert social_welfare(game, p) == 0

    def test_tv_identical(self):
        assert tv_distance(UNIFORM, UNIFORM) == 0

    def test_tv_disjoint_pure(self):
        p1 = MixedProfile(x=(1, 0), y=(1, 0))
        p2 = MixedProfile(x=(0, 1), y=(0, 1))
        assert tv_distance(p1, p2) == 1

    def test_tv_quarter(self):
        p1 = UNIFORM
        p2 = MixedProfile(x=(F(3, 4), F(1, 4)), y=(F(3, 4), F(1, 4)))
        assert tv_distance(p1, p2) == F(1, 4)


class TestRescale:
    def test_endpoints(self):
        game = BimatrixGame(R=((-4, 4), (0, 0)), C=((0, 0), (0, 0)))
        scaled = affine_rescale(game, 4, 8)
        assert scaled.R[0][0] == 0
        assert scaled.R[0][1] == 1
        assert scaled.R[1][0] == F(1, 2)

    def test_bad_divisor(self):
        with pytest.raises(ParameterError):
            affine_rescale(MATCHING_PENNIES, 0, 0)

    def test_bad_divisor_too_long_to_print(self):
        # The message must not print a value that str() refuses.
        with pytest.raises(ParameterError, match="divisor"):
            affine_rescale(MATCHING_PENNIES, 0, -F(1, 10**4300))

    def test_blocks_preserved(self):
        game = BimatrixGame(
            R=((1, 0), (0, 1)),
            C=((0, 1), (1, 0)),
            blocks=(("A", 0, 2, 0, 1), ("B", 0, 2, 1, 2)),
        )
        assert affine_rescale(game, 1, 2).blocks == game.blocks


def test_cleared_shares_one_denominator():
    assert cleared([[F(1, 2), 1]], [[F(-1, 3)], [0]]) == ([[3, 6]], [[-2], [0]], 6)
    assert cleared([[1, -2]]) == ([[1, -2]], 1)


class TestBlocks:
    def test_partition_required(self):
        with pytest.raises(ValidationError):
            BimatrixGame(
                R=((1, 0), (0, 1)),
                C=((0, 1), (1, 0)),
                blocks=(("A", 0, 1, 0, 1),),
            )

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            BimatrixGame(
                R=((1, 0), (0, 1)),
                C=((0, 1), (1, 0)),
                blocks=(("A", 0, 2, 0, 2), ("B", 0, 1, 0, 1)),
            )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), shift=st.integers(-5, 5), div=st.integers(1, 6))
def test_scale_equivalence_property(seed, shift, div):
    rng = random.Random(seed)
    game = random_game(rng, rng.randrange(1, 4), rng.randrange(1, 4))
    p = random_profile(rng, game.rows, game.cols)
    eps = Fraction(rng.randrange(0, 9), 8)
    scaled = affine_rescale(game, shift, div)
    assert is_eps_ne(game, p, eps) == is_eps_ne(scaled, p, eps / div)
    assert is_eps_wsne(game, p, eps) == is_eps_wsne(scaled, p, eps / div)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_wsne_implies_ne_property(seed):
    rng = random.Random(seed)
    game = random_game(rng, rng.randrange(1, 4), rng.randrange(1, 4))
    p = random_profile(rng, game.rows, game.cols)
    eps = Fraction(rng.randrange(0, 9), 8)
    if is_eps_wsne(game, p, eps):
        assert is_eps_ne(game, p, eps)
    rep = regret_report(game, p)
    assert rep.row_regret <= rep.row_pure_regret
    assert rep.col_regret <= rep.col_pure_regret


def _profile_side(n: int):
    """Integer weights 0-3 (at least one positive), normalized to sum 1."""
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    return weights.map(lambda w: tuple(Fraction(e, sum(w)) for e in w))


@st.composite
def _game_and_profile(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)
    game = BimatrixGame(R=draw(matrix), C=draw(matrix))
    return game, MixedProfile(x=draw(_profile_side(rows)), y=draw(_profile_side(cols)))


@settings(max_examples=150, deadline=None)
@given(_game_and_profile())
def test_regret_report_matches_double_sums(game_and_profile):
    game, p = game_and_profile
    rows, cols = range(game.rows), range(game.cols)
    # Payoff of each pure row against y and of each pure column against x.
    row_vals = [sum(game.R[i][j] * p.y[j] for j in cols) for i in rows]
    col_vals = [sum(p.x[i] * game.C[i][j] for i in rows) for j in cols]
    row_payoff = sum(p.x[i] * game.R[i][j] * p.y[j] for i in rows for j in cols)
    col_payoff = sum(p.x[i] * game.C[i][j] * p.y[j] for i in rows for j in cols)
    rep = regret_report(game, p)
    assert rep.row_payoff == row_payoff
    assert rep.col_payoff == col_payoff
    assert rep.welfare == row_payoff + col_payoff
    assert rep.row_regret == max(row_vals) - row_payoff
    assert rep.col_regret == max(col_vals) - col_payoff
    assert rep.row_pure_regret == max(row_vals) - min(
        row_vals[i] for i in rows if p.x[i] > 0)
    assert rep.col_pure_regret == max(col_vals) - min(
        col_vals[j] for j in cols if p.y[j] > 0)
