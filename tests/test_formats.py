from __future__ import annotations

import random
from fractions import Fraction

import pytest

from negadget import formats
from negadget.corpus import random_game, random_profile
from negadget.errors import FormatError
from negadget.games import BimatrixGame, MixedProfile
from negadget.provers import ProverStrategy, TwoProverGame

F = Fraction


class TestBgm:
    def test_round_trip(self):
        rng = random.Random(1)
        game = random_game(rng, 3, 2)
        assert formats.parse_bgm(formats.write_bgm(game)) == game

    def test_round_trip_with_blocks(self, single_build):
        game = single_build.gadget.game
        again = formats.parse_bgm(formats.write_bgm(game))
        assert again == game
        assert again.blocks == game.blocks

    def test_decimals_exact(self):
        game = formats.parse_bgm("bgm 1\n1 1\n0.25 3/4\n")
        assert game.R[0][0] == F(1, 4)
        assert game.C[0][0] == F(3, 4)

    def test_missing_header(self):
        with pytest.raises(FormatError):
            formats.parse_bgm("1 1\n0 0\n")

    @pytest.mark.parametrize("tok", ["1e5000", "1e-5000", "2.5E+4301"])
    def test_huge_exponent_rejected(self, tok):
        # Fraction would build 10**exponent; at 1e10000000 that takes seconds.
        with pytest.raises(FormatError):
            formats._parse_rational(tok)
        with pytest.raises(FormatError):
            formats.parse_bgm(f"bgm 1\n1 1\n{tok} 0\n")

    def test_exponent_at_limit_accepted(self):
        assert formats._parse_rational("1e-4300") == F(1, 10**4300)

    def test_wrong_entry_count(self):
        with pytest.raises(FormatError):
            formats.parse_bgm("bgm 1\n2 2\n0 0\n")

    def test_deterministic(self):
        rng = random.Random(2)
        game = random_game(rng, 2, 2)
        assert formats.write_bgm(game) == formats.write_bgm(game)


class TestProf:
    def test_round_trip(self):
        rng = random.Random(3)
        p = random_profile(rng, 4, 3)
        assert formats.parse_prof(formats.write_prof(p)) == p

    def test_rejects_non_distribution(self):
        text = "prof 1\n2 1\n1/2\n1/3\n1\n"
        with pytest.raises(FormatError):
            formats.parse_prof(text)

    def test_normalize_flag(self):
        text = "prof 1\n2 1\n1\n2\n5\n"
        p = formats.parse_prof(text, normalize=True)
        assert p.x == (F(1, 3), F(2, 3))
        assert p.y == (F(1),)


class TestFgm:
    def test_round_trip_free(self, single_build):
        t = single_build.build.game
        assert formats.parse_fgm(formats.write_fgm(t)) == t

    def test_round_trip_with_distribution(self):
        dist = ((F(1, 2), F(1, 4)), (F(0), F(1, 4)))
        table = tuple(
            tuple(((1,),) for _ in range(2)) for _ in range(2)
        )
        t = TwoProverGame(
            x_answers=(1, 1), y_answers=(1, 1), table=table, dist=dist
        )
        assert formats.parse_fgm(formats.write_fgm(t)) == t

    def test_bad_v_entry(self):
        with pytest.raises(FormatError):
            formats.parse_fgm("fgm 1\n1 1\n1\n1\n2\n")


class TestStrat:
    def test_round_trip(self):
        s1 = ProverStrategy(answers=(0, 3, 1))
        s2 = ProverStrategy(answers=(2, 0))
        assert formats.parse_strat(formats.write_strat(s1, s2)) == (s1, s2)

    def test_missing_line(self):
        with pytest.raises(FormatError):
            formats.parse_strat("strat 1\n0 1\n")
