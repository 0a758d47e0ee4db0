from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negadget.errors import (
    ParameterError,
    ResourceError,
    ShapeError,
    ValidationError,
)
from negadget.gadget import rescale_game
from negadget.games import IntLines, MixedProfile, regret_report
from negadget.provers import (
    ProverStrategy,
    TwoProverGame,
    game_value,
    induced_two_prover,
    prover_payoff,
    uniformity_gap,
)

from oracles import induced_two_prover_reference

F = Fraction


def constant_game(nx, ny, na, nb, value, dist=None):
    table = tuple(
        tuple(
            tuple(tuple(value for _ in range(nb)) for _ in range(na))
            for _ in range(ny)
        )
        for _ in range(nx)
    )
    return TwoProverGame(
        x_answers=(na,) * nx, y_answers=(nb,) * ny, table=table, dist=dist
    )


def naive_game_value(t: TwoProverGame) -> Fraction:
    """Full double enumeration over strategy pairs; independent oracle."""
    best = F(0)
    for s1 in itertools.product(*(range(a) for a in t.x_answers)):
        for s2 in itertools.product(*(range(b) for b in t.y_answers)):
            value = prover_payoff(
                t, ProverStrategy(answers=s1), ProverStrategy(answers=s2)
            )
            if value > best:
                best = value
    return best


def random_two_prover(rng: random.Random) -> TwoProverGame:
    nx, ny = rng.randrange(1, 3), rng.randrange(1, 3)
    xa = tuple(rng.randrange(1, 4) for _ in range(nx))
    ya = tuple(rng.randrange(1, 4) for _ in range(ny))
    table = tuple(
        tuple(
            tuple(
                tuple(rng.randrange(2) for _ in range(ya[y]))
                for _ in range(xa[x])
            )
            for y in range(ny)
        )
        for x in range(nx)
    )
    return TwoProverGame(x_answers=xa, y_answers=ya, table=table)


@st.composite
def _two_prover_games(draw):
    """1-3 questions a side with 1-3 answers each: a free game, or a
    distribution with mixed denominators whose mass is 1, 3/4 or below."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
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
    if draw(st.booleans()):
        return TwoProverGame(x_answers=xa, y_answers=ya, table=table)
    entry = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3, 5, 12]))
    dist = [[draw(entry) for _ in range(ny)] for _ in range(nx)]
    mass = sum(map(sum, dist))
    if mass > 1:
        shrink = mass * draw(st.sampled_from([F(1), F(4, 3)]))
        dist = [[e / shrink for e in row] for row in dist]
    return TwoProverGame(
        x_answers=xa, y_answers=ya, table=table,
        dist=tuple(map(tuple, dist)),
    )


def _mirror(t: TwoProverGame) -> TwoProverGame:
    """The same game with the provers' roles swapped."""
    table = tuple(
        tuple(
            tuple(
                tuple(t.table[x][y][a][b] for a in range(t.x_answers[x]))
                for b in range(t.y_answers[y])
            )
            for x in range(t.nx)
        )
        for y in range(t.ny)
    )
    dist = None if t.dist is None else tuple(zip(*t.dist))
    return TwoProverGame(
        x_answers=t.y_answers, y_answers=t.x_answers, table=table, dist=dist
    )


class TestVerdictTable:
    # F(1), 0.0 and 1.0 equal 0 or 1 but are not ints: each was built, and
    # write_fgm and build_hardness_game then raised a bare TypeError (and
    # game_value too, on 1.0).
    @pytest.mark.parametrize("bad", [2, -1, F(1, 2), 256, F(1), 0.0, 1.0])
    def test_entry_other_than_0_or_1_rejected(self, bad):
        table = ((((1, 0), (0, bad)),),)
        with pytest.raises(ValidationError, match="V entries must be 0 or 1"):
            TwoProverGame(x_answers=(2,), y_answers=(2,), table=table)

    @pytest.mark.parametrize("good", [True])
    def test_entry_equal_to_0_or_1_accepted(self, good):
        table = ((((1, 0), (0, good)),),)
        t = TwoProverGame(x_answers=(2,), y_answers=(2,), table=table)
        assert t.table[0][0][1][1] == good


    @pytest.mark.parametrize("count", [2.0, True])
    def test_answer_count_must_be_an_int(self, count):
        # 2.0 was built, and game_value then raised a bare TypeError.
        with pytest.raises(ValidationError,
                           match="^every answer count must be an int$"):
            TwoProverGame(x_answers=(count,), y_answers=(1,),
                          table=((((1,), (0,)),),))
        with pytest.raises(ValidationError,
                           match="^every answer count must be an int$"):
            TwoProverGame(x_answers=(1,), y_answers=(count,), table=((((1,),),),))

    def test_answer_count_below_one(self):
        with pytest.raises(ValidationError,
                           match="^every question needs at least one answer$"):
            TwoProverGame(x_answers=(0,), y_answers=(1,), table=(((),),))


class TestPayoff:
    def test_always_accept(self):
        t = constant_game(2, 2, 2, 2, 1)
        s = ProverStrategy(answers=(0, 0))
        assert prover_payoff(t, s, s) == 1

    def test_always_reject(self):
        t = constant_game(2, 2, 2, 2, 0)
        s = ProverStrategy(answers=(0, 0))
        assert prover_payoff(t, s, s) == 0

    def test_single_winning_pair(self):
        # V = 1 only at (x=0, y=0) with matching answers (0, 0).
        table = tuple(
            tuple(
                tuple(
                    tuple(
                        1 if (x, y, a, b) == (0, 0, 0, 0) else 0
                        for b in range(2)
                    )
                    for a in range(2)
                )
                for y in range(2)
            )
            for x in range(2)
        )
        t = TwoProverGame(x_answers=(2, 2), y_answers=(2, 2), table=table)
        s = ProverStrategy(answers=(0, 0))
        assert prover_payoff(t, s, s) == F(1, 4)

    def test_partial_strategy_rejected(self):
        t = constant_game(2, 2, 2, 2, 1)
        with pytest.raises(ValidationError):
            prover_payoff(
                t, ProverStrategy(answers=(0,)), ProverStrategy(answers=(0, 0))
            )

    @pytest.mark.parametrize("answer", [0.0, True, F(0)])
    def test_non_int_answer_rejected(self, answer):
        # 0.0 passed the range test, then indexed V with a bare TypeError;
        # True was read as answer 1.
        t = constant_game(2, 2, 2, 2, 1)
        with pytest.raises(ValidationError, match="^X strategy answer .* at question 0$"):
            prover_payoff(t, ProverStrategy(answers=(answer, 0)),
                          ProverStrategy(answers=(0, 0)))

    def test_sub_distribution_missing_mass_pays_zero(self):
        dist = ((F(1, 2), F(0)), (F(0), F(0)))
        t = constant_game(2, 2, 1, 1, 1, dist=dist)
        s = ProverStrategy(answers=(0, 0))
        assert prover_payoff(t, s, s) == F(1, 2)


class TestGameValue:
    def test_strategy_counts_are_answer_products(self):
        xs, ys = (2, 3), (5, 1, 4)
        zeros = tuple(tuple(((0,) * b,) * a for b in ys) for a in xs)
        assert TwoProverGame(xs, ys, zeros).strategy_counts() == (6, 20)

    def test_constants(self):
        assert game_value(constant_game(2, 2, 2, 2, 1)) == 1
        assert game_value(constant_game(2, 2, 2, 2, 0)) == 0

    def test_matches_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            t = random_two_prover(rng)
            assert game_value(t) == naive_game_value(t)

    def test_budget_error_names_product(self):
        t = constant_game(2, 2, 8, 8, 1)
        with pytest.raises(ResourceError, match="4096"):
            game_value(t, budget=100)

    @settings(max_examples=200, deadline=None)
    @given(t=_two_prover_games())
    def test_integer_value_matches_naive_oracle(self, t):
        # The mirror enumerates the other side: one of the two runs with
        # |S1| < |S2| and the other with |S1| > |S2| whenever they differ.
        value = naive_game_value(t)
        assert game_value(t) == value
        assert game_value(_mirror(t)) == value

    @pytest.mark.parametrize("dist", [None, ((F(1, 3), F(0)), (F(0), F(1, 6)))])
    def test_budget_checked_before_the_mass_stop(self, dist):
        # Every answer pair wins, so the first strategy already reaches the
        # mass; the budget on |S1|*|S2| = 256 still decides.
        t = constant_game(2, 2, 4, 4, 1, dist=dist)
        assert game_value(t, budget=256) == (1 if dist is None else F(1, 2))
        with pytest.raises(ResourceError, match="256 exceeds budget 255"):
            game_value(t, budget=255)

    def test_distribution_entries_become_fractions(self):
        # Int and Fraction entries become Fractions when the game is built,
        # so the value is an exact Fraction.  A float is not the decimal it
        # was written as, so it raises instead of entering the value.
        t = constant_game(2, 2, 1, 1, 1, dist=((F(1, 2), 0), (F(1, 8), 0)))
        assert all(type(e) is F for row in t.dist for e in row)
        value = game_value(t)
        assert type(value) is F and value == F(5, 8)
        with pytest.raises(ParameterError, match="got float 0.5"):
            constant_game(2, 2, 1, 1, 1, dist=((0.5, 0), (F(1, 8), 0)))

    def test_scan_stops_at_the_mass(self, monkeypatch):
        drawn = []
        product = itertools.product

        def counted(*ranges):
            for answers in product(*ranges):
                drawn.append(answers)
                yield answers

        monkeypatch.setattr(itertools, "product", counted)
        assert game_value(constant_game(3, 3, 4, 4, 1)) == 1
        assert len(drawn) == 1
        drawn.clear()
        assert game_value(constant_game(3, 3, 4, 4, 0)) == 0
        assert len(drawn) == 1
        # Question pair (0, 0) wins only on answers (3, 3), and no other
        # pair ever wins: the scan reaches the bound 1/4 at X's 13th
        # strategy (3, 0) and stops there.
        table = tuple(
            tuple(
                tuple(tuple(int(x == y == 0 and a == b == 3) for b in range(4))
                      for a in range(4))
                for y in range(2)
            )
            for x in range(2)
        )
        drawn.clear()
        t = TwoProverGame(x_answers=(4, 4), y_answers=(4, 4), table=table)
        assert game_value(t) == F(1, 4)
        assert drawn[-1] == (3, 0) and len(drawn) == 13

    def test_value_at_least_any_pair(self):
        rng = random.Random(11)
        t = random_two_prover(rng)
        value = game_value(t)
        for s1 in itertools.product(*(range(a) for a in t.x_answers)):
            for s2 in itertools.product(*(range(b) for b in t.y_answers)):
                assert value >= prover_payoff(
                    t, ProverStrategy(answers=s1), ProverStrategy(answers=s2)
                )

    def test_free_game_permutation_invariance(self):
        rng = random.Random(13)
        t = random_two_prover(rng)
        perm_x = list(range(t.nx))
        perm_y = list(range(t.ny))
        rng.shuffle(perm_x)
        rng.shuffle(perm_y)
        permuted = TwoProverGame(
            x_answers=tuple(t.x_answers[i] for i in perm_x),
            y_answers=tuple(t.y_answers[j] for j in perm_y),
            table=tuple(
                tuple(t.table[i][j] for j in perm_y) for i in perm_x
            ),
        )
        assert game_value(permuted) == game_value(t)


class TestUniformityGap:
    def test_uniform(self):
        assert uniformity_gap((F(1, 2), F(1, 2)), 2) == 0

    def test_concentrated(self):
        assert uniformity_gap((F(1), F(0)), 2) == 1

    def test_zero_marginal(self):
        assert uniformity_gap((F(0), F(0)), 2) == 1

    def test_bad_q(self):
        with pytest.raises(ParameterError):
            uniformity_gap((), 0)
        with pytest.raises(ShapeError):
            uniformity_gap((F(1),), 2)
        # 2.0 raised a bare TypeError from Fraction, and True was read as 1.
        for q in (2.0, True):
            with pytest.raises(ParameterError, match="q must be an int"):
                uniformity_gap((F(1),), q)


@pytest.fixture(scope="module")
def induced_games(sat_builds):
    """(free game, G) and (free game, G_s) of every satisfiable fixture."""
    return [(b.build.game, game) for b in sat_builds.values()
            for game in (b.gadget.game, rescale_game(b.gadget))]


def _grid_side(data, n: int, start: int, counts: tuple[int, ...]) -> tuple:
    """Weights 0, 1 or 2 per entry over their sum, with a drawn set of the
    questions whose answers start at ``start`` zeroed, and about one time in
    four all of them, so that every answer of a question on the other side
    pays the same."""
    w = data.draw(st.lists(st.sampled_from((0, 1, 1, 2)), min_size=n, max_size=n))
    offsets = list(itertools.accumulate(counts, initial=start))
    dropped = data.draw(st.sets(st.integers(0, len(counts) - 1)))
    if data.draw(st.integers(0, 3)) == 0:
        dropped = range(len(counts))
    for q in dropped:
        w[offsets[q]:offsets[q + 1]] = [0] * counts[q]
    if not any(w):
        w[data.draw(st.integers(0, n - 1))] = 1
    return tuple(F(e, sum(w)) for e in w)


class TestInducedGame:
    def test_certificate_marginals_uniform(self, single_build):
        b = single_build
        result = induced_two_prover(b.build.game, b.gadget.game, b.cert)
        nx, ny = b.build.game.nx, b.build.game.ny
        assert result.x_marginal == (F(1, nx),) * nx
        assert result.y_marginal == (F(1, ny),) * ny
        assert result.s_x.answers == b.s1.answers
        assert result.s_y.answers == b.s2.answers
        # The induced distribution is the outer product of the marginals.
        assert result.game.dist == tuple(
            tuple(F(1, nx * ny) for _ in range(ny)) for _ in range(nx)
        )
        assert prover_payoff(result.game, result.s_x, result.s_y) == 1

    def test_no_rc_mass_gives_empty_subdistribution(self, single_build):
        b = single_build
        game = b.gadget.game
        _, r0, r1, c0, c1 = game.block("RC")
        x = [F(0)] * game.rows
        x[r1] = F(1)  # first half-subset row
        y = [F(0)] * game.cols
        y[c1] = F(1)  # first half-subset column
        p = MixedProfile(x=tuple(x), y=tuple(y))
        result = induced_two_prover(b.build.game, game, p)
        assert sum(result.x_marginal) == 0
        assert sum(result.y_marginal) == 0

    def test_half_rc_mass(self, single_build):
        b = single_build
        game = b.gadget.game
        x = list(b.cert.x)
        moved = F(1, 2)
        # Move half the total RC mass onto the first half-subset row.
        x = [e * F(1, 2) for e in x]
        _, r0, r1, c0, c1 = game.block("RC")
        x[r1] = moved
        p = MixedProfile(x=tuple(x), y=b.cert.y)
        result = induced_two_prover(b.build.game, game, p)
        assert sum(result.x_marginal) == F(1, 2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, induced_games, data):
        # Grid profiles on G and G_s: mass on the D1 rows and columns, split
        # over answers that pay the same, and questions without mass.
        free, game = data.draw(st.sampled_from(induced_games))
        _, r0, _, c0, _ = game.block("RC")
        p = MixedProfile(x=_grid_side(data, game.rows, r0, free.x_answers),
                         y=_grid_side(data, game.cols, c0, free.y_answers))
        got = induced_two_prover(free, game, p)
        want = induced_two_prover_reference(free, game, p)
        assert (got.s_x, got.s_y, got.x_marginal, got.y_marginal, got.game.dist) == (
            want.s_x, want.s_y, want.x_marginal, want.y_marginal, want.game.dist)

    def test_tie_goes_to_the_lowest_answer_with_mass(self, single_build):
        # Against a D2 column every answer of a question pays the same, so
        # question 1's mass on its answers 1 and 2 moves to answer 1, and
        # question 0, without mass, keeps answer 0.
        b = single_build
        game = b.gadget.game
        _, r0, r1, c0, c1 = game.block("RC")
        x = [F(0)] * game.rows
        x[r0 + 3] = x[r0 + 4] = F(1, 2)
        y = [F(0)] * game.cols
        y[c1] = F(1)
        result = induced_two_prover(b.build.game, game, MixedProfile(x=x, y=y))
        assert result.s_x.answers == (0, 1)
        assert result.x_marginal == (0, 1)

    def test_builds_no_profile(self, single_build, monkeypatch):
        # x' is read as a cleared side; no second profile re-clears y.
        built = []
        real_init, real_of_sides = MixedProfile.__init__, MixedProfile.of_sides
        monkeypatch.setattr(MixedProfile, "__init__",
                            lambda p, *a, **kw: built.append(1) or real_init(p, *a, **kw))
        monkeypatch.setattr(MixedProfile, "of_sides", classmethod(
            lambda cls, *a: built.append(1) or real_of_sides(*a)))
        b = single_build
        induced_two_prover(b.build.game, b.gadget.game, b.cert)
        assert built == []

    def test_reports_stream_their_lines(self, single_build, monkeypatch):
        # The report and the induced game read each support line once, as a
        # stream over its code slice; neither keeps a line as an int list,
        # not even when the profile's support is every row and column.
        b = single_build
        game = b.gadget.game
        kept = []
        real = IntLines.__missing__

        def spy(lines, t):
            kept.append(t)
            return real(lines, t)

        monkeypatch.setattr(IntLines, "__missing__", spy)
        uniform = MixedProfile(x=(F(1, game.rows),) * game.rows,
                               y=(F(1, game.cols),) * game.cols)
        for p in (b.cert, uniform):
            regret_report(game, p)
            induced_two_prover(b.build.game, game, p)
        assert kept == []
