from __future__ import annotations

import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negadget import games
from negadget.corpus import random_game, random_profile
from negadget.errors import (
    GadgetError,
    InvariantError,
    ParameterError,
    ResourceError,
    ShapeError,
    ValidationError,
)
from negadget.formats import parse_bgm, write_bgm
from negadget.games import (
    BimatrixGame,
    MixedProfile,
    RegretReport,
    affine_rescale,
    cleared,
    frac,
    int_lines,
    int_readers,
    is_eps_ne,
    is_eps_wsne,
    pure_profile,
    regret_ints,
    regret_report,
    side_vector,
    tv_distance,
    weighted_lines,
)
from oracles import (
    FractionReport,
    regret_report_per_cell,
    support_per_entry,
    tv_distance_per_entry,
    weighted_lines_per_cell,
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

    @pytest.mark.parametrize("i, j", [(True, False), (0.0, 0), (0, 2), (-1, 0)])
    def test_pure_profile_out_of_range(self, i, j):
        # (True, False) was read as (1, 0).
        with pytest.raises(ShapeError, match=r"^pure profile \(.*\) out of range$"):
            pure_profile(MATCHING_PENNIES, i, j)

    @pytest.mark.parametrize("side", [
        ((0,), (1,), 1), ((1, 3), (1, 2), 3), ((0, 2, 4), (2, 1, 2), 5),
        ((4,), (1,), 1),
    ])
    def test_side_vector_lays_out_a_reduced_side(self, side):
        support, weights, scale = side
        x = side_vector(5, side)
        assert x == tuple([F(weights[support.index(t)], scale) if t in support
                           else 0 for t in range(5)])
        # One object per distinct weight and one shared zero.
        assert len({id(e) for e in x}) == len(set(weights)) + (len(support) < 5)
        p = MixedProfile(x=x, y=side_vector(2, ((1,), (1,), 1)))
        assert p.sparse_x == side and p.sparse_y == ((1,), (1,), 1)

    def test_side_vector_takes_fraction_weights_over_one(self):
        # As the support LPs give them: two equal values share one object.
        x = side_vector(4, ((0, 2, 3), (F(1, 4), F(1, 2), F(1, 4)), 1))
        assert x == (F(1, 4), 0, F(1, 2), F(1, 4)) and x[0] is x[3]
        assert MixedProfile(x=x, y=(1,)).sparse_x == ((0, 2, 3), (1, 2, 1), 4)

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

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_kernel_refuses_a_side_heavier_than_its_m(self, name):
        # Weight 2 over M = 1 pays twice the best response: a negative
        # regret.  Weight 1 over M = 2 pays half of it, a regret above the
        # pure regret of 0.
        player = "row" if name == "x" else "col"
        game = BimatrixGame(R=((1, 0), (0, 1)), C=((1, 0), (0, 1)))
        for side in (((0,), (2,), 1), ((0,), (1,), 2)):
            p = MixedProfile.of_sides(2, 2, ((0,), (1,), 1), ((0,), (1,), 1))
            object.__setattr__(p, f"sparse_{name}", side)
            for verdict in (regret_ints, regret_report, lambda g, p: is_eps_ne(g, p, 1),
                            lambda g, p: is_eps_wsne(g, p, 1)):
                with pytest.raises(InvariantError,
                                   match=f"^{player} regret exceeds pure {player} regret$"):
                    verdict(game, p)

    def test_report_is_the_kernels_integers(self):
        # Ry = (5/2, 1/2) and xC = (5/3, 2) over the unit L*M_x*M_y = 12.
        game = BimatrixGame(R=((3, 1), (0, 2)), C=((1, 0), (2, 3)))
        p = MixedProfile(x=(F(1, 3), F(2, 3)), y=(F(3, 4), F(1, 4)))
        rep = regret_report(game, p)
        assert regret_report is regret_ints and isinstance(rep, RegretReport)
        assert rep == (16, 3, 24, 4, 14, 21, 12)
        assert (rep.row_pure, rep.col_pay, rep.unit) == (24, 21, 12)
        assert FractionReport.of(rep) == FractionReport(
            F(4, 3), F(1, 4), F(2), F(1, 3), F(7, 6), F(7, 4), F(35, 12))

    def test_shape_checked_before_eps(self):
        p = MixedProfile(x=(1,), y=(1,))
        for verdict in (is_eps_ne, is_eps_wsne):
            with pytest.raises(ShapeError):
                verdict(MATCHING_PENNIES, p, 0.5)

    def test_within_reads_eps_as_frac_does(self):
        # Regrets 4/3 and 1/4, pure 2 and 1/3 (test_report_is_the_kernels_integers).
        game = BimatrixGame(R=((3, 1), (0, 2)), C=((1, 0), (2, 3)))
        rep = regret_report(game, MixedProfile(x=(F(1, 3), F(2, 3)), y=(F(3, 4), F(1, 4))))
        for bad in (True, False, 0.5, 2.0, None):
            with pytest.raises(ParameterError, match="expected an exact rational"):
                rep.within(bad)
        assert rep.within(2) and rep.within("4/3") and not rep.within("1/2")
        assert rep.within(F(4, 3)) and not rep.within(F(4, 3), strict=True)
        assert not rep.within("1.9", pure=True) and rep.within(2, pure=True)


class TestProfiles:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            MixedProfile(x=(F(1, 2), F(1, 3)), y=(1, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            MixedProfile(x=(F(3, 2), F(-1, 2)), y=(1, 0))

    def test_errors_come_in_order(self):
        with pytest.raises(ShapeError, match="x is empty"):
            MixedProfile(x=(), y=(F(-1),))
        with pytest.raises(ValidationError, match="x has a negative entry"):
            MixedProfile(x=(F(3, 2), F(-1, 2)), y=(F(1, 2),))
        with pytest.raises(ValidationError, match="y does not sum to 1"):
            MixedProfile(x=(1, 0), y=(F(1, 2),))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_shared_weights_count_once_per_entry(self, data):
        # Entries drawn from a few shared objects and fresh equal copies, so
        # one object stands for many entries and equal values for distinct
        # objects; the verdict is that of the entry-by-entry checks.
        shared = [F(0), F(1, 4), F(1, 2), F(1), F(-1, 4)]
        pick = st.sampled_from(range(len(shared)))
        entry = st.builds(lambda i, copy: F(shared[i]) if copy else shared[i],
                          pick, st.booleans())
        x, y = (data.draw(st.lists(entry, max_size=8)) for _ in range(2))
        want = None
        for name, v in (("x", x), ("y", y)):
            if not v:
                want = want or (ShapeError, f"{name} is empty")
            elif any(e < 0 for e in v):
                want = want or (ValidationError, f"{name} has a negative entry")
            elif sum(v) != 1:
                want = want or (ValidationError, f"{name} does not sum to 1")
        if want is None:
            p = MixedProfile(x=x, y=y)
            assert (p.x, p.y) == (tuple(x), tuple(y))
        else:
            with pytest.raises(want[0], match=want[1]):
                MixedProfile(x=x, y=y)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_of_sides_matches_the_vector_constructor(self, data):
        # Sides as the scan gives them (unreduced int multiplicities over k)
        # or as the LPs do (Fractions over 1), some spoilt by one fault.
        sizes, sides = [], []
        for _ in range(2):
            n = data.draw(st.integers(1, 6))
            support = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
            counts = data.draw(st.lists(st.integers(1, 4), min_size=len(support),
                                        max_size=len(support)))
            times = data.draw(st.integers(1, 3))  # so a side may reduce
            if data.draw(st.booleans()):
                side = support, tuple(c * times for c in counts), sum(counts) * times
            else:
                side = support, tuple(F(c, sum(counts)) for c in counts), 1
            sizes.append(n)
            sides.append(side)
        fault = data.draw(st.sampled_from([
            None, "unsorted", "duplicate", "out of range", "non-int", "zero",
            "negative", "sum", "lengths", "empty"]))
        n, (support, weights, scale) = sizes[0], sides[0]
        if fault == "unsorted" and len(support) > 1:
            support = support[::-1]
        elif fault == "duplicate":
            support, weights = support + support[-1:], weights + weights[-1:]
        elif fault == "out of range":
            support = support[:-1] + (data.draw(st.sampled_from([-1, n, n + 3])),)
        elif fault == "non-int":
            support = (data.draw(st.sampled_from([0.0, True, F(0), "0"])),) + support[1:]
        elif fault == "zero" and support[-1] < n - 1:
            support, weights = support + (n - 1,), weights + (0 * weights[0],)
        elif fault == "negative":
            weights = (-weights[0],) + weights[1:]
        elif fault == "sum":
            weights = (2 * weights[0],) + weights[1:]
        elif fault == "lengths":
            weights = weights[:-1]
        elif fault == "empty":
            support, weights = (), ()
        else:
            fault = None
        sides[0] = support, weights, scale
        vectors = None  # the vectors of sides that a vector can hold
        if fault in (None, "negative", "sum", "empty"):
            vectors = []
            for n, (support, weights, scale) in zip(sizes, sides):
                v = [F(0)] * n
                for t, w in zip(support, weights):
                    v[t] = F(w) / scale
                vectors.append(v)
        if fault is None:
            p = MixedProfile.of_sides(*sizes, *sides)
            q = MixedProfile(*vectors)
            assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
            assert (p.sparse_x, p.sparse_y) == (q.sparse_x, q.sparse_y)
            for v, (support, weights, _) in ((p.x, p.sparse_x), (p.y, p.sparse_y)):
                assert len({id(e) for e in v if e}) == len(set(weights))
                assert len({id(e) for e in v if not e}) == (len(support) < len(v))
            return
        if vectors is None:
            want = (ValidationError, None)
        else:
            with pytest.raises(ValidationError) as err:
                MixedProfile(*vectors)
            want = (ValidationError, f"^{re.escape(str(err.value))}$")
        with pytest.raises(want[0], match=want[1]):
            MixedProfile.of_sides(*sizes, *sides)

    @pytest.mark.parametrize("x_side, message", [
        (((1, 0), (1, 1), 2), r"^x's indices are not ascending ints in range\(2\)$"),
        (((0, 0), (1, 1), 2), r"^x's indices are not ascending ints in range\(2\)$"),
        (((0, 2), (1, 1), 2), r"^x's indices are not ascending ints in range\(2\)$"),
        (((-1,), (1,), 1), r"^x's indices are not ascending ints in range\(2\)$"),
        (((True,), (1,), 1), r"^x's indices are not ascending ints in range\(2\)$"),
        (((0, 1), (0, 1), 1), r"^x has a zero weight$"),
        (((0, 1), (1,), 1), r"^x needs one weight per index and an int M > 0$"),
        (((0,), (1,), 0), r"^x needs one weight per index and an int M > 0$"),
        (((0,), (1,), F(1)), r"^x needs one weight per index and an int M > 0$"),
        (((0, 1), (-1, 2), 1), r"^x has a negative entry$"),
        (((0, 1), (1, 2), 2), r"^x does not sum to 1$"),
        (((), (), 1), r"^x does not sum to 1$"),
    ])
    def test_of_sides_names_the_fault(self, x_side, message):
        with pytest.raises(ValidationError, match=message):
            MixedProfile.of_sides(2, 1, x_side, ((0,), (1,), 1))

    def test_of_sides_errors_come_in_order(self):
        with pytest.raises(ShapeError, match="^x is empty$"):
            MixedProfile.of_sides(0, 1, ((), (), 1), ((0,), (-1,), 1))
        with pytest.raises(ValidationError, match="^y has a negative entry$"):
            MixedProfile.of_sides(1, 1, ((0,), (1,), 1), ((0,), (-1,), 1))
        with pytest.raises(ParameterError):  # as the constructor's, for a float weight
            MixedProfile.of_sides(1, 1, ((0,), (1.0,), 1), ((0,), (1,), 1))

    @pytest.mark.parametrize("rows", [2.0, F(2)])
    def test_of_sides_refuses_a_length_that_is_not_an_int(self, rows):
        # Refused before a comparison reads it, as pure_profile refuses an index.
        with pytest.raises(ShapeError, match=r"^x's length .* is not an int$"):
            MixedProfile.of_sides(rows, 1, ((0,), (1,), 1), ((0,), (1,), 1))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_int_weights_clear_as_their_fractions_do(self, data):
        # Int weights, as a scan's sides hold, take their own path through
        # `_cleared_side`; the same weights as Fractions take the general
        # one.  Both give one side or profile, or one error class and
        # message: a negative entry, a zero weight, a sum off by one, a
        # common factor with M, or no weights at all.
        counts = data.draw(st.lists(st.integers(0, 4), max_size=5))
        times = data.draw(st.integers(1, 3))  # so a side may reduce
        weights = [c * times for c in counts]
        if weights and data.draw(st.booleans()):
            weights[data.draw(st.integers(0, len(weights) - 1))] *= -1
        scale = max(1, sum(weights) + data.draw(st.sampled_from([0, 0, -1, 1])))
        support = tuple(range(len(weights)))

        def outcome(build, ws):
            try:
                return build(ws)
            except GadgetError as exc:
                return type(exc), str(exc)

        def clear(ws):
            return games._cleared_side("x", support, ws, scale)

        def of_sides(ws):
            return MixedProfile.of_sides(len(ws) + 1, 1, (support, ws, scale), ((0,), (1,), 1))

        for build in (clear, of_sides):
            assert outcome(build, weights) == outcome(build, [F(w) for w in weights])
        side = outcome(clear, weights)
        if len(side) == 3:  # cleared: the reduced side of the same vector
            vector = [F(w, scale) for w in weights]
            assert side == MixedProfile(x=vector, y=(1,)).sparse_x
            assert math.gcd(side[2], *side[1]) == 1

    @pytest.mark.parametrize("weights", [(True,), (1, True), (True, 0)])
    def test_a_bool_weight_is_refused(self, weights):
        support, scale = tuple(range(len(weights))), sum(weights)
        with pytest.raises(ParameterError):
            games._cleared_side("x", support, weights, scale)
        with pytest.raises(ParameterError):
            MixedProfile.of_sides(2, 1, (support, weights, scale), ((0,), (1,), 1))

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
        assert regret_report(game, MixedProfile(x=(1,), y=(1,))).welfare == 2

    def test_zero_sum_constant(self):
        game = BimatrixGame(
            R=MATCHING_PENNIES.R,
            C=tuple(tuple(-e for e in row) for row in MATCHING_PENNIES.R),
        )
        rng = random.Random(1)
        for _ in range(5):
            p = random_profile(rng, 2, 2)
            assert regret_report(game, p).welfare == 0

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

    @pytest.mark.parametrize("sides1, sides2, want", [
        # Disjoint supports on both sides: each gap is one profile's weight.
        ((((0,), (1,), 1), ((1, 2), (1, 1), 2)),
         (((1, 2), (1, 2), 3), ((0,), (1,), 1)), F(1)),
        # Unreduced sides (2/4 and 3/6) against reduced ones.
        ((((0, 1), (2, 2), 4), ((0, 2), (3, 3), 6)),
         (((0, 1), (1, 1), 2), ((2,), (1,), 1)), F(1, 2)),
        ((((0, 1, 2), (2, 4, 2), 8), ((1,), (5,), 5)),
         (((1, 2), (3, 3), 6), ((1,), (1,), 1)), F(1, 4)),
    ])
    def test_tv_walks_the_sides(self, sides1, sides2, want, monkeypatch):
        p1, p2 = (MixedProfile.of_sides(3, 3, *sides) for sides in (sides1, sides2))
        laid_out = []
        monkeypatch.setattr(games, "side_vector", lambda *args: laid_out.append(args))
        assert tv_distance(p1, p2) == tv_distance(p2, p1) == want
        assert laid_out == []
        monkeypatch.undo()
        assert tv_distance_per_entry(p1, p2) == want

    def test_tv_refuses_different_shapes(self):
        p1 = MixedProfile.of_sides(2, 3, ((0,), (1,), 1), ((0,), (1,), 1))
        for rows, cols in ((3, 3), (2, 2)):
            p2 = MixedProfile.of_sides(rows, cols, ((0,), (1,), 1), ((0,), (1,), 1))
            with pytest.raises(ShapeError, match="^profiles have different shapes$"):
                tv_distance(p1, p2)


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


def test_game_keeps_fraction_objects_and_coerces_the_rest():
    half, third = F(1, 2), F(1, 3)
    game = BimatrixGame(R=((half, third), (half, 1)), C=(("1/4", half), (0, third)))
    assert game.R[0][0] is half and game.R[1][0] is half and game.C[0][1] is half
    assert game.R[0][1] is third and game.C[1][1] is third
    assert game.R[1][1] == 1 and type(game.R[1][1]) is Fraction
    assert game.C[0][0] == F(1, 4) and type(game.C[0][0]) is Fraction
    assert game.C[1][0] == 0 and type(game.C[1][0]) is Fraction


@pytest.mark.parametrize("R, C", [
    (((1, 0.5),), ((0, 0),)),
    (((1, 0),), ((0, float("nan")),)),
])
def test_float_payoff_rejected(R, C):
    with pytest.raises(ParameterError, match="expected an exact rational, got float"):
        BimatrixGame(R=R, C=C)


@pytest.mark.parametrize("x, y", [((0.5, F(1, 2)), (1,)), ((1,), (1.0,))])
def test_float_profile_entry_rejected(x, y):
    # A float would enter the profile as its binary value, not its decimal.
    with pytest.raises(ParameterError, match="expected an exact rational, got float"):
        MixedProfile(x=x, y=y)


class TestFrac:
    @pytest.mark.parametrize("value, message", [
        (True, "got bool True"),
        (None, "got NoneType None"),
        ([1], "got list [1]"),
        (complex(1, 0), "got complex"),
        ("abc", "bad rational 'abc'"),
        ("1/0", "bad rational '1/0'"),
        ("1e4300", "'1e4300' has more than 4300 digits"),
        ("1e4301", "exponent of '1e4301' exceeds 4300"),
    ])
    def test_not_a_rational_is_a_parameter_error(self, value, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            frac(value)

    def test_long_exponent_refused_at_once(self):
        # Fraction('1e10000000') builds 10**10000000 first, which takes
        # seconds; the exponent is refused before that.
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="exceeds 4300"):
            frac("1e10000000")
        assert time.perf_counter() - start < 1

    def test_text_and_rationals_read_exactly(self):
        assert frac("3/4") == F(3, 4) and frac("-0.25") == F(-1, 4)
        assert frac("1e-4300") == F(1, 10**4300)
        assert frac(7) == 7 and type(frac(7)) is Fraction
        half = F(1, 2)
        assert frac(half) is half


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
def _game_and_profile(draw, side=_profile_side):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)
    game = BimatrixGame(R=draw(matrix), C=draw(matrix))
    return game, MixedProfile(x=draw(side(rows)), y=draw(side(cols)))


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


# A few shared entry objects; a drawn entry is one of them or a fresh copy
# of one, equal in value but a different object.
POOL = (F(0), F(1), F(-1, 2), F(3, 4))
_pool_entry = st.one_of(
    st.sampled_from(POOL),
    st.sampled_from(POOL).map(lambda e: F(e.numerator, e.denominator)),
)


@st.composite
def _shared_weights(draw, n):
    """Weights 0-3 normalized to sum 1; each entry is the first object of
    its value or a fresh one, so equal weights are sometimes one object and
    sometimes not, and different values occur."""
    w = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    first: dict[Fraction, Fraction] = {}
    out = []
    for e in w:
        value = F(e, sum(w))
        out.append(first.setdefault(value, value) if draw(st.booleans()) else value)
    return tuple(out)


@st.composite
def _pool_rows(draw, rows, cols):
    """Rows of pool entries; a row is often a permutation of an earlier one,
    so equal entries meet under different weights."""
    out: list[list[Fraction]] = []
    for _ in range(rows):
        if out and draw(st.booleans()):
            out.append(draw(st.permutations(draw(st.sampled_from(out)))))
        else:
            out.append(draw(st.lists(_pool_entry, min_size=cols, max_size=cols)))
    return out


@st.composite
def _shared_game_and_profile(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # R's rows and C's columns meet the weights of y and x.
    game = BimatrixGame(R=draw(_pool_rows(rows, cols)),
                        C=list(zip(*draw(_pool_rows(cols, rows)))))
    return game, MixedProfile(x=draw(_shared_weights(rows)),
                              y=draw(_shared_weights(cols)))


@settings(max_examples=300, deadline=None)
@given(_shared_game_and_profile())
def test_shared_objects_match_the_per_cell_reference(game_and_profile):
    game, p = game_and_profile
    assert _lines(game, p) == weighted_lines_per_cell(game, p)
    assert FractionReport.of(regret_report(game, p)) == regret_report_per_cell(game, p)


# Primes for profile weights a/p, so that a side's M is a product of them.
PRIMES = (2, 3, 7, 101, 1000003, 998244353)


def _prime_side(n: int):
    """Weights 0 or a/p for a prime p above (at least one positive),
    normalized to sum 1."""
    weight = st.one_of(st.just(F(0)), st.builds(F, st.integers(1, 10**6),
                                                st.sampled_from(PRIMES)))
    raw = st.lists(weight, min_size=n, max_size=n).filter(any)
    return raw.map(lambda w: tuple(e / sum(w) for e in w))


@settings(max_examples=150, deadline=None)
@given(_game_and_profile(_prime_side))
def test_integer_verdicts_match_the_per_cell_oracle(game_and_profile):
    # At each regret, and one step of the kernel's unit either side of it.
    game, p = game_and_profile
    ref = regret_report_per_cell(game, p)
    rep = regret_ints(game, p)
    step = F(1, rep.unit)
    for regret in (ref.row_regret, ref.col_regret, ref.row_pure_regret,
                   ref.col_pure_regret):
        for e in (regret - step, regret, regret + step):
            assert is_eps_ne(game, p, e) == ref.within(e)
            assert is_eps_wsne(game, p, e) == ref.within(e, pure=True)
            for pure, strict in itertools.product((False, True), repeat=2):
                assert rep.within(e, pure, strict) == ref.within(e, pure, strict)


@st.composite
def _fresh_game_and_profile(draw):
    """Games up to 5x5 and profiles in which every entry is a new Fraction,
    so no two cells or weights share an object, drawn from few values so
    that equal values recur."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows)
    r, c = ([[F(n, 2) for n in row] for row in draw(cells)] for _ in range(2))

    def side(n):
        w = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        return tuple(F(e, sum(w)) for e in w)

    return r, c, MixedProfile(x=side(rows), y=side(cols))


@settings(max_examples=300, deadline=None)
@given(_fresh_game_and_profile())
def test_fresh_objects_match_the_per_cell_reference(drawn):
    r, c, p = drawn
    game = BimatrixGame(R=r, C=c)
    # One palette pair per cell: no two cells share an entry object.
    assert len(game.palette) == game.rows * game.cols
    assert all(a is b for given, view in ((r, game.R), (c, game.C))
               for g_row, v_row in zip(given, view) for a, b in zip(g_row, v_row))
    assert _lines(game, p) == weighted_lines_per_cell(game, p)
    assert FractionReport.of(regret_report(game, p)) == regret_report_per_cell(game, p)
    again = parse_bgm(write_bgm(game))
    assert again == game and hash(again) == hash(game)


def _lines(game: BimatrixGame, p: MixedProfile) -> tuple[list[int], list[int]]:
    """`weighted_lines` on both sides of p: R's columns at y's support and
    C's rows at x's support, read through `int_readers`, and the same read
    through the `int_lines` tables."""
    return _side_lines(game, p.sparse_x, p.sparse_y)


def _side_lines(game: BimatrixGame, x_side, y_side) -> tuple[list[int], list[int]]:
    """`weighted_lines` of R's columns at ``y_side`` and of C's rows at
    ``x_side``, the same through both readers: the streams of
    `int_readers` and the kept lines of `int_lines`."""
    c_row, r_col, _ = int_readers(game)
    c_rows, r_cols, _ = int_lines(game)
    streamed = weighted_lines(r_col, y_side), weighted_lines(c_row, x_side)
    kept = weighted_lines(r_cols.__getitem__, y_side), weighted_lines(c_rows.__getitem__, x_side)
    assert streamed == kept
    return streamed


@st.composite
def _raw_side(draw, n: int):
    """A side (support, weights, M) as a scan gives it: ascending members,
    positive int multiplicities drawn from few values (so that one weight
    may hold one member and another several), M their sum, not reduced."""
    support = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    weights = tuple(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=len(support),
                                  max_size=len(support))))
    return support, weights, sum(weights)


@st.composite
def _game_and_raw_sides(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows)
    r, c = ([[F(e, 2) for e in row] for row in draw(cells)] for _ in range(2))
    return BimatrixGame(R=r, C=c), draw(_raw_side(rows)), draw(_raw_side(cols))


_LINES_GAME = BimatrixGame(R=((1, F(-1, 2), 3, 0), (2, 0, F(1, 3), -1), (0, 5, 1, 1)),
                           C=((F(1, 4), 2, 0, 1), (-3, 1, 1, 0), (2, 2, F(-1, 2), 4)))


@settings(max_examples=200, deadline=None)
@given(drawn=_game_and_raw_sides())
# A one-member side at w = 1 and at w = k (a k-uniform pure side, k = 3).
@example(drawn=(_LINES_GAME, ((2,), (1,), 1), ((1,), (1,), 1)))
@example(drawn=(_LINES_GAME, ((2,), (3,), 3), ((1,), (3,), 3)))
# Weight 1 holds one line among weights of two and three lines.
@example(drawn=(_LINES_GAME, ((0, 1, 2), (2, 1, 2), 5), ((0, 1, 2, 3), (3, 1, 3, 3), 10)))
def test_scan_sides_match_the_per_cell_reference(drawn):
    # A side over M, not reduced, sums M/M' times the profile's reduced
    # side over M', which the oracle reads.
    game, x_side, y_side = drawn
    p = MixedProfile.of_sides(game.rows, game.cols, x_side, y_side)
    ref_r, ref_c = weighted_lines_per_cell(game, p)
    assert _side_lines(game, x_side, y_side) == (
        [v * (y_side[2] // p.sparse_y[2]) for v in ref_r],
        [v * (x_side[2] // p.sparse_x[2]) for v in ref_c])


# Primes up to about 10**12, so that entries and weights over them have
# coprime denominators and L and M grow to products of several of them.
PRIMES = (3, 7, 101, 1000003, 998244353, 1000000007, 2147483647, 4294967291,
          9999999967, 99999999977, 999999999959, 999999999989, 1000000000039)


@st.composite
def _coprime_game_and_profile(draw):
    """Games up to 4x5 with entries n/p over the primes, and profiles whose
    positive weights are a/p normalized, so every weight has its own
    denominator."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from(PRIMES))
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)

    def side(n):
        raw = draw(st.lists(st.one_of(st.just(F(0)), st.builds(
            Fraction, st.integers(1, 10**12), st.sampled_from(PRIMES))),
            min_size=n, max_size=n).filter(any))
        return tuple(e / sum(raw) for e in raw)

    return (BimatrixGame(R=draw(matrix), C=draw(matrix)),
            MixedProfile(x=side(rows), y=side(cols)))


@settings(max_examples=200, deadline=None)
@given(_coprime_game_and_profile())
def test_coprime_denominators_match_the_per_cell_reference(game_and_profile):
    game, p = game_and_profile
    assert FractionReport.of(regret_report(game, p)) == regret_report_per_cell(game, p)
    assert _lines(game, p) == weighted_lines_per_cell(game, p)
    assert regret_report(game, p).welfare == regret_report_per_cell(game, p).welfare
    # The palette cleared once is the per-cell clearing of R and C.
    r_ints, c_ints, scale = game.int_entries
    assert ([[r_ints[c] for c in row] for row in game.codes],
            [[c_ints[c] for c in row] for row in game.codes],
            scale) == cleared(game.R, game.C)
    # Each side's support and weights give back its vector.
    for v, (support, weights, m) in ((p.x, p.sparse_x), (p.y, p.sparse_y)):
        assert support == support_per_entry(v)
        assert m == math.lcm(*[e.denominator for e in v])
        assert [v[i] * m for i in support] == list(weights)


def test_digit_bound_denominator_matches_the_per_cell_reference():
    tiny = F(1, games.DIGIT_BOUND)
    game = BimatrixGame(R=((tiny, 0, F(1, 3)), (F(-1, 7), 1, tiny)),
                        C=((0, tiny, 1), (F(2, 5), tiny, 0)))
    for p in (MixedProfile(x=(F(1, 3), F(2, 3)), y=(tiny, F(1, 2), F(1, 2) - tiny)),
              MixedProfile(x=(1, 0), y=(F(1, 7), 0, F(6, 7)))):
        assert FractionReport.of(regret_report(game, p)) == regret_report_per_cell(game, p)
        assert _lines(game, p) == weighted_lines_per_cell(game, p)
    assert game.int_entries[2] == 21 * games.DIGIT_BOUND  # 5 divides 10**4300


def test_eq_and_hash_read_the_sides_and_repr_the_vectors():
    # A cleared side is reduced, so equal vectors give equal sides however
    # the profile was built; the lengths count too.
    p = MixedProfile(x=(F(1, 3), F(2, 3)), y=(0, 1))
    q = MixedProfile.of_sides(2, 2, ((0, 1), (2, 4), 6), ((1,), (3,), 3))
    assert p.sparse_x == ((0, 1), (1, 2), 3) and p.sparse_y == ((1,), (1,), 1)
    assert p == q and hash(p) == hash(q)
    assert p != MixedProfile(x=(F(1, 3), F(2, 3)), y=(0, 1, 0))
    assert repr(p) == repr(q) == (
        "MixedProfile(x=(Fraction(1, 3), Fraction(2, 3)), "
        "y=(Fraction(0, 1), Fraction(1, 1)))")
    for name in ("sparse_x", "rows", "x"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(q, name))


@st.composite
def _unreduced_sides(draw, rows, cols):
    """A profile built by `MixedProfile.of_sides` from int weights over a
    multiple of their sum, so that its sides need reducing."""
    sides = []
    for n in (rows, cols):
        support = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        counts = draw(st.lists(st.integers(1, 3), min_size=len(support),
                               max_size=len(support)))
        times = draw(st.integers(1, 3))
        sides.append((support, tuple(c * times for c in counts), sum(counts) * times))
    return MixedProfile.of_sides(rows, cols, *sides)


@st.composite
def _profile_pair(draw):
    """Two profiles of one shape: fresh objects per entry, weights that
    share objects, where the second is often the first's objects permuted
    so that pairs of objects recur, or unreduced sides."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    side = draw(st.sampled_from([_profile_side, _shared_weights, _unreduced_sides]))
    if side is _unreduced_sides:
        return draw(side(rows, cols)), draw(side(rows, cols))
    p1 = MixedProfile(x=draw(side(rows)), y=draw(side(cols)))
    if side is _shared_weights and draw(st.booleans()):
        return p1, MixedProfile(x=draw(st.permutations(p1.x)),
                                y=draw(st.permutations(p1.y)))
    return p1, MixedProfile(x=draw(side(rows)), y=draw(side(cols)))


@settings(max_examples=300, deadline=None)
@given(_profile_pair())
def test_distance_and_supports_match_the_per_entry_reference(pair):
    p1, p2 = pair
    assert tv_distance(p1, p2) == tv_distance_per_entry(p1, p2)
    for p in pair:
        assert p.support_x == support_per_entry(p.x)
        assert p.support_y == support_per_entry(p.y)


class TestCoding:
    def test_one_code_per_pair_of_objects(self):
        half, zero = F(1, 2), F(0)
        game = BimatrixGame(R=((half, zero, half), (zero, half, half)),
                            C=((zero, half, zero), (half, zero, zero)))
        assert game.palette == ((half, zero), (zero, half))
        assert game.codes == ("\0\1\0", "\1\0\0")

    def test_equality_is_by_value_not_by_coding(self):
        half, zero = F(1, 2), F(0)
        game = BimatrixGame(R=((half, zero),), C=((zero, half),))
        recoded = BimatrixGame.coded(((F(0), F(2, 4)), (F(1, 2), F(0))), ("\1\0",))
        assert game == recoded and hash(game) == hash(recoded)
        assert game != BimatrixGame(R=((half, half),), C=((zero, half),))
        assert game != BimatrixGame(R=((half, zero),), C=((zero, half),),
                                    blocks=(("A", 0, 1, 0, 2),))
        assert game != game.R

    def test_equality_across_palette_orders_and_duplicate_lines(self):
        base = parse_bgm("bgm 1\n2 2\n1/2 0\n0 1\n1/2 0\n0 1\n")
        dup = parse_bgm("bgm 1\n2 2\n1/2 0\n0 1\n0.5 0\n0 1\n")
        flipped = BimatrixGame.coded(((F(0), F(1)), (F(1, 2), F(0))), ("\1\0", "\1\0"))
        assert len(dup.palette) == 3 and flipped.palette != base.palette
        for other in (dup, flipped):
            assert base == other and hash(base) == hash(other)
        assert base != parse_bgm("bgm 1\n2 2\n1/2 0\n0 1\n0.5 0\n0 1/2\n")
        assert dup != parse_bgm("bgm 1\n2 2\n1/2 0\n0 1\n0.5 0\n1 1\n")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            MATCHING_PENNIES.codes = ("\0",)

    def test_a_report_keeps_no_copy_of_the_cells(self):
        # The code rows are the one copy of the cells: a report of a pure
        # profile on a wide game reads one of R's columns and keeps nothing
        # on the game (a transposed copy would hold 11 MiB).
        palette = ((F(0), F(1)), (F(1), F(0)))
        game = BimatrixGame.coded(palette, ("\0\1" * 100_000, "\1\0" * 100_000))
        p = pure_profile(game, 1, 0)
        tracemalloc.start()
        try:
            report = regret_report(game, p)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.row_regret, report.col_regret, report.welfare) == (0, 1, 1)
        assert retained < 2**20, retained

    def test_palette_limit(self, monkeypatch):
        monkeypatch.setattr(games, "PALETTE_LIMIT", 3)
        assert len(BimatrixGame(R=((0, 1, 2),), C=((0, 0, 0),)).palette) == 3
        with pytest.raises(ResourceError, match="more than 3 distinct"):
            BimatrixGame(R=((0, 1, 2, 3),), C=((0, 0, 0, 0),))
        with pytest.raises(ResourceError, match="more than 3 distinct"):
            parse_bgm("bgm 1\n2 2\n0 0\n1 0\n2 0\n3 0\n")
