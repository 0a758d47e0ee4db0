from __future__ import annotations

import random
import sys
import tracemalloc
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negadget import formats
from negadget.corpus import random_game, random_profile
from negadget.errors import FormatError
from negadget.gadget import extend_gdoubleprime, extend_gprime, rescale_game
from negadget.games import BimatrixGame, MixedProfile, parse_rational
from negadget.provers import ProverStrategy, TwoProverGame
from oracles import parse_bgm_per_line, write_bgm_per_cell

F = Fraction

TINY = F(1, 10**4300)  # `1e-4300`: a denominator past the digits str() prints


@st.composite
def _bgm_games(draw):
    """Games up to 3x3 with signed, decimal and `1e-4300` entries, drawn
    from few values so that equal entries recur."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.one_of(
        st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7])),
        st.sampled_from(["0.25", "-1.5", "2.5e-3", "-7e2"]).map(F),
        st.sampled_from([TINY, -TINY, 1 - TINY]),
    )
    cells = st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    return BimatrixGame(R=draw(cells), C=draw(cells))


_GOOD_TOKENS = ["0", "1/2", "-3", "0.25", "2.5e-3", "1e-4300"]
_BAD_TOKENS = ["abc", "1/0", "1e5000", "0.5.5"]


@st.composite
def _bgm_texts(draw):
    """`.bgm` texts up to 3x3 whose entry lines recur, some with spacing
    that differs around equal tokens; some have a wrong line count, a bad
    token count, a bad rational (often repeated), comments or block lines."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    token = st.sampled_from(_GOOD_TOKENS * 6 + _BAD_TOKENS)
    two = st.builds("{}{}{}".format, token, st.sampled_from([" ", "  ", "\t"]), token)
    line = st.one_of(*[two] * 9, st.sampled_from(["1/2", "1/2 0 0", " 0  1/2 "]))
    pool = draw(st.lists(line, min_size=1, max_size=3))
    count = rows * cols + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    lines = draw(st.lists(st.sampled_from(pool) | line,
                          min_size=max(count, 0), max_size=max(count, 0)))
    extras = st.sampled_from([
        "# a comment", "#blocks below", f"#block all 0 {rows} 0 {cols}",
        "#block one 0 1 0 1", "#block bad 0 x 0 1", "#block short 0 1",
    ])
    for extra in draw(st.lists(extras, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(["bgm 1", f"{rows} {cols}", *lines]) + "\n"


def _token_objects(text: str, game: BimatrixGame) -> dict[str, set[int]]:
    """Each token of the entry lines -> the ids of the entries read from it."""
    body = [l.split() for l in text.splitlines()[2:] if l.strip()
            and not l.strip().startswith("#")]
    out: dict[str, set[int]] = {}
    for idx, (r_tok, c_tok) in enumerate(body):
        i, j = divmod(idx, game.cols)
        out.setdefault(r_tok, set()).add(id(game.R[i][j]))
        out.setdefault(c_tok, set()).add(id(game.C[i][j]))
    return out


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

    def test_each_entry_pair_formatted_once(self, sat_builds, params, monkeypatch):
        real = formats.format_rational
        gs = rescale_game(sat_builds["two-clause"].gadget)
        gdp = extend_gdoubleprime(extend_gprime(gs, params.eps_star))
        # Read back, G'' shares one 0 whose C partner is 0 or 5/8 + eps*,
        # so the key needs both ids.
        read_back = [formats.parse_bgm(formats.write_bgm(g)) for g in (gs, gdp)]
        for game in (gs, *read_back):
            pairs = {(id(r), id(c)) for r_row, c_row in zip(game.R, game.C)
                     for r, c in zip(r_row, c_row)}
            calls = []
            monkeypatch.setattr(formats, "format_rational",
                                lambda v: calls.append(v) or real(v))
            text = formats.write_bgm(game)
            monkeypatch.undo()
            assert len(calls) <= 2 * len(pairs) < game.rows * game.cols
            assert text == write_bgm_per_cell(game)

    def test_block_line_needs_the_block_token(self):
        # "#blocks" is a comment; "#block" with any spacing is a block line.
        text = "bgm 1\n1 2\n0 1\n1 0\n#blocks below\n#block\tall 0 1 0 2\n"
        for read in (formats.parse_bgm, parse_bgm_per_line):
            game = read(text)
            assert game.blocks == (("all", 0, 1, 0, 2),)
            assert game == BimatrixGame(R=((0, 1),), C=((1, 0),),
                                        blocks=game.blocks)

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
            parse_rational(tok)
        with pytest.raises(FormatError):
            formats.parse_bgm(f"bgm 1\n1 1\n{tok} 0\n")

    def test_exponent_at_limit_accepted(self):
        assert parse_rational("1e-4300") == F(1, 10**4300)

    def test_long_denominator_read_back(self):
        # 10**4300 has one digit more than int() reads from a string.
        text = formats.format_rational(-3 * TINY)
        assert text == f"-3/1{'0' * 4300}"
        assert parse_rational(text) == -3 * TINY
        with pytest.raises(FormatError, match="bad rational"):
            parse_rational(f"1/2{'0' * 4300}")

    def test_wrong_entry_count(self):
        with pytest.raises(FormatError):
            formats.parse_bgm("bgm 1\n2 2\n0 0\n")

    @pytest.mark.parametrize("dims", ["1000000000 1", "1000000000 2", "1 1000000000",
                                      "1000000000 1000000000"])
    def test_huge_declared_dimensions_fail_fast(self, dims):
        # Coding stops at the first short row, so the declared size costs
        # neither a row per declared row nor a cell per declared cell.
        rows, cols = map(int, dims.split())
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as raised:
                formats.parse_bgm(f"bgm 1\n{dims}\n0 0\n1 1\n1/2 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"expected {rows * cols} entry lines, found 3"
        assert peak < 100_000

    def test_deterministic(self):
        rng = random.Random(2)
        game = random_game(rng, 2, 2)
        assert formats.write_bgm(game) == formats.write_bgm(game)

    @settings(max_examples=100, deadline=None)
    @given(game=_bgm_games())
    def test_round_trip_signed_decimal_and_long(self, game):
        assert formats.parse_bgm(formats.write_bgm(game)) == game

    def test_equal_tokens_share_one_fraction(self):
        game = formats.parse_bgm("bgm 1\n2 2\n1/2 0\n0 1/2\n1/2 1/2\n0 -3\n")
        entries = [e for m in (game.R, game.C) for row in m for e in row]
        halves = [e for e in entries if e == F(1, 2)]
        zeros = [e for e in entries if e == 0]
        assert len(halves) == 4 and len({id(e) for e in halves}) == 1
        assert len(zeros) == 3 and len({id(e) for e in zeros}) == 1

    @settings(max_examples=300, deadline=None)
    @given(text=_bgm_texts())
    def test_same_game_or_error_as_the_per_line_reader(self, text):
        try:
            expected = parse_bgm_per_line(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as raised:
                formats.parse_bgm(text)
            assert str(raised.value) == str(exc)
            return
        game = formats.parse_bgm(text)
        assert game == expected and game.blocks == expected.blocks
        for read in (game, expected):
            assert all(len(ids) == 1 for ids in _token_objects(text, read).values())

    @settings(max_examples=100, deadline=None)
    @given(game=_bgm_games())
    def test_writes_what_the_per_cell_writer_writes(self, game):
        assert formats.write_bgm(game) == write_bgm_per_cell(game)

    @settings(max_examples=200, deadline=None)
    @given(text=_bgm_texts(), chunk=st.integers(1, 16),
           newline=st.sampled_from(["\n", "\r\n", "\r", "\x0c"]))
    def test_chunks_split_where_splitlines_does(self, text, chunk, newline):
        # Lines read chunk by chunk are the lines of the whole text, for
        # any chunk size and any line boundary.
        text = text.replace("\n", newline)
        with unittest.mock.patch.object(formats, "_CHUNK", chunk):
            lines = list(formats._data_lines(text))
            assert lines == [l for l in map(str.strip, text.splitlines()) if l]
            try:
                expected = parse_bgm_per_line(text)
            except FormatError as exc:
                with pytest.raises(FormatError) as raised:
                    formats.parse_bgm(text)
                assert str(raised.value) == str(exc)
                return
            assert formats.parse_bgm(text) == expected

    def test_entry_lines_are_not_all_held(self):
        # 100,000 entry lines hold about 6 MB as a list of lines; the
        # streamed reader holds one chunk's lines and the code rows.
        rows, cols = 200, 500
        text = "bgm 1\n{} {}\n{}".format(rows, cols, "1/2 1/3\n0 0\n" * (rows * cols // 2))
        tracemalloc.start()
        try:
            game = formats.parse_bgm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert game.rows == rows and len(game.palette) == 2
        assert peak < 1_500_000

    @pytest.mark.parametrize("tok", ["abc", "1/0", "1e5000", "1" * 4301, "0.5.5"])
    def test_bad_token_message_unchanged(self, tok):
        # The token comes after valid entries and occurs twice; the error is
        # the one parsing the token alone gives.
        with pytest.raises(FormatError) as alone:
            parse_rational(tok)
        text = f"bgm 1\n2 2\n1/2 0\n0 {tok}\n1/2 {tok}\n0 0\n"
        with pytest.raises(FormatError) as parsed:
            formats.parse_bgm(text)
        assert str(parsed.value) == str(alone.value)


@st.composite
def _palette_games(draw):
    """Games with exactly P distinct (R, C) pairs, P drawn so that the codes
    take 1, 2 or 3 digits, laid out in a seeded order over 1-3 rows."""
    size = draw(st.sampled_from([1, 93, 94, 93**2 + 1]))
    rows = draw(st.integers(1, 3))
    cols = -(-size // rows) + draw(st.integers(0, 2))
    order = list(range(size)) + [draw(st.integers(0, size - 1))
                                 for _ in range(rows * cols - size)]
    random.Random(draw(st.integers(0, 2**32))).shuffle(order)
    pairs = [(F(i // 7, 3), F(-(i % 7))) for i in order]
    cells = [pairs[r * cols:(r + 1) * cols] for r in range(rows)]
    return BimatrixGame(R=[[r for r, _ in row] for row in cells],
                        C=[[c for _, c in row] for row in cells]), size


# Spellings of one value, so that a `bgm 1` text reads equal entries from
# different tokens.
_SPELLINGS = {F(1, 2): ["1/2", "0.5", "2/4", "5e-1"], F(0): ["0", "0/3", "-0", "0.0"],
              F(-3, 4): ["-3/4", "-0.75", "-75e-2"], F(2): ["2", "2.0", "4/2"]}


class TestBgmVersion2:
    """`bgm 2`: a palette of printed pairs and one row of codes per game row."""

    @settings(max_examples=40, deadline=None)
    @given(drawn=_palette_games())
    def test_round_trip_at_each_code_width(self, drawn):
        game, size = drawn
        text = formats.write_bgm(game)
        lines = text.splitlines()
        width = 1 if size <= 93 else 2 if size <= 93**2 else 3
        assert lines[2] == str(size) and len(lines) == 3 + size + game.rows
        assert {len(row) for row in lines[3 + size:]} == {game.cols * width}
        assert text == write_bgm_per_cell(game)
        assert formats.parse_bgm(text) == game

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equal_games_write_equal_bytes(self, data):
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        cell = st.sampled_from(sorted(_SPELLINGS))
        r = [[data.draw(cell) for _ in range(cols)] for _ in range(rows)]
        c = [[data.draw(cell) for _ in range(cols)] for _ in range(rows)]
        # One new Fraction per cell, so the constructor codes every cell apart.
        built = BimatrixGame(R=[[F(v.numerator, v.denominator) for v in row] for row in r],
                             C=[[F(v.numerator, v.denominator) for v in row] for row in c])
        spelled = "".join(
            f"{data.draw(st.sampled_from(_SPELLINGS[a]))} "
            f"{data.draw(st.sampled_from(_SPELLINGS[b]))}\n"
            for r_row, c_row in zip(r, c) for a, b in zip(r_row, c_row))
        parsed = formats.parse_bgm(f"bgm 1\n{rows} {cols}\n{spelled}")
        assert built == parsed
        assert formats.write_bgm(built) == formats.write_bgm(parsed)
        assert formats.write_bgm(parsed) == write_bgm_per_cell(parsed)

    def test_version_1_and_2_read_the_same_game(self):
        one = "bgm 1\n1 3\n1/2 0\n0 0\n1/2 0\n#block all 0 1 0 3\n"
        two = formats.write_bgm(formats.parse_bgm(one))
        assert two == "bgm 2\n1 3\n2\n0 0\n1/2 0\n\"!\"\n#block all 0 1 0 3\n"
        assert formats.parse_bgm(two) == formats.parse_bgm(one)

    @pytest.mark.parametrize("text, message", [
        ("bgm 2\n1 1\nx\n0 0\n!\n", "bad palette size line"),
        ("bgm 2\n1 1\n1 1\n0 0\n!\n", "bad palette size line"),
        ("bgm 2\n1 1\n0\n!\n",
         "palette size must be from 1 to 1, got 0"),
        ("bgm 2\n1 1\n2\n0 0\n1 1\n!\n",
         "palette size must be from 1 to 1, got 2"),
        ("bgm 2\n2 2\n3\n0 0\n", "expected 3 palette lines, found 1"),
        ("bgm 2\n1 1\n1\n0\n!\n", "entry line '0' needs two rationals"),
        ("bgm 2\n1 1\n1\n0 1/0\n!\n", "bad rational '1/0'"),
        ("bgm 2\n1 2\n1\n0 0\n!\n",
         "code row 1 has 1 characters, expected 2"),
        ("bgm 2\n2 1\n1\n0 0\n!\n!!\n",
         "code row 2 has 2 characters, expected 1"),
        ("bgm 2\n1 2\n1\n0 0\n!\"\n",
         "code row 1 holds a code outside the palette"),
        ("bgm 2\n1 3\n1\n0 0\n! !\n",
         "code row 1 holds a code outside the palette"),
        ("bgm 2\n1 2\n1\n0 0\n!#\n",
         "code row 1 holds a code outside the palette"),
        ("bgm 2\n1 2\n1\n0 0\n!\u00e9\n",
         "code row 1 holds a code outside the palette"),
        ("bgm 2\n2 1\n1\n0 0\n!\n", "expected 2 code rows, found 1"),
        ("bgm 2\n1 1\n1\n0 0\n!\n!\n", "expected 1 code rows, found 2"),
        ("bgm 2\n1 2\n2\n0 0\n1 1\n!!\n",
         "palette line 2 is used by no cell"),
        ("bgm 2\n1 1\n1\n0 0\n!\n#block all 0 1 0 2\n",
         "block 'all' out of range"),
        ("bgm 3\n1 1\n1\n0 0\n!\n",
         "missing 'bgm 1' or 'bgm 2' header"),
    ])
    def test_malformed_text(self, text, message):
        with pytest.raises(FormatError) as raised:
            formats.parse_bgm(text)
        assert type(raised.value) is FormatError and str(raised.value) == message

    def test_two_digit_code_outside_the_palette(self):
        game = formats.parse_bgm(formats.write_bgm(BimatrixGame(
            R=[list(range(94))], C=[[0] * 94])))
        text = formats.write_bgm(game)
        head, row = text.rsplit("\n", 2)[:2]
        assert len(row) == 2 * 94 and '"!' in set(row[i:i + 2] for i in range(0, 188, 2))
        # '""' is 93 * 1 + 1 = 94, one past the last code, '"!' = 93.
        with pytest.raises(FormatError) as raised:
            formats.parse_bgm(f'{head}\n""{row[2:]}\n')
        assert str(raised.value) == "code row 1 holds a code outside the palette"

    def test_dimension_past_maxsize_allocates_nothing(self):
        # The version-2 twin of the CLI's `bgm 1` case: rows*cols*w is
        # compared with the text's length before anything is split.
        text = f"bgm 2\n1 {sys.maxsize + 1}\n1\n0 0\n!\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as raised:
                formats.parse_bgm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == (
            f"1x{sys.maxsize + 1} codes do not fit in {len(text)} characters")
        assert peak < 100_000


class TestProf:
    def test_round_trip(self):
        rng = random.Random(3)
        p = random_profile(rng, 4, 3)
        assert formats.parse_prof(formats.write_prof(p)) == p

    def test_rejects_non_distribution(self):
        text = "prof 1\n2 1\n1/2\n1/3\n1\n"
        with pytest.raises(FormatError):
            formats.parse_prof(text)

    def test_round_trip_long_entries(self):
        p = MixedProfile(x=(1 - TINY, TINY), y=(F(1),))
        assert formats.parse_prof(formats.write_prof(p)) == p

    def test_equal_tokens_share_one_fraction(self):
        text = "prof 1\n3 2\n1/4\n1/2\n1/4\n1/2\n1/2\n"
        p = formats.parse_prof(text)
        assert p.x[0] is p.x[2]
        assert p.x[1] is p.y[0] is p.y[1]
        assert formats.write_prof(p) == text

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

    def test_round_trip_long_distribution_entry(self):
        t = TwoProverGame(
            x_answers=(1,), y_answers=(1,), table=((((1,),),),), dist=((TINY,),)
        )
        assert formats.parse_fgm(formats.write_fgm(t)) == t

    def test_bad_v_entry(self):
        with pytest.raises(FormatError):
            formats.parse_fgm("fgm 1\n1 1\n1\n1\n2\n")

    def test_v_entries_are_read_once(self):
        # 200,000 V entries hold about 1.6 MB as a list of lines, and the
        # reader held three such lists; it now holds one and the table.
        text = "fgm 1\n1 1\n400\n500\n" + "1\n0\n" * 100_000
        tracemalloc.start()
        try:
            t = formats.parse_fgm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.table[0][0][399] == (1, 0) * 250
        assert peak < 4_500_000

    def test_negative_answer_count_reads_no_v_entry(self):
        # (-1) * 1 = -1 V entries: the lines after the header are read as
        # the trailing lines, and the answer count is refused.
        with pytest.raises(FormatError, match="unexpected trailing line '1'"):
            formats.parse_fgm("fgm 1\n1 1\n-1\n1\n1\n1\n")
        with pytest.raises(FormatError, match="every question needs at least one"):
            formats.parse_fgm("fgm 1\n1 1\n-1\n1\n")


@st.composite
def _free_games(draw):
    """Two-prover games up to 3x3 questions and 3 answers, some with a
    distribution."""
    x_answers = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    y_answers = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    bit = st.integers(0, 1)
    table = tuple(tuple(tuple(tuple(draw(bit) for _ in range(b)) for _ in range(a))
                        for b in y_answers) for a in x_answers)
    dist = None
    if draw(st.booleans()):
        weights = [[draw(st.integers(0, 3)) for _ in y_answers] for _ in x_answers]
        total = sum(map(sum, weights)) or 1
        dist = tuple(tuple(F(w, total) for w in row) for row in weights)
    return TwoProverGame(x_answers=x_answers, y_answers=y_answers, table=table,
                         dist=dist)


class TestFgmVersion2:
    """`fgm 2`: one line of 0/1 digits per (x, y, a)."""

    @settings(max_examples=100, deadline=None)
    @given(t=_free_games())
    def test_round_trip(self, t):
        text = formats.write_fgm(t)
        lines = text.splitlines()
        v_lines = lines[4:4 + sum(t.x_answers) * t.ny]
        assert lines[0] == "fgm 2" and v_lines == [
            "".join(map(str, per_b)) for per_y in t.table for per_a in per_y
            for per_b in per_a]
        assert formats.parse_fgm(text) == t

    def test_version_1_and_2_read_the_same_game(self):
        one = "fgm 1\n1 2\n2\n1 2\n1\n0\n0\n1\n1\n0\n"
        two = formats.write_fgm(formats.parse_fgm(one))
        assert two == "fgm 2\n1 2\n2\n1 2\n1\n0\n01\n10\n"
        assert formats.parse_fgm(two) == formats.parse_fgm(one)

    @pytest.mark.parametrize("text, message", [
        ("fgm 2\n1 1\n2\n2\n01\n", "expected 2 V lines"),
        ("fgm 2\n1 2\n1\n1 2\n1\n1\n",
         "V line 2 holds 1 entries, expected 2"),
        ("fgm 2\n1 1\n1\n2\n0 1\n",
         "V line 1 holds 3 entries, expected 2"),
        ("fgm 2\n1 1\n1\n2\n02\n", "V lines must hold only 0 and 1"),
        ("fgm 2\n1 1\n1\n1\n1\nD\n1/2\n1\n",
         "expected 1 distribution entries"),
        ("fgm 2\n1 1\n0\n1\n", "every question needs at least one answer"),
        ("fgm 2\n1 1\n1\n1\n1\n1\n", "unexpected trailing line '1'"),
        ("fgm 2\n1 1\n1\n", "bad header lines"),
        ("fgm 3\n1 1\n1\n1\n1\n", "missing 'fgm 1' or 'fgm 2' header"),
    ])
    def test_malformed_text(self, text, message):
        with pytest.raises(FormatError) as raised:
            formats.parse_fgm(text)
        assert type(raised.value) is FormatError and str(raised.value) == message


class TestStrat:
    def test_round_trip(self):
        s1 = ProverStrategy(answers=(0, 3, 1))
        s2 = ProverStrategy(answers=(2, 0))
        assert formats.parse_strat(formats.write_strat(s1, s2)) == (s1, s2)

    def test_missing_line(self):
        with pytest.raises(FormatError):
            formats.parse_strat("strat 1\n0 1\n")
