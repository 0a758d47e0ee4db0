"""Text formats: .bgm (bimatrix game), .fgm (free/two-prover game),
.prof (mixed profile), and .strat (deterministic prover strategies).

All numbers are exact rationals, written as `p/q` (or a plain integer);
decimal literals on input are parsed exactly.  Writers are deterministic:
identical values produce identical bytes.

The writers write `bgm 2` and `fgm 2`; the readers also read `bgm 1` and
`fgm 1`, one cell or V entry a line, for files written by hand.

- `bgm 2`: the `rows cols` line, the palette size P, P palette lines `R C`
  (the distinct printed pairs, sorted as strings), then one line per game
  row of one code per cell.  A code is w characters, the base-93 digits of
  its palette line's index, most significant first, over the printable
  ASCII characters but `#` (so a code row never reads as a comment); w is
  the least with 93**w >= P.  Optional `#block name r0 r1 c0 c1` lines
  follow, as in `bgm 1`.  So the game R = [[1/2, 1], [0, 1/2]],
  C = [[1/2, -1], [0, 1/2]], whose codes 0, 1, 2 are `!`, `"`, `$`:

      bgm 2
      2 2
      3
      0 0
      1 -1
      1/2 1/2
      $"
      !$

- `fgm 2`: the question counts, each side's answer counts, one line of
  0/1 digits per (x, y, a), x outer, then y, then a, holding V(x, y, a, b)
  over b, and the optional `D` section of `fgm 1`.  So a free game with
  one question a side and two answers each, won when the answers agree:

      fgm 2
      1 1
      2
      2
      10
      01
"""

from __future__ import annotations

import itertools
import os
import re
from fractions import Fraction
from typing import Callable, Iterator

from .errors import FormatError, ResourceError, ValidationError, count_text
from .games import (
    DIGIT_BOUND, PALETTE_LIMIT, BimatrixGame, MixedProfile, add_pair, parse_rational
)
from .provers import ProverStrategy, TwoProverGame


def write_file(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` does (same bytes,
    symlinks followed, links and mode kept, new files ``0o666 & ~umask``),
    but cut the file after the text instead of truncating it to zero first:
    ext4 flushes a file truncated to zero to disk when it is closed.  Every
    artifact the pipeline and the CLI save goes through here.

    A write that raises (a full disk, say) leaves an empty file, never the
    new text's start over the old file's tail.  A process killed mid-write,
    or a power loss before the kernel writes the file back, can still leave
    such a splice; nothing here syncs."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        # closefd=False: the wrapper flushes what it holds before the cut.
        with open(fd, "w", closefd=False) as f:
            f.write(text)
            f.truncate()
    except BaseException:
        os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def format_rational(value: Fraction) -> str:
    """``str(value)``, also when the numerator or denominator has more
    digits than CPython prints (`1e-4300` has a 4301-digit denominator).
    Every writer prints through it."""
    try:
        return str(value)
    except ValueError:  # an integer past CPython's digit limit
        num = _decimal(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_decimal(value.denominator)}"


def _decimal(n: int) -> str:
    """The decimal digits of n, split in halves until each prints."""
    if n < 0:
        return "-" + _decimal(-n)
    if n < DIGIT_BOUND:
        return str(n)
    # 3/20 < log10(2)/2, so 10**half is below sqrt(n) and both parts shrink.
    half = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


_CHUNK = 1 << 16  # characters of text split into lines at once


def _data_lines(text: str) -> Iterator[str]:
    """The stripped, nonempty lines of ``text``, read one chunk at a time.
    Each chunk ends just after a newline, so splitting the chunks splits the
    text where `str.splitlines` does."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield from filter(None, map(str.strip, text[start:end].splitlines()))
        start = end


def _body(text: str, *headers: str) -> tuple[str, Iterator[str]]:
    """The first data line of ``text``, which must be one of ``headers``, and
    the data lines after it."""
    lines = _data_lines(text)
    header = next(lines, None)
    if header not in headers:
        raise FormatError(f"missing {' or '.join(map(repr, headers))} header")
    return header, lines


def _dimensions(line: str) -> tuple[int, int]:
    """The positive (rows, cols) of a `.bgm` or `.prof` dimension line."""
    try:
        rows, cols = (int(t) for t in line.split())
    except ValueError as exc:
        raise FormatError("bad dimension line") from exc
    if rows < 1 or cols < 1:
        raise FormatError(f"dimensions must be positive, got {rows} {cols}")
    return rows, cols


# The digits of a `bgm 2` cell code, most significant first: the printable
# ASCII characters but "#", so that no code row reads as a comment.
_DIGITS = "".join(c for c in map(chr, range(33, 127)) if c != "#")


def _code_width(size: int) -> int:
    """The digits of each of ``size`` codes: the least w with 93**w >= size,
    at most 4 for a palette of PALETTE_LIMIT pairs."""
    return next(w for w in itertools.count(1) if len(_DIGITS) ** w >= size)


def _code_texts(size: int) -> list[str]:
    """The texts of codes 0 .. size-1, in order."""
    return list(map("".join, itertools.islice(
        itertools.product(_DIGITS, repeat=_code_width(size)), size)))


def parse_bgm(text: str) -> BimatrixGame:
    """Parse a `.bgm` game: `bgm 2` as `write_bgm` writes it, or `bgm 1`, one
    entry line per cell, as written by hand.  The version decides only how
    the cells are read.  Each distinct token is parsed once, with every
    check of `parse_rational`, so equal entries share one Fraction.  In
    `bgm 1` each distinct entry line takes one palette code, and an
    entry-line count that differs from the dimensions raises before any
    bad entry line; otherwise the first bad line in file order raises."""
    header, lines = _body(text, "bgm 1", "bgm 2")
    block_lines: list[str] = []
    # The entry lines; each line whose first token is "#block" is set aside
    # as it passes, and every other "#" line is a comment.
    entries = (line for line in lines if line[0] != "#"
               or line.split()[0] == "#block" and block_lines.append(line))
    rows, cols = _dimensions(next(entries, ""))
    values: dict[str, Fraction] = {}
    palette: list[tuple[Fraction, Fraction]] = []

    def coded_pair(line: str) -> str:
        """A new palette code for the entry pair on ``line``."""
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"entry line {line!r} needs two rationals")
        for tok in toks:
            if tok not in values:
                values[tok] = parse_rational(tok)
        return add_pair(palette, (values[toks[0]], values[toks[1]]))

    if header == "bgm 2":
        coded = _bgm2_rows(text, entries, rows, cols, coded_pair)
    else:
        codes: dict[str, str] = {}  # each distinct entry line's code
        seen, coded, error = codes.get, [], None
        # An entry line holds three characters or more, so a game with more
        # cells than the text has characters has too few lines; skipping its
        # rows also keeps islice's stop, cols, below sys.maxsize.
        try:
            for _ in range(rows) if rows * cols <= len(text) else ():
                coded.append("".join([seen(line) or codes.setdefault(line, coded_pair(line))
                                      for line in itertools.islice(entries, cols)]))
                if len(coded[-1]) < cols:
                    break  # the entry lines ran out, so the count is wrong
        except (FormatError, ResourceError) as exc:
            coded, error = [], exc
        if not coded or len(coded[-1]) < cols or next(entries, None) is not None:
            # Count the entry lines again, to name a wrong count or to raise
            # the error after the count is known to be right.
            found = sum(line[0] != "#" for line in _data_lines(text)) - 2
            if found != rows * cols:
                raise FormatError(f"expected {count_text(rows * cols)} entry lines, "
                                  f"found {found}")
            raise error
    blocks = None
    if block_lines:
        parsed = []
        for line in block_lines:
            toks = line.split()
            if len(toks) != 6:
                raise FormatError(f"bad block line {line!r}")
            try:
                parsed.append((toks[1], *(int(t) for t in toks[2:])))
            except ValueError as exc:
                raise FormatError(f"bad block bounds in {line!r}") from exc
        blocks = tuple(parsed)
    try:
        return BimatrixGame.coded(tuple(palette), tuple(coded), blocks)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def _bgm2_rows(text: str, entries: Iterator[str], rows: int, cols: int,
               coded_pair: Callable[[str], str]) -> list[str]:
    """The code rows of a `bgm 2` text, which ``entries`` holds from its
    palette size line, P: P palette lines, each coded by ``coded_pair``, and
    one row of w-digit codes per game row, checked in file order.  A
    palette line that no cell uses is refused last."""
    try:
        size = int(next(entries, ""))
    except ValueError as exc:
        raise FormatError("bad palette size line") from exc
    if not 0 < size <= min(rows * cols, PALETTE_LIMIT):
        raise FormatError("palette size must be from 1 to "
                          f"{count_text(min(rows * cols, PALETTE_LIMIT))}, got {size}")
    width = _code_width(size)
    if rows * cols * width > len(text):  # before islice sees rows or cols
        raise FormatError(f"{count_text(rows)}x{count_text(cols)} codes do not "
                          f"fit in {len(text)} characters")
    codes = [coded_pair(line) for line in itertools.islice(entries, size)]
    if len(codes) < size:
        raise FormatError(f"expected {size} palette lines, found {len(codes)}")
    texts = _code_texts(size)
    if width == 1:  # one C-level translate; every other ASCII character to `size`
        decode = dict.fromkeys(range(128), size)
        decode.update(zip(map(ord, texts), range(size)))

        def read(line: str) -> str | None:
            row = line.translate(decode)
            return row if line.isascii() and chr(size) not in row else None
    else:
        code_of = dict(zip(texts, map(chr, range(size))))
        split = re.compile(f".{{{width}}}").findall

        def read(line: str) -> str | None:
            try:
                return "".join(map(code_of.__getitem__, split(line)))
            except KeyError:
                return None
    coded = []
    for line in itertools.islice(entries, rows):
        if len(line) != cols * width:
            raise FormatError(f"code row {len(coded) + 1} has {len(line)} "
                              f"characters, expected {cols * width}")
        if (row := read(line)) is None:
            raise FormatError(f"code row {len(coded) + 1} holds a code outside "
                              f"the palette")
        coded.append(row)
    if (found := len(coded) + sum(1 for _ in entries)) != rows:
        raise FormatError(f"expected {rows} code rows, found {found}")
    # One-digit codes are looked up in C, row by row, until each is found.
    used = (set().union(*coded) if width > 1 else
            {c for c in map(chr, range(size)) if any(c in row for row in coded)})
    if len(used) < size:
        unused = min(set(map(chr, range(size))) - used)
        raise FormatError(f"palette line {ord(unused) + 1} is used by no cell")
    return coded


def write_bgm(game: BimatrixGame) -> str:
    """Write a `bgm 2` game.  Each palette pair is printed once; pairs that
    print alike share one code, and the codes follow the sorted printed
    pairs, so equal games write equal bytes.  Each code row is one
    `str.translate`."""
    printed = [f"{format_rational(r)} {format_rational(c)}" for r, c in game.palette]
    lines = sorted(set(printed))
    text_of = dict(zip(lines, _code_texts(len(lines))))
    table = dict(enumerate(map(text_of.__getitem__, printed)))
    out = ["bgm 2", f"{game.rows} {game.cols}", str(len(lines)), *lines]
    out += [row.translate(table) for row in game.codes]
    out += [f"#block {name} {r0} {r1} {c0} {c1}"
            for name, r0, r1, c0, c1 in game.blocks or ()]
    return "\n".join(out) + "\n"


def parse_prof(text: str, normalize: bool = False) -> MixedProfile:
    """Parse a `.prof` profile.  Each distinct entry token is parsed once per
    call, and under ``normalize`` each distinct entry is divided once, so
    equal entries share one Fraction, which the profile clears once."""
    _, lines = _body(text, "prof 1")
    rows, cols = _dimensions(next(lines, ""))
    tokens = list(lines)
    values = {tok: parse_rational(tok) for tok in dict.fromkeys(tokens)}
    entries = [values[tok] for tok in tokens]
    if len(entries) != rows + cols:
        raise FormatError(
            f"expected {count_text(rows + cols)} entries, found {len(entries)}"
        )
    x, y = entries[:rows], entries[rows:]
    if normalize:
        sx, sy = sum(x), sum(y)
        if sx <= 0 or sy <= 0:
            raise FormatError("cannot normalize a zero vector")
        x, y = _divided(x, sx), _divided(y, sy)
    try:
        return MixedProfile(x=tuple(x), y=tuple(y))
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def _divided(v: list[Fraction], total: Fraction) -> list[Fraction]:
    """v / total, dividing each distinct object once, so equal parsed
    entries still share one weight object."""
    quotients = {i: e / total for i, e in dict(zip(map(id, v), v)).items()}
    return [quotients[id(e)] for e in v]


def write_prof(p: MixedProfile) -> str:
    out = ["prof 1", f"{p.rows} {p.cols}"]
    out.extend(map(format_rational, p.x + p.y))
    return "\n".join(out) + "\n"


# Swaps the bytes 0 and 1 with the digits "0" and "1": V entries to text and back.
_BITS = bytes.maketrans(b"\0\1" b"01", b"01" b"\0\1")


def parse_fgm(text: str) -> TwoProverGame:
    """Parse a `.fgm` game: `fgm 2`, one line of 0/1 digits per (x, y, a),
    as the writer writes it, or `fgm 1`, one V entry a line, as written by
    hand.  The version decides only how the V section is read."""
    header, lines = _body(text, "fgm 1", "fgm 2")
    try:
        nx, ny = (int(t) for t in next(lines).split())
        x_answers = tuple(int(t) for t in next(lines).split())
        y_answers = tuple(int(t) for t in next(lines).split())
    except (StopIteration, ValueError) as exc:
        raise FormatError("bad header lines") from exc
    if len(x_answers) != nx or len(y_answers) != ny:
        raise FormatError("answer-size lines do not match question counts")
    if header == "fgm 1":  # the sum of a*b over (x, y)
        expected, unit = sum(x_answers) * sum(y_answers), "entries"
    else:  # one line per (x, y, a)
        expected, unit = sum(x_answers) * ny, "lines"
    # Each takes a line: a count past len(text) is short, maybe past islice's limit.
    if expected > len(text) or len(
            body := list(itertools.islice(lines, max(expected, 0)))) < expected:
        raise FormatError(f"expected {count_text(expected)} V {unit}")
    if header == "fgm 1":
        bad = next(itertools.filterfalse({"0", "1"}.__contains__, body), None)
        if bad is not None:
            raise FormatError(f"V entry must be 0 or 1, got {bad!r}")
    dist = None
    trailer = next(lines, None)
    if trailer is not None:
        if trailer != "D":
            raise FormatError(f"unexpected trailing line {trailer!r}")
        d_entries = list(map(parse_rational, lines))
        if len(d_entries) != nx * ny:
            raise FormatError(f"expected {nx * ny} distribution entries")
        d_iter = iter(d_entries)
        dist = tuple([tuple(itertools.islice(d_iter, ny)) for _ in range(nx)])
    # TwoProverGame's check, made before the nx*ny table is built.
    if x_answers and y_answers and min(x_answers + y_answers) < 1:
        raise FormatError("every question needs at least one answer")
    if header == "fgm 2":
        lengths = (b for a in x_answers for b in y_answers for _ in range(a))
        for k, (line, b) in enumerate(zip(body, lengths)):
            if len(line) != b:
                raise FormatError(f"V line {k + 1} holds {len(line)} entries, expected {b}")
    cells = "".join(body)
    if cells.strip("01"):  # an fgm 1 entry is checked above
        raise FormatError("V lines must hold only 0 and 1")
    values = iter(cells.encode().translate(_BITS))
    table = tuple([tuple([tuple([tuple(itertools.islice(values, b)) for _ in range(a)])
                          for b in y_answers]) for a in x_answers])
    try:
        return TwoProverGame(
            x_answers=x_answers,
            y_answers=y_answers,
            table=table,
            dist=dist,
        )
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def write_fgm(t: TwoProverGame) -> str:
    """Write an `fgm 2` game: one line of 0/1 digits per (x, y, a), x
    outer, then y, each one C-level translate."""
    out = [
        "fgm 2",
        f"{t.nx} {t.ny}",
        " ".join(str(a) for a in t.x_answers),
        " ".join(str(b) for b in t.y_answers),
    ]
    out += [bytes(per_b).translate(_BITS).decode()
            for per_a in itertools.chain.from_iterable(t.table) for per_b in per_a]
    if t.dist is not None:
        out.append("D")
        out.extend(map(format_rational, itertools.chain.from_iterable(t.dist)))
    return "\n".join(out) + "\n"


def parse_strat(text: str) -> tuple[ProverStrategy, ProverStrategy]:
    try:
        first, second = _body(text, "strat 1")[1]
    except ValueError as exc:
        raise FormatError("expected two answer lines") from exc
    try:
        s1, s2 = (tuple(int(t) for t in line.split()) for line in (first, second))
    except ValueError as exc:
        raise FormatError("answers must be integers") from exc
    return ProverStrategy(answers=s1), ProverStrategy(answers=s2)


def write_strat(s1: ProverStrategy, s2: ProverStrategy) -> str:
    return (
        "strat 1\n"
        + " ".join(str(a) for a in s1.answers)
        + "\n"
        + " ".join(str(b) for b in s2.answers)
        + "\n"
    )
