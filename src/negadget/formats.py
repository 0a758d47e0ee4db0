"""Text formats: .bgm (bimatrix game), .fgm (free/two-prover game),
.prof (mixed profile), and .strat (deterministic prover strategies).

All numbers are exact rationals, written as `p/q` (or a plain integer);
decimal literals on input are parsed exactly.  Writers are deterministic:
identical values produce identical bytes.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from typing import Iterator

from .errors import FormatError, ResourceError, ValidationError, count_text
from .games import (
    DIGIT_BOUND, BimatrixGame, MixedProfile, add_pair, parse_rational
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


def _body(text: str, header: str) -> Iterator[str]:
    """The data lines of ``text`` after its first, which must be ``header``."""
    lines = _data_lines(text)
    if next(lines, None) != header:
        raise FormatError(f"missing {header!r} header")
    return lines


def _dimensions(line: str) -> tuple[int, int]:
    """The positive (rows, cols) of a `.bgm` or `.prof` dimension line."""
    try:
        rows, cols = (int(t) for t in line.split())
    except ValueError as exc:
        raise FormatError("bad dimension line") from exc
    if rows < 1 or cols < 1:
        raise FormatError(f"dimensions must be positive, got {rows} {cols}")
    return rows, cols


def parse_bgm(text: str) -> BimatrixGame:
    """Parse a `.bgm` game, reading the entry lines as a stream, row by
    row.  Each distinct entry line takes one palette code, and each distinct
    token in it, with every check of `parse_rational`, one Fraction: equal
    entries share one object.  An entry-line count that differs from the
    dimensions raises before any bad entry line; otherwise the first bad
    entry line in file order raises."""
    lines = _body(text, "bgm 1")
    block_lines: list[str] = []
    # The entry lines; each line whose first token is "#block" is set aside
    # as it passes, and every other "#" line is a comment.
    entries = (line for line in lines if line[0] != "#"
               or line.split()[0] == "#block" and block_lines.append(line))
    rows, cols = _dimensions(next(entries, ""))
    values: dict[str, Fraction] = {}
    codes: dict[str, str] = {}
    palette: list[tuple[Fraction, Fraction]] = []

    def first_seen(line: str) -> str:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"entry line {line!r} needs two rationals")
        for tok in toks:
            if tok not in values:
                values[tok] = parse_rational(tok)
        codes[line] = add_pair(palette, (values[toks[0]], values[toks[1]]))
        return codes[line]

    seen, coded, error = codes.get, [], None
    # An entry line holds three characters or more, so a game with more cells
    # than the text has characters has too few lines; skipping its rows also
    # keeps islice's stop, cols, below sys.maxsize.
    try:
        for _ in range(rows) if rows * cols <= len(text) else ():
            coded.append("".join([seen(line) or first_seen(line)
                                  for line in itertools.islice(entries, cols)]))
            if len(coded[-1]) < cols:
                break  # the entry lines ran out, so the count is wrong
    except (FormatError, ResourceError) as exc:
        coded, error = [], exc
    if not coded or len(coded[-1]) < cols or next(entries, None) is not None:
        # Count the entry lines again, to name a wrong count or to raise the
        # error after the count is known to be right.
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


def write_bgm(game: BimatrixGame) -> str:
    """Write a `.bgm` game.  Each palette pair is formatted once into its
    entry line, keyed by its code, and each code row joins its lines."""
    lines = {chr(i): f"{format_rational(r)} {format_rational(c)}\n"
             for i, (r, c) in enumerate(game.palette)}
    out = [f"bgm 1\n{game.rows} {game.cols}\n"]
    out += ["".join(map(lines.__getitem__, row)) for row in game.codes]
    out += [f"#block {name} {r0} {r1} {c0} {c1}\n"
            for name, r0, r1, c0, c1 in game.blocks or ()]
    return "".join(out)


def parse_prof(text: str, normalize: bool = False) -> MixedProfile:
    """Parse a `.prof` profile.  Each distinct entry token is parsed once per
    call, and under ``normalize`` each distinct entry is divided once, so
    equal entries share one Fraction, which the profile clears once."""
    lines = _body(text, "prof 1")
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


def parse_fgm(text: str) -> TwoProverGame:
    lines = _body(text, "fgm 1")
    try:
        nx, ny = (int(t) for t in next(lines).split())
        x_answers = tuple(int(t) for t in next(lines).split())
        y_answers = tuple(int(t) for t in next(lines).split())
    except (StopIteration, ValueError) as exc:
        raise FormatError("bad header lines") from exc
    if len(x_answers) != nx or len(y_answers) != ny:
        raise FormatError("answer-size lines do not match question counts")
    expected = sum(x_answers) * sum(y_answers)  # the sum of a*b over (x, y)
    # An entry takes a line: a count past len(text) is short, maybe past islice's limit.
    if expected > len(text) or len(
            bits := list(itertools.islice(lines, max(expected, 0)))) < expected:
        raise FormatError(f"expected {count_text(expected)} V entries")
    bad = next(itertools.filterfalse({"0", "1"}.__contains__, bits), None)
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
    values = map(int, bits)
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
    out = [
        "fgm 1",
        f"{t.nx} {t.ny}",
        " ".join(str(a) for a in t.x_answers),
        " ".join(str(b) for b in t.y_answers),
    ]
    for per_a in itertools.chain.from_iterable(t.table):  # x outer, then y
        for per_b in per_a:
            # One shared "0" and "1", not a new str per entry.
            out.extend(map(("0", "1").__getitem__, per_b))
    if t.dist is not None:
        out.append("D")
        out.extend(map(format_rational, itertools.chain.from_iterable(t.dist)))
    return "\n".join(out) + "\n"


def parse_strat(text: str) -> tuple[ProverStrategy, ProverStrategy]:
    try:
        first, second = _body(text, "strat 1")
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
