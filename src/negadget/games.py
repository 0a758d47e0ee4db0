"""Bimatrix games, mixed profiles, and exact equilibrium verification.

Entries and weights are `fractions.Fraction`s; verification never touches
floating point, and a float entry or parameter raises `ParameterError`
(see ``frac``).  ``check_count`` is the one check of a count parameter, a
budget, cap, k, n, q or d: an int that is not a bool, at least its least
value, else `ParameterError`; ``nonnegative_eps`` is the one check of an
eps; ``_cleared_side`` is the one check of a profile side, for the vector
constructor and ``MixedProfile.of_sides`` (every library builder) alike;
a profile is its lengths and sides, and ``side_vector`` lays out its views.
Games are immutable; every operation returns new values.

A game is a palette of (R entry, C entry) `Fraction` pairs plus one `str`
code row per game row: cell (i, j) is ``palette[ord(codes[i][j])]``.  A str
holds at most PALETTE_LIMIT codes; coding one pair more raises
`ResourceError`.  The code rows are the game's one copy of its cells; R and
C are read-only views for the tests and callers, built on first use, and
no library path builds one.  ``==`` and ``hash`` read one canonical form.
Every integer kernel (``regret_ints``, the k-uniform scan of
`negadget.search`, the support LPs and `game_value`) leaves `Fraction`
through one helper, ``cleared``, and ``int_entries`` is the palette cleared
once.  ``regret_ints`` (public also as ``regret_report``) returns a
`RegretReport`, the kernel's seven integers, which every verdict compares
through its one eps test, ``RegretReport.within`` (``is_eps_ne``,
``is_eps_wsne`` and the deciders' re-checks); its `Fraction` views serve
the reports that print regrets and welfare.  ``int_readers`` is the one
reader of a game's integer payoff lines (C's rows and R's columns, sliced
from the code rows joined once per call), and ``int_lines`` keeps what it
reads in `IntLines` tables for the scan and the support LPs, which read a
line more than once.  ``weighted_lines`` is the one weighted sum of lines,
paid per member and per distinct weight: ``regret_ints``, the oracle that
the scan is checked against, and the induced game of `negadget.provers`
stream through it the opponent's support lines straight from the readers,
keeping none, weighted by a profile side cleared over its own LCM
(``MixedProfile.sparse_x``), and the scan sums its multisets' sides over
the lines it keeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (
    FormatError,
    GadgetError,
    InvariantError,
    ParameterError,
    ResourceError,
    ShapeError,
    ValidationError,
)

Rational = Union[Fraction, int, str]

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

Pair = tuple[Fraction, Fraction]  # (row player, column player) entries
Sparse = tuple[tuple[int, ...], tuple[int, ...], int]  # support, weights, M
Reader = Callable[[int], Iterable[int]]  # an integer payoff line by index
PALETTE_LIMIT = 0x110000  # the code points, so the codes, a str can hold

# A block annotation: (name, row_start, row_end, col_start, col_end),
# half-open row/column ranges.
Block = tuple[str, int, int, int, int]

# Largest decimal exponent a rational's text may carry, as in `1e4300`.
# Fraction builds 10**exponent exactly, and that takes seconds once the
# exponent nears 10**7.  4300 is CPython's default limit on the digits of an
# integer string, which already bounds the mantissa.
EXPONENT_LIMIT = 4300

# A numerator must stay below this bound, so that it prints within
# CPython's limit of EXPONENT_LIMIT digits; a denominator may equal it, the
# denominator of `1e-4300`.  A comparison of integers this long costs what
# a comparison of their bit lengths costs.
DIGIT_BOUND = 10**EXPONENT_LIMIT

# The digits of DIGIT_BOUND, one more than `int()` reads: the writers print
# the denominator of `1e-4300` so, and the parser reads it back.
_DIGIT_BOUND_TEXT = "1" + "0" * EXPONENT_LIMIT


def parse_rational(tok: str, error: type[GadgetError] = FormatError) -> Fraction:
    """The rational a text names ('3/4', '-0.25', '1e-3'); ``error`` if the
    text is malformed, its exponent exceeds EXPONENT_LIMIT, or the value has
    more digits than CPython prints.  The one check of every rational read
    from text: the text formats' and the CLI's, and `frac`'s with
    ``ParameterError``."""
    num, _, den = tok.partition("/")
    _, has_exponent, exponent = tok.lower().partition("e")
    try:
        if has_exponent and abs(int(exponent)) > EXPONENT_LIMIT:
            raise error(f"exponent of {tok!r} exceeds {EXPONENT_LIMIT}")
        if den == _DIGIT_BOUND_TEXT:
            value = Fraction(int(num), DIGIT_BOUND)
        else:
            value = Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise error(f"bad rational {tok!r}") from exc
    if abs(value.numerator) >= DIGIT_BOUND or value.denominator > DIGIT_BOUND:
        raise error(f"{tok!r} has more than {EXPONENT_LIMIT} digits")
    return value


def frac(value: Rational) -> Fraction:
    """Coerce ints, Fractions and strings ('3/4', '0.25', through
    ``parse_rational``) to Fraction.  Anything else raises
    ``ParameterError``: a float, which is not the decimal it was written
    as, a bool, and any other value that is not a rational number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value, ParameterError)
    if isinstance(value, bool) or not isinstance(value, numbers.Rational):
        raise ParameterError(
            f"expected an exact rational, got {type(value).__name__} {value!r}")
    return Fraction(value)


def check_count(value: object, name: str, least: int = 0) -> None:
    """``ParameterError`` unless ``value`` is an int that is not a bool and
    is at least ``least``: the one check of a count parameter (every
    budget, cap, k, n, q and d), its bound included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(
            f"{name} must be an int, got {type(value).__name__} {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be at least {least}, got {value}")


def nonnegative_eps(eps: Rational) -> Fraction:
    """eps as a Fraction (through ``frac``); ``ValidationError`` if it is
    negative.  The one check of an eps."""
    e = frac(eps)
    if e < 0:
        raise ValidationError("eps must be nonnegative")
    return e


def vector(entries: Iterable[Rational]) -> Vector:
    # tuple() of lists here and below: a tuple grown from a generator by
    # resizing is kept in CPython's free lists, which then fill up the heap.
    # Fractions are kept as given (not copied), so shared objects stay shared.
    return tuple([e if isinstance(e, Fraction) else frac(e) for e in entries])


def side_vector(n: int, side: Sparse) -> Vector:
    """The length-n vector of the side (support, weights, M): weight/M at
    each support index, one Fraction per distinct weight, and one shared
    zero elsewhere.  Weights may be Fractions over M = 1, as an LP's are."""
    support, weights, scale = side
    by_weight = {w: Fraction(w, scale) for w in set(weights)}
    full = [Fraction(0)] * n
    for t, w in zip(support, weights):
        full[t] = by_weight[w]
    return tuple(full)


def cleared(*matrices: Sequence[Sequence[Fraction]]) -> tuple:
    """(L*m1, L*m2, ..., L): each matrix as integer rows over one common
    denominator L, the least common multiple of every denominator in them.
    Entries are ints or Fractions."""
    scale = math.lcm(*[e.denominator for m in matrices for row in m for e in row])
    return (*[[[e.numerator * (scale // e.denominator) for e in row] for row in m]
              for m in matrices], scale)


def int_readers(game: BimatrixGame) -> tuple[Reader, Reader, int]:
    """(C's row i, R's column j, L): the one reader of a game's integer
    payoff lines L*C[i] and L*R[:, j], each read as a fresh stream of the
    code row or of a slice of the code rows joined once per call."""
    r_ints, c_ints, scale = game.int_entries
    codes, joined, cols = game.codes, "".join(game.codes), game.cols

    def c_row(i: int) -> Iterator[int]:
        return map(c_ints.__getitem__, codes[i])

    def r_col(j: int) -> Iterator[int]:
        return map(r_ints.__getitem__, joined[j::cols])

    return c_row, r_col, scale


class IntLines(dict):
    """The lines of one ``int_readers`` reader as int lists: ``lines[t]``
    reads line t on first use and keeps it for the call that made the table."""

    def __init__(self, read: Reader) -> None:
        self.read = read

    def __missing__(self, t: int) -> list[int]:
        line = self[t] = list(self.read(t))
        return line


def int_lines(game: BimatrixGame) -> tuple[IntLines, IntLines, int]:
    """(C's rows, R's columns, L) of ``int_readers`` as `IntLines` tables,
    for a caller that reads a line more than once."""
    c_row, r_col, scale = int_readers(game)
    return IntLines(c_row), IntLines(r_col), scale


def weighted_lines(line: Reader, side: Sparse) -> list[int]:
    """M * (sum over t of v_t * line(t)) for the vector v of the side
    (support, weights, M), ``line`` an ``int_readers`` reader or an
    `IntLines` table's ``__getitem__``: so with R's columns, y's side gives
    L*M_y*(R @ y), and with C's rows, x's L*M_x*(x @ C).  A one-member side
    is its line times its weight.  Otherwise the lines of one weight are
    summed first (one line is read as it is), then multiplied once; all
    C-level."""
    support, weights = side[0], side[1]
    if len(support) == 1:
        w = weights[0]
        return list(line(support[0]) if w == 1 else map(w.__mul__, line(support[0])))
    by_weight: dict[int, list[int]] = {}
    for t, w in zip(support, weights):
        by_weight.setdefault(w, []).append(t)
    total = None
    for w, members in by_weight.items():
        summed = line(members[0]) if len(members) == 1 else map(sum, zip(*map(line, members)))
        if w != 1:
            summed = map(w.__mul__, summed)
        total = list(summed) if total is None else list(map(add, total, summed))
    return total


def add_pair(palette: list[Pair], pair: Pair) -> str:
    """Append ``pair`` to ``palette`` and return its code, ``chr`` of its
    index; ``ResourceError`` if the palette holds PALETTE_LIMIT pairs."""
    if len(palette) >= PALETTE_LIMIT:
        raise ResourceError(
            f"game has more than {PALETTE_LIMIT} distinct (R, C) entry pairs")
    palette.append(pair)
    return chr(len(palette) - 1)


class BimatrixGame:
    """A bimatrix game (R, C) with optional named block structure, stored as
    a palette of (R entry, C entry) pairs and one code row per game row.

    ``blocks`` is a tuple of (name, r0, r1, c0, c1) annotations with
    half-open ranges; when present they must partition the full index
    rectangle exactly.  ``==`` and ``hash`` compare the cells by value and
    ``blocks``, however the palettes are coded (see ``canonical``).
    """

    def __init__(self, R: Iterable[Sequence[Rational]],
                 C: Iterable[Sequence[Rational]],
                 blocks: Iterable[Block] | None = None) -> None:
        """Code each distinct (id(r), id(c)) once; keep Fractions, coerce the rest."""
        R, C = list(R), list(C)
        if not R or not R[0] or len(C) != len(R) or any(
                len(row) != len(R[0]) for row in R + C):
            raise ShapeError("R and C must be nonempty matrices of one shape")
        seen: dict[tuple[int, int], str] = {}
        palette: list[Pair] = []
        given = []  # the coded objects, kept alive while their ids are keys

        def code(r: Rational, c: Rational) -> str:
            key = (id(r), id(c))
            if key not in seen:
                seen[key] = add_pair(palette, (frac(r), frac(c)))
                given.append((r, c))
            return seen[key]

        codes = tuple(["".join(map(code, r_row, c_row)) for r_row, c_row in zip(R, C)])
        self._set(tuple(palette), codes, blocks)

    @classmethod
    def coded(cls, palette: tuple[Pair, ...], codes: tuple[str, ...],
              blocks: Iterable[Block] | None = None) -> BimatrixGame:
        """The game with cells ``palette[ord(codes[i][j])]``, kept as given: a
        nonempty rectangle of codes in which every palette pair occurs (as in
        the constructor's games), since `int_entries` reads the palette for them."""
        game = cls.__new__(cls)
        game._set(palette, codes, blocks)
        return game

    def _set(self, palette: tuple[Pair, ...], codes: tuple[str, ...], blocks) -> None:
        vars(self).update(palette=palette, codes=codes, blocks=None if blocks is None
                          else tuple(tuple(b) for b in blocks))
        if self.blocks is not None:
            self._check_blocks()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"BimatrixGame is immutable: cannot set {name!r}")

    def _check_blocks(self) -> None:
        rows, cols = self.rows, self.cols
        area = 0
        seen: list[Block] = []
        for name, r0, r1, c0, c1 in self.blocks or ():
            if not (0 <= r0 < r1 <= rows and 0 <= c0 < c1 <= cols):
                raise ValidationError(f"block {name!r} out of range")
            for _, p0, p1, q0, q1 in seen:
                if r0 < p1 and p0 < r1 and c0 < q1 and q0 < c1:
                    raise ValidationError(f"block {name!r} overlaps another block")
            seen.append(("", r0, r1, c0, c1))
            area += (r1 - r0) * (c1 - c0)
        if area != rows * cols:
            raise ValidationError("blocks do not partition the payoff matrix")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BimatrixGame):
            return NotImplemented
        return self is other or self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    @cached_property
    def canonical(self) -> tuple[tuple[Pair, ...], tuple[str, ...], tuple | None]:
        """(the distinct palette pairs in value order, the code rows coded
        onto them, the blocks): equal for two games iff they are equal."""
        pairs = sorted(set(self.palette))
        code = dict(zip(pairs, map(chr, range(len(pairs)))))
        table = dict(enumerate(map(code.__getitem__, self.palette)))
        return (tuple(pairs), tuple([row.translate(table) for row in self.codes]),
                self.blocks)

    # Each palette pair's entry for one player, by code, and the read-only
    # views R and C, built on first use.
    r_entries = cached_property(lambda self: tuple([r for r, _ in self.palette]))
    c_entries = cached_property(lambda self: tuple([c for _, c in self.palette]))
    R = cached_property(lambda self: _view(self.codes, self.r_entries))
    C = cached_property(lambda self: _view(self.codes, self.c_entries))

    @cached_property
    def int_entries(self) -> tuple[dict[str, int], dict[str, int], int]:
        """(code -> L*R entry, code -> L*C entry, L): the palette cleared
        over one L, the L of ``cleared(self.R, self.C)``, built once."""
        (r_ints,), (c_ints,), scale = cleared([self.r_entries], [self.c_entries])
        codes = list(map(chr, range(len(self.palette))))
        return dict(zip(codes, r_ints)), dict(zip(codes, c_ints)), scale

    @property
    def rows(self) -> int:
        return len(self.codes)

    @property
    def cols(self) -> int:
        return len(self.codes[0])

    def block(self, name: str) -> Block:
        for b in self.blocks or ():
            if b[0] == name:
                return b
        raise ValidationError(f"no block named {name!r}")

    def has_block(self, name: str) -> bool:
        return any(b[0] == name for b in self.blocks or ())


def _view(codes: Sequence[str], entries: Vector) -> Matrix:
    """The matrix of ``entries[ord(code)]`` over code rows."""
    by_code = dict(zip(map(chr, range(len(entries))), entries))
    return tuple([tuple(map(by_code.__getitem__, row)) for row in codes])


def _cleared_side(name: str, support: Iterable[int], weights: Sequence[Rational],
                  scale: int) -> Sparse:
    """The side of weights/scale on ``support``, reduced, zero weights left
    out; ``ValidationError`` if a weight is negative or they do not sum to
    scale.  Int weights, as a scan's multiplicities, are read as they are;
    others once per distinct object, as a wide game's profile shares a few."""
    ints, distinct, total = weights, weights, scale
    if not all(type(w) is int for w in weights):
        ids = list(map(id, weights))
        objects = dict(zip(ids, weights))
        (distinct,), lcm = cleared([list(map(frac, objects.values()))])
        ints, total = list(map(dict(zip(objects, distinct)).__getitem__, ids)), scale * lcm
    if min(distinct, default=0) < 0:
        raise ValidationError(f"{name} has a negative entry")
    common = math.gcd(total, *distinct)  # 1 for Fraction weights over 1
    if sum(ints) != total:
        raise ValidationError(f"{name} does not sum to 1")
    return (tuple(compress(support, ints)), tuple([w // common for w in ints if w]),
            total // common)


@dataclass(frozen=True, init=False, repr=False)
class MixedProfile:
    """A pair of exact probability vectors (row player x, column player y),
    held as their lengths and reduced sides, which ``==`` and ``hash`` read:
    ``sparse_x`` (``sparse_y``) is weights/M on its support, 0 elsewhere.
    ``x`` and ``y`` are read-only views, laid out on first use."""

    rows: int
    cols: int
    sparse_x: Sparse
    sparse_y: Sparse

    def __init__(self, x: Iterable[Rational], y: Iterable[Rational]) -> None:
        """Check and clear each side once; keep the vectors as the views."""
        x, y = vector(x), vector(y)
        for name, v in (("x", x), ("y", y)):
            if not v:
                raise ShapeError(f"{name} is empty")
            vars(self)[f"sparse_{name}"] = _cleared_side(name, range(len(v)), v, 1)
        vars(self).update(rows=len(x), cols=len(y), x=x, y=y)

    @classmethod
    def of_sides(cls, rows: int, cols: int, x_side: Sparse, y_side: Sparse) -> MixedProfile:
        """The profile of the sides (support, weights, M) over ``rows`` and
        ``cols`` strategies, each checked in O(support): strictly ascending
        int indices in range, one positive weight each (an int, or a
        Fraction over M = 1 as the LPs give), summing to M.  A fault that a
        vector can hold raises the constructor's error, any other
        ``ValidationError``."""
        p = cls.__new__(cls)
        for name, n, (support, weights, scale) in (("x", rows, x_side), ("y", cols, y_side)):
            if type(n) is not int:  # as pure_profile refuses an index
                raise ShapeError(f"{name}'s length {n!r} is not an int")
            if n < 1:
                raise ShapeError(f"{name} is empty")
            support = tuple(support)
            if len(support) != len(weights) or type(scale) is not int or scale < 1:
                raise ValidationError(f"{name} needs one weight per index and an int M > 0")
            if not (set(map(type, support)) <= {int}
                    and all(map(int.__lt__, support, support[1:]))
                    and (not support or 0 <= support[0] and support[-1] < n)):
                raise ValidationError(f"{name}'s indices are not ascending ints in range({n})")
            side = _cleared_side(name, support, weights, scale)
            if len(side[0]) < len(support):
                raise ValidationError(f"{name} has a zero weight")
            vars(p)[f"sparse_{name}"] = side
        vars(p).update(rows=rows, cols=cols)
        return p

    x = cached_property(lambda self: side_vector(self.rows, self.sparse_x))
    y = cached_property(lambda self: side_vector(self.cols, self.sparse_y))
    support_x = property(lambda self: self.sparse_x[0])
    support_y = property(lambda self: self.sparse_y[0])

    def __repr__(self) -> str:
        return f"MixedProfile(x={self.x!r}, y={self.y!r})"


class RegretReport(NamedTuple):
    """The integer kernel's result, which every verdict compares: both
    regrets, both pure regrets and both payoffs, six numerators over one
    unit L*M_x*M_y.  ``row_regret`` ... ``welfare`` are its `Fraction`
    views, built when read, for the reports that print them."""

    row: int
    col: int
    row_pure: int
    col_pure: int
    row_pay: int
    col_pay: int
    unit: int

    row_regret = property(lambda self: Fraction(self.row, self.unit))
    col_regret = property(lambda self: Fraction(self.col, self.unit))
    row_pure_regret = property(lambda self: Fraction(self.row_pure, self.unit))
    col_pure_regret = property(lambda self: Fraction(self.col_pure, self.unit))
    row_payoff = property(lambda self: Fraction(self.row_pay, self.unit))
    col_payoff = property(lambda self: Fraction(self.col_pay, self.unit))
    welfare = property(lambda self: Fraction(self.row_pay + self.col_pay, self.unit))

    def within(self, eps: Rational, pure: bool = False, strict: bool = False) -> bool:
        """Both regrets (the pure regrets if ``pure``) are at most eps, or
        below it if ``strict``: integers cross-multiplied by eps's numerator
        and denominator.  eps is read through ``frac``, so a bool, a float
        or None raises ``ParameterError``; a Fraction costs one type test."""
        if not isinstance(eps, Fraction):
            eps = frac(eps)
        worst = max(self[2:4] if pure else self[:2]) * eps.denominator
        bound = eps.numerator * self.unit
        return worst < bound if strict else worst <= bound


def regret_ints(game: BimatrixGame, p: MixedProfile) -> RegretReport:
    """The regrets and payoffs of a profile, as the kernel's integers.  A
    pure regret takes the worst payoff on the support in place of the
    realized one; ``InvariantError`` if a regret is negative or exceeds its
    pure regret."""
    if p.rows != game.rows or p.cols != game.cols:
        raise ShapeError(f"profile is {p.rows}/{p.cols} but game is {game.rows}x{game.cols}")
    c_row, r_col, scale = int_readers(game)
    sides = []
    for name, line, own, opp in (("row", r_col, p.sparse_x, p.sparse_y),
                                 ("col", c_row, p.sparse_y, p.sparse_x)):
        vals = weighted_lines(line, opp)
        support, weights, m = own
        on_support = list(map(vals.__getitem__, support))
        pay, best = sum(map(mul, weights, on_support)), max(vals) * m
        regret, pure = best - pay, best - min(on_support) * m
        if not 0 <= regret <= pure:
            raise InvariantError(f"{name} regret exceeds pure {name} regret")
        sides.append((regret, pure, pay))
    (row, row_pure, row_pay), (col, col_pure, col_pay) = sides
    unit = scale * p.sparse_x[2] * p.sparse_y[2]
    return RegretReport(row, col, row_pure, col_pure, row_pay, col_pay, unit)


regret_report = regret_ints  # the public name the reports read


def is_eps_ne(game: BimatrixGame, p: MixedProfile, eps: Rational) -> bool:
    """True iff both players' regrets are at most eps (exact comparison)."""
    return regret_ints(game, p).within(eps)


def is_eps_wsne(game: BimatrixGame, p: MixedProfile, eps: Rational) -> bool:
    """True iff both players' pure-strategy regrets are at most eps."""
    return regret_ints(game, p).within(eps, pure=True)


def tv_distance(p1: MixedProfile, p2: MixedProfile) -> Fraction:
    """Maximum coordinatewise probability difference over both vectors:
    each side's union of supports walked in integers over M1*M2."""
    if p1.rows != p2.rows or p1.cols != p2.cols:
        raise ShapeError("profiles have different shapes")
    worst = []
    for (s1, w1, m1), (s2, w2, m2) in ((p1.sparse_x, p2.sparse_x), (p1.sparse_y, p2.sparse_y)):
        gap = dict(zip(s1, [w * m2 for w in w1]))
        gap.update((t, abs(gap.get(t, 0) - w * m1)) for t, w in zip(s2, w2))
        worst.append(Fraction(max(gap.values()), m1 * m2))
    return max(worst)


def affine_rescale(
    game: BimatrixGame, shift: Rational, divisor: Rational
) -> BimatrixGame:
    """Map every payoff e to (e + shift)/divisor, keeping the code rows and
    the block annotations: each distinct entry object maps to one new one."""
    s, d = frac(shift), frac(divisor)
    if d <= 0:
        raise ParameterError("divisor must be positive")
    scaled = {id(e): (e + s) / d for pair in game.palette for e in pair}
    palette = tuple([(scaled[id(r)], scaled[id(c)]) for r, c in game.palette])
    return BimatrixGame.coded(palette, game.codes, game.blocks)


def pure_profile(game: BimatrixGame, i: int, j: int) -> MixedProfile:
    """The profile placing all mass on row i and column j."""
    if not (type(i) is type(j) is int and 0 <= i < game.rows and 0 <= j < game.cols):
        raise ShapeError(f"pure profile ({i},{j}) out of range")
    return MixedProfile.of_sides(game.rows, game.cols, ((i,), (1,), 1), ((j,), (1,), 1))
