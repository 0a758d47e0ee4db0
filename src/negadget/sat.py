"""3SAT ingestion, satisfiability oracles, and the clause-variable free game.

The reduction path is: formula -> clause/variable incidence graph ->
balanced bipartite partition -> free game in which one prover answers with
an assignment to a variable block and the other with an assignment to the
variables of a clause block; ``reduce_to_free_game`` takes the whole path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    FormatError,
    InvariantError,
    ParameterError,
    ResourceError,
    ValidationError,
)
from .games import check_count
from .provers import ProverStrategy, TwoProverGame

Clause = tuple[int, int, int]

SAT_BUDGET_DEFAULT = 2**20
ANSWER_CAP_DEFAULT = 2**16


@dataclass(frozen=True)
class Cnf3Formula:
    """A 3SAT formula: clauses are triples of signed 1-based literals."""

    num_vars: int
    clauses: tuple[Clause, ...]
    max_var_degree: int = field(init=False)

    def __post_init__(self) -> None:
        if type(self.num_vars) is not int:  # 3.0 and True would pass below
            raise ValidationError(f"num_vars must be an int, got {self.num_vars!r}")
        if self.num_vars < 1:
            raise ValidationError("formula needs at least one variable")
        object.__setattr__(
            self, "clauses", tuple(tuple(c) for c in self.clauses)
        )
        degree: Counter[int] = Counter()
        for c in self.clauses:
            if len(c) != 3:
                raise ValidationError(f"clause {c} does not have 3 literals")
            if any(type(l) is not int for l in c):  # 1.0 and True read as 1
                raise ValidationError(f"clause {c} has a literal that is not an int")
            vs = [abs(l) for l in c]
            if any(l == 0 for l in c):
                raise ValidationError(f"clause {c} contains literal 0")
            if len(set(vs)) != 3:
                raise ValidationError(f"clause {c} repeats a variable")
            if any(v > self.num_vars for v in vs):
                raise ValidationError(f"clause {c} uses an undeclared variable")
            degree.update(vs)
        object.__setattr__(
            self, "max_var_degree", max(degree.values(), default=0)
        )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise FormatError(f"bad integer {tok!r}") from exc


def parse_dimacs(text: str) -> Cnf3Formula:
    """Parse a DIMACS CNF file with exactly-3-literal clauses."""
    num_vars = None
    num_clauses = None
    literals: list[int] = []
    clauses: list[Clause] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise FormatError(f"second problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"bad problem line: {line!r}")
            num_vars, num_clauses = _parse_int(parts[2]), _parse_int(parts[3])
            continue
        if num_vars is None:
            raise FormatError("clause before problem line")
        for tok in line.split():
            lit = _parse_int(tok)
            if lit == 0:
                clauses.append(tuple(literals))
                literals = []
            else:
                literals.append(lit)
    if num_vars is None:
        raise FormatError("missing problem line")
    if literals:
        raise FormatError("unterminated clause at end of input")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise FormatError(
            f"declared {num_clauses} clauses, found {len(clauses)}"
        )
    try:
        return Cnf3Formula(num_vars=num_vars, clauses=tuple(clauses))
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def _clause_code(clause: Clause, variables: Sequence[int]) -> tuple[int, int]:
    """(mask, falsifier) of a clause over values whose bit t assigns the
    0-based variable ``variables[t]``: ``mask`` holds the clause's three
    bits, ``falsifier`` those of its negative literals.  A value a satisfies
    the clause iff a & mask != falsifier."""
    mask = falsifier = 0
    for lit in clause:
        bit = 1 << variables.index(abs(lit) - 1)
        mask |= bit
        falsifier |= bit if lit < 0 else 0
    return mask, falsifier


def _project(value: int, positions: Sequence[int]) -> int:
    """Pack the bits of ``value`` at ``positions``: bit t of the result is
    bit positions[t] of value."""
    return sum(((value >> p) & 1) << t for t, p in enumerate(positions))


def max_sat_fraction(
    f: Cnf3Formula, budget: int = SAT_BUDGET_DEFAULT
) -> Fraction:
    """Exact maximum fraction of simultaneously satisfiable clauses."""
    return max_sat(f, budget)[1]


def best_assignment(f: Cnf3Formula, budget: int = SAT_BUDGET_DEFAULT) -> int:
    """Lowest bitmask maximizing the number of satisfied clauses."""
    return max_sat(f, budget)[0]


def max_sat(f: Cnf3Formula, budget: int) -> tuple[int, Fraction]:
    """(lowest bitmask satisfying the most clauses, the fraction it
    satisfies), stopping at the first mask that satisfies every clause.
    The budget is charged 2^n * m, the clause checks of every assignment;
    a formula without clauses is satisfied by mask 0 at no charge."""
    check_count(budget, "budget")
    if not f.clauses:
        return 0, Fraction(1)
    if f.num_clauses > budget >> f.num_vars:  # 2^n * m > budget, 2^n never built
        raise ResourceError(
            f"2^{f.num_vars} assignments x {f.num_clauses} clauses "
            f"exceed budget {budget}"
        )
    codes = [_clause_code(c, range(f.num_vars)) for c in f.clauses]
    best_mask, best_hit = 0, -1
    for mask in range(2**f.num_vars):
        hit = sum(mask & m != falsifier for m, falsifier in codes)
        if hit > best_hit:
            best_mask, best_hit = mask, hit
            if hit == f.num_clauses:
                break
    return best_mask, Fraction(best_hit, f.num_clauses)


@dataclass(frozen=True)
class BipartiteGraph:
    """Left vertices 0..left_count-1, right vertices 0..right_count-1."""

    left_count: int
    right_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < self.left_count and 0 <= v < self.right_count):
                raise ValidationError(f"edge ({u},{v}) out of range")

    def degree_bound(self) -> int:
        left = Counter(u for u, _ in self.edges)
        right = Counter(v for _, v in self.edges)
        return max([*left.values(), *right.values()], default=0)


def formula_degree(f: Cnf3Formula) -> int:
    """Max degree of the incidence graph: clauses always have degree 3."""
    return max(f.max_var_degree, 3 if f.clauses else 1)


def incidence_graph(f: Cnf3Formula) -> BipartiteGraph:
    """Variables on the left, clauses on the right; edge iff occurrence."""
    edges = frozenset(
        (abs(lit) - 1, ci)
        for ci, clause in enumerate(f.clauses)
        for lit in clause
    )
    return BipartiteGraph(
        left_count=f.num_vars, right_count=f.num_clauses, edges=edges
    )


@dataclass(frozen=True)
class BipartitePartition:
    """K blocks per side; sizes <= 2*ceil(sqrt(n)), cross-edges <= 2*d^2."""

    S: tuple[tuple[int, ...], ...]
    T: tuple[tuple[int, ...], ...]
    K: int


def partition_bipartite(graph: BipartiteGraph, d: int) -> BipartitePartition:
    """Split variables and clauses into K = ceil(sqrt(n)) balanced blocks.

    Left vertices (variables) are split into contiguous index blocks.
    Right vertices (clauses) are placed greedily, each into the
    lowest-index block that stays within the size bound 2*ceil(sqrt(n))
    and keeps every cross-block edge count at most 2*d^2.
    """
    if graph.left_count < 1 or graph.right_count < 1:
        raise ValidationError("both sides must be nonempty")
    check_count(d, "d", 1)
    if graph.degree_bound() > d:
        raise ParameterError(f"graph degree exceeds d={d}")
    k = _block_count(graph.left_count + graph.right_count)
    size_cap = 2 * k
    edge_cap = 2 * d * d

    left = graph.left_count
    s_blocks = tuple(tuple(b) for b in _variable_blocks(left, k))
    block_of_var = [0] * left
    for i, block in enumerate(s_blocks):
        for v in block:
            block_of_var[v] = i

    neighbors: list[list[int]] = [[] for _ in range(graph.right_count)]
    for u, v in graph.edges:
        neighbors[v].append(u)

    t_blocks: list[list[int]] = [[] for _ in range(k)]
    # cross[j][i]: edges between clause block j and variable block i
    cross = [[0] * k for _ in range(k)]
    for clause in range(graph.right_count):
        demand = Counter(block_of_var[var] for var in neighbors[clause])
        for j in range(k):
            if len(t_blocks[j]) >= size_cap:
                continue
            if all(cross[j][i] + n <= edge_cap for i, n in demand.items()):
                t_blocks[j].append(clause)
                for i, n in demand.items():
                    cross[j][i] += n
                break
        else:
            raise InvariantError(
                f"no feasible block for clause {clause}; "
                "preconditions should rule this out"
            )
    return BipartitePartition(
        S=s_blocks, T=tuple(tuple(b) for b in t_blocks), K=k
    )


def _block_count(n: int) -> int:
    """K = ceil(sqrt(n)), the number of blocks per side for n vertices."""
    k = math.isqrt(n)
    return k + (k * k < n)


def _variable_blocks(left: int, k: int) -> Iterator[range]:
    """The k contiguous variable blocks of a partition, as lazy ranges."""
    return (range(i * left // k, (i + 1) * left // k) for i in range(k))


def _check_answers(side: str, sizes: Iterable[int], answer_cap: int) -> None:
    """ResourceError for the first question with more than answer_cap
    answers, a question of size s having 2^s (never built)."""
    check_count(answer_cap, "answer_cap")
    least = answer_cap.bit_length()  # 2^size > answer_cap iff size >= least
    for i, size in enumerate(sizes):
        if size >= least:
            raise ResourceError(
                f"{side} question {i} has 2^{size} answers, cap {answer_cap}"
            )


@dataclass(frozen=True)
class FreeGameBuild:
    """A clause-variable free game together with its question indexing.

    ``x_vars[i]`` lists the variables (0-based) of X question i;
    ``y_vars[j]`` lists the distinct variables of Y question j's clauses,
    in sorted order, and ``y_clauses[j]`` the clause indices.  When the
    partition produced an odd number of questions on a side, every question
    of that side was duplicated (interleaved).
    """

    game: TwoProverGame
    x_vars: tuple[tuple[int, ...], ...]
    y_vars: tuple[tuple[int, ...], ...]
    y_clauses: tuple[tuple[int, ...], ...]


def build_clause_variable_free_game(
    f: Cnf3Formula,
    partition: BipartitePartition,
    answer_cap: int = ANSWER_CAP_DEFAULT,
) -> FreeGameBuild:
    """Build the free game: X = variable blocks, Y = clause blocks.

    Answers on the X side are truth assignments to the block's variables
    (bit i of the answer index assigns the i-th variable in sorted order);
    answers on the Y side assign the distinct variables appearing in the
    block's clauses.  V = 1 iff the Y answer satisfies every clause of the
    block and agrees with the X answer on every shared variable.
    """
    x_vars = tuple(tuple(sorted(block)) for block in partition.S)
    y_clauses = tuple(tuple(sorted(block)) for block in partition.T)
    y_vars = tuple(
        tuple(
            sorted({abs(lit) - 1 for ci in block for lit in f.clauses[ci]})
        )
        for block in y_clauses
    )
    _check_answers("X", map(len, x_vars), answer_cap)
    _check_answers("Y", map(len, y_vars), answer_cap)

    nx, ny = len(x_vars), len(y_clauses)
    x_answers = tuple(2 ** len(vs) for vs in x_vars)
    y_answers = tuple(max(1, 2 ** len(vs)) for vs in y_vars)
    verdicts = [[()] * ny for _ in range(nx)]
    for j, vs in enumerate(y_vars):
        codes = [_clause_code(f.clauses[ci], vs) for ci in y_clauses[j]]
        sat = [int(all(b & m != z for m, z in codes)) for b in range(y_answers[j])]
        for i, us in enumerate(x_vars):
            # V[a][b] = sat[b] when a and b agree on the shared variables;
            # X answers that agree there share one row.
            x_bits = [t for t, v in enumerate(us) if v in vs]
            y_bits = [t for t, v in enumerate(vs) if v in us]
            proj_x = [_project(a, x_bits) for a in range(x_answers[i])]
            proj_y = [_project(b, y_bits) for b in range(y_answers[j])]
            rows = {p: tuple(s & (q == p) for s, q in zip(sat, proj_y))
                    for p in set(proj_x)}
            verdicts[i][j] = tuple(rows[p] for p in proj_x)
    # Keep both sides even for the half-subset gadget downstream: an odd
    # side asks each question twice, interleaved.
    xs = [i for i in range(nx) for _ in range(1 + nx % 2)]
    ys = [j for j in range(ny) for _ in range(1 + ny % 2)]
    game = TwoProverGame(
        x_answers=tuple(x_answers[i] for i in xs),
        y_answers=tuple(y_answers[j] for j in ys),
        table=tuple(tuple(verdicts[i][j] for j in ys) for i in xs),
    )
    return FreeGameBuild(
        game=game,
        x_vars=tuple(x_vars[i] for i in xs),
        y_vars=tuple(y_vars[j] for j in ys),
        y_clauses=tuple(y_clauses[j] for j in ys),
    )


def reduce_to_free_game(
    f: Cnf3Formula, answer_cap: int = ANSWER_CAP_DEFAULT
) -> FreeGameBuild:
    """The free game of a formula, in the order of its errors: the X-side
    answer cap from the formula's sizes alone (X question i assigns the
    i-th of K contiguous variable blocks), so no block is built for a
    formula over the cap; then `partition_bipartite` of the incidence graph
    at the formula's degree; then `build_clause_variable_free_game`."""
    k = _block_count(f.num_vars + f.num_clauses)
    blocks = _variable_blocks(f.num_vars, k)  # len() of a range overflows
    _check_answers("X", (b.stop - b.start for b in blocks), answer_cap)
    partition = partition_bipartite(incidence_graph(f), formula_degree(f))
    return build_clause_variable_free_game(f, partition, answer_cap)


def winning_strategies(
    build: FreeGameBuild, assignment: int
) -> tuple[ProverStrategy, ProverStrategy]:
    """Encode a (satisfying) global assignment as a strategy per prover."""
    s1 = tuple(_project(assignment, vs) for vs in build.x_vars)
    s2 = tuple(_project(assignment, vs) for vs in build.y_vars)
    return ProverStrategy(answers=s1), ProverStrategy(answers=s2)
