"""Exact circuit partition polynomials of Eulerian multigraphs.

The engine is the transition (splitting) recursion of Las Vergnas (Ann.
Discrete Math. 17, 1983) and Ellis-Monaghan (J. Combin. Theory Ser. B 74,
1998). Every circuit partition continues each edge entering a vertex v on
exactly one edge leaving it, so pairing one entering edge at v (directed), or
one half-edge at v (undirected), with each possible continuation and splicing
the pair into a single edge splits the partitions of G among smaller graphs.
A loop paired with itself closes a circuit and contributes a factor z.

1. Vertices with a single transition, those with exactly two half-edges
   (d_v = 1 directed, degree 2 undirected), are spliced away first, in
   linear time: each chain of them becomes one edge between branching
   vertices, and a chain that closes on itself is one circuit, a factor z.
   Directed graphs take a faster splice path of their own (see `_contract`).
2. What remains is a sorted tuple of edge codes, the memo key. Branching
   vertices are split along the order of `graphs.sweep_plan` by one rule for
   both kinds (`_split`), each removing exactly one edge, so the states are
   swept layer by layer in decreasing edge count: equal keys within a layer
   merge (the memo), and only two layers are held at a time. Nothing
   recurses in Python, whatever the depth. Each state holds its polynomial
   as one int, coefficient t in bits [t B, (t + 1) B) with B the bit length
   of the transition system count T (Kronecker substitution; von zur Gathen
   and Gerhard, Modern Computer Algebra, 8.4), so a move is one shift and
   one multiply-add. No coefficient of any state exceeds T, so no slot
   carries into the next (see `_sweep`).
3. The guard counts work units: for every expanded state, its branch count
   times its key length. The sweep refuses as soon as the running total
   passes the guard. The worst case stays exponential, as #P-completeness
   demands.

`transition_system_count` gives the number of transition systems; the
enumerator that lists them, the oracle the engine is checked against,
lives in `checks`. The planar map side takes only the engine from this
module. `IntPolynomial` is the bare coefficient vector; `cli` prints it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import Counter, defaultdict
from math import factorial, prod
from operator import ne
from typing import TYPE_CHECKING, Iterable

from .errors import DEFAULT_ENUMERATION_GUARD, GuardExceededError
from .graphs import (DirectedMultigraph, Multigraph, Record, double_factorial, eulerian_check,
                     require_eulerian, sweep_plan)

if TYPE_CHECKING:
    from fractions import Fraction


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------

class IntPolynomial(Record):
    """Coefficient vector r_0, r_1, ... of nonnegative arbitrary-precision
    ints, with trailing zeros dropped."""

    __slots__ = _fields = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = tuple(int(c) for c in coefficients)
        if not coeffs:
            coeffs = (0,)
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        top = len(coeffs) - 1
        while top > 0 and coeffs[top] == 0:
            top -= 1
        self._set(coefficients=coeffs[:top + 1])

    def evaluate(self, z) -> Fraction:
        """Horner evaluation at an exact rational point."""
        from fractions import Fraction

        z = Fraction(z)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def coefficient_sum(self) -> int:
        return sum(self.coefficients)


# ---------------------------------------------------------------------------
# Transition systems
# ---------------------------------------------------------------------------

def _transitions(half_edges: Iterable[int], directed: bool) -> int:
    """The transition system count from an Eulerian graph's half-edge counts
    2 d_v: d_v! transitions at a directed vertex, (2 d_v - 1)!! at an
    undirected one. A vertex left out has no half-edges and would contribute
    0! = (-1)!! = 1."""
    return prod(factorial(h // 2) if directed else double_factorial(h - 1) for h in half_edges)


def transition_system_count(g: Multigraph) -> int:
    """prod_v d_v! (directed) or prod_v (2 d_v - 1)!! (undirected) over the
    vertices with half-edges (`degree_counts`), so its cost follows m, not n;
    0 when g is not Eulerian, since then it has no transition system."""
    directed = isinstance(g, DirectedMultigraph)
    return _transitions(g.degree_counts().values(), directed) if eulerian_check(g).is_eulerian else 0


# ---------------------------------------------------------------------------
# The engine: forced-vertex contraction, then the memoized splitting sweep
# ---------------------------------------------------------------------------

# The contracted (core) graph is a key: its edges among n branching vertices
# as a sorted tuple of codes. A directed edge a -> b is coded a * n + b; an
# undirected edge {a, b} is coded min * n + max. Branching vertices are
# labelled along the order of graphs.sweep_plan. A split removes edges at the
# split vertex only and joins vertices labelled after it, so the next split
# vertex is the least label still touched, the one of key[0]. All of its
# out-edges (directed) or edges (undirected) form a prefix of the key.
# A split move: (codes removed, code added or None, circuits closed, multiplicity).
_Move = tuple[tuple[int, ...], int | None, int, int]


def _core_key(pairs: list[tuple[int, int]], directed: bool) -> tuple[tuple[int, ...], int]:
    """Label the branching vertices that `pairs` join in maximum-adjacency
    order and code the core edges, so that vertices split one after another
    are joined by many edges and few partial states coexist in a layer."""
    label = {v: i for i, v in enumerate(sweep_plan(pairs).order)}
    n = len(label)
    if directed:
        codes = [label[u] * n + label[v] for u, v in pairs]
    else:
        codes = [min(label[u], label[v]) * n + max(label[u], label[v]) for u, v in pairs]
    codes.sort()
    return tuple(codes), n


def _contract(g: Multigraph) -> tuple[list[tuple[int, int]], int]:
    """Splice chains through forced vertices: (branching ends of each chain,
    closed cycles).

    A vertex is forced when it has exactly two half-edges (d_v = 1 directed,
    degree 2 undirected); a chain enters it on one and leaves on the other.
    Directed chains are followed from their tails only, so each records its
    ends tail first. No pass runs in Python over the vertices. The directed
    splice runs at C speed: the undirected pairing loop, run for both kinds,
    measured 11-15% slower on the benchmark's large sparse cycles.
    """
    ends = list(itertools.chain.from_iterable(g.edges))  # half-edge h sits at ends[h]
    # Entering a vertex on h, a chain leaves it on onward[h], or stops there (-1) if it branches.
    onward = [-1] * len(ends)
    if isinstance(g, DirectedMultigraph):  # a chain leaves a vertex on a tail
        tails = range(0, len(ends), 2)
        leaving = dict(zip(ends[::2], tails))  # each vertex's last tail: a forced vertex's only one
        # A tail that is not its vertex's last shows a branching vertex. Every
        # tail there starts a chain, and its vertex leaves `leaving`, so that
        # a chain entering it stops.
        extra = list(itertools.compress(tails, map(ne, map(leaving.__getitem__, ends[::2]), tails)))
        branching = set(map(ends.__getitem__, extra))
        starts = extra + [leaving.pop(v) for v in branching]
        onward[1::2] = map(leaving.get, ends[1::2], itertools.repeat(-1))
    else:
        branching = set()
        seen = [-1] * g.vertex_count  # the first half-edge at a vertex; -2 once a second pairs with it
        for h, v in enumerate(ends):
            a = seen[v]
            if a >= 0:
                onward[a], onward[h] = h, a
                seen[v] = -2
            elif a == -1:
                seen[v] = h
            else:  # a third half-edge, or later
                branching.add(v)
        starts = list(itertools.compress(range(len(ends)), map(branching.__contains__, ends)))
        for h in starts:
            onward[h] = -1
    used = bytearray(g.edge_count)
    pairs = []
    for start in starts:
        if not used[start >> 1]:  # follow the chain leaving a branching vertex
            used[start >> 1] = 1
            h = start ^ 1
            while (out := onward[h]) >= 0:
                used[out >> 1] = 1
                h = out ^ 1
            pairs.append((ends[start], ends[h]))
    closed = 0
    e = used.find(0)
    while e >= 0:  # a cycle through forced vertices only
        closed += 1
        h = 2 * e
        while not used[h >> 1]:
            used[h >> 1] = 1
            h = onward[h ^ 1]
        e = used.find(0, e + 1)
    return pairs, closed


def _split(key: tuple[int, ...], n: int, directed: bool) -> list[_Move]:
    """Pair the half-edge entering v on its first in-edge a -> v (directed),
    or on key[0] = {v, a} (undirected), with each half-edge leaving v. An
    undirected a is v's least neighbour, so a join {a, b} is coded a * n + b
    as a directed one is, and an undirected loop at v offers either half."""
    v = key[0] // n
    first = next(c for c in key if c % n == v) if directed else key[0]
    a = first // n if directed else first % n
    moves: list[_Move] = []
    if a == v:
        moves.append(((first,), None, 1, 1))  # the loop closes on itself: one circuit
    for c, copies in Counter(key[:bisect_left(key, (v + 1) * n)]).items():
        if c == first:
            copies -= 1  # the entering half-edge's edge is taken
        if copies:
            b = c % n
            moves.append(((first, c), a * n + b, 0, copies if directed or b != v else 2 * copies))
    return moves


def _core_systems(pairs: list[tuple[int, int]], directed: bool) -> int:
    """T, the transition system count of the core that `_contract` leaves,
    from its edges' half-edges per branching vertex. Splicing keeps every
    branching vertex's half-edges and a forced vertex contributes 1, so T is
    g's count too."""
    return _transitions(Counter(itertools.chain.from_iterable(pairs)).values(), directed)


def _sweep(key: tuple[int, ...], n: int, directed: bool, guard: int, width: int) -> int:
    """The partition polynomial of the core graph `key`, packed into one int:
    coefficient t sits in bits [t * width, (t + 1) * width).

    Every move removes exactly one edge, so all states of a layer have the
    same key length and each layer feeds only the next. A state's weight is
    the polynomial summed over the paths that reach it from the start; a
    move adds it, times the move's copies and shifted one slot per circuit
    closed, to its successor's weight.

    No slot carries into the next when width >= T.bit_length(), T the core's
    transition system count. Every coefficient is nonnegative, and every
    state has at least one completion, since a split of an Eulerian graph is
    Eulerian. Each transition system passes through exactly one state of a
    layer, so sum_s w_s(1) c_s(1) = j(G;1) = T, with w_s a state's weight
    and c_s(1) >= 1 its completions. So no coefficient of a weight, or of a
    partial sum of one, exceeds T < 2^width.
    """
    layer = {key: 1}
    work = 0
    for _ in range(len(key)):
        following: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for state, weight in layer.items():
            moves = _split(state, n, directed)
            work += len(moves) * len(state)
            if work > guard:
                raise GuardExceededError(
                    "circuit partition recursion refused (work units: branches x edges per state)",
                    work, guard)
            for removed, added, shift, copies in moves:
                rest = list(state)
                for c in removed:
                    del rest[bisect_left(rest, c)]
                if added is not None:
                    insort(rest, added)
                following[tuple(rest)] += copies * weight << shift * width
        layer = following
    return layer[()]


def circuit_partition_polynomial(g: Multigraph, guard: int = DEFAULT_ENUMERATION_GUARD) -> IntPolynomial:
    """The generating polynomial sum_t r_t z^t of circuit partitions.

    The edgeless graph yields the constant polynomial 1: its single (empty)
    partition has zero circuits, which keeps the disjoint-union product law
    and the moment identities valid in the degenerate case. `guard` caps the
    work units of the splitting sweep (see the module docstring).
    """
    require_eulerian(g)
    directed = isinstance(g, DirectedMultigraph)
    pairs, closed = _contract(g)
    key, n = _core_key(pairs, directed)
    width = _core_systems(pairs, directed).bit_length()
    packed = _sweep(key, n, directed, guard, width)
    # Whole slots, the top one first, read in one pass: a shift per slot would take quadratic time.
    bits = f"{packed:0{(packed.bit_length() // width + 1) * width}b}"
    # Each closed cycle is one factor z: a zero slot below the core's.
    return IntPolynomial([0] * closed + [int(bits[i:i + width], 2) for i in range(0, len(bits), width)][::-1])
