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
2. What remains is a sorted tuple of edge codes, the memo key. Each split
   happens at a vertex of least remaining degree and removes exactly one
   edge, so the states are swept layer by layer in decreasing edge count:
   equal keys within a layer merge (the memo), and only two layers are held
   at a time. Nothing recurses in Python, whatever the depth.
3. The guard counts work units: for every expanded state, its branch count
   times its key length. The sweep refuses as soon as the running total
   passes the guard. The worst case stays exponential, as #P-completeness
   demands.

The transition-system enumerator (`enumerate_transition_systems`,
`circuit_count`, `circuit_count_tally`) is kept apart as a reference oracle.
A transition system picks, at every vertex, a bijection from incoming to
outgoing edge slots (directed) or a perfect matching of the incident
half-edge slots (undirected); tallying the circuits each induces gives the
coefficients r_t again. Enumeration is an odometer over lazy per-vertex
wiring generators, lexicographic with vertex 0 most significant: bijections
in lexicographic image order, matchings in canonical smallest-first pairing
order. Its guard counts transition systems.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left, insort
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Iterator

from .diagrams import double_factorial, perfect_matchings
from .errors import GuardExceededError
from .graphs import DirectedMultigraph, Multigraph, require_eulerian

# Work units for the engine (branches x key length per expanded state);
# transition systems for the reference enumerator.
DEFAULT_ENUMERATION_GUARD = 10**8


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPolynomial:
    """Coefficient vector r_0, r_1, ... of nonnegative arbitrary-precision ints.

    The variant tag records whether the polynomial counts directed or
    undirected circuit partitions; it is bookkeeping only and excluded from
    equality.
    """

    coefficients: tuple[int, ...]
    variant: str | None = field(default=None, compare=False)

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if not coeffs:
            coeffs = (0,)
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        top = len(coeffs) - 1
        while top > 0 and coeffs[top] == 0:
            top -= 1
        object.__setattr__(self, "coefficients", coeffs[:top + 1])

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        variant = self.variant if self.variant == other.variant else None
        return IntPolynomial(tuple(out), variant)

    def evaluate(self, z) -> Fraction:
        """Horner evaluation at an exact rational point."""
        z = Fraction(z)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def coefficient_sum(self) -> int:
        return sum(self.coefficients)

    def to_text(self) -> str:
        with unlimited_int_digits():
            return " ".join(str(c) for c in self.coefficients)

    def to_json_dict(self) -> dict:
        with unlimited_int_digits():
            return {"coefficients": [str(c) for c in self.coefficients]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntPolynomial":
        with unlimited_int_digits():
            return cls(tuple(int(c) for c in data["coefficients"]))


@contextmanager
def unlimited_int_digits():
    """Lift Python's int-to-decimal digit limit for the enclosed block only.

    Exact outputs may have any number of digits; the previous limit is put
    back on exit, so the rest of the process keeps its protection.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters without the limit
        yield
        return
    previous = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# ---------------------------------------------------------------------------
# Transition systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionSystem:
    """Per-vertex wiring choosing one circuit partition.

    wirings[v] is a permutation tuple sigma (in-slot i continues to out-slot
    sigma[i]) for directed graphs, or a tuple of slot-index pairs forming a
    perfect matching of v's half-edge slots for undirected graphs.
    """

    wirings: tuple[tuple, ...]


def transition_system_count(g: Multigraph) -> int:
    """prod_v d_v! (directed, d_v = in = out) or prod_v (degree_v - 1)!! (undirected)."""
    if isinstance(g, DirectedMultigraph):
        return prod(factorial(d) for d in g.in_degrees())
    return prod(double_factorial(d - 1) for d in g.degrees())


def enumerate_transition_systems(g: Multigraph, guard: int | None = None) -> Iterator[TransitionSystem]:
    """Yield every transition system of g, lexicographically, vertex 0 most significant.

    The graph must be Eulerian (directed) or all-even-degree (undirected), and
    the total count must clear the guard. Each vertex's wirings are generated
    lazily, so a single high-degree vertex never holds its options in memory.
    """
    guard = DEFAULT_ENUMERATION_GUARD if guard is None else guard
    require_eulerian(g)
    total = transition_system_count(g)
    if total > guard:
        raise GuardExceededError("transition-system enumeration refused", total, guard)
    if isinstance(g, DirectedMultigraph):
        sizes, wirings = g.in_degrees(), lambda d: itertools.permutations(range(d))
    else:
        sizes, wirings = g.degrees(), lambda d: perfect_matchings(tuple(range(d)))

    wheels = [wirings(d) for d in sizes]
    current = [next(it) for it in wheels]
    while True:
        yield TransitionSystem(tuple(current))
        # Odometer increment, least significant vertex last; a digit that
        # wraps restarts its vertex's generator.
        for v in range(len(wheels) - 1, -1, -1):
            wiring = next(wheels[v], None)
            if wiring is not None:
                current[v] = wiring
                break
            wheels[v] = wirings(sizes[v])
            current[v] = next(wheels[v])
        else:
            return


# ---------------------------------------------------------------------------
# Circuit counting (reference oracle)
# ---------------------------------------------------------------------------

def circuit_count(g: Multigraph, ts: TransitionSystem) -> int:
    """Number of circuits in the edge partition induced by ts."""
    if g.edge_count == 0:
        raise ValueError("circuit_count requires at least one edge")
    if len(ts.wirings) != g.vertex_count:
        raise ValueError("transition system does not match the graph's vertex count")
    return _circuit_counter(g)(ts)


def _circuit_counter(g: Multigraph) -> Callable[[TransitionSystem], int]:
    """A circuit counter for g's transition systems; g's slot tables are built once.

    Each wiring first becomes pairs of half-edges joined at its vertex: the
    head of in-slot i with the tail of out-slot sigma[i] (directed), or the
    two matched half-edges (undirected). Circuits are then the alternating
    cycles of twin pairs (the two ends of one edge) and joined pairs.
    """
    if isinstance(g, DirectedMultigraph):
        ins, outs = g.slots()

        def joined(v: int, sigma: tuple[int, ...]) -> list[tuple[int, int]]:
            if sorted(sigma) != list(range(len(ins[v]))):
                raise ValueError(f"wiring at vertex {v} is not a bijection on {len(ins[v])} slots")
            return [(2 * e + 1, 2 * outs[v][j]) for e, j in zip(ins[v], sigma)]
    else:
        at = g.half_edges()

        def joined(v: int, pairs: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
            if sorted(i for pair in pairs for i in pair) != list(range(len(at[v]))):
                raise ValueError(f"wiring at vertex {v} is not a perfect matching of {len(at[v])} slots")
            return [(at[v][a], at[v][b]) for a, b in pairs]

    halves = g.half_edge_count

    def count(ts: TransitionSystem) -> int:
        partner = [-1] * halves
        for v, wiring in enumerate(ts.wirings):
            for a, b in joined(v, wiring):
                partner[a] = b
                partner[b] = a
        seen = [False] * halves
        circuits = 0
        for h in range(halves):
            if seen[h]:
                continue
            circuits += 1
            while not seen[h]:
                seen[h] = seen[h ^ 1] = True  # both ends of the edge
                h = partner[h ^ 1]
        return circuits

    return count


def circuit_count_tally(g: Multigraph, guard: int | None = None) -> dict[int, int]:
    """Map circuit count -> number of transition systems.

    The edgeless graph has one (empty) system, with zero circuits.
    """
    count = _circuit_counter(g)
    tally: dict[int, int] = {}
    for ts in enumerate_transition_systems(g, guard):
        t = count(ts)
        tally[t] = tally.get(t, 0) + 1
    return tally


# ---------------------------------------------------------------------------
# The engine: forced-vertex contraction, then the memoized splitting sweep
# ---------------------------------------------------------------------------

# The contracted (core) graph is a key: its edges among n branching vertices
# as a sorted tuple of codes. A directed edge a -> b is coded a * n + b; an
# undirected edge {a, b} is coded min * n + max. Branching vertices are
# labelled in order of degree (see _core_key): a split changes the degree of
# the split vertex only, so the vertex of least remaining degree is always
# the least label still touched by an edge, the one of key[0]. All of its
# out-edges (directed) or edges (undirected) form a prefix of the key.
# A split move: (codes removed, code added or None, circuits closed, multiplicity).
_Move = tuple[tuple[int, ...], int | None, int, int]


def _core_key(pairs: list[tuple[int, int]], degree: list[int],
              directed: bool) -> tuple[tuple[int, ...], int]:
    """Label the branching vertices that `pairs` join and code the core edges.

    Labels follow degree (half-edges per vertex), then breadth-first rank
    within each component, so that vertices split one after another lie
    close together and few partial states coexist in a layer.
    """
    adjacent: dict[int, list[int]] = {}
    for u, v in pairs:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    rank: dict[int, int] = {}
    for root in sorted(adjacent):
        if root in rank:
            continue
        rank[root] = len(rank)
        queue = [root]
        for u in queue:  # grows while it is read: a breadth-first queue
            for w in adjacent[u]:
                if w not in rank:
                    rank[w] = len(rank)
                    queue.append(w)
    order = sorted(rank, key=lambda v: (degree[v], rank[v]))
    label = {v: i for i, v in enumerate(order)}
    n = len(order)
    if directed:
        codes = [label[u] * n + label[v] for u, v in pairs]
    else:
        codes = [min(label[u], label[v]) * n + max(label[u], label[v]) for u, v in pairs]
    codes.sort()
    return tuple(codes), n


def _contract(g: Multigraph, at: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """Splice chains through forced vertices: (branching ends of each chain, closed cycles).

    A vertex is forced when it has exactly two half-edges (d_v = 1 directed,
    degree 2 undirected); a chain enters it on one and leaves on the other.
    Directed chains are followed from their tails only, so each records its
    ends tail first.
    """
    ends = list(itertools.chain.from_iterable(g.edges))  # half-edge h sits at ends[h]
    forced = [len(halves) == 2 for halves in at]
    other = [-1] * len(ends)  # the other half-edge at a forced vertex
    for halves in at:
        if len(halves) == 2:
            a, b = halves
            other[a], other[b] = b, a
    used = bytearray(g.edge_count)
    pairs = []
    step = 2 if isinstance(g, DirectedMultigraph) else 1
    for start in range(0, len(ends), step):
        u = ends[start]
        if not forced[u] and not used[start >> 1]:  # follow the chain leaving a branching vertex
            used[start >> 1] = 1
            h = start ^ 1
            while forced[ends[h]]:
                h = other[h]
                used[h >> 1] = 1
                h ^= 1
            pairs.append((u, ends[h]))
    closed = 0
    for e in range(g.edge_count):
        if not used[e]:  # a cycle through forced vertices only
            closed += 1
            used[e] = 1
            h = other[2 * e + 1]
            while not used[h >> 1]:
                used[h >> 1] = 1
                h = other[h ^ 1]
    return pairs, closed


def _split_directed(key: tuple[int, ...], n: int) -> list[_Move]:
    """Pair the first in-edge a -> v of the split vertex v with each out-edge v -> b."""
    v = key[0] // n
    first = next(c for c in key if c % n == v)
    a = first // n
    moves: list[_Move] = []
    if a == v:
        moves.append(((first,), None, 1, 1))  # the loop continues into itself
    for c, copies in Counter(key[:bisect_left(key, (v + 1) * n)]).items():
        if c == first:
            copies -= 1  # the loop itself is taken
        if copies:
            moves.append(((first, c), a * n + c % n, 0, copies))
    return moves


def _split_undirected(key: tuple[int, ...], n: int) -> list[_Move]:
    """Pair one half-edge of key[0] = {v, a} at v with each other half-edge at v."""
    first = key[0]
    v, a = divmod(first, n)
    moves: list[_Move] = []
    if a == v:
        moves.append(((first,), None, 1, 1))  # the loop's two halves paired together
    for c, copies in Counter(key[:bisect_left(key, (v + 1) * n)]).items():
        if c == first:
            copies -= 1  # the chosen half-edge itself is taken
        if copies:
            b = c % n
            halves = 2 if b == v else 1  # a loop offers either half
            moves.append(((first, c), min(a, b) * n + max(a, b), 0, copies * halves))
    return moves


def _sweep(key: tuple[int, ...], n: int, split: Callable[[tuple[int, ...], int], list[_Move]],
           guard: int) -> list[int]:
    """Coefficients of the partition polynomial of the core graph `key`.

    Every move removes exactly one edge, so all states of a layer have the
    same key length and each layer feeds only the next. A state's value is
    the polynomial summed over the paths that reach it from the start.
    """
    layer = {key: [1]}
    work = 0
    for _ in range(len(key)):
        following: dict[tuple[int, ...], list[int]] = {}
        for state, weight in layer.items():
            moves = split(state, n)
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
                acc = following.setdefault(tuple(rest), [])
                if len(acc) < len(weight) + shift:
                    acc.extend([0] * (len(weight) + shift - len(acc)))
                for i, c in enumerate(weight, shift):
                    acc[i] += copies * c
        layer = following
    return layer[()]


def circuit_partition_polynomial(g: Multigraph, guard: int | None = None) -> IntPolynomial:
    """The generating polynomial sum_t r_t z^t of circuit partitions.

    The edgeless graph yields the constant polynomial 1: its single (empty)
    partition has zero circuits, which keeps the disjoint-union product law
    and the moment identities valid in the degenerate case. `guard` caps the
    work units of the splitting sweep (see the module docstring).
    """
    guard = DEFAULT_ENUMERATION_GUARD if guard is None else guard
    require_eulerian(g)
    directed = isinstance(g, DirectedMultigraph)
    at = g.half_edges()
    pairs, closed = _contract(g, at)
    key, n = _core_key(pairs, [len(halves) for halves in at], directed)
    coeffs = _sweep(key, n, _split_directed if directed else _split_undirected, guard)
    return IntPolynomial((0,) * closed + tuple(coeffs), "directed" if directed else "undirected")
