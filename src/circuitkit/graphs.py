"""Multigraph data types and Record, the immutable value base they share
with the polynomial and map types; the random-vector ensembles that pair
with the graph kinds; degree checks, components, the cycles of a permutation
of half-edges, sweep_plan, the vertex order and step tables of the three
exact sweeps, and text parsing and serialization.

Every command loads this module, so it imports only what start-up already
loads or what is cheap: no dataclasses, whose import of inspect would cost
each command several milliseconds.

Vertices are 0-indexed everywhere. Edge order is semantic: edge i owns
half-edge (dart) ids 2i and 2i+1, which downstream modules rely on, so
parsing and serialization preserve the listed edge order exactly.

File format (UTF-8, line-oriented):

    line 1:       "directed" | "undirected" | "planar"
    line 2:       "<n> <m>"
    next m lines: "<tail> <head>"  (directed)  or  "<u> <v>"  (otherwise)
    planar only,
    next n lines: vertex v's counterclockwise rotation of incident dart ids

Each line is stripped of surrounding whitespace, a carriage return included;
its fields are split on any run of whitespace and read by int(), so "+1" and
"1_0" are integers. A line whose first non-blank character is '#' is a
comment, and a '#' anywhere else is an error. Blank lines are skipped,
except that a blank line in the rotation block is an empty rotation (and
vertices without darts at the end of the file may omit theirs).

Self-loops and parallel edges are permitted; a directed self-loop adds one
to both the in- and the out-degree, an undirected one adds two to the degree.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GraphFormatError, NotEulerianError


class Ensemble(str, Enum):
    """Random-vector ensemble the moment q(G;k) is taken over."""

    COMPLEX_SPHERE = "complex-sphere"
    REAL_SPHERE = "real-sphere"
    COMPLEX_GAUSSIAN = "complex-gaussian"
    REAL_GAUSSIAN = "real-gaussian"

    @property
    def is_complex(self) -> bool:
        return self in (Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN)

    @property
    def is_gaussian(self) -> bool:
        return self in (Ensemble.COMPLEX_GAUSSIAN, Ensemble.REAL_GAUSSIAN)

    @property
    def sphere(self) -> Ensemble:
        """The sphere ensemble of the same field."""
        return Ensemble.COMPLEX_SPHERE if self.is_complex else Ensemble.REAL_SPHERE


class Record:
    """Base of the immutable value types: graphs, polynomials and maps.

    A subclass lists its fields in _fields (and __slots__) and sets each
    once, through _set: in __init__, or in a constructor that skips its
    checks and makes the instance by object.__new__ (Multigraph._of_checked).
    Assignment and deletion are refused. Two records are equal when they are
    of the same class and their fields are equal, so a directed graph never
    equals an undirected one on the same edges. They hash by their fields,
    and copy and pickle by calling the class on them again. A subclass may
    keep derived slots beyond _fields (in __slots__ only): they are set with
    the fields, from them, and never compared, hashed or printed.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        """Set each named field or derived slot, once, as it is built."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Multigraph(Record):
    """Ordered edge list over vertices 0..n-1; the base of both graph kinds.

    Edge e owns half-edge 2e at edges[e][0] (the tail of a directed edge) and
    half-edge 2e+1 at edges[e][1] (its head). Counts and endpoints pass
    operator.index: a float, string or Fraction raises TypeError.
    """

    __slots__ = _fields = ("vertex_count", "edges")
    kind: str  # "directed" or "undirected", the header and JSON name; set by each graph kind
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if type(self) is Multigraph:
            raise TypeError("construct a DirectedMultigraph or an UndirectedMultigraph")
        vertex_count = index(vertex_count)
        edges = tuple((index(u), index(v)) for u, v in edges)
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        self._set(vertex_count=vertex_count, edges=edges)

    @classmethod
    def _of_checked(cls, vertex_count: int, edges: tuple[tuple[int, int], ...]) -> Multigraph:
        """The graph cls(vertex_count, edges) is, made without its checks: for
        the file parser, which has checked each end (an int in range) in bulk."""
        graph = object.__new__(cls)
        graph._set(vertex_count=vertex_count, edges=edges)
        return graph

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def half_edge_count(self) -> int:
        return 2 * len(self.edges)

    def half_edge_vertex(self, h: int) -> int:
        """Endpoint vertex of half-edge h (2e sits at edges[e][0], 2e+1 at edges[e][1])."""
        return self.edges[h // 2][h % 2]

    def half_edges(self) -> dict[int, list[int]]:
        """The slot table: the half-edge ids at each vertex that has any, in
        slot order, so its cost follows m, not n.

        An undirected vertex lists its ids ascending, a loop giving both. A
        directed vertex lists its heads (odd ids, ascending) first, its
        in-slots and upper tensor indices, then its tails (even ids,
        ascending), its out-slots and lower indices. The transition systems
        and the contraction oracle read their slots from this table.
        """
        ids = range(self.half_edge_count)
        if isinstance(self, DirectedMultigraph):
            ids = [*ids[1::2], *ids[::2]]
        edges = self.edges
        at: dict[int, list[int]] = {}
        for h in ids:
            at.setdefault(edges[h >> 1][h & 1], []).append(h)
        return at

    def degrees(self) -> tuple[int, ...]:
        """Half-edges at each vertex, a loop counting twice: the degree of an
        undirected vertex, in- plus out-degree of a directed one.

        On an Eulerian graph of either kind, degrees()[v] // 2 is d_v, the
        power of x_v that the vertex's edges contract: the in-degree of a
        directed vertex, half the degree of an undirected one.
        """
        counts = self.degree_counts()
        return tuple(map(counts.get, range(self.vertex_count), repeat(0)))

    def degree_counts(self) -> Counter[int]:
        """degrees() over the vertices that have half-edges only, in order of
        their first edge end, so its cost follows m, not n."""
        return Counter(chain.from_iterable(self.edges))


class DirectedMultigraph(Multigraph):
    """Directed multigraph as an ordered edge list of (tail, head) pairs."""

    __slots__ = ()
    kind = "directed"


class UndirectedMultigraph(Multigraph):
    """Undirected multigraph; edge e owns half-edges 2e (first endpoint) and 2e+1."""

    __slots__ = ()
    kind = "undirected"


class EulerianReport(NamedTuple):
    """Outcome of the degree-balance check.

    For directed graphs offending_vertices holds (vertex, in_degree, out_degree)
    triples with in != out; for undirected graphs, (vertex, degree) pairs with
    odd degree.
    """

    is_eulerian: bool
    offending_vertices: tuple[tuple[int, ...], ...]

    def describe(self) -> str:
        if self.is_eulerian:
            return "eulerian"
        parts = []
        for entry in self.offending_vertices:
            if len(entry) == 3:
                v, din, dout = entry
                parts.append(f"vertex {v}: in={din} out={dout}")
            else:
                v, deg = entry
                parts.append(f"vertex {v}: degree {deg} is odd")
        return "; ".join(parts)


def eulerian_check(g: Multigraph) -> EulerianReport:
    """Degree balance only; connectivity is not required (circuit partitions
    are defined per component). Only an unbalanced graph's vertices are walked."""
    excess = [0] * g.vertex_count  # out- less in-degree, or the parity of the degree
    directed = isinstance(g, DirectedMultigraph)
    if directed:
        for u, v in g.edges:
            excess[u] += 1
            excess[v] -= 1
    else:
        for u, v in g.edges:
            excess[u] ^= 1
            excess[v] ^= 1
    if excess.count(0) == len(excess):  # one C pass, which allocates nothing
        return EulerianReport(True, ())
    degs = g.degrees()  # a directed in-degree is (degree - excess) / 2
    return EulerianReport(False, tuple((v, (degs[v] - excess[v]) // 2, (degs[v] + excess[v]) // 2) if directed
                                       else (v, degs[v]) for v in compress(range(g.vertex_count), excess)))


def require_eulerian(g: Multigraph) -> None:
    """Raise NotEulerianError, citing the offending vertices, unless g is balanced."""
    report = eulerian_check(g)
    if not report.is_eulerian:
        raise NotEulerianError(f"graph is not Eulerian: {report.describe()}", report)


def edge_components(edges: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The root of each vertex that `edges` touch, in order of its first edge
    end: two vertices share a root exactly when edges join them.

    One union-find over the edge ends, so it costs O(m) and never visits an
    isolated vertex.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in edges:
        ru, rv = find(parent.setdefault(u, u)), find(parent.setdefault(v, v))
        if ru != rv:
            parent[rv] = ru
    return {v: find(v) for v in parent}


def component_count(g: UndirectedMultigraph) -> int:
    """Connected components of g; isolated vertices count."""
    roots = edge_components(g.edges)
    return g.vertex_count - len(roots) + len(set(roots.values()))


def permutation_cycles(successor: Sequence[int]) -> list[tuple[int, ...]]:
    """Orbits of a permutation of range(len(successor)), each starting at its
    least element and listed in order of that element.

    The faces of a map, the circuits of a transition system or of a medial
    subset wiring, and the loops of a diagram are all read from this walk.
    """
    seen = [False] * len(successor)
    cycles = []
    for start in range(len(successor)):
        if seen[start]:
            continue
        cycle = []
        h = start
        while not seen[h]:
            seen[h] = True
            cycle.append(h)
            h = successor[h]
        cycles.append(tuple(cycle))
    return cycles


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)...; by convention 0!! = (-1)!! = 1."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


class SweepPlan(NamedTuple):
    """The vertex order every exact sweep walks, and the edges each step meets.

    Step i places order[i]. closes[i] lists (edge, earlier step) for each
    edge whose later end step i places, a loop closing at its own step;
    opens[i] lists (edge, later step) for each edge from step i to a later
    one. Both list edges in ascending index.
    """

    order: list[int]
    closes: list[list[tuple[int, int]]]
    opens: list[list[tuple[int, int]]]


def sweep_plan(edges: Sequence[tuple[int, int]]) -> SweepPlan:
    """The plan of the vertices that `edges` touch, in maximum-adjacency
    order: each next the one with the most edges into those placed, ties to
    the least half-edge count, then the least id.

    Edge direction is ignored; a heap with lazily dropped stale entries keeps
    this O(m log m). The j engine splits, the contraction oracle absorbs and
    the Tutte sweep places vertices in this order: it changes their cost,
    never their values.
    """
    ends: dict[int, list[int]] = {}  # the other end of each half-edge at a vertex
    for u, v in edges:
        ends.setdefault(u, []).append(v)
        ends.setdefault(v, []).append(u)
    links = dict.fromkeys(ends, 0)  # edges from each vertex into the placed set
    heap = [(0, len(others), v) for v, others in ends.items()]
    heapify(heap)
    order: list[int] = []
    while heap:
        negated, _, v = heappop(heap)
        if links[v] < 0 or -negated != links[v]:
            continue  # stale: v was placed or gained links since this entry
        links[v] = -1  # placed
        order.append(v)
        for w in ends[v]:
            if links[w] >= 0:
                links[w] += 1
                heappush(heap, (-links[w], len(ends[w]), w))
    step = {v: i for i, v in enumerate(order)}
    closes: list[list[tuple[int, int]]] = [[] for _ in order]
    opens: list[list[tuple[int, int]]] = [[] for _ in order]
    for e, (u, v) in enumerate(edges):
        a, b = sorted((step[u], step[v]))
        closes[b].append((e, a))
        if a < b:
            opens[a].append((e, b))
    return SweepPlan(order, closes, opens)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_KINDS = ("directed", "undirected", "planar")


def _content_lines(lines: list[str], start: int = 0) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped content) of each of lines[start:] that is not a '#' comment."""
    for lineno, line in enumerate(lines[start:], start + 1):
        content = line.strip()
        if content[:1] != "#":
            yield lineno, content


def header_line(text: str) -> int:
    """Line number of the kind header, the first line with content (1 if there is none)."""
    return next((lineno for lineno, content in _content_lines(text.split("\n")) if content), 1)


def parse_graph_file(text: str) -> tuple[str, Multigraph, tuple[tuple[int, ...], ...] | None]:
    """Parse any of the three file kinds.

    Returns (kind, graph, rotations); rotations is None unless kind == "planar".
    The planar rotations are validated structurally here by check_rotation
    (every dart appears exactly once, at the vertex owning it); whether they
    describe a plane embedding is the planar module's Euler check.
    """
    lines = text.split("\n")
    last_line = len(lines)
    unread = _content_lines(lines)

    def next_content_line(allow_blank: bool = False) -> tuple[int, str] | None:
        for lineno, content in unread:
            if content or allow_blank:
                return lineno, content
        return None

    header = next_content_line()
    if header is None:
        raise GraphFormatError("empty file: expected a header line", 1)
    lineno, kind = header
    if kind not in _KINDS:
        raise GraphFormatError(f"unknown graph kind {kind!r} (expected one of {', '.join(_KINDS)})", lineno)

    counts = next_content_line()
    if counts is None:
        raise GraphFormatError("missing '<n> <m>' line", last_line)
    n, m = _two_ints(*counts, "<n> <m>")
    if n < 0 or m < 0:
        raise GraphFormatError("vertex and edge counts must be nonnegative", counts[0])

    # The edge block is read in bulk when its next m lines are all edges; else
    # (or on a fault) its m content lines are walked, to name the first fault.
    start = counts[0]  # the index of the line after the counts
    block = lines[start:start + m]
    ends = None
    if len(block) == m and set(map(len, map(str.split, block))) <= {2}:  # no split line kept
        try:
            ends = list(map(int, " ".join(block).split()))
        except ValueError:
            pass
    if ends is not None and (not ends or 0 <= min(ends) and max(ends) < n):
        edges = tuple(zip(ends[::2], ends[1::2]))
        unread = _content_lines(lines, start + m)
    else:
        walked: list[tuple[int, int]] = []
        for i in range(m):
            entry = next_content_line()
            if entry is None:
                raise GraphFormatError(f"expected {m} edges, found only {i}", last_line)
            u, v = _two_ints(*entry, "<u> <v>")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex index out of range [0, {n}) in edge ({u}, {v})", entry[0])
            walked.append((u, v))
        edges = tuple(walked)
    graph = (DirectedMultigraph if kind == "directed" else UndirectedMultigraph)._of_checked(n, edges)
    rotations = _parse_rotations(graph, next_content_line, last_line) if kind == "planar" else None

    trailing = next_content_line()
    if trailing is not None:
        raise GraphFormatError(
            f"unexpected extra content {trailing[1]!r} (wrong edge count in header?)", trailing[0]
        )
    return kind, graph, rotations


def _two_ints(lineno: int, content: str, shape: str) -> tuple[int, int]:
    fields = content.split()
    if len(fields) != 2:
        raise GraphFormatError(f"expected {shape!r}, got {content!r}", lineno)
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"expected two integers, got {content!r}", lineno) from None


def _parse_rotations(g: UndirectedMultigraph, next_content_line, last_line: int) -> tuple[tuple[int, ...], ...]:
    rotations: list[tuple[int, ...]] = []
    for v, degree in enumerate(g.degrees()):
        # Degree-0 vertices may omit their (empty) rotation line at EOF;
        # otherwise a blank line stands for the empty rotation.
        entry = next_content_line(allow_blank=True)
        if entry is None:
            if not degree:
                rotations.append(())
                continue
            raise GraphFormatError(f"missing rotation line for vertex {v}", last_line)
        lineno, content = entry
        try:
            darts = tuple(int(f) for f in content.split())
        except ValueError:
            raise GraphFormatError(f"rotation for vertex {v} is not a list of ints: {content!r}", lineno) from None
        check_rotation(g, v, darts, degree, lineno)
        rotations.append(darts)
    return tuple(rotations)


def check_rotation(g: UndirectedMultigraph, v: int, darts: tuple[int, ...], degree: int,
                   line: int | None = None) -> None:
    """Raise GraphFormatError (citing `line`, if given) unless `darts` lists
    each of the `degree` half-edges at vertex v of g exactly once.

    The file parser and PlanarMap both validate rotations here. A dart is
    accepted only at its own vertex, so a repeated dart is always repeated
    within one rotation.
    """
    listed: set[int] = set()
    for d in darts:
        if not 0 <= d < g.half_edge_count:
            raise GraphFormatError(f"dart {d} out of range [0, {g.half_edge_count})", line)
        if g.half_edge_vertex(d) != v:
            raise GraphFormatError(f"dart {d} belongs to vertex {g.half_edge_vertex(d)}, not {v}", line)
        if d in listed:
            raise GraphFormatError(f"dart {d} already listed", line)
        listed.add(d)
    if len(darts) != degree:
        raise GraphFormatError(f"vertex {v} has degree {degree} but rotation lists {len(darts)} darts", line)


def parse_graph(text: str) -> Multigraph:
    """Parse a graph file; planar files yield their underlying undirected graph.

    The full planar map (graph plus rotation system) is recovered with
    planar.parse_planar_map.
    """
    _, graph, _ = parse_graph_file(text)
    return graph


def serialize_graph(g: Multigraph) -> str:
    lines = [g.kind, f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
