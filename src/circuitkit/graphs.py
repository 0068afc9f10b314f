"""Multigraph data types, degree checks, components, and text/JSON parsing.

Vertices are 0-indexed everywhere. Edge order is semantic: edge i owns
half-edge (dart) ids 2i and 2i+1, which downstream modules rely on, so
parsing and serialization preserve the listed edge order exactly.

File format (UTF-8, line-oriented, '#' starts a comment line):

    line 1:       "directed" | "undirected" | "planar"
    line 2:       "<n> <m>"
    next m lines: "<tail> <head>"  (directed)  or  "<u> <v>"  (otherwise)
    planar only,
    next n lines: vertex v's counterclockwise rotation of incident dart ids

Self-loops and parallel edges are permitted; a directed self-loop adds one
to both the in- and the out-degree, an undirected one adds two to the degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GraphFormatError, NotEulerianError

JSON_SCHEMA = "circuitkit/1"


@dataclass(frozen=True)
class Multigraph:
    """Ordered edge list over vertices 0..n-1; the base of both graph kinds.

    Edge e owns half-edge 2e at edges[e][0] (the tail of a directed edge) and
    half-edge 2e+1 at edges[e][1] (its head).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self) is Multigraph:
            raise TypeError("construct a DirectedMultigraph or an UndirectedMultigraph")
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.vertex_count} vertices")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def half_edge_count(self) -> int:
        return 2 * len(self.edges)

    def half_edge_vertex(self, h: int) -> int:
        """Endpoint vertex of half-edge h (2e sits at edges[e][0], 2e+1 at edges[e][1])."""
        return self.edges[h // 2][h % 2]

    def half_edges(self) -> list[list[int]]:
        """Half-edge ids at each vertex, ascending, in one pass over the edges.

        A loop contributes both of its ids. The engine's contraction, the
        transition systems, the contraction oracle and the rotation parser
        all read incidence from this table.
        """
        at: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            at[u].append(2 * e)
            at[v].append(2 * e + 1)
        return at

    def half_edges_at(self, v: int) -> tuple[int, ...]:
        """Half-edge ids incident to v, ascending."""
        return tuple(self.half_edges()[v])


class DirectedMultigraph(Multigraph):
    """Directed multigraph as an ordered edge list of (tail, head) pairs."""

    def in_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.vertex_count
        for _, v in self.edges:
            degs[v] += 1
        return tuple(degs)

    def out_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.vertex_count
        for u, _ in self.edges:
            degs[u] += 1
        return tuple(degs)

    def slots(self) -> tuple[list[list[int]], list[list[int]]]:
        """(incoming, outgoing) edge indices per vertex, in file order.

        Read off half_edges(): the heads (odd ids) at v are its in-slots and
        the tails (even ids) its out-slots. In-slot i of vertex v is ins[v][i]
        and out-slot j is outs[v][j]; the transition systems and the medial
        wirings index slots this way.
        """
        at = self.half_edges()
        ins = [[h >> 1 for h in halves if h & 1] for halves in at]
        outs = [[h >> 1 for h in halves if not h & 1] for halves in at]
        return ins, outs

    def reversed_edges(self) -> "DirectedMultigraph":
        """The graph with every edge direction flipped (edge order kept)."""
        return DirectedMultigraph(self.vertex_count, tuple((v, u) for u, v in self.edges))


class UndirectedMultigraph(Multigraph):
    """Undirected multigraph; edge e owns half-edges 2e (first endpoint) and 2e+1."""

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.vertex_count
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)


@dataclass(frozen=True)
class EulerianReport:
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
    are defined per component)."""
    offending: list[tuple[int, ...]] = []
    if isinstance(g, DirectedMultigraph):
        ins, outs = g.in_degrees(), g.out_degrees()
        for v in range(g.vertex_count):
            if ins[v] != outs[v]:
                offending.append((v, ins[v], outs[v]))
    else:
        for v, deg in enumerate(g.degrees()):
            if deg % 2 != 0:
                offending.append((v, deg))
    return EulerianReport(not offending, tuple(offending))


def require_eulerian(g: Multigraph) -> None:
    """Raise NotEulerianError, citing the offending vertices, unless g is balanced."""
    report = eulerian_check(g)
    if not report.is_eulerian:
        raise NotEulerianError(f"graph is not Eulerian: {report.describe()}", report)


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def component_count(g: UndirectedMultigraph, edge_subset: Iterable[int] | None = None) -> int:
    """Connected components of the spanning subgraph (V, S); isolated vertices count.

    edge_subset is a set of edge indices; None means all edges.
    """
    dsu = _DisjointSet(g.vertex_count)
    indices = range(g.edge_count) if edge_subset is None else edge_subset
    for i in indices:
        u, v = g.edges[i]
        dsu.union(u, v)
    return len({dsu.find(v) for v in range(g.vertex_count)})


def disjoint_union(g1: Multigraph, g2: Multigraph) -> Multigraph:
    """Side-by-side union with g2's vertices shifted past g1's."""
    if type(g1) is not type(g2):
        raise TypeError("cannot union a directed with an undirected multigraph")
    shift = g1.vertex_count
    edges = g1.edges + tuple((u + shift, v + shift) for u, v in g2.edges)
    return type(g1)(g1.vertex_count + g2.vertex_count, edges)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_KINDS = ("directed", "undirected", "planar")


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped content) of every line that is not a '#' comment."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped.startswith("#"):
            yield lineno, stripped


def header_line(text: str) -> int:
    """Line number of the kind header, the first line with content (1 if there is none)."""
    return next((lineno for lineno, content in _content_lines(text) if content), 1)


def parse_graph_file(text: str) -> tuple[str, Multigraph, tuple[tuple[int, ...], ...] | None]:
    """Parse any of the three file kinds.

    Returns (kind, graph, rotations); rotations is None unless kind == "planar".
    The planar rotations are validated structurally here (every dart appears
    exactly once, at the vertex owning it); whether they describe a plane
    embedding is the planar module's Euler check.
    """
    lines = _content_lines(text)
    last_line = text.count("\n") + 1

    def next_content_line(allow_blank: bool = False) -> tuple[int, str] | None:
        for lineno, content in lines:
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
    lineno, content = counts
    fields = content.split()
    if len(fields) != 2:
        raise GraphFormatError(f"expected '<n> <m>', got {content!r}", lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"expected two integers, got {content!r}", lineno) from None
    if n < 0 or m < 0:
        raise GraphFormatError("vertex and edge counts must be nonnegative", lineno)

    edges: list[tuple[int, int]] = []
    for i in range(m):
        entry = next_content_line()
        if entry is None:
            raise GraphFormatError(f"expected {m} edges, found only {i}", last_line)
        lineno, content = entry
        fields = content.split()
        if len(fields) != 2:
            raise GraphFormatError(f"expected '<u> <v>', got {content!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"expected two integers, got {content!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex index out of range [0, {n}) in edge ({u}, {v})", lineno)
        edges.append((u, v))

    graph = (DirectedMultigraph if kind == "directed" else UndirectedMultigraph)(n, tuple(edges))
    rotations = _parse_rotations(graph, next_content_line, last_line) if kind == "planar" else None

    trailing = next_content_line()
    if trailing is not None:
        raise GraphFormatError(
            f"unexpected extra content {trailing[1]!r} (wrong edge count in header?)", trailing[0]
        )
    return kind, graph, rotations


def _parse_rotations(g: UndirectedMultigraph, next_content_line, last_line: int) -> tuple[tuple[int, ...], ...]:
    rotations: list[tuple[int, ...]] = []
    seen: dict[int, int] = {}
    for v, halves in enumerate(g.half_edges()):
        # Degree-0 vertices may omit their (empty) rotation line at EOF;
        # otherwise a blank line stands for the empty rotation.
        entry = next_content_line(allow_blank=True)
        if entry is None:
            if not halves:
                rotations.append(())
                continue
            raise GraphFormatError(f"missing rotation line for vertex {v}", last_line)
        lineno, content = entry
        try:
            darts = tuple(int(f) for f in content.split())
        except ValueError:
            raise GraphFormatError(f"rotation for vertex {v} is not a list of ints: {content!r}", lineno) from None
        for d in darts:
            if not 0 <= d < g.half_edge_count:
                raise GraphFormatError(f"dart {d} out of range [0, {g.half_edge_count})", lineno)
            if g.half_edge_vertex(d) != v:
                raise GraphFormatError(f"dart {d} belongs to vertex {g.half_edge_vertex(d)}, not {v}", lineno)
            if d in seen:
                raise GraphFormatError(f"dart {d} already listed on line {seen[d]}", lineno)
            seen[d] = lineno
        if len(darts) != len(halves):
            raise GraphFormatError(
                f"vertex {v} has degree {len(halves)} but rotation lists {len(darts)} darts", lineno
            )
        rotations.append(darts)
    return tuple(rotations)


def parse_graph(text: str) -> Multigraph:
    """Parse a graph file; planar files yield their underlying undirected graph.

    The full planar map (graph plus rotation system) is recovered with
    planar.parse_planar_map.
    """
    _, graph, _ = parse_graph_file(text)
    return graph


def serialize_graph(g: Multigraph) -> str:
    kind = "directed" if isinstance(g, DirectedMultigraph) else "undirected"
    lines = [kind, f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON mirror
# ---------------------------------------------------------------------------

def graph_to_json_dict(g: Multigraph) -> dict:
    return {
        "schema": JSON_SCHEMA,
        "kind": "directed" if isinstance(g, DirectedMultigraph) else "undirected",
        "vertex_count": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges],
    }


def graph_from_json_dict(data: dict) -> Multigraph:
    kind = data["kind"]
    edges = tuple((int(u), int(v)) for u, v in data["edges"])
    if kind == "directed":
        return DirectedMultigraph(int(data["vertex_count"]), edges)
    if kind == "undirected":
        return UndirectedMultigraph(int(data["vertex_count"]), edges)
    raise ValueError(f"unknown kind {kind!r}")


def graph_to_json(g: Multigraph) -> str:
    return json.dumps(graph_to_json_dict(g))


def graph_from_json(text: str) -> Multigraph:
    return graph_from_json_dict(json.loads(text))
