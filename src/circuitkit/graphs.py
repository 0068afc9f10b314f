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
from typing import Iterable

from .errors import GraphFormatError, NotEulerianError

JSON_SCHEMA = "circuitkit/1"


@dataclass(frozen=True)
class DirectedMultigraph:
    """Directed multigraph as an ordered edge list of (tail, head) pairs."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.vertex_count} vertices")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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

        In-slot i of vertex v is ins[v][i] and out-slot j is outs[v][j]; the
        transition systems, the contraction oracle and the medial wirings all
        index slots this way.
        """
        ins: list[list[int]] = [[] for _ in range(self.vertex_count)]
        outs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            outs[u].append(e)
            ins[v].append(e)
        return ins, outs

    def reversed_edges(self) -> "DirectedMultigraph":
        """The graph with every edge direction flipped (edge order kept)."""
        return DirectedMultigraph(self.vertex_count, tuple((v, u) for u, v in self.edges))


@dataclass(frozen=True)
class UndirectedMultigraph:
    """Undirected multigraph; edge i owns half-edges 2i (first endpoint) and 2i+1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
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
        """Endpoint vertex of half-edge h (2i sits at edges[i][0], 2i+1 at edges[i][1])."""
        return self.edges[h // 2][h % 2]

    def half_edges_at(self, v: int) -> tuple[int, ...]:
        """Half-edge ids incident to v, ascending; a self-loop contributes both of its ids."""
        return tuple(self.slots()[v])

    def slots(self) -> list[list[int]]:
        """Half-edge ids incident to each vertex, ascending, in one pass over the edges."""
        at: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for h, v in enumerate(x for edge in self.edges for x in edge):
            at[v].append(h)
        return at

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.vertex_count
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)


Multigraph = DirectedMultigraph | UndirectedMultigraph


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


def _split_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, content) for every physical line."""
    return list(enumerate(text.split("\n"), start=1))


def parse_graph_file(text: str) -> tuple[str, Multigraph, tuple[tuple[int, ...], ...] | None]:
    """Parse any of the three file kinds.

    Returns (kind, graph, rotations); rotations is None unless kind == "planar".
    The planar rotations are validated structurally here (every dart appears
    exactly once, at the vertex owning it); whether they describe a plane
    embedding is the planar module's Euler check.
    """
    lines = _split_lines(text)
    cursor = 0

    def next_content_line(allow_blank: bool = False) -> tuple[int, str] | None:
        nonlocal cursor
        while cursor < len(lines):
            lineno, raw = lines[cursor]
            cursor += 1
            stripped = raw.strip()
            if stripped.startswith("#"):
                continue
            if not stripped and not allow_blank:
                continue
            return lineno, stripped
        return None

    header = next_content_line()
    if header is None:
        raise GraphFormatError("empty file: expected a header line", 1)
    lineno, kind = header
    if kind not in _KINDS:
        raise GraphFormatError(f"unknown graph kind {kind!r} (expected one of {', '.join(_KINDS)})", lineno)

    counts = next_content_line()
    if counts is None:
        raise GraphFormatError("missing '<n> <m>' line", lines[-1][0])
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
            raise GraphFormatError(f"expected {m} edges, found only {i}", lines[-1][0])
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

    rotations: tuple[tuple[int, ...], ...] | None = None
    if kind == "planar":
        rotations = _parse_rotations(n, edges, next_content_line, lines)

    trailing = next_content_line()
    if trailing is not None:
        raise GraphFormatError(
            f"unexpected extra content {trailing[1]!r} (wrong edge count in header?)", trailing[0]
        )

    if kind == "directed":
        return kind, DirectedMultigraph(n, tuple(edges)), None
    return kind, UndirectedMultigraph(n, tuple(edges)), rotations


def _parse_rotations(n, edges, next_content_line, lines) -> tuple[tuple[int, ...], ...]:
    dart_home = {}
    for i, (u, v) in enumerate(edges):
        dart_home[2 * i] = u
        dart_home[2 * i + 1] = v
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1

    rotations: list[tuple[int, ...]] = []
    seen: dict[int, int] = {}
    for v in range(n):
        # Degree-0 vertices may omit their (empty) rotation line at EOF;
        # otherwise a blank line stands for the empty rotation.
        entry = next_content_line(allow_blank=True)
        if entry is None:
            if degree[v] == 0:
                rotations.append(())
                continue
            raise GraphFormatError(f"missing rotation line for vertex {v}", lines[-1][0])
        lineno, content = entry
        try:
            darts = tuple(int(f) for f in content.split())
        except ValueError:
            raise GraphFormatError(f"rotation for vertex {v} is not a list of ints: {content!r}", lineno) from None
        for d in darts:
            if d not in dart_home:
                raise GraphFormatError(f"dart {d} out of range [0, {2 * len(edges)})", lineno)
            if dart_home[d] != v:
                raise GraphFormatError(f"dart {d} belongs to vertex {dart_home[d]}, not {v}", lineno)
            if d in seen:
                raise GraphFormatError(f"dart {d} already listed on line {seen[d]}", lineno)
            seen[d] = lineno
        if len(darts) != degree[v]:
            raise GraphFormatError(
                f"vertex {v} has degree {degree[v]} but rotation lists {len(darts)} darts", lineno
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
