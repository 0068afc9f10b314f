"""Combinatorial maps, medial graphs, the Tutte subset expansion, and the
Martin identity tying them to circuit partitions.

A map stores, for each vertex, the counterclockwise cyclic order of its
incident darts (dart ids are the half-edge ids 2i, 2i+1 of edge i; the twin
of dart d is d ^ 1). The face containing dart d continues at the
rotation-successor of twin(d); a rotation system is accepted as a plane
embedding exactly when the face count satisfies n - m + f = 1 + c(G).

The oriented medial graph has one vertex per edge of the underlying graph
and one directed edge per consecutive dart pair inside a face, so every
medial vertex has in- and out-degree 2 and the medial graph is Eulerian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import EmbeddingError, GraphFormatError, GuardExceededError
from .graphs import (
    JSON_SCHEMA,
    DirectedMultigraph,
    UndirectedMultigraph,
    component_count,
    header_line,
    parse_graph_file,
)
from .partition import TransitionSystem, circuit_count, circuit_partition_polynomial

DEFAULT_SUBSET_GUARD = 2**24


@dataclass(frozen=True)
class PlanarMap:
    """Undirected multigraph plus a rotation system over its darts."""

    graph: UndirectedMultigraph
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rotation", tuple(tuple(r) for r in self.rotation))
        g = self.graph
        if len(self.rotation) != g.vertex_count:
            raise ValueError("one rotation per vertex required")
        seen: set[int] = set()
        for v, rot in enumerate(self.rotation):
            for d in rot:
                if not (0 <= d < g.half_edge_count):
                    raise ValueError(f"dart {d} out of range")
                if g.half_edge_vertex(d) != v:
                    raise ValueError(f"dart {d} belongs to vertex {g.half_edge_vertex(d)}, not {v}")
                if d in seen:
                    raise ValueError(f"dart {d} appears twice")
                seen.add(d)
        if len(seen) != g.half_edge_count:
            raise ValueError("rotations do not cover every dart")

    @staticmethod
    def twin(d: int) -> int:
        return d ^ 1

    def dart_vertex(self, d: int) -> int:
        return self.graph.half_edge_vertex(d)

    def face_successor(self, d: int) -> int:
        t = d ^ 1
        rot = self.rotation[self.dart_vertex(t)]
        return rot[(rot.index(t) + 1) % len(rot)]

    def mirrored(self) -> "PlanarMap":
        """The reflected embedding (every rotation reversed)."""
        return PlanarMap(self.graph, tuple(tuple(reversed(r)) for r in self.rotation))


def faces(pmap: PlanarMap) -> tuple[tuple[int, ...], ...]:
    """Face orbits of the dart-successor rule, each starting at its least dart.

    Raises EmbeddingError when the orbit count violates the planar Euler
    relation n - m + f = 1 + c(G): the rotation system then describes an
    embedding in some higher-genus surface, not the plane.
    """
    g = pmap.graph
    succ = {d: pmap.face_successor(d) for d in range(g.half_edge_count)}
    visited: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for start in range(g.half_edge_count):
        if start in visited:
            continue
        orbit = []
        d = start
        while d not in visited:
            visited.add(d)
            orbit.append(d)
            d = succ[d]
        orbits.append(tuple(orbit))
    f = len(orbits)
    n, m = g.vertex_count, g.edge_count
    c = component_count(g)
    if n - m + f != 1 + c:
        raise EmbeddingError(
            f"rotation system is not a plane embedding: n - m + f = {n - m + f}, expected 1 + c = {1 + c}"
        )
    return tuple(orbits)


@dataclass(frozen=True)
class MedialGraph:
    """Oriented medial graph with, per medial edge, the dart of the underlying
    edge on whose side it leaves (tail) and arrives (head)."""

    graph: DirectedMultigraph
    tail_darts: tuple[int, ...]
    head_darts: tuple[int, ...]


def medial_graph_with_sides(pmap: PlanarMap) -> MedialGraph:
    """Medial graph plus side labels, needed for subset-driven wirings.

    Medial vertex i is edge i of the underlying graph. Each consecutive dart
    pair (d, d') inside a face yields the medial edge edge(d) -> edge(d'),
    which runs along side-dart d of its tail and side-dart d' of its head.
    """
    edges = []
    tails = []
    heads = []
    for orbit in faces(pmap):
        length = len(orbit)
        for i, d in enumerate(orbit):
            d_next = orbit[(i + 1) % length]
            edges.append((d // 2, d_next // 2))
            tails.append(d)
            heads.append(d_next)
    medial = DirectedMultigraph(pmap.graph.edge_count, tuple(edges))
    return MedialGraph(medial, tuple(tails), tuple(heads))


def medial_graph(pmap: PlanarMap) -> DirectedMultigraph:
    """The oriented medial graph (one vertex per edge, 2m directed edges)."""
    return medial_graph_with_sides(pmap).graph


@dataclass(frozen=True)
class SubsetExpansionTerm:
    """One edge subset S with its component count c(S) and excess
    l(S) = c(S) + |S| - n, the edges to delete to make each component a tree."""

    subset: tuple[int, ...]
    components: int
    excess: int


def subset_expansion_terms(g: UndirectedMultigraph, guard: int | None = None):
    """All 2^m terms of the rank-nullity expansion, in bitmask order."""
    guard = DEFAULT_SUBSET_GUARD if guard is None else guard
    m = g.edge_count
    if 2**m > guard:
        raise GuardExceededError("subset expansion refused", 2**m, guard)
    n = g.vertex_count
    for mask in range(2**m):
        subset = tuple(i for i in range(m) if mask >> i & 1)
        c_s = component_count(g, subset)
        yield SubsetExpansionTerm(subset, c_s, c_s + len(subset) - n)


def tutte_subset_expansion(g: UndirectedMultigraph, x, y, guard: int | None = None) -> Fraction:
    """Tutte polynomial value by the rank-nullity sum over all edge subsets.

    T(G;x,y) = sum over S of (x-1)^(c(S)-c(G)) (y-1)^(c(S)+|S|-n), with the
    0^0 = 1 convention for degenerate bases.
    """
    x = Fraction(x)
    y = Fraction(y)
    c_full = component_count(g)
    total = Fraction(0)
    for term in subset_expansion_terms(g, guard):
        total += (x - 1) ** (term.components - c_full) * (y - 1) ** term.excess
    return total


class MartinCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def martin_check(pmap: PlanarMap, z, enumeration_guard: int | None = None,
                 subset_guard: int | None = None) -> MartinCheck:
    """Evaluate both sides of j(G_m; z) = z^c(G) * T(G; z+1, z+1) exactly.

    The left side enumerates circuit partitions of the medial graph; the
    right side is the subset expansion of the underlying graph on the
    diagonal. Both are exact rationals, so equality is exact.
    """
    z = Fraction(z)
    j = circuit_partition_polynomial(medial_graph(pmap), guard=enumeration_guard)
    lhs = j.evaluate(z)
    g = pmap.graph
    rhs = z ** component_count(g) * tutte_subset_expansion(g, z + 1, z + 1, guard=subset_guard)
    return MartinCheck(lhs, rhs, lhs == rhs)


def subset_to_partition_circuits(pmap: PlanarMap, subset: Iterable[int]) -> int:
    """Circuit count of the medial transition system an edge subset selects.

    At the medial vertex over edge e, arrivals continue on the same side of e
    when e is in the subset and cross to the other side when it is not. The
    resulting count equals c(S) + (c(S) + |S| - n), the component count plus
    total excess of the spanning subgraph, which the tests verify subset by
    subset.
    """
    chosen = set(subset)
    medial = medial_graph_with_sides(pmap)
    g = medial.graph
    in_slots, out_slots = g.slots()

    wirings = []
    for e in range(g.vertex_count):
        out_by_side = {medial.tail_darts[idx]: slot for slot, idx in enumerate(out_slots[e])}
        sigma = []
        for idx in in_slots[e]:
            side = medial.head_darts[idx]
            target = side if e in chosen else side ^ 1
            sigma.append(out_by_side[target])
        wirings.append(tuple(sigma))
    return circuit_count(g, TransitionSystem(tuple(wirings)))


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_planar_map(text: str) -> PlanarMap:
    """Parse a "planar" graph file and validate it as a plane embedding."""
    kind, graph, rotations = parse_graph_file(text)
    if kind != "planar":
        raise GraphFormatError(f"expected a planar map file, got kind {kind!r}", header_line(text))
    pmap = PlanarMap(graph, rotations)
    faces(pmap)  # Euler validation
    return pmap


def serialize_planar_map(pmap: PlanarMap) -> str:
    g = pmap.graph
    lines = ["planar", f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    lines.extend(" ".join(str(d) for d in rot) for rot in pmap.rotation)
    return "\n".join(lines) + "\n"


def planar_map_to_json_dict(pmap: PlanarMap) -> dict:
    return {
        "schema": JSON_SCHEMA,
        "kind": "planar",
        "vertex_count": pmap.graph.vertex_count,
        "edges": [[u, v] for u, v in pmap.graph.edges],
        "rotation": [list(rot) for rot in pmap.rotation],
    }


def planar_map_from_json_dict(data: dict) -> PlanarMap:
    graph = UndirectedMultigraph(
        int(data["vertex_count"]), tuple((int(u), int(v)) for u, v in data["edges"])
    )
    return PlanarMap(graph, tuple(tuple(int(d) for d in rot) for rot in data["rotation"]))
