"""Combinatorial maps, medial graphs, the Tutte subset expansion, and the
Martin identity tying them to circuit partitions.

A map stores, for each vertex, the counterclockwise cyclic order of its
incident darts (dart ids are the half-edge ids 2i, 2i+1 of edge i; the twin
of dart d is d ^ 1). Everything here reads one table, after[d]: the dart
that follows d on its face, which is the rotation-successor of d ^ 1.
PlanarMap builds it, and its orbits, the faces, once, and accepts a rotation
system as a plane embedding exactly when the orbit count satisfies
n - m + f = 2c(G) - i, where i counts the vertices with no darts. Each
component with edges has its own outer orbit and contributes 2; an isolated
vertex has no orbit and contributes 1.

The oriented medial graph has one vertex per edge of the underlying graph
and one directed edge d // 2 -> after[d] // 2 per dart d, leaving along side
d of its tail and arriving along side after[d] of its head. Every medial
vertex has in- and out-degree 2, so the medial graph is Eulerian.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import index
from typing import Iterable, NamedTuple

from .errors import (DEFAULT_ENUMERATION_GUARD, DEFAULT_SUBSET_GUARD, EmbeddingError, GraphFormatError,
                     GuardExceededError)
from .graphs import (
    DirectedMultigraph,
    Record,
    UndirectedMultigraph,
    check_rotation,
    component_count,
    header_line,
    parse_graph_file,
    permutation_cycles,
)
from .partition import circuit_partition_polynomial


class PlanarMap(Record):
    """Undirected multigraph plus a rotation system over its darts, checked to
    be a plane embedding when it is built.

    Each dart passes operator.index, as a graph's endpoints do. The derived
    slots `after` and `faces` (its orbits, each from its least dart) are
    never compared. A rotation system that violates the Euler relation
    embeds some component in a higher-genus surface, not the plane, and
    raises EmbeddingError.
    """

    __slots__ = ("graph", "rotation", "after", "faces")
    _fields = ("graph", "rotation")
    graph: UndirectedMultigraph
    rotation: tuple[tuple[int, ...], ...]
    after: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]

    def __init__(self, graph: UndirectedMultigraph, rotation: Iterable[Iterable[int]]):
        rotation = tuple(tuple(index(d) for d in r) for r in rotation)
        degrees = graph.degrees()
        if len(rotation) != len(degrees):
            raise ValueError("one rotation per vertex required")
        for v, (darts, degree) in enumerate(zip(rotation, degrees)):
            check_rotation(graph, v, darts, degree)
        after = [0] * graph.half_edge_count
        for rot in rotation:
            for d, d_next in zip(rot, rot[1:] + rot[:1]):
                after[d ^ 1] = d_next
        orbits = tuple(permutation_cycles(after))
        n, m, f = graph.vertex_count, graph.edge_count, len(orbits)
        c = component_count(graph)
        i = rotation.count(())
        if n - m + f != 2 * c - i:
            raise EmbeddingError(
                f"rotation system is not a plane embedding: n - m + f = {n - m + f}, "
                f"expected 2c - i = {2 * c - i} (c components, i isolated vertices)"
            )
        for name, value in zip(PlanarMap.__slots__, (graph, rotation, tuple(after), orbits)):
            object.__setattr__(self, name, value)


def faces(pmap: PlanarMap) -> tuple[tuple[int, ...], ...]:
    """Face orbits of the dart-successor rule, each starting at its least
    dart, as the map stored them when it was built."""
    return pmap.faces


def medial_graph(pmap: PlanarMap) -> DirectedMultigraph:
    """The oriented medial graph (one vertex per edge, 2m directed edges).

    Its edges are d // 2 -> after[d] // 2 for every dart d, face by face in
    the order of the map's face orbits.
    """
    edges = tuple((d // 2, pmap.after[d] // 2) for orbit in pmap.faces for d in orbit)
    return DirectedMultigraph(pmap.graph.edge_count, edges)


def subset_expansion_terms(g: UndirectedMultigraph, guard: int = DEFAULT_SUBSET_GUARD):
    """All 2^m terms (S, c(S), l(S)) of the rank-nullity expansion in bitmask
    order: S ascending, c(S) the components of (V, S), and the excess
    l(S) = c(S) + |S| - n, the edges to delete to make each component a tree.

    One walk decides the edges from the last to the first, each left out
    before taken, with a component label per vertex: an edge taken inside one
    component raises the excess, one taken across two merges their labels.
    """
    m = g.edge_count
    if 2**m > guard:
        raise GuardExceededError("subset expansion refused", 2**m, guard)
    n = g.vertex_count
    stack = [(m, (), tuple(range(n)), n, 0)]  # (edges left to decide, S, labels, c(S), l(S))
    while stack:
        i, subset, label, c, excess = stack.pop()
        if not i:
            yield subset, c, excess
            continue
        i -= 1
        u, v = g.edges[i]
        a, b = label[u], label[v]
        if a == b:
            stack.append((i, (i,) + subset, label, c, excess + 1))
        else:
            stack.append((i, (i,) + subset, tuple(a if x == b else x for x in label), c - 1, excess))
        stack.append((i, subset, label, c, excess))


def tutte_subset_expansion(g: UndirectedMultigraph, x, y, guard: int = DEFAULT_SUBSET_GUARD) -> Fraction:
    """Tutte polynomial value by the rank-nullity sum over all edge subsets.

    T(G;x,y) = sum over S of (x-1)^(c(S)-c(G)) (y-1)^(c(S)+|S|-n), with the
    0^0 = 1 convention for degenerate bases.
    """
    x = Fraction(x)
    y = Fraction(y)
    # Subsets sharing (c(S), l(S)) share a term: tally them as integers and
    # raise each distinct exponent pair once, at most about m^2 of them.
    tally = Counter((c, excess) for _, c, excess in subset_expansion_terms(g, guard))
    c_full = min(c for c, _ in tally)  # c(G), reached at S = all edges
    total = Fraction(0)
    for (components, excess), count in tally.items():
        total += count * (x - 1) ** (components - c_full) * (y - 1) ** excess
    return total


class MartinCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def martin_check(pmap: PlanarMap, z, enumeration_guard: int = DEFAULT_ENUMERATION_GUARD,
                 subset_guard: int = DEFAULT_SUBSET_GUARD) -> MartinCheck:
    """Evaluate both sides of j(G_m; z) = z^(c(G) - i) * T(G; z+1, z+1) exactly.

    The left side is the splitting engine's circuit partition polynomial of
    the medial graph; the right side is the subset expansion of the
    underlying graph on the diagonal; the medial graph never sees the i
    vertices without darts. Both are exact rationals, so equality is exact.
    """
    z = Fraction(z)
    j = circuit_partition_polynomial(medial_graph(pmap), guard=enumeration_guard)
    lhs = j.evaluate(z)
    g = pmap.graph
    rhs = (z ** (component_count(g) - pmap.rotation.count(()))
           * tutte_subset_expansion(g, z + 1, z + 1, guard=subset_guard))
    return MartinCheck(lhs, rhs, lhs == rhs)


def subset_to_partition_circuits(pmap: PlanarMap, subset: Iterable[int]) -> int:
    """Circuit count of the medial transition system an edge subset selects.

    Medial edge d (the one leaving along side d) arrives at the medial vertex
    over edge s // 2 along side s = after[d]. There it continues on the same
    side, along medial edge s, when s // 2 is in the subset, and crosses to
    medial edge s ^ 1 when it is not. The circuits are the cycles of that
    map on darts. On a plane map their number equals c(S) + (c(S) + |S| - n),
    the component count plus total excess of the spanning subgraph, which
    the tests verify subset by subset.
    """
    chosen = set(subset)
    return len(permutation_cycles([s if s // 2 in chosen else s ^ 1 for s in pmap.after]))


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_planar_map(text: str) -> PlanarMap:
    """Parse a "planar" graph file; PlanarMap checks it is a plane embedding."""
    kind, graph, rotations = parse_graph_file(text)
    if kind != "planar":
        raise GraphFormatError(f"expected a planar map file, got kind {kind!r}", header_line(text))
    return PlanarMap(graph, rotations)


def serialize_planar_map(pmap: PlanarMap) -> str:
    g = pmap.graph
    lines = ["planar", f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    lines.extend(" ".join(str(d) for d in rot) for rot in pmap.rotation)
    return "\n".join(lines) + "\n"
