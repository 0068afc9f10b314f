"""Combinatorial maps, medial graphs, the Tutte rank-nullity expansion, and
the Martin identity tying them to circuit partitions.

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

The Tutte side never lists the 2^m edge subsets. A frontier sweep along
graphs.sweep_plan sums them at the asked point: a state is the
connectivity of the frontier vertices, each state carries one exact
integer, its subsets' weight with the point's denominators cleared, and
states merge after every edge, as in the Potts transfer matrix of Bedini
and Jacobsen (J. Phys. A 43, 2010) and the frontier sweeps of Sekine, Imai
and Tani (ISAAC 1995). It uses no circuit reasoning. The walk
over all 2^m subsets, and the medial circuit count of each, are the oracles
of verify's subset-by-subset bijection check, in checks.
"""

from __future__ import annotations

from collections import defaultdict
from operator import index
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DEFAULT_ENUMERATION_GUARD, DEFAULT_SUBSET_GUARD, EmbeddingError, GraphFormatError, GuardExceededError
from .graphs import (DirectedMultigraph, Record, UndirectedMultigraph, check_rotation, component_count, header_line,
                     parse_graph_file, permutation_cycles, sweep_plan)
from .partition import circuit_partition_polynomial

if TYPE_CHECKING:
    from fractions import Fraction


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
        self._set(graph=graph, rotation=rotation, after=tuple(after), faces=orbits)


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


def _first_occurrence_labels(blocks) -> tuple[int, ...]:
    """Block labels renumbered 0, 1, ... in order of first occurrence."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(b, len(seen)) for b in blocks)


def tutte_subset_expansion(g: UndirectedMultigraph, x, y, guard: int = DEFAULT_SUBSET_GUARD) -> Fraction:
    """Tutte polynomial value by the rank-nullity sum over all edge subsets.

    T(G;x,y) = sum over S of (x-1)^(c(S)-c(G)) (y-1)^(c(S)+|S|-n), with the
    0^0 = 1 convention for degenerate bases. The subsets are never listed: a
    frontier sweep along graphs.sweep_plan carries, for each state, one
    exact integer, the weighted sum over the partial subsets that reach it.

    The vertices placed so far that still have undecided edges, and the one
    just placed, form the frontier. A state labels each frontier vertex with
    its block of the connectivity that the decided edges induce, in order of
    first occurrence. With x - 1 = a/b and y - 1 = c/d in lowest terms, an
    edge is decided when its later end is placed: left out, it multiplies by
    d; taken inside a block (a loop always is), by c; taken across two
    blocks, which join, by b d. A vertex leaves the frontier with its last
    edge, and each block that leaves with it closes a component of S and
    multiplies by a, save one at each step that empties the frontier: that
    step ends a component of G, since the plan places a component whole
    before it starts the next. Vertices with no edge are never placed.

    A subset with e = c(S) - c(G) and l = c(S) + |S| - n joins r - e
    times, r = n - c(G), and leaves out or joins m - l edges, so it weighs
    a^e b^(r-e) c^l d^(m-l), and T is the final sum over b^r d^m. A factor
    a or c only enters with a positive exponent, so x = 1 and y = 1 are
    exact.

    `guard` caps the sweep's work units, not the 2^m subsets they stand
    for: branches x (1 + frontier vertices), summed over the states of
    every edge, as the j engine counts key length, since a branch rebuilds
    the state's tuple. 30 parallel edges take 354 units, and the 5x5 grid
    about 2.5x10^4. The sweep refuses as soon as their running total passes
    the guard.
    """
    from fractions import Fraction

    x, y = Fraction(x) - 1, Fraction(y) - 1
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    plan = sweep_plan(g.edges)
    # The step that decides each vertex's last edge.
    last = [max((later for _, later in opens), default=i) for i, opens in enumerate(plan.opens)]
    frontier: list[int] = []  # the steps at which the frontier vertices were placed
    layer: dict[tuple[int, ...], int] = {(): 1}
    components = 0  # of G, with edges
    work = 0
    for i, closes in enumerate(plan.closes):
        frontier.append(i)
        layer = {state + (max(state, default=-1) + 1,): weight for state, weight in layer.items()}
        here = len(frontier) - 1
        for _, earlier in closes:
            there = frontier.index(earlier)
            following: defaultdict[tuple[int, ...], int] = defaultdict(int)
            for state, weight in layer.items():
                work += 2 * (1 + len(state))
                if work > guard:
                    raise GuardExceededError(
                        "Tutte frontier sweep refused (work units: branches x (1 + frontier vertices)"
                        " per state)", work, guard)
                low, high = sorted((state[there], state[here]))
                if low == high:
                    following[state] += weight * (d + c)
                else:  # block `high` first occurs after `low`, so relabelling keeps first-occurrence order
                    following[state] += weight * d
                    joined = tuple(low if label == high else label - (label > high) for label in state)
                    following[joined] += weight * (b * d)
            layer = following
        keep = [j for j, step in enumerate(frontier) if last[step] > i]
        if len(keep) < len(frontier):
            frontier = [frontier[j] for j in keep]
            components += not keep
            following = defaultdict(int)
            for state, weight in layer.items():
                kept = _first_occurrence_labels(state[j] for j in keep)
                following[kept] += weight * a ** (max(state) - max(kept, default=-1) - (not keep))
            layer = following
    (total,) = layer.values()  # the frontier is empty again
    return Fraction(total, b ** (len(plan.order) - components) * d ** g.edge_count)


class MartinCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def martin_check(pmap: PlanarMap, z, enumeration_guard: int = DEFAULT_ENUMERATION_GUARD,
                 subset_guard: int = DEFAULT_SUBSET_GUARD) -> MartinCheck:
    """Evaluate both sides of j(G_m; z) = z^(c(G) - i) * T(G; z+1, z+1) exactly.

    The left side is the splitting engine's circuit partition polynomial of
    the medial graph; the right side is the Tutte value of the underlying
    graph on the diagonal, from its frontier sweep; the medial graph never
    sees the i vertices without darts. c(G) - i, the components with edges,
    is (n - m + f - i) / 2 by the Euler relation the map met when it was
    built, so no component count runs here. Both sides are exact rationals,
    so equality is exact.
    """
    from fractions import Fraction

    z = Fraction(z)
    j = circuit_partition_polynomial(medial_graph(pmap), guard=enumeration_guard)
    lhs = j.evaluate(z)
    g = pmap.graph
    with_edges = (g.vertex_count - g.edge_count + len(pmap.faces) - pmap.rotation.count(())) // 2
    rhs = z ** with_edges * tutte_subset_expansion(g, z + 1, z + 1, guard=subset_guard)
    return MartinCheck(lhs, rhs, lhs == rhs)


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
