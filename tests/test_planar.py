from __future__ import annotations

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circuitkit import (
    DirectedMultigraph,
    EmbeddingError,
    GraphFormatError,
    GuardExceededError,
    IntPolynomial,
    PlanarMap,
    UndirectedMultigraph,
    circuit_count,
    circuit_partition_polynomial,
    component_count,
    eulerian_check,
    faces,
    martin_check,
    medial_graph,
    parse_planar_map,
    serialize_planar_map,
    subset_expansion_terms,
    subset_to_partition_circuits,
    tutte_subset_expansion,
)

from conftest import spanning_subgraph


def all_subsets(m: int):
    for mask in range(2**m):
        yield [i for i in range(m) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Maps and faces
# ---------------------------------------------------------------------------

def test_p2_has_one_face_with_both_darts(corpus_maps):
    orbits = faces(corpus_maps["p2"])
    assert len(orbits) == 1
    assert sorted(orbits[0]) == [0, 1]


def test_triangle_has_two_triangular_faces(corpus_maps):
    orbits = faces(corpus_maps["triangle"])
    assert len(orbits) == 2
    assert sorted(len(o) for o in orbits) == [3, 3]


def test_figure_eight_map_has_three_faces(corpus_maps):
    orbits = faces(corpus_maps["figure_eight"])
    assert len(orbits) == 3  # Euler: 1 - 2 + f = 2


def test_faces_partition_darts(corpus_maps):
    for pmap in corpus_maps.values():
        orbits = faces(pmap)
        flat = sorted(d for orbit in orbits for d in orbit)
        assert flat == list(range(pmap.graph.half_edge_count))


def test_interleaved_figure_eight_is_rejected():
    # One vertex, two loops with rotation a b a b is a torus embedding (f = 1).
    g = UndirectedMultigraph(1, ((0, 0), (0, 0)))
    with pytest.raises(EmbeddingError, match=r"n - m \+ f = 0, expected 2c - i = 2"):
        PlanarMap(g, ((0, 2, 1, 3),))


TWO_TRIANGLES = "planar\n6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 5\n2 1\n4 3\n6 11\n8 7\n10 9\n"


def test_each_component_has_its_own_outer_face():
    # Euler on orbits: n - m + f = 2c - (vertices with no darts) = 6 - 6 + 4.
    pmap = parse_planar_map(TWO_TRIANGLES)
    assert sorted(len(o) for o in faces(pmap)) == [3, 3, 3, 3]
    check = martin_check(pmap, 2)
    assert check.equal and check.lhs == 900


def test_a_torus_component_beside_a_plane_one_is_rejected():
    # The interleaved figure eight (f = 1) next to a triangle (f = 2).
    g = UndirectedMultigraph(4, ((0, 0), (0, 0), (1, 2), (2, 3), (3, 1)))
    with pytest.raises(EmbeddingError, match=r"n - m \+ f = 2, expected 2c - i = 4"):
        PlanarMap(g, ((0, 2, 1, 3), (4, 9), (6, 5), (8, 7)))


def test_the_edgeless_map_is_a_plane_map():
    pmap = parse_planar_map("planar\n1 0\n")
    assert faces(pmap) == ()
    assert medial_graph(pmap).edge_count == 0


def test_a_martin_run_walks_the_face_table_once(corpus_dir, monkeypatch):
    """PlanarMap walks the face orbits as it checks the embedding; parsing,
    the medial graph and both sides of the identity walk none again."""
    from circuitkit import planar

    walks = []
    walk = planar.permutation_cycles

    def counted(successor):
        walks.append(list(successor))
        return walk(successor)

    monkeypatch.setattr(planar, "permutation_cycles", counted)
    pmap = parse_planar_map((corpus_dir / "hexmap.planar").read_text(encoding="utf-8"))
    medial_graph(pmap)
    assert martin_check(pmap, 2).equal
    assert walks == [list(pmap.after)]


def test_the_subset_walk_builds_no_face_table(corpus_maps):
    """subset_to_partition_circuits reads the map's stored after table, never
    the rotation system it is built from."""
    read = []

    class Watched(PlanarMap):
        __slots__ = ()

        def __getattribute__(self, name):
            read.append(name)
            return super().__getattribute__(name)

    pmap = corpus_maps["hexmap"]
    watched = Watched(pmap.graph, pmap.rotation)
    read.clear()
    for subset in all_subsets(pmap.graph.edge_count):
        assert subset_to_partition_circuits(watched, subset) == subset_to_partition_circuits(pmap, subset)
    assert set(read) == {"after"}


def test_map_validation():
    g = UndirectedMultigraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        PlanarMap(g, ((0, 1), ()))  # dart 1 lives at vertex 1
    with pytest.raises(ValueError):
        PlanarMap(g, ((0,), ()))  # dart 1 missing
    with pytest.raises(ValueError):
        PlanarMap(g, ((0, 0), (1,)))  # dart 0 listed twice
    with pytest.raises(ValueError, match="one rotation per vertex"):
        PlanarMap(g, ((0,),))


def test_a_repeated_dart_is_named_once():
    """The file parser's message carries the line number once, in front;
    PlanarMap's has no line to cite."""
    with pytest.raises(GraphFormatError) as excinfo:
        parse_planar_map("planar\n1 1\n0 0\n0 0\n")
    assert str(excinfo.value) == "line 4: dart 0 already listed"
    with pytest.raises(GraphFormatError) as excinfo:
        PlanarMap(UndirectedMultigraph(1, ((0, 0),)), ((0, 0),))
    assert str(excinfo.value) == "dart 0 already listed"


def test_maps_are_immutable_values():
    g = UndirectedMultigraph(2, ((0, 1),))
    plain = PlanarMap(g, ((0,), (1,)))
    assert repr(plain) == f"PlanarMap(graph={g!r}, rotation=((0,), (1,)))"
    # Darts pass operator.index: bools and numpy ints are stored as ints.
    for rotation in ([[0], [1]], [[False], [True]], [np.array([0]), np.array([1])]):
        pmap = PlanarMap(g, rotation)
        assert pmap.rotation == ((0,), (1,))
        assert all(type(d) is int for rot in pmap.rotation for d in rot)
        assert serialize_planar_map(pmap) == "planar\n2 1\n0 1\n0\n1\n"
        assert pmap == plain and hash(pmap) == hash(plain) and repr(pmap) == repr(plain)
        for clone in (pickle.loads(pickle.dumps(pmap)), copy.deepcopy(pmap), copy.copy(pmap)):
            assert clone == pmap
            assert (clone.after, clone.faces) == (pmap.after, pmap.faces) == ((1, 0), ((0, 1),))
    with pytest.raises(TypeError):
        PlanarMap(g, ((0.0,), (1,)))
    assert plain != PlanarMap(UndirectedMultigraph(3, ((0, 1),)), ((0,), (1,), ()))
    for name in ("graph", "rotation", "after", "faces"):
        with pytest.raises(AttributeError):
            setattr(plain, name, ())


def test_planar_roundtrip(corpus_maps):
    for pmap in corpus_maps.values():
        assert parse_planar_map(serialize_planar_map(pmap)) == pmap


# ---------------------------------------------------------------------------
# Medial graphs
# ---------------------------------------------------------------------------

def test_p2_medial_is_two_directed_loops(corpus_maps):
    medial = medial_graph(corpus_maps["p2"])
    assert medial == DirectedMultigraph(1, ((0, 0), (0, 0)))


def test_triangle_medial_is_two_directed_triangles(corpus_maps):
    medial = medial_graph(corpus_maps["triangle"])
    assert medial.vertex_count == 3
    assert medial.edge_count == 6
    assert circuit_partition_polynomial(medial).evaluate(1) == 8  # 2^3 wirings
    # Two oriented 3-cycles: each vertex has in = out = 1 within each face.
    orbits = faces(corpus_maps["triangle"])
    for orbit in orbits:
        cycle = [d // 2 for d in orbit]
        assert sorted(cycle) == [0, 1, 2]


def test_figure_eight_medial_size(corpus_maps):
    medial = medial_graph(corpus_maps["figure_eight"])
    assert medial.vertex_count == 2
    assert medial.edge_count == 4


def test_medial_always_eulerian_and_doubled(corpus_maps):
    for pmap in corpus_maps.values():
        medial = medial_graph(pmap)
        assert medial.edge_count == 2 * pmap.graph.edge_count
        assert eulerian_check(medial).is_eulerian
        ins, outs = Counter(head for _, head in medial.edges), Counter(tail for tail, _ in medial.edges)
        assert {ins[v] for v in range(medial.vertex_count)} <= {2}
        assert {outs[v] for v in range(medial.vertex_count)} <= {2}


# ---------------------------------------------------------------------------
# Tutte subset expansion
# ---------------------------------------------------------------------------

def test_bridge_evaluates_to_x():
    edge = UndirectedMultigraph(2, ((0, 1),))
    for x, y in [(Fraction(7, 3), Fraction(5, 2)), (Fraction(3), Fraction(3)), (Fraction(0), Fraction(9))]:
        assert tutte_subset_expansion(edge, x, y) == x


def test_loop_evaluates_to_y():
    loop = UndirectedMultigraph(1, ((0, 0),))
    for x, y in [(Fraction(7, 3), Fraction(5, 2)), (Fraction(4), Fraction(1, 3))]:
        assert tutte_subset_expansion(loop, x, y) == y


def test_triangle_tutte_values():
    triangle = UndirectedMultigraph(3, ((0, 1), (1, 2), (2, 0)))
    # T(K3; x, y) = x^2 + x + y, frozen from the 8-subset expansion by hand.
    for x, y in [(3, 3), (2, 2), (1, 1), (Fraction(1, 2), Fraction(5, 3))]:
        x, y = Fraction(x), Fraction(y)
        assert tutte_subset_expansion(triangle, x, y) == x**2 + x + y
    assert tutte_subset_expansion(triangle, 3, 3) == 15


def test_tutte_counts_spanning_objects():
    # T(1,1) counts spanning trees; the square cycle has 4 of them.
    square = UndirectedMultigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    assert tutte_subset_expansion(square, 1, 1) == 4
    assert tutte_subset_expansion(square, 2, 2) == 2**4  # all subsets


def test_tutte_guard():
    """The guard caps the sweep's work units, not 2^m: 30 parallel edges
    (2^30 subsets) take 354, while the 5x5 grid takes about 2.5x10^4 and
    is refused under a guard of 10^4."""
    parallel = UndirectedMultigraph(2, ((0, 1),) * 30)
    assert tutte_subset_expansion(parallel, 2, 3, guard=354) == 2 + sum(3**k for k in range(1, 30))
    grid = scrambled_grid_map(5, 5, 1).graph
    with pytest.raises(GuardExceededError) as excinfo:
        tutte_subset_expansion(grid, 2, 2, guard=10**4)
    assert excinfo.value.limit == 10**4 < excinfo.value.required
    assert tutte_subset_expansion(grid, 2, 2) == 2**40
    # The 4 x 30 grid labelled row by row, each vertex's east edge before its
    # south edge, is refused at the running total that first passes 10^5.
    assert _refused_at(row_major_grid(4, 30), 10**5) == 100_026


def row_major_grid(rows: int, cols: int) -> UndirectedMultigraph:
    """The rows x cols grid labelled row by row, each vertex's east edge
    listed before its south edge."""
    edges = []
    for v in range(rows * cols):
        if (v + 1) % cols:
            edges.append((v, v + 1))
        if v + cols < rows * cols:
            edges.append((v, v + cols))
    return UndirectedMultigraph(rows * cols, tuple(edges))


def _refused_at(g: UndirectedMultigraph, guard: int) -> int:
    """The running work count at which the sweep of g passes `guard`."""
    with pytest.raises(GuardExceededError) as excinfo:
        tutte_subset_expansion(g, 2, 2, guard=guard)
    return excinfo.value.required


@pytest.mark.parametrize("k", [1, 2, 5, 30])
def test_the_sweep_work_of_parallel_edges(k):
    """k parallel edges: the first costs 2 x (1 + 2 frontier vertices) on
    its one state; each later one meets two states, the two ends apart and
    joined, 2 x 2 x (1 + 2). In all 12k - 6 units, which a guard one below
    refuses at exactly."""
    g = UndirectedMultigraph(2, ((0, 1),) * k)
    total = 12 * k - 6
    assert tutte_subset_expansion(g, 2, 2, guard=total) == 2**k
    assert _refused_at(g, total - 1) == total


def test_the_sweep_work_counts_the_frontier_it_rebuilds():
    """On a 3 x 12 grid labelled row by row the sweep first walks the top
    row, and every vertex it places keeps its edge downwards, so the frontier
    widens by one vertex per edge: before the i-th row edge it holds
    2^(i-1) states of i + 1 vertices. The unit counts the tuple each branch
    rebuilds, 2 x (1 + i + 1) per state, so the row costs sum 2^i (i + 2)
    units, and a guard of 2^12 refuses it, which counting branches alone
    (2^12 - 2 units) let pass."""
    rows, cols = 3, 12
    edges = [(y * cols + x, y * cols + x + 1) for y in range(rows) for x in range(cols - 1)]
    edges += [(y * cols + x, (y + 1) * cols + x) for y in range(rows - 1) for x in range(cols)]
    g = UndirectedMultigraph(rows * cols, tuple(edges))
    row = sum(2**i * (i + 2) for i in range(1, cols))
    assert _refused_at(g, row - 1) == row
    assert _refused_at(g, 2**cols) < row


def test_subset_expansion_terms_invariants(corpus_maps):
    for pmap in corpus_maps.values():
        g = pmap.graph
        c_full = component_count(g)
        terms = list(subset_expansion_terms(g))
        assert len(terms) == 2 ** g.edge_count
        for _, components, excess in terms:
            assert excess >= 0
            assert c_full <= components <= g.vertex_count
        assert terms[0][1] == g.vertex_count  # S = empty set
        assert terms[-1][1] == c_full  # S = all edges


@st.composite
def loopy_multigraphs(draw):
    """Undirected multigraphs whose random edges may be loops or parallel, and
    whose unchosen vertices stay isolated: one part on 0-6 vertices with up
    to 9 edges, beside up to two more on 0-4 vertices (12 edges in all), with
    the vertex labels of the parts shuffled together."""
    parts = []
    for n, max_edges in [(draw(st.integers(0, 6)), 9)] + [(draw(st.integers(0, 4)), 12)
                                                          for _ in range(draw(st.integers(0, 2)))]:
        ends = st.integers(0, max(n - 1, 0))
        room = min(max_edges, 12 - sum(len(part) for _, part in parts)) if n else 0
        parts.append((n, draw(st.lists(st.tuples(ends, ends), max_size=room))))
    label = draw(st.permutations(range(sum(n for n, _ in parts))))
    edges, offset = [], 0
    for n, part in parts:
        edges.extend((label[offset + u], label[offset + v]) for u, v in part)
        offset += n
    return UndirectedMultigraph(len(label), tuple(edges))


@settings(max_examples=80, deadline=None)
@given(loopy_multigraphs())
def test_subset_walk_terms_equal_a_fresh_union_find_per_subset(g):
    """The incremental walk yields, in bitmask order, the terms that a fresh
    component count of each subset gives."""
    expected = []
    for subset in all_subsets(g.edge_count):
        c = component_count(spanning_subgraph(g, subset))
        expected.append((tuple(subset), c, c + len(subset) - g.vertex_count))
    assert list(subset_expansion_terms(g)) == expected


# Points where a weight vanishes (x or y = 1), turns negative, or is not an integer.
tutte_points = st.one_of(st.sampled_from([1, 0, -1, 2]), st.fractions(-3, 3, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(loopy_multigraphs(), tutte_points, tutte_points)
def test_the_frontier_sweep_sums_what_the_subset_walk_lists(g, x, y):
    """The sweep's value is the rank-nullity sum over the listed subsets."""
    c_full = component_count(g)
    expected = sum(((x - 1) ** (c - c_full) * (y - 1) ** excess
                    for _, c, excess in subset_expansion_terms(g)), Fraction(0))
    assert tutte_subset_expansion(g, x, y) == expected


def spanning_tree_count(g: UndirectedMultigraph) -> int:
    """The matrix-tree theorem: the determinant of the Laplacian of a
    connected loopless g with its last row and column struck, by exact
    Gaussian elimination."""
    n = g.vertex_count - 1
    laplacian = [[Fraction(0)] * n for _ in range(n)]
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if a < n:
                laplacian[a][a] += 1
                if b < n:
                    laplacian[a][b] -= 1
    det = Fraction(1)
    for i in range(n):
        pivot = next(r for r in range(i, n) if laplacian[r][i])
        if pivot != i:
            laplacian[i], laplacian[pivot] = laplacian[pivot], laplacian[i]
            det = -det
        det *= laplacian[i][i]
        for r in range(i + 1, n):
            factor = laplacian[r][i] / laplacian[i][i]
            laplacian[r] = [a - factor * b for a, b in zip(laplacian[r], laplacian[i])]
    return int(det)


def test_the_sweep_reaches_the_6x6_grid():
    """m = 60, far past the subset walk: T(2,2) counts all 2^60 subsets,
    T(1,1) the spanning trees, and the Martin identity holds under the
    default guards."""
    pmap = scrambled_grid_map(6, 6, 2)
    assert spanning_tree_count(UndirectedMultigraph(2, ((0, 1),) * 3)) == 3
    assert tutte_subset_expansion(pmap.graph, 2, 2) == 2**60
    assert tutte_subset_expansion(pmap.graph, 1, 1) == spanning_tree_count(pmap.graph)
    assert martin_check(pmap, 2).equal


def test_the_sweep_reaches_the_8x8_grid():
    """m = 112 under the default guard: T(2,2) counts all 2^112 subsets."""
    assert tutte_subset_expansion(row_major_grid(8, 8), 2, 2) == 2**112


# ---------------------------------------------------------------------------
# Martin identity and the subset bijection
# ---------------------------------------------------------------------------

def test_martin_p2_example(corpus_maps):
    check = martin_check(corpus_maps["p2"], 2)
    assert (check.lhs, check.rhs, check.equal) == (Fraction(6), Fraction(6), True)


def test_martin_triangle_z1(corpus_maps):
    check = martin_check(corpus_maps["triangle"], 1)
    assert check.equal
    assert check.lhs == circuit_partition_polynomial(medial_graph(corpus_maps["triangle"])).coefficient_sum()


def test_martin_at_zero_vanishes(corpus_maps):
    for pmap in corpus_maps.values():
        check = martin_check(pmap, 0)
        assert check.lhs == 0 and check.rhs == 0 and check.equal


def test_martin_identity_corpus(corpus_maps):
    for name, pmap in corpus_maps.items():
        for z in [1, 2, 3, 4, 5, Fraction(7, 2)]:
            check = martin_check(pmap, z)
            assert check.equal, (name, z, check)


def test_subset_circuits_match_component_excess(corpus_maps):
    for name, pmap in corpus_maps.items():
        g = pmap.graph
        for subset in all_subsets(g.edge_count):
            c = component_count(spanning_subgraph(g, subset))
            expected = c + (c + len(subset) - g.vertex_count)
            assert subset_to_partition_circuits(pmap, subset) == expected, (name, subset)


def scrambled_grid_map(rows: int, cols: int, seed: int) -> PlanarMap:
    """The rows x cols grid drawn in the plane, with its vertex labels, edge
    order and edge orientations shuffled and each rotation started at a
    random dart."""
    r = random.Random(seed)
    label = list(range(rows * cols))
    r.shuffle(label)
    at = {(y, x): label[y * cols + x] for y in range(rows) for x in range(cols)}
    edges = [(at[y, x], at[y, x + 1]) for y in range(rows) for x in range(cols - 1)]
    edges += [(at[y, x], at[y + 1, x]) for y in range(rows - 1) for x in range(cols)]
    r.shuffle(edges)
    edges = [(v, u) if r.random() < 0.5 else (u, v) for u, v in edges]
    dart = {}
    for e, (u, v) in enumerate(edges):
        dart[u, v], dart[v, u] = 2 * e, 2 * e + 1
    rotation = []
    for v in range(rows * cols):
        y, x = divmod(label.index(v), cols)
        # Counterclockwise: east, north, west, south.
        around = [(y, x + 1), (y + 1, x), (y, x - 1), (y - 1, x)]
        darts = [dart[v, at[p]] for p in around if p in at]
        turn = r.randrange(len(darts))
        rotation.append(tuple(darts[turn:] + darts[:turn]))
    return PlanarMap(UndirectedMultigraph(rows * cols, tuple(edges)), tuple(rotation))


def reference_subset_system(pmap: PlanarMap, subset) -> tuple[tuple[int, ...], ...]:
    """The medial transition system an edge subset selects, wired by slot from
    side labels: medial edge i leaves along side tails[i] of its tail and
    arrives along side heads[i] of its head. An arrival continues on the
    out-slot of the same side when its vertex's edge is in the subset and on
    the out-slot of the other side when it is not."""
    orbits = faces(pmap)
    tails = [d for orbit in orbits for d in orbit]
    heads = [d for orbit in orbits for d in orbit[1:] + orbit[:1]]
    medial = medial_graph(pmap)
    in_slots = [[i for i, (_, head) in enumerate(medial.edges) if head == v] for v in range(medial.vertex_count)]
    out_slots = [[i for i, (tail, _) in enumerate(medial.edges) if tail == v] for v in range(medial.vertex_count)]
    chosen = set(subset)
    wirings = []
    for e in range(pmap.graph.edge_count):
        out_by_side = {tails[idx]: slot for slot, idx in enumerate(out_slots[e])}
        flip = 0 if e in chosen else 1
        wirings.append(tuple(out_by_side[heads[idx] ^ flip] for idx in in_slots[e]))
    return tuple(wirings)


def test_subset_walk_matches_the_slot_wiring_reference(corpus_maps):
    maps = dict(corpus_maps)
    for rows, cols, seed in [(2, 3, 11), (2, 3, 12), (3, 3, 13), (3, 3, 14)]:
        grid = scrambled_grid_map(rows, cols, seed)
        assert len(faces(grid)) == (rows - 1) * (cols - 1) + 1
        maps[f"grid {rows}x{cols} #{seed}"] = grid
    for name, pmap in maps.items():
        medial = medial_graph(pmap)
        for subset in all_subsets(pmap.graph.edge_count):
            expected = circuit_count(medial, reference_subset_system(pmap, subset))
            assert subset_to_partition_circuits(pmap, subset) == expected, (name, subset)


def induced_submap(pmap: PlanarMap, kept: list[int]) -> PlanarMap:
    """The map on the edges `kept` (ascending, renumbered in that order), each
    vertex keeping the rotation order of its remaining darts. Deleting edges
    from a plane map leaves a plane map."""
    new = {e: i for i, e in enumerate(kept)}
    rotation = [[2 * new[d // 2] + d % 2 for d in rot if d // 2 in new] for rot in pmap.rotation]
    g = pmap.graph
    return PlanarMap(UndirectedMultigraph(g.vertex_count, [g.edges[e] for e in kept]), rotation)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(5, 5), (4, 5), (3, 5), (2, 5), (1, 5), (4, 4), (3, 4)]), st.integers(0, 2**32),
       st.sampled_from([1.0, 0.9, 0.75, 0.5]), st.sampled_from([2, 3, Fraction(-1, 2)]))
def test_martin_identity_on_grid_submaps(size, seed, density, z):
    """Random edge subsets of scrambled grid maps, with the rotations they
    induce, up to m = 40: past the reach of a walk over all 2^m subsets."""
    grid = scrambled_grid_map(*size, seed)
    r = random.Random(f"submap/{seed}")
    pmap = induced_submap(grid, [e for e in range(grid.graph.edge_count) if r.random() < density])
    check = martin_check(pmap, z)
    assert check.equal, check


def test_a_martin_run_counts_components_once(corpus_dir, monkeypatch, capsys):
    """The map counts its components for the Euler test when it is built; the
    right side of the identity reads c(G) - i from that relation."""
    from circuitkit import cli, planar

    counted = []
    count = planar.component_count

    def counting(g):
        counted.append(g)
        return count(g)

    monkeypatch.setattr(planar, "component_count", counting)
    assert cli.main(["martin", str(corpus_dir / "hexmap.planar"), "--z", "2"]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith("equal=true\n")
    assert len(counted) == 1


def test_subset_walk_generating_function_equals_medial_polynomial(corpus_maps):
    """The subset -> transition system map is a bijection: summing z^circuits
    over subsets reproduces the medial circuit partition polynomial."""
    for name, pmap in corpus_maps.items():
        medial = medial_graph(pmap)
        poly = circuit_partition_polynomial(medial)
        tally = [0] * (medial.edge_count + 1)
        for subset in all_subsets(pmap.graph.edge_count):
            tally[subset_to_partition_circuits(pmap, subset)] += 1
        assert IntPolynomial(tuple(tally)) == poly, name
        assert sum(tally) == 2 ** pmap.graph.edge_count


def test_mirror_invariance(corpus_maps):
    for pmap in corpus_maps.values():
        mirrored = PlanarMap(pmap.graph, tuple(r[::-1] for r in pmap.rotation))
        faces(mirrored)  # still a plane embedding
        assert (circuit_partition_polynomial(medial_graph(mirrored))
                == circuit_partition_polynomial(medial_graph(pmap)))


def test_parse_rejects_non_planar_header(tmp_path, capsys):
    from circuitkit import cli
    from circuitkit.errors import GraphFormatError
    with pytest.raises(GraphFormatError):
        parse_planar_map("directed\n1 1\n0 0\n")
    # The error names the header's line, wherever comments put it.
    text = "# a comment\n\ndirected\n1 1\n0 0\n"
    with pytest.raises(GraphFormatError) as excinfo:
        parse_planar_map(text)
    assert excinfo.value.line == 3
    path = tmp_path / "commented.graph"
    path.write_text(text)
    assert cli.main(["medial", str(path)]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: line 3: expected a planar map file, got kind 'directed'\n"


def test_isolated_vertices_keep_the_identity():
    """The medial graph never sees a vertex without darts, so the power of z
    on the right side counts only the components with edges: a triangle plus
    an isolated vertex and the edgeless map both satisfy the identity."""
    triangle = parse_planar_map("planar\n3 3\n0 1\n1 2\n2 0\n0 5\n2 1\n4 3\n")
    padded = parse_planar_map("planar\n4 3\n0 1\n1 2\n2 0\n0 5\n2 1\n4 3\n\n")
    edgeless = parse_planar_map("planar\n1 0\n")
    assert medial_graph(padded) == medial_graph(triangle)
    for z in (2, 3):
        base = martin_check(triangle, z)
        assert base.equal
        assert martin_check(padded, z) == base
        assert martin_check(edgeless, z) == (1, 1, True)
