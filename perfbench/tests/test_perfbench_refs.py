"""The benchmark's generators and references against the library, at small sizes."""

import random
from fractions import Fraction

import pytest

import gen
import ref
from circuitkit import diagrams, graphs, partition, planar, sampling


def _graph(n, edges, directed):
    cls = graphs.DirectedMultigraph if directed else graphs.UndirectedMultigraph
    return cls(n, tuple(edges))


def _lib_j(n, edges, directed):
    return list(partition.circuit_partition_polynomial(_graph(n, edges, directed)).coefficients)


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_maps_are_plane_embeddings(rows, cols, seed):
    n, edges, rotation = gen.grid_map(rows, cols)
    edges, rotation = gen.scramble_map(random.Random(seed), n, edges, rotation)
    pmap = planar.parse_planar_map(gen.graph_text("planar", n, edges, rotation))  # Euler check
    assert len(planar.faces(pmap)) == (rows - 1) * (cols - 1) + 1


@pytest.mark.parametrize("t", range(4))
def test_cycle_with_loops_closed_forms(t):
    n, edges = gen.cycle_with_loops(6, [0, 2, 3][:t])
    assert _lib_j(n, edges, True) == ref.j_cycle_loops_directed(t)
    assert _lib_j(n, edges, False) == ref.j_cycle_loops_undirected(t)


@pytest.mark.parametrize("d", range(1, 5))
def test_thick_digon_closed_forms(d):
    n, edges = gen.thick_digon(d)
    assert _lib_j(n, edges, True) == ref.j_thick_digon(d)
    for k in (1, 2, 3):
        g = _graph(n, edges, True)
        assert sampling.predicted_q(g, k, diagrams.Ensemble.COMPLEX_SPHERE) == ref.q_thick_digon(d, k)


@pytest.mark.parametrize("ensemble", list(diagrams.Ensemble))
def test_vertex_scalings(ensemble):
    for d in range(5):
        for k in range(1, 5):
            assert ref.vertex_scaling(d, k, ensemble.value) == diagrams.xd_scaling(d, k, ensemble)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3), (5, 2), (2, 3)])
def test_recursion_and_best_match_enumeration_directed(n, d):
    n, edges = gen.directed_circulant(n, d)
    edges = gen.scramble(random.Random(n * d), n, edges, undirected=False)
    j = ref.j_poly(edges, True)
    assert j == _lib_j(n, edges, True)
    assert sum(j) == ref.system_count(n, edges, True)
    assert j[1] == ref.best_r1(n, edges)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_recursion_matches_enumeration_undirected(n):
    n, edges = gen.undirected_circulant(n)
    edges = gen.scramble(random.Random(n), n, edges, undirected=True)
    j = ref.j_poly(edges, False)
    assert j == _lib_j(n, edges, False)
    assert sum(j) == ref.system_count(n, edges, False)


def test_recursion_handles_loops_and_parallel_edges():
    directed = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert ref.j_poly(directed, True) == _lib_j(2, directed, True)
    undirected = [(0, 0), (0, 1), (0, 1), (1, 1), (1, 1)]
    assert ref.j_poly(undirected, False) == _lib_j(2, undirected, False)


def test_q_value_matches_prediction():
    for directed, (n, edges), ensembles in [
        (True, gen.fig1(), ("complex-sphere", "complex-gaussian")),
        (False, gen.undirected_circulant(5), ("real-sphere", "real-gaussian")),
        (True, gen.directed_path(4), ("complex-sphere",)),
    ]:
        j = ref.j_poly(edges, directed)  # [0] for the path, which has no circuit partition
        for ensemble in ensembles:
            for k in (1, 2, 3):
                expected = sampling.predicted_q(_graph(n, edges, directed), k, diagrams.Ensemble(ensemble))
                assert ref.q_value(n, edges, directed, j, k, ensemble) == expected


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_tutte_matches_subset_expansion(rows, cols):
    n, edges, _ = gen.grid_map(rows, cols)
    g = _graph(n, edges, False)
    for x, y in [(2, 2), (3, 3), (Fraction(1, 2), 4)]:
        assert ref.tutte(n, edges, x, y) == planar.tutte_subset_expansion(g, x, y)


def test_system_count_matches_library():
    for directed, (n, edges) in [(True, gen.directed_circulant(4, 3)), (False, gen.undirected_circulant(6)),
                                 (True, gen.cycle_with_loops(5, [1, 2])), (False, gen.cycle_with_loops(5, [4]))]:
        assert ref.system_count(n, edges, directed) == partition.transition_system_count(_graph(n, edges, directed))
