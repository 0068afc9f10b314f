from __future__ import annotations

import pytest

import circuitkit as ck
from circuitkit.cli import bundled_corpus_dir

CORPUS = bundled_corpus_dir()

GRAPH_NAMES = ["digon", "fig1", "figure_eight", "single_loop", "two_loop"]
MAP_NAMES = ["figure_eight", "hexmap", "p2", "square", "theta", "triangle"]


def load_graph(name: str) -> ck.Multigraph:
    return ck.parse_graph((CORPUS / f"{name}.graph").read_text(encoding="utf-8"))


def load_map(name: str) -> ck.PlanarMap:
    return ck.parse_planar_map((CORPUS / f"{name}.planar").read_text(encoding="utf-8"))


def disjoint_union(g1: ck.Multigraph, g2: ck.Multigraph) -> ck.Multigraph:
    """Side-by-side union with g2's vertices shifted past g1's."""
    if type(g1) is not type(g2):
        raise TypeError("cannot union a directed with an undirected multigraph")
    shift = g1.vertex_count
    edges = g1.edges + tuple((u + shift, v + shift) for u, v in g2.edges)
    return type(g1)(g1.vertex_count + g2.vertex_count, edges)


def spanning_subgraph(g: ck.UndirectedMultigraph, edge_subset: list[int]) -> ck.UndirectedMultigraph:
    """(V, S): all of g's vertices and the edges whose indices are in edge_subset."""
    return ck.UndirectedMultigraph(g.vertex_count, [g.edges[i] for i in edge_subset])


def directed_circulant(n: int, d: int) -> ck.DirectedMultigraph:
    """circ(n, d): edges u -> u + s mod n for s = 1..d; every vertex has d_v = d."""
    return ck.DirectedMultigraph(n, tuple((u, (u + s) % n) for u in range(n) for s in range(1, d + 1)))


def undirected_circulant(n: int) -> ck.UndirectedMultigraph:
    """C_n(1,2): u -- u+1 and u -- u+2 mod n."""
    return ck.UndirectedMultigraph(n, tuple((u, (u + s) % n) for u in range(n) for s in (1, 2)))


def poly_product(p: ck.IntPolynomial, q: ck.IntPolynomial) -> ck.IntPolynomial:
    """The product of two coefficient vectors."""
    out = [0] * (len(p.coefficients) + len(q.coefficients) - 1)
    for i, a in enumerate(p.coefficients):
        for j, b in enumerate(q.coefficients):
            out[i + j] += a * b
    return ck.IntPolynomial(out)


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def fig1():
    return load_graph("fig1")


@pytest.fixture(scope="session")
def single_loop():
    return load_graph("single_loop")


@pytest.fixture(scope="session")
def two_loop():
    return load_graph("two_loop")


@pytest.fixture(scope="session")
def digon():
    return load_graph("digon")


@pytest.fixture(scope="session")
def figure_eight():
    return load_graph("figure_eight")


@pytest.fixture(scope="session")
def corpus_graphs():
    return {name: load_graph(name) for name in GRAPH_NAMES}


@pytest.fixture(scope="session")
def corpus_maps():
    return {name: load_map(name) for name in MAP_NAMES}
