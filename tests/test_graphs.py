from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from circuitkit import (
    DirectedMultigraph,
    GraphFormatError,
    Multigraph,
    NotEulerianError,
    UndirectedMultigraph,
    component_count,
    disjoint_union,
    eulerian_check,
    parse_graph,
    serialize_graph,
)
from circuitkit.graphs import graph_from_json, graph_to_json, parse_graph_file, require_eulerian

from conftest import GRAPH_NAMES, load_graph

FIG1_TEXT = "directed\n4 5\n0 1\n1 2\n2 0\n2 3\n3 2\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_fig1_preserves_edge_order():
    g = parse_graph(FIG1_TEXT)
    assert isinstance(g, DirectedMultigraph)
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 0), (2, 3), (3, 2))


def test_parse_single_vertex_no_edges():
    g = parse_graph("directed\n1 0\n")
    assert g == DirectedMultigraph(1, ())


def test_parse_figure_eight():
    g = parse_graph("undirected\n1 2\n0 0\n0 0\n")
    assert g == UndirectedMultigraph(1, ((0, 0), (0, 0)))


def test_parse_skips_comments_and_blank_lines():
    text = "# a comment\ndirected\n\n2 1\n# another\n0 1\n"
    assert parse_graph(text) == DirectedMultigraph(2, ((0, 1),))


def test_parse_planar_file_yields_underlying_graph():
    text = "planar\n2 1\n0 1\n0\n1\n"
    kind, g, rotations = parse_graph_file(text)
    assert kind == "planar"
    assert g == UndirectedMultigraph(2, ((0, 1),))
    assert rotations == ((0,), (1,))


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("digraph\n1 0\n", 1, "unknown graph kind"),
        ("directed\n2\n0 1\n", 2, "expected '<n> <m>'"),
        ("directed\n2 1\n0 2\n", 3, "out of range"),
        ("directed\n2 2\n0 1\n", 4, "expected 2 edges, found only 1"),
        ("directed\n2 1\n0 1\n1 0\n", 4, "unexpected extra content"),
        ("planar\n2 1\n0 1\n0 1\n", 4, "belongs to vertex"),
        ("planar\n2 1\n0 1\n0\n0\n", 5, "belongs to vertex"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphFormatError) as excinfo:
        parse_graph(text)
    assert excinfo.value.line == line
    assert fragment in str(excinfo.value)


def test_roundtrip_on_corpus():
    for name in GRAPH_NAMES:
        g = load_graph(name)
        assert parse_graph(serialize_graph(g)) == g
        assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_shape(fig1):
    data = json.loads(graph_to_json(fig1))
    assert data["schema"] == "circuitkit/1"
    assert data["kind"] == "directed"
    assert data["edges"][0] == [0, 1]


# ---------------------------------------------------------------------------
# Eulerian check
# ---------------------------------------------------------------------------

def test_fig1_is_eulerian(fig1):
    report = eulerian_check(fig1)
    assert report.is_eulerian
    assert report.offending_vertices == ()


def test_single_directed_edge_is_not_eulerian():
    report = eulerian_check(DirectedMultigraph(2, ((0, 1),)))
    assert not report.is_eulerian
    assert report.offending_vertices == ((0, 0, 1), (1, 1, 0))


def test_undirected_triangle_is_eulerian():
    triangle = UndirectedMultigraph(3, ((0, 1), (1, 2), (2, 0)))
    assert eulerian_check(triangle).is_eulerian


def test_odd_degree_reported():
    path = UndirectedMultigraph(2, ((0, 1),))
    report = eulerian_check(path)
    assert report.offending_vertices == ((0, 1), (1, 1))
    assert "odd" in report.describe()


def test_require_eulerian_cites_the_report(fig1):
    require_eulerian(fig1)
    with pytest.raises(NotEulerianError) as excinfo:
        require_eulerian(UndirectedMultigraph(2, ((0, 1),)))
    assert excinfo.value.report.offending_vertices == ((0, 1), (1, 1))


def test_directed_self_loop_balances_degrees():
    g = DirectedMultigraph(1, ((0, 0),))
    assert g.in_degrees() == (1,)
    assert g.out_degrees() == (1,)
    assert eulerian_check(g).is_eulerian


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

TRIANGLE = UndirectedMultigraph(3, ((0, 1), (1, 2), (2, 0)))


def test_component_count_isolated_vertices():
    assert component_count(TRIANGLE, []) == 3


def test_component_count_full_triangle():
    assert component_count(TRIANGLE) == 1


def test_component_count_single_edge():
    assert component_count(UndirectedMultigraph(2, ((0, 1),)), []) == 2


def test_component_count_monotone_under_edge_addition():
    g = UndirectedMultigraph(5, ((0, 1), (1, 2), (3, 4), (2, 3), (0, 4)))
    subset: list[int] = []
    previous = component_count(g, subset)
    for e in range(g.edge_count):
        subset.append(e)
        current = component_count(g, subset)
        assert current <= previous
        previous = current


# ---------------------------------------------------------------------------
# Degree-sum invariants (property-based)
# ---------------------------------------------------------------------------

@st.composite
def directed_graphs(draw):
    n = draw(st.integers(1, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    return DirectedMultigraph(n, tuple(edges))


@st.composite
def undirected_graphs(draw):
    n = draw(st.integers(1, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    return UndirectedMultigraph(n, tuple(edges))


@given(directed_graphs())
def test_degree_sums_directed(g):
    assert sum(g.in_degrees()) == g.edge_count
    assert sum(g.out_degrees()) == g.edge_count


@given(undirected_graphs())
def test_degree_sum_undirected(g):
    assert sum(g.degrees()) == 2 * g.edge_count


@given(st.one_of(directed_graphs(), undirected_graphs()))
def test_half_edges_partition(g):
    owned = sorted(h for v in range(g.vertex_count) for h in g.half_edges_at(v))
    assert owned == list(range(g.half_edge_count))
    for v, halves in enumerate(g.half_edges()):
        assert halves == sorted(halves)
        assert all(g.half_edge_vertex(h) == v for h in halves)


@given(directed_graphs())
def test_directed_slots_list_edges_in_file_order(g):
    at = g.half_edges()
    ins, outs = g.slots()
    for v in range(g.vertex_count):
        # Edge e's tail owns half-edge 2e and its head half-edge 2e + 1.
        assert [h for h in at[v] if h % 2 == 0] == [2 * e for e, (tail, _) in enumerate(g.edges) if tail == v]
        assert [h for h in at[v] if h % 2 == 1] == [2 * e + 1 for e, (_, head) in enumerate(g.edges) if head == v]
        assert ins[v] == [e for e, (_, head) in enumerate(g.edges) if head == v]
        assert outs[v] == [e for e, (tail, _) in enumerate(g.edges) if tail == v]


@given(st.one_of(directed_graphs(), undirected_graphs()))
def test_roundtrip_random_graphs(g):
    assert parse_graph(serialize_graph(g)) == g


def test_out_of_range_edges_rejected():
    with pytest.raises(ValueError):
        DirectedMultigraph(2, ((0, 2),))


def test_the_shared_base_has_no_kind_of_its_own():
    with pytest.raises(TypeError):
        Multigraph(1, ((0, 0),))
    assert isinstance(DirectedMultigraph(1, ()), Multigraph)
    assert isinstance(UndirectedMultigraph(1, ()), Multigraph)
    assert DirectedMultigraph(1, ((0, 0),)) != UndirectedMultigraph(1, ((0, 0),))


def test_disjoint_union_shifts_vertices(fig1, two_loop):
    union = disjoint_union(fig1, two_loop)
    assert union.vertex_count == 5
    assert union.edges[-1] == (4, 4)
    with pytest.raises(TypeError):
        disjoint_union(fig1, TRIANGLE)
