from __future__ import annotations

import copy
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circuitkit import (
    DirectedMultigraph,
    GraphFormatError,
    Multigraph,
    NotEulerianError,
    UndirectedMultigraph,
    component_count,
    eulerian_check,
    parse_graph,
    serialize_graph,
)
from circuitkit.graphs import edge_components, parse_graph_file, permutation_cycles, require_eulerian, sweep_plan

from conftest import GRAPH_NAMES, disjoint_union, load_graph, spanning_subgraph

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
    assert g.degrees() == (2,)  # one head and one tail: in = out = 1
    assert eulerian_check(g).is_eulerian


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

TRIANGLE = UndirectedMultigraph(3, ((0, 1), (1, 2), (2, 0)))


def test_component_count_isolated_vertices():
    assert component_count(spanning_subgraph(TRIANGLE, [])) == 3


def test_component_count_full_triangle():
    assert component_count(TRIANGLE) == 1


def test_component_count_single_edge():
    assert component_count(spanning_subgraph(UndirectedMultigraph(2, ((0, 1),)), [])) == 2


def test_component_count_monotone_under_edge_addition():
    g = UndirectedMultigraph(5, ((0, 1), (1, 2), (3, 4), (2, 3), (0, 4)))
    subset: list[int] = []
    previous = component_count(spanning_subgraph(g, subset))
    for e in range(g.edge_count):
        subset.append(e)
        current = component_count(spanning_subgraph(g, subset))
        assert current <= previous
        previous = current


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))))
def test_edge_components_and_degree_counts_follow_the_edge_ends(case):
    """edge_components keys the vertices that edges touch, in order of their
    first edge end, and gives two of them one root exactly when a path of
    edges joins them; degree_counts is degrees() less its zeros, in the same
    order."""
    n, edges = case
    roots = edge_components(edges)
    ends = [w for edge in edges for w in edge]
    assert list(roots) == list(dict.fromkeys(ends))
    reach = {v: {v} for v in roots}
    for _ in range(n):
        for u, v in edges:
            reach[u] = reach[v] = reach[u] | reach[v]
    assert all((roots[u] == roots[v]) == (v in reach[u]) for u in roots for v in roots)
    g = UndirectedMultigraph(n, edges)
    assert list(g.degree_counts().items()) == [(v, ends.count(v)) for v in roots]
    assert g.degrees() == tuple(ends.count(v) for v in range(n))


# ---------------------------------------------------------------------------
# Cycles of a permutation
# ---------------------------------------------------------------------------

@given(st.integers(0, 60).flatmap(lambda n: st.permutations(range(n))))
def test_permutation_cycles_are_the_orbits_from_their_least_elements(successor):
    cycles = permutation_cycles(successor)
    assert sorted(h for cycle in cycles for h in cycle) == list(range(len(successor)))
    starts = [cycle[0] for cycle in cycles]
    assert starts == sorted(set(starts))
    for cycle in cycles:
        assert cycle[0] == min(cycle)
        for h, h_next in zip(cycle, cycle[1:] + cycle[:1]):
            assert successor[h] == h_next


SWEEP_EDGES = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30)


@given(SWEEP_EDGES, st.data())
def test_sweep_plan_places_the_most_linked_vertex_next(edges, data):
    """Each placed vertex has the most edges into the vertices placed before
    it, ties broken by least half-edge count, then least id; untouched ids
    are left out, and neither edge direction nor edge order matters."""
    order = sweep_plan(edges).order
    assert sorted(order) == sorted({v for edge in edges for v in edge})
    halves = Counter(v for edge in edges for v in edge)

    def rank(v, placed):  # least rank goes next
        return (-sum(1 for a, b in edges if a != b and {a, b} - placed == {v}), halves[v], v)

    for i, v in enumerate(order):
        placed = set(order[:i])
        assert rank(v, placed) == min(rank(w, placed) for w in order[i:])
    assert sweep_plan([(b, a) for a, b in edges]).order == order
    assert sweep_plan(data.draw(st.permutations(edges))).order == order


@given(SWEEP_EDGES)
def test_sweep_plan_closes_every_edge_once_and_opens_every_non_loop(edges):
    """Each edge closes exactly once, at its later end's step, paired with its
    earlier end's step (a loop at the step that places it), and opens at its
    earlier step, paired with its later one, exactly when it is not a loop.
    Each step lists its edges by ascending index. An id that no edge touches
    is placed at no step, so it is in no table."""
    plan = sweep_plan(edges)
    step = {v: i for i, v in enumerate(plan.order)}
    assert len(step) == len(plan.order) == len(plan.closes) == len(plan.opens)
    assert step.keys() == {v for edge in edges for v in edge}
    spans = [sorted((step[u], step[v])) for u, v in edges]
    assert (sorted((e, i, a) for i, pairs in enumerate(plan.closes) for e, a in pairs)
            == [(e, b, a) for e, (a, b) in enumerate(spans)])
    assert (sorted((e, i, b) for i, pairs in enumerate(plan.opens) for e, b in pairs)
            == [(e, a, b) for e, (a, b) in enumerate(spans) if edges[e][0] != edges[e][1]])
    assert all(pairs == sorted(pairs) for pairs in plan.closes + plan.opens)


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


def in_out_degrees(g: DirectedMultigraph) -> tuple[list[int], list[int]]:
    ins, outs = [0] * g.vertex_count, [0] * g.vertex_count
    for tail, head in g.edges:
        outs[tail] += 1
        ins[head] += 1
    return ins, outs


@given(directed_graphs())
def test_degree_sums_directed(g):
    ins, outs = in_out_degrees(g)
    assert sum(ins) == sum(outs) == g.edge_count
    assert sum(g.degrees()) == 2 * g.edge_count
    assert list(g.degrees()) == [i + o for i, o in zip(ins, outs)]
    # g plus every edge reversed is Eulerian, and there d_v is the in-degree.
    balanced = DirectedMultigraph(g.vertex_count, g.edges + tuple((v, u) for u, v in g.edges))
    assert eulerian_check(balanced).is_eulerian
    assert [d // 2 for d in balanced.degrees()] == in_out_degrees(balanced)[0]


@given(undirected_graphs())
def test_degree_sum_undirected(g):
    assert sum(g.degrees()) == 2 * g.edge_count


@given(st.one_of(directed_graphs(), undirected_graphs()))
def test_half_edges_partition(g):
    at = g.half_edges()
    owned = sorted(h for halves in at.values() for h in halves)
    assert owned == list(range(g.half_edge_count))
    for v, halves in at.items():
        assert halves  # a vertex without half-edges is not listed
        assert all(g.half_edge_vertex(h) == v for h in halves)
        if isinstance(g, DirectedMultigraph):  # heads (in-slots) first, then tails
            assert halves == sorted(h for h in halves if h % 2) + sorted(h for h in halves if not h % 2)
        else:
            assert halves == sorted(halves)


def test_half_edges_is_the_slot_table():
    edges = ((0, 2), (2, 0), (2, 2), (0, 2))  # vertices 1, 3 and 4 have no half-edges
    assert DirectedMultigraph(5, edges).half_edges() == {0: [3, 0, 6], 2: [1, 5, 7, 2, 4]}
    assert UndirectedMultigraph(5, edges).half_edges() == {0: [0, 3, 6], 2: [1, 2, 4, 5, 7]}
    assert DirectedMultigraph(3_000_000, ()).half_edges() == {}


@given(st.one_of(directed_graphs(), undirected_graphs()))
def test_roundtrip_random_graphs(g):
    assert parse_graph(serialize_graph(g)) == g


def test_out_of_range_edges_rejected():
    with pytest.raises(ValueError):
        DirectedMultigraph(2, ((0, 2),))


@pytest.mark.parametrize("make", [
    lambda: DirectedMultigraph(2, ((0, 1.9), (1.2, 0))),
    lambda: UndirectedMultigraph(2, (("0", "1"),)),
    lambda: UndirectedMultigraph(2.7, ()),
    lambda: DirectedMultigraph(2, ((Fraction(0), 1), (1, 0))),
    lambda: DirectedMultigraph(Fraction(2), ()),
], ids=["float endpoints", "string endpoints", "float vertex count", "Fraction endpoint",
        "Fraction vertex count"])
def test_non_integer_input_is_refused_not_truncated(make):
    with pytest.raises(TypeError):
        make()


def test_integer_like_input_is_stored_as_int():
    g = DirectedMultigraph(np.int64(2), ((np.int32(0), np.int64(1)), (True, False)))
    assert g == DirectedMultigraph(2, ((0, 1), (1, 0)))
    assert type(g.vertex_count) is int
    assert all(type(v) is int for edge in g.edges for v in edge)


GRAPH_KINDS = pytest.mark.parametrize("kind", [DirectedMultigraph, UndirectedMultigraph],
                                      ids=["directed", "undirected"])


@GRAPH_KINDS
@pytest.mark.parametrize("end", [1.0, "1", Fraction(1)], ids=["float", "str", "Fraction"])
def test_the_constructor_refuses_a_non_integer_endpoint(kind, end):
    with pytest.raises(TypeError):
        kind(2, ((0, 1), (end, 0)))
    with pytest.raises(TypeError):
        kind(2, ((0, end),))


@GRAPH_KINDS
@pytest.mark.parametrize("edge", [(0,), (0, 1, 1)], ids=["one end", "three ends"])
def test_the_constructor_refuses_an_edge_without_two_ends(kind, edge):
    with pytest.raises(ValueError):
        kind(2, ((0, 1), edge))


@GRAPH_KINDS
def test_the_out_of_range_message_names_the_first_offending_edge(kind):
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for 3 vertices$"):
        kind(3, ((0, 1), (0, 3), (-1, 0)))
    with pytest.raises(ValueError, match=r"^edge \(-1, 0\) out of range for 3 vertices$"):
        kind(3, ((0, 1), (-1, 0), (0, 3)))


@GRAPH_KINDS
def test_numpy_ints_and_bools_are_stored_as_int(kind):
    g = kind(np.int16(3), [(np.int64(2), np.uint8(0)), (True, np.int32(1))])
    assert g.vertex_count == 3 and g.edges == ((2, 0), (1, 1))
    assert type(g.vertex_count) is int
    assert all(type(v) is int for edge in g.edges for v in edge)


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


def test_graphs_are_immutable_values_of_their_kind():
    edges = ((0, 1), (1, 0))
    directed, undirected = DirectedMultigraph(2, edges), UndirectedMultigraph(2, edges)
    assert directed != undirected and undirected != directed
    same = DirectedMultigraph(2, [[0, 1], [1, 0]])
    assert directed == same and hash(directed) == hash(same)
    assert len({directed, undirected, same}) == 2
    for attempt in (lambda: setattr(directed, "edges", ()), lambda: setattr(directed, "extra", 1),
                    lambda: delattr(directed, "vertex_count")):
        with pytest.raises(AttributeError):
            attempt()
    assert directed.edges == edges and directed.vertex_count == 2
    assert repr(directed) == "DirectedMultigraph(vertex_count=2, edges=((0, 1), (1, 0)))"
    assert copy.deepcopy(directed) == directed and pickle.loads(pickle.dumps(undirected)) == undirected
    assert type(pickle.loads(pickle.dumps(undirected))) is UndirectedMultigraph
