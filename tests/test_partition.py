from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from circuitkit import (
    DirectedMultigraph,
    GuardExceededError,
    IntPolynomial,
    NotEulerianError,
    UndirectedMultigraph,
    circuit_count,
    circuit_partition_polynomial,
    component_count,
    enumerate_transition_systems,
    transition_system_count,
)
from circuitkit.partition import _contract, _core_systems, double_factorial

from conftest import directed_circulant, disjoint_union, poly_product


# ---------------------------------------------------------------------------
# Independent circuit-count oracles: walk edges with an explicit unused set,
# one closed walk at a time. No successor permutation, no component scan.
# ---------------------------------------------------------------------------

def walk_circuits_directed(g: DirectedMultigraph, wirings: tuple[tuple, ...]) -> int:
    ins: list[list[int]] = [[] for _ in range(g.vertex_count)]
    outs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        outs[u].append(e)
        ins[v].append(e)
    unused = set(range(g.edge_count))
    circuits = 0
    while unused:
        start = min(unused)
        circuits += 1
        e = start
        while True:
            unused.discard(e)
            head = g.edges[e][1]
            slot = ins[head].index(e)
            e = outs[head][wirings[head][slot]]
            if e == start:
                break
    return circuits


def walk_circuits_undirected(g: UndirectedMultigraph, wirings: tuple[tuple, ...]) -> int:
    match: dict[int, int] = {}
    for v, slots in g.half_edges().items():
        for a, b in wirings[v]:
            match[slots[a]] = slots[b]
            match[slots[b]] = slots[a]
    unused = set(range(g.edge_count))
    circuits = 0
    while unused:
        start = min(unused)
        circuits += 1
        d = 2 * start  # traverse the start edge away from its first endpoint
        while True:
            unused.discard(d // 2)
            d = match[d ^ 1]  # cross the edge, continue via the vertex wiring
            if d == 2 * start:
                break
    return circuits


def walk_circuits(g, ts) -> int:
    if isinstance(g, DirectedMultigraph):
        return walk_circuits_directed(g, ts)
    return walk_circuits_undirected(g, ts)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_fig1_has_two_transition_systems(fig1):
    systems = list(enumerate_transition_systems(fig1))
    assert len(systems) == 2
    assert transition_system_count(fig1) == 2


def test_single_loop_has_one_system(single_loop):
    assert len(list(enumerate_transition_systems(single_loop))) == 1


def test_figure_eight_has_three_systems(figure_eight):
    systems = list(enumerate_transition_systems(figure_eight))
    assert len(systems) == 3
    assert transition_system_count(figure_eight) == 3


def test_enumeration_is_lexicographic(fig1, figure_eight):
    directed = list(enumerate_transition_systems(fig1))
    assert directed == sorted(directed)
    undirected = list(enumerate_transition_systems(figure_eight))
    assert undirected == sorted(undirected)


def test_enumeration_yields_each_system_once(corpus_graphs):
    for g in corpus_graphs.values():
        systems = list(enumerate_transition_systems(g))
        assert len(systems) == transition_system_count(g)
        assert len(set(systems)) == len(systems)


def test_high_degree_vertex_is_enumerated_lazily():
    g = DirectedMultigraph(1, ((0, 0),) * 11)  # 11! = 39.9M systems, under the guard
    assert next(enumerate_transition_systems(g)) == (tuple(range(11)),)


def test_enumeration_guard_refuses_with_count():
    g = DirectedMultigraph(1, ((0, 0),) * 13)  # 13! systems
    with pytest.raises(GuardExceededError) as excinfo:
        next(enumerate_transition_systems(g))
    assert excinfo.value.required == factorial(13)


def test_non_eulerian_enumeration_cites_report():
    g = DirectedMultigraph(2, ((0, 1),))
    with pytest.raises(NotEulerianError) as excinfo:
        next(enumerate_transition_systems(g))
    assert excinfo.value.report.offending_vertices == ((0, 0, 1), (1, 1, 0))


@pytest.mark.parametrize("g", [
    DirectedMultigraph(2, ((0, 1),)),
    UndirectedMultigraph(3, ((0, 1), (1, 2), (0, 1), (1, 2), (0, 2))),  # degrees 3, 4, 3
], ids=["directed", "undirected"])
def test_non_eulerian_graphs_have_no_transition_system(g):
    assert transition_system_count(g) == 0


@pytest.mark.parametrize("g, wirings", [
    (DirectedMultigraph(2, ((0, 1),)), ((), (0,))),  # sigma as long as the in-degree
    (UndirectedMultigraph(3, ((0, 1), (1, 2), (0, 1), (1, 2), (0, 2))),
     (((0, 1),), ((0, 1), (2, 3)), ((0, 1),))),  # degree // 2 pairs per vertex
], ids=["directed", "undirected"])
def test_circuit_count_refuses_non_eulerian_graphs(g, wirings):
    with pytest.raises(ValueError, match="not Eulerian"):
        circuit_count(g, wirings)


# ---------------------------------------------------------------------------
# Circuit counting
# ---------------------------------------------------------------------------

def test_fig1_wirings_give_two_and_one_circuits(fig1):
    # Only vertex 2 (in-degree 2) has a choice: straight-through vs crossing.
    straight, crossing = enumerate_transition_systems(fig1)
    assert straight[2] == (0, 1)
    assert circuit_count(fig1, straight) == 2
    assert circuit_count(fig1, crossing) == 1


def test_figure_eight_matchings(figure_eight):
    by_wiring = {ts[0]: circuit_count(figure_eight, ts)
                 for ts in enumerate_transition_systems(figure_eight)}
    assert by_wiring[((0, 1), (2, 3))] == 2  # each loop on its own
    assert by_wiring[((0, 2), (1, 3))] == 1
    assert by_wiring[((0, 3), (1, 2))] == 1


def test_circuit_count_matches_walk_oracle(corpus_graphs):
    for g in corpus_graphs.values():
        for ts in enumerate_transition_systems(g):
            assert circuit_count(g, ts) == walk_circuits(g, ts)


def test_invalid_wiring_rejected(fig1):
    bad = ((0,), (0,), (0, 0), (0,))
    with pytest.raises(ValueError):
        circuit_count(fig1, bad)


def test_counter_rejects_a_system_of_another_vertex_count(fig1):
    with pytest.raises(ValueError, match="vertex count"):
        circuit_count(fig1, ((0,), (0,), (0, 1)))


# ---------------------------------------------------------------------------
# The polynomial
# ---------------------------------------------------------------------------

def test_fig1_polynomial(fig1):
    assert circuit_partition_polynomial(fig1).coefficients == (0, 1, 1)


def test_two_directed_loops_polynomial(two_loop):
    assert circuit_partition_polynomial(two_loop).coefficients == (0, 1, 1)


def test_figure_eight_polynomial(figure_eight):
    poly = circuit_partition_polynomial(figure_eight)
    assert poly.coefficients == (0, 2, 1)


def test_edgeless_polynomial_is_one():
    assert circuit_partition_polynomial(DirectedMultigraph(3, ())).coefficients == (1,)
    assert circuit_partition_polynomial(UndirectedMultigraph(0, ())).coefficients == (1,)


def test_the_empty_system_of_an_edgeless_graph_has_no_circuits():
    for g in (DirectedMultigraph(3, ()), UndirectedMultigraph(2, ())):
        (empty,) = enumerate_transition_systems(g)
        assert circuit_count(g, empty) == 0


def test_evaluate_examples():
    p = IntPolynomial((0, 1, 1))
    assert p.evaluate(2) == Fraction(6)
    assert p.evaluate(1) == Fraction(2)
    assert IntPolynomial((1,)).evaluate(Fraction(7, 3)) == Fraction(1)
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)


def test_coefficient_sum_equals_system_count(corpus_graphs):
    for g in corpus_graphs.values():
        poly = circuit_partition_polynomial(g)
        assert poly.coefficient_sum() == transition_system_count(g)
        assert poly.evaluate(1) == transition_system_count(g)


def test_top_coefficient_positive_iff_all_loops():
    loops_only = DirectedMultigraph(2, ((0, 0), (0, 0), (1, 1)))
    poly = circuit_partition_polynomial(loops_only)
    assert poly.coefficients[loops_only.edge_count] > 0
    cycle = DirectedMultigraph(2, ((0, 1), (1, 0)))
    assert circuit_partition_polynomial(cycle).coefficients == (0, 1)


def reversed_edges(g: DirectedMultigraph) -> DirectedMultigraph:
    """The graph with every edge direction flipped (edge order kept)."""
    return DirectedMultigraph(g.vertex_count, tuple((v, u) for u, v in g.edges))


def test_reversal_invariance(corpus_graphs):
    for g in corpus_graphs.values():
        if isinstance(g, DirectedMultigraph):
            assert circuit_partition_polynomial(reversed_edges(g)) == circuit_partition_polynomial(g)


def test_disjoint_union_multiplies(fig1, single_loop, two_loop):
    pairs = [(fig1, single_loop), (fig1, two_loop), (two_loop, single_loop)]
    for g1, g2 in pairs:
        product = poly_product(circuit_partition_polynomial(g1), circuit_partition_polynomial(g2))
        assert circuit_partition_polynomial(disjoint_union(g1, g2)) == product


def test_polynomial_normalization_and_output():
    p = IntPolynomial((0, 1, 1, 0, 0))
    assert p.coefficients == (0, 1, 1)
    assert p == IntPolynomial([0, 1, 1]) and hash(p) == hash(IntPolynomial([0, 1, 1]))
    assert IntPolynomial(()).coefficients == IntPolynomial((0, 0)).coefficients == (0,)
    with pytest.raises(ValueError):
        IntPolynomial((1, -1))
    with pytest.raises(AttributeError):
        p.coefficients = (1,)
    assert repr(p) == "IntPolynomial(coefficients=(0, 1, 1))"


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48


# ---------------------------------------------------------------------------
# Properties over random Eulerian graphs
# ---------------------------------------------------------------------------

@st.composite
def eulerian_directed(draw):
    n = draw(st.integers(1, 4))
    cycles = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=3))
    edges = []
    for cycle in cycles:
        for i, u in enumerate(cycle):
            edges.append((u, cycle[(i + 1) % len(cycle)]))
    return DirectedMultigraph(n, tuple(edges))


@st.composite
def even_degree_undirected(draw):
    n = draw(st.integers(1, 4))
    cycles = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3), min_size=1, max_size=2))
    edges = []
    for cycle in cycles:
        for i, u in enumerate(cycle):
            edges.append((u, cycle[(i + 1) % len(cycle)]))
    return UndirectedMultigraph(n, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(eulerian_directed())
def test_random_directed_counts_and_reversal(g):
    assume(transition_system_count(g) <= 5000)
    poly = circuit_partition_polynomial(g)
    assert poly.coefficient_sum() == transition_system_count(g)
    assert circuit_partition_polynomial(reversed_edges(g)) == poly
    if transition_system_count(g) <= 500:
        for ts in enumerate_transition_systems(g):
            assert circuit_count(g, ts) == walk_circuits_directed(g, ts)


@settings(max_examples=40, deadline=None)
@given(even_degree_undirected())
def test_random_undirected_against_walk_oracle(g):
    assume(transition_system_count(g) <= 2000)
    tally: dict[int, int] = {}
    for ts in enumerate_transition_systems(g):
        t = walk_circuits_undirected(g, ts)
        assert t == circuit_count(g, ts)
        tally[t] = tally.get(t, 0) + 1
    assert sum(tally.values()) == transition_system_count(g)


# ---------------------------------------------------------------------------
# The splitting engine against the enumerator, and at sizes past it
# ---------------------------------------------------------------------------

def tally_polynomial(g) -> IntPolynomial:
    """j(G;z) from the reference enumerator."""
    tally = Counter(circuit_count(g, ts) for ts in enumerate_transition_systems(g))
    return IntPolynomial(tuple(tally[t] for t in range(max(tally) + 1)))


def best_r1(g: DirectedMultigraph) -> int:
    """Single-circuit partitions of a connected directed Eulerian graph by the
    BEST theorem: t_w(G) * prod_v (d_v - 1)!, the arborescence count t_w an
    exact Fraction determinant of the reduced Laplacian (loops ignored)."""
    n = g.vertex_count
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            lap[u][u] += 1
            lap[u][v] -= 1
    minor = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if minor[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            minor[col], minor[pivot] = minor[pivot], minor[col]
            det = -det
        det *= minor[col][col]
        for r in range(col + 1, n - 1):
            factor = minor[r][col] / minor[col][col]
            for c in range(col, n - 1):
                minor[r][c] -= factor * minor[col][c]
    arborescences = int(det)
    in_degrees = Counter(head for _, head in g.edges)
    return arborescences * prod(factorial(in_degrees[v] - 1) for v in range(n))


@st.composite
def eulerian_multigraphs(draw):
    """Unions of closed walks: loops (walks of length 1), parallel edges
    (repeated steps), several components, isolated vertices and the
    edgeless graph (no walks)."""
    directed = draw(st.booleans())
    n = draw(st.integers(0, 6))
    walks = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
                          max_size=3)) if n else []
    edges = tuple((u, walk[(i + 1) % len(walk)]) for walk in walks for i, u in enumerate(walk))
    return (DirectedMultigraph if directed else UndirectedMultigraph)(n, edges)


@settings(max_examples=150, deadline=None)
@given(eulerian_multigraphs())
def test_engine_matches_enumerator(g):
    assume(transition_system_count(g) <= 20_000)
    assert circuit_partition_polynomial(g) == tally_polynomial(g)


@settings(max_examples=30, deadline=None)
@given(eulerian_multigraphs(), eulerian_multigraphs())
def test_disjoint_union_product_law(g1, g2):
    assume(type(g1) is type(g2))
    union = disjoint_union(g1, g2)
    assert circuit_partition_polynomial(union) == poly_product(
        circuit_partition_polynomial(g1), circuit_partition_polynomial(g2))


def test_disjoint_union_product_law_past_the_enumeration_guard():
    big, bigger = directed_circulant(6, 4), directed_circulant(10, 3)
    assert circuit_partition_polynomial(disjoint_union(big, bigger)) == poly_product(
        circuit_partition_polynomial(big), circuit_partition_polynomial(bigger))


@pytest.mark.parametrize("n, d", [(6, 4), (10, 3)])
def test_counts_and_best_theorem_past_the_enumeration_guard(n, d):
    g = directed_circulant(n, d)
    systems = transition_system_count(g)
    assert systems == factorial(d) ** n > 10**7
    poly = circuit_partition_polynomial(g)
    assert poly.coefficient_sum() == systems
    assert poly.coefficients[1] == best_r1(g)


def relabelled(g, seed: int):
    """g with its vertices relabelled and its edges shuffled by a seeded draw."""
    rng = random.Random(seed)
    label = list(range(g.vertex_count))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return type(g)(g.vertex_count, tuple(edges))


def test_the_split_order_does_not_follow_the_vertex_labels():
    """The engine splits along the maximum-adjacency order, which follows
    the graph's edges rather than its labels: every relabeling of circ(10,3)
    below fits one work-unit guard (the most any of them needs is 19,400)."""
    g = directed_circulant(10, 3)
    expected = circuit_partition_polynomial(g)
    for seed in range(10):
        assert circuit_partition_polynomial(relabelled(g, seed), guard=30_000) == expected


@st.composite
def larger_eulerian_multigraphs(draw):
    """Unions of closed walks on up to 12 vertices, of both kinds: loops,
    parallel edges, several components and isolated vertices, mostly past
    the enumerator's reach."""
    directed = draw(st.booleans(), label="directed")
    n = draw(st.integers(1, 12), label="n")
    walks = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=10), min_size=1, max_size=5),
                 label="walks")
    edges = tuple((u, walk[(i + 1) % len(walk)]) for walk in walks for i, u in enumerate(walk))
    return (DirectedMultigraph if directed else UndirectedMultigraph)(n, edges)


def engine_or_skip(g) -> IntPolynomial:
    """j(G;z), or skip the example when the engine refuses it under 10^5 work units."""
    try:
        return circuit_partition_polynomial(g, guard=10**5)
    except GuardExceededError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(larger_eulerian_multigraphs(), larger_eulerian_multigraphs(), st.data())
def test_engine_laws_past_the_enumeration_guard(g, h, data):
    """Checks that need no enumeration: the systems are counted once each,
    the split order changes cost but never values, reversing every edge keeps
    j, BEST gives r_1, and j is multiplicative over disjoint unions."""
    poly = engine_or_skip(g)
    assert poly.coefficient_sum() == transition_system_count(g)
    label = data.draw(st.permutations(range(g.vertex_count)), label="relabelling")
    shuffled = data.draw(st.permutations([(label[u], label[v]) for u, v in g.edges]), label="edge order")
    assert circuit_partition_polynomial(type(g)(g.vertex_count, tuple(shuffled))) == poly
    if isinstance(g, DirectedMultigraph):
        assert circuit_partition_polynomial(reversed_edges(g)) == poly
        if component_count(UndirectedMultigraph(g.vertex_count, g.edges)) == 1:
            assert poly.coefficients[1] == best_r1(g)
    if type(h) is type(g):
        assert engine_or_skip(disjoint_union(g, h)) == poly_product(poly, circuit_partition_polynomial(h))


# Loops, a closed chain of forced vertices (one of them a lone loop) and
# isolated vertices, beside a branching vertex, in one graph of each kind.
_FORCED_AND_BRANCHING = ((0, 0), (0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 5))


@settings(max_examples=200, deadline=None)
@given(larger_eulerian_multigraphs())
@example(DirectedMultigraph(8, _FORCED_AND_BRANCHING))
@example(UndirectedMultigraph(8, _FORCED_AND_BRANCHING))
def test_the_packing_bound_is_the_transition_system_count(g):
    """The engine sizes each coefficient's slot by the core's transition
    system count; no slot carries only if that count is g's."""
    pairs, _ = _contract(g)
    assert _core_systems(pairs, isinstance(g, DirectedMultigraph)) == transition_system_count(g)


@pytest.mark.parametrize("d, bits, loops", [(12, 58, 0), (25, 168, 2), (40, 319, 1000)])
def test_thick_digon_coefficients_past_64_bits(d, bits, loops):
    """d edges 0 -> 1 and d edges 1 -> 0. A transition system is a bijection
    s of the first bundle onto the second at vertex 1 and one, t, back at
    vertex 0, and its circuits are the cycles of t s. For each of the d!
    choices of s, t s runs over all permutations of d elements, whose cycle
    counts z (z + 1) ... (z + d - 1) generates, so j is d! times that: its
    coefficients, and packing slots, are wider than a machine word. Each
    loop on a vertex of its own is one more factor z."""
    g = DirectedMultigraph(2 + loops, ((0, 1),) * d + ((1, 0),) * d + tuple((v, v) for v in range(2, 2 + loops)))
    assert transition_system_count(g).bit_length() == bits
    rising = reduce(poly_product, [IntPolynomial((i, 1)) for i in range(d)])
    poly = circuit_partition_polynomial(g)
    assert poly.coefficients == (0,) * loops + tuple(factorial(d) * c for c in rising.coefficients)
    assert poly.coefficient_sum() == factorial(d) ** 2


@pytest.mark.parametrize("loops", [0, 1, 3, 40])
def test_long_directed_cycle_with_loops(loops):
    m = 20_000
    edges = tuple((u, (u + 1) % m) for u in range(m)) + tuple((v, v) for v in range(0, m, 499)[:loops])
    poly = circuit_partition_polynomial(DirectedMultigraph(m, edges))
    assert poly.coefficients == (0,) + tuple(comb(loops, i) for i in range(loops + 1))


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("seed", [1, 2])
def test_long_relabelled_cycle_with_loops(directed, seed):
    """The chains through forced vertices are spliced whatever the vertex
    labels, the edge order and (undirected) the ends' order."""
    rng = random.Random(seed)
    m, loops = 5_000, 3
    label = list(range(m))
    rng.shuffle(label)
    edges = [(label[u], label[(u + 1) % m]) for u in range(m)] + [(label[v], label[v]) for v in rng.sample(range(m), loops)]
    edges = [(v, u) if not directed and rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    poly = circuit_partition_polynomial((DirectedMultigraph if directed else UndirectedMultigraph)(m, edges))
    # z (1 + z)^loops directed; z (z + 2)^loops undirected
    assert poly.coefficients == (0, *(comb(loops, i) * (1 if directed else 2 ** (loops - i)) for i in range(loops + 1)))


@pytest.mark.parametrize("directed", [True, False])
def test_cycle_with_a_loop_at_every_vertex(directed):
    # The states form a chain deeper than the default recursion limit.
    n = 1000
    edges = tuple((u, (u + 1) % n) for u in range(n)) + tuple((v, v) for v in range(n))
    g = (DirectedMultigraph if directed else UndirectedMultigraph)(n, edges)
    poly = circuit_partition_polynomial(g)
    # z (1 + z)^n directed; z (z + 2)^n undirected
    expected = [comb(n, i) * (1 if directed else 2 ** (n - i)) for i in range(n + 1)]
    assert poly.coefficients == (0, *expected)


def test_engine_guard_refuses_with_work_count():
    g = directed_circulant(6, 3)
    with pytest.raises(GuardExceededError) as excinfo:
        circuit_partition_polynomial(g, guard=50)
    assert excinfo.value.limit == 50
    assert excinfo.value.required > 50
    assert circuit_partition_polynomial(g, guard=10**5).coefficient_sum() == 6**6
    with pytest.raises(GuardExceededError) as excinfo:
        circuit_partition_polynomial(directed_circulant(8, 5), guard=10**5)
    assert excinfo.value.required == 100_008  # the running total that first passes the guard


def test_normalization_of_long_coefficient_tuples():
    long = IntPolynomial((3,) + (0,) * 20_000)
    assert long.coefficients == (3,)
    middle = IntPolynomial((0,) * 10_000 + (7,) + (0,) * 10_000)
    assert len(middle.coefficients) == 10_001
    assert middle.coefficients[-1] == 7
