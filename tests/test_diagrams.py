from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from circuitkit import (
    DirectedMultigraph,
    Ensemble,
    GuardExceededError,
    NotEulerianError,
    UndirectedMultigraph,
    contract_q_exact,
    cycle_genfunc_matchings,
    cycle_genfunc_permutations,
    enumerate_matchings,
    enumerate_permutations,
    predicted_q,
    xd_scaling,
)
from circuitkit import diagrams
from circuitkit.checks import pairing_loop_count
from circuitkit.diagrams import matching_entry, permutation_entry, vertex_scaling
from circuitkit.graphs import permutation_cycles, sweep_plan

from conftest import directed_circulant, undirected_circulant

CUPCAP = ((0, 1), (2, 3))
EXCHANGE = ((0, 3), (1, 2))
IDENTITY2 = ((0, 2), (1, 3))


def closure(d: int) -> list[int]:
    """The twin of each endpoint when a size-d diagram is closed: upper i with lower d+i."""
    return [(h + d) % (2 * d) for h in range(2 * d)]


def embedded(image):
    """A permutation diagram as the matching with the same wiring."""
    return tuple((image[l], len(image) + l) for l in range(len(image)))


def satisfied(pairs, uppers, lowers) -> int:
    """1 iff every matched pair of endpoints (uppers, then lowers) carries equal values."""
    values = tuple(uppers) + tuple(lowers)
    return int(all(values[a] == values[b] for a, b in pairs))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_permutations_of_size_two():
    assert list(enumerate_permutations(2)) == [(0, 1), (1, 0)]


def test_matchings_of_size_two():
    assert list(enumerate_matchings(2)) == [CUPCAP, IDENTITY2, EXCHANGE]


def test_matching_counts():
    assert len(list(enumerate_matchings(3))) == 15
    assert len(list(enumerate_matchings(4))) == 105
    assert len(list(enumerate_permutations(4))) == 24


@pytest.mark.parametrize("d", range(6))
def test_matchings_are_distinct_canonical_perfect_matchings(d):
    matchings = list(enumerate_matchings(d))
    assert len(set(matchings)) == len(matchings)
    for pairs in matchings:
        assert pairs == tuple(sorted(pairs)) and all(a < b for a, b in pairs)
        assert sorted(x for pair in pairs for x in pair) == list(range(2 * d))


def test_enumeration_limits():
    with pytest.raises(GuardExceededError):
        list(enumerate_permutations(9))
    with pytest.raises(GuardExceededError):
        list(enumerate_matchings(8))


def test_permutation_embeds_as_matching():
    for d in range(5):
        for p in enumerate_permutations(d):
            assert pairing_loop_count(embedded(p), closure(d)) == len(permutation_cycles(p))


# ---------------------------------------------------------------------------
# Generating functions
# ---------------------------------------------------------------------------

def test_genfunc_permutation_examples():
    assert cycle_genfunc_permutations(2, 2) == 6
    assert cycle_genfunc_permutations(3, 2) == 24
    for k in range(1, 6):
        assert cycle_genfunc_permutations(1, k) == k


def test_genfunc_matching_examples():
    assert cycle_genfunc_matchings(2, 2) == 8
    assert cycle_genfunc_matchings(2, 3) == 15
    for k in range(1, 6):
        assert cycle_genfunc_matchings(0, k) == 1


def test_m2_traces():
    # tr 1 = k^2, tr exchange = k, tr cupcap = k
    assert pairing_loop_count(IDENTITY2, closure(2)) == 2
    assert pairing_loop_count(EXCHANGE, closure(2)) == 1
    assert pairing_loop_count(CUPCAP, closure(2)) == 1


@pytest.mark.parametrize("d", range(7))
@pytest.mark.parametrize("k", range(1, 6))
def test_rising_factorial_closed_form(d, k):
    assert cycle_genfunc_permutations(d, k) == factorial(k + d - 1) // factorial(k - 1)
    assert cycle_genfunc_permutations(d, k) % factorial(d) == 0
    assert cycle_genfunc_permutations(d, k) // factorial(d) == comb(k + d - 1, d)


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("k", range(1, 6))
def test_matching_closed_form(d, k):
    assert cycle_genfunc_matchings(d, k) == prod(k + 2 * i for i in range(d))


@pytest.mark.parametrize("d", range(4))
@pytest.mark.parametrize("k", range(1, 4))
def test_trace_identity_by_entry_summation(d, k):
    """The closed-trace loop count is really the exponent of the trace."""
    for p in enumerate_permutations(d):
        trace = sum(satisfied(embedded(p), values, values)
                    for values in itertools.product(range(k), repeat=d))
        assert trace == k ** len(permutation_cycles(p))
    for mu in enumerate_matchings(d):
        trace = sum(satisfied(mu, values, values)
                    for values in itertools.product(range(k), repeat=d))
        assert trace == k ** pairing_loop_count(mu, closure(d))


# ---------------------------------------------------------------------------
# Scalings
# ---------------------------------------------------------------------------

def test_xd_scaling_examples():
    assert xd_scaling(2, 2, Ensemble.COMPLEX_SPHERE) == Fraction(1, 6)
    assert xd_scaling(2, 2, Ensemble.REAL_SPHERE) == Fraction(1, 8)
    assert xd_scaling(2, 2, Ensemble.COMPLEX_GAUSSIAN) == Fraction(1, 4)
    assert xd_scaling(3, 2, Ensemble.REAL_GAUSSIAN) == Fraction(1, 8)


def test_xd_scaling_small_k_double_factorials():
    # (k-2)!! = (-1)!! = 1 at k = 1 and 0!! = 1 at k = 2 keep these defined.
    assert xd_scaling(2, 1, Ensemble.REAL_SPHERE) == Fraction(1, 3)
    assert xd_scaling(1, 2, Ensemble.REAL_SPHERE) == Fraction(1, 2)
    assert xd_scaling(0, 1, Ensemble.REAL_SPHERE) == 1


def test_xd_scaling_normalizes_the_trace():
    # tr X_d = 1: scaling times the genfunc sum must be 1 for sphere ensembles.
    for d in range(5):
        for k in range(1, 5):
            assert xd_scaling(d, k, Ensemble.COMPLEX_SPHERE) * cycle_genfunc_permutations(d, k) == 1
            assert xd_scaling(d, k, Ensemble.REAL_SPHERE) * cycle_genfunc_matchings(d, k) == 1


def test_vertex_scaling_multiplies_per_vertex_scalings(fig1, figure_eight):
    # fig1 has in-degrees (1, 1, 2, 1); the figure eight is one vertex of degree 4.
    assert vertex_scaling(fig1, 2, Ensemble.COMPLEX_SPHERE) == Fraction(1, 2) ** 3 * Fraction(1, 6)
    assert vertex_scaling(figure_eight, 2, Ensemble.REAL_SPHERE) == Fraction(1, 8)
    assert vertex_scaling(DirectedMultigraph(0, ()), 3, Ensemble.COMPLEX_GAUSSIAN) == 1


@st.composite
def any_edges(draw):
    """(n, edges) of an arbitrary multigraph: loops, parallel edges, any degrees."""
    n = draw(st.integers(0, 8), label="n")
    if n == 0:
        return 0, ()
    vertex = st.integers(0, n - 1)
    return n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=16), label="edges"))


@settings(max_examples=60, deadline=None)
@given(any_edges(), st.integers(1, 4), st.sampled_from(list(Ensemble)))
def test_vertex_scaling_equals_the_per_vertex_product(graph, k, ensemble):
    # d_v is half the ends of edges at v, for both kinds: on an Eulerian
    # digraph the in-degree, on an even undirected graph half the degree.
    n, edges = graph
    ends = [0] * n
    for u, v in edges:
        ends[u] += 1
        ends[v] += 1
    per_vertex = prod((xd_scaling(d // 2, k, ensemble) for d in ends), start=Fraction(1))
    assert vertex_scaling(DirectedMultigraph(*graph), k, ensemble) == per_vertex
    assert vertex_scaling(UndirectedMultigraph(*graph), k, ensemble) == per_vertex


def test_vertex_scaling_of_a_large_edgeless_graph_is_one():
    assert vertex_scaling(DirectedMultigraph(3_000_000, ()), 3, Ensemble.COMPLEX_SPHERE) == Fraction(1)


# ---------------------------------------------------------------------------
# The contraction oracle
# ---------------------------------------------------------------------------

def brute_force_q(g, k: int, ensemble: Ensemble) -> Fraction:
    """Test-only reference: q(G;k) summed over all k^m edge-index assignments.

    Every assignment multiplies the closed-form entries of all vertices; no
    vertex order and no partial table, so it shares nothing with the
    frontier contraction beyond the entries and the scaling.
    """
    if isinstance(g, DirectedMultigraph):
        incident = [[e for e, (_, head) in enumerate(g.edges) if head == v]
                    + [e for e, (tail, _) in enumerate(g.edges) if tail == v] for v in range(g.vertex_count)]
        entry = permutation_entry
    else:
        incident, entry = [[h >> 1 for h in halves] for halves in g.half_edges().values()], matching_entry
    total = 0
    for assign in itertools.product(range(k), repeat=g.edge_count):
        total += prod(entry(tuple(assign[e] for e in edges)) for edges in incident)
    return total * vertex_scaling(g, k, ensemble)


@st.composite
def closed_walk_edges(draw):
    """(n, edges) of a union of closed walks, in a drawn edge order.

    Both kinds are Eulerian on such an edge list. The draw covers loops
    (walks of length 1), parallel edges, isolated vertices, several
    components and the edgeless graph, with and without vertices.
    """
    n = draw(st.integers(0, 5), label="n")
    if n == 0:
        return 0, ()
    walks = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), max_size=3),
                 label="walks")
    edges = [(u, walk[(i + 1) % len(walk)]) for walk in walks for i, u in enumerate(walk)]
    return n, tuple(draw(st.permutations(edges), label="edge order"))


@settings(max_examples=80, deadline=None)
@given(closed_walk_edges(), st.integers(1, 3), st.data())
def test_contraction_equals_the_brute_force_sum(graph, k, data):
    n, edges = graph
    assume(k ** len(edges) <= 3**7)
    directed = DirectedMultigraph(n, edges)
    undirected = UndirectedMultigraph(n, edges)
    complex_ensemble = data.draw(st.sampled_from((Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN)))
    real_ensemble = data.draw(st.sampled_from((Ensemble.REAL_SPHERE, Ensemble.REAL_GAUSSIAN)))
    assert contract_q_exact(directed, k, complex_ensemble) == brute_force_q(directed, k, complex_ensemble)
    assert contract_q_exact(undirected, k, real_ensemble) == brute_force_q(undirected, k, real_ensemble)


@pytest.mark.parametrize("g", [undirected_circulant(40), directed_circulant(10, 3)],
                         ids=["C_40(1,2)", "circ(10,3)"])
def test_oracle_matches_prediction_where_k_to_the_m_is_out_of_reach(g):
    """k^m is about 10^24 and 10^9 here; the contraction stays far under its guard."""
    ensemble = Ensemble.COMPLEX_SPHERE if isinstance(g, DirectedMultigraph) else Ensemble.REAL_SPHERE
    assert contract_q_exact(g, 2, ensemble) == predicted_q(g, 2, ensemble)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_guard_bounds_the_planned_work_and_refuses_before_any_table(k, monkeypatch):
    """On the L-cycle the order opens two edges at vertex 0, then holds two
    open edges while each of the next L - 2 vertices adds one, and the last
    vertex closes both: the planned work is 2 k^2 + (L - 2) k^3."""
    length = 20_000
    planned = 2 * k**2 + (length - 2) * k**3
    cycle = tuple((u, (u + 1) % length) for u in range(length))
    for g, ensemble in ((DirectedMultigraph(length, cycle), Ensemble.COMPLEX_SPHERE),
                        (UndirectedMultigraph(length, cycle), Ensemble.REAL_SPHERE)):
        with monkeypatch.context() as patched:
            def no_table(values):
                raise AssertionError("an entry was evaluated, so a table was built")
            patched.setattr(diagrams, "permutation_entry", no_table)
            patched.setattr(diagrams, "matching_entry", no_table)
            with pytest.raises(GuardExceededError) as excinfo:
                contract_q_exact(g, k, ensemble, guard=planned - 1)
        assert (excinfo.value.required, excinfo.value.limit) == (planned, planned - 1)
    # A guard equal to the planned work admits the run.
    five = DirectedMultigraph(5, tuple((u, (u + 1) % 5) for u in range(5)))
    assert (contract_q_exact(five, k, Ensemble.COMPLEX_SPHERE, guard=2 * k**2 + 3 * k**3)
            == predicted_q(five, k, Ensemble.COMPLEX_SPHERE))

def test_oracle_fig1(fig1):
    assert contract_q_exact(fig1, 2, Ensemble.COMPLEX_SPHERE) == Fraction(1, 8)


def test_oracle_single_loop(single_loop):
    for k in range(1, 5):
        assert contract_q_exact(single_loop, k, Ensemble.COMPLEX_SPHERE) == 1


def test_oracle_directed_digon():
    digon = DirectedMultigraph(2, ((0, 1), (1, 0)))
    assert contract_q_exact(digon, 2, Ensemble.COMPLEX_SPHERE) == Fraction(1, 2)
    assert contract_q_exact(digon, 3, Ensemble.COMPLEX_SPHERE) == Fraction(1, 3)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_oracle_matches_prediction_on_random_eulerian_graphs(data):
    n = data.draw(st.integers(1, 4), label="n")
    cycles = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3), min_size=1, max_size=2),
        label="cycles")
    edges = []
    for cycle in cycles:
        for i, u in enumerate(cycle):
            edges.append((u, cycle[(i + 1) % len(cycle)]))
    directed = DirectedMultigraph(n, tuple(edges))
    assume(2 ** directed.edge_count <= 256)
    assert (contract_q_exact(directed, 2, Ensemble.COMPLEX_SPHERE)
            == predicted_q(directed, 2, Ensemble.COMPLEX_SPHERE))
    undirected = UndirectedMultigraph(n, tuple(edges))
    assert (contract_q_exact(undirected, 2, Ensemble.REAL_GAUSSIAN)
            == predicted_q(undirected, 2, Ensemble.REAL_GAUSSIAN))


def test_oracle_matches_prediction_on_corpus(corpus_graphs):
    for g in corpus_graphs.values():
        ensembles = ((Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN)
                     if isinstance(g, DirectedMultigraph)
                     else (Ensemble.REAL_SPHERE, Ensemble.REAL_GAUSSIAN))
        for ensemble in ensembles:
            for k in (1, 2, 3):
                assert contract_q_exact(g, k, ensemble) == predicted_q(g, k, ensemble)


def test_oracle_invariant_under_edge_reordering(fig1):
    """X_d is symmetric under index permutations, so the slot convention
    (file order) cannot matter."""
    baseline = contract_q_exact(fig1, 2, Ensemble.COMPLEX_SPHERE)
    for order in ((4, 3, 2, 1, 0), (2, 0, 4, 1, 3)):
        shuffled = DirectedMultigraph(fig1.vertex_count, tuple(fig1.edges[i] for i in order))
        assert contract_q_exact(shuffled, 2, Ensemble.COMPLEX_SPHERE) == baseline


@pytest.mark.parametrize("d", range(5))
@pytest.mark.parametrize("k", range(1, 4))
def test_closed_form_entries_count_satisfied_diagrams(d, k):
    """The oracle's per-vertex entry is the number of diagrams whose delta
    product the index values satisfy; the closed forms must agree with that
    count for every value tuple."""
    permutations = list(enumerate_permutations(d))
    matchings = list(enumerate_matchings(d))
    for values in itertools.product(range(k), repeat=2 * d):
        uppers, lowers = values[:d], values[d:]
        assert permutation_entry(values) == sum(satisfied(embedded(p), uppers, lowers) for p in permutations)
        assert matching_entry(values) == sum(satisfied(mu, uppers, lowers) for mu in matchings)


@pytest.mark.parametrize("loops", range(1, 13))
def test_oracle_on_one_vertex_bouquets(loops):
    """A single vertex of degree 2 * loops: the closed-form entries keep the
    oracle at 2^loops assignments however large the vertex."""
    directed = DirectedMultigraph(1, ((0, 0),) * loops)
    assert (contract_q_exact(directed, 2, Ensemble.COMPLEX_SPHERE)
            == predicted_q(directed, 2, Ensemble.COMPLEX_SPHERE))
    undirected = UndirectedMultigraph(1, ((0, 0),) * loops)
    assert (contract_q_exact(undirected, 2, Ensemble.REAL_SPHERE)
            == predicted_q(undirected, 2, Ensemble.REAL_SPHERE))


def test_oracle_guard():
    """The default guard refuses with the planned work: 2^25 for 25 loops at
    one vertex, and for circ(10,3) the sum of k^width along its sweep plan."""
    big = DirectedMultigraph(1, ((0, 0),) * 25)
    with pytest.raises(GuardExceededError) as excinfo:
        contract_q_exact(big, 2, Ensemble.COMPLEX_SPHERE)
    assert excinfo.value.required == 2**25
    for k, planned in ((3, 67_317_318), (4, 4_840_235_008)):
        with pytest.raises(GuardExceededError) as excinfo:
            contract_q_exact(directed_circulant(10, 3), k, Ensemble.COMPLEX_SPHERE)
        assert excinfo.value.required == planned


def test_oracle_kind_mismatch(fig1, figure_eight):
    with pytest.raises(ValueError):
        contract_q_exact(fig1, 2, Ensemble.REAL_SPHERE)
    with pytest.raises(ValueError):
        contract_q_exact(figure_eight, 2, Ensemble.COMPLEX_GAUSSIAN)


def test_oracle_rejects_unbalanced_graphs():
    with pytest.raises(NotEulerianError):
        contract_q_exact(DirectedMultigraph(2, ((0, 1),)), 2, Ensemble.COMPLEX_SPHERE)
    with pytest.raises(NotEulerianError):
        contract_q_exact(UndirectedMultigraph(2, ((0, 1),)), 2, Ensemble.REAL_SPHERE)


def test_oracle_edgeless_graph_is_one():
    assert contract_q_exact(DirectedMultigraph(2, ()), 3, Ensemble.COMPLEX_SPHERE) == 1


def test_oracle_leaves_out_vertices_without_half_edges(fig1):
    """Isolated vertices are not in the sweep plan the oracle absorbs along;
    each is a factor of 1."""
    padded = DirectedMultigraph(fig1.vertex_count + 100_000, fig1.edges)
    assert sorted(padded.half_edges()) == list(range(fig1.vertex_count))
    assert sorted(sweep_plan(padded.edges).order) == list(range(fig1.vertex_count))
    assert contract_q_exact(padded, 2, Ensemble.COMPLEX_SPHERE) == Fraction(1, 8)

    interleaved = UndirectedMultigraph(6, ((1, 3), (3, 1), (4, 4)))  # 0, 2 and 5 are isolated
    assert sorted(sweep_plan(interleaved.edges).order) == [1, 3, 4]
    for k in (1, 2, 3):
        assert (contract_q_exact(interleaved, k, Ensemble.REAL_GAUSSIAN)
                == predicted_q(interleaved, k, Ensemble.REAL_GAUSSIAN))
    assert sweep_plan(DirectedMultigraph(3, ()).edges) == ([], [], [])


def test_ensemble_parsing(capsys, corpus_dir):
    from circuitkit import cli
    assert Ensemble("real-gaussian") is Ensemble.REAL_GAUSSIAN
    with pytest.raises(ValueError):
        Ensemble("quaternion-sphere")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["q-predict", str(corpus_dir / "fig1.graph"), "--k", "2", "--ensemble", "quaternion-sphere"])
    assert excinfo.value.code == cli.EXIT_INPUT_ERROR
    assert "invalid choice: 'quaternion-sphere'" in capsys.readouterr().err
    assert Ensemble.COMPLEX_SPHERE.is_complex
    assert not Ensemble.COMPLEX_SPHERE.is_gaussian
    assert not Ensemble.REAL_GAUSSIAN.is_complex and Ensemble.REAL_GAUSSIAN.is_gaussian

