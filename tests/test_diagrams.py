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
    MatchingDiagram,
    NotEulerianError,
    PermutationDiagram,
    UndirectedMultigraph,
    contract_q_exact,
    cycle_genfunc_matchings,
    cycle_genfunc_permutations,
    enumerate_matchings,
    enumerate_permutations,
    expand_matching_product,
    expand_permutation_product,
    predicted_q,
    xd_scaling,
)
from circuitkit.diagrams import matching_entry, permutation_entry, vertex_scaling

CUPCAP = MatchingDiagram(2, ((0, 1), (2, 3)))
EXCHANGE = MatchingDiagram(2, ((0, 3), (1, 2)))
IDENTITY2 = MatchingDiagram(2, ((0, 2), (1, 3)))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_permutations_of_size_two():
    diagrams = list(enumerate_permutations(2))
    assert [p.image for p in diagrams] == [(0, 1), (1, 0)]


def test_matchings_of_size_two():
    diagrams = set(enumerate_matchings(2))
    assert diagrams == {IDENTITY2, EXCHANGE, CUPCAP}


def test_matching_counts():
    assert len(list(enumerate_matchings(3))) == 15
    assert len(list(enumerate_matchings(4))) == 105
    assert len(list(enumerate_permutations(4))) == 24


def test_enumeration_limits():
    with pytest.raises(GuardExceededError):
        list(enumerate_permutations(9))
    with pytest.raises(GuardExceededError):
        list(enumerate_matchings(8))


@pytest.mark.parametrize("d", range(6))
def test_product_expansion_matches_direct(d):
    direct = sorted(p.image for p in enumerate_permutations(d))
    staged = sorted(p.image for p in expand_permutation_product(d))
    assert direct == staged
    direct_m = sorted(m.pairs for m in enumerate_matchings(d))
    staged_m = sorted(m.pairs for m in expand_matching_product(d))
    assert direct_m == staged_m


def test_permutation_embeds_as_matching():
    for d in range(5):
        for p in enumerate_permutations(d):
            assert p.as_matching().closure_loop_count() == p.cycle_count()


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
    assert IDENTITY2.closure_loop_count() == 2
    assert EXCHANGE.closure_loop_count() == 1
    assert CUPCAP.closure_loop_count() == 1


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
        trace = sum(p.delta_product(values, values)
                    for values in itertools.product(range(k), repeat=d))
        assert trace == k ** p.cycle_count()
    for mu in enumerate_matchings(d):
        trace = sum(mu.delta_product(values, values)
                    for values in itertools.product(range(k), repeat=d))
        assert trace == k ** mu.closure_loop_count()


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


# ---------------------------------------------------------------------------
# The contraction oracle
# ---------------------------------------------------------------------------

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
        assert permutation_entry(values) == sum(p.delta_product(uppers, lowers) for p in permutations)
        assert matching_entry(values) == sum(mu.delta_product(uppers, lowers) for mu in matchings)


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
    big = DirectedMultigraph(1, ((0, 0),) * 25)
    with pytest.raises(GuardExceededError) as excinfo:
        contract_q_exact(big, 2, Ensemble.COMPLEX_SPHERE)
    assert excinfo.value.required == 2**25


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


def test_ensemble_parsing():
    assert Ensemble.from_string("real-gaussian") is Ensemble.REAL_GAUSSIAN
    with pytest.raises(ValueError):
        Ensemble.from_string("quaternion-sphere")
    assert Ensemble.COMPLEX_SPHERE.is_complex
    assert not Ensemble.COMPLEX_SPHERE.is_gaussian
    assert Ensemble.REAL_GAUSSIAN.is_real and Ensemble.REAL_GAUSSIAN.is_gaussian


def test_diagram_validation():
    with pytest.raises(ValueError):
        PermutationDiagram(2, (0, 0))
    with pytest.raises(ValueError):
        MatchingDiagram(2, ((0, 1), (1, 2)))
