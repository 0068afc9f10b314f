"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime. Run with `pytest tests/test_acceptance.py -v -s`
to watch the lines appear."""

from __future__ import annotations

import time
from contextlib import contextmanager
from math import comb, factorial, prod

from circuitkit import (
    DirectedMultigraph,
    Ensemble,
    UndirectedMultigraph,
    circuit_partition_polynomial,
    cli,
    component_count,
    contract_q_exact,
    estimate_q,
    eulerian_check,
    martin_check,
    predicted_q,
    subset_to_partition_circuits,
    transition_system_count,
)
from circuitkit.checks import cycle_genfunc_matchings, cycle_genfunc_permutations

from conftest import GRAPH_NAMES, MAP_NAMES, disjoint_union, load_graph, load_map, poly_product, spanning_subgraph

SEED = 20260810
FALLBACK_SEED = 915_1905
CONTRACTION_BUDGET = 10**7


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def directed_corpus():
    return {name: g for name in GRAPH_NAMES
            if isinstance((g := load_graph(name)), DirectedMultigraph)}


def undirected_corpus():
    graphs = {name: g for name in GRAPH_NAMES
              if isinstance((g := load_graph(name)), UndirectedMultigraph)}
    # Underlying graphs of the planar corpus participate when all degrees are
    # even (p2, theta, and hexmap have odd-degree vertices, so q = 0 there).
    for name in MAP_NAMES:
        g = load_map(name).graph
        if eulerian_check(g).is_eulerian:
            graphs[f"{name}.planar"] = g
    return graphs


def test_criterion_1_figure_one_polynomial(capsys, corpus_dir):
    with criterion(1, "figure 1 polynomial", 1.0):
        assert cli.main(["j", str(corpus_dir / "fig1.graph")]) == 0
        assert capsys.readouterr().out == "0 1 1\n"
        poly = circuit_partition_polynomial(load_graph("fig1"))
        assert poly.coefficients == (0, 1, 1)  # z + z^2


def test_criterion_2_directed_oracle_equality():
    with criterion(2, "directed oracle equality", 120.0):
        checked = 0
        for name, g in directed_corpus().items():
            for k in (1, 2, 3):
                if k**g.edge_count > CONTRACTION_BUDGET:
                    continue
                for ensemble in (Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN):
                    assert contract_q_exact(g, k, ensemble) == predicted_q(g, k, ensemble), \
                        (name, k, ensemble)
                    checked += 1
        assert checked >= 18


def test_criterion_3_undirected_oracle_equality():
    with criterion(3, "undirected oracle equality", 120.0):
        checked = 0
        for name, g in undirected_corpus().items():
            for k in (1, 2, 3):
                if k**g.edge_count > CONTRACTION_BUDGET:
                    continue
                for ensemble in (Ensemble.REAL_SPHERE, Ensemble.REAL_GAUSSIAN):
                    assert contract_q_exact(g, k, ensemble) == predicted_q(g, k, ensemble), \
                        (name, k, ensemble)
                    checked += 1
        assert checked >= 30


def test_criterion_4_martin_identity_and_bijection():
    with criterion(4, "martin identity + subset bijection", 60.0):
        for name in MAP_NAMES:
            pmap = load_map(name)
            for z in (1, 2, 3, 4, 5):
                check = martin_check(pmap, z)
                assert check.equal, (name, z, check)
            g = pmap.graph
            assert g.edge_count <= 12
            for mask in range(2**g.edge_count):
                subset = [i for i in range(g.edge_count) if mask >> i & 1]
                c = component_count(spanning_subgraph(g, subset))
                expected = c + (c + len(subset) - g.vertex_count)
                assert subset_to_partition_circuits(pmap, subset) == expected, (name, subset)


def _fig1_band(seed: int) -> bool:
    est = estimate_q(load_graph("fig1"), 2, Ensemble.COMPLEX_SPHERE, 10**6, seed)
    return abs(est.mean - 0.125) <= 4 * est.std_error


def _zero_band(seed: int) -> bool:
    edge = DirectedMultigraph(2, ((0, 1),))
    est = estimate_q(edge, 2, Ensemble.COMPLEX_SPHERE, 10**5, seed)
    return abs(est.mean) <= 4 * est.std_error


def test_criterion_5_monte_carlo_agreement():
    with criterion(5, "monte carlo agreement", 120.0):
        # Statistical acceptance: a miss at the first fixed seed is retried
        # once at a second fixed seed; both missing is a failure.
        assert _fig1_band(SEED) or _fig1_band(FALLBACK_SEED)
        assert _zero_band(SEED) or _zero_band(FALLBACK_SEED)


def test_criterion_6_generating_function_identities():
    with criterion(6, "generating function identities", 10.0):
        for k in range(1, 6):
            for d in range(7):
                value = cycle_genfunc_permutations(d, k)
                assert value == factorial(k + d - 1) // factorial(k - 1)
                assert value == factorial(d) * comb(k + d - 1, d)
            for d in range(6):
                assert cycle_genfunc_matchings(d, k) == prod(k + 2 * i for i in range(d))


def test_criterion_7_counting_invariants():
    with criterion(7, "counting invariants", 10.0):
        for name in GRAPH_NAMES:
            g = load_graph(name)
            poly = circuit_partition_polynomial(g)
            assert poly.coefficient_sum() == transition_system_count(g), name
        fig1, single_loop, two_loop = load_graph("fig1"), load_graph("single_loop"), load_graph("two_loop")
        for g1, g2 in [(fig1, single_loop), (fig1, two_loop), (two_loop, single_loop)]:
            union_poly = circuit_partition_polynomial(disjoint_union(g1, g2))
            assert union_poly == poly_product(circuit_partition_polynomial(g1), circuit_partition_polynomial(g2))


def test_criterion_8_determinism(capsys, corpus_dir):
    with criterion(8, "determinism across worker counts", 120.0):
        fig1 = load_graph("fig1")
        runs = [estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 10**6, SEED, workers=w).to_json()
                for w in (1, 4)]
        assert runs[0] == runs[1]
        argv = ["q-estimate", str(corpus_dir / "fig1.graph"), "--k", "2",
                "--ensemble", "complex-sphere", "--n", "100000", "--seed", str(SEED),
                "--format", "json"]
        outputs = []
        for workers in ("1", "4"):
            assert cli.main(argv + ["--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
