"""`verify`'s invariant suite: the engine against the enumerator, the
counting identities, the contraction oracle against the prediction, the
Martin identity and its subset bijection, the closed-form diagram counts,
and Monte Carlo agreement, over a corpus directory.

Only `cli.cmd_verify` imports this module, inside the handler, so no other
command compiles or loads it. Each check reports a (name, ok, detail) tuple
instead of raising; exact values in a detail are printed by `cli`'s
formatters.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from pathlib import Path
from typing import Callable

from . import graphs
from .cli import format_coefficients, format_rational, read_graph_file


def _check(results: list[tuple[str, bool, str]], name: str, fn: Callable[[], str | None]) -> None:
    try:
        results.append((name, True, fn() or ""))
    except Exception as exc:  # verification must report, not crash
        results.append((name, False, f"{type(exc).__name__}: {exc}"))


def _assert_equal(actual, expected, label: str) -> str:
    if actual != expected:
        raise AssertionError(f"{label}: {actual} != {expected}")
    return f"{label}: {actual}"


def run_verification(corpus_dir: Path, n_mc: int, seed: int) -> list[tuple[str, bool, str]]:
    """The invariant suite over the bundled (or given) corpus, as (name, ok, detail) per check."""
    from . import diagrams, partition, planar, sampling

    results: list[tuple[str, bool, str]] = []

    graph_files = sorted(corpus_dir.glob("*.graph"))
    planar_files = sorted(corpus_dir.glob("*.planar"))
    if not graph_files or not planar_files:
        results.append(("corpus present", False, f"no corpus at {corpus_dir}"))
        return results
    results.append(("corpus present", True, f"{len(graph_files)} graphs, {len(planar_files)} maps"))

    loaded: dict[str, graphs.Multigraph] = {}
    for path in graph_files:
        def parse_roundtrip(path=path):
            g = graphs.parse_graph(read_graph_file(path))
            if graphs.parse_graph(graphs.serialize_graph(g)) != g:
                raise AssertionError("parse(serialize(g)) != g")
            loaded[path.stem] = g
            return f"{g.vertex_count} vertices, {g.edge_count} edges"
        _check(results, f"parse+roundtrip {path.name}", parse_roundtrip)

    maps: dict[str, planar.PlanarMap] = {}
    for path in planar_files:
        def parse_map(path=path):
            pmap = planar.parse_planar_map(read_graph_file(path))
            reparsed = planar.parse_planar_map(planar.serialize_planar_map(pmap))
            if reparsed != pmap:
                raise AssertionError("parse(serialize(map)) != map")
            maps[path.stem] = pmap
            return f"{len(planar.faces(pmap))} faces"
        _check(results, f"parse+roundtrip {path.name}", parse_map)

    for name, g in loaded.items():
        def engine_vs_enumerator(name=name, g=g):
            systems = partition.enumerate_transition_systems(g)
            tally = Counter(partition.circuit_count(g, wirings) for wirings in systems)
            expected = partition.IntPolynomial(tuple(tally.get(t, 0) for t in range(max(tally) + 1)))
            _assert_equal(partition.circuit_partition_polynomial(g), expected, "engine == enumerator")
            return f"{sum(tally.values())} systems"
        _check(results, f"engine vs enumerator {name}", engine_vs_enumerator)

        def counting(name=name, g=g):
            poly = partition.circuit_partition_polynomial(g)
            expected = partition.transition_system_count(g)
            _assert_equal(poly.coefficient_sum(), expected, "sum r_t")
            _assert_equal(poly.evaluate(1), Fraction(expected), "j(1)")
            return f"j = {' '.join(format_coefficients(poly))}"
        _check(results, f"counting invariants {name}", counting)

    for name, g in loaded.items():
        ensembles = ([graphs.Ensemble.COMPLEX_SPHERE, graphs.Ensemble.COMPLEX_GAUSSIAN]
                     if isinstance(g, graphs.DirectedMultigraph)
                     else [graphs.Ensemble.REAL_SPHERE, graphs.Ensemble.REAL_GAUSSIAN])
        if not graphs.eulerian_check(g).is_eulerian:
            continue
        for ensemble in ensembles:
            for k in (2, 3):
                def oracle(g=g, ensemble=ensemble, k=k):
                    lhs = diagrams.contract_q_exact(g, k, ensemble)
                    rhs = sampling.predicted_q(g, k, ensemble)
                    _assert_equal(lhs, rhs, "oracle == prediction")
                    return format_rational(lhs)
                _check(results, f"oracle {name} {ensemble.value} k={k}", oracle)

    for name, pmap in maps.items():
        def martin(name=name, pmap=pmap):
            for z in range(1, 6):
                check = planar.martin_check(pmap, z)
                if not check.equal:
                    raise AssertionError(f"z={z}: {check.lhs} != {check.rhs}")
            return "z in 1..5"
        _check(results, f"martin identity {name}", martin)

        def bijection(name=name, pmap=pmap):
            for subset, c, excess in planar.subset_expansion_terms(pmap.graph):
                actual = planar.subset_to_partition_circuits(pmap, subset)
                if actual != c + excess:
                    raise AssertionError(f"S={list(subset)}: {actual} circuits, expected {c + excess}")
            return f"{2**pmap.graph.edge_count} subsets"
        _check(results, f"subset bijection {name}", bijection)

        def medial_eulerian(name=name, pmap=pmap):
            medial = planar.medial_graph(pmap)
            if not graphs.eulerian_check(medial).is_eulerian:
                raise AssertionError("medial graph is not Eulerian")
            _assert_equal(medial.edge_count, 2 * pmap.graph.edge_count, "medial edges")
            return ""
        _check(results, f"medial eulerian {name}", medial_eulerian)

    def genfuncs():
        for d in range(5):
            for k in range(1, 4):
                _assert_equal(diagrams.cycle_genfunc_permutations(d, k),
                              factorial(k + d - 1) // factorial(k - 1), f"S_{d} at k={k}")
                _assert_equal(diagrams.cycle_genfunc_matchings(d, k),
                              prod(k + 2 * i for i in range(d)), f"M_{d} at k={k}")
        return "d <= 4, k <= 3"
    _check(results, "cycle generating functions", genfuncs)

    def closed_form_entries():
        # Values in range(3) spell every value tuple of every k <= 3.
        for d in range(4):
            permutations = list(diagrams.enumerate_permutations(d))
            matchings = list(diagrams.enumerate_matchings(d))
            for values in itertools.product(range(3), repeat=2 * d):
                satisfied = sum(all(values[p[l]] == values[d + l] for l in range(d)) for p in permutations)
                _assert_equal(diagrams.permutation_entry(values), satisfied, f"permutation entry {values}")
                satisfied = sum(all(values[a] == values[b] for a, b in pairs) for pairs in matchings)
                _assert_equal(diagrams.matching_entry(values), satisfied, f"matching entry {values}")
        return "d <= 3, k <= 3"
    _check(results, "closed-form entries", closed_form_entries)

    fig1 = loaded.get("fig1")
    if fig1 is not None:
        def mc_agreement():
            ensemble = graphs.Ensemble.COMPLEX_SPHERE
            target = sampling.predicted_q(fig1, 2, ensemble)
            est = sampling.estimate_q(fig1, 2, ensemble, n_mc, seed)
            deviation = abs(est.mean - float(target))
            if deviation > 4 * est.std_error:
                raise AssertionError(f"|mean - {target}| = {deviation} > 4 se = {4 * est.std_error}")
            return f"within {deviation / est.std_error:.2f} se of {target}"
        _check(results, "monte carlo agreement fig1", mc_agreement)

        def mc_determinism():
            ensemble = graphs.Ensemble.COMPLEX_SPHERE
            one = sampling.estimate_q(fig1, 2, ensemble, 20_000, seed, workers=1).to_json()
            four = sampling.estimate_q(fig1, 2, ensemble, 20_000, seed, workers=4).to_json()
            _assert_equal(one, four, "workers 1 vs 4")
            return ""
        _check(results, "monte carlo determinism", mc_determinism)

    def mc_zero():
        edge = graphs.DirectedMultigraph(2, ((0, 1),))
        est = sampling.estimate_q(edge, 2, graphs.Ensemble.COMPLEX_SPHERE, n_mc, seed)
        if abs(est.mean) > 4 * est.std_error:
            raise AssertionError(f"|mean| = {abs(est.mean)} > 4 se = {4 * est.std_error}")
        return "non-Eulerian estimate is ~0"
    _check(results, "monte carlo vanishing", mc_zero)

    def sampling_basics():
        import numpy as np

        rng = np.random.default_rng(seed)
        for ensemble in graphs.Ensemble:
            x = sampling.sample_vector(3, ensemble, rng)
            if not ensemble.is_gaussian and abs(float(np.linalg.norm(x)) - 1.0) > 1e-12:
                raise AssertionError(f"{ensemble.value}: norm {np.linalg.norm(x)}")
        if fig1 is not None:
            same = np.ones((fig1.vertex_count, 2), dtype=complex) / np.sqrt(2)
            value = sampling.product_of_inner_products(fig1, same)
            if abs(value - 1) > 1e-12:
                raise AssertionError(f"all-equal product {value} != 1")
        _assert_equal(sampling.norm_moment(2, 2, graphs.Ensemble.COMPLEX_GAUSSIAN),
                      Fraction(3, 2), "E|x|^4")
        return ""
    _check(results, "sampling basics", sampling_basics)

    def scalings():
        _assert_equal(diagrams.xd_scaling(2, 2, graphs.Ensemble.COMPLEX_SPHERE), Fraction(1, 6), "complex d=2 k=2")
        _assert_equal(diagrams.xd_scaling(2, 2, graphs.Ensemble.REAL_SPHERE), Fraction(1, 8), "real d=2 k=2")
        _assert_equal(diagrams.xd_scaling(2, 2, graphs.Ensemble.COMPLEX_GAUSSIAN), Fraction(1, 4), "gaussian d=2 k=2")
        return ""
    _check(results, "tensor scalings", scalings)

    return results
