"""The exhaustive oracles, which share no reasoning with the engines they
check, and `verify`'s invariant suite, which runs them over a corpus.

The oracles list what the engines never do: every transition system and its
circuits (against the j engine), every permutation and matching diagram
(against the closed-form counts of `diagrams`), and the 2^m edge subsets of a
plane map with the medial circuits each selects (against the Tutte frontier
sweep); the product of inner products at one assignment checks the batched
products of `sampling`. No engine module imports this one. Each check of the
suite reports a (name, ok, detail) tuple instead of raising; `cli`'s
formatters, which print its exact values, are imported in run_verification,
so importing an oracle loads no argparse.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, partial
from fractions import Fraction
from math import factorial, prod
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import graphs, partition, planar
from .errors import (DEFAULT_ENUMERATION_GUARD, DEFAULT_MATCHING_LIMIT, DEFAULT_PERMUTATION_LIMIT,
                     DEFAULT_SUBSET_WALK_GUARD, GuardExceededError)

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------

def enumerate_transition_systems(g: graphs.Multigraph,
                                 guard: int = DEFAULT_ENUMERATION_GUARD) -> Iterator[tuple[tuple, ...]]:
    """Yield every transition system of g as its tuple of per-vertex wirings,
    lexicographically, vertex 0 most significant: a permutation tuple sigma
    (in-slot i continues to out-slot sigma[i]) per directed vertex, a perfect
    matching of its half-edge slots as slot-index pairs per undirected one.

    The graph must be Eulerian (directed) or all-even-degree (undirected), and
    the total count must clear the guard. An odometer over lazy per-vertex
    wiring generators: a single high-degree vertex never lists its wirings.
    """
    graphs.require_eulerian(g)
    total = partition.transition_system_count(g)
    if total > guard:
        raise GuardExceededError("transition-system enumeration refused", total, guard)
    if isinstance(g, graphs.DirectedMultigraph):
        wirings = lambda d: itertools.permutations(range(d))
    else:
        wirings = lambda d: perfect_matchings(tuple(range(2 * d)))
    sizes = [h // 2 for h in g.degrees()]

    wheels = [wirings(d) for d in sizes]
    current = [next(it) for it in wheels]
    while True:
        yield tuple(current)
        # Odometer increment, least significant vertex last; a digit that
        # wraps restarts its vertex's generator.
        for v in range(len(wheels) - 1, -1, -1):
            wiring = next(wheels[v], None)
            if wiring is not None:
                current[v] = wiring
                break
            wheels[v] = wirings(sizes[v])
            current[v] = next(wheels[v])
        else:
            return


def circuit_count(g: graphs.Multigraph, wirings: tuple[tuple, ...]) -> int:
    """Number of circuits of the transition system with these per-vertex
    wirings (0 for the empty system of an edgeless graph).

    Slots are positions in the vertex's list in g.half_edges(). A directed
    vertex with d heads joins in-slot i to out-slot sigma[i], the half-edges
    at positions i and d + sigma[i]; an undirected vertex joins the two
    half-edges at each matched pair of positions. A graph that is not
    Eulerian has no transition system and is refused (NotEulerianError, a
    ValueError) before any wiring is read. The circuits are the loops of
    pairing_loop_count with twin h ^ 1.
    """
    if len(wirings) != g.vertex_count:
        raise ValueError("transition system does not match the graph's vertex count")
    graphs.require_eulerian(g)
    at = g.half_edges()
    joined: list[tuple[int, int]] = []
    for v, wiring in enumerate(wirings):
        slots = at.get(v, [])
        d = len(slots) // 2
        if isinstance(g, graphs.DirectedMultigraph):
            if sorted(wiring) != list(range(d)):
                raise ValueError(f"wiring at vertex {v} is not a bijection on {d} slots")
            wiring = [(i, d + j) for i, j in enumerate(wiring)]
        elif sorted(i for pair in wiring for i in pair) != list(range(len(slots))):
            raise ValueError(f"wiring at vertex {v} is not a perfect matching of {len(slots)} slots")
        joined.extend((slots[a], slots[b]) for a, b in wiring)
    return pairing_loop_count(joined, [h ^ 1 for h in range(g.half_edge_count)])


def pairing_loop_count(pairs: Iterable[tuple[int, int]], twin: Sequence[int]) -> int:
    """Loops of the 2-regular graph on range(len(twin)) that joins the two
    points of each pair and each point h to twin[h]: half the cycles of
    h -> partner[twin[h]], which meets each loop once per direction.
    Transition-system circuits and diagram closure loops are counted here."""
    partner = [0] * len(twin)
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    return len(graphs.permutation_cycles([partner[t] for t in twin])) // 2


def perfect_matchings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of an ordered point list, smallest-endpoint-first order.

    The wirings of an undirected vertex and the matching diagrams are both
    listed here.
    """
    if not points:
        yield ()
        return
    a = points[0]
    for idx in range(1, len(points)):
        rest = points[1:idx] + points[idx + 1:]
        for tail in perfect_matchings(rest):
            yield ((a, points[idx]),) + tail


def enumerate_permutations(d: int) -> Iterator[tuple[int, ...]]:
    """All d! permutation diagrams as image tuples, in lexicographic order."""
    if d > DEFAULT_PERMUTATION_LIMIT:
        raise GuardExceededError("permutation diagram enumeration refused", d, DEFAULT_PERMUTATION_LIMIT)
    return itertools.permutations(range(d))


def enumerate_matchings(d: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All (2d-1)!! matching diagrams as sorted tuples of ascending pairs."""
    if d > DEFAULT_MATCHING_LIMIT:
        raise GuardExceededError("matching diagram enumeration refused", d, DEFAULT_MATCHING_LIMIT)
    return perfect_matchings(tuple(range(2 * d)))


def cycle_genfunc_permutations(d: int, k: int) -> int:
    """sum over S_d of k^(cycle count), by brute-force enumeration.

    Equals the rising factorial k(k+1)...(k+d-1), which the tests assert.
    """
    return sum(k ** len(graphs.permutation_cycles(p)) for p in enumerate_permutations(d))


def cycle_genfunc_matchings(d: int, k: int) -> int:
    """sum over matchings of k^(closure loop count); equals k(k+2)...(k+2d-2).
    The closure joins upper endpoint i to lower endpoint d+i: twin (h + d) mod 2d."""
    closure = [(h + d) % (2 * d) for h in range(2 * d)]
    return sum(k ** pairing_loop_count(pairs, closure) for pairs in enumerate_matchings(d))


def subset_expansion_terms(g: graphs.UndirectedMultigraph, guard: int = DEFAULT_SUBSET_WALK_GUARD):
    """All 2^m terms (S, c(S), l(S)) of the rank-nullity expansion in bitmask
    order: S ascending, c(S) the components of (V, S), and the excess
    l(S) = c(S) + |S| - n, the edges to delete to make each component a tree.

    One walk decides the edges from the last to the first, each left out
    before taken, with a component label per vertex: an edge taken inside one
    component raises the excess, one taken across two merges their labels.
    It is the subset-by-subset oracle of verify's bijection check and of the
    tests; `guard` caps 2^m.
    """
    m = g.edge_count
    if 2**m > guard:
        raise GuardExceededError("subset expansion refused", 2**m, guard)
    n = g.vertex_count
    stack = [(m, (), tuple(range(n)), n, 0)]  # (edges left to decide, S, labels, c(S), l(S))
    while stack:
        i, subset, label, c, excess = stack.pop()
        if not i:
            yield subset, c, excess
            continue
        i -= 1
        u, v = g.edges[i]
        a, b = label[u], label[v]
        if a == b:
            stack.append((i, (i,) + subset, label, c, excess + 1))
        else:
            stack.append((i, (i,) + subset, tuple(a if x == b else x for x in label), c - 1, excess))
        stack.append((i, subset, label, c, excess))


def subset_to_partition_circuits(pmap: planar.PlanarMap, subset: Iterable[int]) -> int:
    """Circuit count of the medial transition system an edge subset selects.

    Medial edge d (the one leaving along side d) arrives at the medial vertex
    over edge s // 2 along side s = after[d]. There it continues on the same
    side, along medial edge s, when s // 2 is in the subset, and crosses to
    medial edge s ^ 1 when it is not. The circuits are the cycles of that
    map on darts. On a plane map their number equals c(S) + (c(S) + |S| - n),
    the component count plus total excess of the spanning subgraph, which
    the tests verify subset by subset.
    """
    chosen = set(subset)
    return len(graphs.permutation_cycles([s if s // 2 in chosen else s ^ 1 for s in pmap.after]))


def product_of_inner_products(g: graphs.Multigraph, vectors: np.ndarray) -> complex:
    """prod over edges (u, v) of <x_u, x_v>, conjugating the tail vector x_u.

    `vectors` holds one length-k row per vertex. Undirected edges use the
    plain symmetric inner product. The empty product (edgeless graph) is 1.
    """
    import numpy as np

    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] != g.vertex_count:
        raise ValueError(
            f"assignment shape {vectors.shape} does not provide one vector per {g.vertex_count} vertices"
        )
    conjugate_tail = isinstance(g, graphs.DirectedMultigraph)
    result = 1 + 0j
    for u, v in g.edges:
        tail = np.conj(vectors[u]) if conjugate_tail else vectors[u]
        result *= complex(np.dot(tail, vectors[v]))
    return result


# ---------------------------------------------------------------------------
# The invariant suite
# ---------------------------------------------------------------------------

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
    from . import diagrams, sampling
    from .cli import format_coefficients, format_rational, read_graph_file

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
        # Both checks read one engine run; one that raises is retried, so
        # each check reports the failure as its own.
        engine = cache(partial(partition.circuit_partition_polynomial, g))

        def engine_vs_enumerator(g=g, engine=engine):
            tally = Counter(circuit_count(g, wirings) for wirings in enumerate_transition_systems(g))
            expected = partition.IntPolynomial(tuple(tally.get(t, 0) for t in range(max(tally) + 1)))
            _assert_equal(engine(), expected, "engine == enumerator")
            return f"{sum(tally.values())} systems"
        _check(results, f"engine vs enumerator {name}", engine_vs_enumerator)

        def counting(g=g, engine=engine):
            poly = engine()
            expected = partition.transition_system_count(g)
            _assert_equal(poly.coefficient_sum(), expected, "sum r_t")
            _assert_equal(poly.evaluate(1), Fraction(expected), "j(1)")
            return f"j = {' '.join(format_coefficients(poly))}"
        _check(results, f"counting invariants {name}", counting)

    for name, g in loaded.items():
        ensembles = [e for e in graphs.Ensemble if e.is_complex == isinstance(g, graphs.DirectedMultigraph)]
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
            for subset, c, excess in subset_expansion_terms(pmap.graph):
                actual = subset_to_partition_circuits(pmap, subset)
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
                _assert_equal(cycle_genfunc_permutations(d, k),
                              factorial(k + d - 1) // factorial(k - 1), f"S_{d} at k={k}")
                _assert_equal(cycle_genfunc_matchings(d, k),
                              prod(k + 2 * i for i in range(d)), f"M_{d} at k={k}")
        return "d <= 4, k <= 3"
    _check(results, "cycle generating functions", genfuncs)

    def closed_form_entries():
        # Values in range(3) spell every value tuple of every k <= 3.
        for d in range(4):
            permutations = list(enumerate_permutations(d))
            matchings = list(enumerate_matchings(d))
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
            value = product_of_inner_products(fig1, same)
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
