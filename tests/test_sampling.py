from __future__ import annotations

import cmath
import itertools
import json
import random
from fractions import Fraction
from math import factorial, log10, prod, sqrt

import numpy as np
import pytest

from circuitkit import (
    DirectedMultigraph,
    Ensemble,
    UndirectedMultigraph,
    enumerate_matchings,
    estimate_q,
    norm_moment,
    predicted_q,
    product_of_inner_products,
    sample_vector,
)
from circuitkit.checks import cycle_genfunc_matchings, perfect_matchings
from circuitkit.diagrams import matching_entry, permutation_entry, vertex_scaling, xd_scaling
from circuitkit.errors import GuardExceededError
from circuitkit.graphs import edge_components
from circuitkit.sampling import (
    CHUNK_SIZE,
    WORKSPACE_LIMIT,
    _anchored,
    _batch_products,
    _chunk_rng,
    _chunk_sums,
    _workspace_bytes,
    draw_assignments,
)

from conftest import directed_circulant, load_graph, undirected_circulant

ALL_ENSEMBLES = list(Ensemble)
SEED = 0xC1C1


def rng(seed=SEED):
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# Vector draws
# ---------------------------------------------------------------------------

def test_sphere_vectors_have_unit_norm():
    r = rng()
    for _ in range(50):
        x = sample_vector(3, Ensemble.REAL_SPHERE, r)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        z = sample_vector(5, Ensemble.COMPLEX_SPHERE, r)
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-12


def test_complex_sphere_k1_is_unit_modulus_scalar():
    x = sample_vector(1, Ensemble.COMPLEX_SPHERE, rng())
    assert x.shape == (1,)
    assert abs(abs(x[0]) - 1.0) <= 1e-12


def test_dtypes_match_field():
    assert np.iscomplexobj(sample_vector(2, Ensemble.COMPLEX_GAUSSIAN, rng()))
    assert not np.iscomplexobj(sample_vector(2, Ensemble.REAL_GAUSSIAN, rng()))


def test_complex_gaussian_norm_second_moment():
    k, n = 4, 100_000
    x = draw_assignments(rng(), n, 1, k, Ensemble.COMPLEX_GAUSSIAN)[:, 0, :]
    sq = np.sum(np.abs(x) ** 2, axis=1)
    se = np.std(sq, ddof=1) / np.sqrt(n)
    assert abs(np.mean(sq) - 1.0) <= 4 * se


def test_real_gaussian_component_variance():
    k, n = 5, 100_000
    x = draw_assignments(rng(), n, 1, k, Ensemble.REAL_GAUSSIAN)[:, 0, 0]
    se = np.std(x**2, ddof=1) / np.sqrt(n)
    assert abs(np.mean(x**2) - 1 / k) <= 4 * se


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_draws_equal_the_plain_numpy_formulas(ensemble):
    """draw_assignments takes one normal block of shape (n, k, c), or
    (n, k, c, 2) for complex draws (each entry's re and im side by side),
    from the chunk's generator, and scales or normalizes it as the textbook
    formulas do, up to rounding: it multiplies by a reciprocal, and sums the
    2k (complex) or k squares of a norm row by row where np.linalg.norm sums
    them pairwise, so the two differ by at most about 2k + 8 units in the
    last place."""
    n = 3
    for count, ks in ((9, [*range(1, 21), 64, 129, 300]), (CHUNK_SIZE, [1, 3, 8, 9])):
        for k in ks:
            x = draw_assignments(_chunk_rng(k, 0), count, n, k, ensemble)
            raw = _chunk_rng(k, 0).standard_normal((n, k, count, 2) if ensemble.is_complex else (n, k, count))
            plain = (raw[..., 0] + 1j * raw[..., 1] if ensemble.is_complex else raw).transpose(2, 0, 1)
            if ensemble.is_gaussian:
                plain = plain / np.sqrt(2 * k if ensemble.is_complex else k)
            else:
                plain = plain / np.linalg.norm(plain, axis=2, keepdims=True)
            assert x.dtype == plain.dtype and x.shape == plain.shape == (count, n, k)
            tolerance = (2 * k + 8) * np.finfo(np.float64).eps
            assert np.all(np.abs(x - plain) <= tolerance * np.abs(plain)), (count, k)


@pytest.mark.parametrize("sphere, k", [*((Ensemble.COMPLEX_SPHERE, k) for k in (1, 2, 3, 5)),
                                      (Ensemble.REAL_SPHERE, 1), (Ensemble.REAL_SPHERE, 3)],
                         ids=lambda v: getattr(v, "value", v))
def test_a_pinned_row_is_in_the_frame_with_the_exact_law_of_its_first_coordinate(sphere, k):
    """A pinned row is (c, sqrt(1 - c^2), 0, ..., 0), real, c >= 0, and c
    has the law of |x[0]| on the sphere: c^2 ~ Beta(1, k - 1) (complex) or
    Beta(1/2, 1) (real, k = 3, the only real k > 1 that pins), whose
    moments E[c^(2j)] are j!(k-1)!/(k+j-1)! and (2j-1)!!/(k(k+2)...(k+2j-2)).
    At k = 1 the row is exactly 1. Each sample mean of c^(2j), j = 1..3,
    lies within 5 of its exact standard errors, the variance taken from
    the exact moment of twice the order."""
    n = 200_000
    x = draw_assignments(_chunk_rng(k, 0), n, 2, k, sphere, pinned=1)[:, 0]
    assert x.shape == (n, k) and np.all(x.imag == 0)
    c = x[:, 0].real
    if k == 1:
        assert np.all(c == 1)
        return
    assert np.all(x[:, 2:] == 0) and np.all(c >= 0) and np.all(x[:, 1].real >= 0)
    assert np.allclose(c * c + x[:, 1].real ** 2, 1, rtol=0, atol=1e-15)

    def moment(j):
        if sphere.is_complex:
            return Fraction(factorial(j) * factorial(k - 1), factorial(k + j - 1))
        return Fraction(prod(range(1, 2 * j, 2)), prod(range(k, k + 2 * j, 2)))

    for j in (1, 2, 3):
        se = sqrt(float(moment(2 * j) - moment(j) ** 2) / n)
        assert abs(float(np.mean(c ** (2 * j))) - float(moment(j))) <= 5 * se, j


@pytest.mark.parametrize("ensemble, gaussian", [(Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN),
                                               (Ensemble.REAL_SPHERE, Ensemble.REAL_GAUSSIAN)], ids=["complex", "real"])
def test_pinned_rows_draw_first_and_leave_the_rest_a_plain_block(ensemble, gaussian):
    """A chunk draws its pinned rows' variates first: one uniform per sample
    and row (complex, and real at k = 3), none at k = 1. The other rows are
    then the plain normal block of a fresh call, bit for bit. A real
    ensemble at k = 2 or k >= 4 pins nothing: the whole draw is the one
    with no pinned rows, bit for bit. Six pinned rows span two passes of k
    + 1 rows at k <= 3. A Gaussian ensemble has no pinned rows."""
    count, n, pinned = 1000, 9, 6
    for k in (1, 2, 3, 4, 5):
        x = draw_assignments(_chunk_rng(k, 0), count, n, k, ensemble, pinned=pinned)
        uniforms = k > 1 and (ensemble.is_complex or k == 3)
        if uniforms or k == 1:
            generator = _chunk_rng(k, 0)
            if uniforms:
                u = generator.random((pinned, count))
                c = np.sqrt(1 - u ** (1 / (k - 1))) if ensemble.is_complex else u
                assert np.allclose(x[:, :pinned, 0].real, c.T, rtol=0, atol=1e-15)
            rest = draw_assignments(generator, count, n - pinned, k, ensemble)
            assert np.array_equal(x[:, pinned:], rest), k
        else:
            assert np.array_equal(x, draw_assignments(_chunk_rng(k, 0), count, n, k, ensemble, pinned=0)), k
    with pytest.raises(ValueError, match="pinned rows are sphere draws"):
        draw_assignments(_chunk_rng(0, 0), count, n, 2, gaussian, pinned=1)


def test_each_chunk_draws_the_spawned_stream_of_its_seed(monkeypatch):
    """Chunk c of seed s draws from SFC64 seeded by SeedSequence(s,
    spawn_key=(c,)); estimate_q takes chunk c's generator from _chunk_rng(s,
    c), accepts the seeds 0 and 2^64 - 1 and refuses 2^64; different seeds,
    and different chunks of one seed, start different streams."""
    from circuitkit import sampling

    seeds, chunks = (0, 1, 2, 2**64 - 1), (0, 1, 2, 122)
    for seed in seeds:
        for c in chunks:
            spawned = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(c,)))
            assert np.array_equal(_chunk_rng(seed, c).bit_generator.random_raw(64), spawned.random_raw(64))
    starts = {tuple(_chunk_rng(seed, c).bit_generator.random_raw(4)) for seed in seeds for c in chunks}
    assert len(starts) == len(seeds) * len(chunks)

    asked = []

    def spy(seed, c):
        asked.append((seed, c))
        return _chunk_rng(seed, c)

    monkeypatch.setattr(sampling, "_chunk_rng", spy)
    digon = DirectedMultigraph(2, ((0, 1), (1, 0)))
    for seed in (0, 2**64 - 1):
        estimate_q(digon, 2, Ensemble.COMPLEX_SPHERE, 2 * CHUNK_SIZE + 1, seed)
    assert asked == [(seed, c) for seed in (0, 2**64 - 1) for c in range(3)]
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        estimate_q(digon, 2, Ensemble.COMPLEX_SPHERE, 100, 2**64)


# ---------------------------------------------------------------------------
# The edge product
# ---------------------------------------------------------------------------

def test_self_loop_product_is_one():
    g = DirectedMultigraph(1, ((0, 0),))
    x = sample_vector(4, Ensemble.COMPLEX_SPHERE, rng())
    assert abs(product_of_inner_products(g, x[np.newaxis, :]) - 1) <= 1e-12


def test_all_equal_vectors_give_one(fig1):
    x = sample_vector(2, Ensemble.COMPLEX_SPHERE, rng())
    same = np.tile(x, (fig1.vertex_count, 1))
    assert abs(product_of_inner_products(fig1, same) - 1) <= 1e-12


def test_edgeless_product_is_one():
    g = DirectedMultigraph(3, ())
    vectors = draw_assignments(rng(), 1, 3, 2, Ensemble.COMPLEX_SPHERE)[0]
    assert product_of_inner_products(g, vectors) == 1


def test_dimension_mismatch_rejected(fig1):
    with pytest.raises(ValueError):
        product_of_inner_products(fig1, np.ones((2, 2), dtype=complex))


def test_conjugation_convention():
    # Edge (u, v) conjugates the tail u: <x_u, x_v> = sum x_u[i]* x_v[i].
    g = DirectedMultigraph(2, ((0, 1),))
    vectors = np.array([[1j, 0], [1, 0]], dtype=complex)
    assert cmath.isclose(product_of_inner_products(g, vectors), -1j)


def test_phase_invariance_per_sample(fig1):
    r = rng()
    for _ in range(25):
        vectors = draw_assignments(r, 1, fig1.vertex_count, 2, Ensemble.COMPLEX_SPHERE)[0]
        base = product_of_inner_products(fig1, vectors)
        theta = float(r.uniform(0, 2 * np.pi))
        v = int(r.integers(0, fig1.vertex_count))
        rotated = vectors.copy()
        rotated[v] *= cmath.exp(1j * theta)
        assert abs(product_of_inner_products(fig1, rotated) - base) <= 1e-12


def random_multigraph(r: random.Random, directed: bool):
    """A small multigraph whose edge list repeats edges, reverses them and has loops."""
    n = r.randint(1, 5)
    edges = []
    for _ in range(r.randint(0, 10)):
        roll = r.random()
        if edges and roll < 0.25:
            edges.append(r.choice(edges))  # parallel
        elif edges and roll < 0.45:
            edges.append(r.choice(edges)[::-1])  # antiparallel
        elif roll < 0.6:
            v = r.randrange(n)
            edges.append((v, v))  # loop
        else:
            edges.append((r.randrange(n), r.randrange(n)))
    return (DirectedMultigraph if directed else UndirectedMultigraph)(n, tuple(edges))


def _rotation_to_e1(a: np.ndarray) -> np.ndarray:
    """A unitary (orthogonal, for a real a) matrix U with U a = |a| e1: a
    phase that makes a[0] real and nonnegative, then the Householder
    reflection that sends that vector to -|a| e1 (the stable sign, with no
    cancellation in w[0]), then -1."""
    phase = a[0] / abs(a[0]) if a[0] != 0 else 1
    w = a / phase
    w[0] += np.linalg.norm(a)
    reflection = np.eye(len(a), dtype=a.dtype) - 2 * np.outer(w, w.conj()) / np.vdot(w, w).real
    return -reflection / phase


def _local_sum(g, v: int, vectors: np.ndarray) -> complex:
    """Member v's local sum by its definition, at one full assignment: the
    permanent of the inner products <x_a, x_c> over its in-neighbours a and
    out-neighbours c (directed), or the sum over the perfect matchings of
    its neighbour slots of the products of their inner products
    (undirected), its loops left out, an entry whose two slots are at one
    vertex taken as 1."""
    def entry(a, c):
        return 1 if a == c else np.vdot(vectors[a], vectors[c])

    into = [u for u, w in g.edges if w == v != u]
    out = [w for u, w in g.edges if u == v != w]
    if isinstance(g, DirectedMultigraph):
        return sum(prod(entry(a, c) for a, c in zip(into, order)) for order in itertools.permutations(out))
    slots = into + out
    matchings = perfect_matchings(tuple(range(len(slots))))
    return sum(prod(entry(slots[i], slots[j]) for i, j in pairs) for pairs in matchings)


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_anchored_batch_products_are_the_rotated_per_sample_product(ensemble):
    """Rotate each component of a full assignment, whose anchors are unit
    vectors, by the unitary map that sends its anchor to e1, then by the
    one that fixes e1 and sends its pinned vertex into the (e1, e2) plane,
    and multiply the pinned vertex by the phase (sign) that makes its first
    two coordinates real and nonnegative. Every inner product is unchanged
    but those at the pinned vertex, which is balanced, so the product is
    too, and the anchored batch kernel, which reads only the drawn
    vertices' rows, gives the plain edge-by-edge product of the unrotated
    assignment over the edges with no end in I, times each member's local
    sum (_local_sum), sample by sample. A Gaussian ensemble's drawn rows
    keep their norms. Half the graphs are Eulerian, so that most of them
    average some vertex out and pin another."""
    r, gen = random.Random(ensemble.value), rng()
    averaged = pinned = 0
    for trial in range(80):
        g = (random_multigraph, random_eulerian_multigraph)[trial % 2](r, ensemble.is_complex)
        plan = _anchored(g)
        members = [v for v, _ in plan.averaged]
        averaged += len(members)
        pinned += plan.pinned
        outside = type(g)(g.vertex_count, tuple(e for e in g.edges if not set(e) & set(members)))
        roots = edge_components(g.edges)
        count, k = r.choice([1, 2, 17]), r.randint(1, 4)
        full = np.array(draw_assignments(gen, count, g.vertex_count, k, ensemble))
        full[:, plan.anchors] /= np.linalg.norm(full[:, plan.anchors], axis=2, keepdims=True)
        rows = np.empty((count, len(plan.drawn), k), dtype=full.dtype)
        for s in range(count):
            turn = {roots[a]: _rotation_to_e1(full[s, a]) for a in plan.anchors}
            phases = {}
            for b in plan.drawn[:plan.pinned]:
                y = turn[roots[b]] @ full[s, b]
                phases[b] = y[0].conjugate() / abs(y[0])
                if k > 1:
                    frame = np.eye(k, dtype=full.dtype)
                    frame[1:, 1:] = _rotation_to_e1(y[1:])
                    frame[1] *= phases[b].conjugate()  # the second coordinate's phase undone
                    turn[roots[b]] = frame @ turn[roots[b]]
            for i, v in enumerate(plan.drawn):
                rows[s, i] = phases.get(v, 1) * (turn[roots[v]] @ full[s, v])
            for a in plan.anchors:
                assert np.allclose(turn[roots[a]] @ full[s, a], np.eye(k)[0])
            for row in rows[s, :plan.pinned]:
                assert np.allclose(row.imag, 0) and np.allclose(row[2:], 0) and np.all(row[:2].real >= 0)
        batch = _batch_products(plan, rows)
        assert batch.shape == (count,)
        for s in range(count):
            single = product_of_inner_products(outside, full[s]) * prod(_local_sum(g, v, full[s]) for v in members)
            assert abs(batch[s] - single) <= 1e-12 * max(abs(single), 1e-300), (g, s)
    assert averaged > 30 and pinned > 10, (averaged, pinned)


# Two components with loops, a loop-only vertex and isolated vertices.
_SCATTERED = {
    True: DirectedMultigraph(9, ((0, 1), (1, 2), (2, 0), (2, 2), (4, 5), (5, 4), (5, 5), (7, 7), (4, 5), (5, 4))),
    False: UndirectedMultigraph(9, ((0, 1), (1, 2), (2, 0), (2, 2), (4, 5), (5, 4), (5, 5), (7, 7), (8, 8))),
}


def test_each_component_with_an_edge_has_one_anchor():
    """The anchor is the vertex of the most half-edges, ties to the least
    id; the other vertices with an edge are averaged out or drawn, and
    isolated ones are neither. Only the edges with no end in I stay, their
    ends coded as rows or anchors. The one drawn vertex, balanced, is
    pinned."""
    plan = _anchored(_SCATTERED[True])
    assert (plan.anchors, plan.averaged, plan.drawn, plan.pinned) == ((2, 5, 7), ((0, 1), (4, 2)), (1,), 1)
    assert plan.edges == ((0, -1), (-1, -1), (-2, -2), (-3, -3))
    assert _anchored(_SCATTERED[False])[1:3] == ((1,), 1)
    assert _anchored(_SCATTERED[False]).anchors == (2, 5, 7, 8)
    assert _anchored(DirectedMultigraph(3, ((2, 1), (1, 2)))).anchors == (1,)
    assert _anchored(UndirectedMultigraph(4, ())) == ((), (), 0, (), (), (), ())


def test_the_averaged_set_is_chosen_greedily_fewest_half_edges_first():
    """Vertex 0, the hub, is the anchor. 1, 2, 3 and 9 have two half-edges
    each and are taken in id order: 1 and 2 join I, 3, 2's neighbour,
    does not, and 9 does, so 8, 9's neighbour with four half-edges, is
    drawn although its id is the lesser. 4 is unbalanced and 5 has d_v =
    4. 6 has d_v = 1 besides its two loops and 7 has d_v = 3: both join, 6
    first. A member's local sum lists its wirings: 2's one entry is
    <x_0, x_3>, the first coordinate of 3's row, and 7's three edges each
    way to the anchor give 3! wirings of entries <e1, e1> = 1."""
    edges = ((0, 1), (1, 0), (0, 2), (2, 3), (3, 0), (0, 4), (0, 4), (4, 0), *((0, 5), (5, 0)) * 4,
             (6, 6), (6, 6), (0, 6), (6, 0), *((0, 7), (7, 0)) * 3, (0, 8), (8, 9), (9, 8), (8, 0))
    plan = _anchored(DirectedMultigraph(10, edges))
    assert (plan.anchors, plan.drawn, plan.pinned) == ((0,), (3, 4, 5, 8), 1)
    assert plan.averaged == ((1, 1), (2, 1), (9, 1), (6, 1), (7, 3))
    assert plan.sums == ((((), 1),), ((((-1, 0),), 1),), (((), 1),), (((), 1),), (((), 6),))
    assert plan.edges == ((0, -1), *((-1, 1),) * 2, (1, -1), *((-1, 2), (2, -1)) * 4, (-1, 3), (3, -1))


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_the_averaged_set_is_a_maximal_independent_set_of_eligible_vertices(directed):
    """On random graphs: every member of I is eligible (no anchor, balanced,
    d_v <= 3 besides its loops), no edge joins two members, every eligible
    vertex outside I has an edge to a member, and anchors, members and
    drawn vertices split the vertices that have an edge."""
    r = random.Random(f"averaged/{directed}")
    for trial in range(300):
        g = (random_multigraph, random_eulerian_multigraph)[trial % 2](r, directed)
        plan = _anchored(g)
        members = dict(plan.averaged)
        ends = [(u, v) for u, v in g.edges if u != v]

        def eligible(v):
            into, out = sum(e[1] == v for e in ends), sum(e[0] == v for e in ends)
            balanced = into == out if directed else (into + out) % 2 == 0
            return v not in plan.anchors and balanced and into + out <= 6

        assert all(eligible(v) and d == sum(v in e for e in ends) // 2 for v, d in members.items())
        assert not any(u in members and v in members for u, v in ends)
        assert all(any(v in e and set(e) & set(members) for e in ends)
                   for v in edge_components(g.edges) if eligible(v) and v not in members)
        assert sorted(plan.anchors + plan.drawn + tuple(members)) == sorted(edge_components(g.edges))


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_only_each_components_first_balanced_drawn_vertex_is_pinned(directed):
    """The pinned rows lead the drawn ones: each component's first drawn
    vertex, in order of first edge end, that is balanced (in-degree equals
    out-degree, or an even degree, loops left out). A component whose drawn
    vertices are all unbalanced pins none, so the edge 0 -> 1, whose
    drawn vertex 1 has in-degree 1 and out-degree 0, keeps a sampled
    phase, and the looped triangle's two drawn vertices, of odd degree,
    pin nothing."""
    assert _anchored(DirectedMultigraph(2, ((0, 1),)))[1:3] == ((1,), 0)
    assert _anchored(UndirectedMultigraph(2, ((0, 1),)))[1:3] == ((1,), 0)
    assert _anchored(_LOOPED_TRIANGLE)[1:3] == ((0, 1), 0)
    r = random.Random(f"pinned/{directed}")
    unbalanced_drawn = 0
    for trial in range(300):
        g = (random_multigraph, random_eulerian_multigraph)[trial % 2](r, directed)
        plan = _anchored(g)
        roots = edge_components(g.edges)
        ends = [(u, v) for u, v in g.edges if u != v]

        def balanced(v):
            into, out = sum(e[1] == v for e in ends), sum(e[0] == v for e in ends)
            return into == out if directed else (into + out) % 2 == 0

        free = sorted(plan.drawn, key=lambda v: list(roots).index(v))  # order of first edge end
        first = {}
        for v in free:
            if balanced(v):
                first.setdefault(roots[v], v)
        assert plan.drawn[:plan.pinned] == tuple(first.values())
        assert plan.drawn[plan.pinned:] == tuple(v for v in free if v not in first.values())
        unbalanced_drawn += sum(not balanced(v) for v in plan.drawn)
    assert unbalanced_drawn > 50, unbalanced_drawn


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_draws_skip_one_vertex_per_component_and_the_isolated_ones(ensemble, monkeypatch):
    """Every chunk draws vectors for (vertices with an edge) - (components
    with an edge) - (members of I) vertices."""
    from circuitkit import sampling

    g = _SCATTERED[ensemble.is_complex]
    roots = edge_components(g.edges)
    seen = []

    def spy(rng, count, vertex_count, *args):
        seen.append(vertex_count)
        return draw_assignments(rng, count, vertex_count, *args)

    monkeypatch.setattr(sampling, "draw_assignments", spy)
    estimate_q(g, 2, ensemble, 2 * CHUNK_SIZE + 1, seed=3)
    members = len(_anchored(g).averaged)
    assert seen == [len(roots) - len(set(roots.values())) - members] * 3 == [1] * 3


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_anchored_estimates_are_byte_identical_at_any_worker_count(ensemble):
    g = _SCATTERED[ensemble.is_complex]
    runs = {estimate_q(g, 3, ensemble, 3 * CHUNK_SIZE + 7, seed=11, workers=w).to_json() for w in (1, 2, 3)}
    assert len(runs) == 1


def random_eulerian_multigraph(r: random.Random, directed: bool):
    """Closed walks, loops among them, over a few vertices, some of them
    isolated: balanced (directed) or of even degrees (undirected), often in
    several components."""
    n = r.randint(1, 6)
    edges = []
    for _ in range(r.randint(1, 3)):
        walk = [r.randrange(n) for _ in range(r.randint(1, 4))]
        edges.extend(zip(walk, walk[1:] + walk[:1]))
    return (DirectedMultigraph if directed else UndirectedMultigraph)(n, tuple(edges))


def _second_moment(g, k: int, ensemble: Ensemble, members: tuple[int, ...] | None = None) -> Fraction:
    """Exact E|X|^2 of one sample's term of the estimate, X = R p_I: p_I is
    the mean of the sphere edge product over the vectors of I given all the
    others, and R the Gaussian norm moment (1 on a sphere). E|p_I|^2 is the
    sphere q of G joined with its reverse (complex, since conj<x_u, x_v> =
    <x_v, x_u>) or with a second copy (real), every member of I split into
    one vertex per copy: two independent draws of x_I. `members` defaults
    to I of _anchored; () gives the plain estimator's doubled graph."""
    if members is None:
        members = tuple(v for v, _ in _anchored(g).averaged)
    twin = {v: g.vertex_count + i for i, v in enumerate(members)}
    copy = tuple((twin.get(u, u), twin.get(v, v)) for u, v in g.edges)
    split = type(g)(g.vertex_count + len(twin), g.edges + (tuple((v, u) for u, v in copy) if ensemble.is_complex
                                                           else copy))
    moment = vertex_scaling(g, k, ensemble) / vertex_scaling(g, k, ensemble.sphere)
    return moment**2 * predicted_q(split, k, ensemble.sphere)


def _exact_se(g, k: int, ensemble: Ensemble, n: int) -> float:
    q = predicted_q(g, k, ensemble)
    return sqrt(float(_second_moment(g, k, ensemble) - q * q) / n)


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_anchored_estimates_land_within_five_exact_standard_errors(ensemble):
    """The exact standard error is sqrt((E|X|^2 - q^2) / n), E|X|^2 from the
    split graph (_second_moment)."""
    r = random.Random(f"doubled/{ensemble.value}")
    n = 20_000
    for trial in range(8):
        g = random_eulerian_multigraph(r, ensemble.is_complex)
        k = r.randint(1, 3)
        q, se = predicted_q(g, k, ensemble), _exact_se(g, k, ensemble, n)
        est = estimate_q(g, k, ensemble, n, seed=trial)
        assert abs(est.mean - float(q)) <= max(5 * se, 1e-12), (g, k, est, float(q), se)


_AVERAGED_GRAPHS = {"fig1": load_graph("fig1"), "C_6(1,2)": undirected_circulant(6),
                    "circ(12,2)": directed_circulant(12, 2), "C_12(1,2)": undirected_circulant(12)}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", _AVERAGED_GRAPHS)
def test_averaging_out_I_cuts_the_exact_variance(name, k):
    """With I averaged out, E|X|^2 is at most the plain estimator's (that of
    the doubled graph, no member split): Rao-Blackwellisation. The
    estimates land within 5 exact standard errors of q, and are
    byte-identical at 1, 2 and 4 workers."""
    g = _AVERAGED_GRAPHS[name]
    assert _anchored(g).averaged
    ensembles = ((Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN) if isinstance(g, DirectedMultigraph)
                 else (Ensemble.REAL_SPHERE, Ensemble.REAL_GAUSSIAN))
    n = 2 * CHUNK_SIZE + 99
    for ensemble in ensembles:
        q = predicted_q(g, k, ensemble)
        assert q * q < _second_moment(g, k, ensemble) < _second_moment(g, k, ensemble, ())
        runs = {estimate_q(g, k, ensemble, n, seed=k, workers=w).to_json() for w in (1, 2, 4)}
        assert len(runs) == 1
        est = json.loads(runs.pop())
        deviation = abs(complex(est["mean_re"], est["mean_im"]) - float(q))
        assert deviation <= 5 * _exact_se(g, k, ensemble, n), (ensemble, est, float(q))


def test_a_graph_with_no_averaged_or_pinned_vertex_keeps_the_plain_bytes():
    """The looped triangle's two drawn vertices and the edge 0 -> 1's one are
    unbalanced (of odd degree; in-degree 1, out-degree 0): I is empty and
    nothing is pinned, and their estimates in GOLDEN_ESTIMATES, recorded
    before any vertex was averaged out (looped) or pinned (edge), still
    hold."""
    for name, g in (("looped", _LOOPED_TRIANGLE), ("edge", _EDGE)):
        plan = _anchored(g)
        assert plan.averaged == plan.sums == plan.pairs == () and plan.pinned == 0
        rows = [row for row in GOLDEN_ESTIMATES if row[0] == name]
        assert rows
        for _, k, ensemble, n, seed, expected in rows:
            assert estimate_q(g, k, ensemble, n, seed).to_json() == expected


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("directed", [True, False], ids=["complex", "real"])
def test_a_members_factor_is_an_entry_of_the_moment_tensor(directed, d):
    """Member 0 has its 2d neighbour slots at vertices 1..3, each vector a
    basis vector e_a (the anchor's is e1, a = 0). The mean over x_0 of its
    edge factors is then the entry of the sphere's moment tensor at the
    slots' values: xd_scaling(d) times permutation_entry (in-slots, then
    out-slots) or matching_entry. Each neighbour has 2d loops, more
    half-edges than vertex 0, so vertex 0 joins I first; the loops at the
    drawn neighbours are <e_a, e_a> = 1."""
    r = random.Random(f"moment/{directed}/{d}")
    k, kind = 3, DirectedMultigraph if directed else UndirectedMultigraph
    sphere, entry = ((Ensemble.COMPLEX_SPHERE, permutation_entry) if directed
                     else (Ensemble.REAL_SPHERE, matching_entry))
    cases = list(itertools.product((1, 2, 3), repeat=2 * d))
    for slots in r.sample(cases, min(len(cases), 60)):
        into, out = slots[:d], slots[d:]
        loops = tuple((u, u) for u in set(slots) for _ in range(2 * d))
        g = kind(4, tuple((u, 0) for u in into) + tuple((0, u) for u in out) + loops)
        plan = _anchored(g)
        assert plan.averaged == ((0, d),)
        value = {v: 0 if v in plan.anchors else r.randrange(k) for v in set(slots)}
        rows = np.zeros((1, len(plan.drawn), k), dtype=np.complex128 if directed else np.float64)
        for i, v in enumerate(plan.drawn):
            rows[0, i, value[v]] = 1
        local = complex(_batch_products(plan, rows)[0])  # the factor over xd_scaling(d), which R carries
        assert local.imag == 0, (slots, value)
        factor = xd_scaling(d, k, sphere) * Fraction(local.real)
        assert factor == xd_scaling(d, k, sphere) * entry([value[v] for v in slots]), (slots, value)


@pytest.mark.parametrize("ensemble", [Ensemble.COMPLEX_GAUSSIAN, Ensemble.REAL_GAUSSIAN], ids=lambda e: e.value)
def test_a_gaussian_estimate_is_the_sphere_estimate_times_the_norm_moment(fig1, ensemble):
    """A Gaussian ensemble is sampled on its field's sphere, and the mean and
    the standard error are multiplied by R = prod_v E|x_v|^(2 d_v), on
    Eulerian and non-Eulerian graphs alike, at any worker count. R joins
    the averaged vertices' xd_scalings in one exact scale, converted to a
    float once, so the two estimates agree to the bit where I is empty and
    to rounding elsewhere."""
    graphs = ((fig1, _THICK_DIGON, _SCATTERED[True]) if ensemble.is_complex
              else (_LOOPED_TRIANGLE, _SCATTERED[False], undirected_circulant(6)))
    for g in graphs:
        r = float(vertex_scaling(g, 3, ensemble) / vertex_scaling(g, 3, ensemble.sphere))
        assert r > 1
        for workers in (1, 2):
            sphere = estimate_q(g, 3, ensemble.sphere, CHUNK_SIZE + 5, seed=9, workers=workers)
            scaled = sphere._replace(mean=complex(sphere.mean.real * r, sphere.mean.imag * r),
                                     std_error=sphere.std_error * r, ensemble=ensemble)
            gaussian = estimate_q(g, 3, ensemble, CHUNK_SIZE + 5, seed=9, workers=workers)
            if _anchored(g).averaged:
                assert cmath.isclose(gaussian.mean, scaled.mean, rel_tol=1e-15, abs_tol=1e-300)
                assert cmath.isclose(gaussian.std_error, scaled.std_error, rel_tol=1e-15)
                gaussian = gaussian._replace(mean=scaled.mean, std_error=scaled.std_error)
            assert gaussian == scaled


def _digon(d: int) -> DirectedMultigraph:
    return DirectedMultigraph(2, ((0, 1),) * d + ((1, 0),) * d)


def test_a_gaussian_digon_with_q_near_1e257_lands_within_five_exact_standard_errors():
    """100 edges each way at k = 2. With vertex 0 the anchor at e1, the
    sphere product is t^d, t = |x_1[0]|^2 ~ Beta(1, k - 1), so E[p] =
    d!(k-1)!/(k+d-1)! and E[p^2] = (2d)!(k-1)!/(k+2d-1)!. R is
    (E|x|^(2d))^2 = ((k+d-1)!/((k-1)! k^d))^2, as |x|^2 ~ Gamma(k, 1/k)."""
    d, k, n = 100, 2, 20_000
    moment = Fraction(factorial(k + d - 1), factorial(k - 1) * k**d) ** 2
    first = Fraction(factorial(d) * factorial(k - 1), factorial(k + d - 1))
    second = Fraction(factorial(2 * d) * factorial(k - 1), factorial(k + 2 * d - 1))
    q = predicted_q(_digon(d), k, Ensemble.COMPLEX_GAUSSIAN)
    assert q == moment * first and 5e257 < q < 6e257
    se = float(moment) * sqrt(float(second - first**2) / n)
    est = estimate_q(_digon(d), k, Ensemble.COMPLEX_GAUSSIAN, n, seed=1)
    assert abs(est.mean - float(q)) <= 5 * se, (est, float(q), se)


def test_a_norm_moment_past_float_range_is_refused_before_sampling(tmp_path, monkeypatch, capsys):
    """200 edges each way: R = (201!/2^200)^2 is about 10^634. q-estimate
    exits 2 with R's log10 and draws nothing."""
    from circuitkit import cli, sampling
    from circuitkit.graphs import serialize_graph

    d, k = 200, 2
    path = tmp_path / "digon200.graph"
    path.write_text(serialize_graph(_digon(d)), encoding="utf-8")
    seen = []
    monkeypatch.setattr(sampling, "draw_assignments", lambda *args: seen.append(args))
    code = cli.main(["q-estimate", str(path), "--k", str(k), "--ensemble", "complex-gaussian",
                     "--n", "20000", "--seed", "1"])
    out, err = capsys.readouterr()
    digits = 2 * (log10(factorial(k + d - 1)) - d * log10(k))
    assert 633.9 < digits < 634
    assert (code, out, seen) == (2, "", [])
    assert err.startswith("error: the scale R of the estimate") and "outside float range" in err
    assert f"(log10 R = {digits:.1f})" in err and "Traceback" not in err


def test_a_scale_below_float_range_is_refused_before_sampling(tmp_path, monkeypatch, capsys):
    """A 4,000-vertex directed cycle at k = 2 averages out its 2,000 odd
    vertices, each scaled by xd_scaling(1, 2) = 1/2: R = 2^-2000, about
    10^-602, underflows a float. q-estimate exits 2 with R's log10 and
    draws nothing. A 2,000-vertex cycle's R = 2^-1000 is a float, but the
    terms R p of the mean underflow instead, and are counted."""
    from circuitkit import cli, sampling
    from circuitkit.graphs import serialize_graph

    path = tmp_path / "cycle4000.graph"
    path.write_text(serialize_graph(_directed_cycle(4000)), encoding="utf-8")
    assert len(_anchored(_directed_cycle(4000)).averaged) == 2000
    seen = []
    monkeypatch.setattr(sampling, "draw_assignments", lambda *args: seen.append(args))
    code = cli.main(["q-estimate", str(path), "--k", "2", "--ensemble", "complex-sphere", "--n", "2000"])
    out, err = capsys.readouterr()
    assert (code, out, seen) == (2, "", [])
    assert err.startswith("error: the scale R of the estimate") and "outside float range" in err
    assert f"(log10 R = {-2000 * log10(2):.1f})" == "(log10 R = -602.1)" and "(log10 R = -602.1)" in err
    assert "Traceback" not in err
    monkeypatch.undo()
    est = estimate_q(_directed_cycle(2000), 2, Ensemble.COMPLEX_SPHERE, 2000, seed=0)
    assert est.zero_products == 2000 and est.mean == 0


def test_isolated_vertices_are_never_drawn(fig1, monkeypatch):
    """fig1 with 200,000 isolated vertices appended is admitted, draws what
    fig1 draws and gives fig1's bytes; drawing every vertex would pass the
    workspace guard many times over."""
    from circuitkit import sampling

    padded = DirectedMultigraph(fig1.vertex_count + 200_000, fig1.edges)
    seen = []

    def spy(rng, count, vertex_count, *args):
        seen.append((count, vertex_count))
        return draw_assignments(rng, count, vertex_count, *args)

    monkeypatch.setattr(sampling, "draw_assignments", spy)
    for ensemble in (Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN):
        seen.clear()
        alone = estimate_q(fig1, 2, ensemble, CHUNK_SIZE + 3, seed=1).to_json()
        drawn = list(seen)
        assert estimate_q(padded, 2, ensemble, CHUNK_SIZE + 3, seed=1).to_json() == alone
        assert seen == drawn * 2 == [(CHUNK_SIZE, 1), (3, 1)] * 2


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

def test_estimate_is_deterministic_across_workers(fig1):
    runs = [estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 30_000, seed=7, workers=w).to_json()
            for w in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]
    again = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 30_000, seed=7, workers=1).to_json()
    assert again == runs[0]


def test_the_threads_are_capped_at_the_cpu_and_chunk_counts(fig1, monkeypatch):
    """A parallel run starts min(workers, chunks, CPUs the process may run
    on) threads, and a serial one none. A recording stub stands in for
    threading.Thread: start() runs the target at once, on the calling
    thread, so no real threads are started."""
    import os
    import threading

    asked, started = [], []

    class RecordingThread:
        def __init__(self, target, args=()):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            self.target(*self.args)

        def join(self):
            pass

    def run(n, workers):
        started.clear()
        out = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, n, seed=7, workers=workers).to_json()
        if started:
            asked.append(len(started))
        return out

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    serial = run(6 * CHUNK_SIZE, 1)
    assert asked == []
    assert run(6 * CHUNK_SIZE, 10**6) == serial
    assert all(size <= min(6, os.cpu_count() or 1) for size in asked)
    # Without an affinity mask, the cap is the machine's CPU count.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run(6 * CHUNK_SIZE, 10**6) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run(3 * CHUNK_SIZE, 10**6)
    run(6 * CHUNK_SIZE, 5)
    assert asked[-3:] == [4, 3, 5]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one thread, none started
    count = len(asked)
    assert run(6 * CHUNK_SIZE, 10**6) == serial
    assert len(asked) == count
    # With one, the cap is the CPUs the process may run on, not the machine's.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    run(6 * CHUNK_SIZE, 10**6)
    assert asked[-1] == 3


def test_one_usable_cpu_starts_no_thread(fig1, monkeypatch):
    """A process pinned to one CPU (as `taskset -c 0` pins it) samples on its
    own thread whatever --workers asks, however many CPUs the machine has."""
    import os
    import threading

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    serial = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 6 * CHUNK_SIZE, seed=7, workers=1).to_json()
    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 6 * CHUNK_SIZE, seed=7, workers=8).to_json() == serial


def test_every_chunk_is_claimed_once_by_more_threads_than_cores(fig1, monkeypatch):
    """Eight real threads, more than the cores, with a switch interval of a
    microsecond: each of the 40 chunks still runs exactly once and the
    bytes are the serial run's."""
    import os
    import sys
    import threading

    from circuitkit import sampling

    serial = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 40 * CHUNK_SIZE, seed=7).to_json()
    calls, lock = [], threading.Lock()

    def counting(plan, k, sphere, seed, c, *args):
        with lock:
            calls.append(c)
        return _chunk_sums(plan, k, sphere, seed, c, *args)

    monkeypatch.setattr(sampling, "_chunk_sums", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 40 * CHUNK_SIZE, seed=7, workers=8).to_json()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(40))
    assert parallel == serial
    assert threading.active_count() == before  # every started thread was joined


@pytest.mark.parametrize("threads", [2, 3, 5])
def test_thread_t_runs_chunks_t_plus_multiples_of_the_thread_count_through_one_workspace(fig1, monkeypatch,
                                                                                         threads):
    """With T real threads, thread t runs exactly chunks t, t + T, t + 2T,
    ..., in that order, and hands one workspace dict of its own to every
    chunk it runs; the caller runs none, and the bytes are the serial
    run's."""
    import os
    import threading

    from circuitkit import sampling

    n_chunks, n = 11, 11 * CHUNK_SIZE - 5
    serial = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, n, seed=7).to_json()
    runs, lock = {}, threading.Lock()

    def spy(plan, k, sphere, seed, c, count, r, workspace):
        with lock:  # keyed by the Thread object, whose identity no later thread reuses
            runs.setdefault(threading.current_thread(), []).append((c, workspace))
        return _chunk_sums(plan, k, sphere, seed, c, count, r, workspace)

    monkeypatch.setattr(sampling, "_chunk_sums", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
    assert estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, n, seed=7, workers=threads).to_json() == serial
    assert threading.current_thread() not in runs
    assert sorted([c for c, _ in calls] for calls in runs.values()) == [
        list(range(t, n_chunks, threads)) for t in range(threads)]
    for calls in runs.values():
        assert all(w is calls[0][1] for _, w in calls)
    assert len({id(calls[0][1]) for calls in runs.values()}) == threads


def test_a_worker_exception_is_raised_in_the_caller(fig1, monkeypatch):
    """The first exception a thread meets is raised by estimate_q, on the
    calling thread, once every thread has stopped, and no thread starts a
    chunk after it has seen it."""
    from circuitkit import sampling

    calls = []

    def failing(plan, k, sphere, seed, c, *args):
        calls.append(c)
        if c == 2:
            raise MemoryError(f"chunk {c}")
        return _chunk_sums(plan, k, sphere, seed, c, *args)

    monkeypatch.setattr(sampling, "_chunk_sums", failing)
    for workers in (1, 2):
        calls.clear()
        with pytest.raises(MemoryError, match="chunk 2"):
            estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 40 * CHUNK_SIZE, seed=7, workers=workers)
        assert 2 in calls and len(calls) < 40


_THICK_DIGON = _digon(16)
_LOOPED_TRIANGLE = UndirectedMultigraph(3, ((0, 1), (1, 2), (2, 0), (1, 0), (2, 2)))
_EDGE = DirectedMultigraph(2, ((0, 1),))


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_successive_chunks_share_one_workspace(fig1, ensemble):
    """Chunks drawn through one workspace reuse its buffers, a shorter last
    chunk included; without one, every call allocates afresh."""
    plan = _anchored(fig1 if ensemble.is_complex else _LOOPED_TRIANGLE)
    rows = len(plan.drawn)
    workspace: dict = {}
    x1 = draw_assignments(rng(1), CHUNK_SIZE, rows, 3, ensemble, workspace)
    p1 = _batch_products(plan, x1, workspace)
    buffers = {name: id(b) for name, b in workspace.items()}
    x2 = draw_assignments(rng(2), 100, rows, 3, ensemble, workspace)
    p2 = _batch_products(plan, x2, workspace)
    assert np.shares_memory(x1, x2)
    assert np.shares_memory(p1, workspace["products"]) and np.shares_memory(p2, workspace["products"])
    assert {name: id(b) for name, b in workspace.items()} == buffers
    assert x2.shape == (100, rows, 3) and p2.shape == (100,)
    x3 = draw_assignments(rng(2), 100, rows, 3, ensemble)
    assert not np.shares_memory(x2, x3)
    assert np.array_equal(x2, x3) and np.array_equal(p2, _batch_products(plan, x3))


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_the_workspace_guard_counts_every_buffer(fig1, ensemble):
    """_workspace_bytes, which the guard reads, is what a chunk allocates:
    estimate_q draws a chunk of any ensemble from its field's sphere."""
    graphs = ((fig1, _THICK_DIGON) if ensemble.is_complex else (_LOOPED_TRIANGLE, UndirectedMultigraph(1, ())))
    for g in (*graphs, _SCATTERED[ensemble.is_complex]):
        plan = _anchored(g)
        for k, count in ((1, CHUNK_SIZE), (3, CHUNK_SIZE), (2, 4101), (9, 5)):
            workspace: dict = {}
            _chunk_sums(plan, k, ensemble.sphere, 0, 0, count, 0.5, workspace)
            assert sum(b.nbytes for b in workspace.values()) == _workspace_bytes(plan, k, ensemble, count)


def _directed_cycle(n: int, times: int = 1) -> DirectedMultigraph:
    return DirectedMultigraph(n, tuple((v, (v + 1) % n) for v in range(n)) * times)


# The largest cycle the workspace guard admits at k = 2, by field and edge
# multiplicity: with every edge four times over (d_v = 4, so I is empty),
# and plain (every other vertex averaged out, a pair row in place of its
# k rows of draws). R = 2^-floor(n/2) refuses a plain cycle of more than
# 2,045 vertices before that.
_LARGEST_CYCLE = {True: {4: 4093, 1: 5458}, False: {4: 8189, 1: 10920}}


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: e.value)
def test_a_worker_holds_one_copy_of_the_draws(ensemble):
    """Besides the f n k count bytes of the draws of the n drawn vertices
    (a cycle's anchor takes none; f = 16 complex, 8 real), a chunk's
    workspace takes one vertex's rows of scratch and a few sample-length
    rows, never a second copy of the draws."""
    def cycle(n, times):
        if ensemble.is_complex:
            return _anchored(_directed_cycle(n, times))
        return _anchored(UndirectedMultigraph(n, tuple((v, (v + 1) % n) for v in range(n)) * times))

    field = 16 if ensemble.is_complex else 8
    for k in (1, 2, 3, 8):
        assert _workspace_bytes(cycle(65, 4), k, ensemble, CHUNK_SIZE) < 1.1 * field * 64 * k * CHUNK_SIZE, k
    for times, largest in _LARGEST_CYCLE[ensemble.is_complex].items():
        assert _workspace_bytes(cycle(largest, times), 2, ensemble, CHUNK_SIZE) <= WORKSPACE_LIMIT
        assert _workspace_bytes(cycle(largest + 1, times), 2, ensemble, CHUNK_SIZE) > WORKSPACE_LIMIT


def test_an_oversized_workspace_is_refused_before_sampling(monkeypatch):
    from circuitkit import sampling

    def no_draws(*args):
        raise AssertionError("sampled before the guard")

    cycle = _directed_cycle(5000, 4)
    monkeypatch.setattr(sampling, "draw_assignments", no_draws)
    with pytest.raises(GuardExceededError, match="bytes of chunk buffers per worker") as refusal:
        estimate_q(cycle, 2, Ensemble.COMPLEX_SPHERE, 10**5, seed=0)
    assert refusal.value.required == _workspace_bytes(_anchored(cycle), 2, Ensemble.COMPLEX_SPHERE, CHUNK_SIZE)
    assert refusal.value.limit == WORKSPACE_LIMIT < refusal.value.required
    monkeypatch.undo()
    assert estimate_q(cycle, 2, Ensemble.COMPLEX_SPHERE, 2, seed=0).n_samples == 2  # one 2-sample chunk fits


def test_different_seeds_differ(fig1):
    a = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 5_000, seed=1)
    b = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 5_000, seed=2)
    assert a.mean != b.mean


def test_estimate_agrees_with_prediction(fig1):
    target = float(predicted_q(fig1, 2, Ensemble.COMPLEX_SPHERE))
    est = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 100_000, seed=SEED)
    assert abs(est.mean - target) <= 4 * est.std_error
    assert abs(est.mean.imag) <= 4 * est.std_error


def test_non_eulerian_estimate_is_near_zero():
    edge = DirectedMultigraph(2, ((0, 1),))
    est = estimate_q(edge, 2, Ensemble.COMPLEX_SPHERE, 50_000, seed=SEED)
    assert abs(est.mean) <= 4 * est.std_error


def test_estimates_track_predictions_on_whole_corpus(corpus_graphs):
    """4-sigma agreement at n = 1e5; a miss retries once at a second fixed
    seed, and only both missing is a failure."""
    def within_band(g, ensemble, seed):
        target = float(predicted_q(g, 2, ensemble))
        est = estimate_q(g, 2, ensemble, 100_000, seed)
        tolerance = max(4 * est.std_error, 1e-12)  # exact products have se 0
        return abs(est.mean - target) <= tolerance and abs(est.mean.imag) <= tolerance

    for name, g in corpus_graphs.items():
        ensembles = ((Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN)
                     if isinstance(g, DirectedMultigraph)
                     else (Ensemble.REAL_SPHERE, Ensemble.REAL_GAUSSIAN))
        for ensemble in ensembles:
            assert within_band(g, ensemble, SEED) or within_band(g, ensemble, SEED + 1), \
                (name, ensemble)


def test_figure_eight_real_sphere_is_exactly_one(figure_eight):
    est = estimate_q(figure_eight, 3, Ensemble.REAL_SPHERE, 1_000, seed=SEED)
    assert abs(est.mean - 1) <= 1e-12
    assert est.std_error <= 1e-12


def test_estimate_validation(fig1, figure_eight):
    with pytest.raises(ValueError):
        estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 1, seed=0)
    with pytest.raises(ValueError):
        estimate_q(fig1, 2, Ensemble.REAL_SPHERE, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_q(figure_eight, 2, Ensemble.COMPLEX_SPHERE, 100, seed=0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            estimate_q(fig1, k, Ensemble.COMPLEX_SPHERE, 100, seed=0)


# Exact to_json() output of estimate_q, recorded with the chunk kernel that
# draws each chunk from SFC64 seeded by SeedSequence(seed, spawn_key=(c,)),
# its pinned rows' variates first and then its normals in place in one
# sample-last layout, and raises each distinct edge pair's inner product to
# its multiplicity by repeated squaring (one vertex per component pinned at
# e1 and its first balanced drawn vertex pinned in the frame (c, sqrt(1 -
# c^2), 0, ...); an independent set I of vertices averaged out by the local
# sums of _anchored, their xd_scalings joined to R; a Gaussian ensemble
# drawn on its field's sphere, its mean and standard error multiplied by
# the exact norm moment R; numpy 2.4, x86-64) at workers 1, 2 and 4, and
# each recorded only after its mean had passed the check of
# test_anchored_estimates_land_within_five_exact_standard_errors: within 5
# exact standard errors of predicted_q, the exact SE taken from the sphere
# q of the split graph times R (_second_moment). The looped and edge rows
# have an empty I and no pinned vertex, and keep the bytes they had before
# either. The rows span both graph kinds, all four ensembles, k up to 9, a
# 16-fold parallel edge, a real pinned row drawn from a uniform (k = 3)
# and a balanced real row drawn whole, unpinned (k = 4), partial and
# one-sample last chunks, n = 2 and seed 2^64 - 1. Any change to the draw
# stream, the anchors, I, the pinned rows, the norm or scaling arithmetic,
# the edge products or the reduction order changes these bytes. Another
# numpy build may round complex products differently; re-record them there
# from a known-good kernel, not from the one under test.
GOLDEN_ESTIMATES = [
    ("fig1", 2, Ensemble.COMPLEX_SPHERE, 20_000, 7,
     '{"mean_re": 0.12423398474426975, "mean_im": 0.0, '
     '"std_error": 0.0005089790223305787, "n": 20000, "k": 2, "ensemble": "complex-sphere", "seed": 7}'),
    ("fig1", 3, Ensemble.COMPLEX_GAUSSIAN, 20_000, 7,
     '{"mean_re": 0.048975098697381855, "mean_im": 0.0, '
     '"std_error": 0.0002455558067729879, "n": 20000, "k": 3, "ensemble": "complex-gaussian", "seed": 7}'),
    ("fig1", 1, Ensemble.COMPLEX_SPHERE, 20_000, 7,
     '{"mean_re": 1.0, "mean_im": 0.0, '
     '"std_error": 0.0, "n": 20000, "k": 1, "ensemble": "complex-sphere", "seed": 7}'),
    ("digon16", 2, Ensemble.COMPLEX_SPHERE, 20_000, 11,
     '{"mean_re": 0.06021086051096783, "mean_im": 0.0, '
     '"std_error": 0.0011660938044512853, "n": 20000, "k": 2, "ensemble": "complex-sphere", "seed": 11}'),
    ("looped", 3, Ensemble.REAL_SPHERE, 20_000, 5,
     '{"mean_re": -0.0012299958872485056, "mean_im": 0.0, '
     '"std_error": 0.001260501170720724, "n": 20000, "k": 3, "ensemble": "real-sphere", "seed": 5}'),
    ("looped", 3, Ensemble.REAL_GAUSSIAN, 20_000, 5,
     '{"mean_re": -0.002049993145414176, "mean_im": 0.0, '
     '"std_error": 0.00210083528453454, "n": 20000, "k": 3, "ensemble": "real-gaussian", "seed": 5}'),
    ("fig1", 2, Ensemble.COMPLEX_SPHERE, 100_003, 3,  # a partial last chunk
     '{"mean_re": 0.12477184120075474, "mean_im": 0.0, '
     '"std_error": 0.00022777222006292519, "n": 100003, "k": 2, "ensemble": "complex-sphere", "seed": 3}'),
    ("looped", 3, Ensemble.REAL_GAUSSIAN, 100_003, 3,
     '{"mean_re": 0.0016540273067465329, "mean_im": 0.0, '
     '"std_error": 0.0009483354425803854, "n": 100003, "k": 3, "ensemble": "real-gaussian", "seed": 3}'),
    ("fig1", 2, Ensemble.COMPLEX_GAUSSIAN, 2, 0,
     '{"mean_re": 0.196265665719818, "mean_im": 0.0, '
     '"std_error": 0.026922726589514678, "n": 2, "k": 2, "ensemble": "complex-gaussian", "seed": 0}'),
    ("fig1", 2, Ensemble.COMPLEX_SPHERE, 9000, 2**64 - 1,
     '{"mean_re": 0.12582513359982367, "mean_im": 0.0, '
     '"std_error": 0.0007544311898545036, "n": 9000, "k": 2, "ensemble": "complex-sphere", '
     '"seed": 18446744073709551615}'),
    ("fig1", 8, Ensemble.COMPLEX_SPHERE, 20_000, 13,
     '{"mean_re": 0.001955635428714001, "mean_im": 0.0, '
     '"std_error": 1.2114063473466933e-05, "n": 20000, "k": 8, "ensemble": "complex-sphere", "seed": 13}'),
    ("fig1", 9, Ensemble.COMPLEX_SPHERE, 20_000, 13,
     '{"mean_re": 0.0013733881900011879, "mean_im": 0.0, '
     '"std_error": 8.627724353159853e-06, "n": 20000, "k": 9, "ensemble": "complex-sphere", "seed": 13}'),
    ("looped", 8, Ensemble.REAL_SPHERE, 20_000, 13,
     '{"mean_re": 3.8076498538521845e-05, "mean_im": 0.0, '
     '"std_error": 0.00020393924355471593, "n": 20000, "k": 8, "ensemble": "real-sphere", "seed": 13}'),
    ("fig1", 2, Ensemble.COMPLEX_GAUSSIAN, 24_577, 5,  # 3 * CHUNK_SIZE + 1: a one-sample last chunk
     '{"mean_re": 0.18688116479481517, "mean_im": 0.0, '
     '"std_error": 0.0006906754838601551, "n": 24577, "k": 2, "ensemble": "complex-gaussian", "seed": 5}'),
    ("edge", 2, Ensemble.COMPLEX_SPHERE, 20_000, 3,
     '{"mean_re": 0.002288632242093897, "mean_im": 0.007366994154172461, '
     '"std_error": 0.004993761099669937, "n": 20000, "k": 2, "ensemble": "complex-sphere", "seed": 3}'),
    ("edge", 3, Ensemble.COMPLEX_GAUSSIAN, 20_000, 3,
     '{"mean_re": 0.001226263735742899, "mean_im": 0.005901096441651828, '
     '"std_error": 0.004066491993735093, "n": 20000, "k": 3, "ensemble": "complex-gaussian", "seed": 3}'),
    ("C_6(1,2)", 3, Ensemble.REAL_SPHERE, 20_000, 5,
     '{"mean_re": 0.0004934300562989223, "mean_im": 0.0, '
     '"std_error": 1.3050119121999769e-05, "n": 20000, "k": 3, "ensemble": "real-sphere", "seed": 5}'),
    ("C_6(1,2)", 4, Ensemble.REAL_GAUSSIAN, 20_000, 5,
     '{"mean_re": 0.00058335967113728, "mean_im": 0.0, '
     '"std_error": 2.111389550569561e-05, "n": 20000, "k": 4, "ensemble": "real-gaussian", "seed": 5}'),
]


@pytest.mark.parametrize("name, k, ensemble, n, seed, expected", GOLDEN_ESTIMATES,
                         ids=[f"{c[0]}-k{c[1]}-{c[2].value}-n{c[3]}-seed{c[4]}" for c in GOLDEN_ESTIMATES])
def test_estimate_bits_are_pinned(fig1, name, k, ensemble, n, seed, expected):
    g = {"fig1": fig1, "digon16": _THICK_DIGON, "looped": _LOOPED_TRIANGLE, "edge": _EDGE,
         "C_6(1,2)": undirected_circulant(6)}[name]
    for workers in (1, 2, 4):
        assert estimate_q(g, k, ensemble, n, seed, workers=workers).to_json() == expected


def test_mcestimate_json_fields(fig1):
    est = estimate_q(fig1, 2, Ensemble.COMPLEX_SPHERE, 100, seed=3)
    data = json.loads(est.to_json())
    assert list(data) == ["mean_re", "mean_im", "std_error", "n", "k", "ensemble", "seed"]
    assert data["n"] == 100 and data["seed"] == 3 and data["ensemble"] == "complex-sphere"
    assert est.zero_products == 0


def test_underflowed_products_are_counted_at_any_worker_count():
    """The edge product of 600 edges each way between two vertices is
    |x_1[0]|^1200, vertex 0 being the anchor at e1. At k = 2, |x_1[0]|^2 is
    uniform on [0, 1], so the product falls below the least subnormal
    double, 2^-1074, and underflows to 0.0 in about 29% of the samples
    (where |x_1[0]|^2 < 0.289). The count is summed over chunks, so it is
    the same at any worker count, and the samples of the second chunk add
    to those of the first."""
    thick = DirectedMultigraph(2, ((0, 1), (1, 0)) * 600)
    n = CHUNK_SIZE + 100
    (count,) = {estimate_q(thick, 2, Ensemble.COMPLEX_SPHERE, n, 5, workers=w).zero_products for w in (1, 2)}
    first_chunk = estimate_q(thick, 2, Ensemble.COMPLEX_SPHERE, CHUNK_SIZE, 5).zero_products
    assert 0 < first_chunk < count < n


# ---------------------------------------------------------------------------
# Exact predictions
# ---------------------------------------------------------------------------

def test_predicted_q_fig1(fig1):
    assert predicted_q(fig1, 2, Ensemble.COMPLEX_SPHERE) == Fraction(1, 8)
    assert predicted_q(fig1, 2, Ensemble.COMPLEX_GAUSSIAN) == Fraction(3, 16)


def test_predicted_q_figure_eight(figure_eight):
    assert predicted_q(figure_eight, 3, Ensemble.REAL_GAUSSIAN) == Fraction(5, 3)
    assert predicted_q(figure_eight, 2, Ensemble.REAL_SPHERE) == 1


def test_predicted_q_non_eulerian_is_exact_zero():
    assert predicted_q(DirectedMultigraph(2, ((0, 1),)), 3, Ensemble.COMPLEX_SPHERE) == 0
    assert predicted_q(UndirectedMultigraph(2, ((0, 1),)), 3, Ensemble.REAL_GAUSSIAN) == 0


def test_norm_moment_examples():
    assert norm_moment(2, 2, Ensemble.COMPLEX_GAUSSIAN) == Fraction(3, 2)
    for d in range(4):
        for k in range(1, 4):
            assert norm_moment(d, k, Ensemble.COMPLEX_SPHERE) == 1
            assert norm_moment(d, k, Ensemble.REAL_SPHERE) == 1
    for k in range(1, 5):
        assert norm_moment(1, k, Ensemble.REAL_GAUSSIAN) == 1


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("k", range(1, 5))
def test_real_gaussian_norm_moment_is_the_pairing_sum(d, k):
    assert norm_moment(d, k, Ensemble.REAL_GAUSSIAN) == Fraction(cycle_genfunc_matchings(d, k), k**d)


# ---------------------------------------------------------------------------
# Wick's theorem spot check
# ---------------------------------------------------------------------------

def wick_pairing_sum(covariance, indices) -> Fraction:
    """Sum over pairings of products of covariances: E[x_{i1} ... x_{i2t}]
    for centered jointly Gaussian coordinates.

    covariance(a, b) must return the exact E[x_a x_b]. An odd index list
    has no pairing, so its sum is 0.
    """
    return sum((prod((covariance(a, b) for a, b in pairs), start=Fraction(1))
                for pairs in perfect_matchings(tuple(indices))), Fraction(0))


def wick_sum_via_matchings(coords: tuple[int, ...], k: int) -> Fraction:
    """Pairing sum over matching diagrams: every covariance is delta/k."""
    d = len(coords) // 2
    total = Fraction(0)
    for pairs in enumerate_matchings(d):
        term = Fraction(1)
        for a, b in pairs:
            term *= Fraction(int(coords[a] == coords[b]), k)
        total += term
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_wick_spot_check(d, k):
    r = rng(SEED + d * 10 + k)
    n = 200_000
    x = draw_assignments(r, n, 1, k, Ensemble.REAL_GAUSSIAN)[:, 0, :]
    for coords in {(0,) * 2 * d, tuple(i % min(k, 2) for i in range(2 * d))}:
        exact = wick_pairing_sum(lambda a, b: Fraction(int(a == b), k), coords)
        assert exact == wick_sum_via_matchings(coords, k)
        products = np.prod(x[:, list(coords)], axis=1)
        se = float(np.std(products, ddof=1)) / np.sqrt(n)
        assert abs(float(np.mean(products)) - float(exact)) <= 4 * se


def test_wick_odd_coordinates_vanish():
    assert wick_pairing_sum(lambda a, b: Fraction(1), (0, 1, 2)) == 0


@pytest.mark.parametrize("t", range(6))
def test_wick_pairing_sum_counts_pairings_in_closed_form(t):
    """Independent of any matching enumeration: with every covariance 1 the
    sum counts the (2t-1)!! pairings, and with covariance delta/k on equal
    indices each pairing weighs 1/k^t."""
    pairings = prod(range(1, 2 * t, 2))
    assert wick_pairing_sum(lambda a, b: 1, range(2 * t)) == pairings
    for k in (1, 2, 3):
        exact = wick_pairing_sum(lambda a, b: Fraction(int(a == b), k), (0,) * 2 * t)
        assert exact == Fraction(pairings, k**t)
