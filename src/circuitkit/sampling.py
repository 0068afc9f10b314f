"""Random-vector ensembles, Monte Carlo estimation of q(G;k), and exact predictions.

q(G;k) is the expectation over independent per-vertex random vectors of the
product over edges (u, v) of <x_u, x_v>, where the first argument is the
conjugated one. Estimates are Monte Carlo with some vertices averaged out
exactly; predictions evaluate the circuit partition polynomial with the
per-vertex ensemble scalings. The product at one given assignment, edge by
edge, is an oracle, in checks.

estimate_q samples unit vectors only. A Gaussian vector is its norm times
an independent uniform unit vector, so a Gaussian edge product is
prod_v |x_v|^(2 d_v) times the sphere one, and its mean is R times the
sphere mean, where R = prod_v E|x_v|^(2 d_v) is exact (vertex_scaling of
the Gaussian over that of the sphere): the norms are integrated out, not
sampled.

The sphere ensembles are invariant under one global unitary (orthogonal,
for real vectors) map, which leaves every <x_u, x_v> unchanged. So within
each connected component one vertex, its anchor, is pinned at e1 without
changing the law of the edge product.

An independent set I of other vertices is averaged out and never drawn
(Rao-Blackwellisation; Casella and Robert, Biometrika 83, 1996). Given
every other vector, the mean over x_v of a member's edge factors is, by the
sphere's moment tensor, xd_scaling(d_v) times a sum of at most 15 products
of its neighbours' inner products: a permanent (complex) or a hafnian
(real). Each sample multiplies those local sums into the product of the
edges outside I, so its mean is unchanged and its variance cannot grow, and
the members' xd_scalings join R in one exact scale. Only the other vertices
that carry an edge are drawn.

Those draws keep a symmetry that the anchor leaves: the maps that fix e1,
the unitary (orthogonal) group of the other k - 1 coordinates, and at a
balanced vertex, whose edges in and out cancel its phase (sign), the
vertex's own phase, the symmetry behind q = 0 on graphs that are not
Eulerian. Both leave each sample's value unchanged, local sums included.
Together they allow each component's first balanced drawn vertex to be
pinned at (c, sqrt(1 - c^2), 0, ..., 0), c >= 0 of the law of |x[0]|.
draw_assignments pins it where that law takes one uniform per sample:
complex rows at any k, real rows at k = 3, and k = 1 (no draw). A real row
at any other k is drawn whole, as a plain row. Either way each sample's
value keeps its law, so the mean and the standard error mean what they
did. An unbalanced vertex is never pinned: its phase scales the product.

Reproducibility contract: sampling is split into fixed-size chunks; chunk c
draws from an SFC64 generator seeded by SeedSequence(seed, spawn_key=(c,)),
which hashes each (seed, chunk) pair into a stream of its own: first the
pinned rows' variates, then one block of normals (see draw_assignments).
Worker thread t of T runs chunks t, t + T, t + 2T, ..., and the chunk
results are reduced in chunk order. The chunk layout depends only on
n_samples, so a run is bit-identical for any worker count, not just for a
fixed one.

Each worker thread runs its chunks through one workspace of its own, a
dict of flat buffers sized on its first chunk, so chunks do not allocate.
It holds one copy of a chunk's draws, of the drawn vertices only, stored
sample-last, (vertex_count, k, count), so that norms and inner products
run along contiguous rows of samples, plus k + 1 rows of scratch, one row
per inner product that the local sums read, and a few sample-length rows.

numpy is imported by the functions that draw or multiply vectors, on first
use, and a multi-worker run starts plain threading.Threads. The exact path
(predicted_q, norm_moment) and every command that never samples run
without loading numpy.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import inf, log10, prod, sqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .diagrams import ensure_ensemble_matches, vertex_scaling, xd_scaling
from .errors import DEFAULT_ENUMERATION_GUARD, GuardExceededError, NotEulerianError
from .graphs import DirectedMultigraph, Ensemble, Multigraph, edge_components
from .partition import circuit_partition_polynomial

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 8192
WORKSPACE_LIMIT = 2**30  # bytes of chunk buffers per worker thread


class MCEstimate(NamedTuple):
    """Monte Carlo estimate of q(G;k) with its reproduction recipe.

    A sample's term of the mean is R times its product: the edges outside
    the averaged-out set I times its members' local sums (see _anchored),
    R the exact scale, the Gaussian norm moment times the members'
    xd_scalings. std_error is the standard deviation of those terms over
    sqrt(n_samples); averaging I out makes it smaller than the plain
    estimator's, never larger. zero_products counts the samples whose term
    is exactly 0. Draws from a continuous ensemble make that an underflow
    of the float product or of its scaling by R, not an exact zero: when
    it is nonzero, the mean and its standard error miss the part of q that
    left the float range. It is not part of the JSON form.
    """

    mean: complex
    std_error: float
    n_samples: int
    ensemble: Ensemble
    k: int
    seed: int
    zero_products: int

    def to_json_dict(self) -> dict:
        return {
            "mean_re": self.mean.real,
            "mean_im": self.mean.imag,
            "std_error": self.std_error,
            "n": self.n_samples,
            "k": self.k,
            "ensemble": self.ensemble.value,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict())


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The generator of chunk `chunk_index`: SFC64 seeded by the SeedSequence
    of `seed` spawned at key (chunk_index,)."""
    import numpy as np

    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk_index,))))


class _Plan(NamedTuple):
    """A graph as the sampler reads it (see _anchored). An end is a row r >= 0
    of the draws, or ~i for anchor i; a pair is an ordered (tail, head) pair
    of ends, or for a real ensemble the lesser end first."""

    edges: tuple[tuple[int, int], ...]  # the edges with no end in I
    drawn: tuple[int, ...]  # the vertex of each row of the draws, the pinned ones first
    pinned: int  # the leading rows of the draws that may be pinned in their component's frame
    anchors: tuple[int, ...]  # the anchor of each component that has an edge
    averaged: tuple[tuple[int, int], ...]  # each member v of I, in order of choice, and its d_v
    sums: tuple[tuple[tuple[tuple[tuple[int, int], ...], int], ...], ...]  # each member's local sum, below
    pairs: tuple[tuple[int, int], ...]  # the pairs whose rows a chunk computes for the local sums


def _pairings(ends: list[int]) -> Iterator[list[tuple[int, int]]]:
    """The perfect matchings of `ends` by position, each a list of pairs of ends."""
    if not ends:
        yield []
        return
    for i in range(1, len(ends)):
        for rest in _pairings(ends[1:i] + ends[i + 1:]):
            yield [(ends[0], ends[i]), *rest]


def _anchored(g: Multigraph) -> _Plan:
    """The sampler's plan of g: its anchors, an independent set I of
    vertices that are averaged out, never drawn, and the drawn rows.

    Each connected component that has an edge (graphs.edge_components) has
    one anchor, its vertex of the most half-edges, ties to the least id,
    whose unit vector is pinned at e1. Then, fewest half-edges first, ties
    to the least id, a vertex joins I if it is no anchor, is balanced
    (in-degree equals out-degree, or an even degree), has d_v <= 3 (its
    in-degree, or half its degree) besides its loops, and has no edge to a
    member.
    The other vertices with an edge are drawn, a row each, in order of
    their first edge end; isolated vertices are neither, since no factor
    reads them. Each component's first drawn vertex that is balanced may
    be pinned (see the module docstring), and its row comes first, so the
    rest are one block of normals (draw_assignments).

    Given every other vector, the mean over x_v of a member's edge factors
    is xd_scaling(d_v) times its local sum (the sphere's moment tensor): the
    permanent sum_sigma prod_i <x_a_i, x_c_sigma(i)> over its in-neighbours
    a_i and out-neighbours c_j (complex), or the hafnian of the Gram matrix
    of its 2 d_v neighbour slots, the sum over their perfect matchings of
    the product of the paired inner products (real), each neighbour taken
    with its multiplicity. A loop at v is the factor 1, and so is an entry
    whose two slots are at one vertex. `sums` holds each local sum as its
    distinct terms, each the pairs whose inner products it multiplies and
    how many wirings give it. The local sum happens to equal the
    transitions at v, but no circuit is traced.
    """
    directed = isinstance(g, DirectedMultigraph)
    roots = edge_components(g.edges)
    degree = g.degree_counts()
    best: dict[int, int] = {}
    for v, root in roots.items():
        a = best.setdefault(root, v)
        if (degree[v], a) > (degree[a], v):  # more half-edges, or as many and a lesser id
            best[root] = v
    anchors = tuple(best.values())
    code = {a: ~i for i, a in enumerate(anchors)}
    ins: dict[int, list[int]] = {}  # the first end of each edge whose second end is v, loops left out
    outs: dict[int, list[int]] = {}
    for u, v in g.edges:
        if u != v:
            outs.setdefault(u, []).append(v)
            ins.setdefault(v, []).append(u)

    def balanced(v: int) -> bool:
        into, out = len(ins.get(v, ())), len(outs.get(v, ()))
        return into == out if directed else (into + out) % 2 == 0

    members: dict[int, int] = {}
    for v in sorted(roots, key=lambda v: (degree[v], v)):
        ends = ins.get(v, []) + outs.get(v, [])
        if v not in code and balanced(v) and len(ends) <= 6 and not any(u in members for u in ends):
            members[v] = len(ends) // 2
    free = [v for v in roots if v not in code and v not in members]
    first: dict[int, int] = {}  # each component's first balanced drawn vertex
    for v in free:
        if balanced(v):
            first.setdefault(roots[v], v)
    pinned = set(first.values())
    drawn = (*first.values(), *(v for v in free if v not in pinned))
    code.update(zip(drawn, range(len(drawn))))
    edges = tuple((code[u], code[v]) for u, v in g.edges if u not in members and v not in members)

    sums = []
    for v in members:
        into, out = [code[u] for u in ins.get(v, ())], [code[u] for u in outs.get(v, ())]
        wirings = ([*zip(into, order)] for order in permutations(out)) if directed else _pairings(into + out)
        terms = Counter(tuple(sorted((a, c) if directed else (min(a, c), max(a, c)) for a, c in wiring if a != c))
                        for wiring in wirings)
        sums.append(tuple(terms.items()))
    pairs = tuple(sorted({p for terms in sums for term, _ in terms for p in term if p[0] >= 0}))
    return _Plan(edges, drawn, len(pinned), anchors, tuple(members.items()), tuple(sums), pairs)


def _buffer(workspace: dict, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous array of `shape` and `dtype` over the leading bytes of
    the named buffer of `workspace`, which is allocated (or grown) only when
    too small.

    A worker that hands the same dict to every chunk allocates its buffers on
    the first chunk only; a shorter last chunk takes leading slices of them.
    One name may serve several arrays in turn, each done with before the
    next is taken.
    """
    import numpy as np

    dtype = np.dtype(dtype)
    size = prod(shape) * dtype.itemsize
    raw = workspace.get(name)
    if raw is None or raw.size < size:
        raw = workspace[name] = np.empty(size, dtype=np.uint8)
    return raw[:size].view(dtype).reshape(shape)


def draw_assignments(rng: np.random.Generator, count: int, vertex_count: int, k: int,
                     ensemble: Ensemble, workspace: dict | None = None, pinned: int = 0) -> np.ndarray:
    """(count, vertex_count, k) array of ensemble draws, a transposed view of
    their C-contiguous sample-last storage, (vertex_count, k, count).

    estimate_q asks for the sphere draws of its drawn vertices only (see
    _anchored): an anchor or a member of I takes no draw. The Gaussian scale serves
    sample_vector and other direct callers.

    The first `pinned` rows are sphere vectors in the pinned frame, (c,
    sqrt(1 - c^2), 0, ..., 0) with c >= 0 of the law of |x[0]|, drawn
    first: 1 at k = 1, with no draw; one uniform U per sample for a
    complex row, 1 - c^2 = U^(1/(k-1)), since c^2 ~ Beta(1, k - 1); one
    for a real row at k = 3, c = U, since c^2 ~ Beta(1/2, 1) (Archimedes:
    x[0] is uniform on [-1, 1]). A real row at any other k has no such
    one-uniform law, and pinning it would spare no work, since
    _batch_products reads all k coordinates of a row: `pinned` is ignored
    there, and every row is drawn as a plain one.

    One standard_normal call then fills the other rows in place: the
    normal block of shape (rows, k, count), or (rows, k, count, 2) for
    complex draws, whose float64 view it is, each entry's real and
    imaginary parts side by side. Gaussian ensembles scale it by
    1/sqrt(k), or 1/sqrt(2k) for complex draws, so E[|x|^2] = 1. Sphere
    ensembles normalize it k + 1 vertices at a time, in one pass each: an
    einsum sums each vector's squares into a row of squared norms (re and
    im parts added pairwise for complex draws), whose reciprocal square
    roots scale the vectors.

    `workspace` is a dict of reusable buffers (see _buffer): the draws live
    in its "draws" buffer and every temporary in its "scratch" one, k + 1
    rows of squared norms or of pinned rows' uniforms, and the next call
    through the same dict overwrites them. Without one, each call
    allocates its own.
    """
    import numpy as np

    if pinned and ensemble.is_gaussian:
        raise ValueError("pinned rows are sphere draws")
    if not ensemble.is_complex and k not in (1, 3):
        pinned = 0
    ws = {} if workspace is None else workspace
    x = _buffer(ws, "draws", (vertex_count, k, count), np.complex128 if ensemble.is_complex else np.float64)
    frame = x[:pinned]
    width = 2 * count if ensemble.is_complex else count
    room = _buffer(ws, "scratch", (k + 1, width), np.float64)
    if k == 1:
        frame.fill(1)
    else:
        frame[:, 2:] = 0
        for start in range(0, pinned, k + 1):
            rows = frame[start:start + k + 1]
            u = room.reshape(-1, count)[:len(rows)]
            rng.random(out=u)
            if ensemble.is_complex:  # u = 1 - c^2, then c^2
                if k > 2:
                    np.power(u, 1 / (k - 1), out=u)
                np.sqrt(u, out=rows[:, 1])
                np.sqrt(np.subtract(1, u, out=u), out=rows[:, 0])
            else:  # u = c, then 1 - c^2
                rows[:, 0] = u
                np.sqrt(np.subtract(1, np.square(u, out=u), out=u), out=rows[:, 1])
    normals = rng.standard_normal(out=x[pinned:].view(np.float64))
    if ensemble.is_gaussian:
        normals *= 1 / sqrt(2 * k if ensemble.is_complex else k)
        return x.transpose(2, 0, 1)
    for start in range(0, len(normals), k + 1):
        rows = normals[start:start + k + 1]
        norms = np.einsum("vkw,vkw->vw", rows, rows, out=room[:len(rows)])
        if ensemble.is_complex:  # a sample's re and im squares, summed into both slots
            pairs = norms.reshape(len(rows), count, 2)
            np.add(pairs[..., 0], pairs[..., 1], out=pairs[..., 0])
            pairs[..., 1] = pairs[..., 0]
        rows *= np.divide(1, np.sqrt(norms, out=norms), out=norms)[:, np.newaxis]
    return x.transpose(2, 0, 1)


def sample_vector(k: int, ensemble: Ensemble, rng: np.random.Generator) -> np.ndarray:
    """One length-k draw from the ensemble."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return draw_assignments(rng, 1, 1, k, ensemble)[0, 0]


def _batch_products(plan: _Plan, x: np.ndarray, workspace: dict | None = None) -> np.ndarray:
    """Per-sample product of the edge inner products outside I and the local
    sums of I's members (see _anchored), for a (count, rows, k) batch of the
    drawn vertices of `plan`, read sample-last, as draw_assignments stores
    it, so every inner product is one "is,is->s" einsum along contiguous
    rows of samples. Its mean is the sphere q over the product of the
    members' xd_scalings.

    Anchors sit at e1 (see _anchored). An inner product at an anchor runs
    no einsum: it is the other end's first coordinate, x_v[0], or
    conj(x_u[0]) on the tail side. A loop at an anchor is a factor of 1,
    skipped.

    The rows of the local sums' pairs are computed first, once each. Then
    each distinct ordered pair (u, v) of the edges outside I takes its
    inner product per sample, from those rows where it is one of them,
    raised to its multiplicity by repeated squaring, and the pairs are
    multiplied in order of first use. Last, each member's local sum is
    multiplied in. Complex batches (a directed graph's) conjugate the
    tail's (k, count) rows into the scratch buffer just before its pair's
    inner product, unless they are already there. `workspace` is as in
    draw_assignments; the returned row lives in it.
    """
    import numpy as np

    ws = {} if workspace is None else workspace
    count = x.shape[0]
    x = x.transpose(1, 2, 0)
    first = x[:, 0]
    conjugate = np.iscomplexobj(x)  # a directed graph's tails
    tail = _buffer(ws, "scratch", x.shape[1:], x.dtype) if conjugate else None
    conjugated = None  # the row whose conjugate the tail holds
    rows = _buffer(ws, "products", (3 + bool(plan.sums) + len(plan.pairs), count), x.dtype)
    values, spare, inner = rows[:3]
    values.fill(1)

    def inner_product(u: int, v: int, out: np.ndarray) -> np.ndarray:
        nonlocal conjugated
        if u < 0:
            return first[v]
        if v < 0:
            return np.conjugate(first[u], out=out)
        if conjugate and conjugated != u:
            np.conjugate(x[u], out=tail)
            conjugated = u
        return np.einsum("is,is->s", tail if conjugate else x[u], x[v], out=out)

    shared = {pair: inner_product(*pair, out) for pair, out in zip(plan.pairs, rows[3 + bool(plan.sums):])}
    for (u, v), power in Counter(plan.edges).items():
        if u == v < 0:
            continue  # a loop at an anchor: |e1|^2 = 1
        ip = shared.get((u, v) if conjugate else (min(u, v), max(u, v)))
        if ip is None:
            ip = inner_product(u, v, inner)
        while True:
            if power % 2:
                # Into the other row, not in place: for a one-sample chunk
                # numpy's in-place complex product differs from the
                # out-of-place one in the last bit.
                values, spare = np.multiply(values, ip, out=spare), values
            power //= 2
            if not power:
                break
            ip = np.multiply(ip, ip, out=inner)

    def entry(pair: tuple[int, int]) -> np.ndarray:
        return first[pair[1]] if pair[0] < 0 else shared[pair]

    for terms in plan.sums:
        if len(terms) == 1 and terms[0][1] == 1:  # one wiring: its entries are plain factors
            for pair in terms[0][0]:
                values, spare = np.multiply(values, entry(pair), out=spare), values
            continue
        total = rows[3]
        total.fill(0)
        for pairs, wirings in terms:
            if not pairs:
                total += wirings
                continue
            term = entry(pairs[0])
            for pair in pairs[1:]:
                term = np.multiply(term, entry(pair), out=inner)
            if wirings > 1:
                term = np.multiply(term, wirings, out=inner)
            np.add(total, term, out=total)
        values, spare = np.multiply(values, total, out=spare), values
    return values


def _chunk_sums(plan: _Plan, k: int, sphere: Ensemble, seed: int, c: int, count: int, r: float,
                workspace: dict) -> tuple[complex, float, int]:
    """Sum of the products of chunk c (_batch_products), drawn from the
    `sphere` ensemble, the sum of their squared moduli, and the number of
    them whose term of the estimate, r times the product, is exactly 0.
    The chunk draws its pinned rows, then one standard_normal block."""
    import numpy as np

    x = draw_assignments(_chunk_rng(seed, c), count, len(plan.drawn), k, sphere, workspace, plan.pinned)
    values = _batch_products(plan, x, workspace)
    magnitude = np.abs(values, out=_buffer(workspace, "magnitude", (count,), np.float64))
    scaled = _buffer(workspace, "scratch", (count,), np.float64)  # the draws' scratch, free again
    terms = magnitude if r >= 1 else np.multiply(magnitude, r, out=scaled)
    zeros = count - int(np.count_nonzero(terms))
    return complex(np.sum(values)), float(np.sum(np.square(magnitude, out=magnitude))), zeros


def _workspace_bytes(plan: _Plan, k: int, ensemble: Ensemble, count: int) -> int:
    """Bytes of the buffers that draw_assignments, _batch_products and the
    chunk sums take from one workspace for chunks of `count` samples of
    `plan`, for an ensemble that matches its graph (complex draws on a
    directed graph). Every ensemble of a field takes the same bytes, since
    estimate_q draws its sphere ensemble for each.

    With n = len(plan.drawn), the drawn vertices, P = len(plan.pairs), the
    local sums' pair rows, and f the bytes of a field element (16 complex,
    8 real), that is f·count·(n·k + 3 + P) + 8·count for the draws, the
    product, spare and inner product rows, the pair rows and |values|, plus
    a row for a local sum's total when I is not empty, plus the scratch
    buffer, f·(k + 1)·count: the squared norms of k + 1 vertices, or the
    uniforms of k + 1 pinned rows, which a conjugated tail, 16·k·count,
    reuses. Pinned rows are stored whole, k rows each. Anchors, members
    of I and isolated vertices take no draws.
    """
    field = 16 if ensemble.is_complex else 8
    total = field * count * (len(plan.drawn) * k + 3 + bool(plan.sums) + len(plan.pairs)) + 8 * count
    return total + field * (k + 1) * count


def estimate_q(g: Multigraph, k: int, ensemble: Ensemble, n_samples: int, seed: int,
               workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of the edge product over n_samples assignments,
    with an independent set I of vertices averaged out exactly.

    Draws come from the field's sphere ensemble, for the vertices that are
    neither anchors nor in I (_anchored), a pinned one in its component's
    frame where draw_assignments pins it. Each sample's value is the
    product of the edges outside I times each member's local sum. The mean
    and the standard error are multiplied by the exact scale R: the norm
    moment prod_v E|x_v|^(2 d_v), the ratio of the ensemble's
    vertex_scaling to its sphere's (1 for a sphere), times the sphere's
    xd_scaling(d_v, k) of each member. R is converted to a float once,
    before any sampling; an R outside the normal float range, above or
    below, is refused (ValueError) with its log10. That is unbiased on any
    graph: on an Eulerian one the Gaussian product is the sphere one times
    independent norms, and a member's local sum times its xd_scaling is
    the mean of its edge factors given the other vectors; on any other
    graph both q and the sphere mean's expectation are 0, by the phase or
    sign symmetry of predicted_q, since members and pinned vertices are
    balanced.

    Bit-reproducible for a fixed (seed, n_samples) regardless of workers
    (threads, at most one per chunk and per CPU the process may run on;
    the first exception a thread meets is raised here); the standard error
    is the per-sample standard deviation of the complex sphere values over
    sqrt(n_samples), times R.
    The seed must lie in [0, 2**64): it is the entropy of every chunk's
    SeedSequence, spawned at the chunk index (_chunk_rng). Worker thread t
    of T runs chunks t, t + T, ... through one workspace of its own, and
    stops early once any thread has failed; a run whose workspace
    would pass WORKSPACE_LIMIT bytes is refused before any sampling.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ensure_ensemble_matches(g, ensemble)
    sphere = ensemble.sphere
    plan = _anchored(g)
    degrees = Counter(d for _, d in plan.averaged)
    scale = (vertex_scaling(g, k, ensemble) / vertex_scaling(g, k, sphere)
             * prod((xd_scaling(d, k, sphere) ** count for d, count in degrees.items()), start=Fraction(1)))
    try:
        r = float(scale)
    except OverflowError:
        r = inf
    if not sys.float_info.min <= r < inf:
        digits = log10(scale.numerator) - log10(scale.denominator)
        raise ValueError(f"the scale R of the estimate, the Gaussian norm moment times the averaged"
                         f" vertices' xd_scaling, is outside float range (log10 R = {digits:.1f})")

    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    chunk = min(CHUNK_SIZE, n_samples)
    required = _workspace_bytes(plan, k, ensemble, chunk)
    if required > WORKSPACE_LIMIT:
        raise GuardExceededError(
            f"Monte Carlo refused (bytes of chunk buffers per worker: one copy of the draws, {chunk}"
            f" samples x {len(plan.drawn)} drawn vertices x k = {k}, plus {len(plan.pairs)} rows of"
            f" inner products and k + 1 rows of scratch)", required, WORKSPACE_LIMIT)

    results: list = [None] * n_chunks  # each chunk's sums, at its index
    errors: list[BaseException] = []

    def work(t: int) -> None:
        """Run chunks t, t + threads, t + 2 threads, ... through one workspace
        of this thread's own, until they are done or some thread has failed."""
        workspace: dict = {}
        try:
            for c in range(t, n_chunks, threads):
                if errors:
                    return
                size = min(CHUNK_SIZE, n_samples - c * CHUNK_SIZE)
                results[c] = _chunk_sums(plan, k, sphere, seed, c, size, r, workspace)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    # The CPUs are the ones this process may run on, where the platform says
    # which. With more than one thread the caller only waits, so every chunk
    # of a parallel run is a worker's (perfbench's tracer hangs a worker's
    # spans under the caller's innermost open one).
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(workers, n_chunks, cpus)
    if threads == 1:
        work(0)
    else:
        started = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for thread in started:
            thread.start()
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]

    total = 0j
    total_sq = 0.0
    zeros = 0
    for s, s2, z in results:  # fixed reduction order, independent of workers
        total += s
        total_sq += s2
        zeros += z
    mean = total / n_samples
    variance = max(total_sq - n_samples * abs(mean) ** 2, 0.0) / (n_samples - 1)
    return MCEstimate(complex(mean.real * r, mean.imag * r), sqrt(variance / n_samples) * r,
                      n_samples, ensemble, k, seed, zeros)


def predicted_q(g: Multigraph, k: int, ensemble: Ensemble,
                guard: int = DEFAULT_ENUMERATION_GUARD) -> Fraction:
    """Exact q(G;k): the circuit partition polynomial at z = k times the
    product of per-vertex scalings.

    A graph with unbalanced (directed) or odd (undirected) degrees has
    q(G;k) = 0 exactly: a uniform phase or sign flip at an unbalanced vertex
    preserves its ensemble but scales the product. The engine's own degree
    check, the only one made, refuses such a graph before any work, and that
    zero is returned instead. On an Eulerian graph q(G;k) > 0, since j(G;k)
    >= 1 at k >= 1, so the value is 0 exactly when the graph is not
    Eulerian. `guard` caps the work of the partition polynomial (see
    circuit_partition_polynomial).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ensure_ensemble_matches(g, ensemble)
    try:
        j = circuit_partition_polynomial(g, guard=guard)
    except NotEulerianError:
        return Fraction(0)
    return vertex_scaling(g, k, ensemble) * j.evaluate(k)


def norm_moment(d: int, k: int, ensemble: Ensemble) -> Fraction:
    """Exact E[|x|^(2d)] under the ensemble.

    A Gaussian vector is its norm times an independent uniform unit vector,
    so its expected tensor is E[|x|^(2d)] times the sphere ensemble's, and
    both are scalings of the same diagram sum: the moment is the ratio of
    the two xd_scaling values (1 for a sphere ensemble).
    """
    return xd_scaling(d, k, ensemble) / xd_scaling(d, k, ensemble.sphere)

