"""Random-vector ensembles, Monte Carlo estimation of q(G;k), and exact predictions.

q(G;k) is the expectation over independent per-vertex random vectors of the
product over edges (u, v) of <x_u, x_v>, where the first argument is the
conjugated one. Estimates are plain Monte Carlo; predictions evaluate the
circuit partition polynomial with the per-vertex ensemble scalings. The
product at one given assignment, edge by edge, is an oracle, in checks.

Both ensembles are invariant under one global unitary (orthogonal, for real
vectors) map, which leaves every <x_u, x_v> unchanged. So within each
connected component one vertex, its anchor, can be pinned at |x_a|·e1
without changing the law of the edge product: estimate_q draws vectors only
for the other vertices that carry an edge. A sphere anchor is e1; a Gaussian
anchor's squared norm is one gamma variate per sample.

Reproducibility contract: sampling is split into fixed-size chunks; chunk c
draws from a Philox generator keyed with the 128-bit value
(seed << 64) | c, its normals first and then, for a Gaussian ensemble, its
anchors' gamma variates, and chunk results are reduced in chunk order. The
chunk layout depends only on n_samples, so a run is bit-identical for any
worker count, not just for a fixed one.

Each worker thread runs its chunks through one workspace, a dict of flat
buffers sized on its first chunk, so chunks do not allocate. It holds one
copy of a chunk's draws, of the drawn vertices only, and one scratch buffer
bounded by SLAB_SIZE samples (or by one vertex's rows), plus a few
sample-length rows (two more per anchor for a Gaussian ensemble). Complex
draws are stored sample-last, (vertex_count, k, count), so norms and inner products
run along contiguous sample rows; real draws stay (count, vertex_count, k).
Neither layout changes a bit of the result.

numpy, and the thread pool of a multi-worker run, are imported by the
functions that draw or multiply vectors, on first use. The exact path
(predicted_q, norm_moment) and every command that never samples run
without loading either.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import prod, sqrt
from typing import TYPE_CHECKING, NamedTuple

from .diagrams import ensure_ensemble_matches, vertex_scaling, xd_scaling
from .errors import DEFAULT_ENUMERATION_GUARD, GuardExceededError, NotEulerianError
from .graphs import Ensemble, Multigraph, edge_components
from .partition import circuit_partition_polynomial

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 8192
SLAB_SIZE = 4096  # samples per pass through the scratch buffer
WORKSPACE_LIMIT = 2**30  # bytes of chunk buffers per worker thread


class MCEstimate(NamedTuple):
    """Monte Carlo estimate of q(G;k) with its reproduction recipe.

    zero_products counts the samples whose edge product is exactly 0. Draws
    from a continuous ensemble make that an underflow of the float product,
    not an exact zero: when it is nonzero, the mean and its standard error
    miss the part of q that left the float range. It is not part of the
    JSON form.
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
    import numpy as np

    key = (seed << 64) | chunk_index
    return np.random.Generator(np.random.Philox(key=key))


class _Anchored(NamedTuple):
    """A graph's edges as the sampler reads them (see _anchored)."""

    edges: tuple[tuple[int, int], ...]  # each end a row r >= 0 of the draws, or ~i for anchor i
    drawn: tuple[int, ...]  # the vertex of each row of the draws
    anchors: tuple[int, ...]  # the anchor of each component that has an edge


def _anchored(g: Multigraph) -> _Anchored:
    """g's edges over its drawn vertices and anchors.

    Each connected component that has an edge (graphs.edge_components) has
    one anchor, its vertex of the most half-edges, ties to the least id,
    whose vector is pinned at |x_a|·e1. The other vertices with an edge are
    drawn, a row each, in order of their first edge end; isolated vertices
    are neither, since no factor reads them. O(m): no pass over all n
    vertices.
    """
    roots = edge_components(g.edges)
    degree = g.degree_counts()
    best: dict[int, int] = {}
    for v, root in roots.items():
        a = best.setdefault(root, v)
        if (degree[v], a) > (degree[a], v):  # more half-edges, or as many and a lesser id
            best[root] = v
    anchors = tuple(best.values())
    code = {a: ~i for i, a in enumerate(anchors)}
    drawn = tuple(v for v in roots if v not in code)
    code.update(zip(drawn, range(len(drawn))))
    return _Anchored(tuple((code[u], code[v]) for u, v in g.edges), drawn, anchors)


def _buffers(workspace: dict, name: str, *arrays: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """C-contiguous arrays of the given (shape, dtype)s, laid end to end over
    the leading bytes of the named buffer of `workspace`, which is allocated
    (or grown) only when too small.

    A worker that hands the same dict to every chunk allocates its buffers on
    the first chunk only; a shorter last chunk takes leading slices of them.
    One name may serve several sets of arrays in turn, each done with before
    the next is taken.
    """
    import numpy as np

    dtypes = [np.dtype(dtype) for _, dtype in arrays]
    sizes = [prod(shape) * dtype.itemsize for (shape, _), dtype in zip(arrays, dtypes)]
    raw = workspace.get(name)
    if raw is None or raw.size < sum(sizes):
        raw = workspace[name] = np.empty(sum(sizes), dtype=np.uint8)
    views, offset = [], 0
    for (shape, _), dtype, size in zip(arrays, dtypes, sizes):
        views.append(raw[offset:offset + size].view(dtype).reshape(shape))
        offset += size
    return views


def _buffer(workspace: dict, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """The one array of `shape` and `dtype` over the named buffer (see _buffers)."""
    return _buffers(workspace, name, (shape, dtype))[0]


def draw_assignments(rng: np.random.Generator, count: int, vertex_count: int, k: int,
                     ensemble: Ensemble, workspace: dict | None = None) -> np.ndarray:
    """(count, vertex_count, k) array of ensemble draws.

    estimate_q asks for its drawn vertices only (see _anchored): an anchor
    takes no draw here, and a Gaussian anchor's norm is drawn after these
    normals, from the same generator (_chunk_sums).

    Complex draws take all real parts of the chunk as one standard-normal
    block of that shape, then all imaginary parts as the next block (the
    stream of one (2, count, vertex_count, k) draw). Each block is drawn
    SLAB_SIZE samples at a time through the scratch buffer, which continues
    the same Philox stream. Sphere ensembles normalize each vector; Gaussian
    ensembles scale componentwise to variance 1/k (split over the real and
    imaginary parts in the complex case), so E[|x|^2] = 1 throughout.

    Complex draws are stored sample-last: the result is a transposed view of
    a C-contiguous (vertex_count, k, count) array, so that the norms here and
    the inner products of _batch_products run along contiguous sample rows.
    Real draws are C-contiguous (count, vertex_count, k): their inner
    products change in the last bit in the sample-last layout from k = 3 on.

    `workspace` is a dict of reusable buffers (see _buffers): the draws live
    in its "draws" buffer and every temporary in its "scratch" one, and the
    next call through the same dict overwrites them. Without one, each call
    allocates its own.

    The result is bit-identical to x / sqrt(2k) or x / sqrt(k) (Gaussian)
    and x / np.linalg.norm(x, axis=2, keepdims=True) (sphere), with less
    numpy work and memory:
    - the complex Gaussian factor is applied as each slab is copied into the
      draws;
    - squared norms are (x.conj() * x).real, as np.linalg.norm computes them
      (re*re + im*im can differ in the last bit; real draws use x * x),
      summed over the k columns as numpy's reduce sums them
      (_pairwise_column_sum), one vertex at a time (complex) or one slab of
      samples at a time (real);
    - complex draws are scaled by the reciprocal, re and im each times 1/r:
      numpy's complex-by-real division computes exactly that;
    - real draws keep true division, x /= r: a reciprocal would change
      their last bit.
    """
    import numpy as np

    ws = {} if workspace is None else workspace
    slab = min(SLAB_SIZE, count)
    if not ensemble.is_complex:
        x = rng.standard_normal(out=_buffer(ws, "draws", (count, vertex_count, k), np.float64))
        if ensemble.is_gaussian:
            x /= sqrt(k)
            return x
        squares, norm = _buffers(ws, "scratch", ((slab, vertex_count, k), np.float64),
                                 ((slab, vertex_count), np.float64))
        for start in range(0, count, SLAB_SIZE):
            part = x[start:start + SLAB_SIZE]
            rows = norm[:len(part)]
            _pairwise_column_sum(np.multiply(part, part, out=squares[:len(part)]), rows)
            part /= np.sqrt(rows, out=rows)[..., None]
        return x
    x = _buffer(ws, "draws", (vertex_count, k, count), np.complex128)
    normal = _buffer(ws, "scratch", (slab, vertex_count, k), np.float64)
    for part in (x.real, x.imag):
        for start in range(0, count, SLAB_SIZE):
            block = rng.standard_normal(out=normal[:count - start]).transpose(1, 2, 0)
            if ensemble.is_gaussian:
                np.multiply(block, 1 / sqrt(2 * k), out=part[..., start:start + SLAB_SIZE])
            else:
                part[..., start:start + SLAB_SIZE] = block
    if not ensemble.is_gaussian:
        conj, squares, norm = _buffers(ws, "scratch", ((k, count), np.complex128),
                                       ((k, count), np.complex128), ((count,), np.float64))
        for v in range(vertex_count):  # a vertex at a time keeps the temporaries small
            np.multiply(np.conjugate(x[v], out=conj), x[v], out=squares)
            # The spent conjugates take the copy with k last that k >= 8 needs.
            _pairwise_column_sum(squares.real.T, norm, conj.view(np.float64).reshape(-1))
            reciprocal = np.divide(1, np.sqrt(norm, out=norm), out=norm)
            for part in (x[v].real, x[v].imag):
                np.multiply(part, reciprocal, out=part)
    return x.transpose(2, 0, 1)


def _pairwise_column_sum(a: np.ndarray, out: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Sum over the last axis of `a` into `out`, bit-identical to np.add.reduce(a, axis=-1).

    numpy's pairwise summation adds fewer than 8 terms left to right, so
    short rows are summed a whole column at a time, which is faster there;
    from 8 terms on numpy's reduce is the faster of the two. It sums
    pairwise only along an axis it walks innermost, so there an `a` that is
    not C-contiguous is first copied into the leading elements of the flat
    array `spare`.
    """
    import numpy as np

    n = a.shape[-1]
    if n >= 8:
        if not a.flags.c_contiguous:
            copy = spare[:a.size].reshape(a.shape)
            np.copyto(copy, a)
            a = copy
        return np.add.reduce(a, axis=-1, out=out)
    np.copyto(out, a[..., 0])
    for i in range(1, n):
        out += a[..., i]
    return out


def sample_vector(k: int, ensemble: Ensemble, rng: np.random.Generator) -> np.ndarray:
    """One length-k draw from the ensemble."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return draw_assignments(rng, 1, 1, k, ensemble)[0, 0]


def _batch_products(plan: _Anchored, x: np.ndarray, norms: np.ndarray | None = None,
                    workspace: dict | None = None) -> np.ndarray:
    """Per-sample product of edge inner products for a (count, rows, k) batch
    of the drawn vertices of `plan`.

    Anchors sit at |x_a|·e1 (see _anchored). `norms` is None for a sphere
    ensemble, whose anchors are e1, or the (2, anchors, count) rows of each
    anchor's |x_a|^2 and |x_a| (_chunk_sums). An edge at an anchor runs no
    einsum: its inner product is the other end's first coordinate, x_v[0],
    or conj(x_u[0]) on the tail side, times |x_a| for a Gaussian. A loop at
    an anchor is |x_a|^2, and a factor of 1, skipped, on a sphere.

    Each distinct ordered pair (u, v) gets one inner product per sample,
    kept in a row of its own when a later edge uses it again, and the
    products are multiplied in file edge order, so a parallel edge costs one
    multiply. Complex batches (a directed graph's) conjugate the tail's
    (k, count) rows into the scratch buffer just before its pair's inner
    product, unless they are already there, and are read sample-last, as
    draw_assignments stores them; the (k, count) einsum gives the same bits
    as the (count, k) one there. `workspace` is as in draw_assignments; the
    returned row lives in it.
    """
    import numpy as np

    ws = {} if workspace is None else workspace
    count = x.shape[0]
    conjugate = np.iscomplexobj(x)  # a directed graph's tails
    if conjugate:
        x, subscripts = x.transpose(1, 2, 0), "is,is->s"
        first = x[:, 0]
    else:
        x, subscripts = x.transpose(1, 0, 2), "si,si->s"
        first = x[..., 0]
    tail = _buffer(ws, "scratch", x.shape[1:], x.dtype) if conjugate else None
    conjugated = None  # the row whose conjugate the tail holds
    rows = _reused_pair_rows(plan.edges)
    inner = _buffer(ws, "inner", (len(rows) + 1, count), x.dtype)  # the last row serves single-use pairs
    ready: dict[tuple[int, int], np.ndarray] = {}
    values, spare = _buffer(ws, "products", (2, count), x.dtype)
    values.fill(1)
    for u, v in plan.edges:
        if u == v < 0 and norms is None:
            continue  # a loop at a sphere anchor: |e1|^2 = 1
        ip = ready.get((u, v))
        if ip is None:
            out = inner[rows.get((u, v), -1)]
            if u >= 0 and v >= 0:
                if conjugate and conjugated != u:
                    np.conjugate(x[u], out=tail)
                    conjugated = u
                ip = np.einsum(subscripts, tail if conjugate else x[u], x[v], out=out)
            elif u == v:
                ip = norms[0, ~u]
            else:
                ip = first[v] if u < 0 else np.conjugate(first[u], out=out)
                if norms is not None:
                    ip = np.multiply(ip, norms[1, ~min(u, v)], out=out)
            if (u, v) in rows:
                ready[u, v] = ip
        # Into the other row, not in place: for a one-sample chunk numpy's
        # in-place complex product differs from the out-of-place one in the
        # last bit.
        values, spare = np.multiply(values, ip, out=spare), values
    return values


def _reused_pair_rows(edges: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
    """Row index, in first-use order, of each ordered pair that labels more than one edge."""
    seen: set[tuple[int, int]] = set()
    rows: dict[tuple[int, int], int] = {}
    for edge in edges:
        if edge in seen:
            rows.setdefault(edge, len(rows))
        seen.add(edge)
    return rows


def _chunk_sums(plan: _Anchored, k: int, ensemble: Ensemble, seed: int, c: int, count: int,
                workspace: dict) -> tuple[complex, float, int]:
    """Sum of the edge products of chunk c, the sum of their squared moduli,
    and the number of them that are exactly 0.

    A Gaussian anchor's |x_a|^2, after the chunk's normals, is one gamma
    variate per sample: Gamma(k, 1/k) for a complex vector (2k real parts of
    variance 1/(2k)) and Gamma(k/2, 2/k) for a real one, the scale the
    reciprocal of the shape in both cases, so E|x_a|^2 = 1 as for every
    vector drawn.
    """
    import numpy as np

    rng = _chunk_rng(seed, c)
    x = draw_assignments(rng, count, len(plan.drawn), k, ensemble, workspace)
    norms = None
    if ensemble.is_gaussian:
        shape = k if ensemble.is_complex else k / 2
        norms = _buffer(workspace, "norms", (2, len(plan.anchors), count), np.float64)
        rng.standard_gamma(shape, out=norms[0])
        norms[0] /= shape
        np.sqrt(norms[0], out=norms[1])
    values = _batch_products(plan, x, norms, workspace)
    magnitude = np.abs(values, out=_buffer(workspace, "magnitude", (count,), np.float64))
    zeros = count - int(np.count_nonzero(magnitude))
    return complex(np.sum(values)), float(np.sum(np.square(magnitude, out=magnitude))), zeros


def _workspace_bytes(plan: _Anchored, k: int, ensemble: Ensemble, count: int) -> int:
    """Bytes of the buffers that draw_assignments, _batch_products and the
    chunk sums take from one workspace for chunks of `count` samples of
    `plan`, for an ensemble that matches its graph (complex draws on a
    directed graph).

    With n = len(plan.drawn), the drawn vertices, p the number of reused
    pairs, f the bytes of a field element (16 complex, 8 real) and
    s = min(SLAB_SIZE, count), that is f·count·(n·k + p + 3) + 8·count for
    the draws, inner products, products and |values|, plus 16·count per
    anchor for a Gaussian's |x_a|^2 and |x_a|, plus the scratch buffer: the
    larger of a normal slab, 8·s·n·k, and a conjugated tail, 16·k·count
    (complex Gaussian); the larger of those and one vertex's conjugates,
    squares and norms, (32·k + 8)·count (complex sphere); 8·s·n·(k + 1) for
    a slab's squares and norms (real sphere); nothing (real Gaussian).
    Anchors and isolated vertices take no draws.
    """
    n = len(plan.drawn)
    slab = min(SLAB_SIZE, count)
    field = 16 if ensemble.is_complex else 8
    total = field * count * (n * k + len(_reused_pair_rows(plan.edges)) + 3) + 8 * count
    if ensemble.is_gaussian:
        total += 16 * len(plan.anchors) * count
    if ensemble.is_complex:
        scratch = max(8 * slab * n * k, 16 * k * count)
        if not ensemble.is_gaussian:
            scratch = max(scratch, (32 * k + 8) * count)
    else:
        scratch = 0 if ensemble.is_gaussian else 8 * slab * n * (k + 1)
    return total + scratch


def estimate_q(g: Multigraph, k: int, ensemble: Ensemble, n_samples: int, seed: int,
               workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of the edge product over n_samples assignments.

    Bit-reproducible for a fixed (seed, n_samples) regardless of workers
    (threads, at most one per chunk and per CPU the process may run on); the
    standard error is the per-sample standard deviation of the complex
    values over sqrt(n_samples).
    The seed must lie in [0, 2**64): it is the high half of every chunk's
    Philox key, so no two seeds share a stream. One vertex per connected
    component is pinned at |x_a|·e1 and takes no draw (_anchored). Each
    worker thread runs its chunks through one workspace; a run whose
    workspace would pass WORKSPACE_LIMIT bytes is refused before any
    sampling.
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

    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    chunk = min(CHUNK_SIZE, n_samples)
    plan = _anchored(g)
    required = _workspace_bytes(plan, k, ensemble, chunk)
    if required > WORKSPACE_LIMIT:
        raise GuardExceededError(
            f"Monte Carlo refused (bytes of chunk buffers per worker: one copy of the draws, {chunk}"
            f" samples x {len(plan.drawn)} drawn vertices x k = {k}, plus scratch)", required, WORKSPACE_LIMIT)

    workspaces = threading.local()  # one per thread, so its chunks reuse one set of buffers

    def run_chunk(c: int) -> tuple[complex, float, int]:
        size = min(CHUNK_SIZE, n_samples - c * CHUNK_SIZE)
        return _chunk_sums(plan, k, ensemble, seed, c, size, vars(workspaces))

    # A pool starts a thread per task up to its size; the CPUs are the ones
    # this process may run on, where the platform says which.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(workers, n_chunks, cpus)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunk_results = list(pool.map(run_chunk, range(n_chunks)))
    else:
        chunk_results = [run_chunk(c) for c in range(n_chunks)]

    total = 0j
    total_sq = 0.0
    zeros = 0
    for s, s2, z in chunk_results:  # fixed reduction order, independent of workers
        total += s
        total_sq += s2
        zeros += z
    mean = total / n_samples
    variance = max(total_sq - n_samples * abs(mean) ** 2, 0.0) / (n_samples - 1)
    return MCEstimate(mean, sqrt(variance / n_samples), n_samples, ensemble, k, seed, zeros)


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
    sphere = Ensemble.COMPLEX_SPHERE if ensemble.is_complex else Ensemble.REAL_SPHERE
    return xd_scaling(d, k, ensemble) / xd_scaling(d, k, sphere)

