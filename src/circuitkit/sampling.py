"""Random-vector ensembles, Monte Carlo estimation of q(G;k), and exact predictions.

q(G;k) is the expectation over independent per-vertex random vectors of the
product over edges (u, v) of <x_u, x_v>, where the first argument is the
conjugated one. Estimates are plain Monte Carlo; predictions evaluate the
circuit partition polynomial with the per-vertex ensemble scalings.

Reproducibility contract: sampling is split into fixed-size chunks; chunk c
draws from a Philox generator keyed with the 128-bit value
(seed << 64) | c, and chunk results are reduced in chunk order. The chunk
layout depends only on n_samples, so a run is bit-identical for any worker
count, not just for a fixed one.

numpy, and the thread pool of a multi-worker run, are imported by the
functions that draw or multiply vectors, on first use. The exact path
(predicted_q, norm_moment, wick_pairing_sum) and every command that never
samples run without loading either.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod, sqrt
from typing import TYPE_CHECKING

from .diagrams import Ensemble, ensure_ensemble_matches, perfect_matchings, vertex_scaling, xd_scaling
from .graphs import DirectedMultigraph, Multigraph, eulerian_check
from .partition import circuit_partition_polynomial

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 8192


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of q(G;k) with its reproduction recipe."""

    mean: complex
    std_error: float
    n_samples: int
    ensemble: Ensemble
    k: int
    seed: int

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
        return json.dumps(self.to_json_dict())


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    import numpy as np

    key = (seed << 64) | chunk_index
    return np.random.Generator(np.random.Philox(key=key))


def draw_assignments(rng: np.random.Generator, count: int, vertex_count: int, k: int,
                     ensemble: Ensemble) -> np.ndarray:
    """(count, vertex_count, k) array of ensemble draws.

    Complex draws take all real parts of the chunk as one standard-normal
    block of that shape, then all imaginary parts as the next block (the
    stream of one (2, count, vertex_count, k) draw), through one buffer.
    Sphere ensembles normalize each vector; Gaussian ensembles scale
    componentwise to variance 1/k (split over the real and imaginary parts
    in the complex case), so E[|x|^2] = 1 throughout.

    The result is bit-identical to x / sqrt(2k) or x / sqrt(k) (Gaussian)
    and x / np.linalg.norm(x, axis=2, keepdims=True) (sphere), with less
    numpy work:
    - squared norms are (x.conj() * x).real, as np.linalg.norm computes them
      (re*re + im*im can differ in the last bit; real draws use x * x),
      summed over the k columns as numpy's reduce sums them
      (_pairwise_column_sum);
    - complex draws are scaled by the reciprocal, re and im each times 1/r:
      numpy's complex-by-real division computes exactly that;
    - real draws keep true division, x /= r: a reciprocal would change
      their last bit.
    """
    import numpy as np

    shape = (count, vertex_count, k)
    x = rng.standard_normal(shape)
    if ensemble.is_complex:
        buffer, x = x, np.empty(shape, dtype=np.complex128)
        x.real = buffer
        x.imag = rng.standard_normal(out=buffer)
        del buffer
    if ensemble.is_gaussian:
        scale = sqrt(2 * k if ensemble.is_complex else k)
    else:
        scale = _pairwise_column_sum((x.conj() * x).real if ensemble.is_complex else x * x)
        np.sqrt(scale, out=scale)
        scale = scale[..., None]
    if ensemble.is_complex:
        re_im = x.view(np.float64)  # (count, vertex_count, 2k)
        re_im *= 1 / scale
    else:
        x /= scale
    return x


def _pairwise_column_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis of `a`, bit-identical to np.add.reduce(a, axis=-1).

    numpy's pairwise summation adds fewer than 8 terms left to right, so
    short rows are summed a whole column at a time, which is faster there;
    from 8 terms on numpy's reduce is the faster of the two.
    """
    import numpy as np

    n = a.shape[-1]
    if n >= 8:
        return np.add.reduce(a, axis=-1)
    total = a[..., 0].copy()
    for i in range(1, n):
        total += a[..., i]
    return total


def sample_vector(k: int, ensemble: Ensemble, rng: np.random.Generator) -> np.ndarray:
    """One length-k draw from the ensemble."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return draw_assignments(rng, 1, 1, k, ensemble)[0, 0]


def product_of_inner_products(g: Multigraph, vectors: np.ndarray) -> complex:
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
    conjugate_tail = isinstance(g, DirectedMultigraph)
    result = 1 + 0j
    for u, v in g.edges:
        tail = np.conj(vectors[u]) if conjugate_tail else vectors[u]
        result *= complex(np.dot(tail, vectors[v]))
    return result


def _batch_products(g: Multigraph, x: np.ndarray) -> np.ndarray:
    """Per-sample product of edge inner products for a (count, n, k) batch.

    The batch is conjugated once (directed graphs), each distinct ordered
    pair (u, v) gets one inner product per sample, kept until the last edge
    that uses it, and the products are multiplied in file edge order, so a
    parallel edge costs one multiply.
    """
    import numpy as np

    tails = x.conj() if isinstance(g, DirectedMultigraph) else x
    last_use = {edge: i for i, edge in enumerate(g.edges)}
    inner: dict[tuple[int, int], np.ndarray] = {}
    values = np.ones(x.shape[0], dtype=x.dtype)
    for i, (u, v) in enumerate(g.edges):
        ip = inner.pop((u, v), None)
        if ip is None:
            ip = np.einsum("si,si->s", tails[:, u, :], x[:, v, :])
        if last_use[u, v] > i:
            inner[u, v] = ip
        # Not in place: for a one-sample chunk numpy's in-place complex
        # product differs from the out-of-place one in the last bit.
        values = values * ip
    return values


def estimate_q(g: Multigraph, k: int, ensemble: Ensemble, n_samples: int, seed: int,
               workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of the edge product over n_samples assignments.

    Bit-reproducible for a fixed (seed, n_samples) regardless of workers
    (threads, at most one per CPU and per chunk); the standard error is the
    per-sample standard deviation of the complex values over sqrt(n_samples).
    The seed must lie in [0, 2**64): it is the high half of every chunk's
    Philox key, so no two seeds share a stream.
    """
    import numpy as np

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

    def run_chunk(c: int) -> tuple[complex, float]:
        size = min(CHUNK_SIZE, n_samples - c * CHUNK_SIZE)
        x = draw_assignments(_chunk_rng(seed, c), size, g.vertex_count, k, ensemble)
        values = _batch_products(g, x)
        return complex(np.sum(values)), float(np.sum(np.abs(values) ** 2))

    threads = min(workers, n_chunks, os.cpu_count() or 1)  # a pool starts a thread per task up to its size
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunk_results = list(pool.map(run_chunk, range(n_chunks)))
    else:
        chunk_results = [run_chunk(c) for c in range(n_chunks)]

    total = 0j
    total_sq = 0.0
    for s, s2 in chunk_results:  # fixed reduction order, independent of workers
        total += s
        total_sq += s2
    mean = total / n_samples
    variance = max(total_sq - n_samples * abs(mean) ** 2, 0.0) / (n_samples - 1)
    return MCEstimate(mean, sqrt(variance / n_samples), n_samples, ensemble, k, seed)


def predicted_q(g: Multigraph, k: int, ensemble: Ensemble, guard: int | None = None) -> Fraction:
    """Exact q(G;k): the circuit partition polynomial at z = k times the
    product of per-vertex scalings.

    A graph with unbalanced (directed) or odd (undirected) degrees has
    q(G;k) = 0 exactly: a uniform phase or sign flip at an unbalanced vertex
    preserves its ensemble but scales the product. That zero is returned
    directly instead of running the formula. `guard` caps the work of the
    partition polynomial (see circuit_partition_polynomial).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ensure_ensemble_matches(g, ensemble)
    if not eulerian_check(g).is_eulerian:
        return Fraction(0)
    j = circuit_partition_polynomial(g, guard=guard)
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


def wick_pairing_sum(covariance, indices) -> Fraction:
    """Sum over pairings of products of covariances: E[x_{i1} ... x_{i2t}]
    for centered jointly Gaussian coordinates.

    covariance(a, b) must return the exact E[x_a x_b]. An odd index list
    has no pairing, so its sum is 0.
    """
    return sum((prod((covariance(a, b) for a, b in pairs), start=Fraction(1))
                for pairs in perfect_matchings(tuple(indices))), Fraction(0))
