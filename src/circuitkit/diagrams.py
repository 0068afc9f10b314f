"""Permutation and matching diagram algebra, and the tensor-contraction oracle.

A size-d permutation diagram wires d upper tensor indices bijectively to d
lower ones; a size-d matching diagram is any perfect matching of the 2d
index endpoints, so it may also pair two upper or two lower indices with a
cup or cap. Summing k^(loop count of the closed diagram) over a family gives
the cycle-count generating functions with closed forms k(k+1)...(k+d-1)
(permutations) and k(k+2)...(k+2d-2) (matchings).

The moment oracle contract_q_exact sums the product of per-vertex expected
tensors over every assignment of an index in [0, k) to each edge. It never
touches circuit-partition reasoning, which is exactly what makes it an
independent check of the partition-based predictions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, prod
from typing import Iterator, Sequence

from .errors import GuardExceededError
from .graphs import DirectedMultigraph, Multigraph, UndirectedMultigraph, require_eulerian

DEFAULT_PERMUTATION_LIMIT = 8
DEFAULT_MATCHING_LIMIT = 7
DEFAULT_CONTRACTION_GUARD = 10**7


class Ensemble(str, Enum):
    """Random-vector ensemble the moment q(G;k) is taken over."""

    COMPLEX_SPHERE = "complex-sphere"
    REAL_SPHERE = "real-sphere"
    COMPLEX_GAUSSIAN = "complex-gaussian"
    REAL_GAUSSIAN = "real-gaussian"

    @property
    def is_complex(self) -> bool:
        return self in (Ensemble.COMPLEX_SPHERE, Ensemble.COMPLEX_GAUSSIAN)

    @property
    def is_real(self) -> bool:
        return not self.is_complex

    @property
    def is_gaussian(self) -> bool:
        return self in (Ensemble.COMPLEX_GAUSSIAN, Ensemble.REAL_GAUSSIAN)

    @classmethod
    def from_string(cls, name: str) -> "Ensemble":
        try:
            return cls(name)
        except ValueError:
            options = ", ".join(e.value for e in cls)
            raise ValueError(f"unknown ensemble {name!r} (expected one of {options})") from None


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermutationDiagram:
    """Bijection on {0..d-1} wiring upper index image[l] to lower index l."""

    size: int
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if sorted(self.image) != list(range(self.size)):
            raise ValueError(f"image {self.image} is not a permutation of range({self.size})")

    def cycle_count(self) -> int:
        seen = [False] * self.size
        cycles = 0
        for i in range(self.size):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.image[j]
        return cycles

    def delta_product(self, uppers: Sequence[int], lowers: Sequence[int]) -> int:
        """Entry of the diagram operator: 1 iff uppers[image[l]] == lowers[l] for all l."""
        return int(all(uppers[self.image[l]] == lowers[l] for l in range(self.size)))

    def as_matching(self) -> "MatchingDiagram":
        """The same wiring as a matching of the 2d endpoints."""
        return MatchingDiagram(self.size, tuple((self.image[l], self.size + l) for l in range(self.size)))


@dataclass(frozen=True)
class MatchingDiagram:
    """Perfect matching of 2d endpoints: 0..d-1 upper, d..2d-1 lower."""

    size: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", canon)
        flat = sorted(x for pair in canon for x in pair)
        if flat != list(range(2 * self.size)):
            raise ValueError(f"pairs {canon} are not a perfect matching of {2 * self.size} endpoints")

    def closure_loop_count(self) -> int:
        """Loops after joining upper endpoint i to lower endpoint d+i.

        The union of the diagram's pairs with the identity pairs is a
        2-regular graph on the 2d endpoints; its components are the loops,
        so the diagram's trace is k**closure_loop_count().
        """
        partner = {}
        for a, b in self.pairs:
            partner[a] = b
            partner[b] = a
        seen = set()
        loops = 0
        for start in range(2 * self.size):
            if start in seen:
                continue
            loops += 1
            h = start
            while h not in seen:
                seen.add(h)
                closed = (h + self.size) % (2 * self.size)  # identity closure partner
                seen.add(closed)
                h = partner[closed]
        return loops

    def delta_product(self, uppers: Sequence[int], lowers: Sequence[int]) -> int:
        """Entry of the diagram operator: 1 iff every matched pair carries equal values."""
        values = tuple(uppers) + tuple(lowers)
        return int(all(values[a] == values[b] for a, b in self.pairs))


# ---------------------------------------------------------------------------
# Enumeration: direct, and by expanding the staged product
# ---------------------------------------------------------------------------

def enumerate_permutations(d: int, limit: int | None = None) -> Iterator[PermutationDiagram]:
    """All d! permutation diagrams in lexicographic image order."""
    limit = DEFAULT_PERMUTATION_LIMIT if limit is None else limit
    if d > limit:
        raise GuardExceededError("permutation diagram enumeration refused", d, limit)
    for image in itertools.permutations(range(d)):
        yield PermutationDiagram(d, image)


def perfect_matchings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of an ordered point list, smallest-endpoint-first order."""
    if not points:
        yield ()
        return
    a = points[0]
    for idx in range(1, len(points)):
        rest = points[1:idx] + points[idx + 1:]
        for tail in perfect_matchings(rest):
            yield ((a, points[idx]),) + tail


def enumerate_matchings(d: int, limit: int | None = None) -> Iterator[MatchingDiagram]:
    """All (2d-1)!! matching diagrams in canonical pairing order."""
    limit = DEFAULT_MATCHING_LIMIT if limit is None else limit
    if d > limit:
        raise GuardExceededError("matching diagram enumeration refused", d, limit)
    for pairs in perfect_matchings(tuple(range(2 * d))):
        yield MatchingDiagram(d, pairs)


def expand_permutation_product(d: int, limit: int | None = None) -> list[PermutationDiagram]:
    """Second enumeration path: expand the staged transposition product.

    Stage t contributes a factor (1 + sum_i swap(i, t)); choosing one term per
    stage and composing yields every permutation exactly once, which the test
    suite checks against direct enumeration as a multiset.
    """
    limit = DEFAULT_PERMUTATION_LIMIT if limit is None else limit
    if d > limit:
        raise GuardExceededError("permutation product expansion refused", d, limit)
    results = [tuple(range(d))]
    for t in range(1, d):
        staged = []
        for img in results:
            staged.append(img)
            for i in range(t):
                swapped = list(img)
                swapped[i], swapped[t] = swapped[t], swapped[i]
                staged.append(tuple(swapped))
        results = staged
    return [PermutationDiagram(d, img) for img in results]


def expand_matching_product(d: int, limit: int | None = None) -> list[MatchingDiagram]:
    """Second enumeration path for matchings, one staged factor at a time.

    Stage t contributes 2t - 1 terms: the identity pairs the new upper and
    lower points together (one more loop in the closed diagram), and each of
    the other terms splices them into one of the t - 1 existing pairs, in one
    of two orientations, leaving the loop count unchanged. The multiset must
    match direct enumeration, which the tests check.
    """
    limit = DEFAULT_MATCHING_LIMIT if limit is None else limit
    if d > limit:
        raise GuardExceededError("matching product expansion refused", d, limit)
    if d == 0:
        return [MatchingDiagram(0, ())]

    lower = d  # offset of lower endpoints in the final labeling
    results: list[tuple[tuple[int, int], ...]] = [((0, lower),)]
    for t in range(1, d):
        upper_t, lower_t = t, lower + t
        staged = []
        for pairs in results:
            staged.append(pairs + ((upper_t, lower_t),))
            for idx, (x, y) in enumerate(pairs):
                rest = pairs[:idx] + pairs[idx + 1:]
                staged.append(rest + ((x, upper_t), (y, lower_t)))
                staged.append(rest + ((x, lower_t), (y, upper_t)))
        results = staged
    return [MatchingDiagram(d, pairs) for pairs in results]


# ---------------------------------------------------------------------------
# Generating functions and scalings
# ---------------------------------------------------------------------------

def cycle_genfunc_permutations(d: int, k: int) -> int:
    """sum over S_d of k^(cycle count), by brute-force enumeration.

    Equals the rising factorial k(k+1)...(k+d-1), which the tests assert.
    """
    return sum(k ** p.cycle_count() for p in enumerate_permutations(d))


def cycle_genfunc_matchings(d: int, k: int) -> int:
    """sum over matchings of k^(closure loop count); equals k(k+2)...(k+2d-2)."""
    return sum(k ** m.closure_loop_count() for m in enumerate_matchings(d))


def xd_scaling(d: int, k: int, ensemble: Ensemble) -> Fraction:
    """Scalar a with E[outer product of x^(tensor d)] = a * (sum over diagrams).

    The diagram family is permutations for complex ensembles and matchings
    for real ones.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    if ensemble is Ensemble.COMPLEX_SPHERE:
        return Fraction(factorial(k - 1), factorial(k + d - 1))
    if ensemble is Ensemble.REAL_SPHERE:
        # (k-2)!!/(k+2d-2)!! collapses to 1/(k(k+2)...(k+2d-2)) with the
        # conventions 0!! = (-1)!! = 1, which keeps k = 1 and k = 2 valid.
        return Fraction(1, prod(k + 2 * i for i in range(d)))
    return Fraction(1, k**d)


def vertex_scaling(g: Multigraph, k: int, ensemble: Ensemble) -> Fraction:
    """Product of the per-vertex scalings xd_scaling(d_v, k, ensemble).

    d_v is the in-degree of a directed vertex and half the degree of an
    undirected one: the tensor power of x_v that its edges contract.
    """
    if isinstance(g, DirectedMultigraph):
        powers = g.in_degrees()
    else:
        powers = tuple(d // 2 for d in g.degrees())
    return prod((xd_scaling(d, k, ensemble) for d in powers), start=Fraction(1))


# ---------------------------------------------------------------------------
# Brute-force contraction oracle
# ---------------------------------------------------------------------------

def ensure_ensemble_matches(g: Multigraph, ensemble: Ensemble) -> None:
    """Directed graphs pair with complex ensembles, undirected with real ones."""
    if isinstance(g, DirectedMultigraph) and not ensemble.is_complex:
        raise ValueError("directed graphs pair with complex ensembles")
    if isinstance(g, UndirectedMultigraph) and not ensemble.is_real:
        raise ValueError("undirected graphs pair with real ensembles")


def contract_q_exact(g: Multigraph, k: int, ensemble: Ensemble, guard: int | None = None) -> Fraction:
    """q(G;k) by summing the contraction over all k^m edge-index assignments.

    Each vertex contributes the entry of its expected tensor at the incident
    edge indices: incoming edges feed the upper indices and outgoing edges
    the lower ones (file order), or all incident half-edges in the undirected
    case. Entries are scaling * (number of diagrams whose wiring the index
    values satisfy), so the sum of integer diagram counts is taken exactly
    and scaled once at the end.
    """
    guard = DEFAULT_CONTRACTION_GUARD if guard is None else guard
    if k < 1:
        raise ValueError("k must be >= 1")
    ensure_ensemble_matches(g, ensemble)
    require_eulerian(g)
    m = g.edge_count
    if k**m > guard:
        raise GuardExceededError("contraction oracle refused", k**m, guard)

    if isinstance(g, DirectedMultigraph):
        ins, outs = g.slots()
        degrees = g.in_degrees()
        diagram_lists = {d: list(enumerate_permutations(d, limit=max(d, DEFAULT_PERMUTATION_LIMIT)))
                         for d in set(degrees)}

        def vertex_count(v: int, assign: tuple[int, ...]) -> int:
            uppers = tuple(assign[e] for e in ins[v])
            lowers = tuple(assign[e] for e in outs[v])
            key = (uppers, lowers)
            cached = memos[v].get(key)
            if cached is None:
                cached = sum(p.delta_product(uppers, lowers) for p in diagram_lists[degrees[v]])
                memos[v][key] = cached
            return cached
    else:
        slot_edges = [[h // 2 for h in halves] for halves in g.slots()]
        degrees = g.degrees()
        diagram_lists = {d: list(enumerate_matchings(d // 2, limit=max(d // 2, DEFAULT_MATCHING_LIMIT)))
                         for d in set(degrees)}

        def vertex_count(v: int, assign: tuple[int, ...]) -> int:
            values = tuple(assign[e] for e in slot_edges[v])
            cached = memos[v].get(values)
            if cached is None:
                half = len(values) // 2
                cached = sum(mu.delta_product(values[:half], values[half:]) for mu in diagram_lists[degrees[v]])
                memos[v][values] = cached
            return cached

    memos: list[dict] = [{} for _ in range(g.vertex_count)]
    total = 0
    vertices = range(g.vertex_count)
    for assign in itertools.product(range(k), repeat=m):
        term = 1
        for v in vertices:
            c = vertex_count(v, assign)
            if c == 0:
                term = 0
                break
            term *= c
        total += term
    return total * vertex_scaling(g, k, ensemble)
