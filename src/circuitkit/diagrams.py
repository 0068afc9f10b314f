"""Permutation and matching diagram algebra, and the tensor-contraction oracle.

A size-d permutation diagram wires d upper tensor indices bijectively to d
lower ones; a size-d matching diagram is any perfect matching of the 2d
index endpoints, so it may also pair two upper or two lower indices with a
cup or cap. Summing k^(loop count of the closed diagram) over a family gives
the cycle-count generating functions with closed forms k(k+1)...(k+d-1)
(permutations) and k(k+2)...(k+2d-2) (matchings).

The moment oracle contract_q_exact contracts the per-vertex expected
tensors, one index in [0, k) per edge, absorbing vertices one at a time along
graphs.max_adjacency_order, the order the j engine splits in (after Markov and
Shi, SIAM J. Comput. 38, 2008), so its cost is exponential in the cut width of
that order rather than in the edge count. It never touches circuit-partition
reasoning, which is exactly what makes it an independent check of the
partition-based predictions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import GuardExceededError
from .graphs import (DirectedMultigraph, Multigraph, UndirectedMultigraph, max_adjacency_order,
                     permutation_cycles, require_eulerian)

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
        return len(permutation_cycles(self.image))

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
        d = self.size
        partner = [0] * (2 * d)
        for a, b in self.pairs:
            partner[a] = b
            partner[b] = a
        # Closing and then following a pair steps twice along a loop, so each
        # loop is traced once in each direction.
        return len(permutation_cycles([partner[(h + d) % (2 * d)] for h in range(2 * d)])) // 2

    def delta_product(self, uppers: Sequence[int], lowers: Sequence[int]) -> int:
        """Entry of the diagram operator: 1 iff every matched pair carries equal values."""
        values = tuple(uppers) + tuple(lowers)
        return int(all(values[a] == values[b] for a, b in self.pairs))


# ---------------------------------------------------------------------------
# Enumeration: direct, and by expanding the staged product
# ---------------------------------------------------------------------------

def enumerate_permutations(d: int) -> Iterator[PermutationDiagram]:
    """All d! permutation diagrams in lexicographic image order."""
    if d > DEFAULT_PERMUTATION_LIMIT:
        raise GuardExceededError("permutation diagram enumeration refused", d, DEFAULT_PERMUTATION_LIMIT)
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


def enumerate_matchings(d: int) -> Iterator[MatchingDiagram]:
    """All (2d-1)!! matching diagrams in canonical pairing order."""
    if d > DEFAULT_MATCHING_LIMIT:
        raise GuardExceededError("matching diagram enumeration refused", d, DEFAULT_MATCHING_LIMIT)
    for pairs in perfect_matchings(tuple(range(2 * d))):
        yield MatchingDiagram(d, pairs)


def expand_permutation_product(d: int) -> list[PermutationDiagram]:
    """Second enumeration path: expand the staged transposition product.

    Stage t contributes a factor (1 + sum_i swap(i, t)); choosing one term per
    stage and composing yields every permutation exactly once, which the test
    suite checks against direct enumeration as a multiset.
    """
    if d > DEFAULT_PERMUTATION_LIMIT:
        raise GuardExceededError("permutation product expansion refused", d, DEFAULT_PERMUTATION_LIMIT)
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


def expand_matching_product(d: int) -> list[MatchingDiagram]:
    """Second enumeration path for matchings, one staged factor at a time.

    Stage t contributes 2t - 1 terms: the identity pairs the new upper and
    lower points together (one more loop in the closed diagram), and each of
    the other terms splices them into one of the t - 1 existing pairs, in one
    of two orientations, leaving the loop count unchanged. The multiset must
    match direct enumeration, which the tests check.
    """
    if d > DEFAULT_MATCHING_LIMIT:
        raise GuardExceededError("matching product expansion refused", d, DEFAULT_MATCHING_LIMIT)
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
# Generating functions, satisfied-diagram counts and scalings
# ---------------------------------------------------------------------------

def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)...; by convention 0!! = (-1)!! = 1."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def cycle_genfunc_permutations(d: int, k: int) -> int:
    """sum over S_d of k^(cycle count), by brute-force enumeration.

    Equals the rising factorial k(k+1)...(k+d-1), which the tests assert.
    """
    return sum(k ** p.cycle_count() for p in enumerate_permutations(d))


def cycle_genfunc_matchings(d: int, k: int) -> int:
    """sum over matchings of k^(closure loop count); equals k(k+2)...(k+2d-2)."""
    return sum(k ** m.closure_loop_count() for m in enumerate_matchings(d))


def permutation_entry(values: Sequence[int]) -> int:
    """Permutation diagrams whose wiring the index values satisfy, in closed form.

    values holds the d upper indices, then the d lower ones. A satisfied
    diagram maps every lower index to an upper one of equal value, so there
    are prod_a c_a! of them when both halves carry the same multiset of values
    (c_a copies of value a), and none otherwise.
    """
    d = len(values) // 2
    uppers = Counter(values[:d])
    if uppers != Counter(values[d:]):
        return 0
    return prod(factorial(c) for c in uppers.values())


def matching_entry(values: Sequence[int]) -> int:
    """Matching diagrams whose wiring the 2d index values satisfy, in closed form.

    A satisfied diagram pairs equal values only, so there are
    prod_a (c_a - 1)!! of them when every value occurs an even number c_a of
    times, and none otherwise.
    """
    counts = Counter(values).values()
    if any(c % 2 for c in counts):
        return 0
    return prod(double_factorial(c - 1) for c in counts)


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
    Vertices are tallied by d_v, so each distinct scaling is computed and
    raised to its multiplicity once.
    """
    if isinstance(g, DirectedMultigraph):
        powers = Counter(g.in_degrees())
    else:
        powers = Counter(d // 2 for d in g.degrees())
    return prod((xd_scaling(d, k, ensemble) ** count for d, count in powers.items()),
                start=Fraction(1))


# ---------------------------------------------------------------------------
# The contraction oracle: a frontier contraction along a vertex order
# ---------------------------------------------------------------------------

def ensure_ensemble_matches(g: Multigraph, ensemble: Ensemble) -> None:
    """Directed graphs pair with complex ensembles, undirected with real ones."""
    if isinstance(g, DirectedMultigraph) and not ensemble.is_complex:
        raise ValueError("directed graphs pair with complex ensembles")
    if isinstance(g, UndirectedMultigraph) and not ensemble.is_real:
        raise ValueError("undirected graphs pair with real ensembles")


def _absorption_order(g: Multigraph, incident: list[list[int]]) -> list[tuple[int, tuple[int, ...], ...]]:
    """(v, edges v closes, edges v opens, loops at v) along graphs.max_adjacency_order.

    At vertex v, the open edges (one end absorbed) close; its other edges are
    new: those to later vertices open, and its loops close at once. Each tuple
    lists distinct edges in the order of first appearance in incident[v].
    Vertices without half-edges are left out: their entry is the empty
    contraction, a factor of 1.
    """
    is_open = bytearray(g.edge_count)
    order = []
    for v in max_adjacency_order(g.edges):
        closed, opened, loops = [], [], []
        for e in dict.fromkeys(incident[v]):
            a, b = g.edges[e]
            if is_open[e]:
                closed.append(e)
            elif a == b:
                loops.append(e)
            else:
                is_open[e] = 1
                opened.append(e)
        order.append((v, tuple(closed), tuple(opened), tuple(loops)))
    return order


def _picker(positions: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The function mapping a tuple to the tuple of its items at `positions`."""
    if len(positions) == 1:
        i = positions[0]
        return lambda src: (src[i],)
    return itemgetter(*positions) if positions else lambda src: ()


def contract_q_exact(g: Multigraph, k: int, ensemble: Ensemble, guard: int | None = None) -> Fraction:
    """q(G;k) by contracting the per-vertex expected tensors along a vertex order.

    Each vertex contributes the entry of its expected tensor at the indices
    of its half-edges: the heads of its incoming edges are the upper indices
    and the tails of its outgoing edges the lower ones (file order), or all
    incident half-edges in the undirected case. An entry is scaling * (number
    of diagrams whose wiring the index values satisfy); that number has a
    closed form (permutation_entry, matching_entry), memoized on the value
    tuple.

    Vertices are absorbed one at a time in maximum-adjacency order
    (_absorption_order). A sparse table maps the index values of the open
    edges, those with one end absorbed, to an exact integer count. Absorbing
    v enumerates only the values of its new edges, multiplies by v's entry
    and drops the edges v closes from the key. The one count left at the end
    is scaled once by vertex_scaling. The cost is exponential in the number
    of open edges (the cut width of the order), not in m. The guard bounds the
    planned work, the sum over vertices of k^(open edges before v + new edges
    at v), and refuses before any table is built. The contraction never
    touches circuit-partition reasoning, so it is an independent check.
    """
    guard = DEFAULT_CONTRACTION_GUARD if guard is None else guard
    if k < 1:
        raise ValueError("k must be >= 1")
    ensure_ensemble_matches(g, ensemble)
    require_eulerian(g)
    if isinstance(g, DirectedMultigraph):
        ins, outs = g.slots()
        incident, entry = [i + o for i, o in zip(ins, outs)], permutation_entry
    else:
        incident, entry = [[h >> 1 for h in halves] for halves in g.half_edges()], matching_entry

    order = _absorption_order(g, incident)
    vertices_at = [0] * (g.edge_count + 1)  # vertices by open edges before v + new edges at v
    width = 0
    for _, closed, opened, loops in order:
        vertices_at[width + len(opened) + len(loops)] += 1
        width += len(opened) - len(closed)
    work = 0
    for count in reversed(vertices_at):  # sum of count * k^exponent by Horner's rule
        work = work * k + count
    if work > guard:
        raise GuardExceededError("contraction oracle refused (planned work: sum over vertices "
                                 "of k^(open edges + new edges))", work, guard)

    frontier: list[int] = []  # the open edges, in key order
    table = {(): 1}
    memo: dict[tuple[int, ...], int] = {}
    for v, closed, opened, loops in order:
        # A key extended by the values of v's new edges is the source tuple;
        # v's entry and the next key are read off it by position.
        where = {e: i for i, e in enumerate(frontier + list(opened + loops))}
        frontier = [e for e in frontier if e not in closed] + list(opened)
        values_of, key_of = _picker([where[e] for e in incident[v]]), _picker([where[e] for e in frontier])
        assignments = list(itertools.product(range(k), repeat=len(opened) + len(loops)))
        following: dict[tuple[int, ...], int] = {}
        for key, count in table.items():
            for assign in assignments:
                src = key + assign
                values = values_of(src)
                c = memo.get(values)
                if c is None:
                    c = memo[values] = entry(values)
                if c:
                    nxt = key_of(src)
                    following[nxt] = following.get(nxt, 0) + count * c
        table = following
    return table.get((), 0) * vertex_scaling(g, k, ensemble)
