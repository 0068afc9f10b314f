"""Diagram counts in closed form, tensor scalings, and the tensor-contraction oracle.

A size-d permutation diagram wires each of d upper tensor indices to a lower
one; a size-d matching diagram matches the 2d index endpoints (0..d-1 upper,
d..2d-1 lower), so it may also pair two upper or two lower indices with a
cup or cap. The expected tensor of an ensemble is a scaling (xd_scaling)
times the sum over its family, and its entry at given index values counts
the diagrams those values satisfy: permutation_entry and matching_entry give
that count in closed form. The diagrams themselves, and their cycle-count
generating functions, are listed only by the oracles in checks.

The moment oracle contract_q_exact contracts the per-vertex expected
tensors, one index in [0, k) per edge, absorbing vertices one at a time along
graphs.sweep_plan, the order the j engine splits in (after Markov and Shi,
SIAM J. Comput. 38, 2008), so its cost is exponential in the cut width of
that order rather than in the edge count. It never touches circuit-partition
reasoning, which is exactly what makes it an independent check of the
partition-based predictions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Sequence

from .errors import DEFAULT_CONTRACTION_GUARD, GuardExceededError
from .graphs import DirectedMultigraph, Ensemble, Multigraph, double_factorial, require_eulerian, sweep_plan


# ---------------------------------------------------------------------------
# Satisfied-diagram counts and scalings
# ---------------------------------------------------------------------------

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

    d_v = g.degrees()[v] // 2, half the vertex's half-edges: on an Eulerian
    graph, the in-degree of a directed vertex and half the degree of an
    undirected one, the tensor power of x_v that its edges contract.
    Vertices with half-edges are tallied by count, so each distinct scaling
    is computed and raised to its multiplicity once; isolated ones scale by 1
    and are never visited (g.degree_counts()), so the cost follows m, not n.
    """
    tally = Counter(g.degree_counts().values())
    return prod((xd_scaling(h // 2, k, ensemble) ** count for h, count in tally.items()), start=Fraction(1))


# ---------------------------------------------------------------------------
# The contraction oracle: a frontier contraction along a vertex order
# ---------------------------------------------------------------------------

def ensure_ensemble_matches(g: Multigraph, ensemble: Ensemble) -> None:
    """Directed graphs pair with complex ensembles, undirected with real ones."""
    directed = isinstance(g, DirectedMultigraph)
    if directed != ensemble.is_complex:
        raise ValueError("directed graphs pair with complex ensembles" if directed
                         else "undirected graphs pair with real ensembles")


def _picker(positions: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The function mapping a tuple to the tuple of its items at `positions`."""
    if len(positions) == 1:
        i = positions[0]
        return lambda src: (src[i],)
    return itemgetter(*positions) if positions else lambda src: ()


def contract_q_exact(g: Multigraph, k: int, ensemble: Ensemble,
                     guard: int = DEFAULT_CONTRACTION_GUARD) -> Fraction:
    """q(G;k) by contracting the per-vertex expected tensors along a vertex order.

    Each vertex contributes the entry of its expected tensor at the indices
    of its half-edges, read in slot order off g.half_edges(): a directed
    vertex's heads are the upper indices and its tails the lower ones. An
    entry is scaling * (number of diagrams whose wiring the index values
    satisfy); that number has a closed form (permutation_entry,
    matching_entry), memoized on the value tuple.

    Vertices are absorbed one at a time along graphs.sweep_plan. A sparse
    table maps the index values of the open edges, those with one end
    absorbed, to an exact integer count. Absorbing v enumerates only the
    values of its new edges, those it opens and its loops, multiplies by v's
    entry and drops the edges v closes from the key. The one count left at
    the end is scaled once by vertex_scaling. The cost is exponential in the
    number of open edges (the cut width of the order), not in m. The guard
    bounds the planned work, the sum over vertices of k^(open edges before v
    + new edges at v), which is k^(open edges after v + edges v closes, its
    loops among them), and refuses before any table is built. The
    contraction never touches circuit-partition reasoning, so it is an
    independent check.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ensure_ensemble_matches(g, ensemble)
    require_eulerian(g)
    slots = g.half_edges()
    entry = permutation_entry if isinstance(g, DirectedMultigraph) else matching_entry
    plan = sweep_plan(g.edges)
    work = width = 0  # width: the open edges after step i
    for i, (closes, opens) in enumerate(zip(plan.closes, plan.opens)):
        width += len(opens) - sum(a < i for _, a in closes)
        work += k ** (width + len(closes))
    if work > guard:
        raise GuardExceededError("contraction oracle refused (planned work: sum over vertices "
                                 "of k^(open edges + new edges))", work, guard)

    frontier: list[int] = []  # the open edges, in key order
    table = {(): 1}
    memo: dict[tuple[int, ...], int] = {}
    for i, (v, closes, opens) in enumerate(zip(*plan)):
        # A key extended by the values of v's new edges, those it opens and
        # its loops, is the source tuple; v's entry and the next key are read
        # off it by position.
        opened = [e for e, _ in opens]
        new = opened + [e for e, a in closes if a == i]
        closed = {e for e, _ in closes}
        where = {e: j for j, e in enumerate(frontier + new)}
        frontier = [e for e in frontier if e not in closed] + opened
        values_of, key_of = _picker([where[h >> 1] for h in slots[v]]), _picker([where[e] for e in frontier])
        assignments = list(itertools.product(range(k), repeat=len(new)))
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
