"""Exact reference values that share no code with circuitkit.

circuitkit computes j(G;z) by enumerating every transition system. The
references here use other routes:

- `j_poly`: the splitting recursion (pair one incoming edge, or half-edge,
  at a vertex with each possible continuation and splice the pair), memoized
  on the sorted edge multiset;
- `best_r1`: r_1 of a directed Eulerian graph from the BEST theorem, with the
  arborescence count as an exact Fraction determinant;
- closed forms for the cycle, cycle-with-loops and thick-digon families;
- `tutte`: the Tutte polynomial value by deletion-contraction, which checks
  the Martin identity independently of the subset expansion.

Polynomials are coefficient lists [r_0, r_1, ...] with no trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

Edges = list[tuple[int, int]]


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _add_into(acc: list[int], p: list[int], shift: int = 0) -> None:
    if len(acc) < len(p) + shift:
        acc.extend([0] * (len(p) + shift - len(acc)))
    for i, c in enumerate(p):
        acc[i + shift] += c


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_eval(p: list[int], z) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * z + c
    return acc


def j_poly(edges: Edges, directed: bool) -> list[int]:
    """j(G;z) by the splitting recursion; for graphs of a few dozen edges."""
    memo: dict[tuple, list[int]] = {}
    split = _split_directed if directed else _split_undirected

    def rec(key: tuple) -> list[int]:
        if not key:
            return [1]
        hit = memo.get(key)
        if hit is None:
            hit = [0]
            for closed, rest in split(key):
                _add_into(hit, rec(rest), shift=int(closed))
            memo[key] = hit = _trim(hit)
        return hit

    norm = (lambda e: e) if directed else (lambda e: (min(e), max(e)))
    return list(rec(tuple(sorted(norm(e) for e in edges))))


def _split_directed(key: tuple):
    """Pair the first edge a -> v with each out-edge v -> b of v.

    Yields (closed a circuit, remaining sorted edges). A loop paired with
    itself closes a circuit; any other pair is spliced into a -> b.
    """
    first = key[0]
    a, v = first
    rest = list(key[1:])
    if a == v:
        yield True, tuple(rest)  # the loop continues into itself
    for i, (tail, b) in enumerate(rest):
        if tail == v:
            yield False, tuple(sorted(rest[:i] + rest[i + 1:] + [(a, b)]))


def _split_undirected(key: tuple):
    """Pair one half-edge at v = key[0][0] with each other half-edge at v."""
    first = key[0]
    v, a = first  # the chosen half-edge sits at v; its far end is a
    rest = list(key[1:])
    if a == v:
        yield True, tuple(rest)  # the loop's two halves paired together
    for i, (x, y) in enumerate(rest):
        others = rest[:i] + rest[i + 1:]
        for here, far in ((x, y), (y, x)) if x != y else ((x, y), (x, y)):
            if here == v:
                yield False, tuple(sorted(others + [(min(a, far), max(a, far))]))


def system_count(n: int, edges: Edges, directed: bool) -> int:
    """Transition systems: prod d_v! (directed) or prod (deg - 1)!! (undirected)."""
    deg = [0] * n
    for u, v in edges:
        deg[v] += 1
        if not directed:
            deg[u] += 1
    if directed:
        return prod(factorial(d) for d in deg)
    return prod(prod(range(d - 1, 0, -2)) for d in deg)


def best_r1(n: int, edges: Edges) -> int:
    """Single-circuit partitions of a connected directed Eulerian graph:
    t_w(G) * prod_v (d_v - 1)! (BEST theorem), loops ignored in the Laplacian."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        if u != v:
            lap[u][u] += 1
            lap[u][v] -= 1
    minor = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if minor[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            minor[col], minor[pivot] = minor[pivot], minor[col]
            det = -det
        det *= minor[col][col]
        for r in range(col + 1, size):
            factor = minor[r][col] / minor[col][col]
            if factor:
                for c in range(col, size):
                    minor[r][c] -= factor * minor[col][c]
    return int(det) * prod(factorial(d - 1) for d in deg)


# Closed forms -------------------------------------------------------------

def j_cycle_loops_directed(t: int) -> list[int]:
    """Directed cycle with t loops at distinct vertices: z (1 + z)^t."""
    return [0] + [comb(t, i) for i in range(t + 1)]


def j_cycle_loops_undirected(t: int) -> list[int]:
    """Undirected cycle with t loops at distinct vertices: z (z + 2)^t."""
    return [0] + [comb(t, i) * 2 ** (t - i) for i in range(t + 1)]


def j_thick_digon(d: int) -> list[int]:
    """d parallel edges each way: d! z (z+1) ... (z+d-1)."""
    p = [factorial(d)]
    for i in range(d):
        p = poly_mul(p, [i, 1])
    return p


def q_thick_digon(d: int, k: int) -> Fraction:
    """q at complex-sphere k: d! (k-1)! / (k+d-1)!."""
    return Fraction(factorial(d) * factorial(k - 1), factorial(k + d - 1))


def vertex_scaling(d: int, k: int, ensemble: str) -> Fraction:
    """The README's per-vertex scaling for a vertex of in-degree (or half-degree) d."""
    if ensemble == "complex-sphere":
        return Fraction(factorial(k - 1), factorial(k + d - 1))
    if ensemble == "real-sphere":
        return Fraction(1, prod(k + 2 * i for i in range(d)))
    return Fraction(1, k**d)  # both Gaussian ensembles


def q_value(n: int, edges: Edges, directed: bool, j: list[int], k: int, ensemble: str) -> Fraction:
    """q(G;k) = prod_v scaling(d_v) * j(G;k); exactly 0 off the Eulerian case."""
    ins, outs = [0] * n, [0] * n
    for u, v in edges:
        outs[u] += 1
        ins[v] += 1
    if directed:
        if ins != outs:
            return Fraction(0)
        halves = ins
    else:
        degs = [a + b for a, b in zip(ins, outs)]
        if any(d % 2 for d in degs):
            return Fraction(0)
        halves = [d // 2 for d in degs]
    scale = prod((vertex_scaling(d, k, ensemble) for d in halves), start=Fraction(1))
    return scale * poly_eval(j, k)


# Tutte polynomial ----------------------------------------------------------

def tutte(n: int, edges: Edges, x, y) -> Fraction:
    """T(G;x,y) by deletion-contraction; for graphs of a dozen or so edges."""
    x, y = Fraction(x), Fraction(y)

    def connected_without(es: Edges, i: int) -> bool:
        u, v = es[i]
        adj: dict[int, list[int]] = {}
        for j, (a, b) in enumerate(es):
            if j != i:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        seen, stack = {u}, [u]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return v in seen

    def rec(es: Edges) -> Fraction:
        if not es:
            return Fraction(1)
        u, v = es[-1]
        rest = es[:-1]
        if u == v:
            return y * rec(rest)
        contracted = [(u if a == v else a, u if b == v else b) for a, b in rest]
        if not connected_without(es, len(es) - 1):
            return x * rec(contracted)
        return rec(rest) + rec(contracted)

    return rec(list(edges))


def components(n: int, edges: Edges) -> int:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})
