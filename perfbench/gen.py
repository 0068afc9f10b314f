"""Seeded graph families and their circuitkit file text.

Every generator returns plain data: a vertex count and an ordered edge list,
plus a rotation system for planar maps. `scramble` and `scramble_map` apply
the per-op randomisation (vertex relabelling, edge order, edge orientation
for undirected edges) that leaves every invariant the benchmark checks
unchanged. None of this imports circuitkit.
"""

from __future__ import annotations

import random


def directed_circulant(n: int, d: int) -> tuple[int, list[tuple[int, int]]]:
    """circ(n, d): u -> u+s mod n for s = 1..d; every in- and out-degree is d."""
    return n, [(u, (u + s) % n) for u in range(n) for s in range(1, d + 1)]


def undirected_circulant(n: int, steps: tuple[int, ...] = (1, 2)) -> tuple[int, list[tuple[int, int]]]:
    """C_n(steps): u -- u+s mod n for every s in steps; 4-regular for (1, 2)."""
    return n, [(u, (u + s) % n) for u in range(n) for s in steps]


def cycle_with_loops(m: int, loop_vertices: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """The m-cycle 0 -> 1 -> ... -> m-1 -> 0 plus one self-loop at each listed vertex."""
    return m, [(u, (u + 1) % m) for u in range(m)] + [(v, v) for v in loop_vertices]


def directed_path(m: int) -> tuple[int, list[tuple[int, int]]]:
    """m edges 0 -> 1 -> ... -> m; not Eulerian, so q is exactly 0."""
    return m + 1, [(u, u + 1) for u in range(m)]


def thick_digon(d: int) -> tuple[int, list[tuple[int, int]]]:
    """Two vertices joined by d parallel edges each way."""
    return 2, [(0, 1)] * d + [(1, 0)] * d


def fig1() -> tuple[int, list[tuple[int, int]]]:
    """The README's four-vertex example (j = z + z^2)."""
    return 4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]


def grid_map(rows: int, cols: int) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """The rows x cols grid with its straight-line plane embedding.

    Edge i owns darts 2i (at edges[i][0]) and 2i+1 (at edges[i][1]); each
    rotation lists a vertex's darts counterclockwise: east, north, west, south,
    with row numbers growing southwards.
    """
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    dart_at = {}  # (vertex, neighbour) -> dart id
    for i, (u, v) in enumerate(edges):
        dart_at[u, v] = 2 * i
        dart_at[v, u] = 2 * i + 1
    rotation = []
    for r in range(rows):
        for c in range(cols):
            around = [(r, c + 1), (r - 1, c), (r, c - 1), (r + 1, c)]
            rotation.append([dart_at[vid(r, c), vid(*p)] for p in around
                             if 0 <= p[0] < rows and 0 <= p[1] < cols])
    return rows * cols, edges, rotation


def scramble(rng: random.Random, n: int, edges: list[tuple[int, int]],
             undirected: bool) -> list[tuple[int, int]]:
    """Relabel vertices and shuffle edge order; flip undirected edges at random."""
    label = list(range(n))
    rng.shuffle(label)
    out = [(label[u], label[v]) for u, v in edges]
    if undirected:
        out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in out]
    rng.shuffle(out)
    return out


def scramble_map(rng: random.Random, n: int, edges: list[tuple[int, int]],
                 rotation: list[list[int]]) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Relabel vertices, permute and flip edges, and renumber darts to match.

    Vertex v's rotation moves to its new label and is started at a random
    dart; its cyclic order is untouched, so the faces are the same.
    """
    label = list(range(n))
    rng.shuffle(label)
    order = list(range(len(edges)))
    rng.shuffle(order)  # new edge j is old edge order[j]
    new_dart = {}
    new_edges = []
    for j, i in enumerate(order):
        u, v = edges[i]
        if rng.random() < 0.5:
            new_edges.append((label[v], label[u]))
            new_dart[2 * i], new_dart[2 * i + 1] = 2 * j + 1, 2 * j
        else:
            new_edges.append((label[u], label[v]))
            new_dart[2 * i], new_dart[2 * i + 1] = 2 * j, 2 * j + 1
    new_rotation: list[list[int]] = [[] for _ in range(n)]
    for v, rot in enumerate(rotation):
        start = rng.randrange(len(rot)) if rot else 0
        new_rotation[label[v]] = [new_dart[d] for d in rot[start:] + rot[:start]]
    return new_edges, new_rotation


def graph_text(kind: str, n: int, edges: list[tuple[int, int]],
               rotation: list[list[int]] | None = None) -> str:
    lines = [kind, f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    if rotation is not None:
        lines.extend(" ".join(map(str, rot)) for rot in rotation)
    return "\n".join(lines) + "\n"
