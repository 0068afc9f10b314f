"""The graph-file parser as it stood before the edge block was parsed in
bulk, kept verbatim as the oracle of tests/test_parser_differential.py.

It shares the graph types and check_rotation with the package, and no
parsing code: what it returns, or the GraphFormatError it raises (message
and line), is what the package's parser must reproduce on every input.
"""

from __future__ import annotations

from typing import Iterator

from circuitkit.errors import GraphFormatError
from circuitkit.graphs import DirectedMultigraph, Multigraph, UndirectedMultigraph, check_rotation


_KINDS = ("directed", "undirected", "planar")


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped content) of every line that is not a '#' comment."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped.startswith("#"):
            yield lineno, stripped


def parse_graph_file(text: str) -> tuple[str, Multigraph, tuple[tuple[int, ...], ...] | None]:
    """Parse any of the three file kinds.

    Returns (kind, graph, rotations); rotations is None unless kind == "planar".
    The planar rotations are validated structurally here by check_rotation
    (every dart appears exactly once, at the vertex owning it); whether they
    describe a plane embedding is the planar module's Euler check.
    """
    lines = _content_lines(text)
    last_line = text.count("\n") + 1

    def next_content_line(allow_blank: bool = False) -> tuple[int, str] | None:
        for lineno, content in lines:
            if content or allow_blank:
                return lineno, content
        return None

    header = next_content_line()
    if header is None:
        raise GraphFormatError("empty file: expected a header line", 1)
    lineno, kind = header
    if kind not in _KINDS:
        raise GraphFormatError(f"unknown graph kind {kind!r} (expected one of {', '.join(_KINDS)})", lineno)

    counts = next_content_line()
    if counts is None:
        raise GraphFormatError("missing '<n> <m>' line", last_line)
    lineno, content = counts
    fields = content.split()
    if len(fields) != 2:
        raise GraphFormatError(f"expected '<n> <m>', got {content!r}", lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"expected two integers, got {content!r}", lineno) from None
    if n < 0 or m < 0:
        raise GraphFormatError("vertex and edge counts must be nonnegative", lineno)

    edges: list[tuple[int, int]] = []
    for i in range(m):
        entry = next_content_line()
        if entry is None:
            raise GraphFormatError(f"expected {m} edges, found only {i}", last_line)
        lineno, content = entry
        fields = content.split()
        if len(fields) != 2:
            raise GraphFormatError(f"expected '<u> <v>', got {content!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"expected two integers, got {content!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex index out of range [0, {n}) in edge ({u}, {v})", lineno)
        edges.append((u, v))

    graph = (DirectedMultigraph if kind == "directed" else UndirectedMultigraph)(n, tuple(edges))
    rotations = _parse_rotations(graph, next_content_line, last_line) if kind == "planar" else None

    trailing = next_content_line()
    if trailing is not None:
        raise GraphFormatError(
            f"unexpected extra content {trailing[1]!r} (wrong edge count in header?)", trailing[0]
        )
    return kind, graph, rotations


def _parse_rotations(g: UndirectedMultigraph, next_content_line, last_line: int) -> tuple[tuple[int, ...], ...]:
    rotations: list[tuple[int, ...]] = []
    for v, degree in enumerate(g.degrees()):
        # Degree-0 vertices may omit their (empty) rotation line at EOF;
        # otherwise a blank line stands for the empty rotation.
        entry = next_content_line(allow_blank=True)
        if entry is None:
            if not degree:
                rotations.append(())
                continue
            raise GraphFormatError(f"missing rotation line for vertex {v}", last_line)
        lineno, content = entry
        try:
            darts = tuple(int(f) for f in content.split())
        except ValueError:
            raise GraphFormatError(f"rotation for vertex {v} is not a list of ints: {content!r}", lineno) from None
        check_rotation(g, v, darts, degree, lineno)
        rotations.append(darts)
    return tuple(rotations)
