"""The graph-file parser against its verbatim earlier self (parser_oracle.py).

The package parser reads the edge block in bulk and walks its lines only to
name a fault. On every generated file it must return what the line-by-line
oracle returns, or raise a GraphFormatError with the same message and line.
The files mix in what the format allows and what it refuses: comment and
blank lines anywhere, "\\r\\n" endings, tabs and other whitespace, 1- and
3-field lines, non-integers, "+1" and "1_0", out-of-range ends, short and
extra edge blocks, and planar rotations with blank (empty) lines.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from circuitkit.errors import GraphFormatError
from circuitkit.graphs import parse_graph_file

import parser_oracle

# str.split() and str.strip() treat all of these as whitespace; none ends a line.
SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"]
NOISE = ["", " ", "\t", "\r", "#", "# a comment", "  # indented comment", "#1 2", "\x0c"]
# Spellings that int() reads as each vertex id of an n-vertex graph.
VALID = [[s for v in range(n) for s in [str(v)] * 4 + [f"+{v}", f"0_{v}", f"0{v}"]] + ["-0"] * (n > 0)
         for n in range(6)]
BAD_TOKENS = ["a", "1.0", "0x1", "#3", "-", "1-", "--1", "١", "+", "_1", "1__0"]


def outcome(parse, text: str) -> tuple:
    try:
        kind, graph, rotations = parse(text)
    except GraphFormatError as exc:
        return ("error", str(exc), exc.line)
    assert type(graph.edges) is tuple and all(type(e) is tuple for e in graph.edges)
    assert all(type(x) is int for e in graph.edges for x in e)
    return ("ok", kind, type(graph), graph.vertex_count, graph.edges, rotations)


# Strategies are built once: hypothesis validates each new one it meets.
SEPARATOR, NARROW_SEPARATOR = st.sampled_from(SPACES), st.sampled_from(SPACES[:4])
PAD = st.sampled_from(["", "", " ", "\t", "\r"])
NOISE_LINES = st.lists(st.sampled_from(NOISE), max_size=2)
FAULTY_TRAILING = st.lists(st.sampled_from(NOISE + ["0 1", "extra"]), max_size=2)
VALID_TOKENS = [st.sampled_from(spellings) if spellings else st.nothing() for spellings in VALID]
BAD = st.sampled_from(BAD_TOKENS)
KINDS = st.sampled_from(["directed", "undirected", "planar"] * 6 + ["digraph"])
WIDTH = st.sampled_from([2] * 12 + [1, 3])
# At most one kind of fault per file, so that each kind is met often.
FAULTS = st.sampled_from([None] * 8 + ["counts", "token", "width", "short", "long", "rotation", "trailing"])
ENDING = st.sampled_from(["\n", "\r\n"])
DIGITS, SMALL, TENTHS, FIFTHS = st.integers(0, 5), st.integers(0, 7), st.integers(0, 9), st.integers(0, 4)


def token(draw, n: int, faulty: bool) -> str:
    """An endpoint as text: a valid id, spelled plainly, signed ("+1"),
    underscored ("0_1") or zero-padded; if faulty, now and then an
    out-of-range or non-integer one."""
    which = draw(TENTHS) if faulty or not n else 0
    if which < 7 and n:
        return draw(VALID_TOKENS[n])
    if which < 9:
        return str((n, n + 1, -1, -n - 1, 10 ** 20)[draw(FIFTHS)])
    return draw(BAD)


def lines_for(draw, fields: list[str]) -> list[str]:
    """A line of the fields joined by whitespace runs, with optional
    whitespace around it, and now and then comment or blank lines before it."""
    text = "".join(draw(NARROW_SEPARATOR if i % 2 else SEPARATOR) + f for i, f in enumerate(fields))
    line = draw(PAD) + text + draw(PAD)
    return draw(NOISE_LINES) + [line] if draw(TENTHS) < 2 else [line]


@st.composite
def graph_files(draw) -> str:
    fault = draw(FAULTS)
    kind = draw(KINDS)
    n, m = draw(DIGITS), draw(SMALL)
    m = m if n or fault == "token" else 0  # an edge needs a vertex
    lines = lines_for(draw, [kind])
    counts = [str(n), str(m)]
    if fault == "counts":
        counts = ([f"+{n}", f"{m}"], [str(n)], [str(n), str(m), "0"], [str(n), "x"], ["-1", str(m)])[draw(TENTHS) % 5]
    lines += lines_for(draw, counts)
    edges = []
    for _ in range(m - (fault == "short") + (fault == "long")):
        fields = [token(draw, n, fault == "token") for _ in range(draw(WIDTH) if fault == "width" else 2)]
        lines += lines_for(draw, fields)
        if len(fields) == 2 and all(f in VALID[n] for f in fields):
            edges.append((int(fields[0]), int(fields[1])))
    if kind == "planar":
        at: list[list[int]] = [[] for _ in range(n)]
        for e, ends in enumerate(edges):
            for side, v in enumerate(ends):
                at[v].append(2 * e + side)
        for darts in at[:draw(st.integers(0, n))]:
            rotation = draw(st.permutations(darts))
            if fault == "rotation" and draw(TENTHS) < 3:
                rotation = rotation[1:] + [draw(st.integers(-1, 2 * len(edges)))] * (draw(TENTHS) < 5)
            lines += lines_for(draw, [str(d) for d in rotation])
    lines += draw(FAULTY_TRAILING if fault == "trailing" else NOISE_LINES)
    text = "".join(line + draw(ENDING) for line in lines)
    return text if draw(TENTHS) < 5 else text[:-1]


@settings(max_examples=2000, deadline=None)
@given(graph_files())
@example("directed\n3 3\n0 1\n1 2\n2 0\n")
@example("directed\n3 3\n0 1\n\n# c\n1 2\n2 0\n")
@example("undirected\r\n2 1\r\n0\t1\r\n")
def test_the_bulk_parser_matches_the_line_by_line_oracle(text):
    assert outcome(parse_graph_file, text) == outcome(parser_oracle.parse_graph_file, text)


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n\n",
    "directed\n",
    "directed\n2 2\n0 1\n",  # short block at end of file
    "directed\n2 2\n0 1\n#\n",  # short block, comment last
    "directed\n2 2\n0 9\n",  # the bad line comes before the short block is noticed
    "directed\n2 1\n0 2\n",  # an end equal to n
    "directed\n2 2\n0 1\n1\n",  # one field
    "directed\n2 2\n0 1\n1 0 1\n",  # three fields
    "directed\n2 2\n0 1\n1 #0\n",  # '#' inside a line is no comment
    "directed\n2 2\n+0 1_0\n1 0\n",  # 1_0 = 10 is out of range
    "directed\n11 2\n+0 1_0\n1 0\n",
    "directed\n2 1\n0 1\n1 0\n",  # extra content
    "directed\n2 1\n0 1\n\n\n# trailing\n",
    "undirected\n3 2\n0 1\n\n1 2\n",
    "planar\n2 1\n0 1\n0\n1\n",
    "planar\n3 1\n0 1\n0\n1\n",  # the last vertex has no darts and omits its line
    "planar\n3 1\n0 1\n\n1\n",  # a blank rotation line for a vertex with a dart
    "planar\n3 1\n0 1\n0\n1\n\n",
    "planar\n2 1\n0 1\n0 x\n1\n",
    "directed\n1 1\n0 0\n" + "\n" * 5,
    "directed\n1 100000000000\n0 0\n",
    "directed\n3000000 0\n",
])
def test_edge_cases_match_the_oracle(text):
    assert outcome(parse_graph_file, text) == outcome(parser_oracle.parse_graph_file, text)
