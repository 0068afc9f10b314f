from __future__ import annotations

from fractions import Fraction

import pytest

from circuitkit import (
    DirectedMultigraph,
    EmbeddingError,
    GuardExceededError,
    IntPolynomial,
    PlanarMap,
    UndirectedMultigraph,
    circuit_partition_polynomial,
    component_count,
    eulerian_check,
    faces,
    martin_check,
    medial_graph,
    parse_planar_map,
    serialize_planar_map,
    subset_expansion_terms,
    subset_to_partition_circuits,
    tutte_subset_expansion,
)
from circuitkit.planar import planar_map_from_json_dict, planar_map_to_json_dict


def all_subsets(m: int):
    for mask in range(2**m):
        yield [i for i in range(m) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Maps and faces
# ---------------------------------------------------------------------------

def test_p2_has_one_face_with_both_darts(corpus_maps):
    orbits = faces(corpus_maps["p2"])
    assert len(orbits) == 1
    assert sorted(orbits[0]) == [0, 1]


def test_triangle_has_two_triangular_faces(corpus_maps):
    orbits = faces(corpus_maps["triangle"])
    assert len(orbits) == 2
    assert sorted(len(o) for o in orbits) == [3, 3]


def test_figure_eight_map_has_three_faces(corpus_maps):
    orbits = faces(corpus_maps["figure_eight"])
    assert len(orbits) == 3  # Euler: 1 - 2 + f = 2


def test_faces_partition_darts(corpus_maps):
    for pmap in corpus_maps.values():
        orbits = faces(pmap)
        flat = sorted(d for orbit in orbits for d in orbit)
        assert flat == list(range(pmap.graph.half_edge_count))


def test_interleaved_figure_eight_is_rejected():
    # One vertex, two loops with rotation a b a b is a torus embedding (f = 1).
    g = UndirectedMultigraph(1, ((0, 0), (0, 0)))
    torus = PlanarMap(g, ((0, 2, 1, 3),))
    with pytest.raises(EmbeddingError):
        faces(torus)


def test_map_validation():
    g = UndirectedMultigraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        PlanarMap(g, ((0, 1), ()))  # dart 1 lives at vertex 1
    with pytest.raises(ValueError):
        PlanarMap(g, ((0,), ()))  # dart 1 missing


def test_planar_roundtrip(corpus_maps):
    for pmap in corpus_maps.values():
        assert parse_planar_map(serialize_planar_map(pmap)) == pmap
        assert planar_map_from_json_dict(planar_map_to_json_dict(pmap)) == pmap


# ---------------------------------------------------------------------------
# Medial graphs
# ---------------------------------------------------------------------------

def test_p2_medial_is_two_directed_loops(corpus_maps):
    medial = medial_graph(corpus_maps["p2"])
    assert medial == DirectedMultigraph(1, ((0, 0), (0, 0)))


def test_triangle_medial_is_two_directed_triangles(corpus_maps):
    medial = medial_graph(corpus_maps["triangle"])
    assert medial.vertex_count == 3
    assert medial.edge_count == 6
    assert circuit_partition_polynomial(medial).evaluate(1) == 8  # 2^3 wirings
    # Two oriented 3-cycles: each vertex has in = out = 1 within each face.
    orbits = faces(corpus_maps["triangle"])
    for orbit in orbits:
        cycle = [d // 2 for d in orbit]
        assert sorted(cycle) == [0, 1, 2]


def test_figure_eight_medial_size(corpus_maps):
    medial = medial_graph(corpus_maps["figure_eight"])
    assert medial.vertex_count == 2
    assert medial.edge_count == 4


def test_medial_always_eulerian_and_doubled(corpus_maps):
    for pmap in corpus_maps.values():
        medial = medial_graph(pmap)
        assert medial.edge_count == 2 * pmap.graph.edge_count
        assert eulerian_check(medial).is_eulerian
        assert set(medial.in_degrees()) <= {2}
        assert set(medial.out_degrees()) <= {2}


# ---------------------------------------------------------------------------
# Tutte subset expansion
# ---------------------------------------------------------------------------

def test_bridge_evaluates_to_x():
    edge = UndirectedMultigraph(2, ((0, 1),))
    for x, y in [(Fraction(7, 3), Fraction(5, 2)), (Fraction(3), Fraction(3)), (Fraction(0), Fraction(9))]:
        assert tutte_subset_expansion(edge, x, y) == x


def test_loop_evaluates_to_y():
    loop = UndirectedMultigraph(1, ((0, 0),))
    for x, y in [(Fraction(7, 3), Fraction(5, 2)), (Fraction(4), Fraction(1, 3))]:
        assert tutte_subset_expansion(loop, x, y) == y


def test_triangle_tutte_values():
    triangle = UndirectedMultigraph(3, ((0, 1), (1, 2), (2, 0)))
    # T(K3; x, y) = x^2 + x + y, frozen from the 8-subset expansion by hand.
    for x, y in [(3, 3), (2, 2), (1, 1), (Fraction(1, 2), Fraction(5, 3))]:
        x, y = Fraction(x), Fraction(y)
        assert tutte_subset_expansion(triangle, x, y) == x**2 + x + y
    assert tutte_subset_expansion(triangle, 3, 3) == 15


def test_tutte_counts_spanning_objects():
    # T(1,1) counts spanning trees; the square cycle has 4 of them.
    square = UndirectedMultigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    assert tutte_subset_expansion(square, 1, 1) == 4
    assert tutte_subset_expansion(square, 2, 2) == 2**4  # all subsets


def test_tutte_guard():
    big = UndirectedMultigraph(2, ((0, 1),) * 30)
    with pytest.raises(GuardExceededError):
        tutte_subset_expansion(big, 2, 2, guard=2**24)


def test_subset_expansion_terms_invariants(corpus_maps):
    for pmap in corpus_maps.values():
        g = pmap.graph
        c_full = component_count(g)
        terms = list(subset_expansion_terms(g))
        assert len(terms) == 2 ** g.edge_count
        for term in terms:
            assert term.excess >= 0
            assert c_full <= term.components <= g.vertex_count
        assert terms[0].components == g.vertex_count  # S = empty set
        assert terms[-1].components == c_full  # S = all edges


# ---------------------------------------------------------------------------
# Martin identity and the subset bijection
# ---------------------------------------------------------------------------

def test_martin_p2_example(corpus_maps):
    check = martin_check(corpus_maps["p2"], 2)
    assert (check.lhs, check.rhs, check.equal) == (Fraction(6), Fraction(6), True)


def test_martin_triangle_z1(corpus_maps):
    check = martin_check(corpus_maps["triangle"], 1)
    assert check.equal
    assert check.lhs == circuit_partition_polynomial(medial_graph(corpus_maps["triangle"])).coefficient_sum()


def test_martin_at_zero_vanishes(corpus_maps):
    for pmap in corpus_maps.values():
        check = martin_check(pmap, 0)
        assert check.lhs == 0 and check.rhs == 0 and check.equal


def test_martin_identity_corpus(corpus_maps):
    for name, pmap in corpus_maps.items():
        for z in [1, 2, 3, 4, 5, Fraction(7, 2)]:
            check = martin_check(pmap, z)
            assert check.equal, (name, z, check)


def test_subset_circuits_match_component_excess(corpus_maps):
    for name, pmap in corpus_maps.items():
        g = pmap.graph
        for subset in all_subsets(g.edge_count):
            c = component_count(g, subset)
            expected = c + (c + len(subset) - g.vertex_count)
            assert subset_to_partition_circuits(pmap, subset) == expected, (name, subset)


def test_subset_walk_generating_function_equals_medial_polynomial(corpus_maps):
    """The subset -> transition system map is a bijection: summing z^circuits
    over subsets reproduces the medial circuit partition polynomial."""
    for name, pmap in corpus_maps.items():
        medial = medial_graph(pmap)
        poly = circuit_partition_polynomial(medial)
        tally = [0] * (medial.edge_count + 1)
        for subset in all_subsets(pmap.graph.edge_count):
            tally[subset_to_partition_circuits(pmap, subset)] += 1
        assert IntPolynomial(tuple(tally)) == poly, name
        assert sum(tally) == 2 ** pmap.graph.edge_count


def test_mirror_invariance(corpus_maps):
    for pmap in corpus_maps.values():
        mirrored = pmap.mirrored()
        faces(mirrored)  # still a plane embedding
        assert (circuit_partition_polynomial(medial_graph(mirrored))
                == circuit_partition_polynomial(medial_graph(pmap)))


def test_parse_rejects_non_planar_header(tmp_path, capsys):
    from circuitkit import cli
    from circuitkit.errors import GraphFormatError
    with pytest.raises(GraphFormatError):
        parse_planar_map("directed\n1 1\n0 0\n")
    # The error names the header's line, wherever comments put it.
    text = "# a comment\n\ndirected\n1 1\n0 0\n"
    with pytest.raises(GraphFormatError) as excinfo:
        parse_planar_map(text)
    assert excinfo.value.line == 3
    path = tmp_path / "commented.graph"
    path.write_text(text)
    assert cli.main(["medial", str(path)]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: line 3: expected a planar map file, got kind 'directed'\n"


def test_isolated_vertices_break_the_identity_by_a_z_factor():
    """c(G) counts isolated vertices but the medial graph never sees them, so
    each one inflates the right side by a factor of z. martin_check reports
    the two sides as they are instead of papering over the mismatch."""
    triangle = parse_planar_map("planar\n3 3\n0 1\n1 2\n2 0\n0 5\n2 1\n4 3\n")
    padded = parse_planar_map("planar\n4 3\n0 1\n1 2\n2 0\n0 5\n2 1\n4 3\n\n")
    assert medial_graph(padded) == medial_graph(triangle)
    for z in (2, 3):
        base = martin_check(triangle, z)
        assert base.equal
        check = martin_check(padded, z)
        assert not check.equal
        assert check.rhs == z * base.rhs
