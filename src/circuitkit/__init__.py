"""Circuit partition polynomials of Eulerian multigraphs, the inner-product
moments q(G;k) they predict for four random-vector ensembles, and independent
verification by Monte Carlo, exact tensor contraction along a vertex order,
and the Martin identity on planar medial graphs."""

from .diagrams import (
    Ensemble,
    contract_q_exact,
    cycle_genfunc_matchings,
    cycle_genfunc_permutations,
    enumerate_matchings,
    enumerate_permutations,
    xd_scaling,
)
from .errors import (
    EmbeddingError,
    GraphFormatError,
    GuardExceededError,
    NotEulerianError,
)
from .graphs import (
    DirectedMultigraph,
    EulerianReport,
    Multigraph,
    UndirectedMultigraph,
    component_count,
    disjoint_union,
    eulerian_check,
    parse_graph,
    serialize_graph,
)
from .partition import (
    IntPolynomial,
    circuit_count,
    circuit_partition_polynomial,
    enumerate_transition_systems,
    transition_system_count,
)
from .planar import (
    MartinCheck,
    PlanarMap,
    faces,
    martin_check,
    medial_graph,
    parse_planar_map,
    serialize_planar_map,
    subset_expansion_terms,
    subset_to_partition_circuits,
    tutte_subset_expansion,
)
from .sampling import (
    MCEstimate,
    estimate_q,
    norm_moment,
    predicted_q,
    product_of_inner_products,
    sample_vector,
    wick_pairing_sum,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedMultigraph",
    "EmbeddingError",
    "Ensemble",
    "EulerianReport",
    "GraphFormatError",
    "GuardExceededError",
    "IntPolynomial",
    "MCEstimate",
    "MartinCheck",
    "Multigraph",
    "NotEulerianError",
    "PlanarMap",
    "UndirectedMultigraph",
    "circuit_count",
    "circuit_partition_polynomial",
    "component_count",
    "contract_q_exact",
    "cycle_genfunc_matchings",
    "cycle_genfunc_permutations",
    "disjoint_union",
    "enumerate_matchings",
    "enumerate_permutations",
    "enumerate_transition_systems",
    "estimate_q",
    "eulerian_check",
    "faces",
    "martin_check",
    "medial_graph",
    "norm_moment",
    "parse_graph",
    "parse_planar_map",
    "predicted_q",
    "product_of_inner_products",
    "sample_vector",
    "serialize_graph",
    "serialize_planar_map",
    "subset_expansion_terms",
    "subset_to_partition_circuits",
    "transition_system_count",
    "tutte_subset_expansion",
    "wick_pairing_sum",
    "xd_scaling",
]
