"""Circuit partition polynomials of Eulerian multigraphs, the inner-product
moments q(G;k) they predict for four random-vector ensembles, and independent
verification by Monte Carlo, exact tensor contraction along a vertex order,
and the Martin identity on planar medial graphs.

Importing the package loads none of its modules. Each exported name and
each submodule is resolved on first attribute access (PEP 562), so
`circuitkit.planar` or `from circuitkit import estimate_q` imports the
module it needs, and a command of the `circuitkit` front-end loads only
the modules its handler runs.
"""

from importlib import import_module

# The exported names, by the module that defines them.
_EXPORTS = {
    "checks": (
        "circuit_count",
        "cycle_genfunc_matchings",
        "cycle_genfunc_permutations",
        "enumerate_matchings",
        "enumerate_permutations",
        "enumerate_transition_systems",
        "product_of_inner_products",
        "subset_expansion_terms",
        "subset_to_partition_circuits",
    ),
    "diagrams": (
        "contract_q_exact",
        "xd_scaling",
    ),
    "errors": (
        "EmbeddingError",
        "GraphFormatError",
        "GuardExceededError",
        "NotEulerianError",
    ),
    "graphs": (
        "DirectedMultigraph",
        "Ensemble",
        "EulerianReport",
        "Multigraph",
        "UndirectedMultigraph",
        "component_count",
        "eulerian_check",
        "parse_graph",
        "serialize_graph",
    ),
    "partition": (
        "IntPolynomial",
        "circuit_partition_polynomial",
        "transition_system_count",
    ),
    "planar": (
        "MartinCheck",
        "PlanarMap",
        "faces",
        "martin_check",
        "medial_graph",
        "parse_planar_map",
        "serialize_planar_map",
        "tutte_subset_expansion",
    ),
    "sampling": (
        "MCEstimate",
        "estimate_q",
        "norm_moment",
        "predicted_q",
        "sample_vector",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", *_EXPORTS)

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
