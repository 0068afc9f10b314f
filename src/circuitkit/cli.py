"""Command-line front-end.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 guard
exceeded. Rationals cross this boundary as "p/q" strings, never floats, and
JSON payloads carry a "schema": "circuitkit/1" version tag.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import factorial, prod
from pathlib import Path
from typing import Callable

import numpy as np

from . import diagrams, graphs, partition, planar, sampling
from .errors import EmbeddingError, GraphFormatError, GuardExceededError, NotEulerianError

SCHEMA = graphs.JSON_SCHEMA

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_GUARD_EXCEEDED = 3


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    with partition.unlimited_int_digits():
        return f"{value.numerator}/{value.denominator}"


def bundled_corpus_dir() -> Path:
    return Path(str(resources.files("circuitkit").joinpath("corpus")))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _emit(args, text_value: str, json_value: dict) -> None:
    if args.format == "json":
        print(json.dumps(json_value))
    else:
        print(text_value)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_j(args) -> int:
    g = graphs.parse_graph(_read(args.input))
    poly = partition.circuit_partition_polynomial(g, guard=args.guard_enumeration)
    payload = {"schema": SCHEMA, "variant": poly.variant}
    payload.update(poly.to_json_dict())
    _emit(args, poly.to_text(), payload)
    return EXIT_OK


def cmd_q_predict(args) -> int:
    g = graphs.parse_graph(_read(args.input))
    ensemble = diagrams.Ensemble.from_string(args.ensemble)
    value = sampling.predicted_q(g, args.k, ensemble, guard=args.guard_enumeration)
    payload = {"schema": SCHEMA, "value": format_rational(value), "k": args.k,
               "ensemble": ensemble.value}
    if not graphs.eulerian_check(g).is_eulerian:
        payload["note"] = "graph is not Eulerian; q is exactly 0 by phase/sign symmetry"
    _emit(args, format_rational(value), payload)
    return EXIT_OK


def cmd_q_exact(args) -> int:
    g = graphs.parse_graph(_read(args.input))
    ensemble = diagrams.Ensemble.from_string(args.ensemble)
    value = diagrams.contract_q_exact(g, args.k, ensemble, guard=args.guard_contraction)
    payload = {"schema": SCHEMA, "value": format_rational(value), "k": args.k,
               "ensemble": ensemble.value}
    _emit(args, format_rational(value), payload)
    return EXIT_OK


def cmd_q_estimate(args) -> int:
    g = graphs.parse_graph(_read(args.input))
    ensemble = diagrams.Ensemble.from_string(args.ensemble)
    estimate = sampling.estimate_q(g, args.k, ensemble, args.n, args.seed, workers=args.workers)
    payload = {"schema": SCHEMA}
    payload.update(estimate.to_json_dict())
    text = (f"mean = {estimate.mean.real!r} + {estimate.mean.imag!r}i"
            f" +- {estimate.std_error!r} (n={estimate.n_samples}, seed={estimate.seed})")
    _emit(args, text, payload)
    return EXIT_OK


def cmd_medial(args) -> int:
    pmap = planar.parse_planar_map(_read(args.input))
    medial = planar.medial_graph(pmap)
    _emit(args, graphs.serialize_graph(medial).rstrip("\n"), graphs.graph_to_json_dict(medial))
    return EXIT_OK


def cmd_tutte(args) -> int:
    g = graphs.parse_graph(_read(args.input))
    if isinstance(g, graphs.DirectedMultigraph):
        raise GraphFormatError("the subset expansion needs an undirected or planar file")
    x, y = Fraction(args.x), Fraction(args.y)
    value = planar.tutte_subset_expansion(g, x, y, guard=args.guard_subsets)
    payload = {"schema": SCHEMA, "value": format_rational(value),
               "x": format_rational(x), "y": format_rational(y)}
    _emit(args, format_rational(value), payload)
    return EXIT_OK


def cmd_martin(args) -> int:
    pmap = planar.parse_planar_map(_read(args.input))
    z = Fraction(args.z)
    check = planar.martin_check(pmap, z, enumeration_guard=args.guard_enumeration,
                                subset_guard=args.guard_subsets)
    payload = {
        "schema": SCHEMA,
        "z": format_rational(z),
        "lhs": format_rational(check.lhs),
        "rhs": format_rational(check.rhs),
        "equal": check.equal,
    }
    text = f"lhs={format_rational(check.lhs)} rhs={format_rational(check.rhs)} equal={str(check.equal).lower()}"
    _emit(args, text, payload)
    return EXIT_OK if check.equal else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Corpus verification
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(results: list[CheckResult], name: str, fn: Callable[[], str | None]) -> None:
    try:
        detail = fn()
        results.append(CheckResult(name, True, detail or ""))
    except Exception as exc:  # verification must report, not crash
        results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))


def _assert_equal(actual, expected, label: str) -> str:
    if actual != expected:
        raise AssertionError(f"{label}: {actual} != {expected}")
    return f"{label}: {actual}"


def run_verification(corpus_dir: Path, n_mc: int = 50_000, seed: int = 20260810) -> list[CheckResult]:
    """The invariant suite over the bundled (or given) corpus."""
    results: list[CheckResult] = []

    graph_files = sorted(corpus_dir.glob("*.graph"))
    planar_files = sorted(corpus_dir.glob("*.planar"))
    if not graph_files or not planar_files:
        results.append(CheckResult("corpus present", False, f"no corpus at {corpus_dir}"))
        return results
    results.append(CheckResult("corpus present", True,
                               f"{len(graph_files)} graphs, {len(planar_files)} maps"))

    loaded: dict[str, graphs.Multigraph] = {}
    for path in graph_files:
        def parse_roundtrip(path=path):
            text = path.read_text(encoding="utf-8")
            g = graphs.parse_graph(text)
            if graphs.parse_graph(graphs.serialize_graph(g)) != g:
                raise AssertionError("parse(serialize(g)) != g")
            if graphs.graph_from_json(graphs.graph_to_json(g)) != g:
                raise AssertionError("JSON round-trip failed")
            loaded[path.stem] = g
            return f"{g.vertex_count} vertices, {g.edge_count} edges"
        _check(results, f"parse+roundtrip {path.name}", parse_roundtrip)

    maps: dict[str, planar.PlanarMap] = {}
    for path in planar_files:
        def parse_map(path=path):
            pmap = planar.parse_planar_map(path.read_text(encoding="utf-8"))
            reparsed = planar.parse_planar_map(planar.serialize_planar_map(pmap))
            if reparsed != pmap:
                raise AssertionError("parse(serialize(map)) != map")
            maps[path.stem] = pmap
            return f"{len(planar.faces(pmap))} faces"
        _check(results, f"parse+roundtrip {path.name}", parse_map)

    for name, g in loaded.items():
        def engine_vs_enumerator(name=name, g=g):
            tally = partition.circuit_count_tally(g)
            expected = partition.IntPolynomial(tuple(tally.get(t, 0) for t in range(max(tally) + 1)))
            _assert_equal(partition.circuit_partition_polynomial(g), expected, "engine == enumerator")
            return f"{sum(tally.values())} systems"
        _check(results, f"engine vs enumerator {name}", engine_vs_enumerator)

        def counting(name=name, g=g):
            poly = partition.circuit_partition_polynomial(g)
            expected = partition.transition_system_count(g)
            _assert_equal(poly.coefficient_sum(), expected, "sum r_t")
            _assert_equal(poly.evaluate(1), Fraction(expected), "j(1)")
            return f"j = {poly.to_text()}"
        _check(results, f"counting invariants {name}", counting)

    for name, g in loaded.items():
        ensembles = ([diagrams.Ensemble.COMPLEX_SPHERE, diagrams.Ensemble.COMPLEX_GAUSSIAN]
                     if isinstance(g, graphs.DirectedMultigraph)
                     else [diagrams.Ensemble.REAL_SPHERE, diagrams.Ensemble.REAL_GAUSSIAN])
        if not graphs.eulerian_check(g).is_eulerian:
            continue
        for ensemble in ensembles:
            for k in (2, 3):
                def oracle(g=g, ensemble=ensemble, k=k):
                    lhs = diagrams.contract_q_exact(g, k, ensemble)
                    rhs = sampling.predicted_q(g, k, ensemble)
                    _assert_equal(lhs, rhs, "oracle == prediction")
                    return format_rational(lhs)
                _check(results, f"oracle {name} {ensemble.value} k={k}", oracle)

    for name, pmap in maps.items():
        def martin(name=name, pmap=pmap):
            for z in range(1, 6):
                check = planar.martin_check(pmap, z)
                if not check.equal:
                    raise AssertionError(f"z={z}: {check.lhs} != {check.rhs}")
            return "z in 1..5"
        _check(results, f"martin identity {name}", martin)

        def bijection(name=name, pmap=pmap):
            for term in planar.subset_expansion_terms(pmap.graph):
                expected = term.components + term.excess
                actual = planar.subset_to_partition_circuits(pmap, term.subset)
                if actual != expected:
                    raise AssertionError(f"S={list(term.subset)}: {actual} circuits, expected {expected}")
            return f"{2**pmap.graph.edge_count} subsets"
        _check(results, f"subset bijection {name}", bijection)

        def medial_eulerian(name=name, pmap=pmap):
            medial = planar.medial_graph(pmap)
            if not graphs.eulerian_check(medial).is_eulerian:
                raise AssertionError("medial graph is not Eulerian")
            _assert_equal(medial.edge_count, 2 * pmap.graph.edge_count, "medial edges")
            return ""
        _check(results, f"medial eulerian {name}", medial_eulerian)

    def genfuncs():
        for d in range(5):
            for k in range(1, 4):
                _assert_equal(diagrams.cycle_genfunc_permutations(d, k),
                              factorial(k + d - 1) // factorial(k - 1), f"S_{d} at k={k}")
                _assert_equal(diagrams.cycle_genfunc_matchings(d, k),
                              prod(k + 2 * i for i in range(d)), f"M_{d} at k={k}")
        return "d <= 4, k <= 3"
    _check(results, "cycle generating functions", genfuncs)

    def product_paths():
        for d in range(5):
            direct = sorted(p.image for p in diagrams.enumerate_permutations(d))
            staged = sorted(p.image for p in diagrams.expand_permutation_product(d))
            _assert_equal(staged, direct, f"S_{d}")
            direct_m = sorted(m.pairs for m in diagrams.enumerate_matchings(d))
            staged_m = sorted(m.pairs for m in diagrams.expand_matching_product(d))
            _assert_equal(staged_m, direct_m, f"M_{d}")
        return "d <= 4"
    _check(results, "staged product expansion", product_paths)

    fig1 = loaded.get("fig1")
    if fig1 is not None:
        def mc_agreement():
            ensemble = diagrams.Ensemble.COMPLEX_SPHERE
            target = sampling.predicted_q(fig1, 2, ensemble)
            est = sampling.estimate_q(fig1, 2, ensemble, n_mc, seed)
            deviation = abs(est.mean - float(target))
            if deviation > 4 * est.std_error:
                raise AssertionError(f"|mean - {target}| = {deviation} > 4 se = {4 * est.std_error}")
            return f"within {deviation / est.std_error:.2f} se of {target}"
        _check(results, "monte carlo agreement fig1", mc_agreement)

        def mc_determinism():
            ensemble = diagrams.Ensemble.COMPLEX_SPHERE
            one = sampling.estimate_q(fig1, 2, ensemble, 20_000, seed, workers=1).to_json()
            four = sampling.estimate_q(fig1, 2, ensemble, 20_000, seed, workers=4).to_json()
            _assert_equal(one, four, "workers 1 vs 4")
            return ""
        _check(results, "monte carlo determinism", mc_determinism)

    def mc_zero():
        edge = graphs.DirectedMultigraph(2, ((0, 1),))
        est = sampling.estimate_q(edge, 2, diagrams.Ensemble.COMPLEX_SPHERE, n_mc, seed)
        if abs(est.mean) > 4 * est.std_error:
            raise AssertionError(f"|mean| = {abs(est.mean)} > 4 se = {4 * est.std_error}")
        return "non-Eulerian estimate is ~0"
    _check(results, "monte carlo vanishing", mc_zero)

    def sampling_basics():
        rng = np.random.default_rng(seed)
        for ensemble in diagrams.Ensemble:
            x = sampling.sample_vector(3, ensemble, rng)
            if not ensemble.is_gaussian and abs(float(np.linalg.norm(x)) - 1.0) > 1e-12:
                raise AssertionError(f"{ensemble.value}: norm {np.linalg.norm(x)}")
        if fig1 is not None:
            same = np.ones((fig1.vertex_count, 2), dtype=complex) / np.sqrt(2)
            value = sampling.product_of_inner_products(fig1, same)
            if abs(value - 1) > 1e-12:
                raise AssertionError(f"all-equal product {value} != 1")
        _assert_equal(sampling.norm_moment(2, 2, diagrams.Ensemble.COMPLEX_GAUSSIAN),
                      Fraction(3, 2), "E|x|^4")
        return ""
    _check(results, "sampling basics", sampling_basics)

    def scalings():
        _assert_equal(diagrams.xd_scaling(2, 2, diagrams.Ensemble.COMPLEX_SPHERE), Fraction(1, 6), "complex d=2 k=2")
        _assert_equal(diagrams.xd_scaling(2, 2, diagrams.Ensemble.REAL_SPHERE), Fraction(1, 8), "real d=2 k=2")
        _assert_equal(diagrams.xd_scaling(2, 2, diagrams.Ensemble.COMPLEX_GAUSSIAN), Fraction(1, 4), "gaussian d=2 k=2")
        return ""
    _check(results, "tensor scalings", scalings)

    return results


def cmd_verify(args) -> int:
    corpus_dir = Path(args.corpus) if args.corpus else bundled_corpus_dir()
    results = run_verification(corpus_dir, n_mc=args.n, seed=args.seed)
    failures = [r for r in results if not r.ok]
    if args.format == "json":
        print(json.dumps({
            "schema": SCHEMA,
            "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
            "failures": len(failures),
        }))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "ok  " if r.ok else "FAIL"
            line = f"{status}  {r.name.ljust(width)}"
            if r.detail:
                line += f"  {r.detail}"
            print(line)
        print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    name: str
    handler: Callable
    configure: Callable[[argparse.ArgumentParser], None]
    help: str
    # Public operations this command reaches, for the coverage test.
    operations: tuple[str, ...]


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")


def _add_ensemble_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="vector dimension")
    p.add_argument("--ensemble", required=True,
                   choices=[e.value for e in diagrams.Ensemble],
                   help="random-vector ensemble")


def _configure_j(p):
    p.add_argument("input", help="directed or undirected graph file")
    p.add_argument("--guard-enumeration", type=int, default=None,
                   help="max work units of the splitting recursion, summed over its states as "
                        f"branches x edges (default {partition.DEFAULT_ENUMERATION_GUARD})")
    _add_format(p)


def _configure_q_predict(p):
    p.add_argument("input")
    _add_ensemble_args(p)
    p.add_argument("--guard-enumeration", type=int, default=None)
    _add_format(p)


def _configure_q_estimate(p):
    p.add_argument("input")
    _add_ensemble_args(p)
    p.add_argument("--n", type=int, default=100_000, help="sample count (default 100000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
    _add_format(p)


def _configure_q_exact(p):
    p.add_argument("input")
    _add_ensemble_args(p)
    p.add_argument("--guard-contraction", type=int, default=None,
                   help=f"max index assignments k^m (default {diagrams.DEFAULT_CONTRACTION_GUARD})")
    _add_format(p)


def _configure_medial(p):
    p.add_argument("input", help="planar map file")
    _add_format(p)


def _configure_tutte(p):
    p.add_argument("input", help="undirected graph or planar map file")
    p.add_argument("--x", required=True, help='x as "p/q" or integer')
    p.add_argument("--y", required=True, help='y as "p/q" or integer')
    p.add_argument("--guard-subsets", type=int, default=None,
                   help=f"max subsets 2^m (default {planar.DEFAULT_SUBSET_GUARD})")
    _add_format(p)


def _configure_martin(p):
    p.add_argument("input", help="planar map file")
    p.add_argument("--z", required=True, help='z as "p/q" or integer')
    p.add_argument("--guard-enumeration", type=int, default=None)
    p.add_argument("--guard-subsets", type=int, default=None)
    _add_format(p)


def _configure_verify(p):
    p.add_argument("corpus", nargs="?", default=None,
                   help="corpus directory (default: bundled corpus)")
    p.add_argument("--n", type=int, default=50_000, help="Monte Carlo samples per check")
    p.add_argument("--seed", type=int, default=20260810)
    _add_format(p)


COMMANDS: tuple[Command, ...] = (
    Command("j", cmd_j, _configure_j, "circuit partition polynomial",
            ("parse_graph", "eulerian_check", "circuit_partition_polynomial")),
    Command("q-predict", cmd_q_predict, _configure_q_predict,
            "exact q(G;k) from the partition polynomial",
            ("parse_graph", "predicted_q", "eulerian_check", "circuit_partition_polynomial",
             "vertex_scaling", "xd_scaling", "evaluate")),
    Command("q-estimate", cmd_q_estimate, _configure_q_estimate, "Monte Carlo q(G;k)",
            ("parse_graph", "estimate_q", "sample_vector", "product_of_inner_products")),
    Command("q-exact", cmd_q_exact, _configure_q_exact, "brute-force contraction q(G;k)",
            ("parse_graph", "contract_q_exact", "permutation_entry", "matching_entry",
             "vertex_scaling", "xd_scaling")),
    Command("medial", cmd_medial, _configure_medial, "oriented medial graph of a planar map",
            ("parse_planar_map", "medial_graph", "faces")),
    Command("tutte", cmd_tutte, _configure_tutte, "Tutte polynomial by subset expansion",
            ("parse_graph", "tutte_subset_expansion", "component_count")),
    Command("martin", cmd_martin, _configure_martin, "check j(G_m;z) = z^c T(G;z+1,z+1)",
            ("parse_planar_map", "martin_check", "medial_graph", "faces", "component_count",
             "tutte_subset_expansion", "eulerian_check", "circuit_partition_polynomial", "evaluate")),
    Command("verify", cmd_verify, _configure_verify, "run the invariant suite over a corpus",
            ("parse_graph", "eulerian_check", "component_count", "enumerate_transition_systems",
             "circuit_count", "circuit_partition_polynomial", "evaluate",
             "enumerate_permutations", "enumerate_matchings", "cycle_genfunc_permutations",
             "cycle_genfunc_matchings", "xd_scaling", "contract_q_exact", "permutation_entry",
             "matching_entry", "sample_vector",
             "product_of_inner_products", "estimate_q", "predicted_q", "norm_moment",
             "faces", "medial_graph", "tutte_subset_expansion", "martin_check",
             "subset_expansion_terms", "subset_to_partition_circuits")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circuitkit",
        description="Circuit partition polynomials and the inner-product moments they predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        command.configure(p)
        p.set_defaults(handler=command.handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD_EXCEEDED
    except (GraphFormatError, NotEulerianError, EmbeddingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
