"""Command-line front-end: argument parsing, dispatch and the printing of
every exact value. `verify`'s invariant suite lives in `checks`.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 guard
exceeded. Exact integers and rationals are printed in full, whatever their
length, and rationals cross this boundary as "p/q" strings, never floats.
JSON payloads carry a "schema": "circuitkit/1" version tag.

Start-up and exit are most of the wall time of a command on a small input,
so each handler imports the engine modules it runs (partition, diagrams,
planar, sampling; checks for `verify`), and json, numpy,
importlib.resources and fractions (which loads decimal) are imported only
where they are used. The parser reads the ensemble names from graphs and
the default guards from errors, so `--help` loads no engine module, `j`
only partition, and the commands that never sample start without numpy;
`j`, `medial` and `--help` make no rational and load no fractions. Every
subcommand is added to the parser, but only the one named on the command
line gets its options.

`run` is the process entry of `python -m circuitkit` and of the
`circuitkit` script. It calls `main` and then freezes the heap
(gc.freeze), so that the interpreter's collections at exit do not walk
every object the command loaded; `main` stays the entry for callers in
process, whose heap it leaves as it was.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import graphs
from .errors import (DEFAULT_CONTRACTION_GUARD, DEFAULT_ENUMERATION_GUARD, DEFAULT_SUBSET_GUARD,
                     GraphFormatError, GuardExceededError)

if TYPE_CHECKING:
    from fractions import Fraction

    from .partition import IntPolynomial

SCHEMA = "circuitkit/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_GUARD_EXCEEDED = 3


@contextmanager
def unlimited_int_digits():
    """Lift Python's int-to-decimal digit limit for the enclosed block only.

    Exact outputs may have any number of digits; the previous limit is put
    back on exit, so the rest of the process keeps its protection.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters without the limit
        yield
        return
    previous = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def format_rational(value: Fraction) -> str:
    from fractions import Fraction

    value = Fraction(value)
    with unlimited_int_digits():
        return f"{value.numerator}/{value.denominator}"


def format_coefficients(poly: IntPolynomial) -> list[str]:
    """r_0, r_1, ... in decimal."""
    with unlimited_int_digits():
        return [str(c) for c in poly.coefficients]


def graph_to_json_dict(g: graphs.Multigraph) -> dict:
    return {
        "schema": SCHEMA,
        "kind": g.kind,
        "vertex_count": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges],
    }


def bundled_corpus_dir() -> Path:
    from importlib import resources

    return Path(str(resources.files("circuitkit").joinpath("corpus")))


def read_graph_file(path: str | Path) -> str:
    """The text of a graph file, less a leading UTF-8 byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def rational(text: str) -> Fraction:
    """A "p/q" or integer argument; a zero denominator is an input error."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _emit(args, text_value: str, json_value: dict) -> None:
    if args.format == "json":
        import json

        print(json.dumps(json_value))
    else:
        print(text_value)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_j(args) -> int:
    from . import partition

    g = graphs.parse_graph(read_graph_file(args.input))
    poly = partition.circuit_partition_polynomial(g, guard=args.guard_enumeration)
    coefficients = format_coefficients(poly)
    _emit(args, " ".join(coefficients), {"schema": SCHEMA, "variant": g.kind, "coefficients": coefficients})
    return EXIT_OK


def cmd_q_predict(args) -> int:
    from . import sampling

    g = graphs.parse_graph(read_graph_file(args.input))
    ensemble = graphs.Ensemble(args.ensemble)
    value = sampling.predicted_q(g, args.k, ensemble, guard=args.guard_enumeration)
    payload = {"schema": SCHEMA, "value": format_rational(value), "k": args.k,
               "ensemble": ensemble.value}
    if value == 0:  # exactly when g is not Eulerian (see predicted_q)
        payload["note"] = "graph is not Eulerian; q is exactly 0 by phase/sign symmetry"
    _emit(args, format_rational(value), payload)
    return EXIT_OK


def cmd_q_exact(args) -> int:
    from . import diagrams

    g = graphs.parse_graph(read_graph_file(args.input))
    ensemble = graphs.Ensemble(args.ensemble)
    value = diagrams.contract_q_exact(g, args.k, ensemble, guard=args.guard_contraction)
    payload = {"schema": SCHEMA, "value": format_rational(value), "k": args.k,
               "ensemble": ensemble.value}
    _emit(args, format_rational(value), payload)
    return EXIT_OK


def cmd_q_estimate(args) -> int:
    from . import sampling

    g = graphs.parse_graph(read_graph_file(args.input))
    ensemble = graphs.Ensemble(args.ensemble)
    estimate = sampling.estimate_q(g, args.k, ensemble, args.n, args.seed, workers=args.workers)
    if estimate.zero_products:
        print(f"warning: {estimate.zero_products} of {estimate.n_samples} sampled edge products are"
              " exactly 0.0 once scaled by R, most likely by float underflow; the mean and its"
              " standard error leave out what underflowed", file=sys.stderr)
    payload = {"schema": SCHEMA}
    payload.update(estimate.to_json_dict())
    text = (f"mean = {estimate.mean.real!r} + {estimate.mean.imag!r}i"
            f" +- {estimate.std_error!r} (n={estimate.n_samples}, seed={estimate.seed})")
    _emit(args, text, payload)
    return EXIT_OK


def cmd_medial(args) -> int:
    from . import planar

    pmap = planar.parse_planar_map(read_graph_file(args.input))
    medial = planar.medial_graph(pmap)
    _emit(args, graphs.serialize_graph(medial).rstrip("\n"), graph_to_json_dict(medial))
    return EXIT_OK


def cmd_tutte(args) -> int:
    from . import planar

    g = graphs.parse_graph(read_graph_file(args.input))
    if isinstance(g, graphs.DirectedMultigraph):
        raise GraphFormatError("the subset expansion needs an undirected or planar file")
    value = planar.tutte_subset_expansion(g, args.x, args.y, guard=args.guard_subsets)
    payload = {"schema": SCHEMA, "value": format_rational(value),
               "x": format_rational(args.x), "y": format_rational(args.y)}
    _emit(args, format_rational(value), payload)
    return EXIT_OK


def cmd_martin(args) -> int:
    from . import planar

    pmap = planar.parse_planar_map(read_graph_file(args.input))
    check = planar.martin_check(pmap, args.z, enumeration_guard=args.guard_enumeration,
                                subset_guard=args.guard_subsets)
    payload = {
        "schema": SCHEMA,
        "z": format_rational(args.z),
        "lhs": format_rational(check.lhs),
        "rhs": format_rational(check.rhs),
        "equal": check.equal,
    }
    text = f"lhs={format_rational(check.lhs)} rhs={format_rational(check.rhs)} equal={str(check.equal).lower()}"
    _emit(args, text, payload)
    return EXIT_OK if check.equal else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    from . import checks

    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {args.seed}")
    corpus_dir = Path(args.corpus) if args.corpus else bundled_corpus_dir()
    results = checks.run_verification(corpus_dir, n_mc=args.n, seed=args.seed)
    failures = [name for name, ok, _ in results if not ok]
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, detail in results:
        line = f"{'ok  ' if ok else 'FAIL'}  {name.ljust(width)}"
        if detail:
            line += f"  {detail}"
        lines.append(line)
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    _emit(args, "\n".join(lines), {
        "schema": SCHEMA,
        "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in results],
        "failures": len(failures),
    })
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `circuitkit` parser. Every subcommand is added, so `--help` and an
    invalid choice list them all, but only `command` gets its options (every
    subcommand does when it is None). An option that several subcommands
    share is declared once, for all of them. Declaration order fixes the
    order of the usage lines and of argparse's missing-argument errors, so
    `input` comes first and `--format` last."""
    parser = argparse.ArgumentParser(
        prog="circuitkit",
        description="Circuit partition polynomials and the inner-product moments they predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help in (
        ("j", cmd_j, "circuit partition polynomial"),
        ("q-predict", cmd_q_predict, "exact q(G;k) from the partition polynomial"),
        ("q-estimate", cmd_q_estimate, "Monte Carlo q(G;k)"),
        ("q-exact", cmd_q_exact, "exact q(G;k) by tensor contraction along a vertex order"),
        ("medial", cmd_medial, "oriented medial graph of a planar map"),
        ("tutte", cmd_tutte, "Tutte polynomial by subset expansion"),
        ("martin", cmd_martin, "check j(G_m;z) = z^c T(G;z+1,z+1)"),
        ("verify", cmd_verify, "run the invariant suite over a corpus"),
    ):
        sub.add_parser(name, help=help).set_defaults(handler=handler)

    moments = ("q-predict", "q-estimate", "q-exact")
    options = [  # (the subcommands that take it, its name, its add_argument keywords)
        (("j", *moments, "medial", "tutte", "martin"), "input",
         dict(help="graph file (a planar map for medial and martin)")),
        (moments, "--k", dict(type=int, required=True, help="vector dimension")),
        (moments, "--ensemble", dict(required=True, choices=[e.value for e in graphs.Ensemble],
                                     help="random-vector ensemble")),
        (("q-estimate",), "--n", dict(type=int, default=100_000, help="sample count (default 100000)")),
        (("q-estimate",), "--seed", dict(type=int, default=0, help="RNG seed (default 0)")),
        (("q-estimate",), "--workers", dict(type=int, default=1,
                                            help="worker threads, at most the CPU count (default 1)")),
        (("q-exact",), "--guard-contraction", dict(
            type=int, default=DEFAULT_CONTRACTION_GUARD,
            help="max planned work of the contraction, summed over the vertex order as "
                 "k^(open edges + new edges at the vertex) (default %(default)s)")),
        (("tutte",), "--x", dict(type=rational, required=True, help='x as "p/q" or integer')),
        (("tutte",), "--y", dict(type=rational, required=True, help='y as "p/q" or integer')),
        (("martin",), "--z", dict(type=rational, required=True, help='z as "p/q" or integer')),
        (("j", "q-predict", "martin"), "--guard-enumeration", dict(
            type=int, default=DEFAULT_ENUMERATION_GUARD,
            help="max work units of the splitting recursion, summed over its states as "
                 "branches x edges (default %(default)s)")),
        (("tutte", "martin"), "--guard-subsets", dict(
            type=int, default=DEFAULT_SUBSET_GUARD,
            help="max work units of the Tutte frontier sweep, summed over its edges and "
                 "states as branches x (tally terms + frontier vertices) (default %(default)s)")),
        (("verify",), "corpus", dict(nargs="?", default=None, help="corpus directory (default: bundled corpus)")),
        (("verify",), "--n", dict(type=int, default=50_000, help="Monte Carlo samples per check (default 50000)")),
        (("verify",), "--seed", dict(type=int, default=20260810, help="RNG seed (default 20260810)")),
        (tuple(sub.choices), "--format", dict(choices=("text", "json"), default="text",
                                              help="output format (default: text)")),
    ]
    for names, flag, keywords in options:
        for name in names:
            if command in (None, name):
                sub.choices[name].add_argument(flag, **keywords)
    return parser


def _attach_negative_rationals(argv: list[str]) -> list[str]:
    """Join `--x -1/2` into `--x=-1/2` (likewise --y, --z): argparse takes
    only -N and -N.M for negative numbers and reads "-1/2" as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in ("--x", "--y", "--z") and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = _attach_negative_rationals(sys.argv[1:] if argv is None else argv)
    # The top-level parser has no option that takes a value, so its first
    # positional argument, the subcommand, is the first one not led by "-";
    # with none (the top-level --help or a usage error), no subcommand needs
    # its options.
    named = next((arg for arg in argv if arg[:1] != "-"), "")
    args = build_parser(named).parse_args(argv)
    try:
        return args.handler(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD_EXCEEDED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> int:
    """The process entry: `main`'s exit code, with the heap frozen after it
    returns or exits (argparse's usage errors and --help), so that the
    collections the interpreter runs at exit skip every object the command
    loaded. Exit handlers and the flush of stdout still run as usual."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
