"""circuitkit benchmark: one command, four generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/circuitkit).
Nothing is installed: ops run the checkout's sources through PYTHONPATH.

--trace 0 (end to end): a closed loop with one client. This process starts
`python -m circuitkit ...` for one op at a time, waits for it, and checks
its stdout exactly. Only montecarlo ops use a second core, via --workers.
A run repeats whole rounds of ops: the workload's min_rounds, then more
while the next round, as long as the last one, ends within S seconds.
Times are reported at reference host speed, sampled while each op runs;
see speed.py. The wall-clock figures are printed as well.

--trace 1 (per layer): the same rounds run in this process through
circuitkit.cli.main(argv), alternately untraced and traced; see tracing.py.

The last line of stdout is the JSON result; the lines above it print every
metric by name and unit, and run metadata. Inputs, outputs of ops and
span files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import version
from pathlib import Path
from typing import NoReturn

import ref
import workloads
from speed import SpeedProbe
from tracing import Tracer

# `--help` runs for setup_s: a few up front, then more after each round, so
# the median samples the same stretch of time as the ops.
SETUP_REPEATS_FIRST = 3
SETUP_REPEATS_PER_ROUND = 2
IMPORT_PROBES = 5
TAIL_MIN_BEYOND = 10


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Checkout:
    """The source tree under test and how to run its circuitkit."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "circuitkit" / "cli.py").is_file():
            fail(f"no src/circuitkit/cli.py under {root}: run from the root of a circuitkit checkout")
        self.work = root / ".perfbench_work"
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.probe = SpeedProbe()
        self._scratch: set[Path] = set()

    def run(self, args: list[str], stdout, stderr, all_cpus: bool = False) -> tuple[float, float, int, int]:
        """Run the interpreter with args; returns (wall s, reference-speed s, exit code, peak RSS KiB)."""
        return self.probe.run([sys.executable, *args], all_cpus, stdout=stdout, stderr=stderr,
                              env=self.env, cwd=self.root)

    def scratch(self, name: str) -> Path:
        """A file of this process under the work directory, removed by close()."""
        path = self.work / f"{os.getpid()}.{name}"
        self._scratch.add(path)
        return path

    def close(self) -> None:
        self.probe.close()
        for path in self._scratch:
            path.unlink(missing_ok=True)

    def source_digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted((self.src / "circuitkit").rglob("*.py")):
            h.update(path.relative_to(self.src).as_posix().encode())
            h.update(path.read_bytes())
        return h.hexdigest()[:16]

    def commit(self) -> str:
        if not (self.root / ".git").exists():
            return "unknown (not a git checkout)"
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"


def quantile(values: list[float], percentile: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of `count` ops beyond it
    (the median when there are too few ops for any)."""
    return max((p for p in range(50, 100) if count - -(-count * p // 100) >= TAIL_MIN_BEYOND), default=50)


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

class OpResult:
    def __init__(self, op: workloads.Op, wall: float, code: int, out: str, rss_kib: int = 0,
                 ref_s: float | None = None):
        self.op, self.wall, self.code, self.out, self.rss_kib = op, wall, code, out, rss_kib
        self.ref_s = wall if ref_s is None else ref_s  # the op's time at reference host speed
        self.error = None
        try:
            self.error = op.check(code, out)
        except (ValueError, KeyError, TypeError) as exc:
            self.error = f"unreadable output ({type(exc).__name__}: {exc}): {out[:80]!r}"


def check_pairs(results: list[OpResult]) -> None:
    """Ops sharing a pair key (one q-estimate at 1 and at nproc workers) must agree bytewise."""
    first: dict[str, OpResult] = {}
    for res in results:
        if res.op.pair is None:
            continue
        other = first.setdefault(res.op.pair, res)
        if other is not res and other.out != res.out and res.error is None:
            res.error = f"stdout differs from {other.op.label!r}"


def subprocess_op(checkout: Checkout, op: workloads.Op) -> OpResult:
    out_path, err_path = checkout.scratch("op.stdout"), checkout.scratch("op.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, ref_s, code, rss = checkout.run(["-m", "circuitkit", *op.argv], out, err, op.all_cpus)
    return OpResult(op, wall, code, out_path.read_text(encoding="utf-8"), rss, ref_s)


def measure_setup(checkout: Checkout, repeats: int) -> list[tuple[float, float]]:
    """(wall s, reference-speed s) of `python -m circuitkit --help`: interpreter, imports, parser."""
    times = []
    for _ in range(repeats):
        wall, ref_s, code, _ = checkout.run(["-m", "circuitkit", "--help"], subprocess.DEVNULL,
                                            subprocess.DEVNULL)
        if code != 0:
            fail(f"`python -m circuitkit --help` exited {code}")
        times.append((wall, ref_s))
    return times


def end_to_end(checkout: Checkout, wl: workloads.Workload, seconds: float) -> tuple[dict, list[OpResult], list[str]]:
    lines = []
    measure_setup(checkout, 1)  # fills the bytecode caches
    setup = measure_setup(checkout, SETUP_REPEATS_FIRST)
    probes = []
    if wl.name == "j-sparse":
        probe = subprocess_op(checkout, workloads.known_defect_probe(wl.seed, checkout.work))
        err = checkout.scratch("op.stderr").read_text(encoding="utf-8").strip()
        if probe.error is None:
            lines.append(f"known defect (c): fixed, {probe.op.label} printed the exact value")
        elif probe.code == 2 and "integer string conversion" in err:
            lines.append(f"known defect (c): present, {probe.op.label} exits 2: {err}")
        else:  # neither the recorded failure nor the right answer: a wrong output
            probe.op.label = "known-defect probe: " + probe.op.label
            probes.append(probe)

    results: list[OpResult] = []
    start = time.perf_counter()
    r, last_round = 0, 0.0
    while r < wl.min_rounds or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        batch = [subprocess_op(checkout, op) for op in wl.make_round(r)]
        check_pairs(batch)
        results.extend(batch)
        setup += measure_setup(checkout, SETUP_REPEATS_PER_ROUND)
        last_round = time.perf_counter() - round_start
        r += 1

    p_tail = tail_percentile(wl.min_rounds * len(results) // r)

    def figures(times: list[float], setup_times: list[float]) -> dict[str, float]:
        return {"ops_per_s": len(times) / sum(times), "latency_p50_s": statistics.median(times),
                "latency_tail_s": quantile(times, p_tail), "setup_s": statistics.median(setup_times)}

    at_ref = figures([r.ref_s for r in results], [ref_s for _, ref_s in setup])
    metrics = {name: (value, "1/s" if name == "ops_per_s" else "s") for name, value in at_ref.items()}
    metrics["peak_rss_mb"] = (max(r.rss_kib for r in results) / 1024, "MB")
    walls = [r.wall for r in results]
    wall_clock = figures(walls, [wall for wall, _ in setup])
    slowdown = statistics.median(r.wall / r.ref_s for r in results)
    failed = sum(r.error is not None for r in results)
    lines.append(f"{r} rounds in {time.perf_counter() - start:.1f} s; host speed: ops took a median "
                 f"{slowdown:.3f} times their reference-speed time")
    lines.append("wall clock, not in the JSON: " + ", ".join(f"{name} = {value:.6g}"
                                                         for name, value in wall_clock.items()))
    lines.append(f"latency_tail_s is p{p_tail} of {len(walls)} ops")
    by_kind: dict[str, list[float]] = defaultdict(list)
    for res in results:
        by_kind[res.op.kind].append(res.ref_s)
    lines.append("median reference-speed time per op kind (s): " + "; ".join(
        f"{kind} {statistics.median(times):.4f}" for kind, times in by_kind.items()))
    lines.append(f"error_rate = {failed / len(results):.6f} (failed / attempted = {failed}/{len(results)})")
    estimate_times = [r.ref_s for r in results if r.op.samples]
    if estimate_times:
        samples = sum(r.op.samples for r in results)
        lines.append(f"samples_per_s = {samples / sum(estimate_times):.1f} 1/s ({samples} samples over "
                     f"{sum(estimate_times):.3f} reference-speed s of q-estimate ops)")
    lines.append(f"setup_s is the median of {len(setup)} runs (reference-speed s): "
                 + " ".join(f"{ref_s:.4f}" for _, ref_s in setup))
    return metrics, results + probes, lines


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def import_times(checkout: Checkout) -> tuple[list[float], list[float]]:
    """(circuitkit, numpy) cumulative import seconds from `-X importtime`, per probe."""
    pkg, numpy = [], []
    err_path = checkout.scratch("importtime.stderr")
    for _ in range(IMPORT_PROBES):
        with open(err_path, "wb") as err:
            _, _, code, _ = checkout.run(["-X", "importtime", "-c", "import circuitkit.cli"],
                                         subprocess.DEVNULL, err)
        if code != 0:
            fail(f"importing circuitkit.cli exited {code}")
        ours, theirs = 0.0, 0.0
        for line in err_path.read_text(encoding="utf-8").splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
            if not m:
                continue
            seconds = int(m.group(1)) / 1e6
            if m.group(2).split(".")[0] == "circuitkit":
                ours = max(ours, seconds)  # the outermost circuitkit import holds the rest
            elif m.group(2) == "numpy":
                theirs = seconds
        pkg.append(ours)
        numpy.append(theirs)
    return pkg, numpy


def _graph_systems(args, kwargs, result) -> dict:
    g = args[0]
    directed = type(g).__name__ == "DirectedMultigraph"
    return {"systems": ref.system_count(g.vertex_count, list(g.edges), directed)}


COUNTERS = {
    "graphs.parse_graph_file": lambda a, kw, res: {"parsed_edges": res[1].edge_count},
    "partition.circuit_partition_polynomial": _graph_systems,
    "diagrams.contract_q_exact": lambda a, kw, res: {"assignments": a[1] ** a[0].edge_count},
    "planar.tutte_subset_expansion": lambda a, kw, res: {"subsets": 2 ** a[0].edge_count},
    "sampling.estimate_q": lambda a, kw, res: {"samples": res.n_samples},
}


def traced(checkout: Checkout, wl: workloads.Workload, seconds: float) -> tuple[dict, list[OpResult], list[str]]:
    pkg_import, numpy_import = import_times(checkout)
    sys.path.insert(0, str(checkout.src))
    import circuitkit
    import circuitkit.cli  # noqa: F401  (circuitkit/__init__ does not import the CLI)
    if Path(circuitkit.__file__).resolve().parent != (checkout.src / "circuitkit").resolve():
        fail(f"imported circuitkit from {circuitkit.__file__}, not from the checkout")

    tracer = Tracer(circuitkit, COUNTERS)

    def in_process(op: workloads.Op, traced_call: bool) -> OpResult:
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                return circuitkit.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects an argv
                return exc.code if isinstance(exc.code, int) else 2

        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = tracer.run_op(call) if traced_call else call()
        return OpResult(op, time.perf_counter() - start, code, out.getvalue())

    plain: list[OpResult] = []
    spanned: list[OpResult] = []
    by_kind: dict[str, dict[str, float]] = {}  # op kind -> wall and self time per layer
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        ops = wl.make_round(r)
        batch = [in_process(op, False) for op in ops]
        check_pairs(batch)
        plain.extend(batch)
        tracer.install()
        try:
            batch = []
            for op in ops:
                first = tracer.span_count
                batch.append(in_process(op, True))
                kind = by_kind.setdefault(op.kind, defaultdict(float))
                kind["wall"] += batch[-1].wall
                for name, value in tracer.totals(first)[0].items():
                    kind[name.split(".")[0]] += value
        finally:
            tracer.uninstall()
        check_pairs(batch)
        spanned.extend(batch)
        r += 1

    self_s, total_s, calls = tracer.totals()
    counts = tracer.counts
    traced_wall = sum(res.wall for res in spanned)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def t(*names):
        return sum(total_s.get(n, 0.0) for n in names)

    def rate(amount, seconds_):
        return amount / seconds_ if seconds_ > 0 else 0.0

    j_fn, cc_fn = "partition.circuit_partition_polynomial", "partition.circuit_count"
    metrics = {
        "cli.import_s": (statistics.median(pkg_import), "s"),
        "cli.import_numpy_s": (statistics.median(numpy_import), "s"),
        "cli.handler_s": (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s"),
        "graphs.parse_s": (s("graphs.parse_graph_file", "graphs.parse_graph"), "s"),
        "graphs.parse_edges_per_s": (rate(counts["parsed_edges"], s("graphs.parse_graph_file", "graphs.parse_graph")), "1/s"),
        "graphs.component_count_calls": (calls.get("graphs.component_count", 0), "count"),
        "graphs.component_count_s": (s("graphs.component_count"), "s"),
        "partition.j_calls": (calls.get(j_fn, 0), "count"),
        "partition.j_s": (sum(v for k, v in self_s.items() if k.startswith("partition.") and k != cc_fn), "s"),
        "partition.circuit_count_calls": (calls.get(cc_fn, 0), "count"),
        "partition.circuit_count_s": (s(cc_fn), "s"),
        "partition.systems": (counts["systems"], "count"),
        "partition.systems_per_s": (rate(counts["systems"], t(j_fn)), "1/s"),
        "diagrams.contract_s": (s("diagrams.contract_q_exact"), "s"),
        "diagrams.assignments": (counts["assignments"], "count"),
        "diagrams.assignments_per_s": (rate(counts["assignments"], t("diagrams.contract_q_exact")), "1/s"),
        "planar.faces_s": (s("planar.faces"), "s"),
        "planar.medial_s": (s("planar.medial_graph", "planar.medial_graph_with_sides"), "s"),
        "planar.tutte_s": (s("planar.tutte_subset_expansion"), "s"),
        "planar.martin_s": (s("planar.martin_check"), "s"),
        "planar.subsets": (counts["subsets"], "count"),
        "planar.subsets_per_s": (rate(counts["subsets"], t("planar.tutte_subset_expansion")), "1/s"),
        "sampling.estimate_s": (t("sampling.estimate_q"), "s"),
        "sampling.draw_s": (t("sampling.draw_assignments"), "s"),
        "sampling.product_s": (s("sampling.estimate_q", "sampling._batch_products"), "s"),
        "sampling.samples": (counts["samples"], "count"),
        "sampling.chunks": (calls.get("sampling.draw_assignments", 0), "count"),
        "sampling.samples_per_s": (rate(counts["samples"], t("sampling.estimate_q")), "1/s"),
        "sampling.predict_s": (s("sampling.predicted_q"), "s"),
        "trace.overhead_ratio": (traced_wall / sum(res.wall for res in plain), "ratio"),
        "trace.remainder_s": (traced_wall - sum(self_s.values()), "s"),
    }

    span_path = checkout.work / f"spans-{wl.name}.f64"
    tracer.write(span_path)
    lines = [f"traced {len(spanned)} ops in process ({r} rounds, each also run untraced); "
             f"{tracer.span_count} spans written to {span_path.relative_to(checkout.root)}"]
    layers: dict[str, float] = {}
    for name, value in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value
    lines.append("self time by layer (s): " + ", ".join(
        f"{layer} {value:.4f}" for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]))
        + f"; traced wall {traced_wall:.4f}")
    lines.append("per op kind, traced wall and self time by layer (s); rest = wall - sum of self times:")
    for kind, row in by_kind.items():
        wall = row.pop("wall")
        lines.append(f"  {kind}: wall {wall:.4f} = " + " + ".join(
            f"{layer} {value:.4f}" for layer, value in sorted(row.items(), key=lambda kv: -kv[1]))
            + f" + rest {wall - sum(row.values()):.4f}")
    lines.append("top spans by self time (s): " + ", ".join(
        f"{name} {value:.4f} ({calls[name]} calls)"
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:8]))
    lines.extend(baseline_lines(plain))
    return metrics, plain + spanned, lines


ROADMAP_BASELINES = {  # op label -> ROADMAP item 1 figure for a 2-core machine, in process
    "j circ(6,3)": "about 0.55 s",
    "q-estimate fig1 k=2 complex-sphere workers=1": "0.8 to 1.1 s",
    "q-estimate fig1 k=2 complex-sphere workers=2": "about half the 1-worker time",
}


def baseline_lines(results: list[OpResult]) -> list[str]:
    lines = []
    for label, expected in ROADMAP_BASELINES.items():
        walls = [r.wall for r in results if r.op.label == label]
        if walls:
            lines.append(f"ROADMAP baseline check: {label}: median {statistics.median(walls):.3f} s "
                         f"in process over {len(walls)} ops (ROADMAP: {expected})")
    return lines


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    try:
        return report(checkout, args)
    finally:
        checkout.close()


def report(checkout: Checkout, args: argparse.Namespace) -> int:
    workers = nproc()
    setup_start = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, checkout.work, workers)
    reference_s = time.perf_counter() - setup_start

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"why: {wl.why}")
    for note in wl.notes:
        print(f"  {note}")
    print(f"nproc {workers}; python {platform.python_version()}; numpy {version('numpy')}; "
          f"commit {checkout.commit()}; source sha256 {checkout.source_digest()}; "
          f"references built in {reference_s:.3f} s")

    run = traced if args.trace else end_to_end
    metrics, results, lines = run(checkout, wl, args.seconds)
    for line in lines:
        print(line)
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED {r.op.label}: {r.error}; argv: circuitkit {' '.join(r.op.argv)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
