"""The tracer, the output checks and the run loop's statistics."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import circuitkit
import circuitkit.cli
import run
import workloads
from tracing import FIELDS, Tracer

FIG1 = str(Path(circuitkit.__file__).parent / "corpus" / "fig1.graph")


def _spans(tracer):
    b, w = tracer.buf, len(FIELDS)
    return [dict(zip(FIELDS, b[i:i + w])) for i in range(0, len(b), w)]


def _traced(argv, tracer):
    out = io.StringIO()
    tracer.install()
    try:
        with redirect_stdout(out):
            code = tracer.run_op(lambda: circuitkit.cli.main(argv))
    finally:
        tracer.uninstall()
    return code, out.getvalue()


def test_install_wraps_every_binding_and_uninstall_restores():
    before = {m: dict(vars(getattr(circuitkit, m))) for m in ("partition", "sampling", "planar", "cli")}
    tracer = Tracer(circuitkit)
    tracer.install()
    try:
        wrapped = circuitkit.partition.circuit_partition_polynomial
        assert wrapped is not before["partition"]["circuit_partition_polynomial"]
        assert circuitkit.sampling.circuit_partition_polynomial is wrapped
        assert circuitkit.planar.circuit_partition_polynomial is wrapped
    finally:
        tracer.uninstall()
    for m, namespace in before.items():
        assert dict(vars(getattr(circuitkit, m))) == namespace


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer(circuitkit)
    code, out = _traced(["q-predict", FIG1, "--k", "2", "--ensemble", "complex-sphere"], tracer)
    assert (code, out.strip()) == (0, "1/8")
    spans = _spans(tracer)
    names = {tracer.names[int(s["name"])] for s in spans}
    assert {"cli.main", "sampling.predicted_q", "partition.circuit_count", "graphs.parse_graph_file"} <= names
    (root,) = [s for s in spans if s["parent"] == -1]
    assert tracer.names[int(root["name"])] == "cli.main"
    assert abs(sum(s["self"] for s in spans) - (root["end"] - root["start"])) < 1e-9
    self_s, _, calls = tracer.totals()
    assert calls["partition.circuit_count"] == 2  # fig1 has two transition systems


def test_worker_thread_spans_hang_under_estimate_q():
    tracer = Tracer(circuitkit)
    argv = ["q-estimate", FIG1, "--k", "2", "--ensemble", "complex-sphere",
            "--n", "40000", "--seed", "1", "--workers", "2"]
    code, _ = _traced(argv, tracer)
    assert code == 0
    spans = _spans(tracer)
    (estimate,) = [s for s in spans if tracer.names[int(s["name"])] == "sampling.estimate_q"]
    draws = [s for s in spans if tracer.names[int(s["name"])] == "sampling.draw_assignments"]
    assert len(draws) == 5  # ceil(40000 / 8192) chunks
    assert all(draw["parent"] == estimate["id"] for draw in draws)
    # Union, not sum: parallel children never push a parent's self time below zero.
    assert estimate["self"] >= 0


def test_checks_reject_wrong_outputs():
    assert workloads.expect_stdout("0 1 1")(0, "0 1 1\n") is None
    assert workloads.expect_stdout("0 1 1")(0, "0 1 2\n")
    assert workloads.expect_stdout("0 1 1")(2, "")
    martin = workloads.expect_martin(Fraction(12))
    assert martin(0, "lhs=12/1 rhs=12/1 equal=true\n") is None
    assert martin(0, "lhs=12/1 rhs=11/1 equal=true\n")
    assert martin(1, "lhs=12/1 rhs=11/1 equal=false\n")
    q = Fraction(1, 8)
    estimate = workloads.expect_estimate(q, q * q + Fraction(1, 10**4), 100, 7)  # exact se 0.001
    good = {"mean_re": 0.126, "mean_im": 0.0, "std_error": 0.001, "n": 100, "seed": 7}
    assert estimate(0, json.dumps(good)) is None
    assert estimate(0, json.dumps(dict(good, mean_re=0.2)))
    assert estimate(0, json.dumps(dict(good, seed=8)))
    assert estimate(0, json.dumps(dict(good, std_error=0.0)))


def test_pairs_must_match_bytewise():
    op = workloads.Op("q-estimate", [], lambda code, out: None, pair="0/0")
    results = [run.OpResult(op, 1.0, 0, "a"), run.OpResult(op, 1.0, 0, "b")]
    run.check_pairs(results)
    assert results[0].error is None and results[1].error


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(21) == 52
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(12) == 50
    assert run.quantile([float(i) for i in range(1, 41)], 75) == 30.0


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, f"{bench.name}/run.py", "--workload", "j-dense", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
