from __future__ import annotations

import argparse
import decimal
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circuitkit
from circuitkit import checks, cli, diagrams, graphs, partition, planar, sampling

SPEC_OPERATIONS = [
    # graphcore
    "parse_graph", "eulerian_check", "component_count",
    # partition
    "enumerate_transition_systems", "circuit_count", "circuit_partition_polynomial", "evaluate",
    # diagram
    "enumerate_permutations", "enumerate_matchings", "cycle_genfunc_permutations",
    "cycle_genfunc_matchings", "xd_scaling", "contract_q_exact",
    # sampling
    "sample_vector", "product_of_inner_products", "estimate_q", "predicted_q", "norm_moment",
    # planar
    "faces", "medial_graph", "tutte_subset_expansion", "martin_check",
    "subset_to_partition_circuits",
]


def subcommands(command: str | None = None) -> dict[str, argparse.ArgumentParser]:
    """The subparsers of `circuitkit`, by name, as built for `command`."""
    (action,) = (a for a in cli.build_parser(command)._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus(name: str, corpus_dir) -> str:
    return str(corpus_dir / name)


def test_j_fig1(capsys, corpus_dir):
    code, out, _ = run(capsys, "j", corpus("fig1.graph", corpus_dir))
    assert code == 0
    assert out == "0 1 1\n"


@pytest.mark.parametrize("kind", ["directed", "undirected"])
def test_j_on_millions_of_edgeless_vertices(capsys, tmp_path, kind):
    """A 20-byte file names 3,000,000 vertices and no edges: j is 1, and no
    pass over the vertices runs in Python on the way to it."""
    path = tmp_path / "edgeless.graph"
    path.write_text(f"{kind}\n3000000 0\n", encoding="utf-8")
    assert run(capsys, "j", str(path)) == (0, "1\n", "")


def test_j_json(capsys, corpus_dir):
    code, out, _ = run(capsys, "j", corpus("figure_eight.graph", corpus_dir), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "circuitkit/1"
    assert data["coefficients"] == ["0", "2", "1"]
    assert data["variant"] == "undirected"
    _, out, _ = run(capsys, "j", corpus("fig1.graph", corpus_dir), "--format", "json")
    assert json.loads(out)["variant"] == "directed"


def test_q_predict_fig1(capsys, corpus_dir):
    code, out, _ = run(capsys, "q-predict", corpus("fig1.graph", corpus_dir),
                       "--k", "2", "--ensemble", "complex-sphere")
    assert code == 0
    assert out == "1/8\n"


def test_q_exact_matches_predict(capsys, corpus_dir):
    path = corpus("fig1.graph", corpus_dir)
    _, exact, _ = run(capsys, "q-exact", path, "--k", "3", "--ensemble", "complex-gaussian")
    _, predicted, _ = run(capsys, "q-predict", path, "--k", "3", "--ensemble", "complex-gaussian")
    assert exact == predicted


def test_q_predict_notes_non_eulerian(capsys, tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text("directed\n2 1\n0 1\n")
    code, out, _ = run(capsys, "q-predict", str(path), "--k", "2",
                       "--ensemble", "complex-sphere", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "0/1"
    assert "note" in data


def test_q_predict_checks_degree_balance_once(capsys, monkeypatch, tmp_path, corpus_dir):
    """The engine's check is the only one: predicted_q and the JSON note
    read its outcome instead of checking again."""
    unbalanced = tmp_path / "edge.graph"
    unbalanced.write_text("directed\n2 1\n0 1\n")
    checks = []
    check = graphs.eulerian_check
    monkeypatch.setattr(graphs, "eulerian_check", lambda g: checks.append(g) or check(g))
    for path in (corpus("fig1.graph", corpus_dir), str(unbalanced)):
        for fmt in ("text", "json"):
            checks.clear()
            code, _, _ = run(capsys, "q-predict", path, "--k", "2", "--ensemble", "complex-sphere", "--format", fmt)
            assert code == 0 and len(checks) == 1


def test_martin_triangle_json(capsys, corpus_dir):
    code, out, _ = run(capsys, "martin", corpus("triangle.planar", corpus_dir),
                       "--z", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["lhs"] == data["rhs"]


def test_medial_text_output(capsys, corpus_dir):
    code, out, _ = run(capsys, "medial", corpus("p2.planar", corpus_dir))
    assert code == 0
    assert out == "directed\n1 2\n0 0\n0 0\n"


def test_tutte_value(capsys, corpus_dir):
    code, out, _ = run(capsys, "tutte", corpus("triangle.planar", corpus_dir), "--x", "3", "--y", "3")
    assert code == 0
    assert out == "15/1\n"


def test_tutte_rational_arguments(capsys, corpus_dir):
    code, out, _ = run(capsys, "tutte", corpus("p2.planar", corpus_dir), "--x", "7/3", "--y", "5")
    assert code == 0
    assert out == "7/3\n"  # a bridge evaluates to x


def test_martin_takes_a_negative_fraction(capsys, corpus_dir):
    code, out, err = run(capsys, "martin", corpus("triangle.planar", corpus_dir), "--z", "-3/4")
    assert (code, out, err) == (0, "lhs=-27/64 rhs=-27/64 equal=true\n", "")


def test_tutte_takes_a_negative_fraction_for_x(capsys, corpus_dir):
    code, out, err = run(capsys, "tutte", corpus("triangle.planar", corpus_dir), "--x", "-1/2", "--y", "2")
    assert (code, out, err) == (0, "7/4\n", "")


def test_tutte_takes_a_negative_fraction_for_y(capsys, corpus_dir):
    # T(triangle; x, y) = x^2 + x + y
    code, out, err = run(capsys, "tutte", corpus("triangle.planar", corpus_dir), "--y", "-1/2", "--x", "2")
    assert (code, out, err) == (0, "11/2\n", "")


@pytest.mark.parametrize("argv", [["tutte", "--x", "1/0", "--y", "3"], ["tutte", "--x", "2", "--y", "1/0"],
                                  ["martin", "--z", "2/0"]], ids=["x", "y", "z"])
def test_zero_denominator_is_an_input_error(capsys, corpus_dir, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, corpus("triangle.planar", corpus_dir)])
    captured = capsys.readouterr()
    assert excinfo.value.code == cli.EXIT_INPUT_ERROR
    assert captured.out == ""
    assert "invalid rational value: '" in captured.err
    assert "Traceback" not in captured.err


def test_q_estimate_json_is_reproducible(capsys, corpus_dir):
    argv = ["q-estimate", corpus("fig1.graph", corpus_dir), "--k", "2",
            "--ensemble", "complex-sphere", "--n", "20000", "--seed", "11", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv, "--workers", "4")
    assert code1 == code2 == 0
    keep = {"mean_re", "mean_im", "std_error", "n", "k", "ensemble", "seed", "schema"}
    assert json.loads(out1).keys() == keep
    assert out1 == out2


def test_same_flags_same_bytes(capsys, corpus_dir):
    for argv in (
        ["j", corpus("fig1.graph", corpus_dir)],
        ["martin", corpus("hexmap.planar", corpus_dir), "--z", "5", "--format", "json"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("directed\n2 5\n0 1\n")
    code, out, err = run(capsys, "j", str(bad))
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert "expected 5 edges" in err


def test_a_byte_order_mark_is_not_content(capsys, tmp_path):
    path = tmp_path / "marked.graph"
    path.write_bytes(b"\xef\xbb\xbfdirected\n1 1\n0 0\n")
    assert run(capsys, "j", str(path)) == (cli.EXIT_OK, "0 1\n", "")


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "j", str(tmp_path / "nope.graph"))
    assert code == cli.EXIT_INPUT_ERROR
    assert "cannot read" in err


def test_guard_exit_code(capsys, corpus_dir):
    code, _, err = run(capsys, "j", corpus("fig1.graph", corpus_dir),
                       "--guard-enumeration", "1")
    assert code == cli.EXIT_GUARD_EXCEEDED
    assert "guard" in err


def test_non_eulerian_exit_code(capsys, tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text("directed\n2 1\n0 1\n")
    code, _, err = run(capsys, "j", str(path))
    assert code == cli.EXIT_INPUT_ERROR
    assert "Eulerian" in err


def check_name(line: str) -> str:
    """The check name in a line of verify's text report: status, two spaces,
    the padded name, two spaces, the detail."""
    return line[len("ok    "):].split("  ")[0]


def test_verify_bundled_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--n", "20000")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out
    assert out.count("engine vs enumerator") == 5  # one per corpus graph
    # Each check's name is its kind, then the corpus file it reads, if any.
    files = {f for path in cli.bundled_corpus_dir().iterdir() for f in (path.name, path.stem)}
    kinds = {" ".join(itertools.takewhile(lambda word: word not in files, check_name(line).split()))
             for line in out.splitlines()[:-1]}
    assert kinds == {
        "corpus present", "parse+roundtrip", "engine vs enumerator", "counting invariants", "oracle",
        "martin identity", "subset bijection", "medial eulerian", "cycle generating functions",
        "closed-form entries", "monte carlo agreement", "monte carlo determinism",
        "monte carlo vanishing", "sampling basics", "tensor scalings",
    }


@pytest.mark.parametrize("entry", ["permutation_entry", "matching_entry"])
def test_verify_fails_on_a_wrong_closed_form_entry(capsys, monkeypatch, tmp_path, corpus_dir, entry):
    (tmp_path / "edgeless.graph").write_text("directed\n3 0\n")
    (tmp_path / "p2.planar").write_text((corpus_dir / "p2.planar").read_text())
    true_entry = getattr(diagrams, entry)
    off_by_one = (0, 1, 1, 0)
    monkeypatch.setattr(diagrams, entry, lambda values: true_entry(values) + (tuple(values) == off_by_one))
    code, out, _ = run(capsys, "verify", str(tmp_path), "--n", "2000")
    assert code == cli.EXIT_VERIFY_FAILED
    assert [check_name(line) for line in out.splitlines() if line.startswith("FAIL")] == ["closed-form entries"]
    assert str(off_by_one) in out


def test_verify_fails_on_missing_corpus(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", str(tmp_path))
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAIL" in out


def test_verify_checks_edgeless_graphs(capsys, tmp_path, corpus_dir):
    (tmp_path / "edgeless.graph").write_text("directed\n3 0\n")
    (tmp_path / "p2.planar").write_text((corpus_dir / "p2.planar").read_text())
    code, out, _ = run(capsys, "verify", str(tmp_path), "--n", "2000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert {"name": "engine vs enumerator edgeless", "ok": True, "detail": "1 systems"} in data["checks"]


def test_verify_runs_the_engine_once_per_graph_and_reports_its_failure_twice(capsys, monkeypatch, tmp_path,
                                                                            corpus_dir):
    """The enumerator check and the counting invariants share one engine
    run; an engine that raises fails both checks, each with its own line."""
    for name in ("fig1.graph", "digon.graph", "p2.planar"):
        (tmp_path / name).write_text((corpus_dir / name).read_text())
    engine = partition.circuit_partition_polynomial
    calls = []

    def counted(g, **kwargs):
        calls.append(g)
        return engine(g, **kwargs)

    monkeypatch.setattr(partition, "circuit_partition_polynomial", counted)
    code, out, _ = run(capsys, "verify", str(tmp_path), "--n", "2000")
    assert code == 0
    assert len(calls) == len(set(calls)) == 2

    def broken(g, **kwargs):
        raise RuntimeError("engine down")

    monkeypatch.setattr(partition, "circuit_partition_polynomial", broken)
    code, out, _ = run(capsys, "verify", str(tmp_path), "--n", "2000", "--format", "json")
    assert code == cli.EXIT_VERIFY_FAILED
    failed = {check["name"]: check["detail"] for check in json.loads(out)["checks"] if not check["ok"]}
    assert failed == {f"{kind} {name}": "RuntimeError: engine down"
                      for kind in ("engine vs enumerator", "counting invariants") for name in ("digon", "fig1")}


def test_verify_reads_the_corpus_through_the_command_reader(capsys, tmp_path, corpus_dir):
    """An unreadable corpus file fails its own check with the reader's error."""
    (tmp_path / "edgeless.graph").write_text("directed\n3 0\n")
    (tmp_path / "p2.planar").write_text((corpus_dir / "p2.planar").read_text())
    (tmp_path / "unreadable.graph").mkdir()
    code, out, _ = run(capsys, "verify", str(tmp_path), "--n", "2000", "--format", "json")
    assert code == cli.EXIT_VERIFY_FAILED
    failed = [check for check in json.loads(out)["checks"] if not check["ok"]]
    assert [check["name"] for check in failed] == ["parse+roundtrip unreadable.graph"]
    assert failed[0]["detail"].startswith(f"GraphFormatError: cannot read {tmp_path / 'unreadable.graph'}: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "1", "error: --n must be >= 2, got 1\n"),
    ("--seed", "-5", "error: --seed must be in [0, 2**64), got -5\n"),
])
def test_verify_refuses_a_bad_sampling_argument_before_any_check(capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr(checks, "run_verification", lambda *args, **kwargs: pytest.fail("a check ran"))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", flag, value, "--format", fmt)
        assert (code, out, err) == (cli.EXIT_INPUT_ERROR, "", message)


def test_verify_json_shape(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", str(tmp_path), "--format", "json")
    assert code == cli.EXIT_VERIFY_FAILED
    data = json.loads(out)
    assert data["failures"] >= 1
    assert data["checks"][0]["name"] == "corpus present"


def _functions_called_by(argv: list[str]) -> set[str]:
    """Names of the circuitkit functions that `cli.main(argv)` calls on this thread."""
    package = str(Path(circuitkit.__file__).parent)
    called: set[str] = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        cli.main(argv)
    finally:
        sys.setprofile(None)
    return called


def test_every_operation_is_reachable_from_a_command(capsys, corpus_dir):
    graph, pmap = corpus("fig1.graph", corpus_dir), corpus("triangle.planar", corpus_dir)
    ensemble = ["--k", "2", "--ensemble", "complex-sphere"]
    argvs = {
        "j": ["j", graph],
        "q-predict": ["q-predict", graph, *ensemble],
        "q-estimate": ["q-estimate", graph, *ensemble, "--n", "100"],
        "q-exact": ["q-exact", graph, *ensemble],
        "medial": ["medial", pmap],
        "tutte": ["tutte", pmap, "--x", "2", "--y", "3"],
        "martin": ["martin", pmap, "--z", "2"],
        "verify": ["verify", "--n", "2000"],
    }
    assert argvs.keys() == subcommands().keys()
    called = set().union(*(_functions_called_by(argv) for argv in argvs.values()))
    capsys.readouterr()
    missing = [op for op in SPEC_OPERATIONS if op not in called]
    assert not missing


def test_main_in_process_leaves_the_heap_unfrozen(capsys, corpus_dir):
    """Only the process entry freezes the heap, just before the interpreter
    exits; a caller of main in process keeps collecting its garbage."""
    import gc

    before = gc.get_freeze_count()
    assert cli.main(["j", corpus("fig1.graph", corpus_dir)]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# Calls cli.run with each argv in turn, in a fresh interpreter, and prints
# the heap's freeze count after each (a SystemExit ends only that call).
_FROZEN_AFTER_RUN = """
import contextlib, gc, io, sys
from circuitkit import cli
for arg in sys.argv[1:]:
    sys.argv = ["circuitkit", *arg.split("\\t")]
    gc.unfreeze()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.run()
        except SystemExit:
            pass
    print(gc.get_freeze_count())
"""


def test_the_process_entry_freezes_the_heap_however_main_ends(corpus_dir):
    argvs = [["j", corpus("fig1.graph", corpus_dir)], ["--help"], ["j"],
             ["j", corpus("fig1.graph", corpus_dir), "--guard-enumeration", "1"]]
    env = dict(os.environ, PYTHONPATH=str(Path(circuitkit.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", _FROZEN_AFTER_RUN, *("\t".join(argv) for argv in argvs)],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    counts = [int(line) for line in done.stdout.split()]
    assert len(counts) == len(argvs) and min(counts) > 0


def test_only_the_named_subcommand_gets_its_options():
    """The parser adds every subcommand, so --help and an invalid choice list
    them all, but declares only the named one's options."""
    def options(command=None):
        return {name: [a.dest for a in p._actions] for name, p in subcommands(command).items()}

    full = options()
    for name in [*full, "no-such-command"]:
        assert options(name) == {other: full[other] if other == name else ["help"] for other in full}


def test_command_table_is_complete():
    assert subcommands().keys() == {"j", "q-predict", "q-estimate", "q-exact", "medial", "tutte", "martin", "verify"}


@pytest.mark.parametrize("flag, default", [
    ("--guard-enumeration", partition.DEFAULT_ENUMERATION_GUARD),
    ("--guard-subsets", planar.DEFAULT_SUBSET_GUARD),
])
def test_shared_guards_have_one_help_text(flag, default):
    helps = {name: p._get_formatter()._expand_help(action) for name, p in subcommands().items()
             for action in p._actions if flag in action.option_strings}
    assert len(helps) >= 2
    (text,) = set(helps.values())
    assert f"(default {default})" in text


def test_exact_output_of_any_length(capsys, tmp_path):
    # q = 2^(1-m) on the m-edge directed cycle at k = 2, complex-sphere; the
    # denominator has more digits than Python's default int-to-str limit.
    m = 15_000
    path = tmp_path / "cycle.graph"
    path.write_text(f"directed\n{m} {m}\n" + "".join(f"{u} {(u + 1) % m}\n" for u in range(m)))
    code, out, err = run(capsys, "q-predict", str(path), "--k", "2", "--ensemble", "complex-sphere")
    assert (code, err) == (0, "")
    with decimal.localcontext() as ctx:
        ctx.prec = 5000
        digits = str(decimal.Decimal(2) ** (m - 1))
    assert len(digits) == 4516
    assert out == f"1/{digits}\n"


HUGE = 7 ** 9000  # 7,606 digits, past Python's default int-to-str limit


def j_with_a_huge_coefficient(monkeypatch, capsys, corpus_dir, *argv) -> tuple[int, str, str]:
    """`j` on fig1 with an engine that returns the polynomial HUGE z."""
    monkeypatch.setattr(partition, "circuit_partition_polynomial",
                        lambda g, guard=None: partition.IntPolynomial((0, HUGE)))
    return run(capsys, "j", corpus("fig1.graph", corpus_dir), *argv)


def test_text_output_of_huge_coefficients(monkeypatch, capsys, corpus_dir):
    with decimal.localcontext() as ctx:
        ctx.prec = 8000
        digits = str(decimal.Decimal(7) ** 9000)
    assert j_with_a_huge_coefficient(monkeypatch, capsys, corpus_dir) == (0, f"0 {digits}\n", "")
    code, out, _ = j_with_a_huge_coefficient(monkeypatch, capsys, corpus_dir, "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", digits]


def test_json_round_trip_of_huge_coefficients(monkeypatch, capsys, corpus_dir):
    _, out, _ = j_with_a_huge_coefficient(monkeypatch, capsys, corpus_dir, "--format", "json")
    with cli.unlimited_int_digits():
        assert [int(c) for c in json.loads(out)["coefficients"]] == [0, HUGE]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_int_digit_limit_is_lifted_only_inside(monkeypatch, capsys, corpus_dir):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        with cli.unlimited_int_digits():
            assert sys.get_int_max_str_digits() == 0
        for fmt in ("text", "json"):
            assert j_with_a_huge_coefficient(monkeypatch, capsys, corpus_dir, "--format", fmt)[0] == 0
            assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(previous)


def test_graph_json_shape(fig1):
    data = cli.graph_to_json_dict(fig1)
    assert data["schema"] == "circuitkit/1"
    assert data["kind"] == "directed"
    assert data["edges"][0] == [0, 1]


def test_q_predict_honours_the_guard(capsys, corpus_dir):
    code, out, err = run(capsys, "q-predict", corpus("fig1.graph", corpus_dir), "--k", "2",
                         "--ensemble", "complex-sphere", "--guard-enumeration", "1")
    assert code == cli.EXIT_GUARD_EXCEEDED
    assert out == ""
    assert "guard" in err


def test_q_estimate_rejects_aliasing_arguments(capsys, corpus_dir):
    argv = ["q-estimate", corpus("fig1.graph", corpus_dir), "--k", "2",
            "--ensemble", "complex-sphere", "--n", "100"]
    for extra in (["--seed", "-1"], ["--seed", str(2**64)], ["--workers", "0"]):
        code, out, err = run(capsys, *argv, *extra)
        assert code == cli.EXIT_INPUT_ERROR
        assert out == ""
        assert "must be" in err
    code, out, _ = run(capsys, *argv, "--seed", str(2**64 - 1))
    assert code == 0
    assert f"seed={2**64 - 1})" in out


def test_q_estimate_refuses_an_oversized_workspace(capsys, tmp_path):
    """A 5,000-edge directed cycle at k = 2 would need gigabytes of chunk
    buffers per worker: refused with the guard's exit code, not a numpy
    MemoryError."""
    path = tmp_path / "cycle.graph"
    path.write_text("directed\n5000 5000\n" + "".join(f"{v} {(v + 1) % 5000}\n" for v in range(5000)))
    code, out, err = run(capsys, "q-estimate", str(path), "--k", "2", "--ensemble", "complex-sphere",
                         "--n", "100000")
    assert code == cli.EXIT_GUARD_EXCEEDED
    assert out == ""
    assert "bytes of chunk buffers per worker" in err and "guard is" in err


def test_q_estimate_warns_when_edge_products_underflow(capsys, tmp_path, corpus_dir):
    """Two vertices joined by 1,500 edges each way: the edge product is
    |<x_0, x_1>|^3000, which leaves the float range in most samples. The
    warning goes to stderr with the count; stdout and the exit code stay
    those of a plain run."""
    path = tmp_path / "thick.graph"
    path.write_text("directed\n2 3000\n" + "0 1\n1 0\n" * 1500)
    argv = ["q-estimate", str(path), "--k", "2", "--ensemble", "complex-sphere", "--n", "1000", "--seed", "3"]
    code, out, err = run(capsys, *argv)
    estimate = sampling.estimate_q(graphs.parse_graph(path.read_text()), 2, graphs.Ensemble.COMPLEX_SPHERE, 1000, 3)
    assert 0 < estimate.zero_products < 1000
    assert code == 0
    assert out == (f"mean = {estimate.mean.real!r} + {estimate.mean.imag!r}i +- {estimate.std_error!r}"
                   " (n=1000, seed=3)\n")
    assert err.startswith(f"warning: {estimate.zero_products} of 1000 sampled edge products are exactly 0.0")
    code, _, err = run(capsys, "q-estimate", corpus("fig1.graph", corpus_dir), *argv[2:])
    assert code == 0 and err == ""


def test_q_estimate_rejects_k_below_one(capsys, corpus_dir):
    for k in ("0", "-1"):
        code, out, err = run(capsys, "q-estimate", corpus("fig1.graph", corpus_dir), "--k", k,
                             "--ensemble", "complex-sphere", "--n", "100")
        assert code == cli.EXIT_INPUT_ERROR
        assert out == ""
        assert "k must be >= 1" in err


# Runs cli.main once per argv in a fresh interpreter, output discarded, and
# prints the names in sys.modules. Each argv arrives as one tab-joined
# argument, so the script itself loads nothing (json, say) that a command
# is checked for.
_LOADED_AFTER = """
import contextlib, io, sys
from circuitkit import cli
for arg in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(arg.split("\\t"))
        except SystemExit:
            pass
print("\\n".join(sys.modules))
"""

SAMPLING_ONLY = {"numpy", "concurrent.futures"}
ENGINES = {"circuitkit.partition", "circuitkit.diagrams", "circuitkit.planar", "circuitkit.sampling"}


def _modules_loaded_by(*argvs: list[str]) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(circuitkit.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", _LOADED_AFTER, *("\t".join(argv) for argv in argvs)],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return set(done.stdout.split())


def test_exact_commands_load_neither_numpy_nor_the_thread_pool(corpus_dir):
    graph, pmap = corpus("fig1.graph", corpus_dir), corpus("triangle.planar", corpus_dir)
    assert not _modules_loaded_by(
        ["--help"],
        ["j", graph],
        ["q-predict", graph, "--k", "2", "--ensemble", "complex-sphere"],
        ["q-exact", graph, "--k", "2", "--ensemble", "complex-sphere", "--format", "json"],
        ["medial", pmap],
        ["tutte", pmap, "--x", "2", "--y", "2"],
        ["martin", pmap, "--z", "3"],
    ) & SAMPLING_ONLY


def test_sampling_loads_numpy_and_only_a_parallel_run_the_thread_pool(corpus_dir):
    argv = ["q-estimate", corpus("fig1.graph", corpus_dir), "--k", "2",
            "--ensemble", "complex-sphere", "--n", "20000"]
    assert _modules_loaded_by(argv) & SAMPLING_ONLY == {"numpy"}
    assert _modules_loaded_by(argv + ["--workers", "2"]) & SAMPLING_ONLY == SAMPLING_ONLY


_RESOLVES_LAZILY = """
import sys
import circuitkit
assert not [m for m in sys.modules if m.startswith("circuitkit.")]
assert getattr(circuitkit, "planar") is sys.modules["circuitkit.planar"]
from circuitkit import estimate_q
assert estimate_q is sys.modules["circuitkit.sampling"].estimate_q
assert not hasattr(circuitkit, "no_such_name")
from circuitkit import *
assert sorted(set(dir(circuitkit)) & set(circuitkit.__all__)) == sorted(circuitkit.__all__)
"""


def test_the_package_resolves_its_names_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(circuitkit.__file__).parent.parent))
    subprocess.run([sys.executable, "-c", _RESOLVES_LAZILY], env=env, check=True, timeout=120)


# (argv, modules it must load, modules it must not load). Only verify loads
# circuitkit.checks, the oracles and the invariant suite; fractions, which
# loads decimal, only a command that makes a rational.
RATIONALS = {"fractions", "decimal"}
_IMPORT_BUDGETS = [
    (["--help"], set(), ENGINES | {"circuitkit.checks", "dataclasses", "json"} | RATIONALS),
    (["j", "--help"], set(), ENGINES | {"circuitkit.checks", "dataclasses", "json"} | RATIONALS),
    (["j", "fig1.graph"], {"circuitkit.partition"},
     ENGINES - {"circuitkit.partition"} | {"circuitkit.checks", "dataclasses", "json", "numpy"} | RATIONALS),
    (["q-predict", "fig1.graph", "--k", "2", "--ensemble", "complex-sphere"], {"circuitkit.sampling"},
     {"circuitkit.planar", "circuitkit.checks", "dataclasses", "json", "numpy"}),
    (["q-exact", "fig1.graph", "--k", "2", "--ensemble", "complex-sphere"], {"circuitkit.diagrams"},
     ENGINES - {"circuitkit.diagrams"} | {"circuitkit.checks", "dataclasses", "numpy"}),
    (["q-estimate", "fig1.graph", "--k", "2", "--ensemble", "complex-sphere", "--n", "2000"],
     {"circuitkit.sampling", "numpy"}, {"circuitkit.planar", "circuitkit.checks", "dataclasses"}),
    (["medial", "triangle.planar", "--format", "json"], {"circuitkit.planar", "json"},
     {"circuitkit.diagrams", "circuitkit.sampling", "circuitkit.checks", "dataclasses", "numpy"} | RATIONALS),
    (["tutte", "triangle.planar", "--x", "2", "--y", "3"], {"circuitkit.planar"},
     {"circuitkit.diagrams", "circuitkit.sampling", "circuitkit.checks", "dataclasses", "numpy"}),
    (["martin", "triangle.planar", "--z", "2"], {"circuitkit.planar"},
     {"circuitkit.diagrams", "circuitkit.sampling", "circuitkit.checks", "dataclasses", "numpy"}),
    (["verify", "--n", "2000"], {"circuitkit.checks"} | ENGINES, {"dataclasses"}),
]


@pytest.mark.parametrize("argv, loaded, absent", _IMPORT_BUDGETS, ids=[" ".join(b[0]) for b in _IMPORT_BUDGETS])
def test_a_command_loads_only_the_modules_it_runs(corpus_dir, argv, loaded, absent):
    """Start-up is most of a small command's wall time, so a command loads
    the engine it runs and nothing that only another command needs."""
    argv = [corpus(a, corpus_dir) if a.endswith((".graph", ".planar")) else a for a in argv]
    modules = _modules_loaded_by(argv)
    assert loaded <= modules
    assert not modules & absent, sorted(modules & absent)


def test_the_oracles_load_no_command_layer():
    """checks imports cli's formatters inside run_verification, so a caller
    of an oracle loads neither cli nor argparse."""
    env = dict(os.environ, PYTHONPATH=str(Path(circuitkit.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", "import sys, circuitkit.checks; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    assert not set(done.stdout.split()) & {"circuitkit.cli", "argparse"}
