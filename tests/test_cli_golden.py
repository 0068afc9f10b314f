"""Byte-identity of the command line: every case replays `cli.main` in
process and compares its stdout, stderr and exit code with the ones
recorded in cli_golden.json.

The cases run every subcommand in text and json on every bundled corpus
file and on a few files that each command must refuse or handle at an edge
(FILES), one refusal per --guard-* flag, `verify` on the bundled corpus and
on two corpora that add a file to it, and `--help` and each subcommand's
help at COLUMNS=80. Help text is compared only on the Python minor version
that recorded it, since argparse's layout changes between versions. A few
cases, and argparse's usage errors, also run through the process entry,
`python -m circuitkit`, in a fresh interpreter.

After a deliberate output change, record the file again from the root of
the repository and review its diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from circuitkit import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
CORPUS = cli.bundled_corpus_dir()
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

FILES = {
    "non_eulerian.graph": "directed\n2 1\n0 1\n",
    "non_eulerian_undirected.graph": "undirected\n3 5\n0 1\n1 2\n0 1\n1 2\n0 2\n",
    "non_plane.planar": "planar\n1 2\n0 0\n0 0\n0 2 1 3\n",
    "repeated_dart.planar": "planar\n1 1\n0 0\n0 0\n",
    "byte_order_mark.graph": "\ufeffdirected\n1 1\n0 0\n",
}
# Corpora for `verify`: the bundled one plus these files.
CORPORA = {
    "corpus_non_eulerian": ["non_eulerian.graph", "non_eulerian_undirected.graph"],
    "corpus_byte_order_mark": ["byte_order_mark.graph"],
}
ENSEMBLES = ["complex-sphere", "complex-gaussian", "real-sphere", "real-gaussian"]
SUBCOMMANDS = ["j", "q-predict", "q-estimate", "q-exact", "medial", "tutte", "martin", "verify"]


def cases() -> list[list[str]]:
    """The argv of each case, paths written as {corpus}/name and {files}/name."""
    inputs = ([f"{{corpus}}/{p.name}" for p in sorted(CORPUS.glob("*.graph")) + sorted(CORPUS.glob("*.planar"))]
              + [f"{{files}}/{name}" for name in FILES])
    commands = []
    for path in inputs:
        commands.append(["j", path])
        for ensemble in ENSEMBLES:
            commands.append(["q-predict", path, "--k", "2", "--ensemble", ensemble])
            commands.append(["q-exact", path, "--k", "2", "--ensemble", ensemble])
            commands.append(["q-estimate", path, "--k", "2", "--ensemble", ensemble, "--n", "2000"])
        commands.append(["medial", path])
        commands.append(["tutte", path, "--x", "2", "--y", "-1/2"])
        commands.append(["martin", path, "--z", "3/2"])
    commands.append(["j", "{corpus}/fig1.graph", "--guard-enumeration", "1"])
    commands.append(["q-exact", "{corpus}/fig1.graph", "--k", "2", "--ensemble", "complex-sphere",
                     "--guard-contraction", "1"])
    commands.append(["tutte", "{corpus}/hexmap.planar", "--x", "2", "--y", "2", "--guard-subsets", "1"])
    for corpus in ["{corpus}", *(f"{{files}}/{name}" for name in CORPORA)]:
        commands.append(["verify", corpus, "--n", "2000"])
    return ([argv + ["--format", fmt] for argv in commands for fmt in ("text", "json")]
            + [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS])


def write_files(root: Path) -> None:
    """FILES and CORPORA under root."""
    for name, text in FILES.items():
        (root / name).write_bytes(text.encode("utf-8"))
    for corpus, names in CORPORA.items():
        shutil.copytree(CORPUS, root / corpus, ignore=shutil.ignore_patterns("__pycache__"))
        for name in names:
            shutil.copy(root / name, root / corpus / name)


def replay(argv: list[str], files: Path) -> dict:
    """stdout, stderr and exit code of `circuitkit argv` run in process."""
    resolved = [arg.format(corpus=CORPUS, files=files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(resolved)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    write_files(root)
    return root


def test_golden_cases_are_the_generated_ones(golden):
    assert [case["argv"] for case in golden["cases"]] == cases()


@pytest.mark.parametrize("index, argv", enumerate(cases()), ids=[" ".join(argv) for argv in cases()])
def test_output_is_byte_identical(index, argv, golden, files, monkeypatch):
    if "--help" in argv and golden["python"] != PYTHON:
        pytest.skip(f"help recorded on Python {golden['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    case = golden["cases"][index]
    assert replay(argv, files) == {"code": case["code"], "stdout": case["stdout"], "stderr": case["stderr"]}


# Run once more through the process entry, `python -m circuitkit`, in a fresh
# interpreter: a success, an input error, a guard refusal and the help.
PROCESS_CASES = [
    ["j", "{corpus}/fig1.graph", "--format", "text"],
    ["martin", "{corpus}/hexmap.planar", "--z", "3/2", "--format", "json"],
    ["medial", "{corpus}/fig1.graph", "--format", "text"],
    ["tutte", "{corpus}/hexmap.planar", "--x", "2", "--y", "2", "--guard-subsets", "1", "--format", "text"],
    ["--help"],
]


def run_process(argv: list[str], files: Path) -> dict:
    """stdout, stderr and exit code of `python -m circuitkit argv`."""
    resolved = [arg.format(corpus=CORPUS, files=files) for arg in argv]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(cli.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "circuitkit", *resolved], env=env, capture_output=True,
                          timeout=120)
    return {"code": done.returncode, "stdout": done.stdout.decode("utf-8"), "stderr": done.stderr.decode("utf-8")}


@pytest.mark.parametrize("argv", PROCESS_CASES, ids=" ".join)
def test_the_process_entry_prints_the_golden_bytes(argv, golden, files):
    if "--help" in argv and golden["python"] != PYTHON:
        pytest.skip(f"help recorded on Python {golden['python']}")
    case = golden["cases"][cases().index(argv)]
    assert run_process(argv, files) == {"code": case["code"], "stdout": case["stdout"], "stderr": case["stderr"]}


@pytest.mark.parametrize("argv", [["j"], ["q-exact", "x.graph", "--k", "two"], ["no-such-command"], []],
                         ids=" ".join)
def test_the_process_entry_exits_on_a_usage_error_as_in_process(argv, files, monkeypatch):
    """argparse's usage errors leave main by SystemExit(2), which the process
    entry passes on unchanged."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = replay(argv, files)
    assert expected["code"] == 2 and expected["stderr"]
    assert run_process(argv, files) == expected


def record() -> None:
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        recorded = [{"argv": argv, **replay(argv, Path(tmp))} for argv in cases()]
    GOLDEN.write_text(json.dumps({"python": PYTHON, "cases": recorded}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
