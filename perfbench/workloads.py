"""The four workloads: seeded op lists with an exact check for every op.

A workload is a fixed list of op kinds. `Workload.make_round(r)` draws fresh
inputs for round r (new vertex labels, edge order, and the seeded choices
named per workload) and returns one op per kind, so every round costs the
same work and a run repeats whole rounds. Reference values depend only on
the graph family, never on the scramble, and are computed once in `build`.
"""

from __future__ import annotations

import json
import os
import random
import sys
from math import sqrt
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import ref

COMPLEX = ("complex-sphere", "complex-gaussian")
REAL = ("real-sphere", "real-gaussian")
MC_SAMPLES = 1_000_000
MC_MAX_SE = 5

# A check takes (exit code, stdout) and returns None or what was wrong.
Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    kind: str  # the same in every round
    argv: list[str]
    check: Check
    samples: int = 0
    all_cpus: bool = False  # runs worker threads: not pinned to one CPU
    # Ops sharing a pair key must print byte-identical stdout.
    pair: str | None = None
    detail: str = ""  # the seeded choices of this round

    @property
    def label(self) -> str:
        return f"{self.kind} {self.detail}".strip()


@dataclass
class Workload:
    name: str
    why: str
    # A run repeats at least this many rounds, more while time is left.
    # latency_tail_s is reported at the highest percentile with ten ops
    # beyond it in min_rounds rounds, so a faster program that fits more
    # rounds into the run is still compared at the same percentile.
    min_rounds: int
    make_round: Callable[[int], list[Op]]
    notes: list[str] = field(default_factory=list)
    seed: int = 0


def _rational(q: Fraction) -> str:
    """p/q as circuitkit prints it, for any size.

    Lifts the int-to-str digit limit only while formatting, so in-process
    ops still run under the interpreter's default limit.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def expect_stdout(expected: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if out.strip() != expected:
            got = out.strip()
            return f"printed {got[:80]!r}, expected {expected[:80]!r}"
        return None
    return check


def expect_martin(reference: Fraction) -> Check:
    want = _rational(reference)

    def check(code: int, out: str) -> str | None:
        fields = dict(part.split("=", 1) for part in out.split() if "=" in part)
        if fields.get("equal") != "true":
            return f"exit {code}, printed {out.strip()!r}"
        if fields.get("lhs") != want or fields.get("rhs") != want:
            return f"lhs={fields.get('lhs')} rhs={fields.get('rhs')}, expected {want}"
        return None if code == 0 else f"exit {code}"
    return check


def expect_estimate(q: Fraction, second_moment: Fraction, n: int, seed: int) -> Check:
    """The mean must lie within MC_MAX_SE exact standard errors of q.

    The exact standard error sqrt((E|p|^2 - q^2) / n) is used, not the
    printed one: on heavy-tailed products the sample standard deviation
    underestimates the true one many times over (see README.md).
    """
    se = sqrt((second_moment - q * q) / n)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        data = json.loads(out)
        if data["n"] != n or data["seed"] != seed:
            return f"echoed n={data['n']} seed={data['seed']}"
        if not data["std_error"] > 0:
            return f"printed std_error {data['std_error']}"
        deviation = abs(complex(data["mean_re"], data["mean_im"]) - float(q))
        if not deviation <= MC_MAX_SE * se:
            return f"|mean - {q}| = {deviation:.3g} > {MC_MAX_SE} exact se = {MC_MAX_SE * se:.3g}"
        return None
    return check


class _Files:
    """Writes op inputs under the work directory, one file per op kind, rewritten each round."""

    def __init__(self, workdir: Path, workload: str):
        self.dir = workdir / workload
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        """Returns the path relative to the working directory, the checkout root."""
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return os.path.relpath(path)


def _reference_j(n: int, edges: list[tuple[int, int]], directed: bool) -> list[int]:
    """j by the splitting recursion, cross-checked against sum r_t and BEST."""
    j = ref.j_poly(edges, directed)
    if sum(j) != ref.system_count(n, edges, directed):
        raise AssertionError("reference j: sum r_t != transition-system count")
    if directed and j[1] != ref.best_r1(n, edges):
        raise AssertionError("reference j: r_1 != BEST theorem")
    return j


def _j_dense(seed: int, files: _Files) -> Workload:
    families = [
        ("circ(5,3)", True, gen.directed_circulant(5, 3)),
        ("circ(3,4)", True, gen.directed_circulant(3, 4)),
        ("circ(6,3)", True, gen.directed_circulant(6, 3)),
        ("C_7(1,2)", False, gen.undirected_circulant(7)),
        ("C_8(1,2)", False, gen.undirected_circulant(8)),
    ]
    refs = {name: _reference_j(n, e, directed) for name, directed, (n, e) in families}

    def make_round(r: int) -> list[Op]:
        rng = random.Random(f"j-dense/{seed}/{r}")
        ops = []
        for name, directed, (n, edges) in families:
            kind = "directed" if directed else "undirected"
            for verb in ("j", "q-predict"):
                scrambled = gen.scramble(rng, n, edges, undirected=not directed)
                path = files.write(f"{name}.{verb}.graph", gen.graph_text(kind, n, scrambled))
                if verb == "j":
                    ops.append(Op(f"j {name}", ["j", path],
                                  expect_stdout(" ".join(map(str, refs[name])))))
                    continue
                k = rng.choice((2, 3))
                ensemble = rng.choice(COMPLEX if directed else REAL)
                q = ref.q_value(n, edges, directed, refs[name], k, ensemble)
                ops.append(Op(f"q-predict {name}",
                              ["q-predict", path, "--k", str(k), "--ensemble", ensemble],
                              expect_stdout(_rational(q)), detail=f"k={k} {ensemble}"))
        return ops

    return Workload(
        "j-dense",
        "small dense Eulerian graphs with 2,187 to 46,656 transition systems each: "
        "the j engine (partition) does over 90% of the work",
        min_rounds=3, make_round=make_round,
        notes=[f"{name}: {ref.system_count(n, e, d)} systems, j = {refs[name]}"
               for name, d, (n, e) in families])


SPARSE_M_DIRECTED = 20_000
SPARSE_M_UNDIRECTED = 1_000


def _j_sparse(seed: int, files: _Files) -> Workload:
    def make_round(r: int) -> list[Op]:
        rng = random.Random(f"j-sparse/{seed}/{r}")
        ops = []
        cases = [(True, SPARSE_M_DIRECTED, t) for t in range(4)]
        cases += [(False, SPARSE_M_UNDIRECTED, t) for t in range(2)]
        for directed, m, t in cases:
            n, edges = gen.cycle_with_loops(m, rng.sample(range(m), t))
            kind = "directed" if directed else "undirected"
            scrambled = gen.scramble(rng, n, edges, undirected=not directed)
            path = files.write(f"cycle-{kind}-{t}.graph", gen.graph_text(kind, n, scrambled))
            j = ref.j_cycle_loops_directed(t) if directed else ref.j_cycle_loops_undirected(t)
            ops.append(Op(f"j {kind} {m}-cycle + {t} loops", ["j", path],
                          expect_stdout(" ".join(map(str, j)))))
        n, edges = gen.directed_path(SPARSE_M_DIRECTED)
        path = files.write("path.graph", gen.graph_text("directed", n, gen.scramble(rng, n, edges, False)))
        k, ensemble = rng.choice((2, 3)), rng.choice(COMPLEX)
        ops.append(Op(f"q-predict directed {SPARSE_M_DIRECTED}-path",
                      ["q-predict", path, "--k", str(k), "--ensemble", ensemble],
                      expect_stdout("0/1"), detail=f"k={k} {ensemble}"))
        return ops

    return Workload(
        "j-sparse",
        "large graphs with 1 to 8 transition systems: parsing, polynomial "
        "construction and per-system setup dominate instead of enumeration",
        min_rounds=3, make_round=make_round,
        notes=[f"j on a {SPARSE_M_DIRECTED}-edge directed cycle with t = 0..3 loops (j = z(1+z)^t)",
               f"j on a {SPARSE_M_UNDIRECTED}-edge undirected cycle with t = 0, 1 loops (j = z(z+2)^t)",
               f"q-predict on a {SPARSE_M_DIRECTED}-edge directed path (not Eulerian, q = 0)"])


def known_defect_probe(seed: int, workdir: Path) -> Op:
    """q-predict at k=2 on the 20,000-edge directed cycle.

    The exact answer 2^(1-m) has about 6,000 digits in its denominator,
    past Python's default int-to-str limit, so the seed code exits 2 with
    "Exceeds the limit (4300 digits) for integer string conversion".
    It runs once per j-sparse run outside the timed loop; see README.md.
    """
    files = _Files(workdir, "j-sparse")
    rng = random.Random(f"j-sparse-probe/{seed}")
    n, edges = gen.cycle_with_loops(SPARSE_M_DIRECTED, [])
    path = files.write("probe.graph", gen.graph_text("directed", n, gen.scramble(rng, n, edges, False)))
    q = ref.q_value(n, edges, True, ref.j_cycle_loops_directed(0), 2, "complex-sphere")
    return Op("q-predict directed 20000-cycle k=2 complex-sphere",
              ["q-predict", path, "--k", "2", "--ensemble", "complex-sphere"],
              expect_stdout(_rational(q)))


def _oracles(seed: int, files: _Files) -> Workload:
    exact_cases = [  # (name, directed, graph, k): k^m from 4,096 to 262,144
        ("circ(6,2)", True, gen.directed_circulant(6, 2), 2),
        ("circ(4,2)", True, gen.directed_circulant(4, 2), 4),
        ("circ(3,3)", True, gen.directed_circulant(3, 3), 4),
        ("C_6(1,2)", False, gen.undirected_circulant(6), 2),
        ("C_5(1,2)", False, gen.undirected_circulant(5), 3),
        ("C_9(1,2)", False, gen.undirected_circulant(9), 2),
    ]
    refs = {name: _reference_j(n, e, d) for name, d, (n, e), _ in exact_cases}
    maps = [("grid 3x3", gen.grid_map(3, 3)), ("grid 2x5", gen.grid_map(2, 5))]
    tuttes = {name: {z: z ** ref.components(n, e) * ref.tutte(n, e, z + 1, z + 1) for z in (1, 2, 3)}
              for name, (n, e, _) in maps}

    def make_round(r: int) -> list[Op]:
        rng = random.Random(f"oracles/{seed}/{r}")
        ops = []
        for name, directed, (n, edges), k in exact_cases:
            ensemble = rng.choice(COMPLEX if directed else REAL)
            kind = "directed" if directed else "undirected"
            path = files.write(f"{name}.graph",
                               gen.graph_text(kind, n, gen.scramble(rng, n, edges, not directed)))
            q = ref.q_value(n, edges, directed, refs[name], k, ensemble)
            ops.append(Op(f"q-exact {name} k={k}",
                          ["q-exact", path, "--k", str(k), "--ensemble", ensemble],
                          expect_stdout(_rational(q)), detail=ensemble))
        for name, (n, edges, rotation) in maps:
            for copy in range(2):
                z = rng.choice((1, 2, 3))
                e2, rot2 = gen.scramble_map(rng, n, edges, rotation)
                path = files.write(f"{name}.{copy}.planar", gen.graph_text("planar", n, e2, rot2))
                ops.append(Op(f"martin {name}", ["martin", path, "--z", str(z)],
                              expect_martin(Fraction(tuttes[name][z])), detail=f"z={z}"))
        return ops

    return Workload(
        "oracles",
        "the exact checks: k^m contraction (diagrams) and the Martin identity "
        "(planar subset expansion, component_count per subset, j on medial graphs)",
        min_rounds=4, make_round=make_round,
        notes=[f"q-exact {name}: k={k}, k^m = {k ** len(e)}" for name, _, (_, e), k in exact_cases]
        + [f"martin {name}: m = {len(e)}, 2^m = {2 ** len(e)} subsets and medial systems"
           for name, (_, e, _) in maps])


def _montecarlo(seed: int, files: _Files, workers: int) -> Workload:
    fig1 = gen.fig1()
    c6 = gen.undirected_circulant(6)
    digon = gen.thick_digon(16)
    specs = [  # (name, directed, graph, k, ensemble)
        ("fig1", True, fig1, 2, "complex-sphere"),
        ("fig1", True, fig1, 3, "complex-gaussian"),
        ("digon16", True, digon, 2, "complex-sphere"),
        ("C_6(1,2)", False, c6, 3, "real-sphere"),
        ("C_6(1,2)", False, c6, 3, "real-gaussian"),
    ]
    cases = []  # specs plus the exact q and the exact E|p|^2
    for name, directed, (n, edges), k, ensemble in specs:
        # |p|^2 is the edge product of G with every edge doubled: reversed
        # for complex ensembles (conjugation), repeated for real ones.
        doubled = edges + ([(v, u) for u, v in edges] if directed else edges)
        q = ref.q_value(n, edges, directed, _reference_j(n, edges, directed), k, ensemble)
        m2 = ref.q_value(n, doubled, directed, _reference_j(n, doubled, directed), k, ensemble)
        cases.append((name, directed, (n, edges), k, ensemble, q, m2))
    if cases[2][5] != ref.q_thick_digon(16, 2):
        raise AssertionError("reference q of the thick digon != d!(k-1)!/(k+d-1)!")

    def make_round(r: int) -> list[Op]:
        rng = random.Random(f"montecarlo/{seed}/{r}")
        ops = []
        for i, (name, directed, (n, edges), k, ensemble, q, m2) in enumerate(cases):
            kind = "directed" if directed else "undirected"
            path = files.write(f"{name}.{i}.graph",
                               gen.graph_text(kind, n, gen.scramble(rng, n, edges, not directed)))
            mc_seed = rng.randrange(2**63)
            for w in (1, workers):
                ops.append(Op(f"q-estimate {name} k={k} {ensemble} workers={w}",
                              ["q-estimate", path, "--k", str(k), "--ensemble", ensemble,
                               "--n", str(MC_SAMPLES), "--seed", str(mc_seed),
                               "--workers", str(w), "--format", "json"],
                              expect_estimate(q, m2, MC_SAMPLES, mc_seed),
                              samples=MC_SAMPLES, pair=f"{r}/{i}", all_cpus=w > 1))
        return ops

    return Workload(
        "montecarlo",
        "q-estimate at 10^6 samples, once at 1 worker and once at nproc: the only "
        "workload that runs sampling and threads; draw-bound and product-bound cases",
        min_rounds=2, make_round=make_round,
        notes=[f"{name} k={k} {ensemble}: exact q = {_rational(q)}, "
               f"exact se at n = {MC_SAMPLES} is {sqrt((m2 - q * q) / MC_SAMPLES):.3g}"
               for name, _, _, k, ensemble, q, m2 in cases]
        + [f"workers = 1 and {workers} (nproc)"])


NAMES = ("j-dense", "j-sparse", "oracles", "montecarlo")


def build(name: str, seed: int, workdir: Path, workers: int) -> Workload:
    files = _Files(workdir, name)
    if name == "j-dense":
        wl = _j_dense(seed, files)
    elif name == "j-sparse":
        wl = _j_sparse(seed, files)
    elif name == "oracles":
        wl = _oracles(seed, files)
    elif name == "montecarlo":
        wl = _montecarlo(seed, files, workers)
    else:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")
    wl.seed = seed
    return wl
