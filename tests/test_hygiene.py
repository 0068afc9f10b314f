"""Static hygiene of the package source: no unused imports, no private
machinery without a caller, no public definition that no package module
reads (an export alone is not a caller) and no public method that none
reads as an attribute, an export list that resolves, a contraction oracle
that imports nothing from the modules it checks, no engine module that
imports the oracles in checks, one vertex-order planner, one pairing-loop
count, one slot table of half-edges, one place in sampling that builds a
numpy generator (_chunk_rng) and one generator method it draws by
(standard_normal), one plane check (only
PlanarMap's constructor raises EmbeddingError), a map side that takes only
the engine from partition, averaging code in sampling that names nothing of
partition or checks, one module that lifts the int-digit limit for
printing, no module that loads the sampling-only dependencies at import
time, no module that imports dataclasses (which loads inspect, a start-up
cost every command would pay), a heap frozen by the process entry
alone, and a branch on the graph kind only where the kinds differ (each
on an allowlist with its reason). Which modules each command loads at
run time is checked in tests/test_cli.py.

Uses the standard library's ast module, and numpy only for the names of
its generator's methods.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import circuitkit

PACKAGE_DIR = Path(circuitkit.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_loaded(nodes, skip: ast.AST | None = None, attributes: bool = False) -> set[str]:
    """Every name read under `nodes`, leaving out the subtree `skip`; with
    `attributes`, also every attribute read (`graphs.parse_graph`)."""
    found: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif attributes and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    used = _names_loaded(tree.body)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_have_a_caller(path):
    tree = _tree(path)
    orphans = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                and not node.name.startswith("__")):
            if node.name not in _names_loaded(tree.body, skip=node):
                orphans.append(node.name)
    assert not orphans, f"{path.name}: private definitions without a caller {orphans}"


def test_public_definitions_are_exported_or_used():
    """A public top-level function or class is read by some package module;
    otherwise it is machinery without a caller, even if circuitkit exports
    it. Helpers that only tests need live in the tests."""
    trees = {path: _tree(path) for path in MODULES}
    orphans = []
    for path, tree in trees.items():
        read_elsewhere = set().union(*(_names_loaded(t.body, attributes=True)
                                       for p, t in trees.items() if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in read_elsewhere
                    and node.name not in _names_loaded(tree.body, skip=node, attributes=True)):
                orphans.append(f"{path.stem}.{node.name}")
    assert not orphans, f"public definitions that no package module reads: {orphans}"


def _attributes_read(nodes, skip: ast.AST) -> set[str]:
    """Every attribute read under `nodes` (`g.degrees`), leaving out the subtree `skip`."""
    found: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_public_methods_have_a_reader():
    """A public method or property of a package class is read as an
    attribute by some package module outside its own definition."""
    trees = {path: _tree(path) for path in MODULES}
    orphans = []
    for path, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and not any(node.name in _attributes_read(t.body, skip=node) for t in trees.values())):
                    orphans.append(f"{path.stem}.{cls.name}.{node.name}")
    assert not orphans, f"public methods that no package module reads: {orphans}"


def test_every_exported_name_resolves():
    assert len(set(circuitkit.__all__)) == len(circuitkit.__all__)
    missing = [name for name in circuitkit.__all__ if not hasattr(circuitkit, name)]
    assert not missing


def _modules_imported(tree: ast.Module) -> set[str]:
    """Dotted paths of the modules that any import in `tree` names, at module
    level or inside a function; relative imports (`from .x import y`,
    `from . import x`) resolve under circuitkit."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "circuitkit" + ("." + module if module else "")
            found.update([module] if module != "circuitkit" else [f"circuitkit.{a.name}" for a in node.names])
    return found


def _package_modules_imported(tree: ast.Module) -> set[str]:
    """First components of the circuitkit modules that any import in `tree` names."""
    return {path.split(".")[1] for path in _modules_imported(tree) if path.startswith("circuitkit.")}


@pytest.mark.parametrize("source, expected", [
    ("from .partition import circuit_count", {"partition"}),
    ("from . import sampling, graphs", {"sampling", "graphs"}),
    ("def f():\n    from circuitkit.planar import faces", {"planar"}),
    ("import circuitkit.partition as p", {"partition"}),
    ("from .errors import GuardExceededError\nimport itertools", {"errors"}),
])
def test_import_scan_sees_every_form(source, expected):
    assert _package_modules_imported(ast.parse(source)) == expected


def test_the_contraction_oracle_imports_no_circuit_reasoning():
    """contract_q_exact checks the partition engine only while it shares no
    code with it: diagrams may not import partition, sampling or planar,
    at module level or inside a function."""
    imported = _package_modules_imported(_tree(PACKAGE_DIR / "diagrams.py"))
    assert not imported & {"partition", "sampling", "planar"}, sorted(imported)


def test_graphs_is_the_only_order_planner():
    """The three exact sweeps, the j engine (partition), the contraction
    oracle (diagrams) and the Tutte sweep (planar), read their vertex order
    and step tables from graphs.sweep_plan, so no other module keeps a heap
    or names max_adjacency_order, and a new planner changes one function."""
    users = [path.stem for path in MODULES
             if any(name == "heapq" or name.startswith("heapq.") for name in _modules_imported(_tree(path)))]
    assert users == ["graphs"]

    def named(path: Path) -> set[str]:  # names read, attributes read and names imported
        tree = _tree(path)
        return _names_loaded(tree.body, attributes=True) | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}

    assert [path.stem for path in MODULES if "sweep_plan" in named(path)] == ["diagrams", "partition", "planar"]
    assert [path.stem for path in MODULES if path.stem != "graphs" and "max_adjacency_order" in named(path)] == []


def _halves_a_cycle_count(tree: ast.AST) -> bool:
    """Whether some division, floor division or right shift in `tree` has a
    permutation_cycles call on its left."""
    return any(isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.RShift))
               and "permutation_cycles" in _names_loaded([node.left], attributes=True)
               for node in ast.walk(tree))


@pytest.mark.parametrize("source, expected", [
    ("n = len(permutation_cycles(s)) // 2", True),
    ("n = len(graphs.permutation_cycles(s)) >> 1", True),
    ("n = len(permutation_cycles([p[t] for t in twin])) / 2", True),
    ("n = len(permutation_cycles(s))", False),
    ("n = len(s) // 2", False),
])
def test_halving_scan_sees_every_form(source, expected):
    assert _halves_a_cycle_count(ast.parse(source)) == expected


def test_checks_is_the_only_pairing_loop_count():
    """Transition-system circuits and diagram closure loops are both half the
    cycles of one walk on paired points, so checks, home of
    pairing_loop_count, is the one module that halves a permutation_cycles
    count."""
    assert [path.stem for path in MODULES if _halves_a_cycle_count(_tree(path))] == ["checks"]


ENGINES = ("graphs", "partition", "diagrams", "planar", "sampling")


def test_no_engine_imports_the_oracles():
    """The oracles in checks are independent of the engines they check and
    only verify and the tests call them, so no engine module imports checks,
    at module level or inside a function, and no command but verify
    compiles them."""
    importers = [name for name in ENGINES if "checks" in _package_modules_imported(_tree(PACKAGE_DIR / f"{name}.py"))]
    assert importers == []


def _defined_names(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names at the top level of `tree`."""
    found = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return found


# The code in sampling that chooses the averaged-out set I and evaluates its
# members' local sums.
AVERAGING = ("_anchored", "_pairings", "_batch_products")


def test_the_averaging_code_names_nothing_from_partition_or_checks():
    """A member's local sum happens to equal the transitions at its vertex,
    but the sampler traces no circuit and reads no oracle: the averaging
    code names neither module nor anything either defines."""
    tree = _tree(PACKAGE_DIR / "sampling.py")
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in AVERAGING]
    assert sorted(f.name for f in functions) == sorted(AVERAGING)
    foreign = {"partition", "checks"} | _defined_names(_tree(PACKAGE_DIR / "partition.py")) | _defined_names(
        _tree(PACKAGE_DIR / "checks.py"))
    assert not _names_loaded(functions, attributes=True) & foreign


def test_the_map_side_takes_only_the_engine_from_partition():
    """The Martin identity compares the engine's j on medial graphs with the
    Tutte side, so planar may import circuit_partition_polynomial and nothing
    else from partition: its faces, medial graphs and Tutte frontier sweep
    use no transition-system machinery (nor does the subset walk, which
    lives in checks with the other oracles)."""
    taken = []
    for node in ast.walk(_tree(PACKAGE_DIR / "planar.py")):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "partition" in _package_modules_imported(ast.Module(body=[node], type_ignores=[]))):
            taken.append(ast.unparse(node))
    assert taken == ["from .partition import circuit_partition_polynomial"]


def _reads_a_half_edge_end(tree: ast.AST) -> bool:
    """Whether `tree` takes `& 1` of a value (which end of its edge a
    half-edge sits at) or calls half_edge_vertex."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                and any(isinstance(side, ast.Constant) and side.value == 1 for side in (node.left, node.right))):
            return True
        if isinstance(node, ast.Call) and "half_edge_vertex" in _names_loaded([node.func], attributes=True):
            return True
    return False


@pytest.mark.parametrize("source, expected", [
    ("heads = [h for h in at[v] if h & 1]", True),
    ("tails = [h for h in at[v] if not 1 & h]", True),
    ("at.setdefault(g.half_edge_vertex(h), [])", True),
    ("w = half_edge_vertex(h)", True),
    ("e, twin = h >> 1, h ^ 1", False),
    ("mask = bits & 3", False),
])
def test_half_edge_end_scan_sees_every_form(source, expected):
    assert _reads_a_half_edge_end(ast.parse(source)) == expected


def test_graphs_is_the_only_slot_table():
    """g.half_edges() lists each vertex's half-edges in slot order, a
    directed vertex's heads before its tails, so the transition systems and
    the contraction oracle read slots by position there and no other module
    works out a half-edge's end for itself."""
    assert [path.stem for path in MODULES if _reads_a_half_edge_end(_tree(path))] == ["graphs"]


def _names_embedding_error(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "EmbeddingError")
            or (isinstance(node, ast.Attribute) and node.attr == "EmbeddingError"))


def _sites(tree: ast.Module, marked) -> set[str]:
    """Dotted paths of the classes and functions around each node of `tree`
    that `marked` accepts; "<module>" outside any of them."""
    sites: set[str] = set()
    stack: list[tuple[ast.AST, tuple[str, ...]]] = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path += (node.name,)
        if marked(node):
            sites.add(".".join(path) or "<module>")
        stack.extend((child, path) for child in ast.iter_child_nodes(node))
    return sites


def _embedding_error_sites(tree: ast.Module) -> set[str]:
    """The sites (see _sites) where `tree` makes an EmbeddingError or raises
    the class itself."""
    return _sites(tree, lambda node: (
        (isinstance(node, ast.Call) and _names_embedding_error(node.func))
        or (isinstance(node, ast.Raise) and node.exc is not None and _names_embedding_error(node.exc))))


@pytest.mark.parametrize("source, expected", [
    ("class M:\n    def __init__(self):\n        raise EmbeddingError('x')", {"M.__init__"}),
    ("def f():\n    raise errors.EmbeddingError('x') from None", {"f"}),
    ("def f():\n    raise EmbeddingError", {"f"}),
    ("def f():\n    error = EmbeddingError('x')\n    return error", {"f"}),
    ("def f():\n    def g():\n        raise EmbeddingError('x')", {"f.g"}),
    ("raise EmbeddingError('x')", {"<module>"}),
    ("try:\n    f()\nexcept EmbeddingError:\n    raise ValueError('x')", set()),
    ("class EmbeddingError(ValueError):\n    pass", set()),
])
def test_embedding_error_scan_sees_every_form(source, expected):
    assert _embedding_error_sites(ast.parse(source)) == expected


def test_planar_map_is_the_only_plane_check():
    """A rotation system becomes a plane map in PlanarMap.__init__ alone, so
    every map a reader gets has passed the Euler test and no other code
    decides planarity."""
    sites = {f"{path.stem}.{site}" for path in MODULES for site in _embedding_error_sites(_tree(path))}
    assert sites == {"planar.PlanarMap.__init__"}


def _freeze_sites(tree: ast.Module) -> set[str]:
    """The sites (see _sites) where `tree` reads gc.freeze or imports it from gc."""
    return _sites(tree, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr == "freeze"
         and isinstance(node.value, ast.Name) and node.value.id == "gc")
        or (isinstance(node, ast.ImportFrom) and node.module == "gc"
            and any(alias.name == "freeze" for alias in node.names))))


@pytest.mark.parametrize("source, expected", [
    ("import gc\ngc.freeze()", {"<module>"}),
    ("def run():\n    try:\n        pass\n    finally:\n        gc.freeze()", {"run"}),
    ("def f():\n    from gc import freeze\n    freeze()", {"f"}),
    ("class A:\n    def f(self):\n        g = gc.freeze", {"A.f"}),
    ("def f():\n    gc.collect()\n    gc.get_freeze_count()", set()),
])
def test_freeze_scan_sees_every_form(source, expected):
    assert _freeze_sites(ast.parse(source)) == expected


def test_only_the_process_entry_freezes_the_heap():
    """gc.freeze stops the collector from ever reclaiming what is loaded, so
    only cli.run, which the interpreter leaves right after, may call it;
    callers of cli.main in process keep a heap that is collected."""
    sites = {f"{path.stem}.{site}" for path in sorted(PACKAGE_DIR.glob("*.py")) for site in _freeze_sites(_tree(path))}
    assert sites == {"cli.run"}


KINDS = ("DirectedMultigraph", "UndirectedMultigraph")


def _kind_branch_sites(tree: ast.Module) -> set[str]:
    """The sites (see _sites) where `tree` tests a value against a graph
    kind: isinstance or issubclass with a kind class, by name, attribute,
    tuple or import alias; `type(g) is` a kind class; or `g.kind ==` a
    string."""
    kinds = set(KINDS) | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                          for alias in node.names if alias.name in KINDS and alias.asname}

    def names_kind(node: ast.AST) -> bool:
        return any((isinstance(n, ast.Name) and n.id in kinds) or (isinstance(n, ast.Attribute) and n.attr in KINDS)
                   for n in ast.walk(node))

    def branches(node: ast.AST) -> bool:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            return names_kind(node.args[1])
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            return ((any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "type"
                         for n in sides) and any(names_kind(n) for n in sides))
                    or any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in sides))
        return False

    return _sites(tree, branches)


@pytest.mark.parametrize("source, expected", [
    ("def f(g):\n    return isinstance(g, DirectedMultigraph)", {"f"}),
    ("class A:\n    def f(self):\n        return isinstance(self, graphs.UndirectedMultigraph)", {"A.f"}),
    ("def f(g):\n    return isinstance(g, (ck.graphs.DirectedMultigraph, int))", {"f"}),
    ("from .graphs import DirectedMultigraph as D\ndef f(g):\n    return isinstance(g, D)", {"f"}),
    ("def f(c):\n    return issubclass(c, UndirectedMultigraph)", {"f"}),
    ("def f(g):\n    return type(g) is DirectedMultigraph", {"f"}),
    ("def f(g):\n    return g.kind == 'directed'", {"f"}),
    ("x = isinstance(g, DirectedMultigraph)", {"<module>"}),
    ("def f(g):\n    return isinstance(g, Multigraph)", set()),
    ("def f(n):\n    return DirectedMultigraph(n, ())", set()),
    ("def f(g):\n    return {'kind': g.kind}", set()),
])
def test_kind_branch_scan_sees_every_form(source, expected):
    assert _kind_branch_sites(ast.parse(source)) == expected


# Every function that branches on the graph kind, with the reason the kinds
# differ there. A job both kinds share has one code path, so a per-kind copy
# of it shows up here as a new site.
KIND_BRANCHES = {
    "graphs.Multigraph.half_edges": "the slot order: a directed vertex lists its heads before its tails",
    "graphs.eulerian_check": "balance vs parity: in-degree equals out-degree, or the degree is even",
    "partition.transition_system_count": "d! vs (2d-1)!! transitions at a vertex",
    "partition._contract": "the measured splice fork: the directed splice runs at C speed (see its docstring)",
    "partition.circuit_partition_polynomial": "the split's entering half-edge, a loop's halves, the core's edge code",
    "diagrams.contract_q_exact": "the permutation vs the matching entry",
    "diagrams.ensure_ensemble_matches": "the pairing check: directed graphs with complex ensembles",
    "checks.product_of_inner_products": "the conjugated tail of a directed edge's inner product",
    "sampling._anchored": "balance vs parity, and a member's local sum: a permanent vs a hafnian",
    "checks.enumerate_transition_systems": "the wiring forms: permutations vs perfect matchings",
    "checks.circuit_count": "the wiring forms: permutations vs perfect matchings",
    "checks.run_verification": "the ensembles verify runs, by the pairing check's rule",
    "cli.cmd_tutte": "Tutte needs an undirected graph",
}


def test_kind_branches_are_the_allowlisted_ones():
    sites = {f"{path.stem}.{site}" for path in MODULES for site in _kind_branch_sites(_tree(path))}
    assert sites == set(KIND_BRANCHES)


def _names_mentioned(tree: ast.Module) -> set[str]:
    """Every name, attribute and string constant anywhere in `tree`; the
    last so that getattr(sys, "...") counts too."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_only_the_command_layer_lifts_the_int_digit_limit():
    """Exact values are printed by cli alone, so it alone decides how many
    digits an int may print with."""
    users = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
             if "set_int_max_str_digits" in _names_mentioned(_tree(path))]
    assert users == ["cli.py"]


# numpy's generator and bit generator classes and the functions that build
# or seed one.
GENERATOR_BUILDERS = ("Generator", "default_rng", "RandomState", "SeedSequence", "BitGenerator",
                      "SFC64", "PCG64", "PCG64DXSM", "Philox", "MT19937")


def _generator_sites(tree: ast.Module) -> set[str]:
    """The sites (see _sites) where `tree` calls a GENERATOR_BUILDERS name,
    by attribute (np.random.SFC64(...)) or by a name imported from
    numpy.random; an annotation that names a class builds nothing."""
    return _sites(tree, lambda node: isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Attribute) and node.func.attr in GENERATOR_BUILDERS)
        or (isinstance(node.func, ast.Name) and node.func.id in GENERATOR_BUILDERS)))


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    return np.random.Generator(np.random.SFC64(1))", {"f"}),
    ("def f():\n    return numpy.random.default_rng(3)", {"f"}),
    ("from numpy.random import PCG64\ndef f():\n    return PCG64(1)", {"f"}),
    ("rng = np.random.RandomState(0)", {"<module>"}),
    ("class A:\n    def f(self):\n        return np.random.SeedSequence(1).spawn(2)", {"A.f"}),
    ("def f(rng: np.random.Generator) -> np.random.Generator:\n    return rng.standard_normal(3)", set()),
])
def test_generator_scan_sees_every_form(source, expected):
    assert _generator_sites(ast.parse(source)) == expected


def test_sampling_builds_a_generator_only_in_chunk_rng():
    """Every draw of estimate_q comes from the stream that _chunk_rng
    defines, so no other code in sampling builds or seeds a numpy
    generator."""
    assert _generator_sites(_tree(PACKAGE_DIR / "sampling.py")) == {"_chunk_rng"}


def _draw_methods(tree: ast.Module) -> set[str]:
    """The public methods of numpy's Generator that `tree` reads as an
    attribute (rng.standard_gamma, called or not) of anything but the numpy
    module itself, whose functions np.power or np.random are not draws."""
    import numpy as np

    methods = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in methods
            and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))}


@pytest.mark.parametrize("source, expected", [
    ("def f(rng):\n    return rng.standard_normal(out=x)", {"standard_normal"}),
    ("rng.standard_gamma(2.0, out=x)", {"standard_gamma"}),
    ("_chunk_rng(1, 0).integers(5)", {"integers"}),
    ("draw = rng.uniform\ndraw()", {"uniform"}),
    ("np.random.random(3)\nnumpy.random.normal()", {"random", "normal"}),
    ("np.power(x, 2)\nnumpy.random.Generator(np.random.SFC64(1))", set()),
])
def test_draw_scan_sees_every_form(source, expected):
    assert _draw_methods(ast.parse(source)) == expected


def test_sampling_draws_only_uniforms_and_standard_normals():
    """Each chunk's stream is the pinned rows' uniforms, then one
    standard_normal block: the sphere draws of every ensemble, whose norms
    estimate_q integrates exactly, so sampling reads no other method of a
    numpy generator."""
    assert _draw_methods(_tree(PACKAGE_DIR / "sampling.py")) == {"random", "standard_normal"}


# Loaded on first use by the code that samples, never at import time: every
# command that does not sample starts without them.
DEFERRED = ("numpy", "concurrent.futures", "importlib.resources")


def _is_type_checking(test: ast.expr) -> bool:
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"))


def _import_time_imports(tree: ast.Module) -> set[str]:
    """Dotted names imported when the module runs: statements outside any
    function body and outside the body of an `if TYPE_CHECKING:` block.
    `from a import b` names both a and a.b, since b may be a submodule."""
    found: set[str] = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _deferred_imports(tree: ast.Module) -> list[str]:
    return sorted(name for name in _import_time_imports(tree)
                  if any(name == d or name.startswith(d + ".") for d in DEFERRED))


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np", ["numpy"]),
    ("import numpy.linalg", ["numpy.linalg"]),
    ("from numpy.random import Philox", ["numpy.random", "numpy.random.Philox"]),
    ("from concurrent.futures import ThreadPoolExecutor",
     ["concurrent.futures", "concurrent.futures.ThreadPoolExecutor"]),
    ("from concurrent import futures", ["concurrent.futures"]),
    ("from importlib import resources", ["importlib.resources"]),
    ("try:\n    import numpy\nexcept ImportError:\n    pass", ["numpy"]),
    ("class A:\n    import numpy", ["numpy"]),
    ("if TYPE_CHECKING:\n    import numpy as np", []),
    ("if typing.TYPE_CHECKING:\n    import numpy as np\nelse:\n    import numpy", ["numpy"]),
    ("def f():\n    import numpy as np", []),
    ("from importlib import import_module\nimport numbers", []),
])
def test_deferred_import_scan_sees_every_form(source, expected):
    assert _deferred_imports(ast.parse(source)) == expected


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_sampling_dependencies_are_not_imported_at_module_level(path):
    assert _deferred_imports(_tree(path)) == [], path.name


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """Records are NamedTuples or graphs.Record subclasses instead."""
    imported = _modules_imported(_tree(path))
    assert not [name for name in imported if name == "dataclasses" or name.startswith("dataclasses.")]
