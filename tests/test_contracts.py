"""Contracts the benchmark and the engine's role as referee rely on.

The engine_map round is the benchmark's correctness gate: a change that
fails more of its points, or fails one for a reason no known fault
explains, is caught here first.  The layout checks keep every branch stack
to its four derivative rows, each a coefficient pair (c1, c2) that
``build_subspace`` reads as it is, and ``overlap`` to one return shape.  The import
check keeps the numerical engine free of every closed-form information
expression, the dependency check keeps numpy the package's only third-party
import, and the numpy checks keep it inside the sample-level functions of
montecarlo.py, so ``import qfi_radar`` and every subcommand run on the
standard library alone.  The cold-import check keeps
the sampling modules, the selftest and ``dataclasses`` off ``import
qfi_radar.cli``.  The print check keeps output in the CLI, and the export
check keeps every public name, method and property in use outside the tests.
"""

import ast
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import qfi_radar
from qfi_radar import cli
from qfi_radar.kinematics import Strategy
from qfi_radar.oracle import model_for
from qfi_radar.states import ROWS, GaussianBiphoton, GaussianSinglePhoton, Stack, overlap

ROOT = pathlib.Path(__file__).resolve().parents[1]
# engine_map points failed per round: none since the closed-form support
# frame; any failure is a regression
ENGINE_MAP_FAILED = 0
# the functions of montecarlo.py that import numpy, the sample-level path the
# benchmark times; every subcommand runs without it, each scenario once
NUMPY_FUNCTIONS = {"_sample_bivariate", "estimate_pair"}
NUMPY_FREE_COMMANDS = (["qfi"], ["curves", "--format", "svg"], ["oracle-check"], ["simulate"],
                       ["scenario"], ["scenario", "--scenario", "moving_object"], ["selftest"])
# the package's modules a cold `import qfi_radar.cli` loads, and modules it must not
COLD_IMPORT = ["qfi_radar", "qfi_radar.analytic", "qfi_radar.cli", "qfi_radar.kinematics",
               "qfi_radar.oracle", "qfi_radar.states"]
NOT_IMPORTED = ["qfi_radar.montecarlo", "qfi_radar.selftest", "dataclasses", "inspect", "numpy"]
# the package-level names that load their module on first access
LAZY_NAMES = {
    "qfi_radar.montecarlo": ["McConfig", "McReport", "estimate_pair", "measure_pair",
                             "run_scenario", "sample_times", "sample_frequencies"],
    "qfi_radar.selftest": ["run_selftest"],
}
# the overlap kernel's two entry points
KERNELS = {"overlap", "pair_terms"}
# cli.py's file writers and the functions allowed to call them: every
# tabular subcommand goes through write_table, verdicts are not a table
WRITERS = {"write_csv": {"write_table"}, "write_jsonl": {"write_table", "cmd_oracle_check"}}


def test_engine_map_round_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "engine_map", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 180
    assert result["failed"] <= ENGINE_MAP_FAILED


def test_traced_engine_layers(monkeypatch):
    # the traced run times the engine stages by replacing oracle's module
    # globals; an engine that skips them (a per-model memo of results, say)
    # leaves those spans empty and the traced run crashes
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    metrics = layers.engine_layers(qfi_radar)
    assert all(math.isfinite(value) for value, _unit in metrics.values()), metrics
    # the dimension is the rank of rho; each branch takes one overlap with itself
    for strategy, dim, per_eval in (("entangled_biphoton", 1, 1),
                                    ("two_single_photons", 2, 2),
                                    ("quantum_illumination", 2, 2)):
        assert metrics[f"oracle.subspace_dim.{strategy}"][0] == dim
        assert metrics[f"states.overlaps_per_eval.{strategy}"][0] == per_eval


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("kwargs", [
    {"sigma1": 1.0},
    {"sigma1": 0.7, "sigma2": 1.3, "kappa": -0.5, "t_minus": 1.0, "omega_minus": 0.8,
     "t_plus": 0.3},
], ids=["coincident", "separated"])
def test_stacks_hold_only_derivative_rows(strategy, kwargs):
    # build_subspace reads every row of a stack as a derivative c . x |base>,
    # the pair (c1, c2), and qfi_numeric picks a pair's two rows by their ROWS index
    assert ROWS == ("t_plus", "t_minus", "omega_plus", "omega_minus")
    for stack in model_for(strategy, **kwargs).stacks:
        assert len(stack.p) == len(ROWS) == 4
        assert all(type(row) is tuple and len(row) == 2 for row in stack.p), stack.p


@pytest.mark.parametrize("k_a", range(4))
@pytest.mark.parametrize("k_b", range(4))
def test_overlap_returns_one_block_shape(k_a, k_b):
    # a (k_a, k_b) block of nested tuples for every pair of row counts, empty included
    rows = ((1.0, 0.0), (0.5, 0.0), (0.3j, 0.0))
    for a, b in ((GaussianSinglePhoton(0.1, 1.0, 1.0), GaussianSinglePhoton(-0.2, 1.5, 0.8)),
                 (GaussianBiphoton(0.0, 0.3, 1.0, 1.2, 1.0, 1.5, 0.4),
                  GaussianBiphoton(0.2, -0.1, 0.8, 1.0, 1.1, 0.9, -0.3))):
        block = overlap(Stack(a, rows[:k_a]), Stack(b, rows[:k_b]))
        assert type(block) is tuple and len(block) == k_a
        assert all(type(line) is tuple and len(line) == k_b for line in block)
        assert all(type(x) is complex for line in block for x in line)


def test_engine_imports_no_closed_forms():
    for name in ("oracle.py", "states.py"):
        tree = ast.parse((ROOT / "src" / "qfi_radar" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            assert not any("analytic" in m.split(".") for m in modules), (name, ast.dump(node))


def test_src_imports_only_stdlib_and_numpy():
    # numpy is the only dependency pyproject.toml declares; a lazy import
    # inside a function counts as much as one at module level
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted((ROOT / "src" / "qfi_radar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [] if node.level else [node.module]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            for module in modules:
                assert module.partition(".")[0] in allowed, (path.name, node.lineno, module)


def test_numpy_imported_only_inside_montecarlo_functions():
    found = []

    def visit(node, name, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom):
            modules = [] if node.level else [node.module]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            modules = []
        if any(module.partition(".")[0] == "numpy" for module in modules):
            found.append((name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, name, function)

    for path in sorted((ROOT / "src" / "qfi_radar").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    assert {name for name, _, _ in found} == {"montecarlo.py"}, found
    assert {function for _, function, _ in found} == NUMPY_FUNCTIONS, found


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports the package under test."""
    src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)


def test_cold_import_loads_only_the_closed_form_path():
    # qfi, curves and oracle-check pay this import on every call; each lazy
    # name is listed by dir() and, once read, is its module's own object
    proc = fresh_python(
        "import json, sys, qfi_radar, qfi_radar.cli\n"
        "lazy = json.loads(sys.argv[2])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qfi_radar'))))\n"
        "print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))\n"
        "print(json.dumps([n for names in lazy.values() for n in names\n"
        "                  if n not in dir(qfi_radar)]))\n"
        "values = {n: getattr(qfi_radar, n) for names in lazy.values() for n in names}\n"
        "print(json.dumps([n for module, names in lazy.items() for n in names\n"
        "                  if values[n] is not getattr(sys.modules[module], n)]))\n"
        "try:\n"
        "    qfi_radar.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)",
        json.dumps(NOT_IMPORTED), json.dumps(LAZY_NAMES))
    assert proc.returncode == 0, proc.stderr
    package, loaded, undir, foreign, missing = proc.stdout.splitlines()
    assert json.loads(package) == COLD_IMPORT
    assert json.loads(loaded) == []
    assert json.loads(undir) == []
    assert json.loads(foreign) == []
    assert missing == "module 'qfi_radar' has no attribute 'no_such_name'"


def test_cli_runs_without_numpy(tmp_path, capsys):
    # with numpy unimportable, each subcommand exits 0 at its defaults and
    # writes the bytes of an ordinary run
    def out(root, argv):
        return [] if argv[0] == "selftest" else ["--out", str(root / "-".join(argv))]

    blocked = [[*argv, *out(tmp_path / "blocked", argv)] for argv in NUMPY_FREE_COMMANDS]
    proc = fresh_python(
        "import json, sys\nsys.modules['numpy'] = None\nfrom qfi_radar.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))", json.dumps(blocked))
    assert proc.returncode == 0, proc.stderr
    for argv in NUMPY_FREE_COMMANDS:
        assert cli.main([*argv, *out(tmp_path / "open", argv)]) == 0
    capsys.readouterr()
    files = sorted(p.relative_to(tmp_path / "open")
                   for p in (tmp_path / "open").rglob("*") if p.is_file())
    assert len(files) == 9, files
    assert files == sorted(p.relative_to(tmp_path / "blocked")
                           for p in (tmp_path / "blocked").rglob("*") if p.is_file())
    for rel in files:
        assert (tmp_path / "blocked" / rel).read_bytes() == (tmp_path / "open" / rel).read_bytes()


def calls_by_function(tree, names, reads=False):
    """(name, enclosing function, line) for every call of one of ``names``,
    or with ``reads`` every read of one, as a name or as an attribute."""
    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if reads:
            target = node if isinstance(getattr(node, "ctx", None), ast.Load) else None
        else:
            target = node.func if isinstance(node, ast.Call) else None
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name in names:
            calls.append((name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return calls


def test_engine_overlaps_only_in_gram_matrix():
    # one engine path: every overlap the engine evaluates, a branch's own
    # block or the two branches' pair terms, enters the frame build_subspace
    # writes, so nothing recomputes overlaps outside it
    tree = ast.parse((ROOT / "src" / "qfi_radar" / "oracle.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name in KERNELS:
            assert node.asname is None, f"{node.name} imported under another name"
    callers = calls_by_function(tree, KERNELS)
    assert {name for name, _, _ in callers} == KERNELS, callers
    assert all(function == "build_subspace" for _, function, _ in callers), callers


def test_cli_writes_tables_through_write_table():
    # one table writer: --format json means the CSV's rows for every
    # tabular subcommand, because only write_table picks the file format
    tree = ast.parse((ROOT / "src" / "qfi_radar" / "cli.py").read_text(encoding="utf-8"))
    calls = calls_by_function(tree, WRITERS)
    assert {name for name, _, _ in calls} == set(WRITERS), calls
    assert all(function in WRITERS[name] for name, function, _ in calls), calls


def test_monte_carlo_measures_in_one_place():
    # one stream rule: every exact-law draw (the keyed generator, the normal
    # quantile and the uncached chi-square quantile) is made by one helper,
    # which only measure_pair and run_scenario call; the sample-level
    # functions serve the benchmark and the tests, and nothing in src/ calls them
    draws = {"Random", "inv_cdf", "__wrapped__"}
    sample_level = {"sample_times", "sample_frequencies", "estimate_pair"}
    refs = []
    for path in sorted((ROOT / "src" / "qfi_radar").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs += calls_by_function(tree, draws | {"_draw_statistics"}, reads=True)
        assert not calls_by_function(tree, sample_level), path.name
    assert {name for name, _, _ in refs} == draws | {"_draw_statistics"}, refs
    for name, function, _ in refs:
        want = ("measure_pair", "run_scenario") if name == "_draw_statistics" else (
            "_draw_statistics",)
        assert function in want, refs


def test_only_the_cli_prints():
    # the library returns what it finds; cli.py alone renders it, so
    # run_selftest hands back records and prints no line of its own
    users = [(path.name, node.lineno)
             for path in sorted((ROOT / "src" / "qfi_radar").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name) and node.id == "print"]
    assert users and {name for name, _ in users} == {"cli.py"}, users


def test_speed_of_light_rule_in_one_place():
    # doppler_factor refuses |v| >= c; Target checks its velocity through it
    sources = [path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "qfi_radar").glob("*.py")]
    assert sum(text.count("must be below c") for text in sources) == 1


def public_names(tree, module: str) -> list[tuple[str, str]]:
    """(qualified name, name) of each public name a module defines: the
    names in its ``__all__``, its other module-level names, and the methods
    and properties of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if getattr(target, "id", None) == "__all__":
                    names += ast.literal_eval(node.value)
                elif isinstance(target, ast.Name):
                    names.append(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)]
    found = [(f"{module}.{name}", name.rpartition(".")[2]) for name in names]
    return [(qualified, name) for qualified, name in found if not name.startswith("_")]


def test_every_export_has_a_caller():
    # a use is a name or attribute read in code; the definition, the
    # __all__ strings and the import lines that re-export a name are not,
    # and neither is a read in the tests: a name only they read is dead code
    used = set()
    for folder in ("src", "bench", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
    public = []
    for path in sorted((ROOT / "src" / "qfi_radar").glob("*.py")):
        public += public_names(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    # each kind of name is scanned: an __all__ entry, a module constant, a method
    assert {"states.overlap", "cli.SETTINGS", "states.GaussianBiphoton.centers"} <= {
        qualified for qualified, _ in public}
    assert not [qualified for qualified, name in public if name not in used]
