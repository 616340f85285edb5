"""Source hygiene: every name a module, test or demo imports is used in
that file, every module-level private name is used somewhere in the
package, and every public function, method and class is used somewhere in
the package, its tests or its demos; neither importing the package nor
running an experiment at its defaults loads a scipy module; and importing
the package loads neither the experiment layer nor OpenSSL."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rwpot"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(), filename=str(p))
         for p in SRC.glob("*.py")}
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
SCRIPT_TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in SCRIPTS}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _private_definitions(tree):
    """Module-level functions, classes and constants named _x (not dunders),
    with the node that defines each."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
    return [(name, node) for name, node in out
            if name.startswith("_") and not name.startswith("__")]


def _references(tree, skip):
    """Names read anywhere in the tree outside the node skip (as a bare
    name or as an attribute)."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: (
    p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"))
def test_no_unused_imports(path):
    tree = TREES.get(path) or SCRIPT_TREES[path]
    unused = _unused_imports(tree)
    assert not unused, ", ".join(f"{path.name}:{line} {name}"
                                 for line, name in unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    dead = []
    for name, node in _private_definitions(TREES[path]):
        used = any(name in _references(tree, node if other == path else None)
                   for other, tree in TREES.items())
        if not used:
            dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, ", ".join(dead)


def _public_definitions(tree):
    """Module-level functions and classes, and the methods of those classes,
    whose names do not start with _, with the node that defines each."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((item.name, item) for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return [(name, node) for name, node in out if not name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_public_names(path):
    trees = {**TREES, **SCRIPT_TREES}
    dead = []
    for name, node in _public_definitions(TREES[path]):
        used = any(name in _references(tree, node if other == path else None)
                   for other, tree in trees.items())
        if not used:
            dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, ", ".join(dead)


# Public names that no module or demo uses, kept on purpose, with the reason.
TEST_ONLY_ALLOWED = {
    "variance_scaling": "acceptance test 14 runs it",
    "sample_crossings": "the Monte Carlo ground truth for E_Q[#A]",
    "load_field": "it reads the witness files that chi writes",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_name_is_used_only_by_tests(path):
    """A public function, method or class that no module of the package and
    no demo uses belongs in tests/util_oracles.py, not in src: the package
    holds what an experiment runs."""
    users = {**TREES, **{p: t for p, t in SCRIPT_TREES.items() if p.parent.name == "demos"}}
    test_only = []
    for name, node in _public_definitions(TREES[path]):
        used = any(name in _references(tree, node if other == path else None)
                   for other, tree in users.items())
        if not used and name not in TEST_ONLY_ALLOWED:
            test_only.append(f"{path.name}:{node.lineno} {name}")
    assert not test_only, ", ".join(test_only)


def test_oracle_takes_only_index_helpers_from_solver():
    """The oracles check the solver, so they must not run through it:
    oracle.py may import SiteSet and region_sites from solver.py, and
    nothing else of it."""
    allowed = {"SiteSet", "region_sites"}
    bad = []
    for node in ast.walk(TREES[SRC / "oracle.py"]):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (node.module or "").split(".")[-1] == "solver":
                bad += sorted(names - allowed)
            elif "solver" in names:
                bad.append("solver")
        elif isinstance(node, ast.Import):
            bad += [alias.name for alias in node.names
                    if "solver" in alias.name.split(".")]
    assert not bad, f"oracle.py imports {', '.join(bad)} from the solver"


# the scipy modules loaded after `import rwpot`, after `import rwpot.cli`,
# then after cli.main runs each experiment at its defaults; prints one
# line per stage
_SCIPY_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])


def loaded(stage):
    print(f"loaded {stage}:", *sorted(m for m in sys.modules if m.startswith("scipy")))


import rwpot
loaded("rwpot")
import rwpot.cli
loaded("rwpot.cli")
for experiment in rwpot.harness.EXPERIMENTS:
    assert rwpot.cli.main([experiment, "--out", os.path.join(sys.argv[2], experiment)]) == 0
    loaded(experiment)
"""


def test_import_loads_no_heavy_scipy_subpackage(tmp_path):
    """`import rwpot` and `import rwpot.cli` load numpy and no scipy
    module, and neither does any experiment at its defaults: the solver
    calls scipy's bundled BLAS and LAPACK library through ctypes, and
    `import scipy.linalg` alone would cost over half of a CLI run's
    start-up. A LogNormal law loads scipy.special on its first use; no
    default uses one."""
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(ROOT / "src"), str(tmp_path)],
                         capture_output=True, text=True, check=True, timeout=300)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded ")]
    stages = ["rwpot", "rwpot.cli", "solve", "lyapunov", "tails", "compare", "truncate",
              "perturb", "entropy", "psi", "animals", "chi", "oracle-check"]
    assert loaded == [f"loaded {stage}:" for stage in stages], loaded


# the names `import rwpot` exported before the experiment layer loaded on
# first use: every one still resolves
PACKAGE_NAMES = [
    "AlphaEstimate", "AnimalSpec", "AssumptionError", "AssumptionReport", "BoxRegion",
    "CapacityError", "ChiEvaluation", "CrossingTrace", "DegenerateWeightError",
    "DistributionSpec", "DomainError", "EntropyRecord", "ExperimentConfig",
    "FeasibilityError", "MartingaleDiagnostics", "ParameterError", "PathEnumResult",
    "PerturbationRecord", "PotentialField", "RunManifest", "RwpotError", "SolveResult",
    "SolverError", "TailReport", "WeightedFunctionals", "animal_occupancy_check",
    "assumption_report", "canonical_form", "check_norm_properties", "chi_evaluate",
    "chi_upper_probe", "coarse", "coarse_index", "compare_restricted", "concentration",
    "entropy_suite", "enumerate_animals", "enumerate_paths", "errors", "estimate_alpha",
    "exit_functional", "exit_functionals", "harness", "io", "lattice", "load_field",
    "lyapunov", "martingale_diagnostics", "norms", "occupied_cost_bound_check", "oracle",
    "oracle_check", "pinned_return_probability", "potential", "psi_herbst", "raise_site",
    "rank_one_verify", "rng", "run", "sample_crossings", "sample_field",
    "sample_walk_weight", "save_field", "solver", "stats", "supermartingale_step_check",
    "tail_experiment", "travel_weight", "truncation_gap", "variance_scaling",
    "weighted_functionals"]


def test_import_loads_the_solver_stack_and_nothing_it_does_not_run():
    """`import rwpot` loads no module of the experiment layer (harness,
    coarse, oracle, lyapunov), not the CLI, and not OpenSSL (hashlib loads
    it on the first hash): a caller that samples and solves pays for none
    of them. Their names still resolve, on first use."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import rwpot; "
             "print(*sorted(m for m in sys.modules if m in sys.argv[2:]))")
    heavy = ["rwpot.harness", "rwpot.coarse", "rwpot.oracle", "rwpot.lyapunov",
             "rwpot.cli", "_hashlib"]
    out = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src"), *heavy],
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == []
    import rwpot

    assert rwpot.__all__ == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        value = getattr(rwpot, name)
        if type(value) is type(rwpot):
            assert value is importlib.import_module(f"rwpot.{name}")
        else:
            assert value.__module__.startswith("rwpot.")
            assert getattr(sys.modules[value.__module__], name) is value
