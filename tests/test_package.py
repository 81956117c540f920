"""Package-level guards: the public names resolve, rationals have one home,
and the benchmark in ``perfbench/`` still runs against the package and
passes its own unit tests."""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import relu_knots


def test_every_exported_name_resolves():
    missing = [name for name in relu_knots.__all__ if not hasattr(relu_knots, name)]
    assert missing == []


def test_every_imported_name_is_exported():
    imported = {
        name
        for name, value in vars(relu_knots).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == set(relu_knots.__all__)


def test_only_rational_imports_fractions():
    # Fraction is the one rational type: no module imports another backend
    importers = {"fractions": [], "gmpy2": []}
    for path in sorted(Path(relu_knots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            for top in {(module or "").split(".")[0] for module in modules}:
                if top in importers:
                    importers[top].append(path.name)
    assert importers == {"fractions": ["rational.py"], "gmpy2": []}


@pytest.mark.parametrize("workload", ["ladder", "random", "crosscheck"])
def test_benchmark_smoke_run(workload):
    # one traced round reads the trace the way the benchmark does
    # (``output_splines``, ``output_knot_union()``) and checks every output
    root = Path(__file__).resolve().parent.parent
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_benchmark_checker_tests_pass():
    # the stdlib unit tests of the benchmark's checkers and metrics
    root = Path(__file__).resolve().parent.parent
    argv = ["-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"]
    run = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Ran 0 tests" not in run.stderr
