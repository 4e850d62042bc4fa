"""The benchmark (perfbench/run.py) compares a run's output values with
perfbench/reference.json and marks the outputs incorrect on any missing or
extra key, or on a value out of its tolerance. This runs every benchmark
workload through the CLI: at 64 paths to check that its outputs hold
exactly the reference's keys, and at the reference's seed and path count
to check its values within the benchmark's own REL_TOL and ABS_TOL, so a
change to what a subcommand writes fails here before the benchmark sees
it."""

import ast
import importlib.util
import json
import os

import pytest

from growthlab.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_constants(*names):
    """Values of module-level constants of perfbench/run.py, read from its
    source: importing it would put its siblings on the module path."""
    with open(os.path.join(PERFBENCH, "run.py")) as fh:
        tree = ast.parse(fh.read())
    found = {target.id: node.value
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    return tuple(ast.literal_eval(found[name]) for name in names)


analysis, workloads = _perfbench("analysis"), _perfbench("workloads")
with open(os.path.join(PERFBENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)
REL_TOL, ABS_TOL = _run_constants("REL_TOL", "ABS_TOL")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_hold_the_reference_keys(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload["config"]))
    out = tmp_path / "out"
    # 64 paths may fail a check (exit 1); the outputs are written either way
    assert main([workload["command"], "--config", str(config),
                 "--seed", str(REFERENCE["seed"]), "--paths", "64",
                 "--out", str(out)]) in (0, 1)
    assert set(analysis.result_values(str(out))) \
        == set(REFERENCE["workloads"][name]["values"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_values_match_the_reference(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    entry = REFERENCE["workloads"][name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload["config"]))
    out = tmp_path / "out"
    assert main([workload["command"], "--config", str(config),
                 "--seed", str(REFERENCE["seed"]),
                 "--paths", str(entry["paths"]), "--threads", "1",
                 "--out", str(out)]) == 0
    assert analysis.reference_mismatches(
        analysis.result_values(str(out)), entry["values"],
        REL_TOL, ABS_TOL) == []
