"""The benchmark (perfbench/run.py) compares a run's output values with
perfbench/reference.json and marks the outputs incorrect on any missing or
extra key. This runs every benchmark workload at 64 paths through the CLI
and checks that its outputs hold exactly the reference's keys, so a change
to what a subcommand writes fails here before the benchmark sees it."""

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


analysis, workloads = _perfbench("analysis"), _perfbench("workloads")
with open(os.path.join(PERFBENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


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
