"""The CLI's exit-code contract under mutated configs.

Each subcommand's small valid config is mutated at one key or list entry,
one kind of tests/malformed.py's table at a time: the entry is dropped, a
scalar and a list are swapped, a list is made ragged, a number becomes NaN,
infinity, negative or non-integral, or the entry becomes a word, a numeral
string, a boolean, a null or a mapping. Every run must exit 0, 1, 2 or 3
without an exception escaping `main`, and a run that exits 0 must write
strict JSON and finite CSV numbers. A market's `normalize_clock` set to
anything but a boolean, and a `clock` that is neither "uniform" nor a list
of increments, must exit 2.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import growthlab
from growthlab.cli import main
from malformed import MUTATIONS, malformed

MARKET = {"dim": 2, "n_steps": 4, "covariance": [[0.5, 0.1], [0.1, 0.4]],
          "drift": [0.8, 0.5], "clock": "uniform"}
BOX = {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
CUT = {"type": "polytope", "normals": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                       [0.0, -1.0], [1.0, -1.0]],
       "offsets": [1.2, 1.2, 1.2, 1.2, 0.5]}


def grown(polytope, by):
    return dict(polytope, offsets=[b + by for b in polytope["offsets"]])


VALID = [
    ("solve", {"kind": "solve", "covariance": MARKET["covariance"],
               "drift": [0.8, 0.5], "constraint": CUT}),
    ("simulate", {"kind": "simulate", "market": MARKET, "paths": 8,
                  "constraint": {"type": "intersection",
                                 "members": [{"type": "ball", "radius": 1.5},
                                             BOX]}}),
    ("stability", {"kind": "stability-filtration", "market": MARKET,
                   "signal": {"direction": [1.0, 0.3], "prior_mean": 0.0,
                              "noise_scales": [0.5, 0.25]},
                   "constraint": {"type": "ball", "radius": 2.0},
                   "event_threshold": 0.0, "paths": 8}),
    ("stability", {"kind": "stability-probability", "market": MARKET,
                   "tilt": {"lam1": [0.4, -0.2], "orthogonal_vol": 0.2},
                   "eps_ladder": [0.2, 0.1], "paths": 8}),
    ("stability", {"kind": "stability-constraint", "market": MARKET,
                   "sets": [{"type": "box", "lower": [-1.6, -1.6],
                             "upper": [1.6, 1.6]},
                            grown(CUT, 0.2), grown(CUT, 0.1)],
                   "limit_set": CUT, "paths": 8}),
    ("sensitivity", {"kind": "sensitivity", "market": MARKET,
                     "tilt": {"lam1": [0.4, -0.2]}, "eps_ladder": [0.2, 0.1],
                     "paths": 8}),
    ("counterexample", {"kind": "counterexample", "p": 0.6, "levels": [1, 2],
                        "quad_nodes": 41, "quad_range": 6.0,
                        "signal_mean": 0.0}),
    ("tree", {"kind": "tree-projection", "depth": 3,
              "up_probs": [0.5, 0.4, 0.6], "chi": {"leaf_indicator": 2},
              "caps": [0, 1, 3]}),
    ("density-check", {"kind": "density-check", "family": "lognormal",
                       "vols": [0.4, 0.2], "n_steps": 8, "paths": 8}),
    ("density-check", {"kind": "density-check", "family": "excursion",
                       "sizes": [2.0, 4.0, 8.0], "kappa": 1.0, "n_steps": 8,
                       "paths": 8}),
]

def entries(node, prefix=()):
    """Key or index path of every entry below the root, except 'kind'."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if key != "kind":
            yield prefix + (key,)
            yield from entries(value, prefix + (key,))


def mutate(cfg, path, how):
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = malformed(parent[path[-1]], how)
    return cfg


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return 0.0  # a name, not a number


def _finite_output(path):
    """Whether a JSON file parses without NaN or infinity, or every number
    in a CSV file is finite."""
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    with open(path) as fh:
        if path.endswith(".json"):
            try:
                json.load(fh, parse_constant=reject)
            except ValueError:
                return False
            return True
        rows = list(csv.reader(fh))[1:]
    return all(math.isfinite(_number(cell)) for row in rows for cell in row)


def run_mutant(command, cfg):
    """(exit code, stderr) of one in-process CLI run, and whether every
    JSON and CSV file it wrote holds finite numbers only."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out])
        strict = code != 0 or all(
            _finite_output(os.path.join(out, name)) for name in os.listdir(out))
    return code, err.getvalue(), strict


@st.composite
def mutants(draw):
    command, cfg = draw(st.sampled_from(VALID))
    path = draw(st.sampled_from(list(entries(cfg))))
    return command, mutate(cfg, path, draw(st.sampled_from(MUTATIONS)))


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_configs_keep_the_exit_code_contract(mutant):
    command, cfg = mutant
    code, err, strict = run_mutant(command, cfg)
    assert code in (0, 1, 2, 3), (code, cfg)
    assert "Traceback" not in err
    assert strict, cfg


def stratified_mutants():
    """(command, config, entry, kind) covering every MUTATIONS kind on every
    VALID config, in a fixed order: the kinds in turn over the config's keys
    and the first entry of each list (wrapping round until every kind has
    run), then every kind that changes the value's type on every key."""
    for command, cfg in VALID:
        paths = [p for p in entries(cfg)
                 if not any(isinstance(k, int) and k for k in p)]
        for i in range(max(len(paths), len(MUTATIONS))):
            how = MUTATIONS[i % len(MUTATIONS)]
            yield command, cfg, paths[i % len(paths)], how
        for path in paths:
            if isinstance(path[-1], str):
                for how in ("string", "numeral", "boolean", "null", "mapping"):
                    yield command, cfg, path, how


def test_every_mutation_kind_keeps_the_contract_on_every_config():
    escapes = []
    for command, cfg, path, how in stratified_mutants():
        try:
            code, err, strict = run_mutant(command, mutate(cfg, path, how))
        except Exception as exc:  # escaped main
            code, err, strict = repr(exc), "", True
        if code not in (0, 1, 2, 3) or "Traceback" in err or not strict:
            escapes.append((cfg["kind"], path, how, code))
    assert not escapes


NOT_BOOLEAN = st.one_of(st.none(), st.integers(), st.floats(),
                        st.text(max_size=8), st.lists(st.booleans(),
                                                      max_size=2))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(c, cfg) for c, cfg in VALID if "market" in cfg]),
       NOT_BOOLEAN)
def test_non_boolean_normalize_clock_exits_2(valid, value):
    command, cfg = valid
    cfg = dict(cfg, market=dict(cfg["market"], normalize_clock=value))
    code, err, _ = run_mutant(command, cfg)
    assert code == 2, (value, cfg["kind"])
    assert err.startswith("config error:") and "normalize_clock" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("clock", ["weird", {"a": 1}], ids=["word", "mapping"])
@pytest.mark.parametrize("valid", [v for v in VALID if "market" in v[1]],
                         ids=lambda v: v[1]["kind"])
def test_malformed_clock_exits_2(valid, clock):
    command, cfg = valid
    cfg = dict(cfg, market=dict(cfg["market"], clock=clock))
    code, err, _ = run_mutant(command, cfg)
    assert code == 2, (clock, cfg["kind"])
    assert err.startswith("config error: bad market config: clock must be")
    assert err.count("\n") == 1


def test_valid_configs_exit_0():
    for command, cfg in VALID:
        assert run_mutant(command, cfg)[:1] == (0,), (command, cfg["kind"])


# Counts up to 16 run. Counts from 1e12 need 8 TB or more at one float a
# path, more physical memory than a test machine has, and counts from 1e18
# ask for path arrays that numpy cannot index on every config here; both
# exit 2 before any seed spawn or draw, the former checked in a child with
# a timeout. Counts in between may pass those checks and be drawn for real,
# so they are not drawn.
PATH_COUNTS = st.one_of(st.integers(1, 16),
                        st.integers(10 ** 12, 10 ** 17),
                        st.integers(10 ** 12, 10 ** 17).map(float),
                        st.integers(10 ** 18, 10 ** 308),
                        st.floats(1e18, 1e308))
SRC = os.path.dirname(os.path.dirname(growthlab.__file__))


def run_in_child(command, cfg, timeout=30):
    """(exit code, stderr) of one CLI run in a fresh interpreter, so that a
    run which fails to stop early fails the test instead of hanging it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-m", "growthlab.cli", command, "--config", path,
             "--out", os.path.join(tmp, "out")],
            capture_output=True, text=True, timeout=timeout, env=env)
    return done.returncode, done.stderr


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(c, cfg) for c, cfg in VALID if "paths" in cfg]),
       PATH_COUNTS)
def test_path_counts_up_to_1e308_keep_the_exit_code_contract(valid, paths):
    command, cfg = valid
    if 10 ** 12 <= paths < 10 ** 18:
        code, err = run_in_child(command, dict(cfg, paths=paths))
        strict = True  # an exit 2 writes no numbers
    else:
        code, err, strict = run_mutant(command, dict(cfg, paths=paths))
    assert code in ((0, 1) if paths <= 16 else (2,)), (code, paths, err)
    assert paths <= 16 or err.startswith("config error: path count too large")
    assert "Traceback" not in err
    assert strict, cfg
