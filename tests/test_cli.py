import csv
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml
from scipy.linalg import sqrtm

import growthlab.stability as stability
from growthlab.cli import _write_ladder, main
from growthlab.errors import GrowthlabError
from growthlab.market import MarketSpec, TiltSpec
from growthlab.reporting import (
    RunManifest, atomic_write_json, canonical_json, config_hash, write_csv,
)
from growthlab.sensitivity import (
    EXPANSION_COLUMNS, expansion_orders, streamed_expansion_ladder,
)
from growthlab.stability import LadderReport
from oracles import delta_slope_cov

MARKET = {
    "dim": 2,
    "n_steps": 25,
    "covariance": [[0.5, 0.1], [0.1, 0.4]],
    "drift": [0.8, 0.5],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def run_cli(*args):
    return main(list(args))


def glibc_version():
    """The C library's version string on glibc, else None."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


def src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_solve_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "solve.yaml", {
        "kind": "solve",
        "covariance": [[1.0, 0.0], [0.0, 1.0]],
        "drift": [0.3, 0.4],
        "constraint": {"type": "ball", "radius": 10.0},
    })
    out = str(tmp_path / "run")
    assert run_cli("solve", "--config", cfg, "--out", out) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert np.allclose(summary["fraction"], [0.3, 0.4], atol=1e-9)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["checks"] == {"solved": True}
    assert "summary.json" in manifest["files"]


def test_constraint_ladder_outside_bound_regime_exits_0(tmp_path):
    # every fraction lies outside B(|a|_c), where the Euclidean-truncation
    # bound is not claimed, so the per-step check must not fail the run
    cfg = write_config(tmp_path, "constraint.yaml", {
        "kind": "stability-constraint",
        "market": {"dim": 2, "n_steps": 20,
                   "covariance": [[0.5, 0.0], [0.0, 0.5]],
                   "drift": [2.0, 0.0], "normalize_clock": False},
        "sets": [{"type": "ball", "radius": r}
                 for r in (2.0, 1.75, 1.625, 1.5625)],
        "limit_set": {"type": "ball", "radius": 1.5},
        "paths": 256,
    })
    out = tmp_path / "run"
    assert run_cli("stability", "--config", cfg, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["per_step_bound"] is True
    assert all(manifest["checks"].values())

CONSTRAINT_MARKET = {"dim": 2, "n_steps": 20,
                     "covariance": [[0.5, 0.0], [0.0, 0.5]],
                     "drift": [2.0, 0.0], "normalize_clock": False}


@pytest.mark.parametrize("value", ["false", "true", 0, 1, 0.0, None,
                                   [False]])
def test_non_boolean_normalize_clock_exits_2(tmp_path, capsys, value):
    # bool("false") is True: the string once ran as a normalized clock
    cfg = write_config(tmp_path, "clock.yaml", {
        "kind": "stability-constraint",
        "market": dict(CONSTRAINT_MARKET, normalize_clock=value),
        "sets": [{"type": "ball", "radius": 1.25}],
        "limit_set": {"type": "ball", "radius": 1.0}, "paths": 16,
    })
    out = tmp_path / "run"
    assert run_cli("stability", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "normalize_clock" in err
    assert len(err.splitlines()) == 1
    assert not (out / "ladder.csv").exists()


def test_tree_cap_above_depth_exits_2(tmp_path, capsys):
    # a cap of 7 on a depth-3 tree once ran as cap 3 and dropped the
    # zero_at_full_cap check
    cfg = write_config(tmp_path, "tree.yaml", {
        "kind": "tree-projection", "depth": 3,
        "chi": {"leaf_indicator": 0}, "caps": [0, 2, 7],
    })
    out = tmp_path / "run"
    assert run_cli("tree", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "at most 3, got 7" in err
    assert len(err.splitlines()) == 1
    assert not (out / "projection.csv").exists()


def test_wrong_shape_tilt_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "tilt.yaml", {
        "kind": "sensitivity", "market": MARKET,
        "tilt": {"lam1": [0.4, -0.2, 0.1]}, "paths": 16,
    })
    out = tmp_path / "run"
    assert run_cli("sensitivity", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    # the message names both shapes a per-step input accepts
    assert err.startswith("config error:") and "lam1" in err
    assert "(2,)" in err and f"({MARKET['n_steps']}, 2)" in err
    assert len(err.splitlines()) == 1
    assert not (out / "errors.csv").exists()


@pytest.mark.parametrize("radii, limit, unchecked, scale", [
    # every radius above |a|_c = sqrt(2): no step is in the bound's regime,
    # and every truncated set distance is 0, so slopes use the rung index
    ((2.0, 1.75, 1.625, 1.5625), 1.5, [20, 20, 20, 20], "rung_index"),
    # every radius below it: every step is checked
    ((1.25, 1.125, 1.0625, 1.03125), 1.0, [0, 0, 0, 0], "set_distance"),
], ids=["outside-regime", "inside-regime"])
def test_constraint_ladder_manifest_counts_unchecked_steps(
        tmp_path, radii, limit, unchecked, scale):
    cfg = write_config(tmp_path, "constraint.yaml", {
        "kind": "stability-constraint", "market": CONSTRAINT_MARKET,
        "sets": [{"type": "ball", "radius": r} for r in radii],
        "limit_set": {"type": "ball", "radius": limit},
        "paths": 64,
    })
    out = tmp_path / "run"
    assert run_cli("stability", "--config", cfg, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["per_step_bound"] is True
    usage = {"peak_rss_mb", "minor_page_faults", "cpu_user_s", "cpu_sys_s"}
    diagnostics = manifest["diagnostics"]
    assert set(diagnostics) == usage | {"bound_unchecked_steps",
                                        "ladder_scale", "malloc_retained",
                                        "decay_joint_share"}
    assert diagnostics["bound_unchecked_steps"] == unchecked
    assert diagnostics["ladder_scale"] == scale
    assert all(diagnostics[key] >= 0 for key in usage)
    assert diagnostics["peak_rss_mb"] > 0


def test_solve_asymmetric_covariance_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "asym.yaml", {
        "kind": "solve",
        "covariance": [[0.5, 0.2], [0.1, 0.4]],
        "drift": [0.3, 0.4],
    })
    assert run_cli("solve", "--config", cfg,
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "symmetric" in err
    assert "Traceback" not in err


def test_solve_non_finite_drift_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "nan.yaml", {
        "kind": "solve",
        "covariance": [[0.5, 0.1], [0.1, 0.4]],
        "drift": [float("nan"), 0.4],
        "constraint": {"type": "ball", "radius": 1.0},
    })
    assert run_cli("solve", "--config", cfg,
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, "bad.yaml", {
        "kind": "solve",
        "covariance": [[1.0]],
        "drift": [0.5],
        "mystery": 1,
    })
    assert run_cli("solve", "--config", cfg,
                   "--out", str(tmp_path / "o")) == 2
    # YAML keys need not be strings: 1 once escaped sorting and joining
    # the names as a TypeError, exit 1
    cfg = write_config(tmp_path, "int-key.yaml", {
        "kind": "tree-projection", "depth": 3,
        "chi": {"leaf_indicator": 0}, 1: 2, "mystery": 1})
    assert run_cli("tree", "--config", cfg,
                   "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("command, payload, key", [
    ("stability", {"kind": "stability-constraint", "market": CONSTRAINT_MARKET,
                   "sets": [{"type": "ball", "radius": 1.25}],
                   "limit_set": {"type": "ball", "radius": 1.0},
                   "bound_slack": 1e-6}, "bound_slack"),
    ("sensitivity", {"kind": "sensitivity", "market": MARKET,
                     "tilt": {"lam1": [0.4, -0.2], "floor": 1e-12}}, "floor"),
    ("stability", {"kind": "stability-probability", "market": MARKET,
                   "tilt": {"lam1": [0.4, -0.2], "energy_cap": 50.0}},
     "energy_cap"),
    ("sensitivity", {"kind": "sensitivity", "market": MARKET,
                     "tilt": {"lam1": [0.4, -0.2]}, "identity_tol": 1e-8},
     "identity_tol"),
    ("counterexample", {"kind": "counterexample", "p": 0.6, "levels": [1],
                        "theta_tol": 1e-3}, "theta_tol"),
], ids=["bound-slack", "tilt-floor", "tilt-energy-cap", "identity-tol",
        "theta-tol"])
def test_library_constant_keys_are_unknown(tmp_path, capsys, command,
                                           payload, key):
    # BOUND_SLACK, DENSITY_FLOOR, ENERGY_CAP, IDENTITY_TOL and THETA_TOL are
    # module constants: the key is refused whatever its value
    cfg = write_config(tmp_path, "bad.yaml", payload)
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown keys") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "summary.json").exists()


SUBCOMMAND_KINDS = {
    "solve": ["solve"],
    "simulate": ["simulate"],
    "stability": ["stability-filtration", "stability-probability",
                  "stability-constraint"],
    "sensitivity": ["sensitivity"],
    "counterexample": ["counterexample"],
    "tree": ["tree-projection"],
    "density-check": ["density-check"],
}


def test_kind_mismatch_exits_2(tmp_path, capsys):
    # each subcommand refuses a kind of the next one before any key check,
    # and its message lists its own kinds in order
    names = list(SUBCOMMAND_KINDS)
    for command, after in zip(names, names[1:] + names[:1]):
        other = SUBCOMMAND_KINDS[after][0]
        cfg = write_config(tmp_path, "other.yaml", {"kind": other})
        assert run_cli(command, "--config", cfg,
                       "--out", str(tmp_path / "o")) == 2, command
        err = capsys.readouterr().err
        assert err == (f"config error: config kind {other!r} does not fit "
                       f"subcommand {command!r} (expected one of "
                       f"{', '.join(SUBCOMMAND_KINDS[command])})\n"), command


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("solve", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o")) == 2


def test_failed_check_exits_1(tmp_path):
    # off-center residual pushes theta away from zero, failing theta_near_zero
    cfg = write_config(tmp_path, "ce.yaml", {
        "kind": "counterexample", "p": 0.6, "levels": [1],
        "signal_mean": 0.3,
    })
    assert run_cli("counterexample", "--config", cfg,
                   "--out", str(tmp_path / "o")) == 1


def test_numerical_error_exits_3(tmp_path):
    cfg = write_config(tmp_path, "ce.yaml", {
        "kind": "counterexample", "p": 0.6, "levels": [8],
        "signal_mean": 1.0,
    })
    assert run_cli("counterexample", "--config", cfg,
                   "--out", str(tmp_path / "o")) == 3


def test_solve_without_kkt_point_exits_3(tmp_path, capsys, monkeypatch):
    # No face set is accepted when the membership slack is -1, so the solve
    # raises NonConvergence rather than return an inexact fraction.
    import growthlab.constraints as constraints

    monkeypatch.setattr(constraints, "CONTAINS_TOL", -1.0)
    cfg = write_config(tmp_path, "box.yaml", {
        "kind": "solve",
        "covariance": [[0.5, 0.1], [0.1, 0.4]],
        "drift": [2.0, -1.0],
        "constraint": {"type": "box", "lower": [-0.5, -0.5],
                       "upper": [0.5, 0.5]},
    })
    assert run_cli("solve", "--config", cfg,
                   "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "Traceback" not in err


def test_simulate_writes_wealth_table(tmp_path):
    cfg = write_config(tmp_path, "sim.yaml", {
        "kind": "simulate", "market": MARKET,
        "constraint": {"type": "ball", "radius": 1.5}, "paths": 64,
    })
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", cfg, "--seed", "3",
                   "--out", out) == 0
    lines = (tmp_path / "run" / "wealth.csv").read_text().splitlines()
    assert lines[0] == "t,logX,B,L,g"
    assert len(lines) == MARKET["n_steps"] + 2
    first = lines[1].split(",")
    assert all(float(v) == 0.0 for v in first)


def test_reruns_are_byte_identical_across_threads(tmp_path):
    cfg = write_config(tmp_path, "stab.yaml", {
        "kind": "stability-filtration", "market": MARKET,
        "signal": {"direction": [1.0, 0.3],
                   "noise_scales": [0.5, 0.25, 0.125]},
        "paths": 512,
    })
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli("stability", "--config", cfg, "--seed", "11",
                   "--threads", "1", "--out", out1) == 0
    assert run_cli("stability", "--config", cfg, "--seed", "11",
                   "--threads", "8", "--out", out2) == 0
    a = (tmp_path / "a" / "ladder.csv").read_bytes()
    b = (tmp_path / "b" / "ladder.csv").read_bytes()
    assert a == b
    sa = (tmp_path / "a" / "summary.json").read_bytes()
    sb = (tmp_path / "b" / "summary.json").read_bytes()
    assert sa == sb


def test_counterexample_checks_theta(tmp_path):
    cfg = write_config(tmp_path, "ce.yaml", {
        "kind": "counterexample", "p": 0.6, "levels": [1, 2, 3],
    })
    out = str(tmp_path / "run")
    assert run_cli("counterexample", "--config", cfg, "--out", out) == 0
    rows = (tmp_path / "run" / "gaps.csv").read_text().splitlines()
    assert rows[0] == "level,theta_star,gap"
    gaps = [float(r.split(",")[2]) for r in rows[1:]]
    assert np.allclose(gaps, 0.2, atol=1e-9)


def test_tree_projection_command(tmp_path):
    cfg = write_config(tmp_path, "tree.yaml", {
        "kind": "tree-projection", "depth": 6,
        "chi": {"leaf_indicator": 0},
    })
    out = str(tmp_path / "run")
    assert run_cli("tree", "--config", cfg, "--out", out) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["checks"]["monotone"]
    assert manifest["checks"]["zero_at_full_cap"]


def test_density_check_lognormal(tmp_path):
    cfg = write_config(tmp_path, "dens.yaml", {
        "kind": "density-check", "family": "lognormal",
        "vols": [0.4, 0.2, 0.1], "paths": 512, "n_steps": 64,
    })
    out = str(tmp_path / "run")
    assert run_cli("density-check", "--config", cfg, "--seed", "7",
                   "--out", out) == 0


def test_sensitivity_command_checks_identity(tmp_path):
    cfg = write_config(tmp_path, "sens.yaml", {
        "kind": "sensitivity", "market": MARKET,
        "tilt": {"lam1": [0.4, -0.2]}, "paths": 128,
    })
    out = str(tmp_path / "run")
    assert run_cli("sensitivity", "--config", cfg, "--seed", "5",
                   "--out", out) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["checks"]["response_identity"]


def test_sensitivity_flat_tilt_writes_strict_json(tmp_path):
    cfg = write_config(tmp_path, "flat.yaml", {
        "kind": "sensitivity", "market": MARKET,
        "tilt": {"lam1": [0.0, 0.0]}, "paths": 64,
    })
    out = tmp_path / "run"
    assert run_cli("sensitivity", "--config", cfg, "--seed", "5",
                   "--out", str(out)) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["first_order"]["fv_ratios"] == [None, None, None]
    assert summary["identity_max_error"] == 0.0


def test_sensitivity_errors_are_the_reports_rows(tmp_path):
    # errors.csv is write_ladder_csv of the expansion report, metric-major,
    # and the summary holds point orders alone: no slopes, no intervals
    eps = [0.2, 0.1, 0.05]
    cfg = write_config(tmp_path, "sens.yaml", {
        "kind": "sensitivity", "market": MARKET,
        "tilt": {"lam1": [0.4, -0.2]}, "paths": 64, "eps_ladder": eps,
    })
    out = tmp_path / "run"
    assert run_cli("sensitivity", "--config", cfg, "--seed", "5",
                   "--out", str(out)) in (0, 1)
    report = streamed_expansion_ladder(
        MarketSpec(**MARKET), TiltSpec(lam1=[0.4, -0.2]), eps, 64, 5)
    with open(out / "errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["ladder_index"]), r["metric"], float(r["value"]),
             float(r["stderr"])) for r in rows] \
        == [tuple(r.values()) for r in report.rows()]
    assert [r["metric"] for r in rows] \
        == [name for name in EXPANSION_COLUMNS for _ in eps]
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"identity_max_error", "identity_tol",
                            "eps_ladder", "first_order", "second_order",
                            "n_paths", "seed"}
    assert summary["first_order"] == expansion_orders(report)["first_order"]


@pytest.mark.parametrize("eps_ladder", [[], 0.1], ids=["empty", "scalar"])
def test_sensitivity_malformed_eps_ladder_exits_2(tmp_path, capsys,
                                                  eps_ladder):
    cfg = write_config(tmp_path, "sens.yaml", {
        "kind": "sensitivity", "market": MARKET,
        "tilt": {"lam1": [0.4, -0.2]}, "paths": 16,
        "eps_ladder": eps_ladder,
    })
    assert run_cli("sensitivity", "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command, payload", [
    ("density-check", {"kind": "density-check", "family": "lognormal",
                       "vols": [0.2, 0.2]}),
    ("density-check", {"kind": "density-check", "family": "excursion",
                       "sizes": [4, 4]}),
    ("sensitivity", {"kind": "sensitivity", "market": MARKET,
                     "tilt": {"lam1": [0.4, -0.2]}, "eps_ladder": [0.1, 0.1]}),
], ids=["vols", "sizes", "eps_ladder"])
def test_repeated_ladder_scales_exit_2_with_one_line(tmp_path, command,
                                                      payload):
    # A repeated scale gives no slope. It once printed numpy warnings and
    # exited 3 (NaN in JSON) or 1 (a failed order check); in a child, so
    # that a warning would reach stderr.
    cfg = tmp_path / "ladder.json"
    cfg.write_text(json.dumps({**payload, "paths": 32}))
    result = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "run")],
        env=src_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("config error:")
    assert "distinct" in result.stderr
    assert result.stderr.count("\n") == 1


def test_json_config_skips_yaml_and_yaml_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "tree.json"
    cfg.write_text(json.dumps({"kind": "tree-projection", "depth": 3,
                               "chi": {"leaf_indicator": 0}}))
    code = ("import sys; from growthlab.cli import main; "
            f"code = main(['tree', '--config', {str(cfg)!r}, '--out', "
            f"{str(tmp_path / 'run')!r}]); print(code, 'yaml' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.split() == ["0", "False"], result.stderr
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: [unclosed\n")
    assert run_cli("tree", "--config", str(bad), "--out",
                   str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: could not parse")
    assert "Traceback" not in err


def test_sensitivity_solves_reference_once(tmp_path, monkeypatch):
    import growthlab.sensitivity as sensitivity

    calls = {"quotient": 0, "reference": 0}
    quotient = sensitivity.response_quotient
    fractions = sensitivity.numeraire_fractions

    def counted_quotient(*args, **kwargs):
        calls["quotient"] += 1
        return quotient(*args, **kwargs)

    def counted_fractions(bundle, constraint, *, drifts=None):
        calls["reference"] += drifts is None
        return fractions(bundle, constraint, drifts=drifts)

    monkeypatch.setattr(sensitivity, "response_quotient", counted_quotient)
    monkeypatch.setattr(sensitivity, "numeraire_fractions", counted_fractions)
    # 1500 paths run as three tiles (512, 512 and 476 paths): one quotient
    # per eps in every tile, but one reference solve per run
    for paths, tiles in ((64, 1), (1500, 3)):
        calls.update(quotient=0, reference=0)
        cfg = write_config(tmp_path, "sens.yaml", {
            "kind": "sensitivity", "market": MARKET,
            "tilt": {"lam1": [0.4, -0.2]}, "paths": paths,
            "eps_ladder": [0.2, 0.1, 0.05],
        })
        assert run_cli("sensitivity", "--config", cfg,
                       "--out", str(tmp_path / f"run{paths}")) == 0
        assert calls == {"quotient": 3 * tiles, "reference": 1}, paths


PROBABILITY = {"kind": "stability-probability", "market": MARKET,
               "tilt": {"lam1": [0.4, -0.2]}, "paths": 8}
SOLVE = {"kind": "solve", "covariance": [[0.5, 0.1], [0.1, 0.4]],
         "drift": [0.3, 0.4]}


@pytest.mark.parametrize("command, payload", [
    ("solve", {"kind": "solve", "covariance": [[1.0, 0.0], [0.0]],
               "drift": [0.1, 0.2]}),
    ("solve", {"kind": "solve", "covariance": [[1.0, 0.0], [0.0, 1.0]],
               "drift": [0.1, [0.2]]}),
    ("density-check", {"kind": "density-check", "family": "lognormal",
                       "vols": ["a", 0.1], "paths": 16, "n_steps": 8}),
    ("sensitivity", {"kind": "sensitivity", "market": MARKET,
                     "tilt": {"lam1": [0.4, -0.2]}, "paths": 16,
                     "eps_ladder": [[0.1], [0.2, 0.3]]}),
    ("stability", {"kind": "stability-probability", "market": MARKET,
                   "tilt": {"lam1": [0.4, -0.2]}, "paths": 16,
                   "eps_ladder": ["x"]}),
    ("tree", {"kind": "tree-projection", "depth": 3,
              "chi": {"values": [1, [2]]}}),
    ("counterexample", {"kind": "counterexample", "p": "abc"}),
    ("counterexample", {"kind": "counterexample", "p": 0.6,
                        "levels": ["a"]}),
    ("tree", {"kind": "tree-projection", "depth": 3,
              "chi": {"leaf_indicator": "x"}}),
    ("counterexample", {"kind": "counterexample", "p": 0.6, "levels": [1],
                        "theta_tol": float("nan")}),
    ("simulate", {"kind": "simulate", "paths": 16,
                  "market": dict(MARKET, horizon=float("inf"))}),
    ("stability", {"kind": "stability-filtration", "market": MARKET,
                   "signal": {"direction": [1.0, 0.3]}, "paths": 16,
                   "event_threshold": float("nan")}),
    ("solve", {"kind": "solve", "covariance": [[0.5, 0.1], [0.1, 0.4]],
               "drift": [0.3, 0.4], "constraint": {"type": "ball",
                                                   "radius": -1}}),
    ("stability", {"kind": "stability-filtration", "market": MARKET,
                   "signal": {"direction": [1.0, 0.3]}, "paths": 16,
                   "constraint": {"type": "ball", "radius": -1}}),
    ("simulate", {"kind": "simulate", "market": [2, 4], "paths": 8}),
    ("tree", {"kind": "tree-projection", "depth": 3, "chi": [1]}),
    ("counterexample", {"kind": "counterexample", "p": 0.6, "levels": [1],
                        "quad_range": "wide"}),
    ("counterexample", {"kind": "counterexample", "p": 0.6, "levels": [1],
                        "quad_nodes": 40.5}),
    ("solve", dict(SOLVE, drift=1.0)),
    ("density-check", {"kind": "density-check", "family": "lognormal",
                       "vols": 0, "paths": 8, "n_steps": 8}),
    ("stability", dict(PROBABILITY, eps_ladder=True)),
    ("stability", dict(PROBABILITY, eps_ladder=[0.5])),
    ("sensitivity", dict(PROBABILITY, kind="sensitivity", eps_ladder=[0.5])),
    ("simulate", {"kind": "simulate", "market": dict(MARKET, n_steps=2.7),
                  "paths": 8}),
    ("solve", dict(SOLVE, constraint={"type": "ball"})),
    ("solve", dict(SOLVE, constraint={"type": "intersection"})),
    ("solve", dict(SOLVE, constraint={"type": "box", "lower": [-1, -1]})),
    ("solve", dict(SOLVE, constraint={"type": "polytope",
                                      "normals": [[1.0, 0.0]]})),
    ("stability", {"kind": "stability-constraint", "market": MARKET,
                   "sets": {"type": "ball", "radius": 2.0},
                   "limit_set": {"type": "ball", "radius": 1.0}}),
    ("stability", {"kind": "stability-constraint", "market": MARKET,
                   "sets": [{"type": "ball", "radius": 2.0}], "paths": 8,
                   "limit_set": {"type": "ball", "radius": 1.0}}),
    ("stability", {"kind": "stability-filtration", "market": MARKET,
                   "signal": {"direction": [1.0, 0.3], "noise_scales": [0.5]},
                   "paths": 8}),
    ("density-check", {"kind": "density-check", "family": "lognormal",
                       "vols": [0.4, -0.2], "paths": 8, "n_steps": 8}),
    ("density-check", {"kind": "density-check", "family": "excursion",
                       "sizes": [0.0, 2.0], "paths": 8, "n_steps": 8}),
], ids=["solve-ragged-covariance", "solve-ragged-drift",
        "density-check-text-vol", "sensitivity-ragged-eps",
        "probability-text-eps", "tree-ragged-chi", "counterexample-text-p",
        "counterexample-text-level", "tree-text-leaf",
        "counterexample-nan-tol", "simulate-inf-horizon",
        "filtration-nan-threshold", "solve-negative-radius",
        "filtration-negative-radius", "market-not-a-mapping",
        "chi-not-a-mapping", "text-quad-range", "fractional-quad-nodes", "scalar-drift", "scalar-vols",
        "boolean-eps-ladder", "one-rung-probability", "one-rung-sensitivity",
        "fractional-n-steps", "ball-without-radius",
        "intersection-without-members", "box-without-upper",
        "polytope-without-offsets", "sets-not-a-list", "one-set-ladder",
        "one-noise-scale", "negative-vol", "zero-size"])
def test_malformed_config_numbers_exit_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "bad.yaml", payload)
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not any(name.endswith((".csv", ".json"))
                   for name in os.listdir(tmp_path / "run"))


FILTRATION = {"kind": "stability-filtration", "market": MARKET,
              "signal": {"direction": [1.0, 0.3],
                         "noise_scales": [0.5, 0.25]}, "paths": 8}


@pytest.mark.parametrize("command, payload, key", [
    ("stability", dict(FILTRATION, paths=True), "paths"),
    ("stability", dict(FILTRATION, seed=True), "seed"),
    ("stability", dict(FILTRATION, threads=True), "threads"),
    ("stability", dict(FILTRATION, constraint={"type": "ball",
                                               "radius": True}), "radius"),
    ("solve", dict(SOLVE, covariance=[[0.5, 0.1], [0.1, True]]),
     "covariance"),
    ("stability", dict(PROBABILITY, eps_ladder=[True, 0.5]), "eps_ladder"),
    ("stability", dict(FILTRATION, signal={"direction": [1.0, 0.3],
                                           "noise_scales": [True, 0.5]}),
     "noise_scales"),
], ids=["paths", "seed", "threads", "ball-radius", "covariance-entry",
        "eps-ladder-entry", "noise-scales-entry"])
def test_boolean_numbers_exit_2(tmp_path, capsys, command, payload, key):
    # JSON and YAML booleans are ints to Python: true once ran as 1 path,
    # seed 1 or a unit radius.
    cfg = write_config(tmp_path, "bool.yaml", payload)
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("command, payload", [
    ("counterexample", {"kind": "counterexample", "p": 0.6, "levels": 5}),
    ("counterexample", {"kind": "counterexample", "p": 0.6, "levels": []}),
    ("tree", {"kind": "tree-projection", "depth": 3,
              "chi": {"leaf_indicator": 1}, "caps": 3}),
    ("tree", {"kind": "tree-projection", "depth": 3,
              "chi": {"leaf_indicator": 1}, "caps": []}),
], ids=["counterexample-scalar-levels", "counterexample-empty-levels",
        "tree-scalar-caps", "tree-empty-caps"])
def test_malformed_config_int_lists_exit_2(tmp_path, capsys, command,
                                           payload):
    cfg = write_config(tmp_path, "bad.yaml", payload)
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("kind, extra", [
    ("simulate", {"constraint": {"type": "ball", "radius": 1.5}}),
    ("stability-filtration", {"signal": {"direction": [1.0, 0.3],
                                         "noise_scales": [0.5, 0.25]}}),
], ids=["simulate", "filtration"])
def test_one_step_market_exits_0(tmp_path, kind, extra):
    cfg = write_config(tmp_path, "one.yaml", dict(
        extra, kind=kind, market=dict(MARKET, n_steps=1), paths=16))
    command = kind.split("-")[0]
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "run")) == 0


def test_bad_seed_exits_2(tmp_path):
    cfg = write_config(tmp_path, "sim.yaml", {
        "kind": "simulate", "market": MARKET, "paths": 16,
    })
    assert run_cli("simulate", "--config", cfg, "--seed", "-1",
                   "--out", str(tmp_path / "o")) == 2


def test_canonical_json_is_order_insensitive():
    a = {"b": 1, "a": [1.5, 2], "c": {"y": np.float64(0.25), "x": 3}}
    b = {"c": {"x": 3, "y": 0.25}, "a": [1.5, 2], "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert config_hash(a) == config_hash(b)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   np.float64("-inf")])
def test_canonical_json_rejects_non_finite_numbers(value):
    # JSON has no NaN or infinity: the error names the offending entry
    with pytest.raises(GrowthlabError,
                       match=r"^JSON cannot hold b = -?(nan|inf)$"):
        canonical_json({"a": 1.0, "b": [0.5, value]})


def test_non_finite_json_exits_3_without_traceback(tmp_path, monkeypatch,
                                                   capsys):
    import growthlab.cli as cli

    cfg = write_config(tmp_path, "solve.yaml", {
        "kind": "solve", "covariance": [[1.0, 0.0], [0.0, 1.0]],
        "drift": [0.1, 0.2],
    })
    monkeypatch.setattr(cli, "growth_rate", lambda *args: float("nan"))
    assert run_cli("solve", "--config", cfg,
                   "--out", str(tmp_path / "run")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "growth = nan" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "summary.json").exists()


def test_library_type_error_escapes_as_a_crash(tmp_path, monkeypatch,
                                               capsys):
    # A TypeError inside a constructor is a bug in the library, not a bad
    # config: it once printed "config error:" and exited 2.
    import growthlab.market as market

    def broken(self):
        raise TypeError("a bug in MarketSpec")

    monkeypatch.setattr(market.MarketSpec, "__post_init__", broken)
    cfg = write_config(tmp_path, "sim.yaml", {
        "kind": "simulate", "market": MARKET, "paths": 8})
    with pytest.raises(TypeError, match="a bug in MarketSpec"):
        run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "run"))
    assert "config error" not in capsys.readouterr().err


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(str(target), {"v": 1})
    atomic_write_json(str(target), {"v": 2})
    assert json.loads(target.read_text()) == {"v": 2}
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_csv_float_format_round_trips(tmp_path):
    path = tmp_path / "x.csv"
    value = 0.1 + 0.2
    write_csv(str(path), ["x"], [[value]])
    with open(path) as fh:
        fh.readline()
        back = float(fh.readline())
    assert back == value


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about a quarter second of start-up; only the d >= 3 Sobol
    # nets and the counterexample's interior root search load it.
    script = ("import sys, growthlab.cli; "
              "loaded = [m for m in sys.modules if m.startswith('scipy')]; "
              "assert not loaded, loaded")
    result = subprocess.run([sys.executable, "-c", script], env=src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_memory_error_exits_2_without_traceback(tmp_path, monkeypatch,
                                                capsys):
    # A real allocation of that size may fault pages instead of raising
    # (overcommit), so the ladder is made to raise.
    import growthlab.cli as cli

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 PiB for an array")

    cfg = write_config(tmp_path, "filtration.yaml", {
        "kind": "stability-filtration", "market": MARKET,
        "signal": {"direction": [1.0, 0.3]}, "paths": 10 ** 15,
    })
    monkeypatch.setattr(cli, "filtration_ladder", too_large)
    assert run_cli("stability", "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "cannot be allocated" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, payload", [
    ("stability", {"kind": "stability-filtration", "market": MARKET,
                   "signal": {"direction": [1.0, 0.3]}}),
    ("stability", {"kind": "stability-probability", "market": MARKET,
                   "tilt": {"lam1": [0.4, -0.2]}}),
    ("stability", {"kind": "stability-probability", "market": MARKET,
                   "tilt": {"lam1": [0.4, -0.2], "orthogonal_vol": 0.2}}),
    ("sensitivity", {"kind": "sensitivity", "market": MARKET,
                     "tilt": {"lam1": [0.4, -0.2]}}),
    ("simulate", {"kind": "simulate", "market": MARKET}),
], ids=["filtration", "probability", "probability-orthogonal", "sensitivity",
        "simulate"])
def test_unindexable_path_count_exits_2(tmp_path, capsys, command, payload):
    # 1e308 is an integer, so it passes the config check; its path arrays
    # cannot be indexed, and the run must stop before it draws anything.
    cfg = write_config(tmp_path, "huge.yaml", dict(payload, paths=1.0e308))
    assert run_cli(command, "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: path count too large")
    assert "Traceback" not in err


def test_path_count_beyond_memory_exits_2_before_spawning(tmp_path):
    # 1e15 paths pass the indexing bound on this market and once spent hours
    # in SeedSequence.spawn; no machine holds 8e15 bytes, so the run stops
    # first. A child with a timeout turns a regression into a failure.
    cfg = write_config(tmp_path, "huge.yaml", {
        "kind": "sensitivity", "market": MARKET,
        "tilt": {"lam1": [0.4, -0.2]}, "paths": 10 ** 15})
    result = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", "sensitivity", "--config", cfg,
         "--out", str(tmp_path / "run")],
        env=src_env(), capture_output=True, text=True, timeout=30)
    assert result.returncode == 2
    assert result.stderr.startswith("config error: path count too large")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("payload, message", [
    ({"depth": 63}, "config error: bad tree config: tree depth 63 too large"),
    ({"depth": 40}, "config error: bad tree config: tree depth 40 too large"),
    ({"depth": 3, "caps": [-5, 2]}, "config error: caps must be nonnegative"),
], ids=["unindexable-depth", "depth-beyond-memory", "negative-cap"])
def test_tree_config_no_run_can_hold_exits_2(tmp_path, payload, message):
    # Depth 63 once failed in np.zeros with a traceback, and depth 40 asks
    # for terabytes; a negative cap acted as cap 0. A child with a timeout
    # turns an allocation that starts after all into a failure.
    cfg = write_config(tmp_path, "tree.yaml", dict(
        {"kind": "tree-projection", "chi": {"leaf_indicator": 0}}, **payload))
    result = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", "tree", "--config", cfg,
         "--out", str(tmp_path / "run")],
        env=src_env(), capture_output=True, text=True, timeout=30)
    assert result.returncode == 2
    assert result.stderr.startswith(message)
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


@pytest.mark.parametrize("market", [
    {"dim": 10 ** 10, "n_steps": 4},
    dict(MARKET, dim=10 ** 10),
    dict(MARKET, n_steps=10 ** 12),
], ids=["default-covariance", "given-covariance", "steps"])
def test_market_config_no_run_can_hold_exits_2(tmp_path, market):
    # A default covariance of dim 1e10 once escaped np.eye as a ValueError
    # with a traceback; a given covariance must not build the default. A
    # child with a timeout turns an allocation that starts into a failure.
    cfg = write_config(tmp_path, "market.yaml",
                       {"kind": "simulate", "market": market})
    result = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", "simulate", "--config", cfg,
         "--out", str(tmp_path / "run")],
        env=src_env(), capture_output=True, text=True, timeout=30)
    assert result.returncode == 2
    assert result.stderr.startswith(
        "config error: bad market config: market too large")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_counterexample_rejects_a_huge_quadrature_at_once(tmp_path, capsys):
    # building the non-finite 6000-node rule took 18 s before the run gave up
    cfg = write_config(tmp_path, "quad.yaml", {
        "kind": "counterexample", "p": 0.6, "quad_nodes": 6000})
    start = time.perf_counter()
    assert run_cli("counterexample", "--config", cfg,
                   "--out", str(tmp_path / "run")) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ("numerical error: Gauss-Hermite rule "
                                       "with 6000 nodes is not finite; use "
                                       "fewer nodes\n")


def test_manifest_records_malloc_policy(tmp_path):
    cfg = write_config(tmp_path, "solve.yaml", {
        "kind": "solve", "covariance": [[1.0, 0.0], [0.0, 1.0]],
        "drift": [0.1, 0.2],
    })
    out = tmp_path / "run"
    assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert isinstance(diagnostics["malloc_retained"], bool)
    if glibc_version():
        assert diagnostics["malloc_retained"] is True


@pytest.mark.skipif(not glibc_version(), reason="mallopt is glibc's")
def test_malloc_policy_keeps_freed_rung_arrays_mapped():
    # A rung-like burst: 8 arrays of 1.6 MB, freed together. Under glibc's
    # default policy each one is mmapped and unmapped again, so every
    # repetition faults its pages in afresh; importing growthlab must leave
    # that policy alone, and the CLI's policy must end it.
    script = """if True:
        import resource
        import numpy as np
        import growthlab.cli as cli

        def faults_of_20_rungs():
            def rung():
                arrays = [np.ones((1024, 100, 2)) for _ in range(8)]
                del arrays
            rung()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(20):
                rung()
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        default = faults_of_20_rungs()
        assert cli.retain_freed_memory()
        print(default, faults_of_20_rungs())
    """
    result = subprocess.run([sys.executable, "-c", script], env=src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    default, retained = map(int, result.stdout.split())
    assert default >= 10000
    assert retained < 1000


def test_filtration_summary_ignores_blas_threads(tmp_path):
    # The intervals sum per-path projections with dot_last and np.sum, and
    # the joint-normal draws multiply by einsum, not a BLAS matmul, so
    # OpenBLAS's own threading leaves every digit of summary.json and of
    # decay_joint_share in place.
    cfg = write_config(tmp_path, "filtration.yaml", {
        "kind": "stability-filtration",
        "market": dict(MARKET, n_steps=100),
        "signal": {"direction": [1.0, 0.3]},
        "constraint": {"type": "ball", "radius": 2.0},
        "paths": 1500, "seed": 7,
    })
    env = {k: v for k, v in src_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS")}
    outputs = []
    for blas_env in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"run{len(outputs)}"
        result = subprocess.run(
            [sys.executable, "-m", "growthlab.cli", "stability", "--config",
             cfg, "--out", str(out)], env=dict(env, **blas_env),
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        outputs.append(((out / "summary.json").read_bytes(),
                        manifest["diagnostics"]["decay_joint_share"]))
    assert outputs[0] == outputs[1]


KERNEL_MARKET = dict(MARKET, n_steps=100)
KERNEL_RUNS = [
    ("stability", {"kind": "stability-filtration", "market": KERNEL_MARKET,
                   "signal": {"direction": [1.0, 0.3]},
                   "constraint": {"type": "ball", "radius": 2.0},
                   "paths": 512}),
    ("stability", {"kind": "stability-filtration", "paths": 256,
                   "market": dict(MARKET, covariance=[
                       [[0.5, 0.1], [0.1, 0.4]]] * 10 + [
                       [[0.9, -0.2], [-0.2, 0.3]]] * 15),
                   "signal": {"direction": [1.0, 0.3]}}),
    ("stability", {"kind": "stability-constraint", "paths": 256, "market": {
                       "dim": 2, "n_steps": 600,
                       "covariance": [[0.6, 0.1], [0.1, 0.4]],
                       "drift": [5.0, 4.0], "normalize_clock": False},
                   "sets": [{"type": "ball", "radius": 1.5 + 2.0 ** -n}
                            for n in range(1, 9)],
                   "limit_set": {"type": "ball", "radius": 1.5}}),
    *[(command, {"kind": kind, "market": KERNEL_MARKET, "paths": 512,
                 "tilt": {"lam1": [0.5, -0.3], "orthogonal_vol": vol}})
      for command, kind in (("stability", "stability-probability"),
                            ("sensitivity", "sensitivity"))
      for vol in (0.0, 0.5)],
    ("simulate", {"kind": "simulate", "market": KERNEL_MARKET, "paths": 512,
                  "constraint": {"type": "ball", "radius": 1.0}}),
    ("solve", {"kind": "solve", "covariance": [[0.5, 0.1], [0.1, 0.4]],
               "drift": [0.8, 0.5]}),
    ("density-check", {"kind": "density-check", "family": "lognormal",
                       "vols": [0.4, 0.2, 0.1], "paths": 512}),
    ("tree", {"kind": "tree-projection", "depth": 10,
              "chi": {"values": [(7 * i % 13) / 13.0 for i in range(1024)]}}),
    ("counterexample", {"kind": "counterexample", "p": 0.6}),
]
KERNEL_CHILD = """
import ctypes, json, sys
import numpy.linalg._umath_linalg as linalg
from growthlab.cli import main
out, runs = sys.argv[1], json.loads(sys.argv[2])
core = getattr(ctypes.CDLL(linalg.__file__),
               "scipy_openblas_get_corename64_", None)
codes = []
if core is not None:  # else the kernel cannot be confirmed: run nothing
    core.restype = ctypes.c_char_p
    core = core().decode()
    codes = [main([command, "--config", cfg, "--seed", "7",
                   "--out", f"{out}/{i}"]) for i, (command, cfg) in enumerate(runs)]
print(json.dumps([core, codes]))
"""


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # Every product that reaches a CSV or summary.json is an index-ordered
    # sum, so children on three OpenBLAS kernels write the same bytes. The
    # face walk's BLAS products are left out: no run here has halfspace
    # rows. The tree at depth 10 sums its 1024 scenarios with np.sum, which
    # a BLAS dot would not reproduce.
    runs = [(command, write_config(tmp_path, f"{i}.yaml", payload))
            for i, (command, payload) in enumerate(KERNEL_RUNS)]
    env = {k: v for k, v in src_env().items() if k != "OPENBLAS_CORETYPE"}
    cores, exits, files = [], [], []
    for coretype in ("", "Sandybridge", "Prescott"):
        out = tmp_path / (coretype or "default")
        result = subprocess.run(
            [sys.executable, "-c", KERNEL_CHILD, str(out), json.dumps(runs)],
            env=dict(env, OPENBLAS_CORETYPE=coretype) if coretype else env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        core, codes = json.loads(result.stdout.splitlines()[-1])
        if core is None:
            pytest.skip("numpy's OpenBLAS does not export "
                        "scipy_openblas_get_corename64_, so the kernel a "
                        "child runs cannot be confirmed")
        cores.append(core)
        exits.append(codes)
        files.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.rglob("*"))
                      if path.suffix == ".csv" or path.name == "summary.json"})
    assert len(set(cores)) == 3, cores
    assert exits[0] == exits[1] == exits[2] == [0] * len(KERNEL_RUNS)
    assert len(files[0]) > len(KERNEL_RUNS)
    for other in files[1:]:
        assert other.keys() == files[0].keys()
        moved = [str(name) for name in other if other[name] != files[0][name]]
        assert not moved, (cores, moved)


def test_decay_joint_share_matches_joint_normal_oracle(tmp_path, monkeypatch):
    # The share of draws of the slopes' joint normal on which every fitted
    # column decays, against the oracle's delta-method covariance, its
    # symmetric root by sqrtm and the same standard normal draws; a zero
    # column is left out and a deterministic one uses its point slope. One
    # growing column brings the share to 0.
    monkeypatch.setattr(stability, "JOINT_DRAWS", 80)
    monkeypatch.setattr(stability, "JOINT_SEED", 13)
    rng = np.random.default_rng(6)
    scales = 2.0 ** -np.arange(1, 5)
    per_path = {"a": rng.exponential(1.0, (4, 41)) * scales[:, None] ** 0.1,
                "zero": np.zeros((4, 41)),
                "b": rng.exponential(1.0, (4, 41)) * scales[:, None] ** 0.5}

    def joint_share(**extra):
        report = LadderReport(family="synthetic", scales=scales,
                              per_path={**per_path, **extra},
                              deterministic={"d": scales})
        manifest = RunManifest(config={}, seed=0, version="test")
        _write_ladder(str(tmp_path), manifest, "ladder.csv", report,
                      (0, 41, 1))
        return manifest.diagnostics["decay_joint_share"]

    slopes, cov = delta_slope_cov(scales, [per_path["a"], per_path["b"]])
    draws = slopes[:, None] + np.real(sqrtm(cov)) \
        @ np.random.default_rng(13).standard_normal((2, 80))
    share = joint_share()
    assert share == np.mean(np.all(draws < 0.0, axis=0))
    assert 0.0 < share < 1.0
    assert joint_share(up=np.linspace(1.0, 2.0, 4)[:, None]
                       * rng.exponential(1.0, 41)) == 0.0


def test_filtration_joint_share_is_recorded_and_thread_free(tmp_path):
    cfg = write_config(tmp_path, "filtration.yaml", dict(
        FILTRATION, signal={"direction": [1.0, 0.3],
                            "noise_scales": [0.5, 0.25, 0.125]}, paths=256))
    shares, summaries = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert run_cli("stability", "--config", cfg, "--seed", "7",
                       "--threads", threads, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        shares.append(manifest["diagnostics"]["decay_joint_share"])
        assert "decay_joint_share" not in manifest["checks"]
        summaries.append((out / "summary.json").read_bytes())
    assert 0.0 <= shares[0] <= 1.0 and shares[0] == shares[1]
    assert summaries[0] == summaries[1]


HUGE_INT = "9" * 5000  # past str()'s 4300-digit limit for int conversion


@pytest.mark.parametrize("name, text", [
    ("huge.json", '{"kind": "sensitivity", "market": {"dim": 2, "n_steps": 5},'
                  ' "tilt": {"lam1": [0.4, -0.2]}, "paths": ' + HUGE_INT + "}"),
    ("huge.yaml", "kind: sensitivity\nmarket: {dim: 2, n_steps: 5}\n"
                  "tilt: {lam1: [0.4, -0.2]}\npaths: " + HUGE_INT + "\n"),
], ids=["json", "yaml"])
def test_a_huge_integer_in_the_config_exits_2(tmp_path, capsys, name, text):
    # the loaders raise a bare ValueError on the integer
    cfg = tmp_path / name
    cfg.write_text(text)
    assert run_cli("sensitivity", "--config", str(cfg),
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: could not parse")
    assert err.count("\n") == 1 and len(err) < 500
    assert "Traceback" not in err


def test_a_long_value_is_summarised_in_config_messages(tmp_path, capsys):
    from growthlab.cli import _require_keys
    from growthlab.constraints import constraint_from_config
    from growthlab.errors import ConfigError, InfeasibleConstraint, InvalidSpec
    from growthlab.quadform import optimal_fraction_batch

    long = [0.5] * 100000  # 500,030 characters as a repr
    for cfg in (long, {f"k{i}": 0 for i in range(100000)}):  # unknown keys
        with pytest.raises(ConfigError) as info:
            _require_keys(cfg, ("dim",), (), "market")
        assert len(str(info.value)) < 500
    for make, error in (
            (lambda: MarketSpec(dim=2, n_steps=4, clock="x" * 100000),
             InvalidSpec),
            (lambda: MarketSpec(dim=2, n_steps=4, normalize_clock=long),
             InvalidSpec),
            (lambda: LadderReport(family="f", scales=[1.0] * 100000,
                                  per_path={}).point_slopes(), InvalidSpec),
            (lambda: optimal_fraction_batch(np.eye(2), np.zeros(2), long),
             InfeasibleConstraint)):
        with pytest.raises(error) as info:
            make()
        assert len(str(info.value)) < 500
    for payload in ({"kind": "density-check", "family": "x" * 500000},
                    {"kind": "x" * 100000}):
        cfg = tmp_path / "long.json"  # JSON: yaml would parse it slowly
        cfg.write_text(json.dumps(payload))
        assert run_cli("density-check", "--config", str(cfg),
                       "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err) < 500
    for cfg in (long, {"type": "intersection", "members": {"x": long}},
                {"type": "ball", "radius": 1.0, **{str(i): 0 for i in range(
                    100000)}}):
        with pytest.raises(InfeasibleConstraint) as info:
            constraint_from_config(cfg)
        assert len(str(info.value)) < 500
    cfg = write_config(tmp_path, "sets.yaml", {
        "kind": "stability-constraint", "market": MARKET,
        "sets": {"radius": long}, "limit_set": {"type": "ball", "radius": 1.0}})
    assert run_cli("stability", "--config", cfg,
                   "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sets must be a list")
    assert len(err) < 500
