"""Command-line front end.

Every subcommand reads a YAML or JSON config whose "kind" names the
operation, runs it, writes CSV/JSON outputs plus a manifest into --out,
and exits 0 on success, 1 when a recorded check fails, 2 on config
errors (a config whose arrays cannot be allocated included), 3 on
numerical failures.
"""

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from . import __version__
from .constraints import FullSpace, constraint_from_config
from .discrete import (
    OnePeriodMarket, ScenarioTree, discontinuity_report, one_period_optimal,
    tree_projection_convergence,
)
from .errors import (
    ConfigError, DensityFloorHit, DimensionMismatch, GrowthlabError,
    InfeasibleConstraint, InvalidSpec, NonConvergence, NonNestedPartitions,
    QuadratureUnderResolved, ThresholdFailure, UnsupportedSignalModel,
    as_floats, as_int, as_ladder,
)
from .market import (
    GaussianSignalModel, MarketSpec, TiltSpec, cumsum_from_zero,
    simulate_paths,
)
from .numeraire import growth_path, growth_rate, numeraire_fractions, wealth_paths
from .quadform import cov_norm, optimal_fraction_batch
from .reporting import (
    RunManifest, write_csv, write_json, write_ladder_csv, write_wealth_csv,
)
from .sensitivity import expansion_orders, streamed_expansion_ladder
from .stability import (
    LadderReport, constraint_ladder, density_sequence_check,
    excursion_density_ladder, filtration_ladder, lognormal_density_ladder,
    probability_ladder,
)

SHARED_KEYS = ("kind", "seed", "paths", "threads")
IDENTITY_TOL = 1e-8  # largest pathwise response-identity error passed
THETA_TOL = 1e-3  # largest |theta*| the counterexample passes as zero

# glibc mallopt parameters. Arrays up to 32 MiB (the largest mmap threshold
# glibc accepts on 64-bit) come from the heap, and a free keeps up to
# 128 MiB at the heap's top, so a ladder's next rung reuses the pages its
# last rung freed instead of faulting fresh ones in.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_POLICY = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 128 << 20))


def _load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        load, errors = json.loads, json.JSONDecodeError
    else:
        import yaml  # about 20 ms to import: only a non-JSON config needs it
        load, errors = yaml.safe_load, yaml.YAMLError
    try:
        cfg = load(text)
    except errors as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root must be a mapping, got {type(cfg).__name__}")
    return cfg


def _require_keys(cfg, required, optional, where):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a mapping, got {cfg!r}")
    unknown = sorted(map(str, set(cfg) - set(required) - set(optional)))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")


def _build(where, make, **kwargs):
    """make(**kwargs), a library error raised as a ConfigError."""
    try:
        return make(**kwargs)
    except GrowthlabError as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def _market_spec(cfg):
    _require_keys(cfg, ("dim", "n_steps"),
                  ("horizon", "covariance", "drift", "clock", "normalize_clock"),
                  "market")
    return _build("market", MarketSpec, **cfg)


def _constraint(cfg, default_fullspace=True):
    if cfg is None:
        if default_fullspace:
            return FullSpace()
        raise ConfigError("constraint config is required")
    return _build("constraint", constraint_from_config, cfg=cfg)


def _signal_model(cfg):
    _require_keys(cfg, ("direction",),
                  ("prior_mean", "prior_std", "noise_scales"), "signal")
    return _build("signal", GaussianSignalModel, **cfg)


def _tilt_spec(cfg):
    _require_keys(cfg, ("lam1",), ("orthogonal_vol",), "tilt")
    return _build("tilt", TiltSpec, **cfg)


def _runtime(cfg, args):
    """Shared knobs with command-line overrides."""
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    paths = args.paths if args.paths is not None else cfg.get("paths", 1024)
    threads = args.threads if args.threads is not None else cfg.get("threads", 1)
    return (as_int(seed, "seed", 0, 2 ** 64 - 1), as_int(paths, "paths", 1),
            as_int(threads, "threads", 1))


def _slope_summary(slopes):
    return {name: {"slope": res["slope"], "ci_low": res["ci"][0],
                   "ci_high": res["ci"][1], "zero_column": res["zero"],
                   "passed": res["passed"]}
            for name, res in slopes.items()}


def _finish(manifest, out_dir):
    path = manifest.write(out_dir)
    manifest.record_file(path)
    if not manifest.all_passed:
        failing = sorted(k for k, v in manifest.checks.items() if not v)
        raise ThresholdFailure(f"failed checks: {', '.join(failing)}")
    return 0


def _write(out_dir, manifest, name, writer, *args):
    """writer(path, *args) for the file name in out_dir, recorded in the
    manifest."""
    path = os.path.join(out_dir, name)
    writer(path, *args)
    manifest.record_file(path)


def _write_ladder(out_dir, manifest, csv_name, report, runtime, **payload):
    """Ladder table, one decay check per metric, the share of the slopes'
    joint-normal draws on which every fitted metric decays, and a summary of
    payload plus the run's path count and seed and the slopes."""
    slopes = report.slopes()  # first: a ladder it rejects writes nothing
    _write(out_dir, manifest, csv_name, write_ladder_csv, report)
    for name, res in slopes.items():
        manifest.record_check(f"decay:{name}", res["passed"])
    draws = np.array([res["draws"] for res in slopes.values() if not res["zero"]])
    manifest.record_diagnostic("decay_joint_share",
                               float(np.mean(np.all(draws < 0.0, axis=0))))
    _write(out_dir, manifest, "summary.json", write_json,
           dict(payload, n_paths=runtime[1], seed=runtime[0],
                slopes=_slope_summary(slopes)))


def cmd_solve(cfg, runtime, out_dir, manifest):
    cov = as_floats(cfg["covariance"], "covariance")
    drift = as_floats(cfg["drift"], "drift")
    constraint = _constraint(cfg.get("constraint"))
    fraction = optimal_fraction_batch(cov, drift, constraint)
    growth = float(growth_rate(cov, drift, fraction))
    _write(out_dir, manifest, "summary.json", write_json, {
        "fraction": fraction,
        "growth": growth,
        "drift_norm": cov_norm(cov, drift),
        "fraction_norm": cov_norm(cov, fraction),
        "constraint": constraint.to_config(),
    })
    manifest.record_check("solved", True)


def cmd_simulate(cfg, runtime, out_dir, manifest):
    seed, paths, threads = runtime
    spec = _market_spec(cfg["market"])
    constraint = _constraint(cfg.get("constraint"))
    bundle = simulate_paths(spec, paths, seed, threads=threads)
    fractions = numeraire_fractions(bundle, constraint)
    wealth = wealth_paths(bundle, fractions)
    gp = growth_path(bundle, fractions)
    dB, dL = wealth.dB[:1], wealth.dL[:1]  # the table shows the first path
    _write(out_dir, manifest, "wealth.csv", write_wealth_csv, spec.grid,
           cumsum_from_zero(dB + dL)[0], cumsum_from_zero(dB)[0],
           cumsum_from_zero(dL)[0], gp.cumulative)
    terminal = wealth.terminal_log_wealth
    _write(out_dir, manifest, "summary.json", write_json, {
        "mean_terminal_log_wealth": float(terminal.mean()),
        "stderr_terminal_log_wealth": float(terminal.std() / np.sqrt(paths)),
        "expected_growth": gp.total,
        "unconstrained_growth_bound": gp.unconstrained_bound,
        "n_paths": paths,
        "seed": seed,
    })
    manifest.record_check("completed", True)


def cmd_filtration(cfg, runtime, out_dir, manifest):
    seed, paths, threads = runtime
    report = filtration_ladder(
        _market_spec(cfg["market"]), _signal_model(cfg["signal"]),
        _constraint(cfg.get("constraint")), paths, seed, threads=threads,
        event_threshold=cfg.get("event_threshold"))
    _write_ladder(out_dir, manifest, "ladder.csv", report, runtime,
                  family=report.family, scales=report.scales)


def cmd_probability(cfg, runtime, out_dir, manifest):
    seed, paths, threads = runtime
    report = probability_ladder(
        _market_spec(cfg["market"]), _tilt_spec(cfg["tilt"]),
        _constraint(cfg.get("constraint")), paths, seed, threads=threads,
        eps_ladder=cfg.get("eps_ladder"))
    _write_ladder(out_dir, manifest, "ladder.csv", report, runtime,
                  family=report.family, scales=report.scales)


def cmd_constraint(cfg, runtime, out_dir, manifest):
    seed, paths, threads = runtime
    spec = _market_spec(cfg["market"])
    if not isinstance(cfg["sets"], list):
        raise ConfigError(f"sets must be a list, got {cfg['sets']!r}")
    sets = [_constraint(c, default_fullspace=False) for c in cfg["sets"]]
    limit = _constraint(cfg["limit_set"], default_fullspace=False)
    report = constraint_ladder(spec, sets, limit, paths, seed, threads=threads)
    manifest.record_check("per_step_bound", report.meta["bound_ok"])
    for key in ("bound_unchecked_steps", "ladder_scale"):
        manifest.record_diagnostic(key, report.meta[key])
    _write_ladder(out_dir, manifest, "ladder.csv", report, runtime,
                  family=report.family, scales=report.scales)


def cmd_sensitivity(cfg, runtime, out_dir, manifest):
    # point orders only: slopes() adds a key the benchmark reference lacks
    seed, paths, threads = runtime
    report = streamed_expansion_ladder(
        _market_spec(cfg["market"]), _tilt_spec(cfg["tilt"]),
        cfg.get("eps_ladder", [0.2, 0.1, 0.05, 0.025]), paths, seed,
        threads=threads)
    _write(out_dir, manifest, "errors.csv", write_ladder_csv, report)
    identity_err = report.meta["identity_max_error"]
    manifest.record_check("response_identity", identity_err <= IDENTITY_TOL)
    orders = expansion_orders(report)
    for tag in ("first", "second"):
        for key in ("order_fv", "order_qv"):
            order = orders[f"{tag}_order"][key]
            if order is not None:
                manifest.record_check(f"{tag}_{key}_in_range",
                                      0.8 <= order <= 1.2)
    _write(out_dir, manifest, "summary.json", write_json, dict(
        orders, identity_max_error=identity_err, identity_tol=IDENTITY_TOL,
        eps_ladder=report.scales, n_paths=paths, seed=seed))


def cmd_counterexample(cfg, runtime, out_dir, manifest):
    kwargs = {key: cfg[key] for key in ("quad_nodes", "quad_range",
                                        "signal_mean") if key in cfg}
    report = discontinuity_report(cfg["p"], cfg.get("levels", range(1, 9)),
                                  **kwargs)
    market = OnePeriodMarket(p=cfg["p"])
    limit, p = one_period_optimal(market), market.p
    rows = [{"level": n, "theta_star": t, "gap": g}
            for n, t, g in zip(report["level"], report["theta_star"],
                               report["gap"])]
    _write(out_dir, manifest, "gaps.csv", write_csv,
           ["level", "theta_star", "gap"], rows)
    theta_max = max(abs(t) for t in report["theta_star"])
    manifest.record_check("theta_near_zero", theta_max <= THETA_TOL)
    _write(out_dir, manifest, "summary.json", write_json, {
        "p": p,
        "theta_max": theta_max,
        "limit_wealth_values": limit.wealth_values,
        "limit_wealth_probs": limit.wealth_probs,
        "expected_gap": abs(2.0 * p - 1.0),
    })


def cmd_tree(cfg, runtime, out_dir, manifest):
    tree = _build("tree", ScenarioTree, depth=cfg["depth"],
                  up_probs=cfg.get("up_probs"),
                  clock_increments=cfg.get("clock_increments"))
    chi_cfg = cfg["chi"]
    _require_keys(chi_cfg, (), ("leaf_indicator", "values"), "chi")
    if ("leaf_indicator" in chi_cfg) == ("values" in chi_cfg):
        raise ConfigError("chi needs exactly one of leaf_indicator, values")
    if "leaf_indicator" in chi_cfg:
        chi = np.zeros(tree.n_scenarios)
        chi[as_int(chi_cfg["leaf_indicator"], "leaf_indicator", 0,
                   tree.n_scenarios - 1)] = 1.0
    else:
        chi = chi_cfg["values"]
    depth = tree.depth
    conv = tree_projection_convergence(tree, chi,
                                       cfg.get("caps", range(depth + 1)))
    caps, expected = conv["caps"], conv["expected"]
    rows = [{"cap": n, "expected_gap": g} for n, g in zip(caps, expected)]
    _write(out_dir, manifest, "projection.csv", write_csv,
           ["cap", "expected_gap"], rows)
    manifest.record_check("monotone",
                          bool(np.all(np.diff(expected) <= 1e-12)))
    if caps[-1] == depth:
        manifest.record_check("zero_at_full_cap",
                              bool(abs(expected[-1]) <= 1e-12))
    _write(out_dir, manifest, "summary.json", write_json, {
        "depth": depth, "caps": caps, "expected_gaps": expected,
    })


def cmd_density_check(cfg, runtime, out_dir, manifest):
    seed, paths, _ = runtime
    family = cfg["family"]
    n_steps, horizon = cfg.get("n_steps", 256), cfg.get("horizon", 1.0)
    if family == "lognormal":
        if "vols" not in cfg:
            raise ConfigError("lognormal family needs vols")
        scales = as_ladder(cfg["vols"], "vols")
        z_list = lognormal_density_ladder(scales, paths, n_steps, horizon, seed)
    elif family == "excursion":
        if "sizes" not in cfg:
            raise ConfigError("excursion family needs sizes")
        sizes = as_ladder(cfg["sizes"], "sizes")
        z_list = excursion_density_ladder(sizes, cfg.get("kappa", 1.0), paths,
                                          n_steps, horizon, seed)
        scales = 1.0 / sizes
    else:
        raise ConfigError(f"unknown density family: {family!r}")
    report = LadderReport(family=f"density-{family}", scales=scales,
                          per_path=density_sequence_check(z_list)["per_path"])
    _write_ladder(out_dir, manifest, "density.csv", report, runtime,
                  family=family)


# kind: (subcommand, handler, required keys, optional keys besides
# SHARED_KEYS); the parser lists subcommands in the order they first appear
KINDS = {
    "solve": ("solve", cmd_solve, ("covariance", "drift"), ("constraint",)),
    "simulate": ("simulate", cmd_simulate, ("market",), ("constraint",)),
    "stability-filtration": ("stability", cmd_filtration, ("market", "signal"),
                             ("constraint", "event_threshold")),
    "stability-probability": ("stability", cmd_probability, ("market", "tilt"),
                              ("constraint", "eps_ladder")),
    "stability-constraint": ("stability", cmd_constraint,
                             ("market", "sets", "limit_set"), ()),
    "sensitivity": ("sensitivity", cmd_sensitivity, ("market", "tilt"),
                    ("eps_ladder",)),
    "counterexample": ("counterexample", cmd_counterexample, ("p",),
                       ("levels", "quad_nodes", "quad_range", "signal_mean")),
    "tree-projection": ("tree", cmd_tree, ("depth", "chi"),
                        ("up_probs", "clock_increments", "caps")),
    "density-check": ("density-check", cmd_density_check, ("family",),
                      ("vols", "sizes", "kappa", "n_steps", "horizon")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="Constrained growth-optimal portfolios and their "
                    "stability under perturbed information, measure, and "
                    "constraints.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML or JSON config")
    common.add_argument("--seed", type=int, default=None,
                        help="64-bit seed (overrides config)")
    common.add_argument("--paths", type=int, default=None,
                        help="Monte Carlo paths (overrides config)")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(entry[0] for entry in KINDS.values()):
        sub.add_parser(name, parents=[common])
    return parser


def retain_freed_memory():
    """Set MALLOC_POLICY through glibc's mallopt; True when every call
    succeeded, False where there is no mallopt (macOS, Windows). The CLI
    owns its process, so main calls this; importing growthlab leaves a host
    process's allocator alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in MALLOC_POLICY])


def run(args, malloc_retained):
    cfg = _load_config(args.config)
    kind = cfg.get("kind")
    allowed = [k for k, entry in KINDS.items() if entry[0] == args.command]
    if kind not in allowed:
        raise ConfigError(
            f"config kind {kind!r} does not fit subcommand {args.command!r} "
            f"(expected one of {', '.join(allowed)})")
    out_dir = args.out if args.out is not None else f"growthlab-{args.command}"
    os.makedirs(out_dir, exist_ok=True)
    runtime = _runtime(cfg, args)
    manifest = RunManifest(config=cfg, seed=runtime[0], version=__version__)
    manifest.record_diagnostic("malloc_retained", malloc_retained)
    _, handler, required, optional = KINDS[kind]
    _require_keys(cfg, required, optional + SHARED_KEYS, "config")
    handler(cfg, runtime, out_dir, manifest)
    return _finish(manifest, out_dir)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    malloc_retained = retain_freed_memory()
    try:
        return run(args, malloc_retained)
    except MemoryError as exc:
        print(f"config error: the arrays this config asks for cannot be "
              f"allocated ({exc})", file=sys.stderr)
        return 2
    except ThresholdFailure as exc:
        print(f"threshold failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, InvalidSpec, DimensionMismatch, InfeasibleConstraint,
            NonNestedPartitions, UnsupportedSignalModel) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, DensityFloorHit, QuadratureUnderResolved) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except GrowthlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
