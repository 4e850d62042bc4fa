"""growthlab benchmark: three CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {filtration,sensitivity,constraint}
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference
    python3 -m pytest perfbench          # tests of the benchmark's own logic

Every repetition runs in a fresh child interpreter (perfbench/child.py)
with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, so --threads is the only
parallelism. The child imports growthlab.cli from the checkout's src/ and
calls growthlab.cli.main twice, at --threads 1 and then --threads 2. CLI
outputs go to a temporary directory under .perfbench_work/ in the checkout,
removed at exit.

Seeds. --seed is passed to the CLI's --seed for the timed repetitions
(default 7, workloads.DEFAULT_SEED). Each run also makes one untimed CLI
run on the default seed and compares its slopes and ladder values with
reference.json, recorded at the commit that added this benchmark. A
performance claim measured on one seed must be re-checked on another seed
that was not used while the change was written.

--trace 0 measures with tracing off and reports, as medians over the
repetitions made in --seconds (the count is printed):
  setup_s      fresh interpreter to ``import growthlab.cli`` done
  run_s        wall seconds of main([...]) at --threads 1, outputs written
  run_s_2t     the same at --threads 2
  peak_rss_mb  the child's own ru_maxrss after its --threads 2 run
failed_share (failed CLI runs / attempted) is printed, and carried by the
"attempted" and "failed" fields of the result line. A CLI run fails on a
nonzero exit code, a false manifest check, outputs that differ between
--threads 1 and 2, or reference values out of tolerance.

--trace 1 makes untraced and traced repetitions in pairs, at --threads 1.
The traced child wraps growthlab's public functions (perfbench/spans.py)
and the per-layer metrics are medians over the traced repetitions;
trace.overhead_s is the median over pairs of traced minus untraced run_s. The setup.import_s.* metrics parse
``python -X importtime -c "import growthlab.cli"``.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". BENCHMARK.json lists the
filtration and sensitivity workloads; constraint runs by hand only,
because three workloads of steady 60-second runs do not fit the time a
full benchmark pass may take.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import analysis
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD_TIMEOUT_S = 150

# Reference tolerance. growthlab.quadform stops the solver once the
# projected-gradient residual is at most SOLVER_RESIDUAL_TOL = 1e-8; by
# strong convexity a row meeting it lies within 2e-8 / lambda_min(c) ~ 6e-8
# of its exact optimum on these markets (lambda_min >= 0.33). FISTA in fact
# ends far closer than that bound. Measured on the reference values:
# tightening the rule to 1e-11 moved none by more than 1.3e-10 of itself,
# and stopping each row on its own residual instead of the batch's worst
# (the per-row solver ROADMAP item 2 asks for) by none more than 1.8e-9,
# 3.4e-10 absolute. REL_TOL leaves a margin of 500 over that; a real
# change of results (seed handling, dedup fan-out, a solver residual of
# 1e-4) moves them by more. ABS_TOL serves values that are zero.
REL_TOL = 1e-6
ABS_TOL = 1e-12

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("run_s_2t", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


class Bench:
    """Starts child repetitions of one workload and checks their outputs."""

    def __init__(self, workload, work_dir):
        self.workload = WORKLOADS[workload]
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []
        self.environment = None
        self._count = 0
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.workload["config"], fh)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1")
        # Let the first child cache growthlab's bytecode in src/__pycache__,
        # as an installed package has it, so set-up never includes compiling.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def child(self, seed, threads, trace=False):
        """One repetition in a fresh process; returns the child's result."""
        self._count += 1
        base = os.path.join(self.work_dir, f"rep{self._count}")
        os.makedirs(base)
        request = {
            "argv": [self.workload["command"], "--config", self.config_path,
                     "--seed", str(seed),
                     "--paths", str(self.workload["paths"])],
            "threads": list(threads), "out": base, "trace": trace,
            "result": os.path.join(base, "result.json"),
        }
        request_path = os.path.join(base, "request.json")
        with open(request_path, "w") as fh:
            json.dump(request, fh)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), request_path]
        start = time.monotonic()
        proc = subprocess.run(cmd + [repr(start)], env=self.env, cwd=ROOT,
                              stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not os.path.exists(request["result"]):
            raise BenchError(f"child repetition exited with {proc.returncode}")
        with open(request["result"]) as fh:
            result = json.load(fh)
        if os.path.realpath(os.path.dirname(result["module_file"])) != \
                os.path.realpath(os.path.join(SRC, "growthlab")):
            raise BenchError(f"growthlab imported from {result['module_file']}, "
                             f"not from {SRC}")
        self.environment = result["environment"]
        self.attempted += len(result["runs"])
        for run in result["runs"]:
            self._check_run(run)
        first = result["runs"][0]
        for run in result["runs"][1:]:
            self.check_identical(first, run)
        return result

    def _fail(self, run, why):
        self.failures.append(f"threads={run['threads']} {run['out']}: {why}")

    def _check_run(self, run):
        run["ok"] = False
        if run["code"] != 0:
            return self._fail(run, f"exit code {run['code']}")
        try:
            with open(os.path.join(run["out"], "manifest.json")) as fh:
                checks = json.load(fh)["checks"]
        except (OSError, ValueError, KeyError) as exc:
            return self._fail(run, f"unreadable manifest: {exc}")
        failing = sorted(k for k, v in checks.items() if not v)
        if failing or not checks:
            return self._fail(run, f"manifest checks failed: {failing}")
        run["ok"] = True

    def check_identical(self, first, run):
        """Outputs other than manifest.json must be byte-identical."""
        if not (first["ok"] and run["ok"]):
            return
        names = sorted((set(os.listdir(first["out"])) |
                        set(os.listdir(run["out"]))) - {"manifest.json"})
        differ = [n for n in names if _read(first["out"], n) !=
                  _read(run["out"], n)]
        if differ:
            run["ok"] = False
            self._fail(run, f"differs from {first['out']}: {differ}")

    def check_reference(self, name, run):
        """Compare a default-seed run with the recorded reference values."""
        if not run["ok"]:
            return
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        entry = reference["workloads"][name]
        if reference["seed"] != DEFAULT_SEED or \
                entry["paths"] != self.workload["paths"]:
            raise BenchError("reference.json was recorded for another seed or "
                             "path count; see --record-reference")
        bad = analysis.reference_mismatches(
            analysis.result_values(run["out"]), entry["values"],
            REL_TOL, ABS_TOL)
        if bad:
            run["ok"] = False
            self._fail(run, f"reference values out of tolerance: {bad}")


def _read(directory, name):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _repeat(deadline, body):
    """Call body at least once, and again while the median repetition still
    fits before deadline."""
    durations = []
    while True:
        start = time.monotonic()
        body()
        durations.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(durations) > deadline:
            return


def end_to_end(bench, seed, deadline, ref_setup_s):
    """Samples of the end-to-end metrics. Set-up does not depend on the
    seed, so the reference repetition's set-up is one more sample."""
    samples = {name: [] for name, _ in END_TO_END}
    samples["setup_s"].append(ref_setup_s)

    def rep():
        result = bench.child(seed, (1, 2))
        t1, t2 = result["runs"]
        samples["setup_s"].append(result["setup_s"])
        samples["run_s"].append(t1["run_s"])
        samples["run_s_2t"].append(t2["run_s"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])

    _repeat(deadline, rep)
    return {name: (unit, samples[name]) for name, unit in END_TO_END}


def per_layer(bench, seed, deadline):
    """Samples of the per-layer metrics: one per traced repetition, each
    traced repetition paired with an untraced one on the same seed."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import growthlab.cli"],
        env=bench.env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"importing growthlab.cli failed:\n{proc.stderr}")
    samples = {name: [value] for name, value in
               analysis.import_metrics(proc.stderr).items()}

    def pair():
        plain = bench.child(seed, (1,))["runs"][0]
        result = bench.child(seed, (1,), trace=True)
        traced = result["runs"][0]
        bench.check_identical(plain, traced)
        layers = analysis.layer_metrics(result["spans"])
        layers["reporting.write.bytes"] = sum(
            os.path.getsize(os.path.join(traced["out"], n))
            for n in os.listdir(traced["out"]))
        layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)

    _repeat(deadline, pair)
    return {name: (unit, samples[name])
            for name, unit in analysis.per_layer_units().items()}


def record_reference():
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        with _work_dir() as work:
            bench = Bench(name, work)
            run = bench.child(DEFAULT_SEED, (1,))["runs"][0]
            if bench.failures:
                raise BenchError("; ".join(bench.failures))
            out["workloads"][name] = {
                "paths": bench.workload["paths"],
                "values": analysis.result_values(run["out"])}
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _work_dir():
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as work:
            yield work
    finally:
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="growthlab CLI benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "growthlab", "cli.py")):
        raise BenchError(f"no growthlab sources under {SRC}")
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    deadline = started + args.seconds
    with _work_dir() as work:
        bench = Bench(args.workload, work)
        # Untimed first repetition: the reference check, which also compiles
        # bytecode and warms the file cache before anything is timed.
        ref = bench.child(DEFAULT_SEED, (1,))
        bench.check_reference(args.workload, ref["runs"][0])
        if args.trace:
            samples = per_layer(bench, args.seed, deadline)
        else:
            samples = end_to_end(bench, args.seed, deadline, ref["setup_s"])
        metrics = {name: (statistics.median(values), unit, values)
                   for name, (unit, values) in samples.items()}

    failed = len(bench.failures)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, "
          f"{time.monotonic() - started:.1f} s")
    print("environment: " + json.dumps(bench.environment, sort_keys=True))
    for name, (value, unit, values) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:12s} median of "
              f"{len(values)}: " + " ".join(f"{v:.4g}" for v in values))
    print(f"  {'failed_share':40s} {failed / bench.attempted:14.6g} "
          f"{'ratio':12s} {failed} of {bench.attempted} CLI runs")
    for why in bench.failures:
        print(f"  FAILED {why}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
