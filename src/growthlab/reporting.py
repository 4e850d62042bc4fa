"""Deterministic run outputs: CSV tables, JSON summaries, manifests.

Floats are written with repr-faithful precision so reruns with the same
seed produce byte-identical files regardless of worker count.
"""

import csv
import json
import hashlib
import os
import sys
import tempfile
import time

import numpy as np

from .errors import GrowthlabError

try:
    import resource
except ImportError:  # absent on Windows; the manifest then records no usage
    resource = None

FLOAT_FORMAT = "%.17g"
# ru_maxrss is in bytes on macOS and in kilobytes on Linux and the BSDs
RSS_UNITS_PER_MB = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % float(value)
    return str(value)


def write_csv(path, header, rows):
    """Write rows (iterables or dicts keyed by header) with \\n endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, dict):
                row = [row.get(col) for col in header]
            writer.writerow([_fmt(v) for v in row])


def write_ladder_csv(path, report):
    """Long-format ladder table: one row per (index, metric)."""
    header = ["ladder_index", "metric", "value", "stderr"]
    write_csv(path, header, report.rows())


def write_wealth_csv(path, grid, log_wealth, finite_variation, martingale,
                     growth):
    """Single-path wealth decomposition table on the time grid."""
    header = ["t", "logX", "B", "L", "g"]
    rows = zip(grid, log_wealth, finite_variation, martingale, growth)
    write_csv(path, header, rows)


def canonical_json(payload):
    """Stable serialization: sorted keys, no whitespace jitter. JSON has no
    NaN or infinity, so one raises GrowthlabError naming its key."""

    def clean(obj, key="payload"):
        if isinstance(obj, dict):
            return {str(k): clean(v, k) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [clean(v, key) for v in obj]
        if isinstance(obj, np.ndarray):
            return [clean(v, key) for v in obj.tolist()]
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (float, np.floating)):
            if not np.isfinite(obj):
                raise GrowthlabError(f"JSON cannot hold {key} = {obj}")
            return float(obj)
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        return obj

    return json.dumps(clean(payload), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def write_json(path, payload):
    text = canonical_json(payload)  # raises before the file is opened
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def atomic_write_json(path, payload):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_json(payload))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _usage():
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF)


class RunManifest:
    """Collects run metadata and writes manifest.json atomically.

    checks hold the pass/fail verdicts; diagnostics hold counts that
    qualify them (say, steps a check left out) and decide nothing. Where
    the resource module exists, write adds the process's peak RSS and,
    since the manifest was made, its minor page faults and user and system
    CPU seconds.
    """

    def __init__(self, config, seed, version):
        self.config = config
        self.seed = seed
        self.version = version
        self.started = time.time()
        self._usage = _usage()
        self.checks = {}
        self.diagnostics = {}
        self.files = []

    def record_check(self, name, passed):
        self.checks[name] = bool(passed)

    def record_diagnostic(self, name, value):
        self.diagnostics[name] = value

    def record_file(self, path):
        self.files.append(os.path.basename(path))

    @property
    def all_passed(self):
        return all(self.checks.values())

    def write(self, out_dir):
        now = _usage()
        if now is not None:
            self.diagnostics.update(
                peak_rss_mb=now.ru_maxrss / RSS_UNITS_PER_MB,
                minor_page_faults=now.ru_minflt - self._usage.ru_minflt,
                cpu_user_s=now.ru_utime - self._usage.ru_utime,
                cpu_sys_s=now.ru_stime - self._usage.ru_stime)
        payload = {
            "config_sha256": config_hash(self.config),
            "version": self.version,
            "seed": self.seed,
            "wall_clock_seconds": time.time() - self.started,
            "checks": self.checks,
            "diagnostics": self.diagnostics,
            "files": sorted(self.files),
        }
        path = os.path.join(out_dir, "manifest.json")
        atomic_write_json(path, payload)
        return path

