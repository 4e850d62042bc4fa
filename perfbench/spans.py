"""In-memory span recording around growthlab's public functions.

A traced repetition replaces each public function listed in LAYERS with a
wrapper that records one span per call: name, start, end, parent span, the
process's peak RSS at both ends, and for some layers the number of rows the
call was handed. The wrapper is put wherever callers look the function up:
every ``growthlab.*`` module attribute bound to the original, and the
``project`` methods of every ``ConstraintSet`` class. Nothing under ``src/``
changes. Spans stay in memory until the repetition ends.

Spans are recorded on one thread. Traced repetitions run with
``--threads 1``, so no wrapped function is called from a worker thread.
"""

import functools
import resource
import sys
import time

import numpy as np


def _rows(x):
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def _solve_rows(c, drifts, *args, **kwargs):
    return _rows(drifts)


def _project_rows(self, x, *args, **kwargs):
    return _rows(x)


def _fraction_rows(bundle, constraint, *, drifts=None):
    # Rows handed to numeraire_fractions: one per step for the reference
    # drift, one per (path, step) for a path-dependent drift array.
    if drifts is None:
        return int(bundle.n_steps)
    shape = np.shape(drifts)
    return int(shape[0] * shape[1])


# Span name -> (module, attribute, rows counter or None) of each wrapped
# public function. A span name is "<layer module>.<part>".
LAYERS = {
    "market.simulate": [("growthlab.market", "simulate_paths", None),
                        ("growthlab.market", "simulate_signal_paths", None)],
    "market.filter": [("growthlab.market", "filtered_drift", None),
                      ("growthlab.market", "event_probabilities", None)],
    "market.density": [("growthlab.market", "density_paths", None)],
    "market.tilt": [("growthlab.market", "tilt_decomposition", None),
                    ("growthlab.market", "girsanov_drift", None)],
    "quadform.solve": [("growthlab.quadform", "optimal_fraction_batch",
                        _solve_rows)],
    "quadform.nullspace": [("growthlab.quadform", "nullspace_split", None)],
    "constraints.distance": [
        ("growthlab.constraints", "truncated_pair_distance", None),
        ("growthlab.constraints", "hausdorff_distance", None)],
    "numeraire.fractions": [("growthlab.numeraire", "numeraire_fractions",
                             _fraction_rows)],
    "numeraire.wealth": [("growthlab.numeraire", "wealth_paths", None)],
    "numeraire.gap": [("growthlab.numeraire", "wealth_process_gap", None)],
    "numeraire.growth_path": [("growthlab.numeraire", "growth_path", None)],
    "stability.ladder": [("growthlab.stability", "filtration_ladder", None),
                         ("growthlab.stability", "probability_ladder", None),
                         ("growthlab.stability", "constraint_ladder", None)],
    "sensitivity.quotient": [("growthlab.sensitivity", "response_quotient",
                              None)],
    "sensitivity.check": [("growthlab.sensitivity", "first_order_check", None),
                          ("growthlab.sensitivity", "second_order_check",
                           None)],
    "reporting.write": [("growthlab.reporting", "write_csv", None),
                        ("growthlab.reporting", "write_ladder_csv", None),
                        ("growthlab.reporting", "write_wealth_csv", None),
                        ("growthlab.reporting", "write_json", None),
                        ("growthlab.reporting", "atomic_write_json", None)],
}

# Span name -> (module, class, method, rows counter or None) of wrapped
# methods. For "project" every ConstraintSet class defining it is wrapped.
METHODS = {
    "constraints.project": [("growthlab.constraints", "ConstraintSet",
                             "project", _project_rows)],
    "stability.slopes": [("growthlab.stability", "LadderReport", "slopes",
                          None)],
    "reporting.write": [("growthlab.reporting", "RunManifest", "write", None)],
}


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span store for one traced repetition.

    Each span is a list [name, start_s, end_s, parent_index or None,
    rss_start_kb, rss_end_kb, rows or None].
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, rows=None):
        """Return fn wrapped so that every call records a span named name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            count = rows(*args, **kwargs) if rows is not None else None
            record = [name, 0.0, 0.0, parent, _maxrss_kb(), 0, count]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[5] = _maxrss_kb()
                self._stack.pop()

        return traced


class MissingTarget(RuntimeError):
    """A wrapped public name no longer exists in growthlab."""


def _lookup(module_name, attr):
    module = sys.modules.get(module_name)
    if module is None or not hasattr(module, attr):
        raise MissingTarget(
            f"{module_name}.{attr} no longer exists; update perfbench/spans.py "
            "so its layer is still measured")
    return module, getattr(module, attr)


def install(tracer):
    """Wrap every target in LAYERS and METHODS. Call after importing
    growthlab.cli, so every growthlab module is loaded."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "growthlab" or name.startswith("growthlab.")]
    for span_name, targets in LAYERS.items():
        for module_name, attr, rows in targets:
            _, original = _lookup(module_name, attr)
            wrapper = tracer.wrap(span_name, original, rows)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    for span_name, targets in METHODS.items():
        for module_name, class_name, method, rows in targets:
            module, base = _lookup(module_name, class_name)
            if method not in vars(base):
                raise MissingTarget(
                    f"{module_name}.{class_name}.{method} no longer exists; "
                    "update perfbench/spans.py so its layer is still measured")
            for cls in vars(module).values():
                if (isinstance(cls, type) and issubclass(cls, base)
                        and method in vars(cls)):
                    setattr(cls, method,
                            tracer.wrap(span_name, vars(cls)[method], rows))
