"""Tests of the benchmark's own logic. Run with ``python3 -m pytest perfbench``."""

import json
import os

import pytest

import analysis
import run
import spans


def span(name, start, end, parent, rss=(0, 0), rows=None):
    return [name, start, end, parent, rss[0], rss[1], rows]


def test_self_time_of_nested_and_sibling_spans():
    trace = [
        span("cli", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),   # nested in the first "a"
        span("a", 5.0, 7.0, 0),   # sibling of the first "a"
    ]
    selfs = [sec for sec, _ in analysis.self_values(trace)]
    assert selfs == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_covered_counts_overlapping_children_once():
    assert analysis.covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert analysis.covered([(8.0, 12.0)], 0.0, 10.0) == 2.0
    assert analysis.covered([], 0.0, 10.0) == 0.0


def test_self_rss_rise_subtracts_children():
    trace = [span("cli", 0.0, 1.0, None, rss=(100, 300)),
             span("market.simulate", 0.1, 0.5, 0, rss=(100, 250))]
    rises = [rise for _, rise in analysis.self_values(trace)]
    assert rises == [50, 150]


def test_layer_metrics_ratios():
    trace = [
        span("cli", 0.0, 10.0, None),
        span("numeraire.fractions", 1.0, 5.0, 0, rows=10),
        span("quadform.solve", 2.0, 4.0, 1, rows=4),
        span("constraints.project", 2.5, 3.0, 2, rows=4),
        span("constraints.project", 3.0, 3.5, 2, rows=4),
        span("quadform.solve", 6.0, 9.0, 0, rows=1),
        span("constraints.project", 6.5, 7.0, 5, rows=1),
    ]
    m = analysis.layer_metrics(trace)
    assert m["quadform.solve.calls"] == 2
    assert m["quadform.solve.rows"] == 5
    assert m["quadform.solve.rows_per_call"] == 2.5
    assert m["constraints.project.calls_per_solve"] == 1.5
    assert m["numeraire.fractions.solver_row_ratio"] == 0.4
    assert m["numeraire.fractions.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trace.coverage"] == pytest.approx(0.7)
    assert m["market.tilt.calls"] == 0


def test_layer_metrics_needs_one_cli_root():
    with pytest.raises(ValueError):
        analysis.layer_metrics([span("quadform.solve", 0.0, 1.0, None)])


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       400 |        400 |     growthlab.errors
import time:       100 |        100 |         scipy.stats._c
import time:       200 |        300 |       scipy.stats._b
import time:       700 |        700 |       scipy.stats._a
import time:      5000 |       6000 |     growthlab.constraints
import time:       900 |       7300 |   growthlab
import time:      1000 |       8300 | growthlab.cli
"""


def test_importtime_parser():
    entries = analysis.parse_importtime(IMPORTTIME)
    assert entries[0] == ("growthlab.errors", 5, 400e-6)
    assert len(entries) == 7
    m = analysis.import_metrics(IMPORTTIME)
    assert m["setup.import_s.growthlab.cli"] == pytest.approx(8300e-6)
    assert m["setup.import_s.growthlab"] == pytest.approx(7300e-6)
    assert m["setup.import_s.growthlab.constraints"] == pytest.approx(6000e-6)
    # scipy.stats is not listed itself: its outermost submodules are summed.
    assert m["setup.import_s.scipy.stats"] == pytest.approx(1000e-6)
    assert m["setup.import_s.growthlab.discrete"] == 0.0


def test_reference_comparison_rejects_a_perturbed_value():
    reference = {"ladder.csv:1:fv": 0.25, "slope:fv": -1.0,
                 "slope:event_gap": None, "ladder.csv:1:zero": 0.0}
    same = dict(reference)
    assert analysis.reference_mismatches(same, reference, run.REL_TOL,
                                         run.ABS_TOL) == []
    within = dict(reference, **{"ladder.csv:1:fv": 0.25 * (1 + 1e-6)})
    assert analysis.reference_mismatches(within, reference, run.REL_TOL,
                                         run.ABS_TOL) == []
    perturbed = dict(reference, **{"ladder.csv:1:fv": 0.25 * (1 + 1e-3)})
    assert analysis.reference_mismatches(perturbed, reference, run.REL_TOL,
                                         run.ABS_TOL) == ["ladder.csv:1:fv"]
    fitted = dict(reference, **{"slope:event_gap": -0.5})
    assert analysis.reference_mismatches(fitted, reference, run.REL_TOL,
                                         run.ABS_TOL) == ["slope:event_gap"]
    missing = {k: v for k, v in reference.items() if k != "slope:fv"}
    assert analysis.reference_mismatches(missing, reference, run.REL_TOL,
                                         run.ABS_TOL) == ["slope:fv"]


def test_tracer_records_parents():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None),
                                                   ("inner", 0)]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_missing_target_fails_loudly():
    with pytest.raises(spans.MissingTarget):
        spans._lookup("json", "no_such_function")


def test_benchmark_json_matches_reported_metrics():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        analysis.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
