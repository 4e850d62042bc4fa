"""Pure functions behind the benchmark's numbers: span self times, per-layer
metrics, the ``-X importtime`` parser and the reference comparison."""

import csv
import json
import os

# Layers reported with a peak-RSS rise: the self rise of every span whose
# name starts with "<layer>.".
RSS_LAYERS = ("market", "numeraire", "stability", "sensitivity")

# Modules whose cumulative import time is reported as setup.import_s.<name>.
IMPORT_MODULES = (
    "growthlab", "growthlab.errors", "growthlab.constraints",
    "growthlab.quadform", "growthlab.market", "growthlab.numeraire",
    "growthlab.stability", "growthlab.sensitivity", "growthlab.discrete",
    "growthlab.reporting", "growthlab.cli", "scipy.stats",
)


CALL_COUNTS = (
    "market.simulate", "market.tilt", "quadform.solve", "quadform.nullspace",
    "constraints.project", "constraints.distance", "numeraire.fractions",
    "numeraire.wealth", "numeraire.growth_path", "sensitivity.quotient",
)
SELF_TIMES = (
    "market.simulate", "market.filter", "market.density", "market.tilt",
    "quadform.solve", "quadform.nullspace", "constraints.project",
    "constraints.distance", "numeraire.fractions", "numeraire.wealth",
    "numeraire.gap", "numeraire.growth_path", "stability.ladder",
    "stability.slopes", "sensitivity.quotient", "sensitivity.check",
    "reporting.write", "cli",
)
ROW_COUNTS = ("quadform.solve", "constraints.project")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.calls": "count" for name in CALL_COUNTS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({f"{layer}.rss_rise_mb": "MB" for layer in RSS_LAYERS})
    units.update({f"{name}.rows": "count" for name in ROW_COUNTS})
    units["quadform.solve.rows_per_call"] = "rows/call"
    units["constraints.project.calls_per_solve"] = "calls/solve"
    units["numeraire.fractions.solver_row_ratio"] = "ratio"
    units["reporting.write.bytes"] = "B"
    units.update({f"setup.import_s.{m}": "s" for m in IMPORT_MODULES})
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_values(spans):
    """Per span: (self seconds, self peak-RSS rise in kB).

    A span is [name, start, end, parent, rss_start_kb, rss_end_kb, rows].
    Self time is the span's duration minus the part of it that its child
    spans cover. Peak RSS only grows, so the self rise is the span's rise
    minus its children's rises.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, rss0, rss1, _) in enumerate(spans):
        kids = children[i]
        busy = covered([(spans[k][1], spans[k][2]) for k in kids], start, end)
        rise = (rss1 - rss0) - sum(spans[k][5] - spans[k][4] for k in kids)
        out.append((end - start - busy, rise))
    return out


def _ancestor(spans, i, name):
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans):
    """Per-layer counts, self times and RSS rises of one traced repetition.

    The root span must be the single "cli" span around growthlab.cli.main.
    """
    roots = [s for s in spans if s[3] is None]
    if len(roots) != 1 or roots[0][0] != "cli":
        raise ValueError("a traced repetition needs exactly one root 'cli' span")
    selfs = self_values(spans)
    calls, self_s, rows = {}, {}, {}
    rss_kb = dict.fromkeys(RSS_LAYERS, 0)
    for span, (sec, rise) in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + sec
        if span[6] is not None:
            rows[name] = rows.get(name, 0) + span[6]
        layer = name.split(".", 1)[0]
        if layer in rss_kb:
            rss_kb[layer] += rise

    run_s = roots[0][2] - roots[0][1]
    m = {f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTS}
    m.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMES})
    m.update({f"{layer}.rss_rise_mb": rss_kb[layer] / 1024.0
              for layer in RSS_LAYERS})
    m.update({f"{name}.rows": rows.get(name, 0) for name in ROW_COUNTS})

    solves = calls.get("quadform.solve", 0)
    m["quadform.solve.rows_per_call"] = (
        rows.get("quadform.solve", 0) / solves if solves else 0.0)
    inner_projects = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "constraints.project" and _ancestor(spans, i, "quadform.solve"))
    m["constraints.project.calls_per_solve"] = (
        inner_projects / solves if solves else 0.0)
    submitted = rows.get("numeraire.fractions", 0)
    solved = sum(
        s[6] for i, s in enumerate(spans)
        if s[0] == "quadform.solve" and _ancestor(spans, i, "numeraire.fractions"))
    m["numeraire.fractions.solver_row_ratio"] = (
        solved / submitted if submitted else 0.0)
    m["trace.coverage"] = 1.0 - m["cli.self_s"] / run_s if run_s > 0 else 0.0
    return m


def parse_importtime(text):
    """Entries (name, depth, cumulative seconds) of ``python -X importtime``
    output (its stderr), in output order: a module after its submodules."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip(" "))
        entries.append((name.strip(), depth, int(fields[1]) / 1e6))
    return entries


def import_seconds(entries, module):
    """Seconds spent importing module: its cumulative time where the listing
    has it. scipy loads scipy.stats lazily, and the listing then holds only
    its submodules: their outermost entries are summed instead."""
    for name, _, cumulative in entries:
        if name == module:
            return cumulative
    total = 0.0
    open_parents = []  # (depth, inside) of the entries enclosing this one
    for name, depth, cumulative in reversed(entries):
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        inside = name.startswith(module + ".")
        if inside and not any(flag for _, flag in open_parents):
            total += cumulative
        open_parents.append((depth, inside))
    return total


def import_metrics(text):
    entries = parse_importtime(text)
    return {f"setup.import_s.{name}": import_seconds(entries, name)
            for name in IMPORT_MODULES}


def result_values(out_dir):
    """The numbers a run's outputs are checked on: every value of the ladder
    or error table, each fitted slope and each fitted order."""
    values = {}
    for table in ("ladder.csv", "errors.csv"):
        path = os.path.join(out_dir, table)
        if os.path.exists(path):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    key = f"{table}:{row['ladder_index']}:{row['metric']}"
                    values[key] = float(row["value"])
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    for name, res in summary.get("slopes", {}).items():
        values[f"slope:{name}"] = res["slope"]
    for tag in ("first_order", "second_order"):
        if tag in summary:
            for key in ("order_fv", "order_qv"):
                values[f"{tag}:{key}"] = summary[tag][key]
    return values


def reference_mismatches(observed, reference, rel_tol, abs_tol):
    """Keys whose value differs from the reference by more than
    abs_tol + rel_tol * |reference|, or that only one side has."""
    bad = sorted(set(observed) ^ set(reference))
    for key in sorted(set(observed) & set(reference)):
        got, want = observed[key], reference[key]
        if got is None or want is None:
            if got is not want:
                bad.append(key)
        elif not abs(got - want) <= abs_tol + rel_tol * abs(want):
            bad.append(key)
    return bad
