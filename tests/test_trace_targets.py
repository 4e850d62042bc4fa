"""The traced benchmark wraps growthlab names by attribute lookup
(perfbench/spans.py) and fails on a name that is gone; this keeps a rename
or a deletion of such a name from passing the unit tests unnoticed."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import growthlab.cli
import spans
spans.install(spans.Tracer())
import growthlab.constraints as constraints
import growthlab.numeraire as numeraire
import growthlab.stability as stability
assert numeraire.wealth_process_gap.__wrapped__
assert stability.LadderReport.slopes.__wrapped__
assert constraints.Ball.project.__wrapped__
"""


def test_every_traced_benchmark_target_exists():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
