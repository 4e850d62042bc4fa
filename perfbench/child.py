"""One benchmark repetition in a fresh interpreter.

Usage (run.py starts it; PYTHONPATH must point at the checkout's src/):

    python3 perfbench/child.py REQUEST.json START

START is the parent's time.monotonic() just before it started this process
(the monotonic clock is system-wide on Linux). REQUEST.json holds "argv"
(CLI arguments without --threads and --out),
"threads" (thread counts to run in order), "out" (output directory, one
subdirectory per thread count), "trace" (bool) and "result" (where to write
the result). The result records setup_s (process start to
``import growthlab.cli`` done), per run the exit code and wall seconds of
``growthlab.cli.main``, the process's own peak RSS after the last run, and
for a traced repetition the spans.
"""

import json
import os
import platform
import resource
import sys
import time


def environment():
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "version", "unknown")
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas}


def main(request_path, start):
    with open(request_path) as fh:
        request = json.load(fh)
    import growthlab.cli as cli
    setup_s = time.monotonic() - start

    tracer = None
    entry = cli.main
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        entry = tracer.wrap("cli", cli.main)

    runs = []
    for threads in request["threads"]:
        out = os.path.join(request["out"], f"t{threads}")
        argv = request["argv"] + ["--threads", str(threads), "--out", out]
        start = time.perf_counter()
        code = entry(argv)
        runs.append({"threads": threads, "code": code, "out": out,
                     "run_s": time.perf_counter() - start})

    result = {
        "setup_s": setup_s,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "module_file": cli.__file__,
        "environment": environment(),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(request["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
