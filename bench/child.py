"""One benchmark pass in its own process: set-up, timed pass, check.

Started by run.py, one process at a time, so that the peak resident memory
reported here belongs to this pass alone.  Prints one JSON line and exits 0
when the pass is correct, 1 when it is not.

    python3 bench/child.py --workload NAME --seed N --pass-index I
        --trace 0|1 --workdir DIR --spawn-time T

`--spawn-time` is the parent's `time.monotonic()` just before it started
this process; set-up time is measured from it, so it includes interpreter
start-up and imports.
"""

import os

# pin the thread pools before numpy is imported anywhere in this process
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def run_pass(name, seed, pass_index, trace, workdir, spawn_time=None):
    """Set up, time and check one pass; returns the JSON-ready record."""
    import workloads
    import tracing

    pass_dir = Path(workdir) / name / f"seed{seed}-pass{pass_index}"
    wl = workloads.WORKLOADS[name]()
    t_setup = time.perf_counter()
    wl.setup(seed, pass_index, pass_dir)
    t_ready = time.perf_counter()
    setup_s = (time.monotonic() - spawn_time if spawn_time is not None
               else t_ready - t_setup)

    record = {"workload": name, "seed": seed, "pass": pass_index,
              "traced": bool(trace), "setup_s": setup_s, "failures": []}
    # the harness's own spans (the pass and its phases) are recorded in
    # both modes; the wrappers inside the package only when tracing
    tracer = tracing.Tracer(pass_index)
    try:
        if trace:
            tracer.install()
        t0 = time.perf_counter()
        with tracer.span("pass"):
            wl.run(tracer.span)
        record["wall_s"] = time.perf_counter() - t0
    except Exception as exc:  # the pass failed; report it, do not crash
        record["failures"].append(f"{type(exc).__name__}: {exc}")
        record["traceback"] = traceback.format_exc()
    finally:
        tracer.uninstall()
    if not record["failures"]:
        record["failures"] = wl.check()
    wl.cleanup()

    record["phases"] = {}
    for n, start, end, parent in tracer.spans:
        if parent == 0:
            record["phases"][n] = record["phases"].get(n, 0.0) + end - start
    if trace:
        record["layers"] = tracer.metrics()
        record["self_s"] = {k: v[2] for k, v in tracer.totals().items()}
        record["spans"] = tracer.span_records()
    record["ok"] = not record["failures"]
    return record


def fingerprint():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV}}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    a = ap.parse_args()
    record = run_pass(a.workload, a.seed, a.pass_index, a.trace, a.workdir,
                      a.spawn_time)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    record["fingerprint"] = fingerprint()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
