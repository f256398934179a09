"""Benchmark runner: runs one workload's passes, one child process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each pass runs in a fresh process (bench/child.py), which pins the BLAS
and OpenMP pools to one thread.  A run starts with one untraced warm-up
pass, checked but not measured.  Then measured passes start until the next
one would end more than `--seconds` after the run began, with at least
three measured passes, or two untraced/traced pairs under `--trace 1`.
With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
the run makes pairs of one untraced and one traced pass, in alternating
order, and the result holds the per-layer metrics of the traced passes plus
the tracing overhead.  `all` runs every workload untraced and traced.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Full records
go to .bench_work/BENCH_<workload>_seed<N>_trace<T>.json and the spans of
the traced passes to .bench_work/spans_<workload>_seed<N>.json.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("pipeline-128x256", "solve-256x512", "cross-identity-synthetic")
DEADLINE_S = 165.0        # every run ends well inside 180 s
# (unit, statistic over a run's measured passes).  A pass's wall time is
# its work plus whatever the shared host's other tenants take from its
# core, which only ever adds time and drifts over minutes; the fastest pass
# of a run is the steadiest estimate of the work.  Set-up and peak memory
# are medians; a pass's peak moves between a few levels as SuperLU's
# allocations land, and the median level is the one most passes reach.
END_TO_END = {"wall_s": ("s", min),
              "setup_s": ("s", statistics.median),
              "peak_rss_mb": ("MB", statistics.median)}
PHASES = ("cli.solve", "cli.transform", "cli.verify")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_step"):
        return "ratio"
    if name.endswith("_bytes_written"):
        return "bytes"
    return "count"


def run_child(workload, seed, index, traced, timeout):
    """One pass in a fresh process; its record has `ok` False on failure."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index),
           "--trace", str(int(traced)), "--workdir", str(WORKDIR),
           "--spawn-time", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "pass": index, "traced": traced,
                "failures": [f"timed out after {timeout:.0f} s"]}
    finally:
        # also on an interrupt or a SIGTERM: no pass outlives the run
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "pass": index, "traced": traced,
                  "failures": [f"no result; exit code {proc.returncode}"],
                  "stderr": err[-2000:]}
    if proc.returncode != 0 and record.get("ok", False):
        record["ok"] = False
        record["failures"] = [f"exit code {proc.returncode}"]
    return record


def run_workload(workload, seed, seconds, trace):
    """(warm-up record, records of the measured passes in order).

    The warm-up pass is checked like any other but measures nothing: it
    brings the files, the page cache and the host's core back from whatever
    ran before, so the first measured pass starts like the rest.
    """
    kinds = (False, True) if trace else (False,)
    min_rounds = 2 if trace else 3
    t0 = time.monotonic()
    warmup = run_child(workload, seed, 0, False, DEADLINE_S)
    records = []
    longest = 0.0
    while True:
        t_round = time.monotonic()
        # alternate which kind goes first, so a drift in machine speed
        # does not read as tracing overhead
        order = kinds[::-1] if len(records) // 2 % 2 else kinds
        for traced in order:
            left = DEADLINE_S - (time.monotonic() - t0)
            records.append(run_child(workload, seed, len(records) + 1,
                                     traced, max(left, 1.0)))
        now = time.monotonic()
        longest = max(longest, now - t_round)
        rounds = len(records) // len(kinds)
        if now - t0 > DEADLINE_S - 2 * longest:
            break
        # a round starts only if one as long as the longest so far ends
        # within `seconds` of the start, warm-up included
        if rounds >= min_rounds and now - t0 + longest > seconds:
            break
    return warmup, records


def median(values):
    return statistics.median(values) if values else float("nan")


def summarize(workload, seed, trace, warmup, records):
    """(result JSON object or None, lines of the human-readable report).

    The warm-up pass counts as attempted, and as failed when its check
    fails, but gives no metric.
    """
    good = [r for r in records if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    attempted = len(records) + 1
    failed = attempted - len(good) - warmup["ok"]
    lines = [f"== {workload}  seed {seed}  trace {trace}: "
             f"{attempted} passes (1 warm-up), {failed} failed, "
             f"error_rate {failed / attempted:.3g}"]
    for r in [warmup] + records:
        if not r["ok"]:
            lines.append(f"   pass {r['pass']} FAILED: "
                         + "; ".join(r["failures"]))
    metrics = {}
    usable = bool(plain)     # a correct pass of every kind the metrics need
    if not trace:
        for name, (unit, stat) in END_TO_END.items():
            vals = [r[name] for r in plain]
            if vals:
                metrics[name] = {"value": stat(vals), "unit": unit}
            lines.append(_line(name, vals, unit, stat))
        for phase in PHASES:
            vals = [r["phases"][phase] for r in plain if phase in r["phases"]]
            if vals:
                lines.append(_line(phase.split(".")[1] + "_s", vals, "s",
                                   statistics.median))
    else:
        names = traced[0]["layers"] if traced else {}
        for name in names:
            vals = [r["layers"][name] for r in traced]
            metrics[name] = {"value": median(vals), "unit": unit_of(name)}
            if not name.endswith("_s") and len(set(vals)) > 1:
                lines.append(f"   note: count {name} differs between traced "
                             f"passes: {vals}")
        # each traced pass against the untraced pass of its pair
        diffs = [(a["wall_s"] - b["wall_s"]) * (1 if a["traced"] else -1)
                 for a, b in zip(records[::2], records[1::2])
                 if a["ok"] and b["ok"]]
        metrics["trace_overhead_s"] = {"value": median(diffs), "unit": "s"}
        usable = usable and bool(diffs)
        lines.append(f"   per-layer metrics, median of {len(traced)} traced "
                     f"passes ({len(plain)} untraced alongside):")
        for name, m in metrics.items():
            lines.append(f"   {name:<36s} {m['value']:>16.6g} {m['unit']}")
        if traced:
            self_s = {k: median([r["self_s"].get(k, 0.0) for r in traced])
                      for k in traced[0]["self_s"]}
            top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
            lines.append("   largest self times (median s): " + ", ".join(
                f"{k} {v:.4f}" for k, v in top))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return (result if usable else None), lines


def _line(name, vals, unit, stat):
    if not vals:
        return f"   {name:<14s} no correct passes"
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return (f"   {name:<14s} {stat(vals):12.6g} {unit:<3s} {stat.__name__} of "
            f"{len(vals)} passes [q1 {q[0]:.6g}, median {median(vals):.6g}, "
            f"q3 {q[2]:.6g}, min {min(vals):.6g}, max {max(vals):.6g}]")


def machine(seed, seconds):
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "machine": platform.machine(),
            "seed": seed, "seconds": seconds}


def save(workload, seed, trace, seconds, records, result):
    WORKDIR.mkdir(exist_ok=True)
    spans = [s for r in records for s in r.pop("spans", [])]
    fp = dict(machine(seed, seconds), **next(
        (r["fingerprint"] for r in records if "fingerprint" in r), {}))
    doc = {"workload": workload, "machine": fp, "result": result,
           "passes": records}
    stem = f"{workload}_seed{seed}"
    (WORKDIR / f"BENCH_{stem}_trace{trace}.json").write_text(
        json.dumps(doc, indent=1) + "\n")
    if trace:
        (WORKDIR / f"spans_{stem}.json").write_text(json.dumps(spans) + "\n")
    return fp


def one(workload, seed, seconds, trace):
    """Run, save and report one workload; None when it gave no metrics."""
    warmup, records = run_workload(workload, seed, seconds, trace)
    result, lines = summarize(workload, seed, trace, warmup, records)
    fp = save(workload, seed, trace, seconds, [warmup] + records, result)
    print("\n".join(lines + [f"   fingerprint: {json.dumps(fp)}"]), flush=True)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so run_child's cleanup stops the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "steadywaves" / "__init__.py").is_file():
        print(f"error: no steadywaves sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if a.workload != "all":
        result = one(a.workload, a.seed, a.seconds, a.trace)
    else:
        parts = {(w, t): one(w, a.seed, a.seconds, t)
                 for w in WORKLOADS for t in (0, 1)}
        result = None if None in parts.values() else {
            "correct": all(r["correct"] for r in parts.values()),
            "attempted": sum(r["attempted"] for r in parts.values()),
            "failed": sum(r["failed"] for r in parts.values()),
            "metrics": {f"{w}/{k}": v for (w, _), r in parts.items()
                        for k, v in r["metrics"].items()},
        }
    if result is None:
        print("error: no correct pass to measure", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
