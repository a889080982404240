"""cartaneq benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs and expected outputs from the seed (SymPy,
in this process), times the set-up in fresh interpreters, then runs whole
rounds of the ops in a worker interpreter for about S seconds and checks
every output.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from checks import problems

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 7  # split before and after the timed phase
MIN_OPS = 100  # so the 90th percentile has at least ten ops beyond it
BUILDS = {
    "paper-corpus": ["ode2", "cli"],
    "rational-rhs": ["ode2"],
    "dense-swell": ["ode2", "ode3"],
    "contact-pfaffian": [],
}
SWELL = [3, 44, 510]


def _worker(spec, timeout):
    """Run worker.py on ``spec``; its op children share its process group."""
    proc = subprocess.Popen(
        [sys.executable, WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _check(ops, expect, records, swell, builds):
    """Problems found in the outputs; an empty list means all correct."""
    bad = []
    if "ode3" in builds and swell != SWELL:
        bad.append(f"symbolic swell count {swell}, want {SWELL}")
    digests = {}
    for rec in records:
        i = rec["op"]
        if rec["failed"]:
            continue
        if rec.get("error"):
            bad.append(f"op {i} ({ops[i]['kind']}): {rec['error']}")
            continue
        if "out" in rec:
            bad += [f"op {i} ({ops[i]['kind']}) {p}"
                    for p in problems(expect[i], rec["out"])]
        if digests.setdefault(i, rec["digest"]) != rec["digest"]:
            bad.append(f"op {i}: output differs between rounds")
    return bad


def _end_to_end(records, setup_times, maxrss_kb):
    # a failed op, or one whose child died without a time, is charged its deadline
    ms = [1000.0 * (r["deadline"] if r["failed"] else r.get("s", r["deadline"]))
          for r in records]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
    }


def _per_layer(result):
    import tracing

    rounds = result["rounds"]
    n = len(rounds["traced"])
    tr = result["trace"]
    out = {}
    for name, unit in tracing.metric_names():
        if name.endswith(".calls"):
            value = tr["calls"].get(name[:-6], 0) / n
        elif name.endswith(".self_ms"):
            value = tr["self_ns"].get(name[:-8], 0) / n / 1e6
        elif name == "expr.size_peak":
            value = tr["counts"].get(name, 0)
        else:
            value = tr["counts"].get(name, 0) / n
        out[name] = (value, unit)

    def op_seconds(traced):
        return sum(r["s"] for r in result["records"]
                   if r["traced"] == traced and not r["failed"] and "s" in r)

    traced = op_seconds(True) / n
    untraced = op_seconds(False) / len(rounds["untraced"])
    out["trace.untraced_ms"] = (1000.0 * untraced, "ms")
    out["trace.traced_ms"] = (1000.0 * traced, "ms")
    out["trace.overhead"] = (traced / untraced, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cartaneq", "__init__.py")):
        print(f"no cartaneq sources under {ROOT}/src", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    ops, expect = WORKLOADS[args.workload](args.seed)
    builds = BUILDS[args.workload]

    setup_spec = {"mode": "setup", "ops": ops, "builds": builds}

    def time_setup(count):
        return [_worker(setup_spec, timeout=60)["setup_s"] for _ in range(count)]

    setup_times = [] if args.trace else time_setup(SETUP_SAMPLES // 2)
    spec = {"mode": "run", "ops": ops, "builds": builds, "trace": args.trace,
            "seconds": args.seconds, "min_ops": MIN_OPS}
    result = _worker(spec, timeout=170)
    records = result["records"]
    if not args.trace:
        setup_times += time_setup(SETUP_SAMPLES - len(setup_times))

    bad = _check(ops, expect, records, result["swell"], builds)
    for line in bad[:20]:
        print("check failed:", line, file=sys.stderr)

    if args.trace:
        metrics = _per_layer(result)
        counted = [r for r in records if r["traced"]]
    else:
        maxrss = max([result["worker_maxrss_kb"]]
                     + [r["maxrss_kb"] for r in records if "maxrss_kb" in r])
        metrics = _end_to_end(records, setup_times, maxrss)
        counted = records
    failed = sum(r["failed"] for r in counted)
    for i in sorted({r["op"] for r in counted if r["failed"]}):
        print(f"missed deadline: op {i} {ops[i]['kind']} {ops[i]['args']}",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}", file=sys.stderr)
    print(f"rounds {result['rounds']}  attempted {len(counted)}  failed {failed}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
