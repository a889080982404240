"""Runs one workload's ops in a fresh interpreter; driven by run.py.

Reads a JSON spec on stdin and prints one JSON object on stdout.

- ``{"mode": "setup", ...}`` times the set-up alone: import of cartaneq,
  parsing of every input and the cold symbolic builds.
- ``{"mode": "run", ...}`` makes the cold builds, then runs whole rounds
  of the ops.  Each op runs in a child forked from that one state, so no
  op sees what another left behind (caches, the gcd certificate's random
  state), and a child that misses its deadline is killed.  The inputs are
  parsed in the child before its clock starts.  With ``trace`` set, one
  untraced round is followed by traced rounds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import select
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

GRACE_S = 0.25         # fork, parse and pipe time on top of a deadline
TRACE_SLACK = 3.0      # traced ops may run this much slower
MAX_MEASURE_S = 100.0  # keeps every run well inside its time limit


def _import_cartaneq():
    sys.path.insert(0, SRC)
    import cartaneq

    if not os.path.abspath(cartaneq.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cartaneq imported from {cartaneq.__file__}, not {SRC}")
    import ops

    return ops


def setup_only(spec):
    t0 = time.perf_counter()
    ops = _import_cartaneq()
    texts = [t for op in spec["ops"] for t in ops.input_texts(op)]
    swell = ops.setup(texts, spec["builds"])
    return {"setup_s": time.perf_counter() - t0, "swell": swell}


def _child(ops, op, traced, wfd):
    thunk = ops.prepare(op)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer().install()
    error = None
    t0 = time.perf_counter()
    try:
        result = thunk()
    except Exception as e:  # an op that raises is reported, not retried
        error = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    os.write(wfd, (json.dumps({"s": elapsed, "error": error}) + "\n").encode())
    payload = {}
    if error is None:
        out = json.dumps(ops.serialize(op, result), sort_keys=True)
        payload["digest"] = hashlib.sha256(out.encode()).hexdigest()
        payload["out"] = json.loads(out)
    if tracer is not None:
        payload["trace"] = tracer.report()
    data = (json.dumps(payload) + "\n").encode()
    while data:
        data = data[os.write(wfd, data):]


def run_one(ops, op, traced):
    deadline = op["deadline"] * (TRACE_SLACK if traced else 1.0)
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            _child(ops, op, traced, wfd)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    buf = b""
    limit = time.monotonic() + deadline + GRACE_S
    killed = False
    while b"\n" not in buf:
        left = limit - time.monotonic()
        if left <= 0:
            os.kill(pid, signal.SIGKILL)
            killed = True
            break
        if select.select([rfd], [], [], left)[0]:
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            buf += chunk
    if not killed:
        while True:
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            buf += chunk
    os.close(rfd)
    _, status, usage = os.wait4(pid, 0)
    rec = {"deadline": deadline, "failed": True}
    if killed:
        return rec
    lines = buf.decode().split("\n")
    if len(lines) < 3 or status != 0:
        rec["error"] = f"child ended with status {status} and no result"
        rec["failed"] = False
        return rec
    head, body = json.loads(lines[0]), json.loads(lines[1])
    rec.update(body)
    rec["s"] = head["s"]
    rec["error"] = head["error"]
    rec["failed"] = head["s"] >= deadline
    rec["maxrss_kb"] = usage.ru_maxrss
    return rec


def _add_trace(total, trace):
    for part in ("calls", "self_ns"):
        for k, v in trace[part].items():
            total[part][k] = total[part].get(k, 0) + v
    counts = total["counts"]
    for k, v in trace["counts"].items():
        if k == "expr.size_peak":
            counts[k] = max(counts.get(k, 0), v)
        else:
            counts[k] = counts.get(k, 0) + v


def measure(spec):
    import resource

    ops = _import_cartaneq()
    swell = ops.setup([], spec["builds"])
    gc.collect()
    gc.freeze()  # children then leave the set-up heap's pages shared

    plan = spec["ops"]
    seconds, min_ops = spec["seconds"], spec["min_ops"]
    records = []
    rounds = {"untraced": [], "traced": []}
    trace = {"calls": {}, "self_ns": {}, "counts": {}}
    seen = set()  # (op, digest) pairs whose output is already in a record

    def one_round(traced):
        t0 = time.perf_counter()
        for i, op in enumerate(plan):
            rec = run_one(ops, op, traced)
            rec["op"] = i
            rec["traced"] = traced
            if (i, rec.get("digest")) in seen:
                rec.pop("out", None)
            seen.add((i, rec.get("digest")))
            if traced and "trace" in rec:
                _add_trace(trace, rec.pop("trace"))
            records.append(rec)
        rounds["traced" if traced else "untraced"].append(time.perf_counter() - t0)

    if spec["trace"]:
        one_round(False)
    start = time.perf_counter()
    while True:
        one_round(spec["trace"])
        done = rounds["traced" if spec["trace"] else "untraced"]
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(done)
        enough = len(done) * len(plan) >= min_ops or spec["trace"]
        if enough and elapsed + per_round / 2 >= seconds:
            break
        if elapsed + per_round > MAX_MEASURE_S:
            break
    return {
        "swell": swell,
        "records": records,
        "rounds": rounds,
        "trace": trace,
        "worker_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main():
    spec = json.load(sys.stdin)
    out = setup_only(spec) if spec["mode"] == "setup" else measure(spec)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
