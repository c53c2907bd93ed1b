"""Closed-loop benchmark of the handlebody package.

    python3 perfbench/run.py --workload check_stream --seed 0 --seconds 15 \
        --trace 0

One client, one thread, one op at a time.  The run times set-up (imports
included; the rest of set-up three times, median reported), then runs ops
from the seeded schedule for at least ``--seconds``, stopping at the end of
a whole op cycle so every run sees the same op mix.  Every answer is
checked after the timed loop; an op that raised or whose answer fails a
check counts as failed.  Times are reported at the nominal machine speed
measured by speed.py; each printed line also shows the value as measured.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the package's layers are wrapped (see tracing.py) and the per-layer
metrics are reported instead, and the spans are written to
``perfbench/out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SETUP_REPEATS = 3
PLAN_OPS = 1000          # ops covered by the printed plan digest
MAX_TIMED_S = 120.0      # hard stop, whatever the cycle
# End-to-end metrics in the result line.  op_p90_ms is printed but left out:
# on this shared machine its spread over seeds reached 12-16 %, too close
# to any bound a regression gate can use.
GATED = ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def plan_digest(workload, n=PLAN_OPS):
    h = hashlib.sha256()
    for i in range(n):
        h.update(json.dumps(workload.describe(workload.op_input(i)),
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_package():
    """Import handlebody from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    spec = importlib.util.find_spec("handlebody")
    if spec is None or not os.path.abspath(spec.origin).startswith(
            os.path.join(src, "")):
        raise SystemExit("perfbench: no handlebody package under %s" % src)
    import workloads
    return workloads


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r",
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def metadata():
    import numpy
    import handlebody
    backend = "n/a"
    if hasattr(handlebody, "get_backend"):
        backend = handlebody.get_backend().name
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "backend": backend,
            "HANDLEBODY_BACKEND": os.environ.get("HANDLEBODY_BACKEND",
                                                 "unset"),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit()}


def run_ops(workload, seconds, tracer=None):
    """The timed closed loop: [(input, result, error)], [(op start, op
    end)], (loop start, loop end)."""
    done, spans = [], []
    start = time.perf_counter()
    i = 0
    while True:
        x = workload.op_input(i)
        sid = tracer.begin(i) if tracer else None
        t0 = time.perf_counter()
        try:
            result, error = workload.run_op(x), None
        except Exception as exc:  # every failure counts; the loop goes on
            result, error = None, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        t1 = time.perf_counter()
        if tracer:
            tracer.end(sid)
        done.append((x, result, error))
        spans.append((t0, t1))
        i += 1
        elapsed = t1 - start
        if elapsed >= MAX_TIMED_S or (elapsed >= seconds
                                      and i % workload.cycle == 0):
            break
    return done, spans, (start, time.perf_counter())


def check_all(workload, done):
    """(failed count, extra values per op, first failure messages)."""
    failed, extras, messages = 0, [], []
    for x, result, error in done:
        if error is None:
            try:
                extras.append(workload.check(x, result))
                continue
            except Exception as exc:  # a wrong answer or a changed API
                error = "%s: %s" % (type(exc).__name__, exc)
        failed += 1
        if len(messages) < 5:
            messages.append("%s: %s" % (workload.describe(x), error))
    return failed, extras, messages


def end_to_end(scale, import_window, setup_windows, spans, loop):
    """End-to-end metrics at nominal machine speed (see speed.py); each
    line also shows the value as measured.  Op latencies share the timed
    loop's speed factor: a factor per op would add the probe's own noise to
    every sample."""
    n = len(spans)
    factor = scale.factor(*loop)
    wall = loop[1] - loop[0]
    raw_ms = [1000.0 * (t1 - t0) for t0, t1 in spans]
    p50, p90 = percentile(raw_ms, 50), percentile(raw_ms, 90)
    raw_setup = (import_window[1] - import_window[0]
                 + statistics.median(t1 - t0 for t0, t1 in setup_windows))
    setup = (scale.scale(*import_window)
             + statistics.median(scale.scale(*w) for w in setup_windows))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = (("ops_per_s", n / (wall * factor), n / wall, "ops/s", ""),
            ("op_p50_ms", p50 * factor, p50, "ms", "; n=%d" % n),
            ("op_p90_ms", p90 * factor, p90, "ms", "; n=%d" % n),
            ("setup_s", setup, raw_setup, "s",
             "; imports + median of %d set-ups" % len(setup_windows)),
            ("peak_rss_mb", rss, None, "MB", ""))
    for name, value, raw, unit, note in rows:
        detail = "" if raw is None else " (measured %.6g %s%s)" % (
            raw, unit, note)
        print("%s=%.6g %s%s" % (name, value, unit, detail))
    print("speed_factor=%.4f (timed loop)" % factor)
    return {name: (value, unit) for name, value, _, unit, _ in rows
            if name in GATED}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with speed.SpeedProbe() as probe:
        t_import = time.perf_counter()
        workloads = load_package()
        import_window = (t_import, time.perf_counter())
        if args.workload not in workloads.WORKLOADS:
            parser.error("unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)

        tracer = None
        setup_windows = []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            sid = tracer.begin(tracing.SETUP)
            workload.setup()
            tracer.end(sid)
        else:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setup_windows.append((t0, time.perf_counter()))

        print("workload=%s seed=%d seconds=%g trace=%d"
              % (workload.name, args.seed, args.seconds, args.trace))
        print("plan_digest=%s (first %d ops)"
              % (plan_digest(workload), PLAN_OPS))
        print("meta=%s" % json.dumps(metadata(), sort_keys=True))

        workload.prepare_checks()
        done, spans, loop = run_ops(workload, args.seconds, tracer)
        scale = probe.stop()

    failed, extras, messages = check_all(workload, done)
    attempted = len(done)
    for message in messages:
        print("failed-op: %s" % message, file=sys.stderr)
    print("error_rate=%.6g ratio (%d/%d ops failed)"
          % (failed / attempted, failed, attempted))

    if tracer:
        tracer.uninstall()
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "trace-%s-seed%d.json"
                                 % (workload.name, args.seed)))
        metrics, missing = tracing.per_layer_metrics(
            tracer, attempted, scale.scale(*loop),
            [e["witness_index"] for e in extras if "witness_index" in e])
        for name, (value, unit) in metrics.items():
            print("%s=%s" % (name, "missing" if name in missing
                             else "%.6g %s" % (value, unit)))
    else:
        metrics = end_to_end(scale, import_window, setup_windows, spans,
                             loop)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
