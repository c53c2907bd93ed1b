"""Tracing overhead and per-layer tables for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload untraced and then traced, one run at a time, and prints
four Markdown tables:

1. every end-to-end metric of each workload, with its unit, and the error
   rate (failed ops over attempted ops);
2. the tracing overhead per workload: 1 - traced ops_per_s / untraced
   ops_per_s;
3. the traced run's per-layer metrics (self time and calls per op, counts);
4. the mean inclusive duration of one call of each traced layer, read from
   the span dump; this is the figure to set beside a whole-stage timing.
"""

import argparse
import json
import os
import subprocess
import sys

import run
import tracing


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    missing = [line.split("=", 1)[0] for line in lines
               if line.endswith("=missing")]
    return json.loads(lines[-1]), missing


def inclusive_per_call(path):
    """{layer: (calls, mean inclusive seconds)} over set-up and ops."""
    with open(path, "r", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    sums = {}
    for name, start, end, parent, op in spans:
        calls, total = sums.get(name, (0, 0.0))
        sums[name] = (calls + 1, total + end - start)
    return {name: (calls, total / calls)
            for name, (calls, total) in sums.items()}


def table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "|" + "---|" * len(header)]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    workloads = run.load_package()
    names = list(workloads.WORKLOADS)

    overall, overhead, layers, inclusive = [], [], {}, {}
    for name in names:
        plain, _ = bench(name, args.seed, args.seconds, 0)
        overall.append([name] + ["%.4g %s" % (v["value"], v["unit"])
                                 for v in plain["metrics"].values()]
                       + ["%.4g ratio (%d/%d)" % (
                           plain["failed"] / plain["attempted"],
                           plain["failed"], plain["attempted"])])
        traced, missing = bench(name, args.seed, args.seconds, 1)
        untraced_rate = plain["metrics"]["ops_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.ops_per_s"]["value"]
        overhead.append([name, "%.4g" % untraced_rate, "%.4g" % traced_rate,
                         "%.3f" % (1 - traced_rate / untraced_rate)])
        layers[name] = {k: ("missing" if k in missing else
                            "%.4g" % v["value"])
                        for k, v in traced["metrics"].items()}
        inclusive[name] = inclusive_per_call(os.path.join(
            run.HERE, "out", "trace-%s-seed%d.json" % (name, args.seed)))

    print("## End-to-end metrics (seed %d, %g s runs)\n" % (args.seed,
                                                           args.seconds))
    print(table(["workload"] + list(plain["metrics"]) + ["error_rate"],
                overall))
    print("\n## Tracing overhead\n")
    print(table(["workload", "untraced ops/s", "traced ops/s", "overhead"],
                overhead))
    print("\n## Per-layer metrics, traced run\n")
    print(table(["metric", "unit"] + names,
                [[m, unit] + [layers[n][m] for n in names]
                 for m, unit, _, _ in tracing.PER_LAYER]))
    print("\n## Mean inclusive seconds per call (calls)\n")
    span_names = sorted({s for n in names for s in inclusive[n]})
    print(table(["span"] + names,
                [[s] + ["%.4g (%d)" % (inclusive[n][s][1], inclusive[n][s][0])
                        if s in inclusive[n] else "" for n in names]
                 for s in span_names]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
