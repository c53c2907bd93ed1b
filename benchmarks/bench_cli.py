"""Time every golden CLI run in process and check it against its transcript.

Runs each entry of ``tests/golden/runs.json`` (``orbit``, ``table1`` and
``check``/``counts``/``quadruple``/``kernel-orbit`` on each shipped config,
at depth 9) through ``handlebody.cli.main`` in this process, stdout
captured, and prints the first and the warm (best-of-N) seconds of each,
their sums, and the process's peak resident set size after all the runs
(``ru_maxrss``), which shows how many orbit sets it kept.  Every run's
stdout and exit code must match ``tests/golden/<name>.txt`` and
``runs.json``.  In process, the parser and the package's caches (the
twist plans, the root word, the enumerated presentations, the orbit set
of the depth used last) are warm after the first run that fills them, as
in any process that calls ``main`` more than once.
So a run's first time is the one-shot cost only of what no earlier run
warmed: the ``check`` runs, in sorted order the first on each presented
config, pay its coset enumeration there, and the other commands on that
config do not; a run pays for the orbit levels it reads that no earlier
run generated.  A
one-command process also pays for the import and the first parser build.

Usage:
    python3 benchmarks/bench_cli.py [--repeats 5]
"""

import argparse
import contextlib
import io
import json
import os
import resource
import time

from handlebody.cli import main as cli_main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "golden")


def run_once(argv):
    """(seconds, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli_main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats; best run is reported")
    args = parser.parse_args(argv)

    with open(os.path.join(GOLDEN, "runs.json"), encoding="utf-8") as fh:
        runs = json.load(fh)
    rows = []
    for name in sorted(runs):
        run = runs[name]
        cli_argv = [os.path.join(ROOT, a) if a.startswith("configs/") else a
                    for a in run["argv"].split()]
        with open(os.path.join(GOLDEN, name + ".txt"),
                  encoding="utf-8") as fh:
            want = fh.read()
        times = []
        for _ in range(args.repeats):
            seconds, code, out = run_once(cli_argv)
            if out != want or code != run["exit"]:
                raise SystemExit("%s: exit %d and stdout differ from the "
                                 "golden transcript (exit %d)"
                                 % (name, code, run["exit"]))
            times.append(seconds)
        rows.append((run["argv"], times[0], min(times)))

    print("%-72s %10s %10s" % ("command", "first s", "warm s"))
    for label, first, best in rows:
        print("%-72s %10.4f %10.4f" % (label, first, best))
    print("%-72s %10.4f %10.4f" % ("sum of %d runs" % len(rows),
                                   sum(r[1] for r in rows),
                                   sum(r[2] for r in rows)))
    # ru_maxrss is in kilobytes on Linux.
    print("peak RSS after %d runs: %.1f MB" % (
        len(rows), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))


if __name__ == "__main__":
    main()
