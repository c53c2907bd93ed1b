"""Record the answers the benchmark compares exactly, from this checkout.

    python3 perfbench/record.py [workload ...]

Writes ``perfbench/data/<workload>.json`` for the default seed (0):

- check_stream: the answer for every theta of the pool, and the B0 answer
  of every group (seed-independent, so compared on every seed);
- pair_census: the witness index of every filtered partner pair, in
  ``partner_pairs`` order (seed-independent);
- kernel_census: the answer for every theta of the pool;
- cli_cycle: stdout and exit code of every command (seed-independent).

Every answer passes the benchmark's invariant checks before it is written.
Re-record only when an answer is meant to change, and say why.
"""

import json
import os
import sys

import run

GROUP_KEYS = ("b0", "b0_reason", "samperton", "basis")


def record_check_stream(wl):
    wl.recorded = {}
    answers, groups = {}, {}
    for g, thetas in enumerate(wl.pool):
        for theta in thetas:
            x = (theta, wl.overrides[g])
            result = wl.run_op(x)
            wl.check(x, result)
            got = wl.answer(*result)
            answers[wl.describe(x)] = got
            groups[theta.group.name] = {k: got[k] for k in GROUP_KEYS}
    return {"groups": groups, "answers": answers}


def record_pair_census(wl, workloads):
    import handlebody as hb
    index = hb.batch_pair_witnesses(wl.G, wl.a, wl.b, wl.pairs, wl.s)
    for (r, t), idx in zip(wl.pairs, index):
        wl.ref.check_witness_index(wl.G, (wl.a, wl.b, r, t), int(idx))
    return {"pairs_sha256": workloads.pairs_digest(wl.pairs),
            "count": len(wl.pairs), "index": [int(v) for v in index]}


def record_kernel_census(wl):
    wl.recorded = {}
    out = {}
    for thetas in wl.pool:
        for theta in thetas:
            result = wl.run_op(theta)
            wl.check(theta, result)
            out[wl.describe(theta)] = wl.answer(*result)
    return out


def record_cli_cycle(wl, workloads):
    out = {}
    for argv in workloads.CLI_COMMANDS:
        code, stdout = wl.run_op(argv)
        workloads.require(code == 0, "%s exited %r" % (" ".join(argv), code))
        out[" ".join(argv)] = {"exit": code, "stdout": stdout}
    return out


def main(names):
    workloads = run.load_package()
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](run.ROOT, 0)
        wl.setup()
        if name == "pair_census":
            wl.ref = workloads.OrbitCheck(wl.s)
            data = record_pair_census(wl, workloads)
        elif name == "cli_cycle":
            data = record_cli_cycle(wl, workloads)
        else:
            wl.prepare_checks()
            data = (record_check_stream(wl) if name == "check_stream"
                    else record_kernel_census(wl))
        path = os.path.join(workloads.DATA_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True,
                      indent=None if name == "pair_census" else 1)
            fh.write("\n")
        print("wrote %s" % path)


if __name__ == "__main__":
    main(sys.argv[1:])
