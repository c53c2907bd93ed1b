"""Benchmark the word-evaluation backends against each other.

Times the hot kernels over the depth-limited orbit set for a chosen target
group, once per available backend: bulk evaluation of the whole set, an
early-witness identity scan over the set in scan order, and a full
no-witness scan (the words the map does not kill, so the scan reads every
block).  The words come from the orbit set's cached scan view, packed once.
The numba backend is exercised only when the package is installed with the
``fast`` extra; a warm-up pass keeps JIT compilation out of the timings.

Usage:
    python3 benchmarks/bench_backends.py [--depth 9] [--repeats 5]
"""

import argparse
import time

from handlebody import generate_c0, heisenberg, pack_words
from handlebody.backend import available_backends, get_backend
from handlebody.homs import Epimorphism


def build_workload(depth):
    """(letters, table, scans): ``scans`` maps a scan name to its packed
    (enc, offsets, word count)."""
    words, enc, offsets = generate_c0(depth=depth).scan_view()
    G = heisenberg(3)
    a, b = G.generators[0], G.generators[1]
    letters = Epimorphism(G, (a, b, b, a)).letter_images()
    values = get_backend("numpy").evaluate_words(enc, offsets, letters,
                                                 G.table)
    misses = [w for w, g in zip(words, values) if g != 0]
    scans = {"orbit": (enc, offsets, len(words)),
             "no-witness": pack_words(misses) + (len(misses),)}
    return letters, G.table, scans


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=9,
                        help="orbit truncation depth (default 9)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats; best run is reported")
    args = parser.parse_args(argv)

    letters, table, scans = build_workload(args.depth)
    enc, offsets, count = scans["orbit"]
    print("workload: %d words (depth %d), %d of them not killed, target "
          "group of order %d" % (count, args.depth, scans["no-witness"][2],
                                 table.shape[0]))

    results = {}
    for name in available_backends():
        backend = get_backend(name)
        # Warm-up (compiles the jitted kernels on first call).
        backend.evaluate_words(enc, offsets, letters, table)
        backend.find_identity_word(enc, offsets, letters, table)
        t_eval = time_call(
            lambda: backend.evaluate_words(enc, offsets, letters, table),
            args.repeats)
        line = ["%-6s evaluate_words %8.3f ms (%6.2f Mwords/s)"
                % (name, t_eval * 1e3, count / t_eval / 1e6)]
        times = [t_eval]
        for scan, (s_enc, s_off, _) in scans.items():
            index = backend.find_identity_word(s_enc, s_off, letters, table)
            t_find = time_call(
                lambda: backend.find_identity_word(s_enc, s_off, letters,
                                                   table),
                args.repeats)
            times.append(t_find)
            line.append("find_identity_word[%s, index %d] %8.3f ms"
                        % (scan, index, t_find * 1e3))
        results[name] = times
        print("   ".join(line))

    if "numpy" in results and "numba" in results:
        print("speedup (numpy/numba): evaluate %.1fx, early scan %.1fx, "
              "full scan %.1fx"
              % tuple(p / q for p, q in zip(results["numpy"],
                                            results["numba"])))
    elif "numba" not in results:
        print("numba backend unavailable; install the 'fast' extra to "
              "compare")


if __name__ == "__main__":
    main()
