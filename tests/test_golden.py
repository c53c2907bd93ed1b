"""Golden CLI transcripts: stdout and exit code, byte for byte.

``golden/runs.json`` lists 22 runs at depth 9: ``orbit``, ``table1``, and
``check``/``counts``/``quadruple``/``kernel-orbit`` on each shipped config.
``golden/<name>.txt`` holds each run's stdout as printed by
``python -m handlebody.cli ARGV`` from the repository root.  Every run is
collected; the slowest is ``kernel-orbit`` on order243_obstructed_standin,
about 2.3 s as a CLI process on a 2-CPU machine.  Three runs on the
presented configs also run twice in one process, the second time over
``coset_enumerate``'s cached tables, and all 22 run twice in one process
over ``generate_c0``'s shared orbit sets.

An intended change of output regenerates the transcripts with
``python tests/test_golden.py`` and says why in CHANGES.md.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from handlebody import groups, orbit
from handlebody.cli import main

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "runs.json"), encoding="utf-8") as _fh:
    RUNS = json.load(_fh)

def _transcript(name):
    with open(os.path.join(GOLDEN, name + ".txt"), "rb") as fh:
        return fh.read()


def _assert_run_matches_golden(name):
    run = RUNS[name]
    argv = [os.path.join(ROOT, a) if a.startswith("configs/") else a
            for a in run["argv"].split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert out.getvalue().encode("utf-8") == _transcript(name)
    assert code == run["exit"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_transcript_matches_golden(name):
    _assert_run_matches_golden(name)


def test_presented_configs_repeat_in_one_process():
    # The first pass enumerates each presentation, the second reads
    # coset_enumerate's cache: both print the transcript.
    groups._enumeration.cache_clear()
    for _ in range(2):
        for name in ("check_order243_obstructed_standin",
                     "check_order243_presented",
                     "quadruple_order243_obstructed_standin"):
            _assert_run_matches_golden(name)
    assert groups._enumeration.cache_info().currsize == 2


def test_runs_repeat_over_shared_orbit_sets():
    # In order and then in reverse, from an emptied memo: each run but the
    # first meets orbit sets that other commands have grown or finished.
    orbit._orbit_set.cache_clear()
    names = sorted(RUNS)
    for name in names + names[::-1]:
        _assert_run_matches_golden(name)


def capture():
    """Rewrite every transcript from a fresh CLI process per run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name in sorted(RUNS):
        proc = subprocess.run(
            [sys.executable, "-m", "handlebody.cli"] + RUNS[name]["argv"].split(),
            cwd=ROOT, env=env, capture_output=True, check=False)
        with open(os.path.join(GOLDEN, name + ".txt"), "wb") as fh:
            fh.write(proc.stdout)
        if proc.returncode != RUNS[name]["exit"]:
            print("%s: exit %d, runs.json says %d"
                  % (name, proc.returncode, RUNS[name]["exit"]))


if __name__ == "__main__":
    capture()
