"""Smoke test of the timing scripts under ``benchmarks/``: each ``main()``
runs once with ``--repeats 1``, so a script that no longer matches the
package fails here, not when it is next timed.  The scripts check their
own answers and exit on a mismatch.
"""

import glob
import importlib.util
import os

import pytest

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
SCRIPTS = sorted(glob.glob(os.path.join(BENCHMARKS, "bench_*.py")))


def _load(path):
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return name, module


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=[os.path.basename(p) for p in SCRIPTS])
def test_script_runs_once(path, capsys):
    _, module = _load(path)
    module.main(["--repeats", "1"])
    assert capsys.readouterr().out.strip()
