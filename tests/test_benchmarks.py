"""Smoke test of the timing scripts under ``benchmarks/``: each ``main()``
runs once with ``--repeats 1``, so a script that no longer matches the
package fails here, not when it is next timed.  The scripts check their
own answers and exit on a mismatch.  The names ``perfbench/`` reads from
the package, and the arguments it passes them, are checked on its source
text, without running it.
"""

import ast
import glob
import importlib.util
import inspect
import os
import re

import pytest

import handlebody

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
SCRIPTS = sorted(glob.glob(os.path.join(BENCHMARKS, "bench_*.py")))
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


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


@pytest.mark.parametrize("name", ["workloads.py", "record.py"])
def test_perfbench_names_exist(name):
    # perfbench reads the package as ``hb.<name>``; read as text, so a
    # trimmed name fails here rather than in the next benchmark run.
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        used = set(re.findall(r"\bhb\.([A-Za-z_]\w*)", fh.read()))
    assert used
    assert sorted(n for n in used if not hasattr(handlebody, n)) == []


def _hb_calls(path):
    """(line, name, positional count, keyword names, starred) of each
    ``hb.<name>(...)`` call in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "hb"):
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            plain = [a for a in node.args if not isinstance(a, ast.Starred)]
            yield (node.lineno, func.attr, len(plain),
                   [k.arg for k in node.keywords if k.arg is not None],
                   starred)


@pytest.mark.parametrize("name", ["workloads.py", "record.py"])
def test_perfbench_calls_bind(name):
    # Each hb.<name>(...) call perfbench makes must bind to the package's
    # signature, so a trimmed parameter fails here rather than in the next
    # benchmark run.  A call with a *args argument binds what it names.
    calls = list(_hb_calls(os.path.join(PERFBENCH, name)))
    assert calls
    failures = []
    for line, attr, npos, keywords, starred in calls:
        signature = inspect.signature(getattr(handlebody, attr))
        bind = signature.bind_partial if starred else signature.bind
        try:
            bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            failures.append("%s:%d hb.%s: %s" % (name, line, attr, exc))
    assert failures == []


# Tracer targets the package no longer has.  perfbench reports them as
# missing; any other unresolved target would silence a live per-layer
# metric.
_RETIRED_TARGETS = {
    "handlebody.backend:pack_words",
    "handlebody.backend:Backend.find_identity_word",
    "handlebody.backend:Backend.evaluate_words",
    "handlebody.kernel_orbit:precompose",
}


def _tracer_targets():
    """The "module:qualname" strings of ``TARGETS`` in perfbench/tracing.py."""
    path = os.path.join(PERFBENCH, "tracing.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return [ast.literal_eval(entry.elts[1])
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS in %s" % path)


def _resolves(spec):
    module_name, _, qualname = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_perfbench_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    assert {t for t in targets if not _resolves(t)} == _RETIRED_TARGETS
