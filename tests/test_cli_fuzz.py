"""Fuzz gate on the CLI's input layer.

Generated config texts (all four kinds, small parameters, missing and
foreign parameters, malformed tokens, short relators and theta words)
and argv for the four config commands go through ``cli.main`` in
process.  Every run must end with an exit code of the contract (0, 2, 3,
4 or 5), print exactly one ``error=`` line, as its last, when it exits 4
or 5 and none otherwise, and raise nothing else.  Depths stay at most 2
and every cap small, so a run is cheap whatever the text defines.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from handlebody.cli import main

# Malformed tokens mixed into words, parameters and lines, each drawn
# about one time in twenty, so about half the texts are well formed and
# reach the group and theta checks.
_BAD_ATOMS = ["z", "(", ")", "^", "a^", "[a", "a,b]", "*", "a^x", "x1"]
_BAD_NUMBERS = ["-1", "0", "x", "", "1.5"]
_BAD_LINES = ["rel", "gens", "bogus x", "group g", "known_b0 maybe",
              "kind cyclic n=2 n=3", "theta x1=a y1=a x2=a"]


def _pick(good, bad):
    """One of ``good`` or, one time in twenty, of ``bad``."""
    return st.tuples(st.integers(0, 19), st.sampled_from(good),
                     st.sampled_from(bad)).map(
        lambda t: t[2] if t[0] == 7 else t[1])


def _words(names):
    """Short words over ``names``: powers, a commutator and products."""
    atoms = ["1"] + [n + e for n in names for e in ("", "^-1", "^2", "^3")]
    if len(names) > 1:
        atoms.append("[%s,%s]" % names[:2])
    return st.builds(lambda parts, sep: sep.join(parts),
                     st.lists(_pick(atoms, _BAD_ATOMS), min_size=1,
                              max_size=4),
                     _pick(["*"], [""]))


def _kind_line(draw, kind, params):
    """``kind <kind> <params>``, one time in ten with a parameter dropped
    and one time in ten with a foreign or repeated one added."""
    params = list(params)
    if params and draw(st.integers(0, 9)) == 7:
        params.pop(draw(st.integers(0, len(params) - 1)))
    if draw(st.integers(0, 9)) == 7:
        params.append(draw(st.sampled_from(["m=3", "n=3", "p=3", "n"])))
    return " ".join(["kind", kind] + params)


def _group_lines(draw):
    """The kind line (and gens and rel lines), and the generator names."""
    kind = draw(_pick(["cyclic", "semidirect_pq", "heisenberg",
                       "presentation"], ["foo", ""]))
    if kind == "cyclic":
        n = draw(_pick(["1", "2", "3", "4", "6", "8"], _BAD_NUMBERS))
        return [_kind_line(draw, kind, ["n=" + n])], ("a",)
    if kind == "semidirect_pq":
        pqr = draw(_pick(["7 3 2", "7 3 4", "13 3 3", "13 3 9"],
                         ["7 3 3", "6 3 2", "5 2 4", "7 0 2", "x 3 2"]))
        return [_kind_line(draw, kind, ["%s=%s" % kv for kv in
                                        zip("pqr", pqr.split())])
                ], ("a", "b")
    if kind == "heisenberg":
        p = draw(_pick(["3"], _BAD_NUMBERS))
        return [_kind_line(draw, kind, ["p=" + p])], ("x", "y")
    if kind == "presentation":
        names = draw(_pick([("a",), ("a", "b")], [("a", "a"), ()]))
        rels = draw(st.lists(_words(names), min_size=1, max_size=3))
        return ([_kind_line(draw, kind, []), "gens " + " ".join(names)]
                + ["rel " + rel for rel in rels]), names
    return ["kind " + kind], ("a",)


# A theta over each kind's generator names that is an epimorphism onto the
# metacyclic groups, heisenberg(3) and the cyclic groups.
_STANDARD_THETA = {("a",): "theta x1=a y1=a x2=a y2=a",
                   ("a", "b"): "theta x1=a y1=b x2=b^-1 y2=b*a^-1",
                   ("x", "y"): "theta x1=x y1=y x2=y y2=x"}


@st.composite
def config_texts(draw):
    lines, names = _group_lines(draw)
    lines.append(draw(_pick(["group g"], ["group", "group g h"])))
    theta = draw(st.integers(0, 4))
    if theta == 1 and names in _STANDARD_THETA:
        lines.append(_STANDARD_THETA[names])
    elif theta:
        keys = draw(_pick([("x1", "y1", "x2", "y2")],
                          [("x1", "y1", "x2"), ("x1", "x1", "x2", "y2"),
                           ("x1", "y1", "x2", "x3")]))
        lines.append("theta " + " ".join(
            "%s=%s" % (key, draw(_words(names))) for key in keys))
    if draw(st.booleans()):
        lines.append("known_b0 " + draw(st.sampled_from(["zero",
                                                         "nonzero"])))
    if draw(st.integers(0, 19)) == 7:
        lines.append(draw(st.sampled_from(_BAD_LINES)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


# The options each config command takes, and the values tried for each:
# depths at most 2 and small caps, with a few malformed ones.
_OPTIONS = {
    "check": ("--depth", "--coset-cap"),
    "counts": ("--depth", "--coset-cap", "--aut-cap"),
    "quadruple": ("--coset-cap", "--closure-cap"),
    "kernel-orbit": ("--depth", "--coset-cap", "--closure-cap"),
}
_VALUES = {
    "--depth": _pick(["0", "1", "2"], ["-1", "x"]),
    "--coset-cap": _pick(["0", "1", "8", "30", "64"], ["-2", ""]),
    "--aut-cap": _pick(["0", "10", "2000"], ["y", "-1"]),
    "--closure-cap": _pick(["0", "10", "2000"], ["-1", "1e3"]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command, "--config", "CONFIG"]
    # Every cap and depth the command takes is given, so no run reaches a
    # default sized for real work; now and then a foreign option is added.
    for flag in _OPTIONS[command]:
        argv += [flag, draw(_VALUES[flag])]
    if draw(st.integers(0, 19)) == 7:
        flag = draw(st.sampled_from(sorted(_VALUES)))
        argv += [flag, draw(_VALUES[flag])]
    return argv


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().splitlines()


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=config_texts(), argv=argvs())
def test_cli_input_layer_fuzz(config_path, text, argv):
    config_path.write_text(text)
    code, lines = _run([str(config_path) if a == "CONFIG" else a
                        for a in argv])
    assert code in (0, 2, 3, 4, 5)
    event("exit %s" % code)    # --hypothesis-show-statistics counts them
    errors = [line for line in lines if line.startswith("error=")]
    if code in (4, 5):
        assert len(errors) == 1 and lines[-1] == errors[0]
        assert errors[0].startswith("error=%s detail=" % (
            "invalid-input" if code == 4 else "cap-exceeded"))
    else:
        assert not errors
