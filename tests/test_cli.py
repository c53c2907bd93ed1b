"""Command-line interface: report formats and exit codes.

Exit code contract: 0 success/witness-found, 2 usage, 3 inconclusive
negative, 4 invalid input, 5 cap exceeded.
"""

import argparse
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import handlebody
from handlebody import cli, config, groups, homs, orbit
from handlebody.cli import build_parser, main

# The package exports the function kernel_orbit under the module's name.
kernel_orbit = importlib.import_module("handlebody.kernel_orbit")

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def cfg(name):
    return os.path.join(CONFIG_DIR, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbit_small_depth(capsys):
    code, out = run(capsys, "orbit", "--depth", "2")
    assert code == 0
    assert "count=14 depth=2 provenance=derived" in out


def test_orbit_rejects_negative_depth(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--depth", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("check", "--config", cfg("cyclic_3.cfg"), "--coset-cap", "-1"),
    ("counts", "--config", cfg("heisenberg_3.cfg"), "--aut-cap", "-1"),
    ("kernel-orbit", "--config", cfg("cyclic_3.cfg"), "--closure-cap", "-1"),
], ids=["coset-cap", "aut-cap", "closure-cap"])
def test_caps_reject_negative_values(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_check_finds_witness(capsys):
    code, out = run(capsys, "check", "--config",
                    cfg("semidirect_11_5_3.cfg"), "--depth", "3")
    assert code == 0
    assert "group=metacyclic_11_5_3 order=55" in out
    m = re.search(r'extends-to-handlebody witness="([^"]+)" path=(\S+)', out)
    assert m and m.group(2) == "3,4,4"
    assert 'b0=Zero reason="R4' in out
    assert 'samperton=AllFreeActionsExtend' in out


def test_check_negative_at_depth_zero(capsys):
    code, out = run(capsys, "check", "--config",
                    cfg("semidirect_11_5_3.cfg"), "--depth", "0")
    assert code == 3
    assert "no-witness depth=0" in out


def test_check_immediate_witness_for_abelian(capsys):
    code, out = run(capsys, "check", "--config", cfg("cyclic_3.cfg"),
                    "--depth", "0")
    # The seed commutator word itself is the witness at depth 0.
    assert code == 0
    assert 'witness="x1 y1 x1^-1 y1^-1" path=base' in out


def test_check_missing_config_is_invalid(capsys):
    code, out = run(capsys, "check", "--config", "/nonexistent.cfg")
    assert code == 4
    assert "error=invalid-input" in out


def test_check_requires_theta(tmp_path, capsys):
    p = tmp_path / "plain.cfg"
    p.write_text("group g\nkind cyclic n=3\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", str(p)])
    assert exc.value.code == 2


def test_check_invalid_group_parameters(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("group g\nkind semidirect_pq p=11 q=5 r=2\n"
                 "theta x1=a y1=b x2=b^-1 y2=b*a^-1\n")
    code, out = run(capsys, "check", "--config", str(p))
    assert code == 4
    assert "r^q" in out.replace("error=invalid-input detail=", "")


@pytest.mark.parametrize("command", ["counts", "check", "kernel-orbit"])
def test_theta_over_the_trivial_group_is_invalid(tmp_path, capsys, command):
    # kind cyclic n=1 has no generators, so no theta word can name one.
    p = tmp_path / "trivial.cfg"
    p.write_text("group g\nkind cyclic n=1\ntheta x1=a y1=a x2=a y2=a\n")
    code, out = run(capsys, command, "--config", str(p))
    assert code == 4
    assert out.splitlines() == [
        'error=invalid-input detail="%s: line 3: theta is written over the '
        "group's generators, and the trivial group (kind cyclic n=1) has "
        'none"' % p]


@pytest.mark.parametrize("command", ["counts", "check", "kernel-orbit"])
def test_invalid_theta_prints_only_the_error(tmp_path, capsys, command):
    # theta breaks the surface relation: no report line comes before the
    # error, counts included.
    p = tmp_path / "bad_theta.cfg"
    p.write_text("group heisenberg_3\nkind heisenberg p=3\n"
                 "theta x1=x y1=y x2=x y2=x\n")
    code, out = run(capsys, command, "--config", str(p))
    assert code == 4
    assert out.splitlines() == [
        'error=invalid-input detail="surface relation violated: '
        '[a,b][c,d] evaluates to element 1"']


def test_counts_heisenberg(capsys):
    code, out = run(capsys, "counts", "--config", cfg("heisenberg_3.cfg"),
                    "--depth", "9")
    assert code == 0
    assert "noncommuting=432 provenance=paper-match" in out
    assert "aut_orbits=1 provenance=paper-match" in out
    assert "partner_pairs=216 provenance=derived" in out
    assert "partner_pairs_filtered=181 provenance=derived" in out
    assert "witnesses=216 provenance=derived" in out


def test_counts_aut_cap_falls_back_to_unverified(capsys):
    code, out = run(capsys, "counts", "--config", cfg("heisenberg_3.cfg"),
                    "--depth", "2", "--aut-cap", "1")
    assert code == 0
    assert "aut_orbits=unverified provenance=unverified" in out


def test_counts_trivial_group_has_no_orbits(tmp_path, capsys):
    # No noncommuting pair, so no automorphism search (and the trivial
    # group has no presentation to search with).
    p = tmp_path / "trivial.cfg"
    p.write_text("group trivial\nkind cyclic n=1\n")
    code, out = run(capsys, "counts", "--config", str(p), "--depth", "2")
    assert code == 0
    assert out.splitlines() == ["group=trivial order=1",
                                "noncommuting=0 provenance=derived",
                                "aut_orbits=0 provenance=derived"]


def test_quadruple_found(capsys):
    code, out = run(capsys, "quadruple", "--config", cfg("cyclic_3.cfg"))
    assert code == 0
    assert "quadruple=0,0,0,1" in out


def test_quadruple_exhausted_is_negative(tmp_path, capsys):
    # Z2^5 needs five generators, so no commuting-pair quadruple generates.
    p = tmp_path / "z2_5.cfg"
    rels = ["rel %s^2" % g for g in "abcde"]
    rels += ["rel [%s,%s]" % (g, h) for g in "abcde" for h in "abcde"
             if g < h]
    p.write_text("group z2_5\nkind presentation\ngens a b c d e\n"
                 + "\n".join(rels) + "\n")
    code, out = run(capsys, "quadruple", "--config", str(p),
                    "--closure-cap", "3000000")
    assert code == 3
    assert "quadruple=none" in out
    # The default cap is too small to exhaust this space: honest exit 5.
    code, out = run(capsys, "quadruple", "--config", str(p))
    assert code == 5 and "error=cap-exceeded" in out


def test_quadruple_cap_exceeded(capsys):
    code, out = run(capsys, "quadruple", "--config",
                    cfg("order243_presented.cfg"), "--closure-cap", "3")
    assert code == 5
    assert "error=cap-exceeded" in out


@pytest.mark.parametrize("command",
                         ["check", "counts", "quadruple", "kernel-orbit"])
def test_coset_cap_exceeded(capsys, command):
    code, out = run(capsys, command, "--config",
                    cfg("order243_presented.cfg"), "--coset-cap", "10")
    assert code == 5
    assert out == ('error=cap-exceeded detail="coset cap 10 exceeded '
                   '(presentation may define a larger or infinite '
                   'group)"\n')


def test_coset_row_bound_exits_5(tmp_path, capsys):
    # The lookahead at cap 600 keeps freeing a few cosets per pass; the
    # bound on the table's rows ends the run.
    p = tmp_path / "refilling.cfg"
    p.write_text("group refilling\nkind presentation\ngens a b\n"
                 "rel a^3 a^5 a^5 b^-3 a^3 b a^-1 a^4 b^4\n"
                 "rel b^2 b^-3 a b^4 b^-2 a^-1\n"
                 "rel b^-2 a^2 b a^-2 b^5\n"
                 "theta x1=a y1=b x2=a y2=b\n")
    code, out = run(capsys, "check", "--config", str(p),
                    "--coset-cap", "600")
    assert code == 5
    assert out == ('error=cap-exceeded detail="coset cap 600 exceeded: the '
                   'table reached 4800 rows (presentation may define a '
                   'larger or infinite group)"\n')


def test_orbit_depth_bound_exits_5(capsys):
    # Depth 13 is refused before the set makes a level past its seeds.
    code, out = run(capsys, "orbit", "--depth", "13")
    assert code == 5
    assert out == ('error=cap-exceeded detail="orbit depth cap 12 exceeded: '
                   'depth 13 would make level 13"\n')
    assert orbit.generate_c0(13).generated == 2


def test_check_answers_past_the_word_bound_depth(capsys):
    # The witness lies at level 3, so a depth the depth bound refuses in
    # full still answers.
    code, out = run(capsys, "check", "--config",
                    cfg("semidirect_11_5_3.cfg"), "--depth", "50")
    assert code == 0 and "path=3,4,4" in out


def test_kernel_orbit_abelian_counterexample(capsys):
    code, out = run(capsys, "kernel-orbit", "--config", cfg("cyclic_3.cfg"),
                    "--depth", "2")
    assert code == 0
    assert "r=40 provenance=derived" in out
    assert "intersection-avoids-c0=false depth=2" in out
    assert 'counterexample="x1 y1 x1^-1 y1^-1" path=base' in out
    assert "fiber-order=81 provenance=derived" in out
    assert "fiber-action" not in out  # no certificate when a word intersects


def test_kernel_orbit_generates_no_level_past_the_seeds(capsys,
                                                       monkeypatch):
    # The kernel orbit is closed under the twists, so the two seeds decide
    # the depth-9 answer and the transcript is unchanged.  The seeds are a
    # fresh set: the shared depth-9 set is neither looked up, evicted nor
    # grown.
    from handlebody.orbit import OrbitSet
    s9 = orbit.generate_c0(9)
    memo = orbit._orbit_set.cache_info()
    grown = []
    grow = OrbitSet._grow

    def counted(self):
        made = grow(self)
        if made or self is s9:
            grown.append(self)
        return made

    monkeypatch.setattr(OrbitSet, "_grow", counted)
    code, out = run(capsys, "kernel-orbit", "--config",
                    cfg("heisenberg_3.cfg"), "--depth", "9")
    assert code == 0 and grown == []
    assert orbit._orbit_set.cache_info() == memo
    assert orbit.generate_c0(9) is s9
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "kernel_orbit_heisenberg_3.txt")
    with open(golden, encoding="utf-8") as fh:
        assert out == fh.read()


def test_a_process_keeps_one_shared_orbit_set(capsys):
    # orbit at depth 6, then check at depth 9: the check's set replaces
    # the depth-6 one, which is made afresh when asked for again.
    orbit._orbit_set.cache_clear()
    code, _ = run(capsys, "orbit", "--depth", "6")
    assert code == 0
    code, _ = run(capsys, "check", "--config", cfg("heisenberg_3.cfg"))
    assert code == 0
    assert orbit._orbit_set.cache_info().currsize == 1
    assert orbit.generate_c0(6).generated == 2


def test_kernel_orbit_takes_no_aut_cap():
    # Kernels are keyed without Aut(G), so the option is gone.
    with pytest.raises(SystemExit) as exc:
        main(["kernel-orbit", "--config", cfg("heisenberg_3.cfg"),
              "--aut-cap", "5"])
    assert exc.value.code == 2


def test_table1_takes_no_coset_cap():
    # table1 builds its groups with semidirect_pq and enumerates no cosets.
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--coset-cap", "5"])
    assert exc.value.code == 2


def test_kernel_orbit_class_cap(capsys, monkeypatch):
    # The CLI has no class-cap flag; wrapping the BFS with a small cap
    # reaches the same exit path as a wide orbit would.
    from handlebody import cli
    bfs = cli.compute_kernel_orbit
    monkeypatch.setattr(cli, "compute_kernel_orbit",
                        lambda theta, **kw: bfs(theta, class_cap=5, **kw))
    code, out = run(capsys, "kernel-orbit", "--config", cfg("cyclic_3.cfg"),
                    "--depth", "1")
    assert code == 5
    assert out.splitlines()[-1] == (
        'error=cap-exceeded detail="kernel orbit exceeded class cap 5"')


def test_table1_verifies_all_rows(capsys):
    code, out = run(capsys, "table1", "--depth", "9")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("row=")]
    assert len(rows) == 14
    assert all("in_c0=true in_kernel=true base_nontrivial=true" in ln
               for ln in rows)
    assert "rows=14 verified=14 provenance=paper-match" in out


def test_reports_are_key_value_lines(capsys):
    _, out = run(capsys, "orbit", "--depth", "1")
    for line in out.strip().splitlines():
        assert re.fullmatch(r"[a-z0-9_-]+=\S.*( [a-z0-9_-]+=\S.*)*", line), \
            line


def _orbit_sets(monkeypatch):
    """Record each orbit set the CLI generates, on an emptied memo: each
    run meets a fresh set, not one an earlier test has grown."""
    made = []
    orbit._orbit_set.cache_clear()

    def generate(*args, **kwargs):
        made.append(cli_generate(*args, **kwargs))
        return made[-1]

    cli_generate = cli.generate_c0
    monkeypatch.setattr(cli, "generate_c0", generate)
    return made


@pytest.mark.parametrize("argv,exact,most", [
    (("check", "--config", cfg("heisenberg_3.cfg")), True, 5),
    (("check", "--config", cfg("semidirect_11_5_3.cfg")), True, 41),
    (("table1",), False, 122),
    (("counts", "--config", cfg("heisenberg_3.cfg")), False, 122),
    (("counts", "--config", cfg("semidirect_11_5_3.cfg")), False, 122),
])
def test_witness_commands_generate_few_words(capsys, monkeypatch, argv,
                                             exact, most):
    # Every witness of these runs lies in levels <= 4 (122 words); the
    # depth-9 set has 29,922.
    made = _orbit_sets(monkeypatch)
    code, _ = run(capsys, *argv)
    assert code == 0 and len(made) == 1
    assert not made[0].complete
    assert made[0].generated == most if exact else \
        made[0].generated <= most


def test_orbit_command_finishes_the_set(capsys, monkeypatch):
    made = _orbit_sets(monkeypatch)
    code, out = run(capsys, "orbit", "--depth", "3")
    assert code == 0 and "count=41 " in out
    assert made[0].complete


def _golden(name):
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           name + ".txt"), encoding="utf-8") as fh:
        return fh.read()


def test_kept_parser_takes_each_calls_depth(capsys):
    # main keeps one parser for the process; an earlier call's --depth
    # must not carry over into a plain call, which runs at depth 9.
    semidirect = cfg("semidirect_11_5_3.cfg")
    assert run(capsys, "check", "--config", semidirect, "--depth", "3")[0] == 0
    code, out = run(capsys, "check", "--config", semidirect, "--depth", "0")
    assert code == 3 and "no-witness depth=0" in out
    assert run(capsys, "check", "--config", semidirect) == \
        (0, _golden("check_semidirect_11_5_3"))
    # kernel-orbit prints its depth.
    heis = cfg("heisenberg_3.cfg")
    code, out = run(capsys, "kernel-orbit", "--config", heis, "--depth", "3")
    assert code == 0 and "intersection-avoids-c0=true depth=3" in out
    assert run(capsys, "kernel-orbit", "--config", heis) == \
        (0, _golden("kernel_orbit_heisenberg_3"))


@pytest.mark.parametrize("bad", [
    ("check", "--config", cfg("cyclic_3.cfg"), "--depth", "-1"),
    ("check", "--config", cfg("cyclic_3.cfg"), "--aut-cap", "5"),
    ("check",),
    ("no-such-command",),
], ids=["bad-value", "foreign-option", "missing-option", "bad-command"])
def test_usage_error_leaves_the_next_call_unchanged(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(list(bad))
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "check", "--config", cfg("cyclic_3.cfg")) == \
        (0, _golden("check_cyclic_3"))


_THETA = "theta x1=a y1=1 x2=1 y2=1\n"


@pytest.mark.parametrize("body, detail", [
    ("kind cyclic n=3\ntheta x1=a^99999999999999999999 y1=1 x2=1 y2=1\n",
     "{path}: theta x1: word of 99999999999999999999 letters exceeds the "
     "bound 1048576 (at position 2)"),
    ("kind cyclic n=3\ntheta x1=a^1000000000 y1=1 x2=1 y2=1\n",
     "{path}: theta x1: word of 1000000000 letters exceeds the bound "
     "1048576 (at position 2)"),
    ("kind presentation\ngens a\nrel a^-1000000000\n" + _THETA,
     "{path}: line 4: bad relator: word of 1000000000 letters exceeds the "
     "bound 1048576 (at position 2)"),
    ("kind cyclic n=100000000\n" + _THETA,
     "cyclic(100000000): order 100000000 exceeds the bound 4096 on dense "
     "tables"),
    ("kind semidirect_pq p=10000000000000000051 q=3 r=2\n" + _THETA,
     "semidirect_pq(10000000000000000051,3,2): order 30000000000000000153 "
     "exceeds the bound 4096 on dense tables"),
    ("kind heisenberg p=17\n" + _THETA,
     "heisenberg(17): order 4913 exceeds the bound 4096 on dense tables")],
    ids=["power-20-digits", "power-1e9", "relator-power", "cyclic",
         "semidirect", "heisenberg"])
def test_size_bounds_exit_invalid(tmp_path, capsys, body, detail):
    p = tmp_path / "big.cfg"
    p.write_text("group g\n" + body)
    code, out = run(capsys, "check", "--config", str(p))
    assert code == 4
    # A config syntax error names the file; a group's error does not.
    assert out == 'error=invalid-input detail="%s"\n' % detail.format(path=p)


def test_enumerated_order_bound_exits_invalid(tmp_path, capsys, monkeypatch):
    # C11 x C11 under a bound of 120: refused before its table is built.
    groups._enumeration.cache_clear()
    monkeypatch.setattr(groups, "MAX_ORDER", 120)
    p = tmp_path / "c11xc11.cfg"
    p.write_text("group g\nkind presentation\ngens a b\n"
                 "rel a^11\nrel b^11\nrel [a,b]\n" + _THETA)
    code, out = run(capsys, "check", "--config", str(p))
    assert code == 4
    assert out == ('error=invalid-input detail="presented(a,b): order 121 '
                   'exceeds the bound 120 on dense tables"\n')


# Each subcommand's flags in usage order, with the default each parses to
# (None for the required --config).
_SUBCOMMAND_FLAGS = {
    "orbit": {"--depth": 9},
    "check": {"--config": None, "--depth": 9, "--coset-cap": 50000},
    "table1": {"--depth": 9},
    "counts": {"--config": None, "--depth": 9, "--coset-cap": 50000,
               "--aut-cap": 200000},
    "quadruple": {"--config": None, "--coset-cap": 50000,
                  "--closure-cap": 1000000},
    "kernel-orbit": {"--config": None, "--depth": 9, "--coset-cap": 50000,
                     "--closure-cap": 1000000},
}


def _subparsers():
    parser = build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_each_subcommand_keeps_its_flags_and_defaults(capsys):
    subparsers = _subparsers()
    assert list(subparsers) == list(_SUBCOMMAND_FLAGS)
    for name, want in _SUBCOMMAND_FLAGS.items():
        flags = {action.option_strings[0]: action.default
                 for action in subparsers[name]._actions
                 if action.option_strings != ["-h", "--help"]}
        assert list(flags.items()) == list(want.items())
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        usage, options = capsys.readouterr().out.split("options:")
        assert re.findall(r"--[a-z-]+", usage) == list(want)
        assert re.findall(r"^  (--[a-z-]+)", options, re.M) == list(want)


def test_cap_defaults_are_the_library_constants():
    # One declaration per cap: the flag and every function default read
    # the module constant beside the exception the cap raises.  Compared
    # by identity, so an equal literal written elsewhere fails.
    flags = {"--coset-cap": groups.COSET_CAP,
             "--aut-cap": groups.AUT_NODE_CAP,
             "--closure-cap": kernel_orbit.CLOSURE_CAP}
    for sub in _subparsers().values():
        for action in sub._actions:
            if action.option_strings[0] in flags:
                assert action.default is flags[action.option_strings[0]]
    defaults = [
        (groups.coset_enumerate, "coset_cap", groups.COSET_CAP),
        (config.parse_config, "coset_cap", groups.COSET_CAP),
        (config.load_config, "coset_cap", groups.COSET_CAP),
        (groups.automorphisms, "node_cap", groups.AUT_NODE_CAP),
        (groups.single_aut_orbit_certificate, "node_cap",
         groups.AUT_NODE_CAP),
        (kernel_orbit.fiber_group_order, "closure_cap",
         kernel_orbit.CLOSURE_CAP),
        (kernel_orbit.kernel_orbit, "class_cap", kernel_orbit.CLASS_CAP),
        (homs.quadruple_search, "node_cap", homs.QUADRUPLE_NODE_CAP)]
    for func, name, constant in defaults:
        assert inspect.signature(func).parameters[name].default is constant


def test_every_cap_error_ends_a_command(capsys):
    found = set()
    for module in pkgutil.iter_modules(handlebody.__path__):
        mod = importlib.import_module("handlebody." + module.name)
        found |= {obj for name, obj in vars(mod).items()
                  if name.endswith("CapExceeded") and isinstance(obj, type)}
    assert found - {groups.AutCapExceeded} == set(cli._CAP_ERRORS)
    # counts answers past its automorphism cap instead of exiting 5.
    code, out = run(capsys, "counts", "--config", cfg("heisenberg_3.cfg"),
                    "--depth", "0", "--aut-cap", "0")
    assert code == 0 and "error=" not in out
    assert "aut_orbits=unverified provenance=unverified" in out
