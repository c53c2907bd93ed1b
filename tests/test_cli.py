"""Command-line interface: report formats and exit codes.

Exit code contract: 0 success/witness-found, 2 usage, 3 inconclusive
negative, 4 invalid input, 5 cap exceeded.
"""

import os
import re

import pytest

from handlebody.cli import main

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


def test_orbit_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "c0.cache")
    code1, out1 = run(capsys, "orbit", "--depth", "3", "--cache", cache)
    assert code1 == 0 and os.path.exists(cache)
    code2, out2 = run(capsys, "orbit", "--depth", "3", "--cache", cache)
    assert code2 == 0
    assert out1 == out2  # byte-deterministic reports


def test_orbit_corrupt_cache_is_invalid_input(tmp_path, capsys):
    cache = tmp_path / "c0.cache"
    cache.write_text("c0-cache v1\ngarbage\n")
    code, out = run(capsys, "orbit", "--depth", "3", "--cache", str(cache))
    assert code == 4
    assert "error=invalid-input" in out


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


def test_kernel_orbit_abelian_counterexample(capsys):
    code, out = run(capsys, "kernel-orbit", "--config", cfg("cyclic_3.cfg"),
                    "--depth", "2")
    assert code == 0
    assert "r=40 provenance=derived" in out
    assert "intersection-avoids-c0=false depth=2" in out
    assert 'counterexample="x1 y1 x1^-1 y1^-1" path=base' in out
    assert "fiber-order=81 provenance=derived" in out
    assert "fiber-action" not in out  # no certificate when a word intersects


def test_kernel_orbit_aut_cap(capsys):
    code, out = run(capsys, "kernel-orbit", "--config",
                    cfg("heisenberg_3.cfg"), "--depth", "1",
                    "--aut-cap", "5")
    assert code == 5
    assert "error=cap-exceeded" in out


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
