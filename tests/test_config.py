"""Run-configuration parsing and validation."""

import pytest

from handlebody.config import ConfigError, load_config, parse_config
from handlebody.groups import CosetCapExceeded
from handlebody.homs import NotGenerating, RelationViolated

MINIMAL = """
# a comment
group three
kind cyclic n=3
theta x1=a y1=a x2=a y2=a
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "three"
    assert cfg.kind == "cyclic"
    assert cfg.params == {"n": 3}
    assert cfg.group.order == 3
    assert cfg.known_b0 is None
    theta = cfg.theta()
    assert theta.images == (1, 1, 1, 1)


def test_parse_presentation_kind():
    text = """group k4
kind presentation
gens a b
rel a^2
rel b^2
rel [a,b]
"""
    cfg = parse_config(text)
    assert cfg.group.order == 4
    assert cfg.theta_words is None
    assert cfg.theta() is None


def test_known_b0_values():
    cfg = parse_config("group g\nkind cyclic n=5\nknown_b0 zero\n")
    assert cfg.known_b0 == "zero"
    cfg = parse_config("group g\nkind heisenberg p=3\nknown_b0 nonzero\n")
    assert cfg.known_b0 == "nonzero"
    with pytest.raises(ConfigError):
        parse_config("group g\nkind cyclic n=5\nknown_b0 maybe\n")


@pytest.mark.parametrize("text,fragment", [
    ("kind cyclic n=3\n", "group"),                      # missing name
    ("group g\n", "kind"),                               # missing kind
    ("group g\nkind wheel n=3\n", "kind"),               # unknown kind
    ("group g\nkind cyclic\n", "exactly"),               # missing param
    ("group g\nkind cyclic n=3 m=4\n", "exactly"),       # extra param
    ("group g\n\nkind cyclic m=3\n", "line 3: kind cyclic takes exactly n"),
    ("group g\nkind cyclic n=x\n", "integer"),           # non-integer
    ("group g\nkind cyclic n=3\nbogus 1\n", "directive"),
    ("group g\nkind presentation\nrel a^2\n", "gens"),
    ("group g\nkind presentation\ngens a\nrel a^^2\n", "bad relator"),
    ("group g\nkind cyclic n=3\ntheta x1=a\n", "theta"),
    ("group g\nkind cyclic n=3\ntheta x1=Q y1=a x2=a y2=a\n", "theta x1"),
    ("group g\nkind cyclic n=3 n=5\n", "line 2: repeated parameter n"),
    ("group g\nkind cyclic n=3\ntheta x1=a x1=a^2 y1=a x2=a y2=a\n",
     "line 3: repeated theta key x1"),
    ("group g\ngroup h\nkind cyclic n=3\n",
     "line 2: repeated group line (first on line 1)"),
    ("group g\nkind cyclic n=3\n\nkind cyclic n=5\n",
     "line 4: repeated kind line (first on line 2)"),
    ("group g\nkind presentation\ngens a\nrel a^2\ngens b\n",
     "line 5: repeated gens line (first on line 3)"),
    ("group g\nkind cyclic n=3\nknown_b0 zero\nknown_b0 nonzero\n",
     "line 4: repeated known_b0 line (first on line 3)"),
    ("group g\nkind cyclic n=3\ntheta x1=a y1=a x2=a y2=a\n"
     "theta x1=a y1=a x2=a y2=a\n",
     "line 4: repeated theta line (first on line 3)"),
    ("group g\nkind presentation n=3\ngens a\nrel a^3\n",
     "line 2: kind presentation takes no parameters"),
    ("group g\nkind presentation\nrel a^2\n",
     "line 2: kind presentation requires a gens line"),
    ("group g\n\nkind presentation\ngens a\n",
     "line 3: kind presentation requires rel lines"),
    ("group g\nkind presentation\nrel b^2\ngens a\n",
     "line 3: bad relator: unknown generator 'b'"),
    ("group g\nkind presentation\ngens a\nrel a^3\n# b\nrel a b\n",
     "line 6: bad relator: unknown generator 'b'"),
    ("group g\nkind presentation\ngens a a\nrel a^2\n",
     "line 3: duplicate generator names"),
    ("group g\nkind presentation\ngens a\nrel a^2\nrel a a^-1\n",
     "line 5: bad relator: a a^-1 reduces to the identity"),
    ("group g\nkind heisenberg p=3\ngens a b\nrel a^5\n",
     "line 3: kind heisenberg takes no gens or rel lines"),
    ("group g\nrel a^2\nkind cyclic n=3\ngens a\n",
     "line 2: kind cyclic takes no gens or rel lines"),
    ("group g\nkind semidirect_pq p=7 q=3 r=2\n\nrel a^7\n",
     "line 4: kind semidirect_pq takes no gens or rel lines"),
    ("group g\nkind cyclic n=1\ntheta x1=a y1=a x2=a y2=a\n",
     "line 3: theta is written over the group's generators, and the "
     "trivial group (kind cyclic n=1) has none"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_theta_domain_errors_pass_through():
    # Images that do not generate: caught at theta() time, not parse time.
    cfg = parse_config("group g\nkind heisenberg p=3\n"
                       "theta x1=x y1=x x2=x y2=x\n")
    with pytest.raises(NotGenerating):
        cfg.theta()
    # Images violating the surface relation.
    cfg = parse_config("group g\nkind semidirect_pq p=11 q=5 r=3\n"
                       "theta x1=a y1=b x2=a y2=b\n")
    with pytest.raises(RelationViolated):
        cfg.theta()


def test_load_config_wraps_path(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("group g\nkind cyclic\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert "bad.cfg" in str(err.value)
    with pytest.raises((ConfigError, OSError)):
        load_config(str(tmp_path / "missing.cfg"))


def test_coset_cap_forwarded():
    text = "group g\nkind presentation\ngens a\nrel a^50\n"
    with pytest.raises(CosetCapExceeded, match="coset cap 5 exceeded"):
        parse_config(text, coset_cap=5)
