"""Plain-text run configuration: a group, an optional generator
assignment, and an optional asserted extension-obstruction status.

Format (one directive per line, ``#`` starts a comment; each directive
but ``rel``, each kind parameter and each theta key at most once):

    group <name>
    kind cyclic n=<int>
    kind semidirect_pq p=<int> q=<int> r=<int>
    kind heisenberg p=<int>
    kind presentation
    gens <name> <name> ...          # presentation kind only
    rel <word over gens>            # repeatable; presentation kind only
    known_b0 zero|nonzero           # optional asserted status
    theta x1=<word> y1=<word> x2=<word> y2=<word>   # optional

Theta words are written over the group's generator names and must be
whitespace-free (use ``*`` between factors, e.g. ``b*a^-1``).
"""

from __future__ import annotations

from .words import parse_word
from .groups import (COSET_CAP, Presentation, coset_enumerate,
                     evaluate_in_group, cyclic, semidirect_pq, heisenberg)
from .homs import Epimorphism

KINDS = ("cyclic", "semidirect_pq", "heisenberg", "presentation")
SURFACE_KEYS = ("x1", "y1", "x2", "y2")


class ConfigError(ValueError):
    """Malformed configuration text."""


class RunConfig:
    """Parsed configuration: the group is built eagerly, theta lazily
    validated (its errors are the caller's domain errors, not syntax);
    ``theta_words`` is None or the parsed Words in ``SURFACE_KEYS`` order."""

    def __init__(self, name, group, theta_words, known_b0, kind, params):
        self.name = name
        self.group = group
        self.theta_words = theta_words
        self.known_b0 = known_b0
        self.kind = kind
        self.params = params

    def theta(self):
        """Build the epimorphism, or None when no theta was declared.
        Raises the group-level validation errors unchanged."""
        if self.theta_words is None:
            return None
        G = self.group
        return Epimorphism(G, tuple(evaluate_in_group(G, w, G.generators)
                                    for w in self.theta_words))


def _parse_params(tokens, line_no):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError("line %d: expected key=value, got %r"
                              % (line_no, tok))
        key, _, value = tok.partition("=")
        if key in out:
            raise ConfigError("line %d: repeated parameter %s"
                              % (line_no, key))
        try:
            out[key] = int(value)
        except ValueError:
            raise ConfigError("line %d: %s must be an integer, got %r"
                              % (line_no, key, value)) from None
    return out


def _require(params, keys, kind, line_no):
    missing = [k for k in keys if k not in params]
    extra = [k for k in params if k not in keys]
    if missing or extra:
        raise ConfigError("line %d: kind %s takes exactly %s"
                          % (line_no, kind, ", ".join(keys)))


def parse_config(text, coset_cap=COSET_CAP):
    name = None
    kind = None
    params = {}
    gens = None
    rels = []
    known_b0 = None
    theta_words = None
    first = {}  # each directive but rel -> the line it is on

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, rest = tokens[0], tokens[1:]
        if directive in first:
            raise ConfigError("line %d: repeated %s line (first on line %d)"
                              % (line_no, directive, first[directive]))
        if directive != "rel":
            first[directive] = line_no
        if directive == "group":
            if len(rest) != 1:
                raise ConfigError("line %d: group takes one name" % line_no)
            name = rest[0]
        elif directive == "kind":
            if not rest or rest[0] not in KINDS:
                raise ConfigError("line %d: kind must be one of %s"
                                  % (line_no, ", ".join(KINDS)))
            kind = rest[0]
            params = _parse_params(rest[1:], line_no)
        elif directive == "gens":
            if not rest:
                raise ConfigError("line %d: gens needs at least one name"
                                  % line_no)
            gens = rest
        elif directive == "rel":
            if not rest:
                raise ConfigError("line %d: rel needs a word" % line_no)
            rels.append((line_no, " ".join(rest)))
        elif directive == "known_b0":
            if rest not in (["zero"], ["nonzero"]):
                raise ConfigError("line %d: known_b0 must be zero or nonzero"
                                  % line_no)
            known_b0 = rest[0]
        elif directive == "theta":
            theta_words = {}
            for tok in rest:
                key, eq, word = tok.partition("=")
                if not eq or key not in SURFACE_KEYS or not word:
                    raise ConfigError(
                        "line %d: theta entries are x1=<word> .. y2=<word>"
                        % line_no)
                if key in theta_words:
                    raise ConfigError("line %d: repeated theta key %s"
                                      % (line_no, key))
                theta_words[key] = word
            if sorted(theta_words) != sorted(SURFACE_KEYS):
                raise ConfigError("line %d: theta needs all of %s"
                                  % (line_no, ", ".join(SURFACE_KEYS)))
        else:
            raise ConfigError("line %d: unknown directive %r"
                              % (line_no, directive))

    if name is None:
        raise ConfigError("missing 'group <name>' line")
    if kind is None:
        raise ConfigError("missing 'kind' line")

    kind_no = first["kind"]
    stray = [no for no, _ in rels]  # gens and rel lines
    if "gens" in first:
        stray.append(first["gens"])
    if kind != "presentation" and stray:
        raise ConfigError("line %d: kind %s takes no gens or rel lines"
                          % (min(stray), kind))
    if kind == "cyclic":
        _require(params, ("n",), kind, kind_no)
        group = cyclic(params["n"])
    elif kind == "semidirect_pq":
        _require(params, ("p", "q", "r"), kind, kind_no)
        group = semidirect_pq(params["p"], params["q"], params["r"])
    elif kind == "heisenberg":
        _require(params, ("p",), kind, kind_no)
        group = heisenberg(params["p"])
    else:
        if params:
            raise ConfigError("line %d: kind presentation takes no "
                              "parameters" % kind_no)
        if gens is None:
            raise ConfigError("line %d: kind presentation requires a gens "
                              "line" % kind_no)
        if not rels:
            raise ConfigError("line %d: kind presentation requires rel lines"
                              % kind_no)
        if len(set(gens)) != len(gens):
            raise ConfigError("line %d: duplicate generator names"
                              % first["gens"])
        words = []
        for rel_no, rel in rels:
            try:
                word = parse_word(rel, gens)
            except ValueError as exc:
                raise ConfigError("line %d: bad relator: %s"
                                  % (rel_no, exc)) from None
            if word.is_identity():
                raise ConfigError("line %d: bad relator: %s reduces to the "
                                  "identity" % (rel_no, rel))
            words.append(word)
        group = coset_enumerate(Presentation(gens, words),
                                coset_cap=coset_cap)
    group.name = name

    if theta_words is not None:
        # Surface syntax/unknown-generator errors now; group-level
        # validation stays in theta().
        if not group.gen_names:
            raise ConfigError("line %d: theta is written over the group's "
                              "generators, and the trivial group (kind "
                              "cyclic n=1) has none" % first["theta"])
        parsed = []
        for key in SURFACE_KEYS:
            try:
                parsed.append(parse_word(theta_words[key],
                                         names=group.gen_names))
            except ValueError as exc:
                raise ConfigError("theta %s: %s" % (key, exc)) from None
        theta_words = tuple(parsed)

    return RunConfig(name, group, theta_words, known_b0, kind, params)


def load_config(path, coset_cap=COSET_CAP):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text, coset_cap=coset_cap)
    except ConfigError as exc:
        raise ConfigError("%s: %s" % (path, exc)) from None
