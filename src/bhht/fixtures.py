"""Fixture catalogue: flat text files describing (polynomial, G, S, expectations).

Format: section headers in brackets, one datum per line, ``#`` comments.

    [name]        optional; defaults to the file stem
    [polynomial]  one line, fixture polynomial grammar
    [G]           generator lines ``1/m(a1,...,an)``, the name ``J`` for the
                  exponential grading element, or the single word ``full``
    [S]           generator lines in cycle notation, or one named group
                  (A3, A4, A5, D10, Z2x2)
    [expect]      ``key = value`` expectations (pc, duality_equal, error,
                  golden_euler, ...)
    [meta]        free-form ``key = value`` bookkeeping (table row numbers etc.)
"""

import os
from functools import cached_property
from math import gcd
from pathlib import Path

from .diaggroups import subgroup_key
from .errors import MembershipError, ParseError
from .intmat import hermite_generators, hermite_key, hermite_order
from .permgroups import group_from_generators
from .polynomials import parse_polynomial, serialize_polynomial

DATA_DIR = Path(__file__).parent / "fixtures_data"
ENV_VAR = "SAITO_FIXTURES"


class FixtureSpec:
    def __init__(self, name, polynomial_text, g_lines, s_lines, expect=None, meta=None):
        self.name = name
        self.polynomial_text = polynomial_text
        self.g_lines = g_lines
        self.s_lines = s_lines
        self.expect = {} if expect is None else expect
        self.meta = {} if meta is None else meta

    @cached_property
    def matrix(self):
        """The polynomial, parsed on first read; a text that does not parse
        raises on every read."""
        return parse_polynomial(self.polynomial_text)

    @property
    def nvars(self):
        return self.matrix.n

    def perm_group(self):
        return group_from_generators(self.nvars, self.s_lines)

    def g_key(self, group):
        """The Hermite key of the configured subgroup of the diagonal group."""
        if self.g_lines == ["full"]:
            return group.key
        gens = [parse_group_element(line, group) for line in self.g_lines]
        return hermite_key(gens, group.n, group.exponent)

    def g_subgroup(self, group):
        """The configured subgroup of the diagonal symmetry group, as the
        ``Subgroup`` of its key: nothing is listed unless it is iterated."""
        return group.kernel_elements(self.g_key(group))


def parse_group_element(line, group):
    """``1/m(a1,...,an)`` or the name J (``DiagonalGroup.grading``).

    The entries are the a_i / m mod 1, read as integers mod the group
    exponent L: each a_i.L must be a multiple of m, and the entry is
    a_i.L / m mod L.  The line need not be reduced, and negative a_i are
    taken mod 1."""
    line = line.strip()
    if line == "J":
        return group.grading
    if not line.startswith("1/"):
        raise ParseError("bad group element %r" % line)
    try:
        denom_part, rest = line[2:].split("(", 1)
        m = int(denom_part)
        if not rest.endswith(")") or not m:
            raise ValueError
        numerators = [int(t) for t in rest[:-1].split(",")]
    except ValueError as exc:
        raise ParseError("bad group element %r" % line) from exc
    if len(numerators) != group.n:
        raise MembershipError("vector length %d != %d" % (len(numerators), group.n))
    L = group.exponent
    for a in numerators:
        if a * L % m:
            raise MembershipError(
                "denominator %d does not divide group exponent %d"
                % (abs(m) // gcd(a, m), L))
    element = tuple([a * L // m % L for a in numerators])
    if element not in group:
        raise MembershipError("%s is not a diagonal symmetry" % line)
    return element


def format_group_subgroup(group, subgroup):
    """Generator lines for a ``Subgroup`` of the group, read off its key
    (``format_group_key``)."""
    return format_group_key(group, subgroup_key(group, subgroup))


def format_group_key(group, key):
    """Generator lines for the subgroup of a Hermite key, matching the fixture
    grammar: ``full`` for the whole group, otherwise the key's rows."""
    L = group.exponent
    if hermite_order(key, L) == group.order:
        return ["full"]
    gens = hermite_generators(key, L)
    return [group.format_element(g) for g in gens] or [group.format_element(group.zero)]


def _parse_value(raw):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(raw)
    except ValueError:
        return raw


def parse_fixture(text, name="fixture"):
    section = None
    data = {"name": [], "polynomial": [], "G": [], "S": [], "expect": [], "meta": []}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in data:
                raise ParseError("unknown section %r" % section, lineno)
            continue
        if section is None:
            raise ParseError("content before any section", lineno)
        data[section].append(line)
    if len(data["polynomial"]) != 1:
        raise ParseError("fixture needs exactly one [polynomial] line")
    expect = {}
    for line in data["expect"]:
        if "=" not in line:
            raise ParseError("bad expectation line %r" % line)
        key, val = line.split("=", 1)
        expect[key.strip()] = _parse_value(val)
    meta = {}
    for line in data["meta"]:
        if "=" not in line:
            raise ParseError("bad meta line %r" % line)
        key, val = line.split("=", 1)
        meta[key.strip()] = _parse_value(val)
    g_lines = data["G"] or ["full"]
    if data["name"]:
        name = data["name"][0]
    return FixtureSpec(name=name, polynomial_text=data["polynomial"][0],
                       g_lines=g_lines, s_lines=data["S"], expect=expect, meta=meta)


def serialize_fixture(spec):
    lines = ["[name]", spec.name, "", "[polynomial]",
             serialize_polynomial(spec.matrix), "", "[G]"]
    lines += spec.g_lines or ["full"]
    lines += ["", "[S]"]
    lines += spec.s_lines
    if spec.expect:
        lines += ["", "[expect]"]
        lines += ["%s = %s" % (k, _fmt(v)) for k, v in sorted(spec.expect.items())]
    if spec.meta:
        lines += ["", "[meta]"]
        lines += ["%s = %s" % (k, _fmt(v)) for k, v in sorted(spec.meta.items())]
    return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def fixtures_dir(override=None):
    if override:
        return Path(override)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return DATA_DIR


def load_fixture(path):
    path = Path(path)
    return parse_fixture(path.read_text(), name=path.stem)


def load_catalogue(directory=None):
    directory = fixtures_dir(directory)
    out = {}
    for path in sorted(directory.glob("*.fix")):
        out[path.stem] = load_fixture(path)
    return out
