"""Inputs of the three workloads, made from the bundled catalogue or from a seed.

Generated inputs are drawn from fixed templates: a template fixes the chain
and loop blocks with their exponents and the symmetries that generate S, so
the work an input costs is the same for every seed.  The seed picks a
relabelling of the variables, the order of the monomials and, for
``mirror``, the random element whose S-orbit generates G.  Everything here is
plain text and integers; the program under test only ever sees the
resulting fixture text.
"""

import random
from math import gcd
from pathlib import Path

import checks

# A run times every operation in several passes (see run.py); pairs whose
# G_f x| S exceeds this take too long for that.
CATALOGUE_MAX_ORDER = 10000
FIXTURE_DIR = Path("src") / "bhht" / "fixtures_data"


class Input:
    """One workload input: fixture-grammar text fields plus the expectations."""

    def __init__(self, name, polynomial, s_lines, g_lines=("full",), expect=None):
        self.name = name
        self.polynomial = polynomial
        self.s_lines = list(s_lines)
        self.g_lines = list(g_lines)
        self.expect = dict(expect or {})

    def fixture_text(self):
        lines = ["[name]", self.name, "", "[polynomial]", self.polynomial,
                 "", "[G]"] + self.g_lines + ["", "[S]"] + self.s_lines
        if self.expect:
            lines += ["", "[expect]"]
            lines += ["%s = %s" % (k, str(v).lower()) for k, v in sorted(self.expect.items())]
        return "\n".join(lines) + "\n"


# -- catalogue ------------------------------------------------------------------------


def catalogue_inputs(root):
    """One input per distinct (anchored f, S) among the bundled fixtures.

    Fixtures that expect an error are left out, and so are pairs whose
    semidirect product G_f x| S exceeds CATALOGUE_MAX_ORDER.  The
    expectations of every fixture naming the same pair are merged; they must
    agree.
    """
    out = {}
    for path in sorted((root / FIXTURE_DIR).glob("*.fix")):
        spec = parse_fixture_text(path.read_text())
        if "error" in spec["expect"]:
            continue
        rows = checks.anchored_rows(checks.parse_polynomial(spec["polynomial"]))
        n = len(rows)
        group = checks.closure(checks.parse_perm_lines(spec["S"], n), n)
        if abs(checks.det(rows)) * len(group) > CATALOGUE_MAX_ORDER:
            continue
        key = (tuple(map(tuple, rows)), frozenset(group))
        if key not in out:
            out[key] = Input(path.stem, spec["polynomial"], spec["S"])
        entry = out[key]
        for k in ("pc", "duality_equal"):
            if k in spec["expect"]:
                if entry.expect.setdefault(k, spec["expect"][k]) != spec["expect"][k]:
                    raise ValueError("fixtures disagree on %s for %s" % (k, path.stem))
    return list(out.values())


def table1_inputs(root):
    """The dual-pair table rows, each with its configured G."""
    out = []
    for path in sorted((root / FIXTURE_DIR).glob("table1_*.fix")):
        spec = parse_fixture_text(path.read_text())
        out.append(Input(path.stem, spec["polynomial"], spec["S"], spec["G"] or ["full"],
                         spec["expect"]))
    return out


def parse_fixture_text(text):
    """Sections of a fixture file, read without the program's parser."""
    sections = {"name": [], "polynomial": [], "G": [], "S": [], "expect": [], "meta": []}
    current = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            continue
        sections[current].append(line)
    expect = {}
    for line in sections["expect"]:
        key, value = (t.strip() for t in line.split("=", 1))
        expect[key] = {"true": True, "false": False}.get(value.lower(), value)
    return {"polynomial": sections["polynomial"][0], "G": sections["G"],
            "S": sections["S"], "expect": expect}


# -- seeded polynomials ----------------------------------------------------------------


def block_rows(kind, exps, variables, n):
    """Exponent rows of one chain or loop block on the given variables."""
    m = len(exps)
    rows = []
    for i, p in enumerate(exps):
        row = [0] * n
        row[variables[i]] = p
        if kind == "loop":
            row[variables[(i + 1) % m]] += 1
        elif i + 1 < m:
            row[variables[i + 1]] += 1
        rows.append(row)
    return rows


def format_polynomial(rows):
    terms = []
    for row in rows:
        factors = ["x%d" % (j + 1) if e == 1 else "x%d^%d" % (j + 1, e)
                   for j, e in enumerate(row) if e]
        terms.append("*".join(factors))
    return "+".join(terms)


def cycles_text(perm):
    """1-based cycle notation of a permutation tuple, ``()`` for the identity."""
    seen = set()
    out = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc = []
        j = i
        while j not in seen:
            seen.add(j)
            cyc.append(j + 1)
            j = perm[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


class Template:
    """Block structure plus symmetry generators, before the seed is applied.

    ``blocks`` lists (kind, exponents, copies).  ``symmetries`` are recipes
    over the block copies:
    ``(b, perm)`` sends copy i of block b to copy perm[i] (copies past the
    end of perm stay), and ``(b, "rotate")`` turns every copy of the loop
    block b by one step (its exponents must then be all equal).
    """

    def __init__(self, blocks, symmetries):
        self.blocks = blocks
        self.symmetries = symmetries

    def instantiate(self, rng):
        n = sum(len(exps) * copies for _kind, exps, copies in self.blocks)
        labels = list(range(n))
        rng.shuffle(labels)
        rows = []
        placed = []          # per block: list of variable tuples, one per copy
        pos = 0
        for kind, exps, copies in self.blocks:
            copies_vars = []
            for _ in range(copies):
                vs = tuple(labels[pos:pos + len(exps)])
                pos += len(exps)
                rows += block_rows(kind, exps, vs, n)
                copies_vars.append(vs)
            placed.append(copies_vars)
        gens = []
        for b, recipe in self.symmetries:
            perm = list(range(n))
            copies_vars = placed[b]
            if recipe == "rotate":
                for vs in copies_vars:
                    for i, u in enumerate(vs):
                        perm[u] = vs[(i + 1) % len(vs)]
            else:
                for c, d in enumerate(recipe):
                    for u, v in zip(copies_vars[c], copies_vars[d]):
                        perm[u] = v
            gens.append(tuple(perm))
        rng.shuffle(rows)
        return format_polynomial(rows), [cycles_text(g) for g in gens]


SWAP = (1, 0)

# Each template: its blocks, then the symmetries generating S.  |G_f x| S|
# stays at a few thousand; chains and three-variable loops make f^T differ
# from f.
GENERATED_TEMPLATES = [
    Template([("chain", (5, 6), 2)], [(0, SWAP)]),
    Template([("chain", (2, 4), 3)], [(0, (1, 2, 0))]),
    Template([("chain", (2, 4), 3)], [(0, (1, 2, 0)), (0, SWAP)]),
    Template([("chain", (3, 3, 4), 2)], [(0, SWAP)]),
    Template([("loop", (3, 3, 3), 2)], [(0, "rotate")]),
    Template([("loop", (3, 3, 3), 2)], [(0, SWAP)]),
    Template([("loop", (3, 3, 3), 2)], [(0, "rotate"), (0, SWAP)]),
    Template([("loop", (2, 3, 4), 2)], [(0, SWAP)]),
    Template([("chain", (3, 3), 2), ("chain", (5,), 1)], [(0, SWAP)]),
    Template([("chain", (3, 5), 1), ("chain", (7,), 2)], [(1, SWAP)]),
    Template([("chain", (3,), 4), ("chain", (2, 3), 1)], [(0, (1, 2, 3, 0))]),
    Template([("chain", (9,), 3)], [(0, (1, 2, 0))]),
    Template([("chain", (7,), 3)], [(0, (1, 2, 0)), (0, SWAP)]),
    Template([("loop", (5, 5), 2)], [(0, "rotate")]),
    Template([("loop", (3, 3), 3)], [(0, "rotate")]),
]


def generated_inputs(seed, copies=1):
    """``copies`` seeded variants of every generated template."""
    rng = random.Random(seed)
    out = []
    for t, template in enumerate(GENERATED_TEMPLATES):
        for c in range(copies):
            poly, s_lines = template.instantiate(rng)
            out.append(Input("gen%02d_%d" % (t, c), poly, s_lines))
    return out


# -- mirror inputs -------------------------------------------------------------------


# (template, [G_f : G], number of G lines).  The seed draws the random
# element until G has this index and this many generator lines, so the work of
# every mirror input is the same for every seed.
MIRROR_TEMPLATES = [
    (Template([("chain", (9,), 5)], [(0, (1, 2, 3, 4, 0)), (0, SWAP)]), 1, 5),
    (Template([("chain", (6,), 6)], [(0, (1, 2, 3, 4, 5, 0)), (0, (1, 0, 3, 2))]), 3, 7),
    (Template([("chain", (5, 8), 3)], [(0, (1, 2, 0)), (0, SWAP)]), 4, 3),
    (Template([("chain", (3, 10, 10), 2)], [(0, SWAP)]), 6, 2),
    (Template([("loop", (6, 6), 3)], [(0, "rotate"), (0, (1, 2, 0))]), 7, 4),
    (Template([("loop", (5, 5), 2), ("chain", (5,), 3)], [(0, SWAP), (1, (1, 2, 0))]), 8, 3),
    (Template([("chain", (4, 6), 2), ("chain", (7,), 2)], [(0, SWAP), (1, SWAP)]), 3, 2),
]


def mirror_inputs(root, seed, copies=1):
    """The Table 1 rows, then ``copies`` seeded (f, G, S) per mirror template.

    G is generated by J and the S-orbit of a random element g of G_f.  The
    generator lines keep J and those orbit elements that enlarge the group,
    found with exact lattice arithmetic.  The template's variant and g are
    redrawn until G has the template's index and line count.
    """
    rng = random.Random(seed)
    out = table1_inputs(root)
    for t, c in ((t, c) for t in range(len(MIRROR_TEMPLATES)) for c in range(copies)):
        template, index, nlines = MIRROR_TEMPLATES[t]
        for _attempt in range(1000):
            poly, s_lines = template.instantiate(rng)
            rows = checks.anchored_rows(checks.parse_polynomial(poly))
            n = len(rows)
            group = sorted(checks.closure(checks.parse_perm_lines(s_lines, n), n))
            # G_f = E^-1 Z^n / Z^n; with d = |det E| its elements are adj-images / d
            d = abs(checks.det(rows))
            adj = [[int(q * d) for q in row] for row in checks.inverse(rows)]
            j = [sum(row) % d for row in adj]
            found = None
            for _draw in range(20):
                coords = [rng.randrange(d) for _ in range(n)]
                g = [sum(a * x for a, x in zip(row, coords)) % d for row in adj]
                gens, order = orbit_generators(d, j, g, group, nlines)
                if len(gens) == nlines and order * index == d:
                    found = gens
                    break
            if found:
                break
        else:
            raise RuntimeError("no element of the wanted kind for mirror template %d" % t)
        g_lines = ["J"] + [format_element(v, d) for v in found[1:]]
        out.append(Input("mirror%02d_%d" % (t, c), poly, s_lines, g_lines))
    return out


def orbit_generators(d, j, g, group, most):
    """J, then each element of the orbit of g that enlarges the group so far.

    Elements are integer vectors over the common denominator d.  Stops once
    there are more than ``most`` generators.
    """
    gens = [j]
    lattice = checks.Lattice(len(j), d).add(j)
    for s in group:
        image = checks.perm_act(s, g)
        bigger = lattice.copy().add(image)
        if bigger.order() > lattice.order():
            gens.append(image)
            lattice = bigger
            if len(gens) > most:
                break
    return gens, lattice.order()


def format_element(vector, d):
    """Fixture notation 1/m(a1,...,an) of the element vector / d."""
    g = gcd(d, *vector)
    return "1/%d(%s)" % (d // g, ",".join(str(a // g) for a in vector))
