"""Output checks made apart from the program under test.

Nothing here imports ``bhht``: polynomials, permutations and diagonal
symmetries are re-derived with plain integers and Fractions, and each check
takes the program's outputs as plain data.  Every check returns a list of
failure messages; an empty list means the output passed.
"""

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod

# Named permutation groups of the fixture grammar.
NAMED_GROUPS = {
    "A3": ["(123)"],
    "A4": ["(123)", "(12)(34)"],
    "A5": ["(12345)", "(123)"],
    "D10": ["(12345)", "(14)(23)"],
    "Z2x2": ["(12)(34)", "(13)(24)"],
}

_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")
_ELEMENT = re.compile(r"1/(\d+)\((-?\d+(?:,-?\d+)*)\)$")


# -- polynomials ---------------------------------------------------------------------


def parse_polynomial(text):
    """Exponent rows of a polynomial with unit coefficients, in text order."""
    terms = []
    for term in re.sub(r"\s+", "", text).split("+"):
        expo = {}
        for factor in term.split("*"):
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError("bad factor %r" % factor)
            expo[int(m.group(1)) - 1] = int(m.group(2) or 1)
        terms.append(expo)
    n = 1 + max(v for t in terms for v in t)
    return [[t.get(j, 0) for j in range(n)] for t in terms]


def anchored_rows(rows):
    """Rows reordered so that row i carries the exponent of variable i.

    Every monomial here is x_a^p or x_a^p * x_b with p >= 2, so the anchor is
    the single variable whose exponent is at least 2.
    """
    n = len(rows)
    out = [None] * n
    for row in rows:
        big = [j for j, e in enumerate(row) if e >= 2]
        if len(big) != 1 or out[big[0]] is not None:
            raise ValueError("cannot anchor monomial %s" % (row,))
        out[big[0]] = list(row)
    return out


def transpose_rows(rows):
    """Exponent rows of f^T from the anchored rows of f."""
    return [list(col) for col in zip(*rows)]


def det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(out)


def inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def weights(rows):
    """Weights q with E q = (1, ..., 1), taken mod 1: the element J."""
    inv = inverse(rows)
    return tuple(sum(row) % 1 for row in inv)


def raw_weights(rows):
    return tuple(sum(row) for row in inverse(rows))


def milnor_euler(rows):
    """Euler characteristic of the Milnor fibre: 1 + (-1)^(n-1) prod(1/q_i - 1)."""
    n = len(rows)
    return 1 + (-1) ** (n - 1) * prod(1 / q - 1 for q in raw_weights(rows))


# -- permutations ----------------------------------------------------------------------


def parse_perm_lines(lines, n):
    out = []
    for line in lines:
        line = line.strip()
        if line in NAMED_GROUPS:
            out += [parse_perm(t, n) for t in NAMED_GROUPS[line]]
        else:
            out.append(parse_perm(line, n))
    return out


def parse_perm(text, n):
    """1-based cycle notation, e.g. ``(12)(34)`` or ``(1 10 3)``."""
    if text.strip() in NAMED_GROUPS:
        raise ValueError("named group %s has several generators" % text)
    images = list(range(n))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        pts = cyc.replace(",", " ").split() if (" " in cyc or "," in cyc) else list(cyc)
        pts = [int(p) - 1 for p in pts]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def closure(gens, n):
    ident = tuple(range(n))
    els = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(n))
                if q not in els:
                    els.add(q)
                    nxt.append(q)
        frontier = nxt
    return els


def perm_act(perm, vector):
    out = [0] * len(vector)
    for i, j in enumerate(perm):
        out[j] = vector[i]
    return tuple(out)


def orbit_count(gens, n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i in range(n):
            a, b = find(i), find(g[i])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(n)})


# -- diagonal groups -----------------------------------------------------------------


class Lattice:
    """A subgroup of (Q/Z)^n with denominators dividing d, kept as a lattice.

    The subgroup is L / Z^n for the lattice L spanned by Z^n and the added
    vectors; d L is kept as an upper triangular basis of integer rows that
    starts as d I, so the order of the subgroup is d^n / det(d L).  Entries
    are reduced mod d, which d I allows.
    """

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.basis = [[d * int(i == j) for j in range(n)] for i in range(n)]

    def copy(self):
        other = Lattice(self.n, self.d)
        other.basis = [list(r) for r in self.basis]
        return other

    def add(self, vector):
        """Add the element vector / d, given by the integer vector."""
        d = self.d
        v = [a % d for a in vector]
        for c in range(self.n):
            if v[c] == 0:
                continue
            p = self.basis[c]
            g, x, y = _egcd(p[c], v[c])
            a, b = p[c] // g, v[c] // g
            self.basis[c] = [(x * pi + y * vi) % d if j > c else x * pi + y * vi
                             for j, (pi, vi) in enumerate(zip(p, v))]
            v = [(b * pi - a * vi) % d for pi, vi in zip(p, v)]
        return self

    def order(self):
        return self.d ** self.n // prod(self.basis[c][c] for c in range(self.n))


def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def subgroup_order(gens):
    """Order of the subgroup of (Q/Z)^n generated by rational vectors."""
    if not gens:
        return 1
    d = lcm(1, *(Fraction(q).denominator for g in gens for q in g))
    lattice = Lattice(len(gens[0]), d)
    for g in gens:
        lattice.add([int(Fraction(q) * d) for q in g])
    return lattice.order()


def contains(gens, vector):
    return subgroup_order(list(gens) + [vector]) == subgroup_order(list(gens))


def parse_element(text):
    m = _ELEMENT.match(text.replace(" ", ""))
    if not m:
        raise ValueError("bad group element %r" % text)
    denom = int(m.group(1))
    return tuple(Fraction(int(a), denom) % 1 for a in m.group(2).split(","))


def group_generators(lines, rows):
    """Generators of the G named by fixture lines over the matrix ``rows``."""
    if lines in ([], ["full"]):
        inv = inverse(rows)
        n = len(rows)
        return [tuple(inv[i][j] % 1 for i in range(n)) for j in range(n)]
    return [weights(rows) if line == "J" else parse_element(line) for line in lines]


def is_integral(q):
    return Fraction(q).denominator == 1


# -- checks ----------------------------------------------------------------------------


def check_milnor_orlik(rows, s_order, terms):
    """Sum_K c_K [G x| S : K] equals the Euler characteristic of the Milnor fibre.

    ``rows`` are the exponent rows of the analysed polynomial, ``terms`` the
    (coefficient, |H|, |T|) triples of its unreduced equivariant invariant.
    """
    ambient = abs(det(rows)) * s_order
    total = sum(Fraction(c * ambient, h * t) for c, h, t in terms)
    expected = milnor_euler(rows)
    if total != expected:
        return ["Milnor-Orlik: classes sum to %s, expected %s" % (total, expected)]
    return []


def check_verdict(expect, pc, equal):
    out = []
    if "pc" in expect and expect["pc"] != pc:
        out.append("pc = %s, fixture expects %s" % (pc, expect["pc"]))
    if "duality_equal" in expect and expect["duality_equal"] != equal:
        out.append("duality_equal = %s, fixture expects %s"
                   % (equal, expect["duality_equal"]))
    return out


def check_theorem(pc, equal):
    """The paper's theorem: the parity condition implies the duality."""
    return ["parity condition holds but the duality fails"] if pc and not equal else []


def check_parity(n, s_gens, pc, witness_gens):
    """PC false needs a witness of the wrong parity inside S; PC true must
    hold for every subgroup of S generated by at most two elements."""
    group = closure(s_gens, n)
    if not pc:
        if witness_gens is None:
            return ["parity condition fails without a witness"]
        if any(tuple(g) not in group for g in witness_gens):
            return ["witness is not a subgroup of S"]
        if (orbit_count(witness_gens, n) - n) % 2 == 0:
            return ["witness has the right parity"]
        return []
    for a, b in combinations_with_replacement(sorted(group), 2):
        if (orbit_count((a, b), n) - n) % 2:
            return ["parity condition claimed, but <%s, %s> violates it" % (a, b)]
    return []


def check_lemmas(pc, passed):
    """Every lemma-level check passes when the parity condition holds."""
    if pc and not passed:
        return ["parity condition holds but no lemma check ran"]
    if pc and not all(passed):
        return ["%d lemma check(s) failed" % sum(not p for p in passed)]
    return []


def check_mirror(rows, g_lines, s_lines, dual_text, dual_order):
    """The emitted dual fixture against Takahashi's construction.

    ``rows`` are the anchored exponent rows of f, ``g_lines`` and ``s_lines``
    the input's G and S, ``dual_text`` the emitted fixture and ``dual_order``
    the size of the dual group the program returned.
    """
    n = len(rows)
    sections = _sections(dual_text)
    out = []
    rows_t = transpose_rows(rows)
    emitted = parse_polynomial(sections["polynomial"][0])
    if sorted(map(tuple, emitted)) != sorted(map(tuple, rows_t)):
        out.append("emitted polynomial is not f^T")
    if sections["S"] != list(s_lines):
        out.append("emitted S lines differ from the input")
    g = group_generators(g_lines, rows)
    gt = group_generators(sections["G"], rows_t)
    for w in gt:
        if not all(is_integral(sum(e * x for e, x in zip(r, w))) for r in rows_t):
            out.append("dual generator %s is not a symmetry of f^T" % (w,))
            return out
    g_order, gt_order = subgroup_order(g), subgroup_order(gt)
    if g_order * gt_order != abs(det(rows)):
        out.append("|G| |G^T| = %d * %d != |det E| = %d"
                   % (g_order, gt_order, abs(det(rows))))
    if gt_order != dual_order:
        out.append("dual group has %d elements, its generators give %d"
                   % (dual_order, gt_order))
    # <v, w> = w . (E v) mod 1; integral on generators means each group lies in
    # the annihilator of the other, and with the orders above they are equal.
    for v in g:
        ev = [sum(e * x for e, x in zip(r, v)) for r in rows]
        if not all(is_integral(sum(a * b for a, b in zip(ev, w))) for w in gt):
            out.append("G^T does not annihilate G")
            break
    j_in_g = contains(g, weights(rows))
    gt_in_sl = all(is_integral(sum(w)) for w in gt)
    if j_in_g != gt_in_sl:
        out.append("J in G is %s but G^T in SL_n is %s" % (j_in_g, gt_in_sl))
    g_in_sl = all(is_integral(sum(v)) for v in g)
    jt_in_gt = contains(gt, weights(rows_t))
    if g_in_sl != jt_in_gt:
        out.append("G in SL_n is %s but J^T in G^T is %s" % (g_in_sl, jt_in_gt))
    for s in parse_perm_lines(s_lines, n):
        if not all(contains(gt, perm_act(s, w)) for w in gt):
            out.append("G^T is not S-invariant")
            break
    return out


def _sections(text):
    sections = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif line and current:
            sections[current].append(line)
    sections.setdefault("S", [])
    return sections
