"""Invertible polynomials: parsing, chain/loop validation, transposes, restrictions.

A polynomial is stored as its exponent matrix: one row per monomial, one
column per variable, plus a rational coefficient per row.  Variable indices
are 0-based everywhere in the API; the text grammar uses the 1-based names
``x1, x2, ...``.

The text grammar: monomials joined by ``+``; a monomial is an optional
rational coefficient followed by ``*`` and one or more factors ``xK`` or
``xK^P`` joined by ``*``.  Whitespace is ignored.
"""

import logging
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateLoopError,
    FlipSymmetryError,
    NotInvariantError,
    NotInvertibleError,
    ParseError,
)
from .intmat import determinant, solve_exact
from .permgroups import orbits as perm_orbits

log = logging.getLogger("bhht")

CHAIN = "chain"
LOOP = "loop"


@dataclass(frozen=True)
class AtomicBlock:
    """One atomic summand of an invertible polynomial.

    ``variables`` lists the 0-based variable indices in block order: for a
    chain the monomials are v0^p0*v1 + v1^p1*v2 + ... + v(m-1)^p(m-1); for a
    loop the last monomial is v(m-1)^p(m-1)*v0.
    """

    kind: str
    variables: tuple
    exponents: tuple

    @property
    def length(self):
        return len(self.variables)


class ExponentMatrix:
    """Exponent matrix of a polynomial, with per-monomial coefficients."""

    def __init__(self, rows, coefficients=None, nvars=None):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged exponent rows")
        else:
            width = 0 if nvars is None else nvars
        if nvars is not None and rows and nvars != width:
            raise ValueError("nvars does not match row width")
        if any(e < 0 for row in rows for e in row):
            raise ValueError("negative exponent")
        if coefficients is None:
            coefficients = (Fraction(1),) * len(rows)
        coefficients = tuple(Fraction(c) for c in coefficients)
        if len(coefficients) != len(rows):
            raise ValueError("coefficient count does not match monomial count")
        if any(c == 0 for c in coefficients):
            raise ValueError("zero coefficient")
        self.rows = rows
        self.coefficients = coefficients
        self.n = width
        self._blocks = None
        self._anchors = None

    @property
    def nmonomials(self):
        return len(self.rows)

    @property
    def is_square(self):
        return self.nmonomials == self.n

    def _key(self):
        return (self.n, tuple(sorted(zip(self.rows, self.coefficients), reverse=True)))

    def __eq__(self, other):
        return isinstance(other, ExponentMatrix) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ExponentMatrix(%s)" % serialize_polynomial(self)

    def determinant(self):
        if not self.is_square:
            raise ValueError("determinant of a non-square exponent matrix")
        return determinant([list(r) for r in self.rows])

    # -- chain/loop structure ------------------------------------------------

    def validate(self):
        """Chain/loop decomposition; raises if the polynomial is not invertible."""
        if self._blocks is None:
            blocks, anchors = _decompose(self)
            self._blocks = blocks
            self._anchors = anchors
        return self._blocks

    def anchors(self):
        """Map row index -> anchor variable (the variable the monomial is based at)."""
        self.validate()
        return self._anchors

    def anchored(self):
        """Rows permuted so that row i is the monomial anchored at variable i."""
        anchors = self.anchors()
        order = sorted(range(self.nmonomials), key=lambda r: anchors[r])
        out = ExponentMatrix([self.rows[r] for r in order],
                             [self.coefficients[r] for r in order])
        out.validate()
        return out


def parse_polynomial(text):
    """Parse the fixture polynomial grammar into an ExponentMatrix."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise ParseError("empty polynomial")
    rows = []
    coeffs = []
    maxvar = 0
    pos = 0
    for term in stripped.split("+"):
        if not term:
            raise ParseError("empty monomial", pos)
        coeff, factors = _split_term(term, pos)
        expo = {}
        for var, power in factors:
            expo[var] = expo.get(var, 0) + power
            maxvar = max(maxvar, var + 1)
        rows.append(expo)
        coeffs.append(coeff)
        pos += len(term) + 1
    dense = [tuple(r.get(j, 0) for j in range(maxvar)) for r in rows]
    seen = {}
    for i, row in enumerate(dense):
        if row in seen:
            raise ParseError("repeated monomial x-exponents %s" % (row,))
        seen[row] = i
    used = {j for row in dense for j, e in enumerate(row) if e}
    missing = sorted(set(range(maxvar)) - used)
    if missing:
        raise ParseError("variable x%d never used (indices must be contiguous)"
                         % (missing[0] + 1))
    return ExponentMatrix(dense, coeffs)


_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"-?\d+(?:/\d+)?$")


def _split_term(term, pos):
    parts = term.split("*")
    coeff = Fraction(1)
    if _COEFF_RE.match(parts[0]):
        try:
            coeff = Fraction(parts[0])
        except ZeroDivisionError as exc:
            raise ParseError("zero denominator in %r" % parts[0], pos) from exc
        if coeff == 0:
            raise ParseError("zero coefficient", pos)
        parts = parts[1:]
        if not parts:
            raise ParseError("monomial with no variables", pos)
    factors = []
    for p in parts:
        m = _FACTOR_RE.match(p)
        if not m:
            raise ParseError("bad factor %r" % p, pos)
        var = int(m.group(1))
        if var == 0:
            raise ParseError("variables are numbered from x1", pos)
        power = int(m.group(2)) if m.group(2) else 1
        if power == 0:
            raise ParseError("zero exponent in %r" % p, pos)
        factors.append((var - 1, power))
    return coeff, factors


def serialize_polynomial(matrix):
    """Canonical text form: monomials in descending lexicographic order."""
    items = sorted(zip(matrix.rows, matrix.coefficients), reverse=True)
    terms = []
    for row, coeff in items:
        factors = []
        for j, e in enumerate(row):
            if e == 1:
                factors.append("x%d" % (j + 1))
            elif e > 1:
                factors.append("x%d^%d" % (j + 1, e))
        body = "*".join(factors) if factors else "1"
        if coeff != 1:
            body = "%s*%s" % (coeff, body)
        terms.append(body)
    return "+".join(terms)


# -- validation ----------------------------------------------------------------


def _decompose(matrix):
    """Find the chain/loop block structure, or raise.

    Returns (blocks, anchors) where anchors maps row index -> the variable
    the monomial is anchored at (x_a^p or x_a^p * x_next).
    """
    if not matrix.is_square:
        raise NotInvertibleError(
            "%d monomials in %d variables" % (matrix.nmonomials, matrix.n))
    n = matrix.n
    if n == 0:
        return (), {}
    if len(set(matrix.rows)) != matrix.nmonomials:
        raise NotInvertibleError("repeated monomial (determinant is zero)")
    supports = []
    for i, row in enumerate(matrix.rows):
        sup = {j: e for j, e in enumerate(row) if e}
        if not 1 <= len(sup) <= 2:
            raise NotInvertibleError(
                "monomial %d involves %d variables" % (i, len(sup)))
        supports.append(sup)

    # candidate (anchor, successor) orientations for every row
    candidates = []
    for i, sup in enumerate(supports):
        if len(sup) == 1:
            (a, _p), = sup.items()
            candidates.append([(a, None)])
        else:
            (a, pa), (b, pb) = sorted(sup.items())
            opts = []
            if pb == 1:
                opts.append((a, b))
            if pa == 1:
                opts.append((b, a))
            if not opts:
                raise NotInvertibleError(
                    "monomial %d has no unit factor linking the block" % i)
            candidates.append(opts)

    assignment = _assign_anchors(candidates, n)
    if assignment is None:
        raise NotInvertibleError("no consistent chain/loop orientation exists")

    anchors = {i: a for i, (a, _nxt) in enumerate(assignment)}
    succ = {a: nxt for a, nxt in assignment}
    row_of = {a: i for i, (a, _nxt) in enumerate(assignment)}
    pred = {}
    for a, nxt in succ.items():
        if nxt is not None:
            if nxt in pred:
                raise NotInvertibleError(
                    "variable x%d is linked from two monomials" % (nxt + 1))
            pred[nxt] = a

    blocks = []
    seen = set()
    # chains start at variables with no predecessor
    for start in range(n):
        if start in pred or start in seen:
            continue
        chain = [start]
        seen.add(start)
        while succ[chain[-1]] is not None:
            nxt = succ[chain[-1]]
            if nxt in seen:
                raise NotInvertibleError("chain runs into a loop")
            chain.append(nxt)
            seen.add(nxt)
        exps = tuple(matrix.rows[row_of[a]][a] for a in chain)
        blocks.append(AtomicBlock(CHAIN, tuple(chain), exps))
    # what is left are loops
    for start in range(n):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = succ[start]
        while cur != start:
            if cur is None or cur in seen:
                raise NotInvertibleError("broken loop structure")
            cycle.append(cur)
            seen.add(cur)
            cur = succ[cur]
        least = cycle.index(min(cycle))
        cycle = cycle[least:] + cycle[:least]
        exps = tuple(matrix.rows[row_of[a]][a] for a in cycle)
        if all(p == 1 for p in exps):
            raise DegenerateLoopError(
                "loop on variables %s has all exponents 1 (degenerate or A1; "
                "also the only case admitting flip symmetries, which are excluded)"
                % ([v + 1 for v in cycle],))
        blocks.append(AtomicBlock(LOOP, tuple(cycle), exps))
    blocks.sort(key=lambda b: b.variables)
    return tuple(blocks), anchors


def _assign_anchors(candidates, n):
    """Pick one orientation per row so anchors are a bijection onto variables."""
    order = sorted(range(len(candidates)), key=lambda i: len(candidates[i]))
    used = [False] * n

    def go(k):
        if k == len(order):
            return []
        i = order[k]
        for a, nxt in candidates[i]:
            if used[a]:
                continue
            used[a] = True
            rest = go(k + 1)
            if rest is not None:
                rest.append((i, (a, nxt)))
                return rest
            used[a] = False
        return None

    picked = go(0)
    if picked is None:
        return None
    by_row = dict(picked)
    return [by_row[i] for i in range(len(candidates))]


def validate_invertible(matrix):
    """Chain/loop decomposition of a square exponent matrix; raises if none exists."""
    return matrix.validate()


# -- basic operations -----------------------------------------------------------


def transpose(matrix):
    """Dual polynomial: transpose of the anchored exponent matrix.

    Rows are aligned with their anchor variables first, so the transpose is
    invariant under the same variable permutations as the original and the
    operation is an involution.  Coefficients are reset to 1.
    """
    anchored = matrix.anchored()
    rows = tuple(zip(*anchored.rows))
    out = ExponentMatrix(rows)
    out.validate()
    return out


def weights(matrix):
    """Rational weights q with E @ q = (1, ..., 1)."""
    if not matrix.is_square:
        raise ValueError("weights need a square exponent matrix")
    if matrix.determinant() == 0:
        raise ValueError("singular exponent matrix")
    return tuple(solve_exact([list(r) for r in matrix.rows], [1] * matrix.n))


@dataclass(frozen=True)
class RestrictedPolynomial:
    """A polynomial restricted to a coordinate subspace (and maybe a fixed space).

    ``variables`` are the remaining coordinates: plain 0-based indices for a
    restriction, orbit tuples for a diagonal restriction.  ``monomials`` hold
    (exponent vector over those coordinates, coefficient), sorted descending.
    ``full`` means the monomial count equals the coordinate count.
    """

    variables: tuple
    monomials: tuple
    full: bool

    @property
    def nvars(self):
        return len(self.variables)

    def matrix(self):
        if not self.full:
            raise ValueError("restriction is not full")
        return ExponentMatrix([m for m, _c in self.monomials],
                              [c for _m, c in self.monomials],
                              nvars=self.nvars)

    def determinant(self):
        if not self.full:
            raise ValueError("restriction is not full")
        return determinant([list(m) for m, _c in self.monomials])


def restrict(matrix, subset):
    """Keep the monomials supported inside ``subset`` (0-based indices)."""
    subset = sorted(set(subset))
    if any(j < 0 or j >= matrix.n for j in subset):
        raise ValueError("subset out of range")
    inside = set(subset)
    monos = []
    for row, coeff in zip(matrix.rows, matrix.coefficients):
        if all(e == 0 or j in inside for j, e in enumerate(row)):
            monos.append((tuple(row[j] for j in subset), coeff))
    monos.sort(reverse=True)
    return RestrictedPolynomial(tuple(subset), tuple(monos),
                                full=len(monos) == len(subset))


def diagonal_restrict(matrix, subset, perms):
    """Identify the variables of f^I along the orbits of a permutation group.

    ``perms`` is a PermGroup acting on all n variables; it must preserve the
    subset and f^I.  Monomials whose
    exponent vectors become equal are merged by summing coefficients.
    """
    base = restrict(matrix, subset)
    subset = base.variables
    inside = set(subset)
    for p in perms.elements:
        if {p[j] for j in inside} != inside:
            raise NotInvariantError("group does not preserve the subset")
    if not _preserves_monomials(base, perms):
        raise NotInvariantError("group does not preserve the restricted polynomial")
    orbits = perm_orbits(perms, subset)
    column = {v: k for k, orb in enumerate(orbits) for v in orb}
    merged = {}
    for mono, coeff in base.monomials:
        folded = [0] * len(orbits)
        for pos, e in enumerate(mono):
            folded[column[subset[pos]]] += e
        key = tuple(folded)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    monos = tuple(sorted(((m, c) for m, c in merged.items() if c != 0), reverse=True))
    result = RestrictedPolynomial(tuple(orbits), monos,
                                  full=len(monos) == len(orbits))
    if result.full and result.nvars:
        _flag_nonatomic(result)
    return result


def _flag_nonatomic(result):
    try:
        result.matrix().validate()
    except (NotInvertibleError, DegenerateLoopError) as exc:
        log.warning("diagonal restriction %s is full but not chain/loop: %s",
                    result.variables, exc)


def _preserves_monomials(base, perms):
    pos_of = {v: k for k, v in enumerate(base.variables)}
    table = {mono: coeff for mono, coeff in base.monomials}
    for p in perms.elements:
        for mono, coeff in base.monomials:
            moved = [0] * len(mono)
            for pos, e in enumerate(mono):
                moved[pos_of[p[base.variables[pos]]]] = e
            if table.get(tuple(moved)) != coeff:
                return False
    return True


# -- permutation symmetries ------------------------------------------------------


@dataclass(frozen=True)
class BlockOrbit:
    """One orbit of atomic blocks under the symmetry group."""

    blocks: tuple          # indices into the validated block list
    kind: str              # "first" or "second"
    period: int | None     # rotation period l for second type (shifts are multiples)
    turns: int | None      # k = block length / l


@dataclass(frozen=True)
class BlockActionReport:
    blocks: tuple
    orbits: tuple


def check_invariance(matrix, group):
    """Verify f is group-invariant and classify the action on blocks.

    Raises NotInvariantError if some element moves the monomial set, and
    FlipSymmetryError if a loop is mapped onto itself orientation-reversed.
    """
    if group.n != matrix.n:
        raise NotInvariantError("group degree %d != variable count %d"
                                % (group.n, matrix.n))
    blocks = matrix.validate()
    table = {}
    for row, coeff in zip(matrix.rows, matrix.coefficients):
        table[row] = coeff
    var_block = {}
    for bi, b in enumerate(blocks):
        for v in b.variables:
            var_block[v] = bi

    moved = {}
    for p in group.elements:
        _induced_row_map(matrix, table, p)  # every element, not only generators
        for bi, b in enumerate(blocks):
            image = {p[v] for v in b.variables}
            ti = var_block[min(image)]
            if image != set(blocks[ti].variables):
                raise NotInvariantError("block image is not a block")
            moved.setdefault(bi, set()).add(ti)

    orbit_sets = _merge_orbits(moved, len(blocks))
    orbits = []
    for orb in orbit_sets:
        shifts = set()
        for bi in orb:
            shifts |= {s for (kind, s) in _self_maps(blocks, bi, group)
                       if kind == "rot" and s}
        if not shifts:
            orbits.append(BlockOrbit(tuple(sorted(orb)), "first", None, None))
            continue
        m = blocks[min(orb)].length
        period = min(_subgroup_of_shifts(shifts, m))
        for bi in orb:
            exps = blocks[bi].exponents
            for i in range(len(exps)):
                assert exps[(i + period) % len(exps)] == exps[i]
        orbits.append(BlockOrbit(tuple(sorted(orb)), "second", period, m // period))
    return BlockActionReport(blocks, tuple(sorted(orbits, key=lambda o: o.blocks)))


def _induced_row_map(matrix, table, p):
    """Check that permuting variables by p maps the polynomial to itself."""
    for row, coeff in zip(matrix.rows, matrix.coefficients):
        moved = [0] * matrix.n
        for j, e in enumerate(row):
            moved[p[j]] = e
        if table.get(tuple(moved)) != coeff:
            raise NotInvariantError(
                "permutation %s does not preserve the polynomial" % (p,))


def _self_maps(blocks, bi, group):
    """Rotation shifts realised on block bi; raises on flips."""
    b = blocks[bi]
    vs = b.variables
    m = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    out = set()
    for p in group.elements:
        if {p[v] for v in vs} != set(vs):
            continue
        images = [pos[p[vs[i]]] for i in range(m)]
        shift = images[0]
        if all(images[i] == (i + shift) % m for i in range(m)):
            if b.kind == CHAIN and shift != 0:
                raise NotInvariantError("a chain is permuted non-trivially")
            out.add(("rot", shift))
        elif b.kind == LOOP and all(images[i] == (shift - i) % m for i in range(m)):
            raise FlipSymmetryError(
                "loop on variables %s is flipped" % ([v + 1 for v in vs],))
        else:
            raise NotInvariantError("unexpected self-map of a block")
    return out


def _subgroup_of_shifts(shifts, m):
    from math import gcd
    g = m
    for s in shifts:
        g = gcd(g, s)
    return {g} if g else {m}


def _merge_orbits(moved, nblocks):
    parent = list(range(nblocks))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, targets in moved.items():
        for b in targets:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for i in range(nblocks):
        groups.setdefault(find(i), set()).add(i)
    return sorted(groups.values(), key=min)
