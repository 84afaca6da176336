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

from .errors import DegenerateLoopError, NotInvariantError, NotInvertibleError, ParseError
from .intmat import determinant, solve_exact
from .permgroups import cycle_notation, orbits as perm_orbits

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
    for p in perms.generators:
        if {p[j] for j in inside} != inside:
            raise NotInvariantError("group does not preserve the subset")
    if _non_symmetry(base.variables, base.monomials, perms) is not None:
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


def _non_symmetry(variables, monomials, perms):
    """A generator that moves the monomial -> coefficient table, or None.

    Exponent vectors are over ``variables``, a set the generators preserve.
    """
    pos_of = {v: k for k, v in enumerate(variables)}
    table = dict(monomials)
    for p in perms.generators:
        for mono, coeff in table.items():
            moved = [0] * len(mono)
            for pos, e in enumerate(mono):
                moved[pos_of[p[variables[pos]]]] = e
            if table.get(tuple(moved)) != coeff:
                return p
    return None


# -- permutation symmetries ------------------------------------------------------


def check_invariance(matrix, group):
    """Verify that the permutation group preserves f.

    Checks the degree, validates the chain/loop structure and checks that
    every generator maps the monomial -> coefficient table to itself, which
    is all the theorem asks of S.  Nothing more can go wrong for a valid f:
    a permutation preserving f maps blocks (link-graph components) onto
    blocks, fixes a chain it maps to itself pointwise (its one pure power
    first, then each link), and reverses a loop of length >= 3 only when all
    its exponents are 1, which validation rejects as DegenerateLoopError.
    Raises NotInvariantError for a non-symmetry.
    """
    if group.n != matrix.n:
        raise NotInvariantError("group degree %d != variable count %d"
                                % (group.n, matrix.n))
    matrix.validate()
    p = _non_symmetry(range(matrix.n), zip(matrix.rows, matrix.coefficients), group)
    if p is not None:
        raise NotInvariantError(
            "permutation %s does not preserve the polynomial" % cycle_notation(p))
