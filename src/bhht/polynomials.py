"""Invertible polynomials: parsing, chain/loop validation, transposes, symmetries.

A polynomial is stored as its exponent matrix: one row per monomial, one
column per variable, plus a rational coefficient per row.  Variable indices
are 0-based everywhere in the API; the text grammar uses the 1-based names
``x1, x2, ...``.

The text grammar: monomials joined by ``+``; a monomial is an optional
rational coefficient followed by ``*`` and one or more factors ``xK`` or
``xK^P`` joined by ``*``.  Whitespace is ignored.

Memos: an ``ExponentMatrix`` keeps its blocks, anchors, successors,
anchored copy, sort key, ``coefficient_ids``, ``transpose`` and one
``fold_order`` per orbit partition.
"""

import re
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import DegenerateLoopError, NotInvariantError, NotInvertibleError, ParseError
from .permgroups import cycle_notation

CHAIN = "chain"
LOOP = "loop"


class AtomicBlock(namedtuple("AtomicBlock", "kind variables exponents")):
    """One atomic summand of an invertible polynomial.

    ``variables`` lists the 0-based variable indices in block order: for a
    chain the monomials are v0^p0*v1 + v1^p1*v2 + ... + v(m-1)^p(m-1); for a
    loop the last monomial is v(m-1)^p(m-1)*v0.
    """

    __slots__ = ()

    @property
    def order(self):
        """d_B, the determinant of the block's anchored rows and the order of
        its group: prod a for a chain, prod a - (-1)^m for an m-loop, whose
        last monomial adds the m-cycle's term."""
        d = prod(self.exponents)
        return d - (-1) ** len(self.exponents) if self.kind == LOOP else d


class ExponentMatrix:
    """Exponent matrix of a polynomial, with per-monomial coefficients."""

    def __init__(self, rows, coefficients=None):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged exponent rows")
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
        self._folds = {}  # orbits -> ``fold_order``

    # what ``anchored``, ``_key`` and ``transpose`` found, made on first use
    _anchored = _sorted = _transpose = None

    @property
    def nmonomials(self):
        return len(self.rows)

    @property
    def is_square(self):
        return self.nmonomials == self.n

    def _key(self):
        if self._sorted is None:
            self._sorted = (self.n, tuple(sorted(zip(self.rows, self.coefficients),
                                                 reverse=True)))
        return self._sorted

    def __eq__(self, other):
        return other is self or (isinstance(other, ExponentMatrix)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ExponentMatrix(%s)" % serialize_polynomial(self)

    def determinant(self):
        """det E, of a valid matrix: the anchored matrix is E with its rows
        permuted, and with its rows and columns both in block order it is
        block diagonal, so det E is the sign of that row permutation times
        the product of the d_B (``AtomicBlock.order``)."""
        blocks = self.validate()
        anchors = self.anchors()
        swaps = sum(anchors[s] > anchors[r] for r in range(self.n) for s in range(r))
        return (-1) ** swaps * prod(block.order for block in blocks)

    # -- chain/loop structure ------------------------------------------------

    def validate(self):
        """Chain/loop decomposition; raises if the polynomial is not invertible."""
        if self._blocks is None:
            self._blocks, self._anchors, self._successors = _decompose(self)
        return self._blocks

    def anchors(self):
        """Map row index -> anchor variable (the variable the monomial is based at)."""
        self.validate()
        return self._anchors

    def successors(self):
        """Map variable -> the variable its monomial links to, or None for x_a^p."""
        self.validate()
        return self._successors

    def anchored(self):
        """Rows permuted so that row i is the monomial anchored at variable i:
        the matrix itself when every row already is.  The permuted copy takes
        the block structure over, since blocks name variables, not rows.
        Made once per matrix, and the copy is its own."""
        if self._anchored is None:
            anchors = self.anchors()
            order = sorted(range(self.nmonomials), key=anchors.__getitem__)
            out = self
            if order != list(range(self.nmonomials)):
                out = ExponentMatrix([self.rows[r] for r in order],
                                     [self.coefficients[r] for r in order])
                out._blocks, out._successors = self._blocks, self._successors
                out._anchors = {a: a for a in range(self.n)}
                out._anchored = out
            self._anchored = out
        return self._anchored

    @cached_property
    def coefficient_ids(self):
        """Each row's coefficient as the row of its first equal coefficient,
        so that coefficients compare as small integers."""
        first = {}
        return tuple([first.setdefault(c, r) for r, c in enumerate(self.coefficients)])

    def full_subsets(self):
        """Every subset I on which f^I, the monomials supported inside I, is
        full: as many monomials as points.  A monomial involves its anchor
        and its successor and nothing else, so these are the subsets closed
        under successors, which take a suffix of each chain, in block order,
        and all or none of each loop.  As sorted tuples in sorted order."""
        subsets = [()]
        for block in self.validate():
            vs = block.variables
            parts = [vs[k:] for k in range(len(vs) + 1)] if block.kind == CHAIN else [(), vs]
            subsets = [s + part for s in subsets for part in parts]
        return sorted(tuple(sorted(s)) for s in subsets)


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

    Three kinds of block are refused as not invertible, read off their
    exponents, because f or f^T then has a weight outside (0, 1): a chain
    whose last monomial is its variable alone, of weight 1, so that f is
    smooth at 0; a chain of two or more variables that starts with exponent
    1, which f^T ends in its variable alone; and a loop of even length whose
    exponents at every other variable are all 1, which gives those
    variables weight 1 and the others weight 0 in f and in f^T alike.  So
    f^T of a valid f is valid.

    Before the blocks, each monomial is given its anchor, so that the
    anchors are all n variables: x_a^p, and x_a^p*x_b with p >= 2, can
    only take a, and x_a*x_b either end.  One pass, most constrained
    first, makes every choice: a monomial with one anchor still free takes
    it, and else a variable that only one monomial can still anchor goes
    to that monomial.  On chains and loops every step is forced: a chain's
    pure power has one anchor, and once it is taken so has the monomial
    linked into it, back to the chain's start; a loop with an exponent
    p >= 2 unwinds the same way from its x_a^p*x_b.  A choice is left only
    where every monomial left has two free anchors and no variable left a
    single monomial that can take it.  Then either some variable has none,
    and no anchoring exists, or, counting, each has exactly two: what is
    left is cycles of monomials x_a*x_b, all-ones loops, which are refused
    below.  There the first monomial left takes its smaller variable and
    the rest of its cycle follows; either way round completes, so the pass
    finds anchors whenever any exist, and the same ones as trying every
    choice in row order, each monomial's smaller variable first.

    Returns (blocks, anchors, successors): anchors maps row index -> the
    variable the monomial is anchored at (x_a^p or x_a^p * x_next), and
    successors maps that variable -> x_next, or None for x_a^p.
    """
    if not matrix.is_square:
        raise NotInvertibleError(
            "%d monomials in %d variables" % (matrix.nmonomials, matrix.n))
    n = matrix.n
    if n == 0:
        return (), {}, {}
    if len(set(matrix.rows)) != matrix.nmonomials:
        raise NotInvertibleError("repeated monomial (determinant is zero)")
    supports = []
    for i, row in enumerate(matrix.rows):
        sup = {j: e for j, e in enumerate(row) if e}
        if not 1 <= len(sup) <= 2:
            raise NotInvertibleError(
                "monomial %d involves %d variables" % (i, len(sup)))
        supports.append(sup)

    # the (anchor, successor) orientations open to each monomial
    options = []
    for i, sup in enumerate(supports):
        if len(sup) == 1:
            (a, _p), = sup.items()
            options.append([(a, None)])
        else:
            (a, pa), (b, pb) = sorted(sup.items())
            opts = [(a, b)] * (pb == 1) + [(b, a)] * (pa == 1)
            if not opts:
                raise NotInvertibleError(
                    "monomial %d has no unit factor linking the block" % i)
            options.append(opts)

    picked = {}
    taken = set()
    while len(picked) < n:
        free = {i: [o for o in opts if o[0] not in taken]
                for i, opts in enumerate(options) if i not in picked}
        i = min(free, key=lambda i: len(free[i]))
        if not free[i]:
            raise NotInvertibleError("no consistent chain/loop orientation exists")
        pick = free[i][0]
        if len(free[i]) > 1:
            # a variable that only one monomial can still anchor goes to it
            takers = Counter(a for opts in free.values() for a, _b in opts)
            i, pick = next(((j, o) for j, opts in free.items() for o in opts
                            if takers[o[0]] == 1), (i, pick))
        picked[i] = pick
        taken.add(pick[0])
    assignment = [picked[i] for i in range(n)]

    anchors = {i: a for i, (a, _nxt) in enumerate(assignment)}
    succ = {a: nxt for a, nxt in assignment}
    row_of = {a: i for i, (a, _nxt) in enumerate(assignment)}
    linked = set()
    for nxt in succ.values():
        if nxt is not None:
            if nxt in linked:
                raise NotInvertibleError(
                    "variable x%d is linked from two monomials" % (nxt + 1))
            linked.add(nxt)

    # every variable now has at most one predecessor and one successor
    blocks = []
    for kind, block in link_blocks(succ):
        exps = tuple(matrix.rows[row_of[a]][a] for a in block)
        names = [v + 1 for v in block]
        if kind == CHAIN:
            if exps[-1] == 1:
                raise NotInvertibleError(
                    "chain on variables %s ends in x%d alone: f has a linear monomial "
                    "and no singular point at 0" % (names, block[-1] + 1))
            if len(block) > 1 and exps[0] == 1:
                raise NotInvertibleError(
                    "chain on variables %s starts with exponent 1: f^T ends it in x%d "
                    "alone" % (names, block[0] + 1))
        elif all(p == 1 for p in exps):
            raise DegenerateLoopError(
                "loop on variables %s has all exponents 1 (degenerate or A1; "
                "also the only case admitting flip symmetries, which are excluded)"
                % (names,))
        elif len(block) % 2 == 0 and 1 in (max(exps[::2]), max(exps[1::2])):
            raise NotInvertibleError(
                "loop on variables %s has exponent 1 at every other variable: those "
                "have weight 1 and the others weight 0" % (names,))
        blocks.append(AtomicBlock(kind, block, exps))
    blocks.sort(key=lambda b: b.variables)
    return tuple(blocks), anchors, succ


def link_blocks(succ):
    """The chains and loops of an injective successor map, a dict from each
    point to the next one or to None past a chain's end, as (kind, points in
    block order): a chain from its point with no predecessor, a loop from
    its least point."""
    heads = set(succ).difference(succ.values())
    seen = set()
    out = []
    for start in sorted(heads) + sorted(succ):
        if start in seen:
            continue
        block = [start]
        nxt = succ[start]
        while nxt is not None and nxt != start:
            block.append(nxt)
            nxt = succ[nxt]
        seen.update(block)
        out.append((CHAIN if nxt is None else LOOP, tuple(block)))
    return out


def fold_order(matrix, orbs):
    """The product of the orders d (``AtomicBlock.order``) of the chains and
    loops that the monomials of an anchored matrix fold into along the
    orbits of a group T of its symmetries on a set closed under successors
    (``permgroups.orbits``).

    The monomials anchored in one T-orbit fold to one monomial.  T commutes
    with the successor map, which is injective, so it maps each orbit onto
    an orbit, one to one, and the folded monomials are chains and loops on
    the orbits, with the exponents of their points; a loop folded onto one
    orbit gives x_O^(a+1), the 1-loop of order a + 1.  The product is
    |det F| for the matrix F of the folded monomials.  Kept per orbits on
    the matrix, so the marks of a stratum reuse its fixed points' folds."""
    order = matrix._folds.get(orbs)
    if order is None:
        rows = matrix.rows
        column = {v: k for k, orb in enumerate(orbs) for v in orb}
        succ = matrix.successors()
        folded = {k: column.get(succ[orb[0]]) for k, orb in enumerate(orbs)}
        exponents = [rows[orb[0]][orb[0]] for orb in orbs]
        order = prod([AtomicBlock(kind, block, [exponents[k] for k in block]).order
                      for kind, block in link_blocks(folded)])
        matrix._folds[orbs] = order
    return order


# -- basic operations -----------------------------------------------------------


def transpose(matrix):
    """Dual polynomial: transpose of the anchored exponent matrix.

    Rows are aligned with their anchor variables first, so the transpose is
    invariant under the same variable permutations as the original and the
    operation is an involution.  Coefficients are reset to 1.  The
    transpose is validated like any input, which a valid f^T passes, and
    made once per anchored matrix, the same object returned after that.
    """
    anchored = matrix.anchored()
    if anchored._transpose is None:
        out = ExponentMatrix(tuple(zip(*anchored.rows)))
        out.validate()
        anchored._transpose = out
    return anchored._transpose


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
    table = dict(zip(matrix.rows, matrix.coefficients))
    for p in group.generators:
        for mono, coeff in table.items():
            moved = [0] * matrix.n
            for j, e in enumerate(mono):
                moved[p[j]] = e
            if table.get(tuple(moved)) != coeff:
                raise NotInvariantError(
                    "permutation %s does not preserve the polynomial" % cycle_notation(p))
