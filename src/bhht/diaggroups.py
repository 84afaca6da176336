"""Finite abelian groups of diagonal symmetries of invertible polynomials.

An element of the group of a matrix E is a vector v of rationals mod 1 with
E @ v integral.  Internally every element is a tuple of integers modulo the
group exponent L (the largest invariant factor of E), i.e. v = a / L; this
keeps equality, hashing and arithmetic exact and fast.

Subgroups given by congruences (annihilators, stratum kernels) are cut out
as kernels: the rows of E plus the extra congruences go through
``intmat.kernel_mod``, and only the kernel's own elements are ever listed,
never those of the whole group.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DegeneratePairingError, MembershipError, SizeBoundError
from .intmat import kernel_mod, matvec, smith_normal_form

DEFAULT_GROUP_BOUND = 10 ** 6


class DiagonalGroup:
    """The full group of diagonal symmetries of an exponent matrix."""

    def __init__(self, matrix, bound=DEFAULT_GROUP_BOUND):
        if not matrix.is_square:
            raise ValueError("diagonal symmetry group needs a square matrix")
        det = matrix.determinant()
        if det == 0:
            raise ValueError("singular exponent matrix")
        self.matrix = matrix
        self.n = matrix.n
        self.order = abs(det)
        self.bound = bound
        d, _u, v = smith_normal_form([list(r) for r in matrix.rows])
        diag = [d[i][i] for i in range(self.n)]
        self.exponent = lcm(1, *diag)
        L = self.exponent
        # basis vectors: column j of V divided by d_j, of order d_j
        self.basis = []
        for j in range(self.n):
            if diag[j] == 1:
                continue
            vec = tuple((v[i][j] * (L // diag[j])) % L for i in range(self.n))
            self.basis.append((vec, diag[j]))
        self.zero = (0,) * self.n

    def __repr__(self):
        return "DiagonalGroup(order %d, exponent %d)" % (self.order, self.exponent)

    def __contains__(self, element):
        if len(element) != self.n:
            return False
        L = self.exponent
        for row in self.matrix.rows:
            if sum(e * a for e, a in zip(row, element)) % L != 0:
                return False
        return True

    def add(self, a, b):
        L = self.exponent
        return tuple((x + y) % L for x, y in zip(a, b))

    def neg(self, a):
        L = self.exponent
        return tuple((-x) % L for x in a)

    @cached_property
    def elements(self):
        if self.order > self.bound:
            raise SizeBoundError(
                "group of order %d exceeds bound %d; use generator arithmetic"
                % (self.order, self.bound))
        els = [self.zero]
        for vec, order in self.basis:
            step = vec
            block = list(els)
            cur = self.zero
            for _ in range(order - 1):
                cur = self.add(cur, step)
                block.extend(self.add(e, cur) for e in els)
            els = block
        els = sorted(set(els))
        assert len(els) == self.order
        return tuple(els)

    def kernel(self, rows=()):
        """Generators and order of the subgroup cut out by extra congruences mod L."""
        return kernel_mod([list(r) for r in self.matrix.rows] + list(rows),
                          self.n, self.exponent)

    def kernel_elements(self, gens, order):
        """The elements of a kernel, listed only when its order is within the bound."""
        if order > self.bound:
            raise SizeBoundError(
                "subgroup of order %d exceeds bound %d" % (order, self.bound))
        return _closure(self, gens)

    # -- conversions -------------------------------------------------------

    def from_fractions(self, fractions):
        """Element from a vector of rationals (taken mod 1)."""
        if len(fractions) != self.n:
            raise MembershipError("vector length %d != %d" % (len(fractions), self.n))
        L = self.exponent
        out = []
        for q in fractions:
            q = Fraction(q)
            if L % q.denominator != 0:
                raise MembershipError(
                    "denominator %d does not divide group exponent %d"
                    % (q.denominator, L))
            out.append(int(q * L) % L)
        element = tuple(out)
        if element not in self:
            raise MembershipError("vector %s is not a diagonal symmetry" % (fractions,))
        return element

    def format_element(self, element):
        """Short notation 1/m(a1,...,an) with the least common denominator."""
        L = self.exponent
        g = gcd(L, *element) if any(element) else L
        m = L // g
        return "1/%d(%s)" % (m, ",".join(str(a // g) for a in element))


def symmetry_group(matrix, bound=DEFAULT_GROUP_BOUND):
    return DiagonalGroup(matrix, bound=bound)


def perm_act(perm, element):
    """(sigma . v)_i = v_{sigma^-1(i)}."""
    out = [0] * len(element)
    for i, j in enumerate(perm):
        out[j] = element[i]
    return tuple(out)


def subgroup_generated(group, generators):
    """Closure of the generators under addition mod 1."""
    for g in generators:
        if g not in group:
            raise MembershipError("generator %s not in the group" % (g,))
    return _closure(group, generators)


def _closure(group, generators):
    have = {group.zero}
    for g in generators:
        if g not in have:
            have = _extend(group, have, g)
    return frozenset(have)


def _extend(group, have, e):
    """The subgroup generated by a subgroup and one more element, as a set.

    It is the union of the cosets have + k.e for k below the index [<have, e> : have].
    """
    grown = set(have)
    step = e
    while step not in have:
        grown.update(group.add(h, step) for h in have)
        step = group.add(step, e)
    return grown


def _unit_row(n, i):
    row = [0] * n
    row[i] = 1
    return row


def isotropy_on_stratum(group, subset):
    """Elements acting trivially on the open stratum of the subset: v_i = 0 on it."""
    rows = [_unit_row(group.n, i) for i in set(subset)]
    return group.kernel_elements(*group.kernel(rows))


def generating_subset(group, elements):
    """Small deterministic generating set for a subgroup given as a set."""
    return span(group, elements)[0]


def span(group, elements):
    """The generating subset of a set of elements and the subgroup it generates.

    The subgroup equals the given set exactly when that set is a subgroup.
    """
    gens = []
    have = {group.zero}
    for e in sorted(elements):
        if e not in have:
            if e not in group:
                raise MembershipError("generator %s not in the group" % (e,))
            gens.append(e)
            have = _extend(group, have, e)
            if len(have) == len(elements):
                break
    return tuple(gens), frozenset(have)


class CharacterPairing:
    """The bilinear pairing between the groups of a matrix and of its transpose.

    pairing(v, w) = v . (E^T w) mod 1, which equals w . (E v) mod 1; the value
    is a rational in [0, 1).  The annihilator maps realise the duality between
    subgroup lattices; the suite checks non-degeneracy rather than assuming it.
    """

    def __init__(self, matrix, left=None, right=None, bound=DEFAULT_GROUP_BOUND):
        from .polynomials import transpose as transpose_poly
        self.matrix = matrix.anchored()
        self.left = left if left is not None else DiagonalGroup(self.matrix, bound)
        self.right = (right if right is not None
                      else DiagonalGroup(transpose_poly(self.matrix), bound))
        if self.left.matrix != self.matrix:
            raise MembershipError("left group was not built from this matrix")
        if self.right.matrix != transpose_poly(self.matrix):
            raise MembershipError("right group was not built from the transpose")
        self._swapped = None

    def swapped(self):
        """The same pairing read from the dual side."""
        if self._swapped is None:
            from .polynomials import transpose as transpose_poly
            self._swapped = CharacterPairing.__new__(CharacterPairing)
            self._swapped.matrix = transpose_poly(self.matrix)
            self._swapped.left = self.right
            self._swapped.right = self.left
            self._swapped._swapped = self
        return self._swapped

    def value(self, v, w):
        if v not in self.left:
            raise MembershipError("left argument not in the group")
        if w not in self.right:
            raise MembershipError("right argument not in the dual group")
        L1 = self.left.exponent
        L2 = self.right.exponent
        ew = matvec([list(r) for r in self.matrix.rows], list(v))
        total = sum(a * b for a, b in zip(ew, w))
        return Fraction(total, L1 * L2) % 1

    def annihilator(self, subgroup_elements):
        """Dual subgroup: characters vanishing on the given left subgroup H.

        A character w kills a in H iff c.w = 0 mod L2 for c = E.a / L1, so
        the annihilator is a kernel inside the right group.  An element adds
        its congruence only if it does not already pair to zero with every
        generator of the kernel so far; the search ends as soon as the kernel
        has |G_f| / |H| elements, which only the annihilator of all of H has.
        """
        L2 = self.right.exponent
        rows = []
        gens, order = self.right.kernel()
        for a in subgroup_elements:
            if order * len(subgroup_elements) == self.left.order:
                break
            c = self._congruence(a)
            if any(sum(x * y for x, y in zip(c, w)) % L2 for w in gens):
                rows.append(c)
                gens, order = self.right.kernel(rows)
        return self.right.kernel_elements(gens, order)

    def _congruence(self, a):
        """The row c = E.a / L1 of a left element a: w kills a iff c.w = 0 mod L2."""
        c = []
        for x in matvec(self.matrix.rows, a):
            q, r = divmod(x, self.left.exponent)
            if r:
                raise MembershipError("element %s not in the group" % (a,))
            c.append(q)
        return c

    def verify_nondegenerate(self):
        """Both annihilators of a whole group are trivial, by kernel orders."""
        if self.left.order != self.right.order:
            raise DegeneratePairingError(self.matrix, "group orders differ")
        sides = ((self, "a nonzero character vanishes on the whole group"),
                 (self.swapped(), "a nonzero element is killed by every character"))
        for pairing, what in sides:
            rows = [pairing._congruence(vec) for vec, _order in pairing.left.basis]
            if pairing.right.kernel(rows)[1] != 1:
                raise DegeneratePairingError(self.matrix, what)
