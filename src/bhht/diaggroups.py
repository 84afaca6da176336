"""Finite abelian groups of diagonal symmetries of invertible polynomials.

An element of the group of a matrix E is a vector v of rationals mod 1 with
E @ v integral.  Internally every element is a tuple of integers modulo the
group exponent L (the largest invariant factor of E), i.e. v = a / L; this
keeps equality, hashing and arithmetic exact and fast.

G is cut out of (Z/L)^n by the rows of the Hermite key of E's rows mod L
with a pivot below L (none for a Fermat polynomial), and its subgroups given
by further congruences (annihilators, stratum kernels) are kernels of both
(``intmat.kernel_mod``).  Only ``kernel_elements`` lists them, within
``DEFAULT_GROUP_BOUND``.  A subgroup handed on by generators is named by its
Hermite key (``intmat.hermite_key``), which decides equality, membership and
order without listing it.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DegeneratePairingError, MembershipError, SizeBoundError
from .intmat import hermite_generators, hermite_key, kernel_mod, matvec

DEFAULT_GROUP_BOUND = 10 ** 6


class DiagonalGroup:
    """The full group of diagonal symmetries of an exponent matrix."""

    def __init__(self, matrix):
        if not matrix.is_square:
            raise ValueError("diagonal symmetry group needs a square matrix")
        det = matrix.determinant()
        if det == 0:
            raise ValueError("singular exponent matrix")
        self.matrix = matrix
        self.n = matrix.n
        self.order = abs(det)
        # |det E| kills the group, so its elements are the x / |det E| with
        # E.x = 0 mod |det E|, and its exponent is the lcm of the orders of
        # that kernel's generators
        D = self.order
        gens = kernel_mod([list(r) for r in matrix.rows], self.n, D)[0]
        L = self.exponent = lcm(1, *(D // gcd(D, *g) for g in gens))
        # the rows of E span the same congruences mod L as their Hermite key
        key = hermite_key(matrix.rows, self.n, L)
        self.congruences = list(hermite_generators(key, L))
        self.zero = (0,) * self.n

    def __repr__(self):
        return "DiagonalGroup(order %d, exponent %d)" % (self.order, self.exponent)

    def __contains__(self, element):
        L = self.exponent
        if len(element) != self.n or not all(0 <= a < L for a in element):
            return False
        return all(sum(c * a for c, a in zip(row, element)) % L == 0
                   for row in self.congruences)

    def add(self, a, b):
        L = self.exponent
        return tuple((x + y) % L for x, y in zip(a, b))

    def neg(self, a):
        L = self.exponent
        return tuple((-x) % L for x in a)

    @cached_property
    def elements(self):
        return tuple(sorted(self.kernel_elements(*self.kernel())))

    def kernel(self, rows=()):
        """Generators and order of the subgroup cut out by extra congruences mod L."""
        return kernel_mod(self.congruences + list(rows), self.n, self.exponent)

    def stratum_kernel(self, subset):
        """Generators and order of the elements acting trivially on the open
        stratum of the subset: v_i = 0 on it."""
        return self.kernel([_unit_row(self.n, i) for i in set(subset)])

    def kernel_elements(self, gens, order):
        """The elements of a kernel, listed only when its order is within the bound."""
        if order > DEFAULT_GROUP_BOUND:
            raise SizeBoundError("group of order %d exceeds bound %d"
                                 % (order, DEFAULT_GROUP_BOUND))
        return span(self, gens)[1]

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


def perm_act(perm, element):
    """(sigma . v)_i = v_{sigma^-1(i)}."""
    out = [0] * len(element)
    for i, j in enumerate(perm):
        out[j] = element[i]
    return tuple(out)


def _extend(group, have, gens):
    """The subgroup generated by have = <gens[:-1]> and e = gens[-1], as a set.

    It is the union of the cosets have + k.e for k below the index
    [<have, e> : have]; each coset is the previous one moved by e, one table
    lookup per coordinate.  Coordinate i only takes multiples of
    gcd(L, gens_i), so its table shift[i][x] = (x + e_i) % L has no more
    entries than the subgroup has values there.
    """
    L = group.exponent
    shift = []
    for column in zip(*gens):
        d = gcd(L, *column)
        shift.append({x: (x + column[-1]) % L for x in range(0, L, d)})
    grown = set(have)
    coset = list(have)
    while True:
        coset = [tuple(map(dict.__getitem__, shift, h)) for h in coset]
        if coset[0] in have:
            return grown
        grown.update(coset)


def _unit_row(n, i):
    row = [0] * n
    row[i] = 1
    return row


def span(group, generators):
    """An independent subset of the generators, in sorted order, and the
    subgroup they generate: the one closure routine of diagonal subgroups."""
    gens = []
    have = {group.zero}
    for e in sorted(generators):
        if e not in have:
            if e not in group:
                raise MembershipError("generator %s not in the group" % (e,))
            gens.append(e)
            have = _extend(group, have, gens)
    return tuple(gens), frozenset(have)


class CharacterPairing:
    """The bilinear pairing between the groups of a matrix and of its transpose.

    pairing(v, w) = v . (E^T w) mod 1, which equals w . (E v) mod 1; the value
    is a rational in [0, 1).  The annihilator maps realise the duality between
    subgroup lattices; the suite checks non-degeneracy rather than assuming it.
    """

    def __init__(self, matrix):
        from .polynomials import transpose as transpose_poly
        self.matrix = matrix.anchored()
        self.left = DiagonalGroup(self.matrix)
        self.right = DiagonalGroup(transpose_poly(self.matrix))
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

    def dual_kernel(self, gens):
        """Generators and order of the annihilator of the subgroup gens generate."""
        return self.right.kernel([self._congruence(a) for a in gens])

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
            if pairing.dual_kernel(pairing.left.kernel()[0])[1] != 1:
                raise DegeneratePairingError(self.matrix, what)
