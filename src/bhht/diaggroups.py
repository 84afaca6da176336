"""Finite abelian groups of diagonal symmetries of invertible polynomials.

An element of the group of a matrix E is a vector v of rationals mod 1 with
E @ v integral.  Internally every element is a tuple of integers modulo the
group exponent L (the largest invariant factor of E), i.e. v = a / L; this
keeps equality, hashing and arithmetic exact and fast.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .errors import DegeneratePairingError, MembershipError, SizeBoundError
from .intmat import matvec, smith_normal_form

DEFAULT_GROUP_BOUND = 10 ** 6

_NP_LIMIT = 2 ** 62


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

    @cached_property
    def element_index(self):
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def _array(self):
        return np.array(self.elements, dtype=np.int64).reshape(self.order, self.n)

    def select(self, int_rows_matrix, modulus):
        """Elements whose dot products with the given integer rows vanish mod modulus.

        Used for the linear-condition subgroups (annihilators); falls back to
        exact Python ints when the numpy path could overflow.
        """
        if not int_rows_matrix:
            return frozenset(self.elements)
        maxc = max(abs(c) for row in int_rows_matrix for c in row) or 1
        if maxc * self.exponent * self.n < _NP_LIMIT:
            c = np.array(int_rows_matrix, dtype=np.int64).T
            prod = self._array @ c % modulus
            mask = ~prod.any(axis=1)
            return frozenset(self.elements[i] for i in np.nonzero(mask)[0])
        out = []
        for e in self.elements:
            if all(sum(x * y for x, y in zip(row, e)) % modulus == 0
                   for row in int_rows_matrix):
                out.append(e)
        return frozenset(out)

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

    def to_fractions(self, element):
        L = self.exponent
        return tuple(Fraction(a, L) for a in element)

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


def subgroup_from_fraction_rows(group, rows):
    return subgroup_generated(group, [group.from_fractions(r) for r in rows])


def isotropy_on_stratum(group, subset):
    """Elements acting trivially on the open stratum of the subset: v_i = 0 on it."""
    subset = set(subset)
    return frozenset(e for e in group.elements
                     if all(e[i] == 0 for i in subset))


def fixed_subgroup(group, perms):
    """Elements constant on the orbits of the permutation group."""
    reps = {}
    for p in perms.elements:
        for i in range(group.n):
            reps.setdefault(i, set()).add(p[i])
    out = []
    for e in group.elements:
        ok = True
        for i, orbit in reps.items():
            if any(e[j] != e[i] for j in orbit):
                ok = False
                break
        if ok:
            out.append(e)
    return frozenset(out)


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
        """Dual subgroup: characters vanishing on the given left subgroup."""
        gens = generating_subset(self.left, subgroup_elements)
        rows = [matvec([list(r) for r in self.matrix.rows], list(g)) for g in gens]
        modulus = self.left.exponent * self.right.exponent
        return self.right.select(rows, modulus)

    def verify_nondegenerate(self, limit=5000):
        """Exhaustive non-degeneracy check for small groups."""
        if self.left.order > limit:
            return
        if self.left.order != self.right.order:
            raise DegeneratePairingError(self.matrix, "group orders differ")
        full = self.annihilator(frozenset(self.left.elements))
        if full != frozenset({self.right.zero}):
            raise DegeneratePairingError(
                self.matrix, "a nonzero character vanishes on the whole group")
        sw = self.swapped()
        full = sw.annihilator(frozenset(sw.left.elements))
        if full != frozenset({sw.right.zero}):
            raise DegeneratePairingError(
                self.matrix, "a nonzero element is killed by every character")
