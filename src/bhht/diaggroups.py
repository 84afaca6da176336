"""Finite abelian groups of diagonal symmetries of invertible polynomials.

An element of the group of a matrix E is a vector v of rationals mod 1 with
E @ v integral.  Internally every element is a tuple of integers modulo the
group exponent L, i.e. v = a / L; this keeps equality, hashing and
arithmetic exact and fast.

Each chain or loop block B of f has a cyclic group <g_B> of order d_B
(``AtomicBlock.order``), and G is their direct sum, of order the product of
the d_B; J, f's weights mod 1, is a sum of multiples of the g_B
(``DiagonalGroup.grading``).  A verdict reads all it needs off those
generators:
the stratum kernels K_I, each a direct sum of some <m_B g_B>
(``DiagonalGroup.stratum_kernel``), the pairing with f^T's group, checked
nondegenerate block by block, and ann(K_C) = K'_{C^c}, checked by
containment and orders (``CharacterPairing``).

G's key is the Hermite key of the g_B (``DiagonalGroup.key``), and E's rows
cut G out of (Z/L)^n and, with further rows, the annihilators of a pairing.
A key decides equality, membership and order without listing, and its
rows are the subgroup's output generators (``intmat.hermite_generators``),
so a subgroup is handed out as its key (``Subgroup``), walked only when
iterated.
"""

from functools import cached_property
from itertools import chain, product, repeat
from math import gcd, lcm, prod
from operator import itemgetter, mod, mul

from .errors import DegeneratePairingError, MembershipError, SizeBoundError
from .intmat import (hermite_generators, hermite_key, hermite_order, in_hermite,
                     kernel_mod, matvec)
from .permgroups import inverse
from .polynomials import transpose

DEFAULT_GROUP_BOUND = 10 ** 6


class DiagonalGroup:
    """The group of diagonal symmetries of an exponent matrix, spanned by its g_B."""

    def __init__(self, matrix):
        if not matrix.is_square:
            raise ValueError("diagonal symmetry group needs a square matrix")
        self.matrix = matrix
        n = self.n = matrix.n
        # a block's monomials v_i^a_i v_(i+1) give its angles, in block order,
        # as the multiples of (1, -a_1, a_1 a_2, ...) / d_B, where the last
        # monomial leaves d_B (``AtomicBlock.order``)
        blocks = matrix.validate()
        orders = [block.order for block in blocks]
        self.order = prod(orders)
        L = self.exponent = lcm(1, *orders)
        self.blocks = []  # (d_B, g_B, B's variables)
        self.points = [None] * n  # point -> (its block, its coordinate's order)
        for b, (block, d) in enumerate(zip(blocks, orders)):
            g = [0] * n
            x = 1 % d
            for i, a in zip(block.variables, block.exponents):
                g[i] = x * (L // d)
                self.points[i] = b, d // gcd(d, x)
                x = -a * x % d
            self.blocks.append((d, tuple(g), block.variables))
        self.zero = (0,) * n
        self._strata = {}  # subset -> (generators, order) of its stratum kernel
        self._by_subgroup = {}  # (C, U) -> c(U)
        self.pairings = {}  # group of the transpose -> CharacterPairing

    def __repr__(self):
        return "DiagonalGroup(order %d, exponent %d)" % (self.order, self.exponent)

    @cached_property
    def key(self):
        """The Hermite key of G, spanned by the block generators g_B."""
        return hermite_key([g for _, g, _ in self.blocks], self.n, self.exponent)

    def __contains__(self, element):
        """E's rows cut G out of (Z/L)^n: a / L is in G iff E.a = 0 mod L."""
        L = self.exponent
        if len(element) != self.n or not all(0 <= a < L for a in element):
            return False
        return not any(sum(map(mul, row, element)) % L for row in self.matrix.rows)

    def stratum_kernel(self, subset):
        """Generators and order of K_I, the elements vanishing on the subset.

        An element is a sum of multiples k_B g_B, and k_B g_B vanishes at a
        point of B exactly when that coordinate's order divides k_B.  So
        K_I is the direct sum of the <m_B g_B>, for m_B the lcm of those
        orders over the points of I in B, and |K_I| is the product of the
        d_B / m_B; a block with m_B = d_B adds no generator."""
        L = self.exponent
        m = [1] * len(self.blocks)
        for i in subset:
            b, r = self.points[i]
            m[b] = lcm(m[b], r)
        gens = []
        order = 1
        for (d, g, _), k in zip(self.blocks, m):
            if k < d:
                order *= d // k
                gens.append(tuple([k * x % L for x in g]))
        return tuple(gens), order

    def stratum(self, subset):
        """``stratum_kernel`` of a subset given as a sorted tuple, made once
        per subset."""
        known = self._strata.get(subset)
        if known is None:
            known = self._strata[subset] = self.stratum_kernel(subset)
        return known

    def zero_set(self, subset):
        """Z(K_I) for a subset I given as a sorted tuple: the points where
        every element of K_I vanishes.  It is the closure of I: it contains
        I, has the same kernel, and is that kernel's only such set."""
        return _zeros(self.n, self.stratum(subset)[0])

    def stratum_cocycle_order(self, closed, u_elements):
        """c(U) = #{w in G : w is constant on U's orbits in C}, for a zero
        set C and a group U of permutations of the points that fixes C and
        preserves f, given by its elements, in closed form and once per C
        and U.

        Such a w is a U-fixed element of G restricted to C, lifted in |K_C|
        ways.  G restricted to C is the direct sum of the cyclic <g_B|C>,
        of orders m_B (``stratum_kernel``), and U permutes those summands,
        as S permutes isomorphic blocks.  So a U-fixed element is one
        Stab_U(B)-fixed element of <g_B|C> per U-orbit of blocks, and c(U)
        is |K_C| times the product of m_B / q_B over the orbits, q_B the
        order of the subgroup of Z/L that the g_B[j] - g_B[u(j)] span, for
        u in Stab_U(B) and j in C and B.  q_B is 1 unless U rotates a loop
        in place."""
        order = self._by_subgroup.get((closed, u_elements))
        if order is not None:
            return order
        L = self.exponent
        points = self.points
        inside = {}  # block -> its points in C
        for i in closed:
            inside.setdefault(points[i][0], []).append(i)
        order = self.stratum(closed)[1]
        met = set()
        for b, js in inside.items():
            if b in met:
                continue
            g = self.blocks[b][1]
            spanned = L
            first = js[0]
            for u in u_elements:
                image = points[u[first]][0]
                if image != b:
                    met.add(image)
                elif u[first] != first:
                    # u rotates a loop in place; a u that maps B to itself
                    # and fixes a point of B fixes B pointwise
                    spanned = gcd(spanned, *(g[j] - g[u[j]] for j in js))
            order *= lcm(*(points[j][1] for j in js)) * spanned // L
        self._by_subgroup[closed, u_elements] = order
        return order

    def kernel_elements(self, key):
        """The subgroup of a Hermite key mod L, as a ``Subgroup``, refused
        when its order is over the bound."""
        order = hermite_order(key, self.exponent)
        if order > DEFAULT_GROUP_BOUND:
            raise SizeBoundError("group of order %d exceeds bound %d"
                                 % (order, DEFAULT_GROUP_BOUND))
        return Subgroup(self, key)

    @cached_property
    def grading(self):
        """J, the weights of f mod 1, as the sum of the k_B g_B: in block
        order, k_B = sum over j of (-1)^j times the product of the exponents
        past j, the same for chains and loops, made by Horner's rule."""
        L = self.exponent
        j = [0] * self.n
        for block, (_, g, variables) in zip(self.matrix.validate(), self.blocks):
            k = 0
            for i, a in enumerate(block.exponents):
                k = a * k + (-1) ** i
            for i in variables:
                j[i] = k * g[i] % L
        return tuple(j)

    def format_element(self, element):
        """Short notation 1/m(a1,...,an) with the least common denominator."""
        L = self.exponent
        g = gcd(L, *element) if any(element) else L
        m = L // g
        return "1/%d(%s)" % (m, ",".join(str(a // g) for a in element))


def _zeros(n, gens):
    """The points where every generator vanishes, as a sorted tuple."""
    if not gens:
        return tuple(range(n))
    return tuple(i for i, column in enumerate(zip(*gens)) if not any(column))


def perm_act(perm, element):
    """(sigma . v)_i = v_{sigma^-1(i)}."""
    return _PERMUTERS[perm](element)


class _Permuters(dict):
    """sigma -> (v -> sigma.v) as one C-level call, the getter of sigma^-1's
    images, made on first use and kept: a hit is a plain dict lookup.  A
    getter of one item returns it bare, so one point gets ``tuple``."""

    def __missing__(self, perm):
        getter = self[perm] = tuple if len(perm) < 2 else itemgetter(*inverse(perm))
        return getter


_PERMUTERS = _Permuters()


class Subgroup:
    """The subgroup of a Hermite key mod L in a diagonal group, a set of
    elements read off the key: its length is the key's order, ``in`` is
    membership in G and in the key, and it equals another ``Subgroup``
    exactly when their spaces, ``space`` = (n, L) of the ambient (Z/L)^n,
    and their keys are equal.  Only iteration walks it, and equality with a
    set, which trusts the walk to give each element once; it has no hash."""

    def __init__(self, group, key):
        self.group = group
        self.key = key
        self.space = group.n, group.exponent

    def __len__(self):
        return hermite_order(self.key, self.group.exponent)

    def __contains__(self, element):
        return element in self.group and in_hermite(self.key, element)

    def __eq__(self, other):
        if isinstance(other, Subgroup):
            return other.space == self.space and other.key == self.key
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self) and other.issuperset(self)
        return NotImplemented

    def __iter__(self):
        """The elements, each once as the sum of c_k.row_k over the key's
        rows, 0 <= c_k < L/d_k for the pivots d_k.  Split c_k = r_k + w_k.q_k
        with 0 <= r_k < w_k, where w_k divides L/d_k and w_k.row_k is zero
        past column k modulo the steps of those columns, or w_k = L/d_k.
        Then q_k moves coordinate k alone, in steps of w_k.d_k, so each sum
        of the r_k.row_k is completed by one product of ranges.  The w_k are
        taken least from the last row up; a diagonal key is one product.
        The sums are walked as n columns of coordinates, row k putting, for
        each r < w_k in turn, column j plus r.row_k[j] mod L after column j,
        and zipped into elements only at the end."""
        n, L = self.space
        steps = [L] * n
        columns = [[0]] * n
        for k in reversed(range(n)):
            row = self.key[k]
            w = lcm(1, *(steps[i] // gcd(steps[i], row[i]) for i in range(k + 1, n)))
            if (L // row[k]) % w:
                w = L // row[k]
            steps[k] = w * row[k]
            if w > 1:
                columns = [[(x + s) % L for s in range(0, w * a, a) for x in column]
                           if a else column * w for a, column in zip(row, columns)]
        sums = zip(*columns)
        if min(steps) == L:  # every product is one element
            return sums
        return chain.from_iterable(
            product(*map(range, map(mod, s, steps), repeat(L), steps)) for s in sums)


def subgroup_key(group, subgroup):
    """The Hermite key of a ``Subgroup`` of the group: a key in the group's
    (Z/L)^n whose generators all lie in G, as E's rows tell.  Anything else
    is refused: a subgroup is handed over as its key, never listed
    (``oracles.key_of_elements`` keys an element set)."""
    if not isinstance(subgroup, Subgroup) or subgroup.space != (group.n, group.exponent):
        raise MembershipError("not a subgroup of (Z/%d)^%d" % (group.exponent, group.n))
    if not all(g in group for g in hermite_generators(subgroup.key, group.exponent)):
        raise MembershipError("not a subgroup of %r" % (group,))
    return subgroup.key


class CharacterPairing:
    """The bilinear pairing between the groups of a matrix and of its transpose.

    pairing(v, w) = v . (E^T w) mod 1, which equals w . (E v) mod 1; the value
    is a rational in [0, 1) (``oracles.pairing_value``).  The annihilator maps
    realise the duality between subgroup lattices; the suite checks
    non-degeneracy rather than assuming it.
    """

    def __init__(self, matrix):
        matrix = matrix.anchored()
        self._join(DiagonalGroup(matrix), DiagonalGroup(transpose(matrix)))

    @classmethod
    def between(cls, left, right):
        """The pairing of two groups already built: the left one of an
        anchored matrix, the right one of its transpose.  There is one
        pairing per pair of groups, kept by the left group, so a verdict and
        its lemma checks share its checked dual strata."""
        pairing = left.pairings.get(right)
        if pairing is None:
            pairing = cls.__new__(cls)
            pairing._join(left, right)
        return pairing

    def _join(self, left, right):
        self.matrix = left.matrix
        self.left = left
        self.right = right
        self._dual_strata = {}  # zero set C -> the zero set of ann(K_C), or None
        self._congruences = {}  # left element a -> E.a / L1
        self._nondegenerate = False
        left.pairings[right] = self

    def swapped(self):
        """The same pairing read from the dual side."""
        return CharacterPairing.between(self.right, self.left)

    def annihilator(self, subgroup):
        """Dual subgroup: characters vanishing on a left ``Subgroup`` H, as
        the ``Subgroup`` of the annihilator of H's key."""
        return self.right.kernel_elements(self.dual_kernel(subgroup_key(self.left, subgroup)))

    def dual_kernel(self, key):
        """The Hermite key of the annihilator of the left subgroup of a key:
        the kernel mod L2 of E^T's rows and of E.a / L1 for its generators a."""
        gens = hermite_generators(key, self.left.exponent)
        rows = [*self.right.matrix.rows, *map(self._congruence, gens)]
        return kernel_mod(rows, self.right.n, self.right.exponent)

    def _congruence(self, a):
        """The row c = E.a / L1 of a left element a: w kills a iff c.w = 0 mod L2.
        Computed once per element; an element outside the group is refused
        every time."""
        c = self._congruences.get(a)
        if c is None:
            c = []
            for x in matvec(self.matrix.rows, a):
                q, r = divmod(x, self.left.exponent)
                if r:
                    raise MembershipError("element %s not in the group" % (a,))
                c.append(q)
            c = self._congruences[a] = tuple(c)
        return c

    def dual_stratum(self, closed):
        """The zero set of ann(K_C), for the zero set C of a left stratum
        kernel, once ann(K_C) = K'_{C^c} is checked; None if it is not.
        Checked once per C.

        Both kernels come in closed form (``DiagonalGroup.stratum_kernel``),
        and K'_{C^c} is never keyed.  It is ann(K_C) exactly when every pair
        of generators pairs to zero and |K_C| |K'_{C^c}| = |G|: under a
        nondegenerate pairing, verified first, ann(K_C) has order
        |G| / |K_C|."""
        if closed in self._dual_strata:
            return self._dual_strata[closed]
        self.verify_nondegenerate()
        left, right = self.left, self.right
        complement = tuple(i for i in range(left.n) if i not in closed)
        gens, order = right.stratum(complement)
        h_gens, h_order = left.stratum(closed)
        rows = [self._congruence(a) for a in h_gens]
        L = right.exponent
        dual = None
        if (h_order * order == left.order
                and not any(sum(map(mul, c, b)) % L for c in rows for b in gens)):
            dual = _zeros(right.n, gens)
        self._dual_strata[closed] = dual
        return dual

    def verify_nondegenerate(self):
        """Both radicals are trivial, checked once per pairing by blocks: f is
        anchored, so E.g_B / L1 lives on B's variables and g_B pairs to zero
        with every block generator of f^T but g'_B, on the same variables.
        So the pairing is nondegenerate exactly when, for every block B,
        d_B = d'_B and g_B pairs with g'_B to a value of order d_B."""
        if self._nondegenerate:
            return
        if self.left.order != self.right.order:
            raise DegeneratePairingError(self.matrix, "group orders differ")
        duals = {frozenset(variables): (d, g) for d, g, variables in self.right.blocks}
        L = self.right.exponent
        for d, g, variables in self.left.blocks:
            dual_d, dual_g = duals.get(frozenset(variables), (None, ()))
            value = sum(map(mul, self._congruence(g), dual_g))
            if dual_d != d or L // gcd(L, value) != d:
                raise DegeneratePairingError(
                    self.matrix, "the block on %s does not pair to order %d"
                    % (", ".join("x%d" % (i + 1) for i in variables), d))
        self._nondegenerate = True
