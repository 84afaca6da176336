"""Slow, independent cross-checks: naive marks, naive conjugacy, fixed-point sums.

These deliberately avoid the closed forms and canonical representatives of
the main code paths so they can serve as oracles for it; everything here is
plain enumeration over small groups, including the element list of the
semidirect product G x| S, which the main paths never build, and f
restricted to a stratum and folded monomial by monomial.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

from .burnside import BurnsideElement, HTClass, SemidirectAmbient, carriers, mark
from .diaggroups import perm_act
from .errors import DegeneratePairingError, MembershipError, NotInvariantError, SizeBoundError
from .intmat import (determinant, hermite_generators, hermite_key, hermite_order, in_hermite,
                     kernel_mod, matvec)
from .permgroups import compose, conjugate, identity_perm, inverse, orbit, orbits, subset_image
from .polynomials import ExponentMatrix, non_symmetry, weights

# Every enumeration here lists a whole group; none runs on one larger than this.
ORACLE_ORDER_BOUND = 20000
# The fixed-point consistency sweep runs only on ambient groups up to this order.
CONSISTENCY_ORDER_BOUND = 2000


def mul(ambient, a, b):
    """(v, s)(w, t) = (v + s.w, st) in G x| S."""
    (v, s), (w, t) = a, b
    return (ambient.diag.add(v, perm_act(s, w)), compose(s, t))


def inv(ambient, a):
    v, s = a
    si = inverse(s)
    L = ambient.diag.exponent
    return (tuple((-x) % L for x in perm_act(si, v)), si)


def loop_perm_act(perm, vector):
    """(sigma . v)_i = v_{sigma^-1(i)}, one index at a time."""
    out = [0] * len(vector)
    for i, j in enumerate(perm):
        out[j] = vector[i]
    return tuple(out)


def ambient_elements(ambient):
    """Every element of a small G x| S, sorted."""
    if ambient.order > ORACLE_ORDER_BOUND:
        raise SizeBoundError("semidirect product of order %d exceeds %d"
                             % (ambient.order, ORACLE_ORDER_BOUND))
    return sorted((v, s) for v in ambient.diag.elements
                  for s in ambient.perms.elements)


def brute_tag(ambient, h_elements, t_elements):
    """Canonical tag of a split subgroup: least (sorted T, sorted H) over all of S."""
    return min((tuple(sorted(conjugate(s, t) for t in t_elements)),
                tuple(sorted(perm_act(s, h) for h in h_elements)))
               for s in ambient.perms.elements)


def key_class(ambient, h_key, t_generators):
    """The class of H x| T named by Hermite keys, for any H, by a scan of S.

    H is given by its Hermite key and T by generators; any set of elements
    of S generates a subgroup, so an element set of T is a valid input too.
    Two split subgroups are conjugate in the ambient group iff they are
    conjugate by some element of S.  So the class is named by the key of T's
    class in the lattice of S and the least Hermite key of s.H over the s
    that carry T onto that key; the representative is that s.H x| key.
    """
    diag, perms = ambient.diag, ambient.perms
    n, L = diag.n, diag.exponent
    h_gens = hermite_generators(h_key, L)
    for h in h_gens:
        if h not in diag:
            raise MembershipError("generator %s not in the group" % (h,))
    t_gens = tuple(t_generators)
    if not all(t in perms.element_set for t in t_gens):
        raise MembershipError("T is not a subgroup of S")
    # T-invariance of the subgroup H follows from its generators and T's
    if not all(in_hermite(h_key, perm_act(t, h)) for t in t_gens for h in h_gens):
        raise MembershipError(
            "H is not invariant under T; the split subgroup is ill-formed")
    best_t = perms.lattice.key_of[orbit(identity_perm(n), t_gens, compose)]
    best_key = best_s = None
    for s in carriers(perms, t_gens, frozenset(best_t)):
        moved = [perm_act(s, h) for h in h_gens]
        if all(in_hermite(h_key, h) for h in moved):
            key = h_key
        else:
            key = hermite_key(moved, n, L)
        if best_key is None or key < best_key:
            best_key, best_s = key, s
    return HTClass(ambient, (best_t, best_key), hermite_generators(best_key, L),
                   hermite_order(best_key, L), tuple(conjugate(best_s, t) for t in t_gens),
                   frozenset(best_t))


def key_induction(element, perms_big):
    """``burnside.induction`` by Hermite keys: every class named again by
    ``key_class`` over G x| S."""
    big = SemidirectAmbient(element.ambient.diag, perms_big)
    out = {}
    for cls, c in element.coefficients.items():
        lifted = key_class(big, cls.h_key, cls.t_gens)
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(big, out)


def key_saito_dual(element, pairing):
    """``burnside.saito_dual`` by Hermite keys: every H replaced by its
    annihilator and the class named again by ``key_class``."""
    dual_ambient = SemidirectAmbient(pairing.right, element.ambient.perms)
    out = {}
    for cls, c in element.coefficients.items():
        lifted = key_class(dual_ambient, pairing.dual_kernel(cls.h_key), cls.t_gens)
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(dual_ambient, out)


def subgroup_elements(cls):
    """Every element (h, t) of a class's representative H x| T, sorted."""
    return [(h, t) for h in sorted(cls.h_elements) for t in sorted(cls.t_elements)]


def naive_mark(kprime, k):
    """Fixed cosets counted with explicit cosets, no closed form: every coset
    gK' of the listed G x| P gets an id, and it is K-fixed exactly when each
    generator x of K, (h, e) for h among H's and (0, t) for t among T's,
    keeps its representative g in it: x.g has g's id."""
    ambient = kprime.ambient
    members = subgroup_elements(kprime)
    coset_of = {}
    reps = []
    for g in ambient_elements(ambient):
        if g not in coset_of:
            for m in members:
                coset_of[mul(ambient, g, m)] = len(reps)
            reps.append(g)
    generators = ([(h, identity_perm(ambient.n)) for h in k.h_gens]
                  + [(ambient.diag.zero, t) for t in k.t_gens])
    return sum(all(coset_of[mul(ambient, x, g)] == c for x in generators)
               for c, g in enumerate(reps))


def conjugators_by_scan(kprime, k):
    """#{g in G x| P : g^-1 K g <= K'}, by a scan of P, for K' = K_C' x| T'.

    For K = H x| T and g = (v, s), the conjugate of (h, t) is
    (s^-1(h + t.v - v), s^-1 t s), so g qualifies exactly when
    U = s^-1 T s <= T', H <= s.K_C' = K_s(C'), that is H's generators
    vanish on s(C'), and t.v - v lies in K_s(C') for every t of T.  Writing
    v = s.w, the count over v is #{w in G : u.w - w vanishes on C' for u in
    U}.  U <= T' fixes C', so u.w - w vanishes on C' exactly when w is
    constant on U's orbits in C', and each s adds c_C'(U)
    (``SemidirectAmbient.stratum_cocycle_order``).
    """
    ambient = kprime.ambient
    tp = kprime.t_elements
    closed = kprime.closed
    total = 0
    for s in ambient.perms.elements:
        si = inverse(s)
        u = frozenset([compose(si, compose(t, s)) for t in k.t_elements])
        if u <= tp and not any(h[s[i]] for h in k.h_gens for i in closed):
            total += ambient.stratum_cocycle_order(closed, u)
    return total


def brute_conjugating_perm(ambient, h1, t1, h2, t2):
    """Some s in S conjugating (H1, T1) onto (H2, T2), by a scan of S, or None."""
    h1, h2 = frozenset(h1), frozenset(h2)
    t1, t2 = frozenset(t1), frozenset(t2)
    for s in ambient.perms.elements:
        if (frozenset(conjugate(s, t) for t in t1) == t2
                and frozenset(perm_act(s, h) for h in h1) == h2):
            return s
    return None


def brute_conjugacy_classes(lattice):
    """The lattice's subgroups partitioned into classes by conjugating each
    by every element of the group; sorted index lists in lattice class order."""
    index = {h: i for i, h in enumerate(lattice.subgroups)}
    classes = {frozenset(index[frozenset(conjugate(g, h) for h in H)]
                         for g in lattice.group.elements)
               for H in lattice.subgroups}
    return sorted((sorted(cls) for cls in classes),
                  key=lambda cls: (len(lattice.subgroups[cls[0]]),
                                   lattice.class_key(cls)))


def brute_subgroups(group):
    """The closures of all 1- and 2-element subsets of the group, with a
    product loop of its own.

    That is every subgroup when each subgroup is 2-generated, as in S4, A5,
    S5 and PGL(2,5).
    """
    identity = tuple(range(group.n))
    found = {frozenset([identity])}
    for pair in combinations_with_replacement(group.elements, 2):
        elements = {identity}
        todo = [identity]
        while todo:
            x = todo.pop()
            for g in pair:
                y = tuple([x[i] for i in g])  # x after g
                if y not in elements:
                    elements.add(y)
                    todo.append(y)
        found.add(frozenset(elements))
    return found


def brute_normalizer_order(group, subgroup):
    """|N(H)|, by a scan of the group."""
    return sum(1 for g in group.elements
               if all(conjugate(g, h) in subgroup for h in subgroup))


def brute_subset_representative(perms, subset):
    """The least sorted image of a subset over every element of S."""
    return min(tuple(sorted(p[i] for i in subset)) for p in perms.elements)


def subset_orbits(group):
    """The orbits on all 2^n subsets of {0..n-1}, every one walked.

    Returns a list of (representative, stabilizer, orbit size) sorted by
    (representative size, representative), and a dict from every subset,
    as a sorted tuple, to (its representative, an s with s(subset) =
    representative, the representative's stabilizer).  The representative
    is the least sorted tuple in its orbit, and every stabilizer comes from
    a scan of the group: the reference for ``PermGroup.subset_orbit``.
    """
    n = group.n
    identity = identity_perm(n)
    out = []
    transversal = {}
    for mask in range(1 << n):
        base = tuple(i for i in range(n) if mask >> i & 1)
        if base in transversal:
            continue
        reach = {base: identity}
        frontier = [base]
        while frontier:
            nxt = []
            for g in group.generators:
                for x in frontier:
                    y = tuple(sorted(g[i] for i in x))
                    if y not in reach:
                        reach[y] = compose(g, reach[x])
                        nxt.append(y)
            frontier = nxt
        rep = min(reach)
        stab = group.subgroup([p for p in group.elements
                               if subset_image(p, rep) == set(rep)])
        to_rep = reach[rep]
        for subset, p in reach.items():
            transversal[subset] = (rep, compose(to_rep, inverse(p)), stab)
        out.append((rep, stab, len(reach)))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out, transversal


def orbits_on_subsets(group):
    """Orbits of the group on all subsets of {0..n-1}: the list of
    ``subset_orbits``."""
    return subset_orbits(group)[0]


def brute_conjugate_element(ambient, h1, t1, h2, t2):
    """Some (v, s) in the whole semidirect product conjugating one split subgroup
    onto the other, or None.  Used to validate the S-only conjugacy criterion."""
    first = frozenset((h, t) for h in h1 for t in t1)
    second = frozenset((h, t) for h in h2 for t in t2)
    for g in ambient_elements(ambient):
        gi = inv(ambient, g)
        moved = frozenset(mul(ambient, mul(ambient, g, x), gi) for x in first)
        if moved == second:
            return g
    return None


def brute_isotropy(group, subset):
    """Elements vanishing on the subset, by a scan of the whole group."""
    subset = set(subset)
    return frozenset(e for e in group.elements
                     if all(e[i] == 0 for i in subset))


def brute_cocycle_kernel_order(diag, perms, subgroup):
    """#{w in G : u.w - w lies in the subgroup for every u in perms}, by a scan of G."""
    if not perms:
        return diag.order
    L = diag.exponent
    pulls = [inverse(u) for u in perms]  # (u.w)_i = w_{u^-1(i)}
    points = range(diag.n)
    return sum(1 for w in diag.elements
               if all(tuple((w[p[i]] - w[i]) % L for i in points) in subgroup
                      for p in pulls))


def kernel_order(rows, n, m):
    """|{x in (Z/m)^n : r.x = 0 mod m for every row r}|, with no key of the
    kernel: for the rows' key B with pivots d_j, the kernel m.B^-1.Z^n has
    index m^n / prod(d_j) in Z^n, so it holds prod(d_j) elements mod m."""
    return prod(row[j] for j, row in enumerate(hermite_key(rows, n, m)))


def cocycle_kernel_order(diag, perms, congruences):
    """#{w in G : u.w - w lies in H' for every u in perms}.

    H' is given by its congruences c (c.x = 0 mod L exactly on H' within
    G); since (u.w)_i = w_{u^-1(i)}, c.(u.w - w) = 0 is the row
    c_{u(i)} - c_i, and the count is the order of a kernel.
    """
    if not perms:
        return diag.order
    points = range(diag.n)
    rows = [[c[u[i]] - c[i] for i in points] for u in perms for c in congruences]
    return kernel_order(diag.congruences + rows, diag.n, diag.exponent)


def orbit_cocycle_order(ambient, closed, u_elements):
    """c(U) as a kernel order: the cocycle kernel order into K_C, cut out
    of G by the unit rows of C, for the one permutation whose cycles are
    U's orbits on C.  The reference for the closed form
    ``SemidirectAmbient.stratum_cocycle_order``."""
    n = ambient.n
    orbs = {frozenset(u[i] for u in u_elements) for i in closed}
    cycles = list(range(n))
    for block in map(sorted, orbs):
        for a, b in zip(block, block[1:] + block[:1]):
            cycles[a] = b
    moved = (tuple(cycles),) if len(orbs) < len(closed) else ()
    units = [[int(i == j) for i in range(n)] for j in closed]
    return cocycle_kernel_order(ambient.diag, moved, units)


def kernel_nondegenerate(pairing):
    """Both radicals of the pairing are trivial, by kernel orders: no
    nonzero element of either group pairs to zero with every generator of
    the other.  Raises DegeneratePairingError otherwise.  The reference for
    the block check ``CharacterPairing.verify_nondegenerate``."""
    if pairing.left.order != pairing.right.order:
        raise DegeneratePairingError(pairing.matrix, "group orders differ")
    sides = ((pairing, "a nonzero character vanishes on the whole group"),
             (pairing.swapped(), "a nonzero element is killed by every character"))
    for side, what in sides:
        left, right = side.left, side.right
        rows = [side._congruence(a) for a in left.stratum(())[0]]  # K_empty = G
        if kernel_order(right.congruences + rows, right.n, right.exponent) != 1:
            raise DegeneratePairingError(pairing.matrix, what)


def pairing_value(pairing, v, w):
    """The pairing of v and w, v . (E^T w) mod 1, a rational in [0, 1)."""
    if v not in pairing.left:
        raise MembershipError("left argument not in the group")
    if w not in pairing.right:
        raise MembershipError("right argument not in the dual group")
    L1 = pairing.left.exponent
    L2 = pairing.right.exponent
    ew = matvec([list(r) for r in pairing.matrix.rows], list(v))
    total = sum(a * b for a, b in zip(ew, w))
    return Fraction(total, L1 * L2) % 1


def brute_annihilator(pairing, subgroup_elements):
    """Characters of the right group pairing to zero with every given element."""
    return frozenset(w for w in pairing.right.elements
                     if all(pairing_value(pairing, v, w) == 0 for v in subgroup_elements))


def brute_span(group, generators):
    """The subgroup the generators generate, one generator at a time."""
    found = frozenset({group.zero})
    for g in generators:
        found = _adjoin(group, found, g)
    return found


def _adjoin(group, h, g):
    """<h, g> for a subgroup h: the multiples of g before the first in h move
    h onto its other cosets."""
    shifts = []
    x = g
    while x not in h:
        shifts.append(x)
        x = group.add(x, g)
    return h.union(group.add(a, s) for a in h for s in shifts)


def stratum_key(group, subset):
    """The Hermite key of the stratum kernel K_I, the elements of G vanishing
    on the subset, by solving G's congruences: the reference for the closed
    form ``DiagonalGroup.stratum_kernel``.

    The congruences are solved on the free coordinates, those outside the
    subset, alone: the lattice is (L.Z)^subset plus that kernel.  The
    kernel's key spread over the free coordinates, with the row L.e_i for
    each i of the subset in between, is triangular and reduced, so it is
    the lattice's own key.
    """
    n, L = group.n, group.exponent
    fixed = set(subset)
    free = [i for i in range(n) if i not in fixed]
    kernel = kernel_mod([[row[i] for i in free] for row in group.congruences],
                        len(free), L)
    key = [[0] * n for _ in range(n)]
    for i in fixed:
        key[i][i] = L
    for i, row in zip(free, kernel):
        for j, x in zip(free, row):
            key[i][j] = x
    return tuple(map(tuple, key))


def stacked_kernel_mod(rows, n, m):
    """The Hermite key of {x in (Z/m)^n : r.x = 0 mod m for every row r},
    from one key k + n columns wide for the k rows A.

    The vectors (A.e_i, e_i) and m.Z^(k+n) span a lattice whose vectors
    with k leading zeros are the (0, x) with A.x = 0 mod m.  In its Hermite
    key the rows past the k-th span exactly those, so their last n columns
    are the kernel's own key.
    """
    k = len(rows)
    stacked = [[row[i] for row in rows] + [int(i == j) for j in range(n)]
               for i in range(n)]
    return tuple(row[k:] for row in hermite_key(stacked, k + n, m)[k:])


def check_hermite_keys(group, generator_sets):
    """Hermite keys against listed subgroups, for each set of generators.

    Keys must be equal exactly when the listed subgroups are, a key must
    contain exactly the listed elements, its pivots must give the listed
    order, and listing it must give the listed elements.  Returns the
    number of distinct subgroups; raises AssertionError on any mismatch.
    """
    n, L = group.n, group.exponent
    listed = {}
    for gens in generator_sets:
        elements = brute_span(group, gens)
        key = hermite_key(gens, n, L)
        if listed.setdefault(key, elements) != elements:
            raise AssertionError("one key %s for two subgroups" % (key,))
        if hermite_order(key, L) != len(elements):
            raise AssertionError("key %s gives order %d, listed %d"
                                 % (key, hermite_order(key, L), len(elements)))
        if any(in_hermite(key, g) != (g in elements) for g in group.elements):
            raise AssertionError("key %s and its listed subgroup differ" % (key,))
        if group.kernel_elements(key) != elements:
            raise AssertionError("key %s lists another subgroup" % (key,))
    if len(set(listed.values())) != len(listed):
        raise AssertionError("one subgroup under two keys")
    return len(listed)


def all_subgroups_abelian(group):
    """Every subgroup of a small diagonal group, by one-element extensions.

    <h, g> depends only on the coset g + h, so each subgroup h is extended
    by one element of each coset but h itself.
    """
    if group.order > ORACLE_ORDER_BOUND:
        raise SizeBoundError("subgroup enumeration capped at order %d"
                             % ORACLE_ORDER_BOUND)
    trivial = frozenset({group.zero})
    found = {trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        covered = set(h)
        for g in group.elements:
            if g in covered:
                continue
            covered.update(group.add(g, x) for x in h)
            k = _adjoin(group, h, g)
            if k not in found:
                found.add(k)
                queue.append(k)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def lattice_pc_witness(group):
    """The least subgroup, by (order, sorted elements), whose orbit count
    differs from n in parity, as an element set, by a walk over the whole
    subgroup lattice; None when the parity condition holds."""
    n = group.n
    for rep in group.lattice.subgroups:
        if (len({frozenset(p[i] for p in rep) for i in range(n)}) - n) % 2:
            return rep
    return None


def split_subgroup_pairs(group, perms):
    """All well-formed (H, T) pairs over a small group, without deduplication."""
    pairs = []
    subgroups = all_subgroups_abelian(group)
    lattice = perms.lattice
    for t_set in lattice.subgroups:
        for h in subgroups:
            if all(frozenset(perm_act(t, x) for x in h) == h for t in t_set):
                pairs.append((h, t_set))
    return pairs


class RestrictedPolynomial(namedtuple("RestrictedPolynomial", "variables monomials full")):
    """A polynomial restricted to a coordinate subspace (and maybe a fixed space).

    ``variables`` are the remaining coordinates: plain 0-based indices for a
    restriction, orbit tuples for a diagonal restriction.  ``monomials`` hold
    (exponent vector over those coordinates, coefficient), sorted descending.
    ``full`` means the monomial count equals the coordinate count.
    """

    __slots__ = ()

    @property
    def nvars(self):
        return len(self.variables)

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


def diagonal_restrict(restricted, perms):
    """Identify the variables of f^I along the orbits of a permutation group.

    ``restricted`` is f^I, as ``restrict`` returns it; ``perms`` is a PermGroup
    acting on all n variables; it must preserve the subset and f^I.  Monomials
    whose exponent vectors become equal are merged by summing coefficients.
    """
    subset = restricted.variables
    inside = set(subset)
    for p in perms.generators:
        if {p[j] for j in inside} != inside:
            raise NotInvariantError("group does not preserve the subset")
    if non_symmetry(subset, restricted.monomials, perms) is not None:
        raise NotInvariantError("group does not preserve the restricted polynomial")
    orbs = orbits(perms, subset)
    column = {v: k for k, orb in enumerate(orbs) for v in orb}
    merged = {}
    for mono, coeff in restricted.monomials:
        folded = [0] * len(orbs)
        for pos, e in enumerate(mono):
            folded[column[subset[pos]]] += e
        key = tuple(folded)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    monos = tuple(sorted(((m, c) for m, c in merged.items() if c != 0), reverse=True))
    return RestrictedPolynomial(tuple(orbs), monos, full=len(monos) == len(orbs))


def stratum_chi_fixed(restricted, perms):
    """Euler characteristic of the T-fixed part of the fibre on an open stratum,
    by restriction and fold: the slow reference for ``euler.fixed_chi``.

    ``restricted`` is f^I.  Zero unless its fold along T's orbits is full,
    which it never is when f^I is not and T preserves f (T then permutes the
    monomials of f^I as it permutes their anchors); then (-1)^(orbits-1)
    |folded determinant|.
    """
    if not restricted.variables:
        raise ValueError("the empty stratum has no fibre points")
    folded = diagonal_restrict(restricted, perms)
    if not folded.full:
        return 0
    return (-1) ** (folded.nvars - 1) * abs(folded.determinant())


def milnor_orlik_chi(matrix, subset, t_group):
    """chi of the T-fixed part of the Milnor fibre of f^I, over all of C^I,
    for a subset I on which f^I is full: 1 + (-1)^(k-1) prod_O (1/q_O - 1)
    over T's k orbits O on I, the Milnor number of f^I on T's fixed space
    by Milnor-Orlik.  Its variables are the orbits, each of the weight q_O
    that ``polynomials.weights`` gives f^I at the orbit's points; a weight
    of 0, as x1*x2 + x2 has, is refused.  The orbits are read off T's
    element list."""
    restricted = restrict(matrix, subset)
    if not restricted.full:
        raise ValueError("f^I is not full on %s" % (subset,))
    q = dict(zip(restricted.variables,
                 weights(ExponentMatrix([m for m, _c in restricted.monomials]))))
    if not all(q.values()):
        raise ValueError("f^I has a variable of weight 0 on %s" % (subset,))
    orbs = {min(t[i] for t in t_group.elements) for i in subset}
    return 1 + (-1) ** (len(orbs) - 1) * prod(1 / q[i] - 1 for i in orbs)


def fixed_point_euler(matrix, perms, h_elements, t_elements):
    """chi of the (H x| T)-fixed part of the fibre, summed stratum by stratum.

    Independent of the Burnside bookkeeping: a stratum contributes exactly
    when H acts trivially on it and T preserves it, and then contributes the
    T-fixed determinant count.
    """
    matrix = matrix.anchored()
    n = matrix.n
    t_group = perms.subgroup(t_elements)
    total = 0
    for mask in range(1, 1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if any(any(h[i] != 0 for i in subset) for h in h_elements):
            continue
        if any({t[i] for i in subset} != set(subset) for t in t_elements):
            continue
        total += stratum_chi_fixed(restrict(matrix, subset), t_group)
    return total


def check_fixed_point_consistency(analysis):
    """Marks of the assembled invariant against direct stratum sums.

    For every split class of the ambient group, the weighted sum of marks of
    the computed equivariant Euler characteristic must equal the fixed-point
    Euler characteristic computed directly from the strata.  Returns the
    number of classes checked; raises AssertionError on any mismatch.
    """
    ambient = analysis.ambient
    if ambient.order > CONSISTENCY_ORDER_BOUND:
        raise SizeBoundError("consistency check capped at order %d"
                             % CONSISTENCY_ORDER_BOUND)
    group = analysis.group
    done = set()
    checked = 0
    for h, t in split_subgroup_pairs(group, analysis.perms):
        probe = key_class(ambient, hermite_key(h, group.n, group.exponent), t)
        if probe in done:
            continue
        done.add(probe)
        lhs = sum(c * mark(cls, probe)
                  for cls, c in analysis.element.coefficients.items())
        rhs = fixed_point_euler(analysis.matrix, analysis.perms,
                                probe.h_elements, probe.t_elements)
        if lhs != rhs:
            raise AssertionError(
                "fixed-point mismatch on %r: marks give %d, strata give %d"
                % (probe, lhs, rhs))
        checked += 1
    return checked
