"""Slow, independent cross-checks: naive marks, naive conjugacy, Milnor-Orlik.

These deliberately avoid the closed forms and canonical representatives of
the main code paths so they can serve as oracles for it; everything here is
plain enumeration over small groups, including the element list of the
semidirect product G x| S, which the main paths never build, except the
fixed-point chi, which is Milnor-Orlik's closed form in the weights of f,
and the integer linear algebra the main paths read off the blocks: Bareiss
determinants and Cramer's weights.  Each quantity has one reference here.

Memos: ``group_elements`` keeps the latest four listings.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product, repeat
from math import prod
from operator import mod, sub
from types import SimpleNamespace

from .burnside import BurnsideElement, HTClass, mark
from .diaggroups import CharacterPairing, perm_act
from .errors import (AmbientMismatchError, DegeneratePairingError, MembershipError,
                     SizeBoundError)
from .intmat import (hermite_generators, hermite_key, hermite_order, in_hermite, kernel_mod,
                     matvec)
from .permgroups import compose, conjugate, generating_set, identity_perm, inverse, orbit
from .polynomials import ExponentMatrix

# Every enumeration here lists a whole group; none runs on one larger than this.
ORACLE_ORDER_BOUND = 20000
# The fixed-point consistency sweep runs only on ambient groups up to this order.
CONSISTENCY_ORDER_BOUND = 2000


def add(group, a, b):
    """a + b in a group of vectors mod its exponent."""
    L = group.exponent
    return tuple((x + y) % L for x, y in zip(a, b))


def mul(ambient, a, b):
    """(v, s)(w, t) = (v + s.w, st) in G x| S."""
    (v, s), (w, t) = a, b
    return (add(ambient.diag, v, perm_act(s, w)), compose(s, t))


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


@lru_cache(maxsize=4)
def group_elements(group):
    """Every element of a diagonal group, sorted, listed from its key;
    refused past ``DEFAULT_GROUP_BOUND`` (``DiagonalGroup.kernel_elements``).
    The latest few listings are kept, as scans of one group come in runs."""
    return tuple(sorted(group.kernel_elements(group.key)))


def key_of_elements(group, elements):
    """The Hermite key of a subgroup of G given as its elements, each joining
    the key when it lies outside it.  Refused unless the elements are all of
    one subgroup: each lies in G, and so in the final key, and there are as
    many distinct ones as the key's order."""
    n, L = group.n, group.exponent
    distinct = frozenset(elements)
    key = hermite_key((), n, L)
    for e in distinct:
        if e not in group:
            raise MembershipError("%s is not in the group" % (e,))
        if not in_hermite(key, e):
            key = hermite_key((*key, e), n, L)
    if hermite_order(key, L) != len(distinct):
        raise MembershipError("%d elements are not a subgroup: they span one of order %d"
                              % (len(distinct), hermite_order(key, L)))
    return key


def ambient_elements(ambient):
    """Every element of a small G x| S, sorted."""
    if ambient.order > ORACLE_ORDER_BOUND:
        raise SizeBoundError("semidirect product of order %d exceeds %d"
                             % (ambient.order, ORACLE_ORDER_BOUND))
    return sorted((v, s) for v in group_elements(ambient.diag)
                  for s in ambient.perms.elements)


def brute_tag(ambient, h_elements, t_elements):
    """Canonical tag of a split subgroup: least (sorted T, sorted H) over all of S."""
    return min((tuple(sorted(conjugate(s, t) for t in t_elements)),
                tuple(sorted(perm_act(s, h) for h in h_elements)))
               for s in ambient.perms.elements)


def carriers(perms, t_gens, target):
    """The s in S with s T s^-1 = target, for T generated by t_gens and a
    target of T's order, by a scan of S."""
    return [s for s in perms.elements
            if all(conjugate(s, t) in target for t in t_gens)]


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
    moves = ([perm_act(s, h) for h in h_gens]
             for s in carriers(perms, t_gens, frozenset(best_t)))
    best_key = min(h_key if all(in_hermite(h_key, h) for h in moved)
                   else hermite_key(moved, n, L) for moved in moves)
    return HTClass(ambient, (best_t, best_key), hermite_generators(best_key, L),
                   hermite_order(best_key, L), frozenset(best_t))


def h_key_of(cls):
    """The Hermite key of a class's H."""
    diag = cls.ambient.diag
    return hermite_key(cls.h_gens, diag.n, diag.exponent)


def h_elements_of(cls):
    """The elements of a class's H, listed from its key."""
    return frozenset(cls.ambient.diag.kernel_elements(h_key_of(cls)))


def key_induction(element, big):
    """``burnside.induction`` by Hermite keys: every class named again by
    ``key_class`` over ``big``, G x| S."""
    if element.ambient.diag is not big.diag:
        raise AmbientMismatchError("induction target does not contain the source")
    out = {}
    for cls, c in element.coefficients.items():
        lifted = key_class(big, h_key_of(cls), cls.t_elements)
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(big, out)


def key_saito_dual(element, target):
    """``burnside.saito_dual`` by Hermite keys: every H replaced by its
    annihilator and the class named again by ``key_class`` over ``target``."""
    if target.perms is not element.ambient.perms:
        raise AmbientMismatchError("the dual lands over the same S")
    pairing = CharacterPairing.between(element.ambient.diag, target.diag)
    out = {}
    for cls, c in element.coefficients.items():
        lifted = key_class(target, pairing.dual_kernel(h_key_of(cls)), cls.t_elements)
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(target, out)


def subgroup_elements(cls):
    """Every element (h, t) of a class's representative H x| T, sorted."""
    return [(h, t) for h in sorted(h_elements_of(cls)) for t in sorted(cls.t_elements)]


def naive_marks(kprime):
    """K -> the mark of K' at K, fixed cosets counted with explicit cosets, no
    closed form: every coset gK' of the listed G x| P gets an id, once per
    K', and it is K-fixed exactly when each generator x of K, (h, e) for h
    among H's and (0, t) for t among T's, keeps its representative g in it:
    x.g has g's id."""
    ambient = kprime.ambient
    members = subgroup_elements(kprime)
    coset_of = {}
    reps = []
    for g in ambient_elements(ambient):
        if g not in coset_of:
            for m in members:
                coset_of[mul(ambient, g, m)] = len(reps)
            reps.append(g)

    def fixed(k):
        generators = ([(h, identity_perm(ambient.diag.n)) for h in k.h_gens]
                      + [(ambient.diag.zero, t) for t in generating_set(k.t_elements)])
        return sum(all(coset_of[mul(ambient, x, g)] == c for x in generators)
                   for c, g in enumerate(reps))
    return fixed


def conjugators_by_scan(kprime, k):
    """#{g in G x| P : g^-1 K g <= K'}, by a scan of P, for K' = K_C' x| T'.

    For K = H x| T and g = (v, s), the conjugate of (h, t) is
    (s^-1(h + t.v - v), s^-1 t s), so g qualifies exactly when
    U = s^-1 T s <= T', H <= s.K_C' = K_s(C'), that is H's generators
    vanish on s(C'), and t.v - v lies in K_s(C') for every t of T.  Writing
    v = s.w, the count over v is #{w in G : u.w - w vanishes on C' for u in
    U}.  U <= T' fixes C', so u.w - w vanishes on C' exactly when w is
    constant on U's orbits in C', and each s adds c_C'(U)
    (``DiagonalGroup.stratum_cocycle_order``).
    """
    ambient = kprime.ambient
    tp = kprime.t_elements
    closed = kprime.closed
    total = 0
    for s in ambient.perms.elements:
        si = inverse(s)
        u = frozenset([compose(si, compose(t, s)) for t in k.t_elements])
        if u <= tp and not any(h[s[i]] for h in k.h_gens for i in closed):
            total += ambient.diag.stratum_cocycle_order(closed, u)
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


def brute_classes(lattice):
    """The lattice's subgroups partitioned into classes by conjugating each
    by every element of the group, in ``SubgroupLattice.classes``' shape:
    each class's least member as a sorted tuple to its members, sorted, the
    classes by (order, key)."""
    classes = {frozenset(frozenset(conjugate(g, h) for h in H) for g in lattice.group.elements)
               for H in lattice.subgroups}
    listed = sorted((sorted(cls, key=sorted) for cls in classes),
                    key=lambda cls: (len(cls[0]), sorted(cls[0])))
    return {tuple(sorted(cls[0])): cls for cls in listed}


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
    """Elements vanishing on the subset, by a scan of the whole group, cut
    down one point of the subset at a time."""
    found = group_elements(group)
    for i in subset:
        found = [e for e in found if not e[i]]
    return frozenset(found)


def brute_cocycle_kernel_order(diag, perms, subgroup):
    """#{w in G : u.w - w lies in the subgroup for every u in perms}, by a
    scan of G, cut down one u at a time."""
    L = diag.exponent
    found = group_elements(diag)
    for u in perms:
        found = [w for w in found
                 if tuple(map(mod, map(sub, perm_act(u, w), w), repeat(L))) in subgroup]
    return len(found)


def kernel_nondegenerate(pairing):
    """Both kernels of the pairing are trivial, from its values: for each
    side, the characters w -> (pairing(g, w)) over the block generators g
    of one group, as w runs over the other group, take as many values as
    that group has elements.  The values are spanned (``brute_span``) from
    those of the generators of the other group's key, solved from its
    matrix's rows (``kernel_mod``) rather than read off its blocks.  Raises
    DegeneratePairingError otherwise.  The reference for the block check
    ``CharacterPairing.verify_nondegenerate``."""
    if pairing.left.order != pairing.right.order:
        raise DegeneratePairingError(pairing.matrix, "group orders differ")
    sides = ((pairing, "a nonzero character vanishes on the whole group"),
             (swapped(pairing), "a nonzero element is killed by every character"))
    for side, what in sides:
        gens = side.left.stratum(())[0]  # K_empty = G
        right = side.right
        m = side.left.exponent * right.exponent
        whole = kernel_mod(right.matrix.rows, right.n, right.exponent)
        values = SimpleNamespace(zero=(0,) * len(gens), exponent=m)
        steps = [tuple(int(pairing_value(side, g, w) * m) for g in gens)
                 for w in hermite_generators(whole, right.exponent)]
        if len(brute_span(values, steps)) != right.order:
            raise DegeneratePairingError(pairing.matrix, what)


def swapped(pairing):
    """The same pairing read from the dual side."""
    return CharacterPairing.between(pairing.right, pairing.left)


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
    return frozenset(w for w in group_elements(pairing.right)
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
        x = add(group, x, g)
    return h.union(add(group, a, s) for a in h for s in shifts)


def check_hermite_keys(group, generator_sets):
    """Hermite keys against listed subgroups, for each set of generators.

    Keys must be equal exactly when the listed subgroups are, a key must
    contain exactly the listed elements, its pivots must give the listed
    order, and listing it must give the listed elements.  Returns the
    number of distinct subgroups; raises AssertionError on any mismatch.
    """
    n, L = group.n, group.exponent
    every = group_elements(group)
    listed = {}
    for gens in generator_sets:
        elements = brute_span(group, gens)
        key = hermite_key(gens, n, L)
        if listed.setdefault(key, elements) != elements:
            raise AssertionError("one key %s for two subgroups" % (key,))
        if hermite_order(key, L) != len(elements):
            raise AssertionError("key %s gives order %d, listed %d"
                                 % (key, hermite_order(key, L), len(elements)))
        if any(in_hermite(key, g) != (g in elements) for g in every):
            raise AssertionError("key %s and its listed subgroup differ" % (key,))
        if frozenset(group.kernel_elements(key)) != elements:
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
    elements = group_elements(group)
    trivial = frozenset({group.zero})
    found = {trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        covered = set(h)
        for g in elements:
            if g in covered:
                continue
            covered.update(add(group, g, x) for x in h)
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


def determinant(a):
    """Determinant of a square integer matrix (Bareiss, fraction free), the
    reference for ``ExponentMatrix.determinant``'s product over blocks."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def brute_anchors(matrix):
    """Each monomial's anchor and successor, by trying every product of the
    monomials' orientations: x_a^p is anchored at a with no successor, and
    a monomial in x_a and x_b at a, linking to b, when b's exponent is 1.
    The first product whose anchors are all the variables, each monomial's
    orientations tried smaller anchor first and the monomials in row order,
    as (anchors, successors) in the form of ``ExponentMatrix.anchors`` and
    ``successors``; None when there is none.  At most 2^n products, so for
    small n only."""
    options = []
    for row in matrix.rows:
        support = [j for j, e in enumerate(row) if e]
        pairs = permutations(support) if len(support) == 2 else ()
        options.append([(support[0], None)] if len(support) == 1
                       else [(a, b) for a, b in pairs if row[b] == 1])
    for choice in product(*options):
        anchors = [a for a, _b in choice]
        if sorted(anchors) == list(range(matrix.n)):
            return dict(enumerate(anchors)), dict(choice)
    return None


def weights(matrix):
    """Rational weights q with E @ q = (1, ..., 1), by Cramer's rule: q_j is
    the determinant of E with column j replaced by ones, over det E; the
    reference for J, the sum over blocks of k_B g_B."""
    det = determinant(matrix.rows)
    if det == 0:
        raise ValueError("singular exponent matrix")
    return tuple(
        Fraction(determinant([row[:j] + (1,) + row[j + 1:] for row in matrix.rows]), det)
        for j in range(matrix.n))


def milnor_orlik_chi(matrix, subset, t_group):
    """chi of the T-fixed part of the Milnor fibre of f^I, over all of C^I,
    for a sorted subset I closed under successors: 1 + (-1)^(k-1) mu over
    T's k orbits O on I, for mu = prod_O (1/q_O - 1) the Milnor number of
    f^I on T's fixed space by Milnor-Orlik.  f^I is the anchored rows of I
    on I's columns, refused when a row of I reaches outside I, and an empty
    I is refused.  Its variables are the orbits, each of the weight q_O that
    Cramer's rule (``weights``) gives f^I at the orbit's points; a weight
    outside (0, 1), where the formula does not hold, is refused.  The
    orbits are read off T's element list."""
    if not subset:
        raise ValueError("the empty stratum has no fibre points")
    rows = matrix.anchored().rows
    inside = set(subset)
    if any(e and j not in inside for a in subset for j, e in enumerate(rows[a])):
        raise ValueError("f^I is not full on %s" % (subset,))
    q = dict(zip(subset, weights(ExponentMatrix([[rows[a][j] for j in subset]
                                                 for a in subset]))))
    if not all(0 < w < 1 for w in q.values()):
        raise ValueError("f^I has a weight outside (0, 1) on %s" % (subset,))
    orbs = {min(t[i] for t in t_group.elements) for i in subset}
    mu = prod(1 / q[i] - 1 for i in orbs)
    return 1 + (-1) ** (len(orbs) - 1) * mu


def fixed_point_euler(matrix, perms, h_elements, t_elements):
    """chi of the (H x| T)-fixed part of the Milnor fibre of f, by Milnor-Orlik.

    The fixed part is the Milnor fibre of f on C^Z(H) meet Fix(T), for Z(H)
    the points where every element of H vanishes, and it is empty when Z(H)
    is.  Z(H) is closed under successors, since h_a = 0 and p.h_a + h_b = 0
    mod 1 on the monomial x_a^p x_b give h_b = 0, and T preserves it, so
    ``milnor_orlik_chi`` counts it.  Nothing here stratifies or marks.
    """
    zeros = tuple(i for i in range(matrix.n) if not any(h[i] for h in h_elements))
    if not zeros:
        return 0
    return milnor_orlik_chi(matrix, zeros, perms.subgroup(t_elements))


def check_fixed_point_consistency(analysis):
    """Marks of the assembled invariant against Milnor-Orlik.

    For every split class of the ambient group, the weighted sum of marks of
    the computed equivariant Euler characteristic must equal the fixed-point
    Euler characteristic in closed form (``fixed_point_euler``).  Returns
    the number of classes checked; raises AssertionError on any mismatch.
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
                                h_elements_of(probe), probe.t_elements)
        if lhs != rhs:
            raise AssertionError(
                "fixed-point mismatch on %r: marks give %d, Milnor-Orlik gives %d"
                % (probe, lhs, rhs))
        checked += 1
    return checked
