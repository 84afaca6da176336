"""Slow, independent cross-checks: naive marks, naive conjugacy, fixed-point sums.

These deliberately avoid the closed forms and canonical representatives of
the main code paths so they can serve as oracles for it; everything here is
plain enumeration over small groups, including the element list of the
semidirect product G x| S, which the main paths never build.
"""

from .burnside import mark
from .diaggroups import perm_act, subgroup_generated
from .errors import SizeBoundError
from .euler import stratum_chi_fixed
from .permgroups import compose, conjugate, inverse

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
    return (ambient.diag.neg(perm_act(si, v)), si)


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


def naive_mark(kprime, k):
    """Fixed cosets counted with explicit coset sets, no closed form."""
    ambient = kprime.ambient
    members = kprime.subgroup_elements()
    cosets = set()
    covered = set()
    for g in ambient_elements(ambient):
        if g not in covered:
            coset = frozenset(mul(ambient, g, m) for m in members)
            covered |= coset
            cosets.add(coset)
    kelems = k.subgroup_elements()
    count = 0
    for coset in cosets:
        if all(frozenset(mul(ambient, x, g) for g in coset) == coset for x in kelems):
            count += 1
    return count


def brute_conjugating_perm(ambient, h1, t1, h2, t2):
    """Some s in S conjugating (H1, T1) onto (H2, T2), by a scan of S, or None."""
    h1, h2 = frozenset(h1), frozenset(h2)
    t1, t2 = frozenset(t1), frozenset(t2)
    for s in ambient.perms.elements:
        if (frozenset(conjugate(s, t) for t in t1) == t2
                and frozenset(perm_act(s, h) for h in h1) == h2):
            return s
    return None


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


def brute_annihilator(pairing, subgroup_elements):
    """Characters of the right group pairing to zero with every given element."""
    return frozenset(w for w in pairing.right.elements
                     if all(pairing.value(v, w) == 0 for v in subgroup_elements))


def all_subgroups_abelian(group):
    """Every subgroup of a small diagonal group, by one-element extensions."""
    if group.order > ORACLE_ORDER_BOUND:
        raise SizeBoundError("subgroup enumeration capped at order %d"
                             % ORACLE_ORDER_BOUND)
    trivial = frozenset({group.zero})
    found = {trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        for g in group.elements:
            if g in h:
                continue
            k = subgroup_generated(group, list(h) + [g])
            if k not in found:
                found.add(k)
                queue.append(k)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


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
        total += stratum_chi_fixed(matrix, subset, t_group)
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
    from .burnside import HTClass
    done = set()
    checked = 0
    for h, t in split_subgroup_pairs(analysis.group, analysis.perms):
        probe = HTClass(ambient, h, t)
        if probe.tag in done:
            continue
        done.add(probe.tag)
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
