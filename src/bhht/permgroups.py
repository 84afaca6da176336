"""Permutation groups on {0..n-1}: subset orbits, subgroup classes, parity condition.

Permutations are tuples p with p[i] = image of point i.  Cycle notation in
text is 1-based, e.g. ``(12)(34)``.
"""

from collections import namedtuple
from functools import cached_property
from operator import itemgetter, ne

from .errors import ParseError, SizeBoundError

DEFAULT_ORDER_BOUND = 10 ** 4


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """p after q."""
    return tuple([p[i] for i in q])


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugate(s, t):
    """s t s^-1."""
    return compose(compose(s, t), inverse(s))


def parse_cycles(text, n):
    """Parse 1-based cycle notation like ``(12)(34)`` or ``(1 10 3)``."""
    s = text.strip()
    if s in ("e", "()", ""):
        return identity_perm(n)
    if not s.startswith("("):
        raise ParseError("bad cycle notation %r" % text)
    images = list(range(n))
    depth_chunks = []
    for chunk in s.replace(")(", ")|(").split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ParseError("bad cycle notation %r" % text)
        inner = chunk[1:-1].strip()
        try:
            if any(c in inner for c in ", "):
                pts = [int(t) for t in inner.replace(",", " ").split()]
            else:
                pts = [int(c) for c in inner]
        except ValueError as exc:
            raise ParseError("bad point in cycle notation %r" % text) from exc
        if len(pts) < 2:
            raise ParseError("cycle with fewer than 2 points in %r" % text)
        pts0 = [p - 1 for p in pts]
        if any(p < 0 or p >= n for p in pts0):
            raise ParseError("point out of range in %r (n=%d)" % (text, n))
        if len(set(pts0)) != len(pts0):
            raise ParseError("repeated point in cycle %r" % chunk)
        depth_chunks.append(pts0)
    flat = [p for c in depth_chunks for p in c]
    if len(set(flat)) != len(flat):
        raise ParseError("cycles are not disjoint in %r" % text)
    for cyc in depth_chunks:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


def cycle_notation(p):
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        cycles.append(cyc)
    if not cycles:
        return "()"
    sep = "" if n <= 9 else " "
    return "".join("(" + sep.join(str(x + 1) for x in c) + ")" for c in cycles)


class PermGroup:
    """A permutation group with its full element list."""

    def __init__(self, n, generators=(), _elements=None):
        self.n = n
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(n)):
                raise ValueError("not a permutation of 0..%d: %s" % (n - 1, g))
        if _elements is None:
            _elements = orbit(identity_perm(n), self.generators, compose,
                              DEFAULT_ORDER_BOUND)
        self.element_set = frozenset(_elements)
        self.elements = tuple(sorted(self.element_set))
        self.order = len(self.elements)
        # element set -> subgroup object, shared by a group and its subgroups
        self._subgroups = {self.element_set: self}

    def __contains__(self, p):
        return tuple(p) in self.element_set

    def __len__(self):
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self.n == other.n
                and self.element_set == other.element_set)

    def __hash__(self):
        return hash((self.n, self.element_set))

    def __repr__(self):
        gens = ",".join(cycle_notation(g) for g in self.generators) or "e"
        return "PermGroup(n=%d, <%s>, order %d)" % (self.n, gens, self.order)

    def is_subgroup_of(self, other):
        return self.n == other.n and self.element_set <= other.element_set

    def subgroup(self, elements):
        """The subgroup with these elements: one object per element set, so
        equal subgroups share one lattice, and a group is its own subgroup."""
        els = frozenset(elements)
        sub = self._subgroups.get(els)
        if sub is None:
            sub = PermGroup(self.n, generating_set(els), _elements=els)
            sub._subgroups = self._subgroups
            self._subgroups[els] = sub
        return sub

    @cached_property
    def lattice(self):
        return SubgroupLattice(self)

    # subset -> (its representative, s with s(subset) = representative, the
    # representative's stabilizer), and representative -> its orbit's
    # members, for the orbits walked so far; made on the first walk, so a
    # group that walks none carries none
    _walked = None
    _orbits = None
    # point tuple -> the group's orbits on it (``orbits``), made on first use
    _point_orbits = None

    def subset_orbit(self, subset):
        """(representative, s, stabilizer) for a subset given as a sorted tuple.

        The representative is the lexicographically least sorted tuple in
        the subset's orbit, and carries itself by the identity; s carries
        the subset to it, and the stabilizer is the representative's.  The
        orbit is walked the first time one of its members is asked for, and
        the answer is kept for every member, and the members for the orbit
        (``orbit_carriers``).  The walk keeps, for each subset it meets, a p
        carrying the subset asked for there, so s is the representative's p
        after the member's p inverted.  The stabilizer is the subgroup of
        the elements that fix the representative, one object per element
        set (``subgroup``): the group itself for a subset it fixes.
        """
        walked = self._walked
        if walked is None:
            walked = self._walked = {}
            self._orbits = {}
        known = walked.get(subset)
        if known is not None:
            return known
        identity = identity_perm(self.n)
        reach = {subset: identity}
        frontier = [subset]
        while frontier:
            nxt = []
            for g in self.generators:
                for x in frontier:
                    y = tuple(sorted([g[i] for i in x]))
                    if y not in reach:
                        reach[y] = compose(g, reach[x])
                        nxt.append(y)
            frontier = nxt
        rep = min(reach)
        inside = set(rep)
        stab = self.subgroup([p for p in self.elements if subset_image(p, rep) == inside])
        assert self.order == len(reach) * stab.order
        to_rep = reach[rep]
        self._orbits[rep] = list(reach)
        walked.update((member, (rep, compose(to_rep, inverse(p)), stab))
                      for member, p in reach.items())
        return walked[subset]

    def orbit_carriers(self, subset):
        """The representative's stabilizer, and the members of the subset's
        orbit in the order ``subset_orbit`` walked them; each member's
        carrier to the representative is ``subset_orbit``'s s."""
        rep, _s, stab = self.subset_orbit(subset)
        return stab, self._orbits[rep]

    def orbits_of(self, subsets):
        """The orbits that meet the subsets, each given as sorted tuples, as
        (representative, stabilizer, orbit size) sorted by (representative
        size, representative)."""
        stabilizers = {}
        for subset in subsets:
            rep, _s, stab = self.subset_orbit(subset)
            stabilizers[rep] = stab
        return [(rep, stab, self.order // stab.order)
                for rep, stab in sorted(stabilizers.items(),
                                        key=lambda item: (len(item[0]), item[0]))]


NAMED_GROUPS = {
    "A3": ["(123)"],
    "A4": ["(123)", "(12)(34)"],
    "A5": ["(12345)", "(123)"],
    "D10": ["(12345)", "(14)(23)"],
    "Z2x2": ["(12)(34)", "(13)(24)"],
}


def group_from_generators(n, gens):
    """Build a group from cycle-notation strings, permutation tuples or a name."""
    parsed = []
    for g in gens:
        if isinstance(g, str):
            name = g.strip()
            if name in NAMED_GROUPS:
                parsed.extend(parse_cycles(t, n) for t in NAMED_GROUPS[name])
            else:
                parsed.append(parse_cycles(name, n))
        else:
            parsed.append(tuple(g))
    return PermGroup(n, parsed)


def generating_set(elements):
    """Small deterministic generating set of a subgroup given as a set."""
    if not elements:
        return ()
    identity = identity_perm(len(next(iter(elements))))
    gens = []
    have = {identity}
    for p in sorted(elements):
        if p not in have:
            gens.append(p)
            have = orbit(identity, gens, compose)
            if len(have) == len(elements):
                break
    return tuple(gens)


def orbit(seed, generators, act, bound=None):
    """The orbit of seed under the group the generators generate, as a frozenset.

    act(g, x) is the image of x under g.  The orbit is found by walking the
    generators frontier by frontier; in a finite group every inverse is a
    power, so no inverses are needed.  A group is the orbit of its identity
    under left multiplication, e.g. orbit(identity, generators, compose).
    More than ``bound`` points raise SizeBoundError.
    """
    found = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for g in generators:
            for x in frontier:
                y = act(g, x)
                if y not in found:
                    found.add(y)
                    nxt.append(y)
                    if bound is not None and len(found) > bound:
                        raise SizeBoundError(
                            "group order exceeds bound %d" % bound)
        frontier = nxt
    return frozenset(found)


def subset_image(p, subset):
    """The image of a set of points under a permutation."""
    return frozenset(p[i] for i in subset)


class SubgroupLattice:
    """All subgroups of a small group, as their conjugacy classes.

    ``classes`` maps each class's key, its least member as a sorted tuple,
    to its members as element sets, sorted; the classes are listed by
    (order, key).  The classes are found on the indices of the group's
    sorted elements (``_subgroup_classes``), through a Cayley table dropped
    once they are.  The order of the normalizer of a subgroup is
    |group| / |its class|.
    """

    def __init__(self, group):
        self.group = group
        els = group.elements
        index = {p: i for i, p in enumerate(els)}
        # row q of the table is p after q for every p: p read at the points
        # of q, one getter mapped over the elements; on one point a getter
        # returns no tuple, and p after q is p
        mul = [list(map(index.__getitem__, map(itemgetter(*q) if len(q) > 1 else tuple, els)))
               for q in els]
        classes = _subgroup_classes(mul, [index[g] for g in group.generators])
        # index order is element order, so a sorted index set reads as the
        # sorted tuple of its elements
        listed = sorted((sorted(tuple([els[i] for i in sorted(s)]) for s in cls)
                         for cls in classes), key=lambda cls: (len(cls[0]), cls[0]))
        self.classes = {cls[0]: [frozenset(s) for s in cls] for cls in listed}

    @cached_property
    def key_of(self):
        """Each subgroup, as an element set, to the key of its class."""
        return {s: key for key, members in self.classes.items() for s in members}

    @cached_property
    def subgroups(self):
        """Every subgroup, as an element set, by (order, sorted elements)."""
        return sorted(self.key_of, key=lambda s: (len(s), sorted(s)))


def _subgroup_classes(mul, generators):
    """Every conjugacy class of subgroups, as a frozenset of index sets, of
    the group whose Cayley table mul[a][b] is the index of element b after
    element a, for its elements in sorted order (so the identity is index
    0), and whose generators have the given indices.  The subgroups and
    their classes are the same for either order of the product.

    One walk extends one member H of each class by one element g of each
    double coset HgH, closing H and g.  A closure that no class holds yet
    brings its whole class, its orbit under conjugation, and goes on to be
    extended in turn.  Every class is reached: a subgroup K > 1 is H and g
    for a maximal subgroup H < K and g in K - H, and if sHs^-1 is the member
    of H's class that was extended, extending it by sgs^-1 gives sKs^-1.
    """
    order = len(mul)
    whole = frozenset(range(order))
    inv = [row.index(0) for row in mul]

    def product(a, b):
        return mul[a][b]

    def conjugate_set(g, s):
        row, g_inv = mul[g], inv[g]
        return frozenset([mul[row[h]][g_inv] for h in s])

    def closure(gens):
        """The subgroup the generators generate; past half the group it
        lies in no proper subgroup (Lagrange), so the walk stops there."""
        try:
            return orbit(0, gens, product, bound=order // 2)
        except SizeBoundError:
            return whole

    trivial = frozenset({0})
    # the extended member of each class, with the generators it was reached with
    gens = {trivial: ()}
    classes = [frozenset([trivial])]
    met = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        if len(H) == order:
            continue
        rows = [mul[h] for h in H]
        covered = set(H)
        for g in range(order):
            if g in covered:
                continue
            s = closure(gens[H] + (g,))
            if s not in met:
                cls = orbit(s, generators, conjugate_set)
                met.update(cls)
                classes.append(cls)
                gens[s] = gens[H] + (g,)
                queue.append(s)
            # skip the rest of the double coset H g H
            gH = [mul[g][h] for h in H]
            covered.update(row[x] for row in rows for x in gH)
    return classes


# -- parity condition -------------------------------------------------------------


def orbits(group, points):
    """Orbits of the group on a point set it preserves, as a tuple of sorted
    tuples ordered by their least points: walked once per group object and
    tuple of the points, and the same tuple returned after that."""
    points = tuple(points)
    known = group._point_orbits
    if known is None:
        known = group._point_orbits = {}
    out = known.get(points)
    if out is None:
        out = known[points] = _walk_orbits(group, points)
    return out


def _walk_orbits(group, points):
    """``orbits`` by one breadth-first walk over the generators from each
    least point not yet reached."""
    generators = group.generators
    reached = set()
    out = []
    for start in sorted(points):
        if start in reached:
            continue
        reached.add(start)
        found = [start]
        for x in found:  # the list grows as the walk reaches new points
            for g in generators:
                y = g[x]
                if y not in reached:
                    reached.add(y)
                    found.append(y)
        out.append(tuple(sorted(found)))
    return tuple(out)


def orbit_count(group, points):
    """Number of group orbits on the point set; group must preserve it."""
    inside = set(points)
    for p in group.generators:
        if {p[i] for i in inside} != inside:
            raise ValueError("group does not preserve the point set")
    return len(orbits(group, points))


class PCResult(namedtuple("PCResult", "satisfies witness")):
    """The parity verdict, and a violating subgroup (a PermGroup) or None."""

    __slots__ = ()

    def __bool__(self):
        return self.satisfies


def pc_check(group):
    """Parity condition: every subgroup fixes a subspace of dimension = n mod 2.

    The fixed-space dimension of a subgroup equals its orbit count on the
    points, so the check is purely combinatorial.  Returns a violating
    subgroup as witness when the condition fails: the least violating
    subgroup by (order, sorted elements).  The trivial subgroup has n
    orbits, and <t> for an involution t has n minus the number of its
    2-cycles, so it violates exactly when t is odd: the least odd involution
    names the witness, if there is one, and no lattice is built.  Otherwise
    the lattice's classes are read in order, each by its least member:
    orbit counts are invariant under conjugation, so the least member of
    the first violating class is the least violating subgroup.  The orbit
    of i under a subgroup is the set of its images p(i).
    """
    n = group.n
    identity = identity_perm(n)
    for t in group.elements:
        # an odd number of 2-cycles moves 2 mod 4 points
        if sum(map(ne, t, identity)) % 4 == 2 and compose(t, t) == identity:
            return PCResult(False, group.subgroup([identity, t]))
    for key in group.lattice.classes:
        orbits = {frozenset(p[i] for p in key) for i in range(n)}
        if (len(orbits) - n) % 2 != 0:
            return PCResult(False, group.subgroup(key))
    return PCResult(True, None)
