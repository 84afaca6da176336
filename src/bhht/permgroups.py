"""Permutation groups on {0..n-1}: lattices, conjugacy classes, parity condition.

Permutations are tuples p with p[i] = image of point i.  Cycle notation in
text is 1-based, e.g. ``(12)(34)``.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, SizeBoundError

DEFAULT_ORDER_BOUND = 10 ** 4


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


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


def closure(generators, n, bound=None):
    els = {identity_perm(n)}
    frontier = [g for g in generators if g not in els]
    els.update(frontier)
    while frontier:
        nxt = []
        for g in generators:
            for h in frontier:
                prod = compose(g, h)
                if prod not in els:
                    els.add(prod)
                    nxt.append(prod)
                    if bound is not None and len(els) > bound:
                        raise SizeBoundError(
                            "group order exceeds bound %d" % bound)
        frontier = nxt
    return frozenset(els)


class PermGroup:
    """A permutation group with its full element list."""

    def __init__(self, n, generators=(), bound=DEFAULT_ORDER_BOUND, _elements=None):
        self.n = n
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(n)):
                raise ValueError("not a permutation of 0..%d: %s" % (n - 1, g))
        if _elements is None:
            _elements = closure(self.generators, n, bound)
        elif bound is not None and len(_elements) > bound:
            raise SizeBoundError("group order exceeds bound %d" % bound)
        self.element_set = frozenset(_elements)
        self.elements = tuple(sorted(self.element_set))
        self.order = len(self.elements)

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
        els = frozenset(tuple(p) for p in elements)
        gens = generating_set(els)
        return PermGroup(self.n, gens, bound=None, _elements=els)

    @cached_property
    def lattice(self):
        return SubgroupLattice(self)


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
    n = len(next(iter(elements)))
    gens = []
    have = {identity_perm(n)}
    for p in sorted(elements):
        if p not in have:
            gens.append(p)
            have = closure(gens, n, bound=None)
            if len(have) == len(elements):
                break
    return tuple(gens)


class SubgroupLattice:
    """All subgroups of a small group, with conjugacy classes and normalizers.

    Enumeration extends already-found subgroups by single elements, starting
    from the cyclic subgroups, until closure; this finds every subgroup since
    any subgroup is reached by adjoining its generators one at a time.
    """

    def __init__(self, group):
        self.group = group
        self.subgroups = self._enumerate()
        self._index = {s: i for i, s in enumerate(self.subgroups)}
        self._classes = None
        self._normalizers = {}

    def _enumerate(self):
        G = self.group
        n = G.n
        found = {frozenset({identity_perm(n)})}
        queue = []
        for g in G.elements:
            cyc = closure([g], n, bound=None)
            if cyc not in found:
                found.add(cyc)
                queue.append(cyc)
        while queue:
            H = queue.pop()
            if len(H) == G.order:
                continue
            gens_h = list(generating_set(H))
            covered = set(H)
            for g in G.elements:
                if g in covered:
                    continue
                K = closure(gens_h + [g], n, bound=None)
                if K not in found:
                    found.add(K)
                    queue.append(K)
                # skip the rest of the double coset H g H
                covered.update(compose(h1, compose(g, h2)) for h1 in H for h2 in H)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def __len__(self):
        return len(self.subgroups)

    @property
    def conjugacy_classes(self):
        """List of classes; each class is a sorted list of subgroup indices."""
        if self._classes is None:
            G = self.group
            unassigned = set(range(len(self.subgroups)))
            classes = []
            while unassigned:
                i = min(unassigned)
                orbit = {i}
                H = self.subgroups[i]
                for g in G.elements:
                    img = frozenset(conjugate(g, h) for h in H)
                    orbit.add(self._index[img])
                classes.append(sorted(orbit))
                unassigned -= orbit
            classes.sort(key=lambda cls: (len(self.subgroups[cls[0]]),
                                          self.class_key(cls)))
            self._classes = classes
        return self._classes

    def class_key(self, cls):
        return min(tuple(sorted(self.subgroups[i])) for i in cls)

    def normalizer(self, subgroup):
        H = frozenset(subgroup)
        if H not in self._normalizers:
            els = {g for g in self.group.elements
                   if all(conjugate(g, h) in H for h in H)}
            self._normalizers[H] = frozenset(els)
        return self._normalizers[H]


# -- parity condition -------------------------------------------------------------


def orbits(group, points):
    """Orbits of the group on a point set it preserves, as sorted tuples.

    The orbits are found by walking the generators and come out ordered by
    their least points.
    """
    remaining = set(points)
    out = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for p in group.generators:
                w = p[v]
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        out.append(tuple(sorted(orbit)))
        remaining -= orbit
    return out


def orbit_count(group, points):
    """Number of group orbits on the point set; group must preserve it."""
    points = set(points)
    for p in group.generators:
        if {p[i] for i in points} != points:
            raise ValueError("group does not preserve the point set")
    return len(orbits(group, points))


@dataclass(frozen=True)
class PCResult:
    satisfies: bool
    witness: PermGroup | None

    def __bool__(self):
        return self.satisfies


def pc_check(group):
    """Parity condition: every subgroup fixes a subspace of dimension = n mod 2.

    The fixed-space dimension of a subgroup equals its orbit count on the
    points, so the check is purely combinatorial.  Returns a violating
    subgroup as witness when the condition fails: the least violating
    subgroup by (order, sorted elements).  Orbit counts are invariant under
    conjugation, so that is the least member of the first violating
    conjugacy class, and no classes need to be formed.  The orbit of i under
    a subgroup is the set of its images p(i).
    """
    n = group.n
    for rep in group.lattice.subgroups:
        orbits = {frozenset(p[i] for p in rep) for i in range(n)}
        if (len(orbits) - n) % 2 != 0:
            return PCResult(False, group.subgroup(rep))
    return PCResult(True, None)


def orbits_on_subsets(group):
    """Orbits of the group on all subsets of {0..n-1}.

    Returns a list of (representative, stabilizer, orbit size) sorted by
    (representative size, representative); the representative is the
    lexicographically least sorted tuple in its orbit.
    """
    n = group.n
    seen = set()
    out = []
    for mask in range(1 << n):
        base = frozenset(i for i in range(n) if mask >> i & 1)
        if base in seen:
            continue
        orbit = {base}
        frontier = [base]
        while frontier:
            cur = frontier.pop()
            for p in group.generators or (identity_perm(n),):
                img = frozenset(p[i] for i in cur)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        rep = min(orbit, key=lambda s: tuple(sorted(s)))
        stab = group.subgroup([p for p in group.elements
                               if {p[i] for i in rep} == set(rep)])
        assert group.order == len(orbit) * stab.order
        out.append((tuple(sorted(rep)), stab, len(orbit)))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out
