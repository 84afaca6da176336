"""The restricted Burnside group of a semidirect product G x| S.

Ambient elements are pairs (v, s) of a diagonal-group element and a
permutation, multiplied by (v, s)(w, t) = (v + s.w, st).  Generators of the
free abelian group are classes of split subgroups H x| T.

On the verdict path every class is [K_I x| T]: K_I is the stratum kernel
of a subset I of the points, the elements vanishing on I (K_empty = G), and
T <= S_I.  K_I is also the kernel of its zero set C = Z(K_I), which
contains I, is fixed by S_I and is the only such set with that kernel; C
is I itself unless some point outside I is fixed by all of K_I.  Since
s.K_I = K_{s(I)}, two such classes are conjugate exactly when some s
carries the one C to the other and T onto the other T.  So a class is
named (C0, key): C0 represents C's orbit under S, and key is T's class key
in the lattice of S_C0.  One step, ``carried``, names [K_C x| T] for any
zero set C: the carrier s of C to C0 that the orbit's walk kept
(``PermGroup.subset_orbit``; zero sets are full, so the stratification has
walked their orbits already) and the key of sTs^-1.  Induction keeps the
name of a stratum's class, and the Saito dual sends K_C to
ann(K_C) = K'_{C^c}, checked once per C, and carries the new zero set.  H
comes with its generators and order in closed form
(``DiagonalGroup.stratum_kernel``), and membership in it is v_i = 0 on C.
No class scans S or computes a Hermite key.  Output orders classes by
``tag`` and prints H by its rows there: the least Hermite rows of
s.K_C = K_s(C) over the s carrying T to its class key, read off C's orbit,
which compare as the sorted listings would (``intmat``), so no H is listed
and no S is scanned.  Only output and the oracles (``oracles.key_class``,
which names a class of any H by Hermite keys and a scan of S) build H's key.

Marks come from Burnside's formula in closed form: conjugation by (v, s)
moves (h, t) to (s^-1(h + t.v - v), s^-1 t s), so fixed cosets are counted
from S and G alone and the semidirect product is never listed.  The class
K' whose cosets are counted is always named by stratum, and one formula
counts every mark: the class formula summed over the orbit of K''s zero
set, as its walk left it, adding c_C'(U) in closed form per conjugate U of
T.  No mark scans S or builds a Hermite key.
"""

from functools import cached_property

from .errors import AmbientMismatchError, StructuralAssumptionViolated
from .intmat import hermite_generators, hermite_key
from .permgroups import conjugate, cycle_notation, generating_set


class SemidirectAmbient:
    """The group G x| S, given by its two factors: equal to another when
    their exponent matrices and the element sets of their S are."""

    def __init__(self, diag, perms):
        if diag.n != perms.n:
            raise AmbientMismatchError("diagonal and permutation degrees differ")
        self.diag = diag
        self.perms = perms
        self.n = diag.n
        self.order = diag.order * perms.order

    def __eq__(self, other):
        return other is self or (isinstance(other, SemidirectAmbient)
                                 and self.diag.matrix == other.diag.matrix
                                 and self.perms.element_set == other.perms.element_set)

    def __hash__(self):
        return hash((self.diag.matrix, self.perms.element_set))


class HTClass:
    """Conjugacy class of a split subgroup H x| T of an ambient G x| P: a name
    and a representative.

    Classes of one ambient are equal when their names are.  On the verdict
    path the class is [K_I x| T], named by stratum (``stratum_class``), and
    ``closed`` is the zero set C with H = K_C; the oracles name a class of
    any H by Hermite keys, and ``closed`` is None.  The representative is
    H x| T: H by its generators and order, T by its element set.  Nothing
    is listed, and only the output order ``tag``, made on first use, builds
    Hermite keys.
    """

    def __init__(self, ambient, name, h_gens, h_order, t_elements, closed=None):
        self.ambient = ambient
        self.name = name
        self.closed = closed
        self._hash = hash(name)  # tuples do not cache their hash
        self.h_gens = h_gens
        self.h_order = h_order
        self.t_elements = t_elements

    @property
    def t_order(self):
        return len(self.t_elements)

    @property
    def order(self):
        return self.h_order * self.t_order

    def __eq__(self, other):
        return (isinstance(other, HTClass) and self.name == other.name
                and self.ambient == other.ambient)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "[G:%d x| S/H:%d x| T:%d]" % (self.ambient.diag.order,
                                             self.h_order, self.t_order)

    @cached_property
    def tag(self):
        """The output order of a class named by stratum: T's class key in the
        lattice of P, and the least Hermite rows (``hermite_generators``) of
        s.H over the s that carry T there.  Since s.K_C = K_s(C), those s.H
        are the K_D for the members D of C's orbit whose carrier takes that
        key into T's class of P_C's lattice (``carried``).  Rows compare as
        sorted subgroups do (``intmat``), so this orders classes by their
        least (sorted T, sorted H) over conjugation; it lists nothing and
        scans no S."""
        if self.closed is None:
            raise ValueError("the output order is read off a class named by stratum")
        perms, diag = self.ambient.perms, self.ambient.diag
        n, L = diag.n, diag.exponent
        best_t = perms.lattice.key_of[self.t_elements]
        target = frozenset(best_t)
        return best_t, min(hermite_generators(hermite_key(diag.stratum(d)[0], n, L), L)
                           for d in perms.orbit_carriers(self.closed)[1]
                           if carried(perms, d, target) == self.name)

    def describe(self):
        """The class for output, read from ``tag``: H by its Hermite rows."""
        diag = self.ambient.diag
        best_t, best_h = self.tag
        return {
            "orbitType": "[G⋊S/H⋊T]",
            "T": sorted(cycle_notation(t) for t in generating_set(best_t)) or ["()"],
            "H": sorted(map(diag.format_element, best_h))
                 or [diag.format_element(diag.zero)],
            "Torder": self.t_order,
            "Horder": self.h_order,
        }


def stratum_class(ambient, subset, t_key):
    """The class [K_I x| T] for a subset I that P fixes, as a sorted tuple,
    and the subgroup T of P with class key ``t_key`` in P's lattice: named
    (Z(K_I), t_key), since P fixes Z(K_I) too."""
    return named_class(ambient, ambient.diag.zero_set(subset), t_key)


def named_class(ambient, closed, t_key):
    """The class named (C, key), for C a zero set of a stratum kernel that
    represents its orbit under P, and a class key of P_C's lattice; a key of
    None (``carried`` for a T that does not fix C) names no class."""
    if t_key is None:
        raise StructuralAssumptionViolated(
            "T does not fix the zero set %s" % (tuple(i + 1 for i in closed),))
    h_gens, h_order = ambient.diag.stratum(closed)
    return HTClass(ambient, (closed, t_key), h_gens, h_order, frozenset(t_key), closed)


def carried(perms, subset, t_elements):
    """(C0, key) for a subset given as a sorted tuple and a group T of
    permutations given by its element set: C0 represents the subset's orbit
    under P, s is the carrier of the subset to C0 that the orbit's walk kept
    (``subset_orbit``), and key is the class key of sTs^-1 in the lattice of
    P_C0, or None unless T fixes the subset."""
    rep, s, stabilizer = perms.subset_orbit(subset)
    if rep != subset:
        t_elements = frozenset([conjugate(s, t) for t in t_elements])
    return rep, stabilizer.lattice.key_of.get(t_elements)


def sorted_by_tag(entries):
    """Tuples led by a class, sorted by the class's ``tag``."""
    return sorted(entries, key=lambda entry: entry[0].tag)


class BurnsideElement:
    """Finitely supported integer combination of split-subgroup classes."""

    def __init__(self, ambient, coefficients=None):
        self.ambient = ambient
        self.coefficients = {}
        if coefficients:
            for cls, c in coefficients.items():
                if c:
                    if cls.ambient != ambient:
                        raise AmbientMismatchError("class over a different group")
                    self.coefficients[cls] = int(c)

    def scale(self, k):
        return BurnsideElement(self.ambient,
                               {cls: k * c for cls, c in self.coefficients.items()})

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and self.ambient == other.ambient
                and self.coefficients == other.coefficients)

    def coefficient(self, cls):
        return self.coefficients.get(cls, 0)

    def records(self):
        out = []
        for cls, c in sorted_by_tag(self.coefficients.items()):
            rec = cls.describe()
            rec["coefficient"] = c
            out.append(rec)
        return out

    def __repr__(self):
        parts = ["%+d*%r" % (c, cls) for cls, c in sorted_by_tag(self.coefficients.items())]
        return " ".join(parts) if parts else "0"


def mark(kprime, k):
    """Number of K-fixed points on the coset space (G x| P) / K'.

    Burnside's formula counts #{g : g^-1 K g <= K'} / |K'|, for K' named by
    stratum, K_C' x| T' with C' representing its P-orbit, and K = H x| T
    any split class.  g = (v, s) qualifies exactly when H's generators
    vanish on D = s(C'), T fixes D and U = s^-1 T s <= T', and then adds
    c_C'(U) (``DiagonalGroup.stratum_cocycle_order``) over v.  With
    s = r^-1 p, for r the carrier of D onto C' that the orbit's walk kept
    and p in P_C', U = p^-1 T_D p for T_D = r T r^-1 <= P_C' (``carried``),
    so D adds |P_C'| / |class of T_D| times the sum of c_C'(U) over T_D's
    conjugates U <= T'.  A count that |K'| does not divide is a structural
    failure, reported with its residual.
    """
    ambient = kprime.ambient
    if ambient != k.ambient:
        raise AmbientMismatchError("marks need a common ambient group")
    closed = kprime.closed
    if closed is None:
        raise ValueError("a mark counts the cosets of a class named by stratum")
    perms = ambient.perms
    stabilizer, members = perms.orbit_carriers(closed)
    classes = stabilizer.lattice.classes
    tp = kprime.t_elements
    total = 0
    for d in members:
        key = carried(perms, d, k.t_elements)[1]  # None unless T fixes D
        if key is None or any(h[i] for h in k.h_gens for i in d):
            continue
        conjugates = classes[key]
        total += stabilizer.order // len(conjugates) * sum(
            ambient.diag.stratum_cocycle_order(closed, u) for u in conjugates if u <= tp)
    count, rest = divmod(total, kprime.order)
    if rest:
        raise StructuralAssumptionViolated(
            "%d fixed elements are not a multiple of |K'| = %d for %r in %r"
            % (total, kprime.order, k, kprime),
            class_order=kprime.order, residual=rest)
    return count


def induction(element, perms_big):
    """Reinterpret classes over G x| S' inside G x| S for S' <= S.

    The class named (C, key) is [K_C x| T] in G x| S too, named again by
    C's orbit under S (``carried``).  On the verdict path S' = S_I for a stratum I that
    represents its S-orbit, and C = I unless K_I vanishes beyond I, so the
    name stays: two classes of the stratum are S-conjugate only by an
    element of S_I, and none fuse."""
    small = element.ambient
    if not small.perms.is_subgroup_of(perms_big):
        raise AmbientMismatchError("induction target does not contain the source")
    big = SemidirectAmbient(small.diag, perms_big)
    out = {}
    for cls, c in element.coefficients.items():
        lifted = named_class(big, *carried(perms_big, cls.name[0], cls.t_elements))
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(big, out)


def saito_dual(element, pairing):
    """Replace every H by its annihilator, keeping T and coefficients.

    ``pairing`` must have its left group equal to the element's diagonal
    group; the result lives over (right group) x| S.  The class named
    (C, key) has H = K_C and goes to [K'_{C^c} x| T], named by the orbit of
    the zero set of K'_{C^c} (``carried``).  That ann(K_C) = K'_{C^c} is checked once
    per C (``CharacterPairing.dual_stratum``); otherwise
    StructuralAssumptionViolated names the stratum.
    """
    src = element.ambient
    if pairing.left is not src.diag and pairing.left.matrix != src.diag.matrix:
        raise AmbientMismatchError("pairing does not match the element's group")
    dual_ambient = SemidirectAmbient(pairing.right, src.perms)
    out = {}
    for cls, c in element.coefficients.items():
        closed = cls.name[0]
        dual = pairing.dual_stratum(closed)
        if dual is None:
            stratum = tuple(i + 1 for i in closed)
            raise StructuralAssumptionViolated(
                "the annihilator of the kernel of stratum %s is not the kernel of "
                "its complement" % (stratum,), stratum=stratum)
        lifted = named_class(dual_ambient, *carried(src.perms, dual, cls.t_elements))
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(dual_ambient, out)
