"""The restricted Burnside group of a semidirect product G x| S.

Ambient elements are pairs (v, s) of a diagonal-group element and a
permutation, multiplied by (v, s)(w, t) = (v + s.w, st).  Generators of the
free abelian group are classes of split subgroups H x| T, built from the
Hermite key of H (``intmat.hermite_key``), which names H and decides
membership, and from generators of T, identified without listing either:
T by the key of its class in the lattice of S, H by the least key of its
conjugates.  Element lists are made for output alone.  Marks come from
Burnside's formula in closed form: conjugation by (v, s) moves (h, t) to
(s^-1(h + t.v - v), s^-1 t s), so fixed cosets are counted from S and G
alone and the semidirect product is never listed.
"""

from functools import cached_property

from .diaggroups import check_listing_bound, independent_generators, perm_act
from .errors import (
    AmbientMismatchError,
    MembershipError,
    StructuralAssumptionViolated,
)
from .intmat import (
    hermite_dual,
    hermite_generators,
    hermite_key,
    hermite_order,
    in_hermite,
    kernel_order,
)
from .permgroups import (
    compose,
    conjugate,
    cycle_notation,
    generating_set,
    identity_perm,
    inverse,
    orbit,
)


class SemidirectAmbient:
    """The group G x| S, given by its two factors."""

    def __init__(self, diag, perms):
        if diag.n != perms.n:
            raise AmbientMismatchError("diagonal and permutation degrees differ")
        self.diag = diag
        self.perms = perms
        self.n = diag.n
        self.order = diag.order * perms.order
        self.identity = (diag.zero, identity_perm(self.n))
        self._cocycles = {}  # Hermite key of H -> (its congruences, {perms: order})

    @property
    def signature(self):
        return (self.diag.matrix, self.perms.element_set)

    def compatible(self, other):
        return self.signature == other.signature

    def cocycle_kernel_order(self, h_key, perms):
        """#{w in G : u.w - w lies in H for every u in perms}, for the H of a
        Hermite key.  The classes of one stratum share their H, so the
        congruences of H and the orders are kept per H and perms, for as
        long as the ambient group."""
        known = self._cocycles.get(h_key)
        if known is None:
            congruences = hermite_dual(h_key, self.diag.exponent)
            known = self._cocycles[h_key] = (congruences, {})
        congruences, orders = known
        order = orders.get(perms)
        if order is None:
            order = orders[perms] = _cocycle_kernel_order(self.diag, perms, congruences)
        return order


class HTClass:
    """Conjugacy class of a split subgroup H x| T, identified by canonical keys.

    The class is built from the Hermite key of H, as ``hermite_key`` makes it,
    and a generating set of T; any set of elements of S generates a subgroup,
    so an element set of T is a valid input too.  Two split subgroups are
    conjugate in the ambient group iff they are conjugate by some element of
    S.  So the class is identified by the key of T's class in the lattice of
    S and the least Hermite key of s.H over the s that carry T onto that key;
    the representative stored, with generators for marks and a key for
    membership, is that s.H x| key.  Nothing is listed: the element lists and
    the output order ``tag``, the least (sorted T, sorted H) over
    conjugation, are computed on first use.
    """

    def __init__(self, ambient, h_key, t_generators):
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
        best_t = perms.lattice.key_of[
            orbit(identity_perm(ambient.n), t_gens, compose)]
        t_elements = frozenset(best_t)
        best_key = best_s = None
        for s in _carriers(perms, t_gens, t_elements):
            moved = [perm_act(s, h) for h in h_gens]
            if all(in_hermite(h_key, h) for h in moved):
                key = h_key
            else:
                key = hermite_key(moved, n, L)
            if best_key is None or key < best_key:
                best_key, best_s = key, s
        self.ambient = ambient
        self.t_elements = t_elements
        self.h_key = best_key
        self.key = (best_t, best_key)
        self._hash = hash(self.key)  # tuples do not cache their hash
        # generators of the representative, for marks
        self.h_gens = hermite_generators(best_key, L)
        self.t_gens = tuple(conjugate(best_s, t) for t in t_gens)
        self.h_order = hermite_order(best_key, L)

    @property
    def t_order(self):
        return len(self.t_elements)

    @property
    def order(self):
        return self.h_order * self.t_order

    def __eq__(self, other):
        return (isinstance(other, HTClass) and self.key == other.key
                and self.ambient.compatible(other.ambient))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "[G:%d x| S/H:%d x| T:%d]" % (self.ambient.diag.order,
                                             self.h_order, self.t_order)

    @cached_property
    def h_elements(self):
        return self.ambient.diag.kernel_elements(self.h_key)

    @cached_property
    def tag(self):
        """The least (sorted T, sorted H) over conjugation: the output order."""
        sorted_h = tuple(sorted(self.h_elements))
        best_h = None
        for s in _carriers(self.ambient.perms, self.t_gens, self.t_elements):
            if all(in_hermite(self.h_key, perm_act(s, h)) for h in self.h_gens):
                hc = sorted_h
            else:
                hc = tuple(sorted(perm_act(s, h) for h in self.h_elements))
            if best_h is None or hc < best_h:
                best_h = hc
        return tuple(sorted(self.t_elements)), best_h

    def subgroup_elements(self):
        return [(h, t) for h in sorted(self.h_elements)
                for t in sorted(self.t_elements)]

    def describe(self):
        """The class for output, read from the representative of ``tag``."""
        diag = self.ambient.diag
        h_gens = independent_generators(diag, self.tag[1])[0]
        return {
            "orbitType": "[G⋊S/H⋊T]",
            "T": sorted(cycle_notation(t) for t in generating_set(self.t_elements))
                 or ["()"],
            "H": sorted(map(diag.format_element, h_gens))
                 or [diag.format_element(diag.zero)],
            "Torder": self.t_order,
            "Horder": self.h_order,
        }


def _carriers(perms, t_gens, target):
    """The s in S with s T s^-1 = target, for T generated by t_gens and a
    target of T's order."""
    return [s for s in perms.elements
            if all(conjugate(s, t) in target for t in t_gens)]


class BurnsideElement:
    """Finitely supported integer combination of split-subgroup classes."""

    def __init__(self, ambient, coefficients=None):
        self.ambient = ambient
        self.coefficients = {}
        if coefficients:
            for cls, c in coefficients.items():
                if c:
                    if not cls.ambient.compatible(ambient):
                        raise AmbientMismatchError("class over a different group")
                    self.coefficients[cls] = int(c)

    def scale(self, k):
        return BurnsideElement(self.ambient,
                               {cls: k * c for cls, c in self.coefficients.items()})

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and self.ambient.compatible(other.ambient)
                and self.coefficients == other.coefficients)

    def coefficient(self, cls):
        return self.coefficients.get(cls, 0)

    def reduce(self):
        """Subtract the class of the one-point set [G x| S / G x| S]."""
        ambient = self.ambient
        full = HTClass(ambient, ambient.diag.kernel(), ambient.perms.generators)
        out = dict(self.coefficients)
        out[full] = out.get(full, 0) - 1
        return BurnsideElement(self.ambient, out)

    def items_sorted(self):
        # each tag lists its class's H: hold them all to the bound first
        for cls in self.coefficients:
            check_listing_bound(cls.h_order)
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].tag)

    def records(self):
        out = []
        for cls, c in self.items_sorted():
            rec = cls.describe()
            rec["coefficient"] = c
            out.append(rec)
        return out

    def __repr__(self):
        parts = ["%+d*%r" % (c, cls) for cls, c in self.items_sorted()]
        return " ".join(parts) if parts else "0"


def mark(kprime, k):
    """Number of K-fixed points on the coset space (G x| S) / K'.

    Burnside's formula counts #{g : g^-1 K g <= K'} / |K'|.  For K = H x| T,
    K' = H' x| T' and g = (v, s), the conjugate of (h, t) is
    (s^-1(h + t.v - v), s^-1 t s), so g qualifies exactly when
    s^-1 T s <= T', H <= s.H' and t.v - v lies in s.H' for every generator t
    of T (a cocycle condition into the T-module G / s.H').  Writing v = s.w,
    the count over v is #{w in G : u.w - w in H'} for the generators
    u = s^-1 t s, so it depends on s only through those u.
    """
    ambient = kprime.ambient
    if not ambient.compatible(k.ambient):
        raise AmbientMismatchError("marks need a common ambient group")
    tp = kprime.t_elements
    identity = ambient.identity[1]
    total = 0
    for s in ambient.perms.elements:
        si = inverse(s)
        moved = tuple(u for u in (compose(si, compose(t, s)) for t in k.t_gens)
                      if u != identity)
        if not all(u in tp for u in moved):
            continue
        if not all(in_hermite(kprime.h_key, perm_act(si, h)) for h in k.h_gens):
            continue
        total += ambient.cocycle_kernel_order(kprime.h_key, moved)
    count, rest = divmod(total, kprime.order)
    if rest:
        raise StructuralAssumptionViolated(
            "%d fixed elements are not a multiple of |K'| = %d for %r in %r"
            % (total, kprime.order, k, kprime),
            class_order=kprime.order, residual=rest)
    return count


def _cocycle_kernel_order(diag, perms, congruences):
    """#{w in G : u.w - w lies in H' for every u in perms}.

    H' is given by its congruences c (c.x = 0 mod L exactly on H'); since
    (u.w)_i = w_{u^-1(i)}, c.(u.w - w) = 0 is the row c_{u(i)} - c_i, and
    the count is the order of a kernel.
    """
    if not perms:
        return diag.order
    points = range(diag.n)
    rows = [[c[u[i]] - c[i] for i in points] for u in perms for c in congruences]
    return kernel_order(diag.congruences + rows, diag.n, diag.exponent)


def induction(element, perms_big):
    """Reinterpret classes over G x| S' inside G x| S for S' <= S."""
    small = element.ambient
    if not small.perms.is_subgroup_of(perms_big):
        raise AmbientMismatchError("induction target does not contain the source")
    big = SemidirectAmbient(small.diag, perms_big)
    out = {}
    for cls, c in element.coefficients.items():
        lifted = HTClass(big, cls.h_key, cls.t_gens)
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(big, out)


def saito_dual(element, pairing):
    """Replace every H by its annihilator, keeping T and coefficients.

    ``pairing`` must have its left group equal to the element's diagonal
    group; the result lives over (right group) x| S.
    """
    src = element.ambient
    if pairing.left is not src.diag and pairing.left.matrix != src.diag.matrix:
        raise AmbientMismatchError("pairing does not match the element's group")
    dual_ambient = SemidirectAmbient(pairing.right, src.perms)
    out = {}
    for cls, c in element.coefficients.items():
        lifted = HTClass(dual_ambient, pairing.dual_kernel(cls.h_key), cls.t_gens)
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(dual_ambient, out)
