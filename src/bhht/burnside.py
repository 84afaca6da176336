"""The restricted Burnside group of a semidirect product G x| S.

Ambient elements are pairs (v, s) of a diagonal-group element and a
permutation, multiplied by (v, s)(w, t) = (v + s.w, st).  Generators of the
free abelian group are conjugacy classes of split subgroups H x| T.  Marks
come from Burnside's formula in closed form: conjugation by (v, s) moves
(h, t) to (s^-1(h + t.v - v), s^-1 t s), so fixed cosets are counted from
S and G alone and the semidirect product is never listed.
"""

from .diaggroups import generating_subset, perm_act, span
from .errors import (
    AmbientMismatchError,
    MembershipError,
    StructuralAssumptionViolated,
)
from .intmat import kernel_mod
from .permgroups import (
    closure,
    conjugate,
    cycle_notation,
    generating_set,
    identity_perm,
    inverse,
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

    @property
    def signature(self):
        return (self.diag.matrix, self.perms.element_set)

    def compatible(self, other):
        return self.signature == other.signature


class HTClass:
    """Conjugacy class of a split subgroup H x| T, stored by a canonical representative.

    The representative minimises (sorted T, sorted H) lexicographically over
    conjugation by the elements of S; two split subgroups are conjugate in the
    ambient group iff they are conjugate by some element of S.
    """

    __slots__ = ("ambient", "h_elements", "t_elements", "tag", "h_gens", "t_gens")

    def __init__(self, ambient, h_elements, t_elements):
        diag, perms = ambient.diag, ambient.perms
        h_elements = frozenset(h_elements)
        t_elements = frozenset(t_elements)
        if diag.zero not in h_elements:
            raise MembershipError("H must contain the identity")
        h_gens, generated = span(diag, h_elements)
        if generated != h_elements:
            raise MembershipError("H is not closed under addition")
        if not t_elements <= perms.element_set:
            raise MembershipError("T is not a subgroup of S")
        t_gens = generating_set(t_elements)
        if closure(t_gens, ambient.n) != t_elements:
            raise MembershipError("T is not closed under composition")
        # T-invariance of the subgroup H follows from its generators and T's
        if not all(perm_act(t, h) in h_elements for t in t_gens for h in h_gens):
            raise MembershipError(
                "H is not invariant under T; the split subgroup is ill-formed")
        # least (sorted T, sorted H): sort H only for the s minimising the T-part
        by_t = {}
        for s in perms.elements:
            tc = tuple(sorted(conjugate(s, t) for t in t_elements))
            by_t.setdefault(tc, []).append(s)
        best_t = min(by_t)
        best_h = best_s = sorted_h = None
        for s in by_t[best_t]:
            if all(perm_act(s, h) in h_elements for h in h_gens):
                if sorted_h is None:
                    sorted_h = tuple(sorted(h_elements))
                hc = sorted_h
            else:
                hc = tuple(sorted(perm_act(s, h) for h in h_elements))
            if best_h is None or hc < best_h:
                best_h, best_s = hc, s
        self.ambient = ambient
        self.h_elements = frozenset(best_h)
        self.t_elements = frozenset(best_t)
        self.tag = (best_t, best_h)
        # generators of the representative, for marks
        self.h_gens = tuple(perm_act(best_s, h) for h in h_gens)
        self.t_gens = tuple(conjugate(best_s, t) for t in t_gens)

    @property
    def h_order(self):
        return len(self.h_elements)

    @property
    def t_order(self):
        return len(self.t_elements)

    @property
    def order(self):
        return self.h_order * self.t_order

    def __eq__(self, other):
        return (isinstance(other, HTClass) and self.tag == other.tag
                and self.ambient.compatible(other.ambient))

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return "[G:%d x| S/H:%d x| T:%d]" % (self.ambient.diag.order,
                                             self.h_order, self.t_order)

    def subgroup_elements(self):
        return [(h, t) for h in sorted(self.h_elements)
                for t in sorted(self.t_elements)]

    def describe(self):
        diag = self.ambient.diag
        return {
            "orbitType": "[G⋊S/H⋊T]",
            "T": sorted(cycle_notation(t) for t in generating_set(self.t_elements))
                 or ["()"],
            "H": sorted(diag.format_element(h)
                        for h in generating_subset(diag, self.h_elements))
                 or [diag.format_element(diag.zero)],
            "Torder": self.t_order,
            "Horder": self.h_order,
        }


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

    def _require(self, other):
        if not self.ambient.compatible(other.ambient):
            raise AmbientMismatchError("elements over different groups")

    def __add__(self, other):
        self._require(other)
        out = dict(self.coefficients)
        for cls, c in other.coefficients.items():
            out[cls] = out.get(cls, 0) + c
        return BurnsideElement(self.ambient, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return BurnsideElement(self.ambient,
                               {cls: k * c for cls, c in self.coefficients.items()})

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and self.ambient.compatible(other.ambient)
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(frozenset(self.coefficients.items()))

    def __bool__(self):
        return bool(self.coefficients)

    def coefficient(self, cls):
        return self.coefficients.get(cls, 0)

    def full_class(self):
        return HTClass(self.ambient, self.ambient.diag.elements,
                       self.ambient.perms.elements)

    def reduce(self):
        """Subtract the class of the one-point set [G x| S / G x| S]."""
        full = self.full_class()
        out = dict(self.coefficients)
        out[full] = out.get(full, 0) - 1
        return BurnsideElement(self.ambient, out)

    def items_sorted(self):
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


def zero_element(ambient):
    return BurnsideElement(ambient, {})


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
    diag = ambient.diag
    hp, tp = kprime.h_elements, kprime.t_elements
    identity = ambient.identity[1]
    congruences = None
    counts = {}
    total = 0
    for s in ambient.perms.elements:
        si = inverse(s)
        moved = tuple(u for u in (conjugate(si, t) for t in k.t_gens) if u != identity)
        if not all(u in tp for u in moved):
            continue
        if not all(perm_act(si, h) in hp for h in k.h_gens):
            continue
        if moved not in counts:
            if congruences is None:
                congruences = kernel_mod(kprime.h_gens, diag.n, diag.exponent)[0]
            counts[moved] = _cocycle_kernel_order(diag, moved, congruences)
        total += counts[moved]
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
    return diag.kernel(rows)[1]


def induction(element, perms_big):
    """Reinterpret classes over G x| S' inside G x| S for S' <= S."""
    small = element.ambient
    if not small.perms.is_subgroup_of(perms_big):
        raise AmbientMismatchError("induction target does not contain the source")
    big = SemidirectAmbient(small.diag, perms_big)
    out = {}
    for cls, c in element.coefficients.items():
        lifted = HTClass(big, cls.h_elements, cls.t_elements)
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
        dual_h = pairing.annihilator(cls.h_elements)
        lifted = HTClass(dual_ambient, dual_h, cls.t_elements)
        out[lifted] = out.get(lifted, 0) + c
    return BurnsideElement(dual_ambient, out)
