"""Equivariant Euler characteristics of Milnor fibres by torus stratification.

The fibre is cut along the coordinate tori.  A stratum contributes only
when f^I is full, that is when the subset I is closed under the chain and
loop successors; S maps such subsets to such subsets, so only their
S-orbits are walked, on demand (``ExponentMatrix.full_subsets``,
``PermGroup.orbits_of``), and never the orbits of all 2^n subsets.  On
the stratum of I the classes that can occur as isotropy groups are the
[K_I x| T], for K_I the stratum kernel and T <= S_I, and their
coefficients are obtained by exactly solving the triangular system of
marks against the fixed-point Euler characteristics.  The monomials
anchored in one T-orbit fold to one, with coefficient |orbit|.c, never 0,
and chi of the T-fixed part is (-1)^(k-1) |det F| for the matrix F of
the k folded monomials: the order of f^I folded along T's k orbits
(``polynomials.fold_order``).  Both whether a stratum counts and those
counts are read off f's anchored exponent rows; f is never restricted to
a stratum.  A class is its key in the lattice of S_I: T's orbits on I are
read off the key once (``permgroups.orbits``) and kept on the stratum for
the fold and the lemma checks, and no subgroup object is made for it.
The marks read the same fold, on zero sets (``burnside.mark``).
Each class is named by its stratum: by the zero set C of K_I,
which is I itself unless K_I vanishes beyond I, carried to the
representative of its S-orbit, and by T's class key in the lattice of S_C
(``burnside.stratum_class``); the point class is ((), S): Z(G) is empty,
since G's grading element J, the weights mod 1, moves every coordinate.
So the strata sum to chi without re-identifying a class, and the Saito
dual of f^T's classes is read off the complements.
Everything is exact integer arithmetic.

Memos: the module keeps the latest verdict's two analyses (``_RECENT``),
an ``EulerAnalysis`` its ``reduced`` and a ``DualityReport`` its ``diff``.
"""

from collections import deque, namedtuple
from fractions import Fraction
from functools import cached_property

from .burnside import (
    BurnsideElement,
    SemidirectAmbient,
    induction,
    mark,
    named_class,
    saito_dual,
    sorted_by_tag,
    stratum_class,
)
from .diaggroups import CharacterPairing, DiagonalGroup, perm_act
from .errors import NotInvariantError, StructuralAssumptionViolated
from .permgroups import orbits, pc_check
from .polynomials import check_invariance, fold_order, transpose


def _stratum_profile(stabilizer, counts):
    """Key identifying the coloured subgroup diagram of a stratum.

    ``counts`` maps each class key of the stabilizer, in class order, to
    its subgroup's orbit count on the stratum.

    Colours are fixed-space dimension parities taken relative to the deepest
    node (the full stabilizer); with that normalisation the coefficient
    vectors, divided by the sign of the deepest coefficient, depend on the
    diagram alone.  The relative colouring absorbs the overall dimension
    parity, which flips between a stratum and its complement when the
    variable count is odd.
    """
    deepest = counts[stabilizer.elements]
    colours = tuple((count - deepest) % 2 for count in counts.values())
    return (stabilizer.element_set, colours), (-1) ** (deepest - 1)


def _check_moves(matrix, subset, generators):
    """Refuse, unless each generator maps the subset onto itself and the
    monomial anchored at each a of it, coefficient included, to the one
    anchored at the image of a; so it preserves f^I.  The matrix is
    anchored.  What the generators pass, every product of them passes."""
    rows, coefficients = matrix.rows, matrix.coefficient_ids
    inside = set(subset)
    for p in generators:
        if {p[j] for j in inside} != inside:
            raise NotInvariantError("group does not preserve the subset")
        for a in subset:
            if perm_act(p, rows[a]) != rows[p[a]] or coefficients[a] != coefficients[p[a]]:
                raise NotInvariantError(
                    "group does not move the monomial anchored at x%d to the one "
                    "anchored at its image" % (a + 1))


class StratumContribution(namedtuple("StratumContribution", [
        "subset", "stabilizer", "orbit_size",
        "class_keys",      # canonical key per conjugacy class of the stabilizer
        "orbits",          # class key -> the key's orbits on the subset
        "fixed_chi",       # class key -> chi of the fixed locus
        "coefficients",    # class key -> solved integer coefficient
        "element",         # BurnsideElement over G x| stabilizer
        "induced",         # BurnsideElement over G x| S
        ])):
    """Diagnostics and result for one orbit of strata."""

    __slots__ = ()

    def to_record(self):
        return {
            "stratum": [i + 1 for i in self.subset],
            "orbitSize": self.orbit_size,
            "stabilizerOrder": self.stabilizer.order,
            "classes": [
                {
                    "Torder": len(key),
                    "fixedChi": self.fixed_chi[key],
                    "coefficient": self.coefficients[key],
                }
                for key in self.class_keys
            ],
        }


class EulerAnalysis:
    def __init__(self, matrix, ambient, strata, element):
        self.matrix = matrix
        self.ambient = ambient  # G x| S, where every stratum is induced
        self.group = ambient.diag
        self.perms = ambient.perms
        self.strata = strata
        self.element = element

    @cached_property
    def reduced(self):
        """The element minus the class of the one-point set, [G x| S / G x| S]."""
        point = stratum_class(self.ambient, (), self.perms.elements)
        return BurnsideElement(self.ambient, {**self.element.coefficients,
                                              point: self.element.coefficient(point) - 1})


def _stratum_contribution(matrix, subset, big, stabilizer, orbit_size):
    keys = list(stabilizer.lattice.classes)
    # what S_I's generators pass, each T <= S_I passes; a class's orbits
    # are its key's, and the stratum is full (``full_subsets``)
    _check_moves(matrix, subset, stabilizer.generators)
    orbs = {key: orbits(key, subset) for key in keys}
    # descending subgroup order; ties broken by the canonical representative
    order = sorted(keys, key=lambda k: (-len(k), k))

    ambient = SemidirectAmbient(big.diag, stabilizer)
    closed = big.diag.zero_set(subset)
    node = {key: named_class(ambient, closed, key) for key in keys}
    fixed = {key: (-1) ** (len(orbs[key]) - 1) * fold_order(matrix, orbs[key]) for key in keys}

    stratum = tuple(i + 1 for i in subset)
    # row i of the triangular solve reads mark(kj, ki) for j <= i, which is
    # 0 unless the class ki is subconjugate to kj; mark decides that
    solved = {}
    try:
        for i, ki in enumerate(order):
            acc = fixed[ki] - sum(solved[kj] * mark(node[kj], node[ki]) for kj in order[:i])
            diag = mark(node[ki], node[ki])
            if diag <= 0:
                raise StructuralAssumptionViolated(
                    "non-positive diagonal mark on stratum %s" % (stratum,),
                    class_order=len(ki))
            solved[ki], rest = divmod(acc, diag)
            if rest:
                raise StructuralAssumptionViolated(
                    "non-integer coefficient %s for class of order %d on stratum %s"
                    % (Fraction(acc, diag), len(ki), stratum),
                    class_order=len(ki), residual=rest)
    except StructuralAssumptionViolated as exc:
        exc.stratum = stratum
        raise

    element = BurnsideElement(
        ambient, {node[key]: solved[key] for key in keys if solved[key]})
    return StratumContribution(
        subset=subset,
        stabilizer=stabilizer,
        orbit_size=orbit_size,
        class_keys=tuple(order),
        orbits=orbs,
        fixed_chi=fixed,
        coefficients=solved,
        element=element,
        induced=induction(element, big),
    )


# the analyses of the latest verdict, oldest first
_RECENT = deque(maxlen=2)


def euler_analysis(matrix, perms):
    """Everything about chi^{G x| S}(V_f): per-stratum pieces and the total.

    The two analyses of the latest verdict, of f and of f^T, are kept.  An
    entry is keyed on the S object itself, compared with ``is`` as
    ``PermGroup.lattice`` is scoped, so an equal but distinct S is analysed
    afresh; and on the anchored exponent matrix, compared with ``==``.  A
    hit returns the kept analysis itself.  A miss analyses and checks from
    scratch, then pushes out the older of the two.  An analysis that raises
    is not kept.
    """
    matrix = matrix.anchored()
    for analysis in _RECENT:
        if analysis.perms is perms and analysis.matrix == matrix:
            return analysis
    check_invariance(matrix, perms)
    ambient = SemidirectAmbient(DiagonalGroup(matrix), perms)
    total = {}  # the strata's classes and their summed coefficients
    strata = []
    for rep, stab, size in perms.orbits_of(matrix.full_subsets()):
        if not rep:
            continue
        contribution = _stratum_contribution(matrix, rep, ambient, stab, size)
        for cls, c in contribution.induced.coefficients.items():
            total[cls] = total.get(cls, 0) + c
        strata.append(contribution)
    analysis = EulerAnalysis(matrix, ambient, strata, BurnsideElement(ambient, total))
    _RECENT.append(analysis)
    return analysis


class DualityReport:
    def __init__(self, nvars, pc, lhs, rhs, differences, equal, lhs_analysis, rhs_analysis):
        self.nvars = nvars
        self.pc = pc
        self.lhs = lhs
        self.rhs = rhs
        self.differences = differences  # (class, lhs, rhs) where they differ, unordered
        self.equal = equal
        self.lhs_analysis = lhs_analysis
        self.rhs_analysis = rhs_analysis

    @cached_property
    def diff(self):
        """The differences in output order, sorted on first read."""
        return sorted_by_tag(self.differences)

    def to_records(self):
        return {
            "n": self.nvars,
            "pc": self.pc.satisfies,
            "equal": self.equal,
            "lhs": self.lhs.records(),
            "rhs": self.rhs.records(),
            "diff": [
                {"class": cls.describe(), "lhs": lc, "rhs": rc}
                for cls, lc, rc in self.diff
            ],
        }


def verify_duality(matrix, perms):
    """Compare the reduced invariant of f with the sign-twisted dual of its transpose."""
    lhs_analysis = euler_analysis(matrix, perms)
    rhs_analysis = euler_analysis(transpose(matrix), perms)
    n = lhs_analysis.matrix.n
    lhs = lhs_analysis.reduced
    rhs = saito_dual(rhs_analysis.reduced, lhs_analysis.ambient).scale((-1) ** n)
    differences = []
    for cls in lhs.coefficients.keys() | rhs.coefficients.keys():
        lc = lhs.coefficient(cls)
        rc = rhs.coefficient(cls)
        if lc != rc:
            differences.append((cls, lc, rc))
    return DualityReport(nvars=n, pc=pc_check(perms), lhs=lhs, rhs=rhs,
                         differences=differences, equal=not differences,
                         lhs_analysis=lhs_analysis, rhs_analysis=rhs_analysis)


LemmaCheck = namedtuple("LemmaCheck", "name passed detail", defaults=("",))


class LemmaReport:
    def __init__(self, checks):
        self.checks = checks

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def lemma_level_checks(matrix, perms):
    """Structured per-stratum assertions behind the duality theorem.

    Requires the parity condition; checks (a) the open-torus contribution is
    the single free class with sign (-1)^(n-1), (b) proper subgroups carry
    coefficient zero there, (c) complementary strata of the polynomial and its
    transpose are dual with sign (-1)^n, and (d) the deepest coefficient on
    each stratum and equality of coefficient vectors for strata with
    identical coloured subgroup diagrams.
    """
    pc = pc_check(perms)
    if not pc.satisfies:
        raise ValueError("lemma-level checks require the parity condition")
    lhs = euler_analysis(matrix, perms)
    rhs = euler_analysis(transpose(matrix), perms)
    pairing = CharacterPairing.between(lhs.group, rhs.group)
    n = lhs.matrix.n
    checks = []

    full = tuple(range(n))
    top = next(s for s in lhs.strata if s.subset == full)
    ambient = top.element.ambient
    expected = BurnsideElement(
        ambient, {stratum_class(ambient, full, perms.elements): (-1) ** (n - 1)})
    checks.append(LemmaCheck(
        "open-torus contribution is (-1)^(n-1) [G x| S / e x| S]",
        top.element == expected))

    proper_ok = all(top.coefficients[key] == 0
                    for key in top.class_keys if len(key) != perms.order)
    checks.append(LemmaCheck(
        "proper subgroups contribute zero on the open torus", proper_ok))

    detail_c = ""  # the first failure, if any
    rhs_by_subset = {s.subset: s for s in rhs.strata}
    for s in lhs.strata:
        if len(s.subset) in (0, n):
            continue
        stratum = tuple(i + 1 for i in s.subset)
        complement = tuple(i for i in range(n) if i not in s.subset)
        dual_side = rhs_by_subset.get(perms.subset_orbit(complement)[0])
        if dual_side is None:
            detail_c = "stratum %s is full but its dual complement is not" % (stratum,)
        elif saito_dual(dual_side.induced, lhs.ambient).scale((-1) ** n) != s.induced:
            detail_c = "orbit of %s is not dual to the orbit of its complement" % (stratum,)
        # the verdict's own check, on the stratum's zero set C: K_I = K_C
        elif pairing.dual_stratum(pairing.left.zero_set(s.subset)) is None:
            detail_c = "stratum kernel of the complement is not the annihilator"
        if detail_c:
            break
    checks.append(LemmaCheck(
        "complementary strata are dual with sign (-1)^n", not detail_c, detail_c))

    ok_deep = True
    detail_hasse = ""  # the last failure, if any
    profiles = {}
    for analysis in (lhs, rhs):
        for s in analysis.strata:
            profile, deep_sign = _stratum_profile(
                s.stabilizer, {k: len(s.orbits[k]) for k in s.class_keys})
            ok_deep &= s.coefficients[s.stabilizer.elements] == deep_sign
            vector = tuple(deep_sign * s.coefficients[k] for k in s.class_keys)
            profiles.setdefault(profile, []).append((s.subset, vector))
    for entries in profiles.values():
        if len({v for _s, v in entries}) > 1:
            detail_hasse = "coefficient vectors differ on strata %s" % (
                [tuple(i + 1 for i in e[0]) for e in entries],)
    checks.append(LemmaCheck("deepest stratum coefficient is a bare sign", ok_deep))
    checks.append(LemmaCheck(
        "identical coloured diagrams give identical coefficient vectors",
        not detail_hasse, detail_hasse))
    return LemmaReport(checks)

