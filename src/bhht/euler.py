"""Equivariant Euler characteristics of Milnor fibres by torus stratification.

The fibre is cut along the coordinate tori.  A stratum contributes only
when f^I is full, that is when the subset I is closed under the chain and
loop successors; S maps such subsets to such subsets, so only their
S-orbits are walked, on demand (``ExponentMatrix.full_subsets``,
``PermGroup.orbits_of``), and never the orbits of all 2^n subsets.  On
the stratum of I the classes that can occur as isotropy groups are the
[K_I x| T], for K_I the stratum kernel and T <= S_I, and their
coefficients are obtained by exactly solving the triangular system of
marks against the fixed-point Euler characteristics, which are signed
products of the orders of the chains and loops that f^I folds into along
T's orbits.  Both whether a stratum counts and those counts are read off
f's anchored exponent rows (``fixed_chi``); f is never restricted to a
stratum.  Each class is named by its stratum: by the zero set C of K_I,
which is I itself unless K_I vanishes beyond I, carried to the
representative of its S-orbit, and by T's class key in the lattice of S_C
(``burnside.stratum_class``); the point class is ((), S): Z(G) is empty,
since G's grading element J, the weights mod 1, moves every coordinate.
So the strata sum to chi without re-identifying a class, and the Saito
dual of f^T's classes is read off the complements.
Everything is exact integer arithmetic.
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
from .permgroups import orbit_count, orbits, pc_check
from .polynomials import AtomicBlock, check_invariance, link_blocks, transpose


def _stratum_profile(subset, stabilizer, reps):
    """Key identifying the coloured subgroup diagram of a stratum.

    ``reps`` are the stabilizer's class representatives, in class order.

    Colours are fixed-space dimension parities taken relative to the deepest
    node (the full stabilizer); with that normalisation the coefficient
    vectors, divided by the sign of the deepest coefficient, depend on the
    diagram alone.  The relative colouring absorbs the overall dimension
    parity, which flips between a stratum and its complement when the
    variable count is odd.
    """
    deepest = orbit_count(stabilizer, subset)
    colours = tuple((orbit_count(rep, subset) - deepest) % 2 for rep in reps)
    return (stabilizer.element_set, colours), (-1) ** (deepest - 1)


def fixed_chi(matrix, subset, perms):
    """Euler characteristic of the T-fixed part of the fibre on the open
    stratum of a subset I, for T = ``perms``, from f's anchored rows.

    T must move the monomial anchored at each a of I to the one anchored at
    t(a), coefficient included, as every symmetry of f does; so it preserves
    f^I, and it refuses T otherwise.  Zero unless f^I is full
    (``ExponentMatrix.full_on``).  Then the monomials anchored in one
    T-orbit fold along T's orbits to one monomial, with coefficient
    |orbit|.c, never 0, and chi is (-1)^(k-1) |det F| for the matrix F of
    the k folded monomials.  T commutes with the successor map, which is
    injective, so it maps each orbit onto an orbit, one to one, and the
    folded monomials are chains and loops on the orbits, with the exponents
    of their points; det F is the product of their orders d
    (``AtomicBlock.order``), none negative.  A loop folded onto one orbit
    gives x_O^(a+1), the 1-loop of order a + 1.
    """
    if not subset:
        raise ValueError("the empty stratum has no fibre points")
    matrix = matrix.anchored()
    rows, coefficients = matrix.rows, matrix.coefficient_ids
    inside = set(subset)
    for p in perms.generators:
        if {p[j] for j in inside} != inside:
            raise NotInvariantError("group does not preserve the subset")
        for a in subset:
            if perm_act(p, rows[a]) != rows[p[a]] or coefficients[a] != coefficients[p[a]]:
                raise NotInvariantError(
                    "group does not move the monomial anchored at x%d to the one "
                    "anchored at its image" % (a + 1))
    if not matrix.full_on(subset):
        return 0
    orbs = orbits(perms, subset)
    column = {v: k for k, orb in enumerate(orbs) for v in orb}
    succ = matrix.successors()
    folded = {k: column.get(succ[orb[0]]) for k, orb in enumerate(orbs)}
    chi = (-1) ** (len(orbs) - 1)
    for kind, block in link_blocks(folded):
        exponents = [rows[a][a] for a in (orbs[k][0] for k in block)]
        chi *= AtomicBlock(kind, block, exponents).order
    return chi


class StratumContribution(namedtuple("StratumContribution", [
        "subset", "stabilizer", "orbit_size",
        "class_keys",      # canonical key per conjugacy class of the stabilizer
        "reps",            # class key -> the key's subgroup of the stabilizer
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
    def __init__(self, matrix, perms, group, ambient, strata, element):
        self.matrix = matrix
        self.perms = perms
        self.group = group
        self.ambient = ambient
        self.strata = strata
        self.element = element

    @cached_property
    def reduced(self):
        """The element minus the class of the one-point set, [G x| S / G x| S]."""
        point = stratum_class(self.ambient, (), self.perms.elements)
        total = dict(self.element.coefficients)
        total[point] = total.get(point, 0) - 1
        return BurnsideElement(self.ambient, total)


def _stratum_contribution(matrix, subset, group, perms, stabilizer, orbit_size):
    keys = list(stabilizer.lattice.classes)
    reps = {key: stabilizer.subgroup(key) for key in keys}
    # descending subgroup order; ties broken by the canonical representative
    order = sorted(keys, key=lambda k: (-len(k), k))

    ambient = SemidirectAmbient(group, stabilizer)
    closed = group.zero_set(subset)
    node = {key: named_class(ambient, closed, key) for key in keys}
    fixed = {key: fixed_chi(matrix, subset, reps[key]) for key in keys}

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
        reps=reps,
        fixed_chi=fixed,
        coefficients=solved,
        element=element,
        induced=induction(element, perms),
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
    group = DiagonalGroup(matrix)
    ambient = SemidirectAmbient(group, perms)
    total = {}  # the strata's classes and their summed coefficients
    strata = []
    for rep, stab, size in perms.orbits_of(matrix.full_subsets()):
        if not rep:
            continue
        contribution = _stratum_contribution(matrix, rep, group, perms, stab, size)
        for cls, c in contribution.induced.coefficients.items():
            total[cls] = total.get(cls, 0) + c
        strata.append(contribution)
    analysis = EulerAnalysis(matrix=matrix, perms=perms, group=group, ambient=ambient,
                             strata=strata, element=BurnsideElement(ambient, total))
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
        out = {
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
        return out


def verify_duality(matrix, perms):
    """Compare the reduced invariant of f with the sign-twisted dual of its transpose."""
    lhs_analysis = euler_analysis(matrix, perms)
    rhs_analysis = euler_analysis(transpose(matrix), perms)
    pairing = CharacterPairing.between(lhs_analysis.group, rhs_analysis.group)
    n = lhs_analysis.matrix.n
    lhs = lhs_analysis.reduced
    rhs = saito_dual(rhs_analysis.reduced, pairing.swapped()).scale((-1) ** n)
    differences = []
    for cls in lhs.coefficients.keys() | rhs.coefficients.keys():
        lc = lhs.coefficient(cls)
        rc = rhs.coefficient(cls)
        if lc != rc:
            differences.append((cls, lc, rc))
    return DualityReport(nvars=n, pc=pc_check(perms), lhs=lhs, rhs=rhs,
                         differences=differences, equal=not differences,
                         lhs_analysis=lhs_analysis, rhs_analysis=rhs_analysis)


class LemmaCheck:
    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail


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

    ok_c = True
    detail_c = ""
    rhs_by_subset = {s.subset: s for s in rhs.strata}
    for s in lhs.strata:
        if len(s.subset) in (0, n):
            continue
        complement = tuple(i for i in range(n) if i not in s.subset)
        dual_side = rhs_by_subset.get(perms.subset_orbit(complement)[0])
        if dual_side is None:
            ok_c = False
            detail_c = ("stratum %s is full but its dual complement is not"
                        % (tuple(i + 1 for i in s.subset),))
            break
        mirrored = saito_dual(dual_side.induced, pairing.swapped()).scale((-1) ** n)
        if mirrored != s.induced:
            ok_c = False
            detail_c = "orbit of %s is not dual to the orbit of its complement" \
                       % (tuple(i + 1 for i in s.subset),)
            break
        # the verdict's own check, on the stratum's zero set C: K_I = K_C
        if pairing.dual_stratum(pairing.left.zero_set(s.subset)) is None:
            ok_c = False
            detail_c = "stratum kernel of the complement is not the annihilator"
            break
    checks.append(LemmaCheck(
        "complementary strata are dual with sign (-1)^n", ok_c, detail_c))

    ok_deep = True
    ok_hasse = True
    detail_hasse = ""
    profiles = {}
    for analysis in (lhs, rhs):
        for s in analysis.strata:
            top_key = max(s.class_keys, key=len)
            stab_group = s.stabilizer
            expect = (-1) ** (orbit_count(stab_group, s.subset) - 1)
            if s.coefficients[top_key] != expect:
                ok_deep = False
            profile, deep_sign = _stratum_profile(
                s.subset, stab_group, [s.reps[k] for k in s.class_keys])
            vector = tuple(deep_sign * s.coefficients[k] for k in s.class_keys)
            profiles.setdefault(profile, []).append((s.subset, vector))
    for profile, entries in profiles.items():
        vectors = {v for _s, v in entries}
        if len(vectors) > 1:
            ok_hasse = False
            detail_hasse = "coefficient vectors differ on strata %s" % (
                [tuple(i + 1 for i in e[0]) for e in entries],)
    checks.append(LemmaCheck("deepest stratum coefficient is a bare sign", ok_deep))
    checks.append(LemmaCheck(
        "identical coloured diagrams give identical coefficient vectors",
        ok_hasse, detail_hasse))
    return LemmaReport(checks)

