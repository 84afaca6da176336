"""Equivariant Euler characteristics of Milnor fibres by torus stratification.

The fibre is cut along the coordinate tori; on each stratum the classes that
can occur as isotropy groups are the split subgroups (stratum kernel) x| T,
and their coefficients are obtained by exactly solving the triangular system
of marks against the fixed-point Euler characteristics, which are plain
determinant counts.  Everything is exact integer arithmetic.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .burnside import (
    BurnsideElement,
    HTClass,
    SemidirectAmbient,
    induction,
    mark,
    saito_dual,
    zero_element,
)
from .diaggroups import CharacterPairing, isotropy_on_stratum, symmetry_group
from .errors import StructuralAssumptionViolated
from .permgroups import PCResult, orbit_count, orbits_on_subsets, pc_check
from .polynomials import check_invariance, diagonal_restrict, restrict, transpose


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


def stratum_chi_fixed(matrix, subset, perms):
    """Euler characteristic of the T-fixed part of the fibre on an open stratum.

    Zero when the restriction (or its diagonal restriction) has fewer
    monomials than coordinates; otherwise a signed determinant: the sign is
    (-1)^(orbits-1) and the magnitude the folded exponent determinant.
    """
    if not subset:
        raise ValueError("the empty stratum has no fibre points")
    base = restrict(matrix, subset)
    if not base.full:
        return 0
    folded = diagonal_restrict(matrix, subset, perms)
    if not folded.full:
        return 0
    o = folded.nvars
    return (-1) ** (o - 1) * abs(folded.determinant())


@dataclass(frozen=True)
class StratumContribution:
    """Diagnostics and result for one orbit of strata."""

    subset: tuple
    stabilizer: object
    orbit_size: int
    class_keys: tuple          # canonical key per conjugacy class of the stabilizer
    reps: dict                 # class key -> the key's subgroup of the stabilizer
    fixed_chi: dict            # class key -> chi of the fixed locus
    coefficients: dict         # class key -> solved integer coefficient
    element: BurnsideElement   # over G x| stabilizer
    induced: BurnsideElement   # over G x| S

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


@dataclass
class EulerAnalysis:
    matrix: object
    perms: object
    group: object
    ambient: SemidirectAmbient
    strata: list
    skipped: list
    element: BurnsideElement

    @property
    def reduced(self):
        return self.element.reduce()


def _stratum_contribution(matrix, group, perms, subset, stabilizer, orbit_size):
    lattice = stabilizer.lattice
    keys = [lattice.class_key(cls) for cls in lattice.conjugacy_classes]
    reps = {key: stabilizer.subgroup(key) for key in keys}
    # descending subgroup order; ties broken by the canonical representative
    order = sorted(keys, key=lambda k: (-len(k), k))

    kernel = isotropy_on_stratum(group, subset)
    ambient = SemidirectAmbient(group, stabilizer)
    node = {key: HTClass(ambient, kernel, reps[key].element_set) for key in keys}
    fixed = {key: stratum_chi_fixed(matrix, subset, reps[key]) for key in keys}

    stratum = tuple(i + 1 for i in subset)
    # a mark is 0 unless the class ki is subconjugate to kj; mark decides that
    marks = {}
    for i, ki in enumerate(order):
        for j in range(i + 1):
            kj = order[j]
            try:
                marks[(kj, ki)] = mark(node[kj], node[ki])
            except StructuralAssumptionViolated as exc:
                exc.stratum = stratum
                raise

    solved = {}
    for i, ki in enumerate(order):
        acc = Fraction(fixed[ki])
        for j in range(i):
            kj = order[j]
            acc -= solved[kj] * marks[(kj, ki)]
        diag = marks[(ki, ki)]
        if diag <= 0:
            raise StructuralAssumptionViolated(
                "non-positive diagonal mark on stratum %s" % (stratum,),
                stratum=stratum, class_order=len(ki))
        q = acc / diag
        if q.denominator != 1:
            raise StructuralAssumptionViolated(
                "non-integer coefficient %s for class of order %d on stratum %s"
                % (q, len(ki), stratum),
                stratum=stratum, class_order=len(ki), residual=acc % diag)
        solved[ki] = int(q)
    for i, ki in enumerate(order):
        total = sum(solved[order[j]] * marks[(order[j], ki)] for j in range(i + 1))
        if total != fixed[ki]:
            raise StructuralAssumptionViolated(
                "marks residual %d on stratum %s" % (total - fixed[ki], stratum),
                stratum=stratum, class_order=len(ki), residual=total - fixed[ki])

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


def euler_analysis(matrix, perms, group=None):
    """Everything about chi^{G x| S}(V_f): per-stratum pieces and the total."""
    matrix = matrix.anchored()
    check_invariance(matrix, perms)
    if group is None:
        group = symmetry_group(matrix)
    ambient = SemidirectAmbient(group, perms)
    total = zero_element(ambient)
    strata = []
    skipped = []
    for rep, stab, size in orbits_on_subsets(perms):
        if not rep:
            skipped.append((rep, "empty stratum"))
            continue
        if not restrict(matrix, rep).full:
            skipped.append((rep, "restriction not full"))
            continue
        contribution = _stratum_contribution(matrix, group, perms, rep, stab, size)
        total = total + contribution.induced
        strata.append(contribution)
    return EulerAnalysis(matrix=matrix, perms=perms, group=group,
                         ambient=ambient, strata=strata, skipped=skipped,
                         element=total)


@dataclass
class DualityReport:
    nvars: int
    pc: PCResult
    lhs: BurnsideElement
    rhs: BurnsideElement
    diff: list
    equal: bool
    lhs_analysis: EulerAnalysis = field(repr=False, default=None)
    rhs_analysis: EulerAnalysis = field(repr=False, default=None)

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


def verify_duality(matrix, perms, pairing=None):
    """Compare the reduced invariant of f with the sign-twisted dual of its transpose."""
    matrix = matrix.anchored()
    if pairing is None:
        pairing = CharacterPairing(matrix)
    dual_matrix = transpose(matrix)
    lhs_analysis = euler_analysis(matrix, perms, group=pairing.left)
    rhs_analysis = euler_analysis(dual_matrix, perms, group=pairing.right)
    n = matrix.n
    lhs = lhs_analysis.reduced
    rhs = saito_dual(rhs_analysis.reduced, pairing.swapped()).scale((-1) ** n)
    keys = {cls for cls in lhs.coefficients} | {cls for cls in rhs.coefficients}
    diff = []
    for cls in sorted(keys, key=lambda c: c.tag):
        lc = lhs.coefficient(cls)
        rc = rhs.coefficient(cls)
        if lc != rc:
            diff.append((cls, lc, rc))
    return DualityReport(nvars=n, pc=pc_check(perms), lhs=lhs, rhs=rhs,
                         diff=diff, equal=not diff,
                         lhs_analysis=lhs_analysis, rhs_analysis=rhs_analysis)


@dataclass
class LemmaCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class LemmaReport:
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def lemma_level_checks(matrix, perms, pairing=None):
    """Structured per-stratum assertions behind the duality theorem.

    Requires the parity condition; checks (a) the open-torus contribution is
    the single free class with sign (-1)^(n-1), (b) proper subgroups carry
    coefficient zero there, (c) complementary strata of the polynomial and its
    transpose are dual with sign (-1)^n, and (d) the deepest coefficient on
    each stratum, equality of coefficient vectors for strata with identical
    coloured subgroup diagrams, and the normalizer divisibility of the
    exact-isotropy Euler characteristics.
    """
    matrix = matrix.anchored()
    pc = pc_check(perms)
    if not pc.satisfies:
        raise ValueError("lemma-level checks require the parity condition")
    if pairing is None:
        pairing = CharacterPairing(matrix)
    dual_matrix = transpose(matrix)
    lhs = euler_analysis(matrix, perms, group=pairing.left)
    # f^T = f: the dual side is the same analysis
    rhs = (lhs if dual_matrix == matrix
           else euler_analysis(dual_matrix, perms, group=pairing.right))
    n = matrix.n
    checks = []

    full = tuple(range(n))
    top = next(s for s in lhs.strata if s.subset == full)
    expected = BurnsideElement(
        top.element.ambient,
        {HTClass(top.element.ambient, {lhs.group.zero}, perms.element_set):
         (-1) ** (n - 1)})
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
    rhs_skipped = {tuple(rep) for rep, _why in rhs.skipped}
    for s in lhs.strata:
        if len(s.subset) in (0, n):
            continue
        complement = tuple(sorted(set(range(n)) - set(s.subset)))
        comp_rep = _orbit_representative(perms, complement)
        dual_side = rhs_by_subset.get(comp_rep)
        if dual_side is None:
            if comp_rep not in rhs_skipped:
                ok_c = False
                detail_c = "missing dual stratum for %s" % (s.subset,)
            else:
                ok_c = False
                detail_c = ("stratum %s is full but its dual complement is not"
                            % (s.subset,))
            break
        mirrored = saito_dual(dual_side.induced, pairing.swapped()).scale((-1) ** n)
        if mirrored != s.induced:
            ok_c = False
            detail_c = "orbit of %s is not dual to the orbit of its complement" \
                       % (tuple(i + 1 for i in s.subset),)
            break
        ann = pairing.annihilator(isotropy_on_stratum(pairing.left, s.subset))
        if ann != isotropy_on_stratum(pairing.right, complement):
            ok_c = False
            detail_c = "stratum kernel of the complement is not the annihilator"
            break
    checks.append(LemmaCheck(
        "complementary strata are dual with sign (-1)^n", ok_c, detail_c))

    ok_deep = True
    ok_hasse = True
    ok_div = True
    detail_d = ""
    profiles = {}
    for analysis in (lhs, rhs):
        for s in analysis.strata:
            top_key = max(s.class_keys, key=len)
            stab_group = s.stabilizer
            expect = (-1) ** (orbit_count(stab_group, s.subset) - 1)
            if s.coefficients[top_key] != expect:
                ok_deep = False
                detail_d = "deepest coefficient on stratum %s" % (s.subset,)
            profile, deep_sign = _stratum_profile(
                s.subset, stab_group, [s.reps[k] for k in s.class_keys])
            vector = tuple(deep_sign * s.coefficients[k] for k in s.class_keys)
            profiles.setdefault(profile, []).append((s.subset, vector))
            lattice = stab_group.lattice
            for key in s.class_keys:
                rep = s.reps[key]
                norm = len(lattice.normalizer(rep.element_set))
                folded = diagonal_restrict(analysis.matrix, s.subset, rep)
                if not folded.full:
                    continue
                weight = abs(folded.determinant())
                if (s.coefficients[key] * norm * weight) % rep.order != 0:
                    ok_div = False
                    detail_d = "divisibility fails on stratum %s" % (s.subset,)
    for profile, entries in profiles.items():
        vectors = {v for _s, v in entries}
        if len(vectors) > 1:
            ok_hasse = False
            detail_d = "coefficient vectors differ on strata %s" % (
                [e[0] for e in entries],)
    checks.append(LemmaCheck("deepest stratum coefficient is a bare sign", ok_deep))
    checks.append(LemmaCheck(
        "identical coloured diagrams give identical coefficient vectors",
        ok_hasse, detail_d if not ok_hasse else ""))
    checks.append(LemmaCheck(
        "exact-isotropy Euler characteristics divide out", ok_div,
        detail_d if not ok_div else ""))
    return LemmaReport(checks)


def _orbit_representative(perms, subset):
    best = tuple(sorted(subset))
    for p in perms.elements:
        cand = tuple(sorted(p[i] for i in subset))
        if cand < best:
            best = cand
    return best
