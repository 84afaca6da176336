"""Classes named by stratum against classes named by Hermite keys.

A verdict names each class [K_I x| T] by (orbit representative of the zero
set C of K_I, class key of T in S_C) and never scans S; the oracles name
the same classes by Hermite keys and a scan of S.  The two namings must
partition the classes alike and give the same coefficients, and what the
stratum naming assumes is checked on every run.
"""

from collections import deque
from itertools import permutations

import pytest
from conftest import key_zero_set, random_invertible, seeded

from bhht import burnside, euler, oracles
from bhht.burnside import BurnsideElement
from bhht.cli import main
from bhht.diaggroups import DiagonalGroup
from bhht.errors import NotInvariantError, StructuralAssumptionViolated
from bhht.euler import euler_analysis, lemma_level_checks, verify_duality
from bhht.fixtures import load_catalogue
from bhht.oracles import (
    CONSISTENCY_ORDER_BOUND,
    check_fixed_point_consistency,
    determinant,
    h_key_of,
    key_class,
    key_induction,
    key_saito_dual,
)
from bhht.permgroups import PermGroup, group_from_generators, pc_check
from bhht.polynomials import ExponentMatrix, check_invariance, parse_polynomial, transpose

CATALOGUE = load_catalogue()


def catalogue_pairs():
    """Each distinct (anchored f, S) of the catalogue, by its first fixture."""
    out = {}
    for name, fx in sorted(CATALOGUE.items()):
        if "error" not in fx.expect:
            out.setdefault((fx.matrix.anchored().rows, tuple(fx.s_lines)), name)
    return sorted(out.values())


def symmetries(matrix):
    """Every permutation of the variables that preserves f, as a group."""
    n = matrix.n
    kept = []
    for p in permutations(range(n)):
        try:
            check_invariance(matrix, PermGroup(n, [p]))
        except NotInvariantError:
            continue
        kept.append(p)
    return PermGroup(n, kept)


def doubled(matrix):
    """f(x) + f(y) on twice the variables, so that swapping x and y is a symmetry."""
    n = matrix.n
    return ExponentMatrix([list(row) + [0] * n for row in matrix.rows]
                          + [[0] * n + list(row) for row in matrix.rows])


def generated_pairs(count=50, seed=2110):
    """Seeded random invertible f, every other one doubled, each with its
    whole symmetry group, within the consistency sweep's bound."""
    rng = seeded(seed)
    out = []
    while len(out) < count:
        matrix = random_invertible(rng, max_vars=rng.randint(1, 4))
        if len(out) % 2:
            matrix = doubled(random_invertible(rng, max_vars=rng.randint(1, 2)))
        matrix = matrix.anchored()
        perms = symmetries(matrix)
        if abs(determinant(matrix.rows)) * perms.order <= CONSISTENCY_ORDER_BOUND:
            out.append((matrix, perms))
    return out


def key_named(element):
    """The element with each class named again by Hermite keys; no two
    stratum names may fall into one key class."""
    out = {}
    for cls, c in element.coefficients.items():
        again = key_class(cls.ambient, h_key_of(cls), cls.t_elements)
        assert again not in out, "two stratum names for one class"
        out[again] = c
    return BurnsideElement(element.ambient, out)


def key_reduced(analysis):
    """chi - [G x| S / G x| S], every stratum induced and the point named
    by Hermite keys."""
    total = {}
    for stratum in analysis.strata:
        for cls, c in key_induction(stratum.element, analysis.ambient).coefficients.items():
            total[cls] = total.get(cls, 0) + c
    element = BurnsideElement(analysis.ambient, total)
    point = key_class(analysis.ambient, analysis.group.key, analysis.perms.generators)
    total[point] = total.get(point, 0) - 1
    return element, BurnsideElement(analysis.ambient, total)


def assert_namings_agree(matrix, perms):
    lhs = euler_analysis(matrix, perms)
    rhs = euler_analysis(transpose(matrix), perms)
    for analysis in (lhs, rhs):
        element, reduced = key_reduced(analysis)
        assert key_named(analysis.element) == element
        assert key_named(analysis.reduced) == reduced
    dual = burnside.saito_dual(rhs.reduced, lhs.ambient)
    mirrored = key_saito_dual(key_reduced(rhs)[1], lhs.ambient)
    assert key_named(dual) == mirrored
    for x in (lhs.reduced, dual):
        assert all(cls.name[0] == key_zero_set(x.ambient.diag, h_key_of(cls))
                   for cls in x.coefficients)
    # the verdict compares names; the oracle compares key classes
    equal = key_named(lhs.reduced) == mirrored.scale((-1) ** matrix.n)
    assert verify_duality(matrix, perms).equal == equal


@pytest.mark.parametrize("name", catalogue_pairs())
def test_stratum_and_key_naming_agree_on_the_catalogue(name):
    fx = CATALOGUE[name]
    assert_namings_agree(fx.matrix, fx.perm_group())


def test_stratum_and_key_naming_agree_on_generated_inputs():
    pairs = generated_pairs()
    assert sum(perms.order > 1 for _m, perms in pairs) >= 25
    for matrix, perms in pairs:
        assert_namings_agree(matrix, perms)


# -- the assumptions, checked on every run --------------------------------------------


@pytest.fixture
def fresh(monkeypatch):
    """No analysis kept from an earlier test."""
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))


def test_a_wrong_stratum_kernel_is_refused(monkeypatch, fresh):
    # the kernel of (2 3), which only the dual of (1) asks for, handed out as
    # the trivial group: it pairs to zero with K_(1), but its order is not
    # |G| / |K_(1)|, so it is not the annihilator of K_(1)
    plain = DiagonalGroup.stratum_kernel

    def wrong(group, subset):
        return plain(group, (0, 1, 2) if subset == (1, 2) else subset)

    monkeypatch.setattr(DiagonalGroup, "stratum_kernel", wrong)
    fx = CATALOGUE["pc_a3"]
    with pytest.raises(StructuralAssumptionViolated) as info:
        verify_duality(fx.matrix, fx.perm_group())
    assert info.value.stratum == (1,)
    assert main(["verify", "pc_a3"]) == 3


def test_a_wrong_annihilator_is_refused(monkeypatch, fresh):
    # K'_(1 2) handed out for K'_(2 3), the annihilator K_(1) is checked
    # against: it has the annihilator's order, but does not pair to zero
    # with K_(1)
    plain = DiagonalGroup.stratum_kernel

    def wrong(group, subset):
        return plain(group, (0, 1) if subset == (1, 2) else subset)

    monkeypatch.setattr(DiagonalGroup, "stratum_kernel", wrong)
    fx = CATALOGUE["pc_a3"]
    with pytest.raises(StructuralAssumptionViolated) as info:
        verify_duality(fx.matrix, fx.perm_group())
    assert info.value.stratum == (1,)
    assert main(["verify", "pc_a3"]) == 3


def assert_named_by_zero_sets(matrix, perms, element, reduced):
    # a stratum kernel can vanish beyond its stratum; its zero set, not the
    # stratum, names the class, and both namings still agree
    def named(x):
        return {(cls.name[0], cls.t_order): c for cls, c in x.coefficients.items()}

    analysis = euler_analysis(matrix, perms)
    assert (named(analysis.element), named(analysis.reduced)) == (element, reduced)
    assert_namings_agree(matrix, perms)


@pytest.mark.parametrize("text, n, gens, element, reduced", [
    # K_(3) = K_(2 3): both strata name the class (2 3), whose coefficients
    # +1 and -1 cancel
    ("x1^2*x2+x2*x3+x3^2", 3, [], {((0, 1, 2), 1): 1},
     {((0, 1, 2), 1): 1, ((), 1): -1}),
])
def test_a_class_is_named_by_the_zero_set_of_its_kernel(text, n, gens, element, reduced):
    assert_named_by_zero_sets(parse_polynomial(text).anchored(),
                              group_from_generators(n, gens), element, reduced)


def chain_copies(k):
    """k copies of x1^2*x2+x2*x3+x3^3: on each, K_(3) = K_(2 3), so a stratum
    kernel can vanish beyond its stratum."""
    return parse_polynomial("+".join(
        "x%d^2*x%d+x%d*x%d+x%d^3" % (i + 1, i + 2, i + 2, i + 3, i + 3)
        for i in range(0, 3 * k, 3))).anchored()


def widened(analysis):
    """How many of the analysis's strata have a zero set C larger than I."""
    return sum(analysis.group.zero_set(s.subset) != s.subset for s in analysis.strata)


def test_zero_sets_beyond_the_strata_under_a_rotation_of_copies():
    # S permutes the copies, so induction and the dual carry names by the
    # S-orbits of zero sets that are not the strata themselves
    f = chain_copies(3)
    s = group_from_generators(9, ["(147)(258)(369)"])
    analysis = euler_analysis(f, s)
    assert pc_check(s).satisfies and analysis.ambient.order == 648
    assert (len(analysis.strata), widened(analysis)) == (23, 13)
    assert_namings_agree(f, s)
    assert lemma_level_checks(f, s).all_passed


def test_zero_sets_beyond_the_strata_under_a_swap_of_copies():
    # not PC, and duality fails; both namings agree on it all the same, and
    # the marks of both sides match Milnor-Orlik on every split class
    f = chain_copies(2)
    s = group_from_generators(6, ["(14)(25)(36)"])
    sides = euler_analysis(f, s), euler_analysis(transpose(f), s)
    assert not pc_check(s).satisfies
    assert [(len(a.strata), widened(a)) for a in sides] == [(9, 4), (9, 4)]
    assert_namings_agree(f, s)
    assert not verify_duality(f, s).equal
    assert [check_fixed_point_consistency(a) for a in sides] == [33, 33]


# -- no scan of S on the verdict path ---------------------------------------------------


@pytest.mark.parametrize("name", ["pc_a3", "x15_z5", "table1_r2", "counterexample_m3"])
def test_verdict_path_scans_no_carriers(monkeypatch, fresh, name):
    # only the oracles look for the s that carry one T onto another; a
    # verdict and its lemma checks name classes by stratum, and output
    # orders them off the orbits the verdict walked, reading no element
    # list of S or of a subgroup of S
    def refuse(*_args):
        raise AssertionError("S was scanned for carriers")

    def unreadable(group):
        raise AssertionError("output read the element list of %r" % (group,))

    monkeypatch.setattr(oracles, "carriers", refuse)
    fx = CATALOGUE[name]
    s = fx.perm_group()
    report = verify_duality(fx.matrix, s)
    assert report.equal == (name != "counterexample_m3")
    if report.pc.satisfies:
        assert lemma_level_checks(fx.matrix, s).all_passed
    monkeypatch.setattr(PermGroup, "elements", property(unreadable), raising=False)
    records = report.to_records()
    assert records["lhs"] and records["rhs"]
    assert len(records["diff"]) == len(report.diff) == len(report.differences)
