from collections import Counter, deque

import pytest
from conftest import X14, X15, all_subsets, key_of, seeded, stratum_elements, summed
from test_stratum_naming import CATALOGUE, catalogue_pairs, generated_pairs

from bhht import euler, intmat
from bhht.diaggroups import DiagonalGroup
from bhht.errors import StructuralAssumptionViolated
from bhht.euler import (
    _stratum_profile,
    euler_analysis,
    fixed_chi,
    lemma_level_checks,
    verify_duality,
)
from bhht.fixtures import DATA_DIR, load_catalogue
from bhht.oracles import check_fixed_point_consistency, determinant, h_elements_of
from bhht.permgroups import (
    PermGroup,
    group_from_generators,
    identity_perm,
    orbit_count,
    pc_check,
)
from bhht.polynomials import parse_polynomial, transpose


def torus_curve_chi_oracle(m):
    """chi of {x^m + y^m = 1} inside the 2-torus, from the genus.

    The smooth projective curve has genus (m-1)(m-2)/2 and m points at
    infinity, so the affine curve has chi = 2 - (m-1)(m-2) - m; removing the
    2m axis points leaves the torus part.
    """
    return 2 - (m - 1) * (m - 2) - m - 2 * m


# -- fixed-locus Euler characteristics ---------------------------------------------


def test_chi_one_variable_power():
    # x1 alone (m = 1) is smooth at 0, and validation refuses it
    for m in range(2, 8):
        e = parse_polynomial("x1^%d" % m)
        assert fixed_chi(e, (0,), PermGroup(1, ())) == m


def test_chi_fermat_curve_matches_genus_oracle():
    for m in range(2, 8):
        e = parse_polynomial("x1^%d+x2^%d" % (m, m))
        value = fixed_chi(e, (0, 1), PermGroup(2, ()))
        assert value == torus_curve_chi_oracle(m) == -m * m


def test_chi_fermat_curve_swapped():
    for m in range(2, 8):
        e = parse_polynomial("x1^%d+x2^%d" % (m, m))
        swap = group_from_generators(2, ["(12)"])
        assert fixed_chi(e, (0, 1), swap) == m


def test_chi_degenerate_restriction_is_zero(x15):
    assert fixed_chi(x15, (0, 1), PermGroup(5, ())) == 0


def test_chi_empty_stratum_rejected(quintic):
    with pytest.raises(ValueError):
        fixed_chi(quintic, (), PermGroup(5, ()))


def fold_cases():
    """Each distinct catalogue (f, S) on the f and the f^T side, then 50
    seeded inputs."""
    for name in catalogue_pairs():
        fx = CATALOGUE[name]
        s = fx.perm_group()
        yield fx.matrix.anchored(), s
        yield transpose(fx.matrix), s
    yield from generated_pairs()


def test_fold_fullness_alone_decides_a_fixed_chi():
    # fixed_chi is 0 on a stratum where f^I is not full, and on a full one
    # sums with the strata within it to Milnor-Orlik's chi, for every class
    # T of every S_I
    from test_fixed_chi import assert_matches_milnor_orlik

    short = 0
    for matrix, perms in fold_cases():
        for subset, stabilizer, _size in perms.orbits_of(all_subsets(matrix.n)):
            if not subset:
                continue
            for key in stabilizer.lattice.classes:
                t = stabilizer.subgroup(key)
                short += not assert_matches_milnor_orlik(matrix, subset, t)
    assert short


# -- stratum contributions ----------------------------------------------------------


def test_full_stratum_trivial_group_coefficient(quintic, x14):
    for matrix, n in ((quintic, 5), (x14, 5),
                      (parse_polynomial("x1^3+x2^3"), 2)):
        analysis = euler_analysis(matrix, PermGroup(n, ()))
        top = next(s for s in analysis.strata if len(s.subset) == n)
        assert list(top.coefficients.values()) == [(-1) ** (n - 1)]


def test_counterexample_full_torus_vector():
    # the five-term expression: +1 on the whole group and on the trivial one,
    # -1 on each of the three double transpositions
    for m in (3, 4):
        e = parse_polynomial("+".join("x%d^%d" % (i, m) for i in range(1, 5)))
        s = group_from_generators(4, ["(12)(34)", "(13)(24)"])
        analysis = euler_analysis(e, s)
        top = next(st for st in analysis.strata if len(st.subset) == 4)
        by_order = {}
        for key in top.class_keys:
            by_order.setdefault(len(key), []).append(top.coefficients[key])
        assert by_order == {4: [1], 2: [-1, -1, -1], 1: [1]}


def test_quintic_full_torus_marks_system(quintic):
    # open-torus system for the double transposition: fixed chis are the
    # folded determinants 5^3 and 5^5, and the solved coefficients are the
    # bare sign on the deepest class and zero on the proper one
    s = group_from_generators(5, ["(12)(34)"])
    analysis = euler_analysis(quintic, s)
    top = next(st for st in analysis.strata if len(st.subset) == 5)
    chi = {len(key): top.fixed_chi[key] for key in top.class_keys}
    assert chi == {2: 125, 1: 3125}
    coeff = {len(key): top.coefficients[key] for key in top.class_keys}
    assert coeff == {2: 1, 1: 0}


def test_residual_check_trips_on_wrong_fixed_data(quintic):
    # corrupting the fixed-point values must abort, not silently solve
    import bhht.euler as euler_mod

    original = euler_mod.fixed_chi

    def corrupted(matrix, subset, perms):
        value = original(matrix, subset, perms)
        return value + 1 if len(subset) == 5 and perms.order == 2 else value

    euler_mod.fixed_chi = corrupted
    try:
        with pytest.raises(StructuralAssumptionViolated):
            euler_analysis(quintic, group_from_generators(5, ["(12)(34)"]))
    finally:
        euler_mod.fixed_chi = original


def test_structural_failure_carries_stratum_class_and_residual(monkeypatch):
    import bhht.euler as euler_mod

    f = parse_polynomial("x1^2+x2^2")
    swap = group_from_generators(2, ["(12)"])
    # first stratum (1,): kernel of order 2, trivial stabilizer; the diagonal
    # mark is 2 and the fixed-locus Euler characteristic 2
    original = euler_mod.fixed_chi
    monkeypatch.setattr(euler_mod, "fixed_chi",
                        lambda matrix, subset, perms: original(matrix, subset, perms) + 1)
    with pytest.raises(StructuralAssumptionViolated) as info:
        euler_analysis(f, swap)
    assert (info.value.stratum, info.value.class_order, info.value.residual) \
        == ((1,), 1, 1)
    monkeypatch.undo()

    # a fixed-element count one too many: the class formula's c(U) for the
    # trivial U, in closed form, reads 5, and mark divides 5 by |K'| = 2
    count = DiagonalGroup.stratum_cocycle_order
    monkeypatch.setattr(DiagonalGroup, "stratum_cocycle_order",
                        lambda group, closed, u_elements: count(group, closed, u_elements) + 1)
    with pytest.raises(StructuralAssumptionViolated) as info:
        euler_analysis(f, swap)
    assert (info.value.stratum, info.value.class_order, info.value.residual) \
        == ((1,), 2, 1)


# -- assembled invariants -------------------------------------------------------------


def test_one_variable_milnor_fibre():
    e = parse_polynomial("x1^6")
    element = euler_analysis(e, PermGroup(1, ())).element
    (cls, coeff), = element.coefficients.items()
    assert coeff == 1 and cls.h_order == 1  # one free orbit of 6 points


def test_counterexample_free_class_coefficient():
    e = parse_polynomial("x1^3+x2^3+x3^3+x4^3")
    s = group_from_generators(4, ["(12)(34)", "(13)(24)"])
    element = euler_analysis(e, s).element
    free = [c for cls, c in element.coefficients.items()
            if cls.h_order == 1 and cls.t_order == 1]
    assert free == [1]


def test_support_is_stratum_kernels(quintic):
    s = group_from_generators(5, ["(12)(34)"])
    group = DiagonalGroup(quintic)
    element = euler_analysis(quintic, s).element
    kernels = set()
    for mask in range(1, 1 << 5):
        subset = [i for i in range(5) if mask >> i & 1]
        kernels.add(stratum_elements(group, subset))
    for cls in element.coefficients:
        assert h_elements_of(cls) in kernels


def test_assembly_is_sum_of_stratum_inductions(x14):
    s = group_from_generators(5, ["(12)(34)"])
    analysis = euler_analysis(x14, s)
    total = summed(analysis.ambient, *(stratum.induced for stratum in analysis.strata))
    assert total == analysis.element


def test_reduce_subtracts_the_point(quintic):
    analysis = euler_analysis(quintic, PermGroup(5, ()))
    delta = summed(analysis.ambient, analysis.element, analysis.reduced.scale(-1))
    (cls, coeff), = delta.coefficients.items()
    assert coeff == 1 and cls.h_order == 3125 and cls.t_order == 1


# -- frozen abelian regressions -------------------------------------------------------


def expected_kernel_orders(matrix, n):
    """Map each full stratum to (kernel order, sign) by the determinant of f^I."""
    group = DiagonalGroup(matrix.anchored())
    out = {}
    for mask in range(1, 1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if not matrix.full_on(subset):
            continue
        kernel = stratum_elements(group, subset)
        rows = matrix.anchored().rows
        chi = (-1) ** (len(subset) - 1) * abs(determinant(
            [[rows[a][j] for j in subset] for a in subset]))
        out[subset] = (len(kernel), chi * len(kernel) // group.order)
    return out


def test_chain_regression_element():
    matrix = parse_polynomial("x1^2*x2+x2^3")
    element = euler_analysis(matrix, PermGroup(2, ())).element
    # strata: {2} gives +1 on the order-2 kernel, the torus gives -1 on ..0..
    by_h_order = {cls.h_order: c for cls, c in element.coefficients.items()}
    assert by_h_order == {2: 1, 1: -1}
    assert expected_kernel_orders(matrix, 2) == {(1,): (2, 1), (0, 1): (1, -1)}


def test_loop_regression_element():
    matrix = parse_polynomial("x1^2*x2+x1*x2^3")
    element = euler_analysis(matrix, PermGroup(2, ())).element
    by_h_order = {cls.h_order: c for cls, c in element.coefficients.items()}
    assert by_h_order == {1: -1}


def test_fermat_square_regression_element():
    matrix = parse_polynomial("x1^5+x2^5")
    element = euler_analysis(matrix, PermGroup(2, ())).element
    coeffs = sorted((cls.h_order, c) for cls, c in element.coefficients.items())
    assert coeffs == [(1, -1), (5, 1), (5, 1)]


# -- the duality theorem --------------------------------------------------------------


def test_duality_abelian_regressions():
    for text, n in (("x1^5+x2^5", 2), ("x1^5+x2^5+x3^5", 3),
                    (X14, 5), ("x1^2*x2+x2^3", 2), ("x1^2*x2+x1*x2^3", 2)):
        report = verify_duality(parse_polynomial(text), PermGroup(n, ()))
        assert report.equal, text


def test_duality_pc_cases_small():
    cases = [("x1^3+x2^3+x3^3", ["(123)"]),
             ("x1^4+x2^4+x3^4+x4^4+x5^5", ["(123)"]),
             (X14, ["(12)(34)"]),
             (X15, ["(12345)"])]
    for text, gens in cases:
        matrix = parse_polynomial(text)
        s = group_from_generators(matrix.n, gens)
        report = verify_duality(matrix, s)
        assert report.pc.satisfies
        assert report.equal, (text, gens)


def test_verify_duality_lists_no_kernel(monkeypatch):
    # classes are built from the generators of kernels and annihilators
    def refuse(*_args):
        raise AssertionError("a kernel was listed")

    monkeypatch.setattr(DiagonalGroup, "kernel_elements", refuse)
    catalogue = load_catalogue()
    for name in ("x1_z2", "x15_z5", "pc_a3"):
        fx = catalogue[name]
        assert verify_duality(fx.matrix, fx.perm_group()).equal, name


def test_verdict_path_lists_no_subgroup(monkeypatch):
    # classes are told apart by Hermite keys and ordered and printed by
    # their rows, so neither a verdict, its lemma checks nor the output of
    # euler and verify --json --lemmas lists a subgroup or G
    from test_fixtures_cli import run_cli

    def refuse(*_args):
        raise AssertionError("a subgroup was listed")

    monkeypatch.setattr(DiagonalGroup, "kernel_elements", refuse)
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    catalogue = load_catalogue()
    cases = [(fx.matrix, fx.perm_group(), 0)
             for fx in (catalogue["pc_a3"], catalogue["table1_r2"])]
    # |G| = 11^6 is over DEFAULT_GROUP_BOUND, which bounds listing only
    fermat = parse_polynomial("+".join("x%d^11" % i for i in range(1, 7)))
    cases += [(fermat, group_from_generators(6, ["(123)(456)"]), 0),
              (fermat, group_from_generators(6, ["(12)"]), 64)]
    for matrix, s, differences in cases:
        report = verify_duality(matrix, s)
        assert len(report.differences) == differences, matrix
        if report.pc.satisfies:
            assert lemma_level_checks(matrix, s).all_passed, matrix
    printed = 0
    for name, fx in catalogue.items():
        path = str(DATA_DIR / (name + ".fix"))
        for args in (("euler", path), ("verify", path, "--json", "--lemmas")):
            code, out = run_cli(*args)
            assert code == (2 if "error" in fx.expect else 0), args
            printed += out.count('"orbitType"')
    assert printed > 1000
def test_duality_counterexample_diff_structure():
    e = parse_polynomial("x1^4+x2^4+x3^4+x4^4")
    s = group_from_generators(4, ["(12)(34)", "(13)(24)"])
    report = verify_duality(e, s)
    assert not report.equal and not report.pc.satisfies
    free_h_diffs = [(lc, rc) for cls, lc, rc in report.diff
                    if cls.h_order == 1 and cls.t_order == 2]
    assert free_h_diffs == [(-1, 0)] * 3  # no dual counterparts
    top = [(lc, rc) for cls, lc, rc in report.diff
           if cls.h_order == 1 and cls.t_order == 4]
    assert top == [(1, -1)]  # dual class exists but with the opposite sign


def test_duality_symmetric_in_transpose():
    rng = seeded(51)
    cases = [("x1^2*x2+x2^3", 2, []),
             ("x1^3+x2^3+x3^3", 3, ["(123)"]),
             ("x1^4+x2^4+x3^4+x4^4", 4, ["(12)(34)", "(13)(24)"])]
    for text, n, gens in cases:
        matrix = parse_polynomial(text)
        s = group_from_generators(n, gens)
        assert (verify_duality(matrix, s).equal
                == verify_duality(transpose(matrix), s).equal)


def test_sign_law_under_pc():
    # all fixed-locus chis on the open torus share the sign (-1)^(n-1)
    matrix = parse_polynomial("x1^3+x2^3+x3^3+x4^3+x5^3")
    s = group_from_generators(5, ["D10"])
    for key in s.lattice.classes:
        t = s.subgroup(key)
        value = fixed_chi(matrix, tuple(range(5)), t)
        assert value != 0
        assert value * (-1) ** (5 - 1) > 0


# -- global fixed-point consistency ---------------------------------------------------


def test_fixed_point_consistency_small_fixtures():
    cases = [("x1^2+x2^2+x3^2", ["(12)", "(123)"]),   # 48 elements
             ("x1^3+x2^3+x3^3", ["(123)"]),            # 81
             ("x1^3+x2^3+x3^3", ["(12)", "(123)"])]    # 162
    for text, gens in cases:
        matrix = parse_polynomial(text)
        s = group_from_generators(matrix.n, gens)
        analysis = euler_analysis(matrix, s)
        assert check_fixed_point_consistency(analysis) > 0


# -- lemma-level checks ---------------------------------------------------------------


def test_lemma_checks_pass_on_pc_fixtures(quintic, x15):
    for matrix, gens in ((quintic, ["(123)"]), (x15, ["(12345)"]),
                         (quintic, [])):
        report = lemma_level_checks(matrix, group_from_generators(5, gens))
        assert report.all_passed, [c for c in report.checks if not c.passed]


def test_lemma_checks_require_pc(quintic):
    s = group_from_generators(5, ["Z2x2"])
    with pytest.raises(ValueError):
        lemma_level_checks(quintic, s)


def _stratum(analysis, subset):
    return next(i for i, s in enumerate(analysis.strata) if s.subset == subset)


def _deepest(stratum):
    return max(stratum.class_keys, key=len)


def _negate_open_torus(analysis):
    i = _stratum(analysis, (0, 1, 2))
    top = analysis.strata[i]
    analysis.strata[i] = top._replace(element=top.element.scale(-1))


def _open_torus_proper_class(analysis):
    top = analysis.strata[_stratum(analysis, (0, 1, 2))]
    top.coefficients[min(top.class_keys, key=len)] = 1


def _double_induced(analysis):
    i = _stratum(analysis, (0,))
    analysis.strata[i] = analysis.strata[i]._replace(
        induced=analysis.strata[i].induced.scale(2))


def _negate_deepest(analysis):
    s = analysis.strata[_stratum(analysis, (0,))]
    s.coefficients[_deepest(s)] *= -1


def _shift_shallow_class(subset):
    def corrupt(analysis):
        s = analysis.strata[_stratum(analysis, subset)]
        s.coefficients[min(s.class_keys, key=len)] += 1
    return corrupt


@pytest.mark.parametrize("name, corrupt, failing", [
    pytest.param("pc_a3", _negate_open_torus, 0, id="open-torus"),
    pytest.param("pc_a3", _open_torus_proper_class, 1, id="proper-zero"),
    pytest.param("pc_a3", _double_induced, 2, id="complementary"),
    pytest.param("pc_a3", _negate_deepest, 3, id="deepest"),
    # x14_z2a: strata (5) and (1234) have one coloured diagram
    pytest.param("x14_z2a", _shift_shallow_class((4,)), 4, id="diagrams"),
    # pc_d10: strata (12) and (124) share a diagram of two classes
    pytest.param("pc_d10", _shift_shallow_class((0, 1)), 4, id="diagrams-d10"),
])
def test_each_lemma_check_fails_on_a_corrupted_analysis(name, corrupt, failing):
    # the lemma checks read the verdict's kept analysis; corrupting it in
    # place must turn exactly the targeted check (and for a coefficient of
    # the deepest class also the diagram check) to failed
    fx = load_catalogue()[name]
    s = fx.perm_group()
    analysis = euler_analysis(fx.matrix, s)
    assert lemma_level_checks(fx.matrix, s).all_passed
    corrupt(analysis)
    checks = lemma_level_checks(fx.matrix, s).checks
    failed = {i for i, check in enumerate(checks) if not check.passed}
    assert failing in failed and failed <= {failing, 4}, checks


def test_missing_dual_stratum_fails_the_complement_check():
    # pc_a3 is self-dual: without the stratum (1), the stratum (1 2) has no
    # stratum of f^T on its complement (3)
    fx = load_catalogue()["pc_a3"]
    s = fx.perm_group()
    analysis = euler_analysis(fx.matrix, s)
    assert lemma_level_checks(fx.matrix, s).all_passed
    del analysis.strata[_stratum(analysis, (0,))]
    check = lemma_level_checks(fx.matrix, s).checks[2]
    assert not check.passed
    assert check.detail == "stratum (1, 2) is full but its dual complement is not"


def test_differing_diagrams_are_named_by_one_based_strata(monkeypatch):
    # x14_z2a: the strata (5), (1234) and the open torus share a coloured
    # diagram, on f and on f^T alike; the corrupted analysis is not kept
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    fx = load_catalogue()["x14_z2a"]
    s = fx.perm_group()
    _shift_shallow_class((4,))(euler_analysis(fx.matrix, s))
    check = lemma_level_checks(fx.matrix, s).checks[4]
    assert not check.passed
    assert check.detail == ("coefficient vectors differ on strata "
                            + str([(5,), (1, 2, 3, 4), (1, 2, 3, 4, 5)] * 2))


def test_deepest_coefficient_matches_orbit_parity(x14):
    s = group_from_generators(5, ["(12)(34)"])
    analysis = euler_analysis(x14, s)
    for stratum in analysis.strata:
        top_key = max(stratum.class_keys, key=len)
        expected = (-1) ** (orbit_count(stratum.stabilizer, stratum.subset) - 1)
        assert stratum.coefficients[top_key] == expected


# -- coloured subgroup diagrams -----------------------------------------------------


def class_reps(group):
    return [group.subgroup(key) for key in group.lattice.classes]


def test_stratum_profile_trivial():
    g = PermGroup(2, ())
    profile, sign = _stratum_profile((0, 1), g, class_reps(g))
    assert profile == (g.element_set, (0,))  # one node, coloured 0
    assert sign == -1  # two orbits at the deepest node


def test_stratum_profile_swap():
    g = group_from_generators(2, ["(12)"])
    reps = class_reps(g)
    assert [rep.order for rep in reps] == [1, 2]
    profile, sign = _stratum_profile((0, 1), g, reps)
    # colours relative to the deepest node, the whole group with one orbit
    assert profile == (g.element_set, (1, 0))
    assert sign == 1


def test_stratum_profile_equal_for_complements_under_pc():
    # quasi-parity for D10: a stratum and its complement have the same
    # coloured subgroup diagram, and the same codimension parity at its top
    g = group_from_generators(5, ["(12345)", "(14)(23)"])
    assert pc_check(g).satisfies
    for rep, stab, _size in g.orbits_of(all_subsets(5)):
        complement = tuple(sorted(set(range(5)) - set(rep)))
        reps = class_reps(stab)
        assert (_stratum_profile(rep, stab, reps)[0]
                == _stratum_profile(complement, stab, reps)[0])
        assert ((len(rep) - orbit_count(stab, rep)) % 2
                == (len(complement) - orbit_count(stab, complement)) % 2)


# -- one analysis per verdict ---------------------------------------------------------


def count_stratum_contributions(monkeypatch):
    import bhht.euler as euler_mod

    calls = []
    original = euler_mod._stratum_contribution

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(euler_mod, "_stratum_contribution", counted)
    return calls


def test_self_dual_verdict_analyses_once():
    fx = load_catalogue()["pc_a3"]
    report = verify_duality(fx.matrix, fx.perm_group())
    assert report.rhs_analysis is report.lhs_analysis
    assert report.lhs_analysis.reduced is report.lhs_analysis.reduced


@pytest.mark.parametrize("name", ["pc_a3", "x15_z5"])
def test_lemma_checks_reuse_the_verdicts_analyses(monkeypatch, name):
    fx = load_catalogue()[name]
    s = fx.perm_group()
    report = verify_duality(fx.matrix, s)
    assert (report.rhs_analysis is report.lhs_analysis) == (name == "pc_a3")
    calls = count_stratum_contributions(monkeypatch)
    assert lemma_level_checks(fx.matrix, s).all_passed
    assert calls == []


def test_equal_but_fresh_group_is_analysed_again(monkeypatch):
    fx = load_catalogue()["pc_a3"]
    first = euler_analysis(fx.matrix, fx.perm_group())
    calls = count_stratum_contributions(monkeypatch)
    again = euler_analysis(fx.matrix, fx.perm_group())
    assert calls and again is not first
    assert again.element == first.element


def test_third_verdict_pushes_out_the_first(monkeypatch):
    cases = [(parse_polynomial(text), group_from_generators(3, gens))
             for text, gens in (("x1^2+x2^2+x3^2", ["(12)"]),
                                ("x1^3+x2^3+x3^3", ["(123)"]),
                                ("x1^2*x2+x2^3+x3^2", []))]
    first, _second, third = [euler_analysis(m, s) for m, s in cases]
    calls = count_stratum_contributions(monkeypatch)
    assert euler_analysis(*cases[2]) is third and calls == []
    assert euler_analysis(*cases[0]) is not first and calls


def test_failed_analysis_is_not_remembered(monkeypatch):
    import bhht.euler as euler_mod

    f = parse_polynomial("x1^2+x2^2")
    swap = group_from_generators(2, ["(12)"])
    original = euler_mod.fixed_chi
    monkeypatch.setattr(euler_mod, "fixed_chi",
                        lambda matrix, subset, perms: original(matrix, subset, perms) + 1)
    with pytest.raises(StructuralAssumptionViolated):
        euler_analysis(f, swap)
    monkeypatch.undo()
    calls = count_stratum_contributions(monkeypatch)
    analysis = euler_analysis(f, swap)
    fresh = group_from_generators(2, ["(12)"])
    assert calls and analysis.element == euler_analysis(f, fresh).element


def test_a_verdict_walks_each_orbit_and_transposes_once(monkeypatch):
    # table1_r80: a 5-loop with its Z5 rotation, f^T != f and PC.  Across a
    # verdict and its lemma checks, the orbits of one group object on one
    # point tuple are walked at most once, shared by fixed_chi, orbit_count
    # and the coloured diagrams, and f^T is built once
    from bhht import permgroups
    from bhht.polynomials import ExponentMatrix

    fx = CATALOGUE["table1_r80"]
    f = parse_polynomial(fx.polynomial_text).anchored()
    s = fx.perm_group()
    assert s.order == 5 and pc_check(s).satisfies
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    walks = []
    walk = permgroups._walk_orbits

    def counted_walk(group, points):
        walks.append((group, points))
        return walk(group, points)

    built = []
    init = ExponentMatrix.__init__

    def counted_init(matrix, *args):
        built.append(matrix)
        init(matrix, *args)

    monkeypatch.setattr(permgroups, "_walk_orbits", counted_walk)
    monkeypatch.setattr(ExponentMatrix, "__init__", counted_init)
    assert verify_duality(f, s).equal
    assert lemma_level_checks(f, s).all_passed
    assert walks
    assert max(Counter((id(g), points) for g, points in walks).values()) == 1
    assert built == [transpose(f)] and built[0] != f


@pytest.mark.parametrize("text, generators, built", [
    ("x1^3+x2^3+x3^3", ["(123)"], 1),  # pc_a3: f^T = f
    ("x1^2*x2+x2^3*x3+x3^4", [], 2),
])
def test_one_diagonal_group_per_side_of_a_verdict(monkeypatch, text, generators, built):
    calls = []
    original = DiagonalGroup.__init__

    def counted(group, matrix):
        calls.append(matrix)
        original(group, matrix)

    monkeypatch.setattr(DiagonalGroup, "__init__", counted)
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    f = parse_polynomial(text)
    s = group_from_generators(3, generators)
    assert verify_duality(f, s).equal
    assert lemma_level_checks(f, s).all_passed
    assert len(calls) == built


def measure_hermite_keys(monkeypatch):
    """Every Hermite key any bhht module builds from here on, by its width;
    each generator must be as wide as the key."""
    import bhht

    original = intmat.hermite_key
    widths = []

    def measured(generators, width, L):
        generators = [tuple(g) for g in generators]
        assert all(len(g) == width for g in generators)
        widths.append(width)
        return original(generators, width, L)

    for module in vars(bhht).values():
        if getattr(module, "hermite_key", None) is original:
            monkeypatch.setattr(module, "hermite_key", measured)
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    return widths


@pytest.mark.parametrize("name", ["pc_a3", "x15_z5", "table1_r2"])
def test_every_hermite_key_of_a_verdict_is_n_wide(monkeypatch, name):
    # a verdict and its lemma checks build no Hermite key at all; the path
    # that still keys, an annihilator, solves kernels mod L at most n
    # columns wide: a lattice stacked k + n wide would show here as a wider
    # key.  A fixture's subgroup lines read a key, and a scan of S for a
    # mixed class pair keys nothing
    from bhht.burnside import stratum_class
    from bhht.oracles import conjugators_by_scan
    from bhht.diaggroups import CharacterPairing
    from bhht.fixtures import format_group_subgroup

    fx = load_catalogue()[name]
    n = fx.matrix.n
    widths = measure_hermite_keys(monkeypatch)
    s = fx.perm_group()
    report = verify_duality(fx.matrix, s)
    assert report.equal
    assert lemma_level_checks(fx.matrix, s).all_passed
    assert widths == []

    group = report.lhs_analysis.group
    pairing = CharacterPairing.between(group, report.rhs_analysis.group)
    kernel = group.kernel_elements(key_of(group, group.stratum_kernel((0,))[0]))
    assert len(frozenset(pairing.annihilator(kernel))) * len(frozenset(kernel)) == group.order
    assert format_group_subgroup(group, kernel) != ["full"]
    annihilator_keys = len(widths)
    # [G x| S] against [K_full x| S]: two strata, so S is scanned, and each
    # s adds c(U) for U = s^-1 S s in closed form
    ambient = report.lhs_analysis.ambient
    point = stratum_class(ambient, (), s.elements)
    torus = stratum_class(ambient, tuple(range(n)), s.elements)
    assert point.closed != torus.closed
    assert conjugators_by_scan(point, torus)
    assert len(widths) == annihilator_keys and set(widths) == {n}


@pytest.mark.parametrize("name", [name for name in catalogue_pairs()
                                  if abs(determinant(CATALOGUE[name].matrix.rows))
                                  * CATALOGUE[name].perm_group().order <= 10_000])
def test_a_verdict_builds_no_hermite_key(monkeypatch, name):
    # c(U) and nondegeneracy come from the block generators, and G's key
    # is built only on first use, which no verdict makes
    fx = CATALOGUE[name]
    widths = measure_hermite_keys(monkeypatch)
    s = fx.perm_group()
    if verify_duality(fx.matrix, s).pc.satisfies:
        assert lemma_level_checks(fx.matrix, s).all_passed
    assert widths == []


def verdict_input(name):
    """A catalogue pair, or quartic6_a3: x1^4+...+x6^4 with <(123)>."""
    if name == "quartic6_a3":
        return (parse_polynomial("+".join("x%d^4" % i for i in range(1, 7))),
                group_from_generators(6, ["(123)"]))
    fx = load_catalogue()[name]
    return fx.matrix, fx.perm_group()


@pytest.mark.parametrize("name", ["pc_a3", "x15_z5", "table1_r2", "quartic6_a3"])
def test_a_verdict_restricts_each_stratum_once(monkeypatch, name):
    # fullness is read off the anchored rows, and fixed_chi folds each
    # (stratum, class) once across a verdict and its lemma checks
    f, s = verdict_input(name)
    fold = euler.fixed_chi
    calls = Counter()

    def folded(matrix, subset, perms):
        calls[matrix, tuple(subset), perms.element_set] += 1
        return fold(matrix, subset, perms)

    monkeypatch.setattr(euler, "fixed_chi", folded)
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    assert verify_duality(f, s).equal
    assert lemma_level_checks(f, s).all_passed
    assert calls and set(calls.values()) == {1}


def test_a_verdict_decomposes_f_and_its_transpose_once_each(monkeypatch):
    # an anchored matrix is its own anchored form, anchoring carries the
    # block structure over, and the transpose is validated once as it is
    # made: a verdict and its lemma checks decompose the parsed f and f^T
    from bhht import polynomials
    from bhht.polynomials import serialize_polynomial

    fx = load_catalogue()["table1_r11"]
    # the monomials in reverse, so that anchoring permutes the rows
    f = parse_polynomial("+".join(reversed(serialize_polynomial(fx.matrix).split("+"))))
    s = fx.perm_group()
    plain = polynomials._decompose
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return plain(matrix)

    monkeypatch.setattr(polynomials, "_decompose", counted)
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    assert verify_duality(f, s).equal
    assert calls == [f, transpose(f)]
    assert lemma_level_checks(f, s).all_passed
    assert calls == [f, transpose(f)]
    assert f.rows != f.anchored().rows


@pytest.mark.parametrize("name", ["pc_a3", "x15_z5", "table1_r2", "quartic6_a3"])
def test_a_verdict_solves_each_stratum_kernel_once(monkeypatch, name):
    # a verdict and its lemma checks make the kernel of an orbit
    # representative, of the zero set C of one's kernel, or, for the Saito
    # dual, of such a C's complement, each once per group
    f, s = verdict_input(name)
    plain = DiagonalGroup.stratum_kernel
    calls = Counter()
    groups = {}

    def counted(group, subset):
        groups[group.matrix] = group
        calls[group.matrix, tuple(subset)] += 1
        return plain(group, subset)

    monkeypatch.setattr(DiagonalGroup, "stratum_kernel", counted)
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    assert verify_duality(f, s).equal
    assert lemma_level_checks(f, s).all_passed
    reps = {rep for rep, _stab, _size in s.orbits_of(all_subsets(s.n))}
    n = f.n
    closures = {tuple(i for i in range(n) if not any(g[i] for g in plain(group, rep)[0]))
                for group in groups.values() for rep in reps}
    allowed = reps | closures | {tuple(i for i in range(n) if i not in c) for c in closures}
    assert calls and set(calls.values()) == {1}
    assert {subset for _matrix, subset in calls} <= allowed


def test_one_lattice_of_s_per_verify_with_lemmas(monkeypatch):
    import bhht.permgroups as permgroups_mod

    fx = load_catalogue()["table1_r2"]
    s = fx.perm_group()
    built = []
    original = permgroups_mod.SubgroupLattice.__init__

    def counted(lattice, group):
        built.append(group)
        original(lattice, group)

    monkeypatch.setattr(permgroups_mod.SubgroupLattice, "__init__", counted)
    assert verify_duality(fx.matrix, s).equal
    assert lemma_level_checks(fx.matrix, s).all_passed
    assert s.order > 1 and built.count(s) == 1
    # equal stabilizers, of f, of f^T and in the lemma checks, are one object
    assert len(built) == len(set(built)) == 2
    assert s.subgroup(s.elements) is s
    trivial = s.subgroup([identity_perm(s.n)])
    assert s.subgroup(trivial.elements) is trivial.subgroup(trivial.elements) is trivial
