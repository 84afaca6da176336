import pytest
from conftest import X14, X15, seeded

from bhht.diaggroups import isotropy_on_stratum, symmetry_group
from bhht.errors import StructuralAssumptionViolated
from bhht.euler import (
    _stratum_profile,
    euler_analysis,
    lemma_level_checks,
    stratum_chi_fixed,
    verify_duality,
)
from bhht.oracles import check_fixed_point_consistency
from bhht.permgroups import (
    PermGroup,
    group_from_generators,
    orbit_count,
    orbits_on_subsets,
    pc_check,
)
from bhht.polynomials import parse_polynomial, restrict, transpose


def torus_curve_chi_oracle(m):
    """chi of {x^m + y^m = 1} inside the 2-torus, from the genus.

    The smooth projective curve has genus (m-1)(m-2)/2 and m points at
    infinity, so the affine curve has chi = 2 - (m-1)(m-2) - m; removing the
    2m axis points leaves the torus part.
    """
    return 2 - (m - 1) * (m - 2) - m - 2 * m


# -- fixed-locus Euler characteristics ---------------------------------------------


def test_chi_one_variable_power():
    for m in range(1, 8):
        e = parse_polynomial("x1^%d" % m)
        assert stratum_chi_fixed(e, [0], PermGroup(1, ())) == m


def test_chi_fermat_curve_matches_genus_oracle():
    for m in range(2, 8):
        e = parse_polynomial("x1^%d+x2^%d" % (m, m))
        value = stratum_chi_fixed(e, [0, 1], PermGroup(2, ()))
        assert value == torus_curve_chi_oracle(m) == -m * m


def test_chi_fermat_curve_swapped():
    for m in range(2, 8):
        e = parse_polynomial("x1^%d+x2^%d" % (m, m))
        swap = group_from_generators(2, ["(12)"])
        assert stratum_chi_fixed(e, [0, 1], swap) == m


def test_chi_degenerate_restriction_is_zero(x15):
    assert stratum_chi_fixed(x15, [0, 1], PermGroup(5, ())) == 0


def test_chi_empty_stratum_rejected(quintic):
    with pytest.raises(ValueError):
        stratum_chi_fixed(quintic, [], PermGroup(5, ()))


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

    original = euler_mod.stratum_chi_fixed

    def corrupted(matrix, subset, perms):
        value = original(matrix, subset, perms)
        return value + 1 if len(subset) == 5 and perms.order == 2 else value

    euler_mod.stratum_chi_fixed = corrupted
    try:
        with pytest.raises(StructuralAssumptionViolated):
            euler_analysis(quintic, group_from_generators(5, ["(12)(34)"]))
    finally:
        euler_mod.stratum_chi_fixed = original


def test_structural_failure_carries_stratum_class_and_residual(monkeypatch):
    import bhht.burnside as burnside_mod
    import bhht.euler as euler_mod

    f = parse_polynomial("x1^2+x2^2")
    swap = group_from_generators(2, ["(12)"])
    # first stratum (1,): kernel of order 2, trivial stabilizer; the diagonal
    # mark is 2 and the fixed-locus Euler characteristic 2
    original = euler_mod.stratum_chi_fixed
    monkeypatch.setattr(euler_mod, "stratum_chi_fixed",
                        lambda m, subset, perms: original(m, subset, perms) + 1)
    with pytest.raises(StructuralAssumptionViolated) as info:
        euler_analysis(f, swap)
    assert (info.value.stratum, info.value.class_order, info.value.residual) \
        == ((1,), 1, 1)
    monkeypatch.undo()

    # a fixed-element count one too many: mark divides 5 by |K'| = 2
    count = burnside_mod._cocycle_kernel_order
    monkeypatch.setattr(burnside_mod, "_cocycle_kernel_order",
                        lambda diag, perms, congruences: count(diag, perms, congruences) + 1)
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
    group = symmetry_group(quintic)
    element = euler_analysis(quintic, s, group=group).element
    kernels = set()
    for mask in range(1, 1 << 5):
        subset = [i for i in range(5) if mask >> i & 1]
        kernels.add(isotropy_on_stratum(group, subset))
    for cls in element.coefficients:
        assert cls.h_elements in kernels


def test_assembly_is_sum_of_stratum_inductions(x14):
    from bhht.burnside import BurnsideElement, zero_element

    s = group_from_generators(5, ["(12)(34)"])
    analysis = euler_analysis(x14, s)
    total = zero_element(analysis.ambient)
    for stratum in analysis.strata:
        total = total + BurnsideElement(analysis.ambient,
                                        stratum.induced.coefficients)
    assert total == analysis.element


def test_reduce_subtracts_the_point(quintic):
    analysis = euler_analysis(quintic, PermGroup(5, ()))
    delta = analysis.element - analysis.reduced
    (cls, coeff), = delta.coefficients.items()
    assert coeff == 1 and cls.h_order == 3125 and cls.t_order == 1


# -- frozen abelian regressions -------------------------------------------------------


def expected_kernel_orders(matrix, n):
    """Map each full stratum to (kernel order, sign) by direct restriction."""
    group = symmetry_group(matrix.anchored())
    out = {}
    for mask in range(1, 1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        base = restrict(matrix.anchored(), subset)
        if not base.full:
            continue
        kernel = isotropy_on_stratum(group, subset)
        chi = (-1) ** (len(subset) - 1) * abs(base.determinant())
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
    lattice = s.lattice
    for cls in lattice.conjugacy_classes:
        t = s.subgroup(lattice.class_key(cls))
        value = stratum_chi_fixed(matrix, range(5), t)
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


def test_deepest_coefficient_matches_orbit_parity(x14):
    s = group_from_generators(5, ["(12)(34)"])
    analysis = euler_analysis(x14, s)
    for stratum in analysis.strata:
        top_key = max(stratum.class_keys, key=len)
        expected = (-1) ** (orbit_count(stratum.stabilizer, stratum.subset) - 1)
        assert stratum.coefficients[top_key] == expected


# -- coloured subgroup diagrams -----------------------------------------------------


def class_reps(group):
    lattice = group.lattice
    return [group.subgroup(lattice.class_key(cls)) for cls in lattice.conjugacy_classes]


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
    for rep, stab, _size in orbits_on_subsets(g):
        complement = tuple(sorted(set(range(5)) - set(rep)))
        reps = class_reps(stab)
        assert (_stratum_profile(rep, stab, reps)[0]
                == _stratum_profile(complement, stab, reps)[0])
        assert ((len(rep) - orbit_count(stab, rep)) % 2
                == (len(complement) - orbit_count(stab, complement)) % 2)
