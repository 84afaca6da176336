"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line once its assertions have gone through;
run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import time

import pytest
from conftest import X1, X14, X15, fixed_chi, is_even, key_of, seeded, stratum_classes_of

from bhht.burnside import BurnsideElement, SemidirectAmbient, mark
from bhht.diaggroups import (
    CharacterPairing,
    DiagonalGroup,
    perm_act,
)
from bhht.euler import euler_analysis, verify_duality
from bhht.fixtures import load_catalogue
from bhht.oracles import (
    group_elements,
    key_class,
    key_induction,
    key_saito_dual,
    naive_marks,
    split_subgroup_pairs,
    swapped,
)
from bhht.permgroups import (
    PermGroup,
    compose,
    group_from_generators,
    orbit,
    parse_cycles,
    pc_check,
)
from bhht.polynomials import parse_polynomial, transpose


@pytest.fixture(scope="module")
def catalogue():
    return load_catalogue()


def report(num, text):
    print("ACCEPTANCE %d: PASS - %s" % (num, text))


def test_criterion_1_counterexample_reproduction():
    started = time.time()
    for m in (3, 4, 5):
        matrix = parse_polynomial("+".join("x%d^%d" % (i, m) for i in range(1, 5)))
        s = group_from_generators(4, ["(12)(34)", "(13)(24)"])
        analysis = euler_analysis(matrix, s)
        top = next(st for st in analysis.strata if len(st.subset) == 4)
        coefficients = {}
        for key in top.class_keys:
            coefficients.setdefault(len(key), []).append(top.coefficients[key])
        assert coefficients == {4: [1], 2: [-1, -1, -1], 1: [1]}, m
        assert not verify_duality(matrix, s).equal
    elapsed = time.time() - started
    assert elapsed < 30, "runtime target exceeded: %.1fs" % elapsed
    report(1, "five-term counterexample expression and duality failure "
              "for m in {3,4,5} (%.1fs)" % elapsed)


def test_criterion_2_theorem_on_table_rows():
    cases = [(X1, ["(12)(34)"]), (X1, ["(123)"]), (X1, ["(12345)"]),
             (X14, ["(12)(34)"]), (X14, ["(13)(24)"]), (X15, ["(12345)"])]
    started = time.time()
    for text, gens in cases:
        rep = verify_duality(parse_polynomial(text), group_from_generators(5, gens))
        assert rep.pc.satisfies and rep.equal, (text, gens)
    bulk = time.time() - started
    assert bulk < 300, "runtime target exceeded: %.1fs" % bulk
    started = time.time()
    rep = verify_duality(parse_polynomial(X1),
                         group_from_generators(5, ["(12345)", "(14)(23)"]))
    assert rep.pc.satisfies and rep.equal
    dihedral = time.time() - started
    assert dihedral < 1800, "runtime target exceeded: %.1fs" % dihedral
    report(2, "duality holds on all seven parity-condition rows "
              "(%.1fs + %.1fs for the dihedral case)" % (bulk, dihedral))


def test_criterion_3_abelian_regression():
    started = time.time()
    cases = [("x1^5+x2^5", 2), ("x1^5+x2^5+x3^5", 3), (X14, 5),
             ("x1^2*x2+x2^3", 2), ("x1^2*x2+x1*x2^3", 2)]
    for text, n in cases:
        rep = verify_duality(parse_polynomial(text), PermGroup(n, ()))
        assert rep.equal, text
    elapsed = time.time() - started
    assert elapsed < 60
    report(3, "reduced invariants of all bundled polynomials with trivial "
              "symmetry are dual up to sign (%.1fs)" % elapsed)


def test_criterion_4_parity_condition_table():
    verdicts = [
        (group_from_generators(3, ["A3"]), True),
        (group_from_generators(4, ["A4"]), False),
        (group_from_generators(4, ["Z2x2"]), False),
        (group_from_generators(5, ["(12345)", "(12)(34)"]), False),  # all even, order 60
        (group_from_generators(5, ["D10"]), True),
    ]
    for group, expected in verdicts:
        assert pc_check(group).satisfies == expected
    s5 = group_from_generators(5, ["(12)", "(12345)"])
    assert len(s5.lattice.subgroups) == 156
    pc_count = 0
    for subgroup_set in s5.lattice.subgroups:
        subgroup = s5.subgroup(subgroup_set)
        if pc_check(subgroup).satisfies:
            pc_count += 1
            assert all(is_even(p) for p in subgroup)
    s6 = orbit(parse_cycles("e", 6),
               [parse_cycles("(12)", 6), parse_cycles("(123456)", 6)], compose)
    for p in sorted(s6):
        assert pc_check(PermGroup(6, [p])).satisfies == is_even(p)
    report(4, "five example verdicts, parity implies even over all 156 "
              "subgroups of the degree-5 symmetric group (%d satisfy it), "
              "cyclic criterion over all 720 cyclic subgroups in degree 6"
              % pc_count)


def test_criterion_5_varchenko_and_marks_oracles():
    for m in range(2, 8):
        matrix = parse_polynomial("x1^%d+x2^%d" % (m, m))
        genus_based = 2 - (m - 1) * (m - 2) - m - 2 * m
        assert genus_based == -m * m
        assert fixed_chi(matrix, (0, 1), PermGroup(2, ())) == genus_based
        assert fixed_chi(parse_polynomial("x1^%d" % m), (0,), PermGroup(1, ())) == m
    # exhaustive marks cross-check on a 162-element semidirect product: the
    # cosets of every class named by stratum, fixed by every split class
    matrix = parse_polynomial("x1^3+x2^3+x3^3")
    group = DiagonalGroup(matrix.anchored())
    perms = group_from_generators(3, ["(12)", "(123)"])
    ambient = SemidirectAmbient(group, perms)
    assert ambient.order == 162 <= 2000
    classes = {key_class(ambient, key_of(group, h), t)
               for h, t in split_subgroup_pairs(group, perms)}
    pairs = 0
    for a in stratum_classes_of(ambient):
        fixed = naive_marks(a)
        for b in classes:
            assert mark(a, b) == fixed(b)
            pairs += 1
    report(5, "determinant formula matches the genus oracle for m <= 7; "
              "coset-enumeration marks match the naive oracle on all %d "
              "(stratum class, split class) pairs" % pairs)


def _random_split_pair(rng, group, perms, t_choices):
    t_set = rng.choice(t_choices)
    seeds = [rng.choice(group_elements(group)) for _ in range(rng.randint(0, 2))]
    stable = [perm_act(t, g) for g in seeds for t in t_set]
    return key_of(group, stable), t_set


def test_criterion_6_structural_suite(catalogue):
    # zero marks-residual on every stratum of every bundled fixture: the
    # analyses below abort on any non-integer or inconsistent solution
    strata_seen = 0
    analysed = set()
    for fx in sorted(catalogue.values(), key=lambda f: f.name):
        if "error" in fx.expect:
            continue
        key = (fx.polynomial_text, tuple(fx.s_lines))
        if key in analysed:
            continue
        analysed.add(key)
        for matrix in (fx.matrix, transpose(fx.matrix)):
            analysis = euler_analysis(matrix, fx.perm_group())
            strata_seen += len(analysis.strata)

    rng = seeded(61)
    identity_checks = 0
    for text, gens in ((X1, ["(12345)", "(14)(23)"]), (X14, ["(12)(34)"]),
                       (X15, ["(12345)"])):
        matrix = parse_polynomial(text).anchored()
        pairing = CharacterPairing(matrix)
        perms = group_from_generators(5, gens)
        ambient = SemidirectAmbient(pairing.left, perms)
        dual_ambient = SemidirectAmbient(pairing.right, perms)
        t_choices = [frozenset(key) for key in perms.lattice.classes]
        sub = perms.subgroup(t_choices[min(1, len(t_choices) - 1)])
        sub_ambient = SemidirectAmbient(pairing.left, sub)
        dual_sub = SemidirectAmbient(pairing.right, sub)
        sub_choices = [t for t in t_choices if t <= sub.element_set]
        for _ in range(100):
            coeffs = {}
            for _term in range(rng.randint(1, 3)):
                h_key, t = _random_split_pair(rng, pairing.left, perms, t_choices)
                cls = key_class(ambient, h_key, t)
                coeffs[cls] = coeffs.get(cls, 0) + rng.randint(-3, 3)
            x = BurnsideElement(ambient, coeffs)
            assert key_saito_dual(key_saito_dual(x, dual_ambient), ambient) == x
            h_key, t = _random_split_pair(rng, pairing.left, sub, sub_choices)
            y = BurnsideElement(sub_ambient,
                                {key_class(sub_ambient, h_key, t): rng.randint(-3, 3)})
            one = key_induction(key_saito_dual(y, dual_sub), dual_ambient)
            two = key_saito_dual(key_induction(y, ambient), dual_ambient)
            assert one == two
            identity_checks += 1
    report(6, "zero marks residual on %d strata across the bundled fixtures; "
              "dual involution and induction commutation on %d randomized "
              "elements" % (strata_seen, identity_checks))


def test_criterion_7_annihilator_laws(catalogue):
    rows = {name: fx for name, fx in catalogue.items()
            if name.startswith("table1_")}
    checked = 0
    for name, fx in sorted(rows.items()):
        pairing = CharacterPairing(fx.matrix.anchored())
        subgroup = fx.g_subgroup(pairing.left)
        ann = pairing.annihilator(subgroup)
        listed = frozenset(subgroup)
        assert len(listed) * len(frozenset(ann)) == pairing.left.order, name
        assert frozenset(swapped(pairing).annihilator(ann)) == listed, name
        checked += 1
    # rows 2/83: the grading element dualizes to the index-five subgroup
    pairing = CharacterPairing(rows["table1_r2"].matrix.anchored())
    ann = frozenset(pairing.annihilator(rows["table1_r2"].g_subgroup(pairing.left)))
    listed = frozenset(rows["table1_r83"].g_subgroup(pairing.right))
    assert ann == listed
    assert len(ann) == 625
    assert all(sum(w) % 5 == 0 for w in ann)
    report(7, "order law and double duality on %d table rows; the grading "
              "element dualizes to the listed index-five subgroup" % checked)
