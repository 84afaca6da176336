import pytest
from conftest import seeded

from bhht.burnside import (
    BurnsideElement,
    HTClass,
    SemidirectAmbient,
    induction,
    mark,
    saito_dual,
    zero_element,
)
from bhht.diaggroups import (
    CharacterPairing,
    isotropy_on_stratum,
    subgroup_generated,
    symmetry_group,
)
from bhht.errors import AmbientMismatchError, MembershipError
from bhht.oracles import (
    ambient_elements,
    brute_conjugate_element,
    brute_conjugating_perm,
    brute_tag,
    inv,
    mul,
    naive_mark,
    split_subgroup_pairs,
)
from bhht.permgroups import PermGroup, group_from_generators, parse_cycles
from bhht.polynomials import parse_polynomial


@pytest.fixture(scope="module")
def small():
    """(Z2)^3 x| S3: 48 elements, small enough for exhaustive oracles."""
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    group = symmetry_group(matrix.anchored())
    perms = group_from_generators(3, ["(12)", "(123)"])
    return SemidirectAmbient(group, perms)


def ambient_of(polynomial, generators):
    matrix = parse_polynomial(polynomial)
    return SemidirectAmbient(symmetry_group(matrix.anchored()),
                             group_from_generators(matrix.n, generators))


def single(ambient, h_elements, t_elements, coefficient=1):
    """The element coefficient * [G x| S / H x| T]."""
    return BurnsideElement(ambient,
                           {HTClass(ambient, h_elements, t_elements): coefficient})


def split_classes(ambient):
    classes = {}
    for h, t in split_subgroup_pairs(ambient.diag, ambient.perms):
        cls = HTClass(ambient, h, t)
        classes.setdefault(cls.tag, cls)
    return sorted(classes.values(), key=lambda c: c.tag)


@pytest.fixture(scope="module")
def small_classes(small):
    return split_classes(small)


def test_ambient_group_axioms(small):
    rng = seeded(41)
    els = ambient_elements(small)
    assert len(els) == 48
    e = small.identity
    for _ in range(80):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert mul(small, mul(small, a, b), c) == mul(small, a, mul(small, b, c))
        assert mul(small, a, inv(small, a)) == e
        assert mul(small, e, a) == a


def test_ht_class_requires_actual_subgroups(small):
    with pytest.raises(MembershipError):
        HTClass(small, {small.diag.zero, (1, 0, 0), (0, 1, 0)},  # not closed
                {parse_cycles("e", 3)})
    with pytest.raises(MembershipError):
        HTClass(small, {small.diag.zero},
                {parse_cycles("e", 3), parse_cycles("(123)", 3)})  # not closed


def test_ht_class_requires_invariant_h(small):
    # H = <first basis vector> is not invariant under (12)
    h = subgroup_generated(small.diag, [(1, 0, 0)])
    with pytest.raises(MembershipError):
        HTClass(small, h, {parse_cycles("(12)", 3), parse_cycles("e", 3)})


def test_conjugate_test_identical(small):
    h = frozenset(small.diag.elements)
    t = small.perms.element_set
    assert brute_conjugating_perm(small, h, t, h, t) == parse_cycles("e", 3)


def test_conjugate_test_coordinate_subgroups():
    quintic = parse_polynomial("x1^5+x2^5+x3^5+x4^5+x5^5")
    group = symmetry_group(quintic)
    perms = group_from_generators(5, ["(12)", "(123)"])  # S3 on the first three
    ambient = SemidirectAmbient(group, perms)
    h1 = isotropy_on_stratum(group, [0, 2])   # vanishing on slots 1 and 3
    h2 = isotropy_on_stratum(group, [1, 2])
    t1 = {parse_cycles("e", 5), parse_cycles("(13)", 5)}
    t2 = {parse_cycles("e", 5), parse_cycles("(23)", 5)}
    sigma = brute_conjugating_perm(ambient, h1, t1, h2, t2)
    assert sigma == parse_cycles("(12)", 5)


def test_conjugate_test_non_conjugate_tops(small):
    h = frozenset({small.diag.zero})
    t1 = {parse_cycles("e", 3), parse_cycles("(12)", 3)}
    t2 = frozenset(small.perms.elements)
    assert brute_conjugating_perm(small, h, t1, h, t2) is None


def test_conjugacy_criterion_matches_brute_force(small, small_classes):
    # split subgroups are conjugate iff conjugate by a permutation alone
    for a in small_classes:
        for b in small_classes:
            quick = brute_conjugating_perm(small, a.h_elements, a.t_elements,
                                           b.h_elements, b.t_elements)
            full = brute_conjugate_element(small, a.h_elements, a.t_elements,
                                           b.h_elements, b.t_elements)
            assert (quick is None) == (full is None)


def test_canonicalize_conjugates_share_representative(small, small_classes):
    from bhht.diaggroups import perm_act
    from bhht.permgroups import conjugate

    for cls in small_classes:
        for s in small.perms.elements:
            moved_h = frozenset(perm_act(s, h) for h in cls.h_elements)
            moved_t = frozenset(conjugate(s, t) for t in cls.t_elements)
            again = HTClass(small, moved_h, moved_t)
            assert again.tag == cls.tag
    tags = {cls.tag for cls in small_classes}
    assert len(tags) == len(small_classes)


@pytest.mark.parametrize("polynomial", ["x1^2+x2^2+x3^2", "x1^3+x2^3+x3^3"])
def test_canonical_tag_matches_brute_force(polynomial):
    # the fast canonicaliser against the minimum over every s of (sorted T, sorted H)
    ambient = ambient_of(polynomial, ["(12)", "(123)"])
    for h, t in split_subgroup_pairs(ambient.diag, ambient.perms):
        assert HTClass(ambient, h, t).tag == brute_tag(ambient, h, t)


def test_element_arithmetic(small):
    full = single(small, small.diag.elements, small.perms.elements)
    assert full + zero_element(small) == full
    assert full.reduce() == zero_element(small)
    assert full.reduce().reduce() == full.scale(-1)
    assert (full + full.scale(-1)) == zero_element(small)


def test_element_ambient_mismatch(small):
    other = SemidirectAmbient(small.diag, PermGroup(3, ()))
    with pytest.raises(AmbientMismatchError):
        zero_element(small) + zero_element(other)


def test_mark_trivial_column_is_index(small, small_classes):
    trivial = HTClass(small, {small.diag.zero}, {parse_cycles("e", 3)})
    for cls in small_classes:
        assert mark(cls, trivial) == small.order // cls.order


def test_mark_full_row_is_one(small, small_classes):
    full = HTClass(small, small.diag.elements, small.perms.elements)
    for cls in small_classes:
        assert mark(full, cls) == 1


def test_mark_against_naive_oracle(small, small_classes):
    for kp in small_classes:
        for k in small_classes:
            assert mark(kp, k) == naive_mark(kp, k)


@pytest.mark.parametrize("polynomial, generators, cyclic_g", [
    ("x1^2+x2^2+x3^2+x4^2", ["(12)(34)", "(13)(24)"], False),  # (Z2)^4 x| Klein four
    ("x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x1", ["(1234)"], True),      # loop, its rotation
])
def test_mark_against_naive_oracle_on_all_class_pairs(polynomial, generators,
                                                      cyclic_g):
    # every pair of classes, including H != H' and H' not S-invariant, which
    # the Euler characteristic path never asks for; subgroups of a cyclic G
    # are all S-invariant
    from bhht.diaggroups import perm_act

    ambient = ambient_of(polynomial, generators)
    classes = split_classes(ambient)
    unequal_h = not_invariant = 0
    for kp in classes:
        invariant = all(frozenset(perm_act(s, h) for h in kp.h_elements)
                        == kp.h_elements for s in ambient.perms.generators)
        for k in classes:
            assert mark(kp, k) == naive_mark(kp, k)
            unequal_h += kp.h_elements != k.h_elements
            not_invariant += not invariant
    assert unequal_h
    assert bool(not_invariant) != cyclic_g


@pytest.mark.parametrize("polynomial, generators", [
    ("x1^2+x2^2+x3^2+x4^2", ["(12)(34)", "(13)(24)"]),
    ("x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x1", ["(1234)"]),
])
def test_cocycle_kernel_order_matches_scan(polynomial, generators):
    # every (K', K) class pair and every s that mark counts over
    from bhht.burnside import _cocycle_kernel_order
    from bhht.intmat import kernel_mod
    from bhht.oracles import brute_cocycle_kernel_order
    from bhht.permgroups import conjugate, inverse

    ambient = ambient_of(polynomial, generators)
    diag = ambient.diag
    classes = split_classes(ambient)
    checked = set()
    for kp in classes:
        congruences = kernel_mod(kp.h_gens, diag.n, diag.exponent)[0]
        for k in classes:
            for s in ambient.perms.elements:
                moved = tuple(conjugate(inverse(s), t) for t in k.t_gens)
                if (kp.tag, moved) not in checked:
                    checked.add((kp.tag, moved))
                    assert _cocycle_kernel_order(diag, moved, congruences) \
                        == brute_cocycle_kernel_order(diag, moved, kp.h_elements)
    assert len(checked) > len(classes)


def test_mark_triangular_in_subconjugacy(small, small_classes):
    order = sorted(small_classes, key=lambda c: (-c.order, c.tag))
    for i, a in enumerate(order):
        assert mark(a, a) > 0
        for b in order[:i]:
            if b.order > a.order:
                assert mark(a, b) == 0  # bigger class cannot fix smaller cosets
    for a in order:
        for b in order:
            if mark(a, b) > 0:
                assert ht_subconjugate(small, b, a)


def ht_subconjugate(ambient, inner, outer):
    members = set(outer.subgroup_elements())
    inner_members = inner.subgroup_elements()
    for g in ambient_elements(ambient):
        gi = inv(ambient, g)
        if all(mul(ambient, mul(ambient, gi, x), g) in members
               for x in inner_members):
            return True
    return False


def test_diagonal_mark_is_normalizer_index(small, small_classes):
    # mark(K, K) equals [N(K) : K], with the normalizer computed by scanning
    # the whole ambient group
    for cls in small_classes:
        members = set(cls.subgroup_elements())
        normalizer = 0
        for g in ambient_elements(small):
            gi = inv(small, g)
            if all(mul(small, mul(small, g, x), gi) in members for x in members):
                normalizer += 1
        assert mark(cls, cls) == normalizer // cls.order


def test_induction_identity(small):
    full = single(small, small.diag.elements, small.perms.elements)
    assert induction(full, small.perms) == full


def test_induction_fuses_conjugate_classes():
    quintic = parse_polynomial("x1^3+x2^3+x3^3")
    group = symmetry_group(quintic)
    s3 = group_from_generators(3, ["(12)", "(123)"])
    loner = SemidirectAmbient(group, PermGroup(3, ()))
    h1 = isotropy_on_stratum(group, [0])
    h2 = isotropy_on_stratum(group, [1])
    e3 = {parse_cycles("e", 3)}
    x = single(loner, h1, e3) + single(loner, h2, e3)
    lifted = induction(x, s3)
    assert len(lifted.coefficients) == 1
    assert list(lifted.coefficients.values()) == [2]


def test_induction_requires_subgroup(small):
    with pytest.raises(AmbientMismatchError):
        induction(zero_element(small), PermGroup(3, ()))


def test_saito_dual_extremes(small):
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    pairing = CharacterPairing(matrix, left=small.diag)
    full_h = single(small, small.diag.elements, small.perms.elements)
    dual = saito_dual(full_h, pairing)
    (cls, coeff), = dual.coefficients.items()
    assert coeff == 1
    assert cls.h_order == 1 and cls.t_order == small.perms.order
    free = single(small, {small.diag.zero}, small.perms.elements)
    dual_free = saito_dual(free, pairing)
    (cls2, _), = dual_free.coefficients.items()
    assert cls2.h_order == pairing.right.order


def random_element(rng, ambient, pairs, max_terms=3):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        h, t = rng.choice(pairs)
        cls = HTClass(ambient, h, t)
        coeffs[cls] = coeffs.get(cls, 0) + rng.randint(-3, 3)
    return BurnsideElement(ambient, coeffs)


def test_saito_dual_involution_and_induction_commute(small):
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    pairing = CharacterPairing(matrix, left=small.diag)
    rng = seeded(42)
    pairs = split_subgroup_pairs(small.diag, small.perms)
    sub_perms = group_from_generators(3, ["(12)"])
    sub_ambient = SemidirectAmbient(small.diag, sub_perms)
    sub_pairs = [(h, t) for h, t in split_subgroup_pairs(small.diag, sub_perms)]
    for _ in range(100):
        x = random_element(rng, small, pairs)
        back = saito_dual(saito_dual(x, pairing), pairing.swapped())
        assert BurnsideElement(small, back.coefficients) == x
        y = random_element(rng, sub_ambient, sub_pairs)
        a = induction(saito_dual(y, pairing), small.perms)
        b = saito_dual(induction(y, small.perms), pairing)
        assert BurnsideElement(small, a.coefficients) \
            == BurnsideElement(small, b.coefficients)


def test_dual_conjugacy_criterion(small, small_classes):
    # split subgroups are conjugate iff their duals are
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    pairing = CharacterPairing(matrix, left=small.diag)
    dual_ambient = SemidirectAmbient(pairing.right, small.perms)
    for a in small_classes:
        for b in small_classes:
            forward = brute_conjugating_perm(small, a.h_elements, a.t_elements,
                                             b.h_elements, b.t_elements)
            da = (pairing.annihilator(a.h_elements), a.t_elements)
            db = (pairing.annihilator(b.h_elements), b.t_elements)
            backward = brute_conjugating_perm(dual_ambient, *da, *db)
            assert (forward is None) == (backward is None)


def test_serialization_is_deterministic(small):
    full = single(small, small.diag.elements, small.perms.elements)
    x = full + single(small, {small.diag.zero}, {parse_cycles("e", 3)}, -2)
    records = x.records()
    assert records == x.records()
    assert all(rec["orbitType"] == "[G⋊S/H⋊T]" for rec in records)
    assert [rec["coefficient"] for rec in records] == [-2, 1]
