from fractions import Fraction

import pytest
from conftest import random_invertible, seeded

from bhht.diaggroups import (
    CharacterPairing,
    generating_subset,
    isotropy_on_stratum,
    perm_act,
    subgroup_generated,
    symmetry_group,
)
from bhht.errors import MembershipError, SizeBoundError
from bhht.oracles import all_subgroups_abelian, brute_annihilator, brute_isotropy
from bhht.permgroups import PermGroup, group_from_generators, parse_cycles
from bhht.polynomials import check_invariance, parse_polynomial, weights


def J(group):
    return group.from_fractions([q % 1 for q in weights(group.matrix)])


@pytest.fixture
def gq(quintic):
    return symmetry_group(quintic.anchored())


# -- construction -------------------------------------------------------------


def test_group_orders(quintic, x14, x15):
    assert symmetry_group(quintic).order == 3125
    assert symmetry_group(x14.anchored()).order == 1125
    assert symmetry_group(x15.anchored()).order == 1025


def test_order_equals_det_random():
    rng = seeded(31)
    for _ in range(40):
        m = random_invertible(rng, max_vars=5)
        g = symmetry_group(m.anchored())
        assert g.order == abs(m.determinant())
        assert len(g.elements) == g.order
        for e in g.elements:
            assert e in g


def test_cyclic_of_order_six():
    g = symmetry_group(parse_polynomial("x1^2*x2+x2^3"))
    assert g.order == 6
    orders = sorted({len(subgroup_generated(g, [e])) for e in g.elements})
    assert 6 in orders  # cyclic: an element of full order exists


def test_single_variable_power():
    g = symmetry_group(parse_polynomial("x1^7"))
    assert g.order == 7
    assert g.elements == tuple((k,) for k in range(7))


def test_quintic_generators(gq):
    e1 = gq.from_fractions([Fraction(1, 5), 0, 0, 0, 0])
    assert e1 in gq
    with pytest.raises(MembershipError):
        gq.from_fractions([Fraction(1, 2), 0, 0, 0, 0])
    with pytest.raises(MembershipError):
        gq.from_fractions([Fraction(1, 7), 0, 0, 0, 0])


def test_size_bound():
    m = parse_polynomial("+".join("x%d^8" % i for i in range(1, 8)))
    g = symmetry_group(m, bound=10 ** 6)
    with pytest.raises(SizeBoundError):
        _ = g.elements  # 8^7 > 10^6


# -- subgroups ---------------------------------------------------------------


def test_subgroup_generated_trivial_and_full(gq):
    assert subgroup_generated(gq, []) == frozenset({gq.zero})
    basis = [vec for vec, _order in gq.basis]
    assert subgroup_generated(gq, basis) == frozenset(gq.elements)


def test_exponential_grading_subgroup(gq):
    j = J(gq)
    assert j == gq.from_fractions([Fraction(1, 5)] * 5)
    assert len(subgroup_generated(gq, [j])) == 5


def test_generator_not_in_group():
    g = symmetry_group(parse_polynomial("x1^2*x2+x2^3"))  # exponent 6
    with pytest.raises(MembershipError):
        subgroup_generated(g, [(1, 0)])  # 1/6 in the first slot: not a symmetry


def test_isotropy_on_stratum(gq):
    assert isotropy_on_stratum(gq, range(5)) == frozenset({gq.zero})
    assert isotropy_on_stratum(gq, []) == frozenset(gq.elements)
    assert len(isotropy_on_stratum(gq, [0, 1])) == 125


def test_fixed_subgroup(gq):
    # the elements every permutation fixes: constant on the orbits
    def fixed(perms):
        return frozenset(v for v in gq.elements
                         if all(perm_act(p, v) == v for p in perms.generators))

    assert fixed(PermGroup(5, ())) == frozenset(gq.elements)
    assert len(fixed(group_from_generators(5, ["(12)(34)"]))) == 125
    transitive = group_from_generators(5, ["(12345)"])
    assert fixed(transitive) == subgroup_generated(gq, [J(gq)])


def test_perm_act():
    v = (1, 2, 0, 0, 0)
    assert perm_act(parse_cycles("e", 5), v) == v
    assert perm_act(parse_cycles("(12)", 5), v) == (2, 1, 0, 0, 0)


def test_perm_act_composition_law():
    from bhht.permgroups import compose

    rng = seeded(32)
    for _ in range(100):
        n = 5
        s = list(range(n))
        t = list(range(n))
        rng.shuffle(s)
        rng.shuffle(t)
        v = tuple(rng.randrange(5) for _ in range(n))
        assert (perm_act(tuple(s), perm_act(tuple(t), v))
                == perm_act(compose(tuple(s), tuple(t)), v))


def test_perm_act_membership_iff_symmetry():
    from bhht.errors import NotInvariantError

    m = parse_polynomial("x1^2*x2+x2^3")
    g = symmetry_group(m)
    swap = parse_cycles("(12)", 2)
    with pytest.raises(NotInvariantError):
        check_invariance(m, group_from_generators(2, ["(12)"]))
    assert frozenset(perm_act(swap, e) for e in g.elements) \
        != frozenset(g.elements)
    gq = symmetry_group(parse_polynomial("x1^3+x2^3"))
    assert frozenset(perm_act(parse_cycles("(12)", 2), e) for e in gq.elements) \
        == frozenset(gq.elements)


# -- pairing and annihilators ---------------------------------------------------


def test_pairing_values(quintic):
    pairing = CharacterPairing(quintic)
    e1 = pairing.left.from_fractions([Fraction(1, 5), 0, 0, 0, 0])
    f1 = pairing.right.from_fractions([Fraction(1, 5), 0, 0, 0, 0])
    assert pairing.value(e1, f1) == Fraction(1, 5)
    assert pairing.value(pairing.left.zero, f1) == 0


def test_pairing_membership_checked():
    pairing = CharacterPairing(parse_polynomial("x1^2*x2+x2^3"))
    with pytest.raises(MembershipError):
        pairing.value((1, 0), pairing.right.zero)


def test_pairing_bilinear(x14):
    pairing = CharacterPairing(x14)
    rng = seeded(33)
    left = pairing.left.elements
    right = pairing.right.elements
    for _ in range(50):
        v1, v2 = rng.choice(left), rng.choice(left)
        w = rng.choice(right)
        lhs = pairing.value(pairing.left.add(v1, v2), w)
        rhs = (pairing.value(v1, w) + pairing.value(v2, w)) % 1
        assert lhs == rhs


def test_pairing_nondegenerate_small():
    for text in ("x1^2*x2+x2^3", "x1^2*x2+x1*x2^3", "x1^3+x2^3",
                 "x1^2+x2^2+x3^2", "x1^4*x2+x2^4*x1"):
        CharacterPairing(parse_polynomial(text)).verify_nondegenerate()


def test_pairing_symmetric_under_swap(x15):
    pairing = CharacterPairing(x15)
    sw = pairing.swapped()
    rng = seeded(34)
    for _ in range(50):
        v = rng.choice(pairing.left.elements)
        w = rng.choice(pairing.right.elements)
        assert pairing.value(v, w) == sw.value(w, v)


def test_pairing_equivariance(quintic, x14, x15):
    # pairing(s.v, s.w) == pairing(v, w) whenever s preserves the polynomial
    rng = seeded(35)
    for matrix, gens in ((quintic, ["(12345)", "(14)(23)"]),
                         (x14, ["(12)(34)"]), (x15, ["(12345)"])):
        pairing = CharacterPairing(matrix)
        perms = group_from_generators(5, gens)
        for _ in range(30):
            s = rng.choice(perms.elements)
            v = rng.choice(pairing.left.elements)
            w = rng.choice(pairing.right.elements)
            assert pairing.value(perm_act(s, v), perm_act(s, w)) \
                == pairing.value(v, w)


def test_annihilator_extremes(quintic):
    pairing = CharacterPairing(quintic)
    assert pairing.annihilator(frozenset(pairing.left.elements)) \
        == frozenset({pairing.right.zero})
    assert pairing.annihilator(frozenset({pairing.left.zero})) \
        == frozenset(pairing.right.elements)


def test_annihilator_of_grading_element(quintic):
    # characters killing the grading element: total exponent divisible by 5
    pairing = CharacterPairing(quintic)
    ann = pairing.annihilator(subgroup_generated(pairing.left, [J(pairing.left)]))
    assert len(ann) == 625
    assert all(sum(w) % 5 == 0 for w in ann)


def test_annihilator_order_law_and_double_dual():
    # every subgroup of every diagonal group of order up to 64
    for text in ("x1^3+x2^3", "x1^2*x2+x2^3", "x1^2+x2^2+x3^2",
                 "x1^4*x2+x2^4*x1", "x1^5+x2^5", "x1^3+x2^3+x3^3",
                 "x1^2*x2+x2^2*x3+x3^3", "x1^7"):
        pairing = CharacterPairing(parse_polynomial(text))
        for h in all_subgroups_abelian(pairing.left):
            ann = pairing.annihilator(h)
            assert len(h) * len(ann) == pairing.left.order
            assert pairing.swapped().annihilator(ann) == h


def test_annihilator_s_invariance(quintic):
    # if the subgroup is preserved by a symmetry, so is its annihilator
    pairing = CharacterPairing(quintic)
    perms = group_from_generators(5, ["(12345)", "(14)(23)"])
    h = subgroup_generated(
        pairing.left,
        [J(pairing.left),
         pairing.left.from_fractions([Fraction(k, 5) for k in (0, 1, 4, 4, 1)]),
         pairing.left.from_fractions([Fraction(k, 5) for k in (0, 1, 2, 3, 4)])])
    for s in perms.elements:
        assert frozenset(perm_act(s, x) for x in h) == h
    ann = pairing.annihilator(h)
    for s in perms.elements:
        assert frozenset(perm_act(s, x) for x in ann) == ann


def test_annihilator_kernel_matches_pairing_scan(quintic, x14):
    # the kernel annihilator against a scan of the dual group with the pairing
    for matrix in (quintic, x14):
        pairing = CharacterPairing(matrix)
        rng = seeded(37)
        for size in range(4):
            gens = [rng.choice(pairing.left.elements) for _ in range(size)]
            h = subgroup_generated(pairing.left, gens)
            assert pairing.annihilator(h) == brute_annihilator(pairing, h)
    for text in ("x1^2*x2+x2^3", "x1^2+x2^2+x3^2", "x1^4*x2+x2^4*x1",
                 "x1^2*x2+x2^2*x3+x3^3"):
        pairing = CharacterPairing(parse_polynomial(text))
        for side in (pairing, pairing.swapped()):
            for h in all_subgroups_abelian(side.left):
                assert side.annihilator(h) == brute_annihilator(side, h)


def test_kernels_never_list_the_whole_group(quintic):
    # a bound below |G| = 3125 stops any listing of G, not the kernels
    pairing = CharacterPairing(quintic, bound=1000)
    with pytest.raises(SizeBoundError):
        _ = pairing.right.elements
    h = subgroup_generated(pairing.left, [J(pairing.left)])
    assert len(pairing.annihilator(h)) == 625
    assert len(isotropy_on_stratum(pairing.left, [0, 1])) == 125
    with pytest.raises(SizeBoundError):
        isotropy_on_stratum(pairing.left, [])  # all 3125 elements
    pairing.verify_nondegenerate()


def test_isotropy_on_stratum_matches_scan(quintic, x14, x15):
    from itertools import combinations

    rng = seeded(38)
    matrices = [quintic, x14, x15, parse_polynomial("x1^2*x2+x2^3"),
                random_invertible(rng, max_vars=4)]
    for matrix in matrices:
        group = symmetry_group(matrix.anchored())
        for k in range(group.n + 1):
            for subset in combinations(range(group.n), k):
                assert isotropy_on_stratum(group, subset) == brute_isotropy(group, subset)


def test_generating_subset_round_trip(gq):
    rng = seeded(36)
    for _ in range(20):
        gens = [rng.choice(gq.elements) for _ in range(rng.randint(1, 3))]
        h = subgroup_generated(gq, gens)
        small = generating_subset(gq, h)
        assert subgroup_generated(gq, small) == h
        assert len(small) <= 5


def test_format_element(gq):
    j = J(gq)
    assert gq.format_element(j) == "1/5(1,1,1,1,1)"
    assert gq.format_element(gq.zero) == "1/1(0,0,0,0,0)"
