from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

import pytest
from conftest import key_of, random_invertible, seeded, stratum_elements, subgroup_of

from bhht import diaggroups
from bhht.diaggroups import (
    DEFAULT_GROUP_BOUND,
    CharacterPairing,
    DiagonalGroup,
    perm_act,
    subgroup_key,
)
from bhht.errors import BhhtError, DegeneratePairingError, MembershipError, SizeBoundError
from bhht.fixtures import format_group_subgroup, load_catalogue, parse_group_element
from bhht.intmat import hermite_generators, hermite_key, hermite_order, kernel_mod
from bhht.oracles import (
    add,
    all_subgroups_abelian,
    loop_perm_act,
    brute_annihilator,
    brute_isotropy,
    brute_span,
    check_hermite_keys,
    determinant,
    group_elements,
    kernel_nondegenerate,
    key_of_elements,
    pairing_value,
    weights,
)
from bhht.permgroups import PermGroup, group_from_generators, parse_cycles
from bhht.polynomials import check_invariance, parse_polynomial


@pytest.fixture
def gq(quintic):
    return DiagonalGroup(quintic.anchored())


# -- construction -------------------------------------------------------------


def test_group_orders(quintic, x14, x15):
    assert DiagonalGroup(quintic).order == 3125
    assert DiagonalGroup(x14.anchored()).order == 1125
    assert DiagonalGroup(x15.anchored()).order == 1025


def test_order_equals_det_random():
    rng = seeded(31)
    for _ in range(40):
        m = random_invertible(rng, max_vars=5)
        g = DiagonalGroup(m.anchored())
        assert g.order == abs(determinant(m.rows))
        elements = group_elements(g)
        assert len(elements) == g.order
        for e in elements:
            assert e in g


def test_determinant_and_grading_match_bareiss_and_cramer():
    # det E is the anchoring sign times the block orders, and J the sum of
    # the k_B g_B; the references are Bareiss and Cramer's weights mod 1,
    # on every valid catalogue matrix and seeded sums with shuffled rows
    rng = seeded(37)
    matrices = [random_invertible(rng) for _ in range(200)]
    for fx in load_catalogue().values():
        try:
            fx.matrix.validate()
        except BhhtError:
            continue
        matrices.append(fx.matrix)
    signs = set()
    for m in matrices:
        assert m.determinant() == determinant(m.rows), m
        group = DiagonalGroup(m)
        L = group.exponent
        assert group.grading == tuple(q % 1 * L for q in weights(m)), m
        signs.add(m.determinant() > 0)
    assert signs == {True, False}


def test_cyclic_of_order_six():
    g = DiagonalGroup(parse_polynomial("x1^2*x2+x2^3"))
    assert g.order == 6
    orders = sorted({len(brute_span(g, [e])) for e in group_elements(g)})
    assert 6 in orders  # cyclic: an element of full order exists


def test_single_variable_power():
    g = DiagonalGroup(parse_polynomial("x1^7"))
    assert g.order == 7
    assert group_elements(g) == tuple((k,) for k in range(7))


def test_quintic_generators(gq):
    e1 = parse_group_element("1/5(1,0,0,0,0)", gq)
    assert e1 in gq
    with pytest.raises(MembershipError):
        parse_group_element("1/2(1,0,0,0,0)", gq)
    with pytest.raises(MembershipError):
        parse_group_element("1/7(1,0,0,0,0)", gq)


def test_size_bound():
    m = parse_polynomial("+".join("x%d^8" % i for i in range(1, 8)))
    g = DiagonalGroup(m)
    with pytest.raises(SizeBoundError):
        group_elements(g)  # 8^7 > 10^6


# -- subgroups ---------------------------------------------------------------


def test_subgroup_generated_trivial_and_full(gq):
    assert key_of_elements(gq, [gq.zero]) == key_of(gq, ())
    gens = hermite_generators(gq.key, gq.exponent)
    assert brute_span(gq, gens) == frozenset(group_elements(gq))
    assert key_of_elements(gq, group_elements(gq)) == gq.key


def test_exponential_grading_subgroup(gq):
    j = gq.grading
    assert j == parse_group_element("1/5(1,1,1,1,1)", gq)
    assert len(brute_span(gq, [j])) == 5


def test_generator_not_in_group():
    # a closed subgroup of (Z/6)^2 outside G: 1/6 in the first slot is not
    # a symmetry
    g = DiagonalGroup(parse_polynomial("x1^2*x2+x2^3"))  # exponent 6
    outside = brute_span(g, [(1, 0)])
    assert len(outside) == 6 and (3, 0) in g
    for order in (sorted(outside), sorted(outside, reverse=True)):
        with pytest.raises(MembershipError):
            key_of_elements(g, order)


def test_membership_requires_reduced_vectors():
    g = DiagonalGroup(parse_polynomial("x1^3+x2^3"))  # exponent 3
    assert (0, 2) in g
    assert (0, 5) not in g and (0, -1) not in g


def test_exponent_is_largest_element_order():
    rng = seeded(44)
    for _ in range(40):
        g = DiagonalGroup(random_invertible(rng, max_vars=3))
        L = g.exponent
        elements = group_elements(g)
        assert len(elements) == g.order
        assert max(L // gcd(L, *e) for e in elements) == L


def test_isotropy_on_stratum(gq):
    assert stratum_elements(gq, range(5)) == frozenset({gq.zero})
    assert stratum_elements(gq, []) == frozenset(group_elements(gq))
    assert len(stratum_elements(gq, [0, 1])) == 125


def test_fixed_subgroup(gq):
    # the elements every permutation fixes: constant on the orbits
    def fixed(perms):
        return frozenset(v for v in group_elements(gq)
                         if all(perm_act(p, v) == v for p in perms.generators))

    assert fixed(PermGroup(5, ())) == frozenset(group_elements(gq))
    assert len(fixed(group_from_generators(5, ["(12)(34)"]))) == 125
    transitive = group_from_generators(5, ["(12345)"])
    assert fixed(transitive) == brute_span(gq, [gq.grading])


def test_perm_act():
    v = (1, 2, 0, 0, 0)
    assert perm_act(parse_cycles("e", 5), v) == v
    assert perm_act(parse_cycles("(12)", 5), v) == (2, 1, 0, 0, 0)


def test_perm_act_matches_the_index_loop():
    rng = seeded(33)
    for n in list(range(1, 8)) * 20:
        s = list(range(n))
        rng.shuffle(s)
        v = [rng.randrange(7) for _ in range(n)]
        assert perm_act(tuple(s), v) == loop_perm_act(tuple(s), v)
        assert perm_act(tuple(s), tuple(v)) == loop_perm_act(tuple(s), v)
    assert perm_act((0,), (3,)) == (3,)


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
    g = DiagonalGroup(m)
    swap = parse_cycles("(12)", 2)
    with pytest.raises(NotInvariantError):
        check_invariance(m, group_from_generators(2, ["(12)"]))
    elements = frozenset(group_elements(g))
    assert frozenset(perm_act(swap, e) for e in elements) != elements
    elements = frozenset(group_elements(DiagonalGroup(parse_polynomial("x1^3+x2^3"))))
    assert frozenset(perm_act(swap, e) for e in elements) == elements


# -- pairing and annihilators ---------------------------------------------------


def test_pairing_values(quintic):
    pairing = CharacterPairing(quintic)
    e1 = parse_group_element("1/5(1,0,0,0,0)", pairing.left)
    f1 = parse_group_element("1/5(1,0,0,0,0)", pairing.right)
    assert pairing_value(pairing, e1, f1) == Fraction(1, 5)
    assert pairing_value(pairing, pairing.left.zero, f1) == 0


def test_pairing_membership_checked():
    pairing = CharacterPairing(parse_polynomial("x1^2*x2+x2^3"))
    with pytest.raises(MembershipError):
        pairing_value(pairing, (1, 0), pairing.right.zero)


def test_pairing_bilinear(x14):
    pairing = CharacterPairing(x14)
    rng = seeded(33)
    left = group_elements(pairing.left)
    right = group_elements(pairing.right)
    for _ in range(50):
        v1, v2 = rng.choice(left), rng.choice(left)
        w = rng.choice(right)
        lhs = pairing_value(pairing, add(pairing.left, v1, v2), w)
        rhs = (pairing_value(pairing, v1, w) + pairing_value(pairing, v2, w)) % 1
        assert lhs == rhs


def test_pairing_nondegenerate_small():
    for text in ("x1^2*x2+x2^3", "x1^2*x2+x1*x2^3", "x1^3+x2^3",
                 "x1^2+x2^2+x3^2", "x1^4*x2+x2^4*x1"):
        CharacterPairing(parse_polynomial(text)).verify_nondegenerate()


def nondegeneracy_refusals(pairing):
    """The messages with which the block check and the reference, by the
    pairing's values, refuse the pairing, "" for an accepted one."""
    out = []
    for check in (CharacterPairing.verify_nondegenerate, kernel_nondegenerate):
        try:
            check(pairing)
            out.append("")
        except DegeneratePairingError as exc:
            out.append(str(exc))
    return out


def with_dual_generator_scaled(matrix, variables, k):
    """A fresh pairing of f whose dual group has the generator of the block
    on the given variables multiplied by k."""
    pairing = CharacterPairing(matrix)
    right = pairing.right
    b = next(b for b, block in enumerate(right.blocks) if set(block[2]) == set(variables))
    d, g, own = right.blocks[b]
    right.blocks[b] = d, tuple(k * x % right.exponent for x in g), own
    return pairing


def pairing_inputs():
    """Every catalogue matrix and 60 seeded invertible polynomials."""
    rng = seeded(2711)
    return ([fx.matrix for fx in load_catalogue().values() if "error" not in fx.expect]
            + [random_invertible(rng, max_vars=5) for _ in range(60)])


def distinct(matrices):
    """The matrices in order, each once: many fixtures share one f."""
    return list(dict.fromkeys(matrices))


def test_block_nondegeneracy_agrees_with_the_kernel_orders():
    for matrix in distinct(pairing_inputs()):
        assert nondegeneracy_refusals(CharacterPairing(matrix)) == ["", ""]


def test_a_scaled_block_generator_is_refused_exactly_when_it_loses_order():
    # k g'_B still generates <g'_B> when k is a unit mod d_B, and otherwise
    # generates a proper subgroup: both checks refuse exactly then
    refused = 0
    for matrix in distinct(pairing_inputs()[::3]):
        for d, _g, variables in DiagonalGroup(matrix.anchored()).blocks:
            for k in (2, 3, 5, 7):
                block, kernel = nondegeneracy_refusals(
                    with_dual_generator_scaled(matrix, variables, k))
                assert bool(block) == bool(kernel) == (gcd(k, d) > 1)
                refused += bool(block)
    assert refused > 20


def test_a_degenerate_pairing_names_its_block():
    # d = 6 on the chain x1^2 x2 + x2^3; doubling f^T's generator there
    # leaves a subgroup of order 3, which the element 3 g_B kills
    matrix = parse_polynomial("x1^2*x2+x2^3+x3^4")
    pairing = with_dual_generator_scaled(matrix, (0, 1), 2)
    with pytest.raises(DegeneratePairingError) as info:
        pairing.verify_nondegenerate()
    assert info.value.matrix == matrix
    assert str(info.value) == ("degenerate character pairing: "
                               "the block on x1, x2 does not pair to order 6")
    with pytest.raises(DegeneratePairingError, match="killed by every character"):
        kernel_nondegenerate(with_dual_generator_scaled(matrix, (0, 1), 2))


def test_pairing_symmetric_under_swap(x15):
    pairing = CharacterPairing(x15)
    sw = pairing.swapped()
    rng = seeded(34)
    left, right = group_elements(pairing.left), group_elements(pairing.right)
    for _ in range(50):
        v = rng.choice(left)
        w = rng.choice(right)
        assert pairing_value(pairing, v, w) == pairing_value(sw, w, v)


@pytest.mark.parametrize("text, generators", [
    ("x1^3+x2^3+x3^3", ["(123)"]),
    ("x1^2*x2+x2^3*x3+x3^4", []),
    ("x1^4*x2+x1*x2^4+x3^4*x4+x3*x4^4+x5^5", ["(12)(34)"]),
])
def test_congruence_rows_are_computed_once_per_element(monkeypatch, text, generators):
    # a verdict's dual strata and its nondegeneracy checks share E.a / L1 per
    # generator on each pairing; an element outside G is refused every time
    from collections import Counter, deque

    from bhht import diaggroups, euler

    computed = []
    asked = Counter()
    plain_matvec = diaggroups.matvec
    plain_congruence = CharacterPairing._congruence

    def counted_matvec(rows, v):
        computed.append(tuple(v))
        return plain_matvec(rows, v)

    def counted_congruence(pairing, a):
        asked[id(pairing), a] += 1
        return plain_congruence(pairing, a)

    monkeypatch.setattr(diaggroups, "matvec", counted_matvec)
    monkeypatch.setattr(CharacterPairing, "_congruence", counted_congruence)
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    f = parse_polynomial(text)
    s = group_from_generators(f.n, generators)
    assert euler.verify_duality(f, s).equal
    assert euler.lemma_level_checks(f, s).all_passed
    assert len(computed) == len(asked) < sum(asked.values())
    pairing = CharacterPairing(parse_polynomial("x1^2*x2+x2^3"))
    for _ in range(2):
        with pytest.raises(MembershipError):
            pairing._congruence((1, 0))


def test_pairing_equivariance(quintic, x14, x15):
    # pairing(s.v, s.w) == pairing(v, w) whenever s preserves the polynomial
    rng = seeded(35)
    for matrix, gens in ((quintic, ["(12345)", "(14)(23)"]),
                         (x14, ["(12)(34)"]), (x15, ["(12345)"])):
        pairing = CharacterPairing(matrix)
        perms = group_from_generators(5, gens)
        left, right = group_elements(pairing.left), group_elements(pairing.right)
        for _ in range(30):
            s = rng.choice(perms.elements)
            v = rng.choice(left)
            w = rng.choice(right)
            assert pairing_value(pairing, perm_act(s, v), perm_act(s, w)) \
                == pairing_value(pairing, v, w)


def test_annihilator_extremes(quintic):
    pairing = CharacterPairing(quintic)
    left = subgroup_of(pairing.left, group_elements(pairing.left))
    assert frozenset(pairing.annihilator(left)) == frozenset({pairing.right.zero})
    trivial = subgroup_of(pairing.left, {pairing.left.zero})
    assert frozenset(pairing.annihilator(trivial)) == frozenset(group_elements(pairing.right))


def test_annihilator_of_grading_element(quintic):
    # characters killing the grading element: total exponent divisible by 5
    pairing = CharacterPairing(quintic)
    h = subgroup_of(pairing.left, brute_span(pairing.left, [pairing.left.grading]))
    ann = frozenset(pairing.annihilator(h))
    assert len(ann) == 625
    assert all(sum(w) % 5 == 0 for w in ann)


def test_subgroup_counts_of_elementary_abelian_groups():
    # (Z/p)^n has as many subgroups as F_p^n has subspaces: 1 + 4 + 1 for
    # (Z/3)^2, 1 + 31 + 31 + 1 for (Z/5)^3, 1 + 15 + 35 + 15 + 1 for (Z/2)^4
    for text, count in (("x1^3+x2^3", 6), ("x1^5+x2^5+x3^5", 64),
                        ("x1^2+x2^2+x3^2+x4^2", 67)):
        assert len(all_subgroups_abelian(DiagonalGroup(parse_polynomial(text)))) == count


def test_annihilator_order_law_and_double_dual():
    # every subgroup of every diagonal group of order up to 64
    for text in ("x1^3+x2^3", "x1^2*x2+x2^3", "x1^2+x2^2+x3^2",
                 "x1^4*x2+x2^4*x1", "x1^5+x2^5", "x1^3+x2^3+x3^3",
                 "x1^2*x2+x2^2*x3+x3^3", "x1^7"):
        pairing = CharacterPairing(parse_polynomial(text))
        for h in all_subgroups_abelian(pairing.left):
            ann = pairing.annihilator(subgroup_of(pairing.left, h))
            assert len(h) * len(frozenset(ann)) == pairing.left.order
            assert frozenset(pairing.swapped().annihilator(ann)) == h


def test_annihilator_s_invariance(quintic):
    # if the subgroup is preserved by a symmetry, so is its annihilator
    pairing = CharacterPairing(quintic)
    perms = group_from_generators(5, ["(12345)", "(14)(23)"])
    h = brute_span(
        pairing.left,
        [pairing.left.grading,
         parse_group_element("1/5(0,1,4,4,1)", pairing.left),
         parse_group_element("1/5(0,1,2,3,4)", pairing.left)])
    for s in perms.elements:
        assert frozenset(perm_act(s, x) for x in h) == h
    ann = frozenset(pairing.annihilator(subgroup_of(pairing.left, h)))
    for s in perms.elements:
        assert frozenset(perm_act(s, x) for x in ann) == ann


def test_annihilator_kernel_matches_pairing_scan(quintic, x14):
    # the kernel annihilator against a scan of the dual group with the pairing
    for matrix in (quintic, x14):
        pairing = CharacterPairing(matrix)
        rng = seeded(37)
        left = group_elements(pairing.left)
        for size in range(4):
            gens = [rng.choice(left) for _ in range(size)]
            h = brute_span(pairing.left, gens)
            ann = pairing.annihilator(subgroup_of(pairing.left, h))
            assert frozenset(ann) == brute_annihilator(pairing, h)
    for text in ("x1^2*x2+x2^3", "x1^2+x2^2+x3^2", "x1^4*x2+x2^4*x1",
                 "x1^2*x2+x2^2*x3+x3^3"):
        pairing = CharacterPairing(parse_polynomial(text))
        for side in (pairing, pairing.swapped()):
            for h in all_subgroups_abelian(side.left):
                ann = side.annihilator(subgroup_of(side.left, h))
                assert frozenset(ann) == brute_annihilator(side, h)


def test_kernels_never_list_the_whole_group():
    # |G| = 8^7 = 2,097,152 is over the bound, so G is never listed; kernels are
    matrix = parse_polynomial("+".join("x%d^8" % i for i in range(1, 8)))
    pairing = CharacterPairing(matrix)
    assert pairing.right.order == 8 ** 7 > DEFAULT_GROUP_BOUND
    with pytest.raises(SizeBoundError):
        group_elements(pairing.right)
    h = stratum_elements(pairing.left, range(5))
    assert len(h) == 64
    assert len(frozenset(pairing.annihilator(subgroup_of(pairing.left, h)))) == 8 ** 5
    with pytest.raises(SizeBoundError):
        stratum_elements(pairing.left, [])  # all of G
    pairing.verify_nondegenerate()


def test_isotropy_on_stratum_matches_scan(quintic, x14, x15):
    from itertools import combinations

    rng = seeded(38)
    matrices = [quintic, x14, x15, parse_polynomial("x1^2*x2+x2^3"),
                random_invertible(rng, max_vars=4)]
    for matrix in matrices:
        group = DiagonalGroup(matrix.anchored())
        for k in range(group.n + 1):
            for subset in combinations(range(group.n), k):
                listed = stratum_elements(group, subset)
                assert listed == brute_isotropy(group, subset)


def test_stratum_kernel_is_the_kernel_of_unit_rows(quintic):
    # in closed form, the key is the one E's rows and the unit congruences
    # e_i.x = 0 give, and it lists what a scan of G finds, for every subset
    # of a chain, a loop and a Fermat polynomial
    from itertools import combinations

    matrices = [parse_polynomial("x1^2*x2+x2^3*x3+x3^4*x4+x4^2"),
                parse_polynomial("x1^3*x2+x2^2*x3+x3^4*x4+x4^2*x1"), quintic]
    for matrix in matrices:
        group = DiagonalGroup(matrix)
        n = group.n
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                units = [[int(i == j) for j in range(n)] for i in subset]
                key = kernel_mod([*group.matrix.rows, *units], n, group.exponent)
                assert key_of(group, group.stratum_kernel(subset)[0]) == key
                assert frozenset(group.kernel_elements(key)) == brute_isotropy(group, subset)


def closed_form_inputs():
    """At least 100 seeded sums of chains and loops in up to 6 variables,
    and every catalogue matrix with its transpose."""
    from bhht.errors import BhhtError
    from bhht.polynomials import transpose

    rng = seeded(47)
    matrices = [random_invertible(rng, max_vars=rng.randint(1, 6)) for _ in range(120)]
    for fx in load_catalogue().values():
        try:
            matrices += [fx.matrix, transpose(fx.matrix)]
        except BhhtError:
            continue
    return distinct(matrices)


def test_stratum_kernels_in_closed_form_match_the_solved_keys():
    # on every subset, the closed form's generators lie in the kernel a scan
    # of G lists and generate a subgroup of its order, so they span it, and
    # its zero set is the closed form's, which is empty for G itself; |G| is
    # |det E| and L the exponent of the kernel of E mod |det E|
    from itertools import combinations

    seen = dict.fromkeys(["chain with an exponent 1", "loop", "6 variables"], 0)
    for matrix in closed_form_inputs():
        group = DiagonalGroup(matrix)
        n, L = group.n, group.exponent
        det = abs(determinant(matrix.rows))
        assert group.order == det
        solved = hermite_generators(kernel_mod(matrix.rows, n, det), det)
        assert L == lcm(1, *(det // gcd(det, *g) for g in solved))
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                gens, order = group.stratum_kernel(subset)
                listed = brute_isotropy(group, subset)
                assert order == len(listed) == hermite_order(key_of(group, gens), L)
                assert set(gens) <= listed, (matrix, subset)
                zeros = tuple(i for i in range(n) if not any(e[i] for e in listed))
                assert group.zero_set(subset) == zeros
                assert k or zeros == (), matrix
        blocks = matrix.validate()
        seen["chain with an exponent 1"] += any(b.kind == "chain" and 1 in b.exponents
                                                for b in blocks)
        seen["loop"] += any(b.kind == "loop" for b in blocks)
        seen["6 variables"] += n == 6
    assert min(seen.values()) > 0, seen


def test_the_key_of_the_block_generators_is_the_kernel_of_e():
    # G's key, spanned by its block generators, is the one kernel_mod solves
    # from E's rows, on every valid bundled matrix and 200 seeded ones
    rng = seeded(38)
    bundled = [fx.matrix for fx in load_catalogue().values() if "error" not in fx.expect]
    matrices = distinct(bundled) + [random_invertible(rng, max_vars=6) for _ in range(200)]
    for matrix in matrices:
        group = DiagonalGroup(matrix)
        assert group.key == kernel_mod(matrix.rows, group.n, group.exponent), matrix
    assert len(bundled) == 54


def test_generating_subset_round_trip(gq):
    rng = seeded(36)
    elements = group_elements(gq)
    for _ in range(20):
        gens = [rng.choice(elements) for _ in range(rng.randint(1, 3))]
        h = brute_span(gq, gens)
        key = key_of_elements(gq, h)
        small = hermite_generators(key, gq.exponent)
        assert brute_span(gq, small) == h
        assert key == key_of(gq, gens)
        assert len(small) <= 5


def test_reduced_congruences_cut_out_the_group():
    # membership in G is E.v = 0 mod L on E's own rows, each of them: the
    # kernel of all rows but one holds elements that one row cuts out; and
    # the kernel of E's rows with further rows is the scan of G for those rows
    rng = seeded(45)
    catalogue = load_catalogue()
    matrices = [catalogue[name].matrix for name in (
        "chain23_abelian", "loop23_abelian", "x1_n2_abelian", "counterexample_m4",
        "x1_z2")]
    matrices += [random_invertible(rng, max_vars=4) for _ in range(40)]
    inside = outside = scanned = cut = 0
    for matrix in matrices:
        group = DiagonalGroup(matrix.anchored())
        n, L = group.n, group.exponent
        gens = hermite_generators(group.key, L)
        for _ in range(20):
            v = [rng.randrange(L) for _ in range(n)]
            if rng.random() < 0.5:  # a member: a combination of G's generators
                cs = [rng.randrange(L) for _ in gens]
                v = [sum(c * g[i] for c, g in zip(cs, gens)) % L for i in range(n)]
            by_e = all(sum(e * a for e, a in zip(row, v)) % L == 0
                       for row in group.matrix.rows)
            assert (tuple(v) in group) == by_e, (matrix, v)
            inside += by_e
            outside += not by_e
        e_rows = group.matrix.rows
        for k in range(n):  # the kernel of every row but row k
            for v in hermite_generators(kernel_mod(e_rows[:k] + e_rows[k + 1:], n, L), L):
                by_e = all(sum(e * a for e, a in zip(row, v)) % L == 0 for row in e_rows)
                assert (v in group) == by_e, (matrix, k, v)
                cut += not by_e
        if group.order > 2000:
            continue
        scanned += 1
        elements = group_elements(group)
        for _ in range(5):
            rows = [[rng.randrange(-L, L) for _ in range(n)]
                    for _ in range(rng.randint(1, 3))]
            key = kernel_mod([*group.matrix.rows, *rows], n, L)
            scan = frozenset(g for g in elements if all(
                sum(r * a for r, a in zip(row, g)) % L == 0 for row in rows))
            assert hermite_order(key, L) == len(scan), (matrix, rows)
            assert frozenset(group.kernel_elements(key)) == scan, (matrix, rows)
    assert inside > 100 and outside > 100 and scanned > 30 and cut > 100


def test_hermite_rows_are_the_greedy_generators_and_order_subgroups_as_listed():
    # read from the bottom up, a key's rows are the generators a greedy walk
    # over the sorted subgroup picks, each the least element outside the
    # closure of the ones before it; and they compare, equality included, as
    # the sorted subgroups do.  Over the bundled groups and seeded ones, with
    # |G| <= 5,000, and random subgroups of each
    rng = seeded(39)
    bundled = [fx.matrix for fx in load_catalogue().values() if "error" not in fx.expect]
    matrices = distinct(bundled) + [random_invertible(rng, max_vars=5) for _ in range(60)]
    partial = 0  # generators whose order exceeds the index they add
    pairs = groups = 0
    for matrix in matrices:
        group = DiagonalGroup(matrix.anchored())
        if group.order > 5000:
            continue
        groups += 1
        L = group.exponent
        elements = group_elements(group)
        subgroups = [brute_span(group, [rng.choice(elements)
                                        for _ in range(rng.randint(0, 3))])
                     for _ in range(5)]
        listed = []
        for h in subgroups:
            greedy, closed = [], frozenset({group.zero})
            for e in sorted(h):
                if e not in closed:
                    index = len(brute_span(group, greedy + [e])) // len(closed)
                    partial += 1 < index < len(brute_span(group, [e]))
                    greedy.append(e)
                    closed = brute_span(group, greedy)
            key = key_of_elements(group, h)
            assert key == key_of(group, h), matrix
            assert hermite_generators(key, L) == tuple(greedy), (matrix, h)
            listed.append((tuple(sorted(h)), tuple(greedy)))
        for a, rows_a in listed:
            for b, rows_b in listed:
                assert (a < b, a == b) == (rows_a < rows_b, rows_a == rows_b), matrix
                pairs += 1
    assert partial > 0 and groups > 60 and pairs > 1500


def test_hermite_keys_match_listed_subgroups():
    # equal keys exactly for equal spans, key membership as in the list and
    # the order from the pivots; each subgroup also comes from other
    # generating sets (reordered, with a sum added, all its elements), so a
    # key left unreduced above its pivots shows as two keys for one subgroup
    rng = seeded(43)
    tested = distinct = 0
    while tested < 40:
        group = DiagonalGroup(random_invertible(rng, max_vars=4).anchored())
        if group.order > 2000:
            continue
        tested += 1
        elements = group_elements(group)
        generator_sets = []
        for _ in range(4):
            gens = [rng.choice(elements) for _ in range(rng.randint(1, 3))]
            generator_sets += [gens, gens[::-1], gens + [add(group, gens[0], gens[-1])],
                               brute_span(group, gens)]
        distinct += check_hermite_keys(group, generator_sets)
    assert distinct > 80


def test_key_listing_matches_span_closure():
    # random keys, each listed from the key and by closing its generators;
    # kernel_elements hands out a Subgroup, which answers len, in, == and !=
    # from its key, and each answer and its walk are checked against that
    # closure
    rng, pick = seeded(45), seeded(47)
    kinds = dict.fromkeys(
        ["trivial", "full", "diagonal", "non-diagonal", "walked", "n = 1"], 0)
    # the last group's key has first row (4, 1, 6) mod 8: its multiples repeat
    # past column 0 with period 4, which does not divide L/d_0 = 2, so the
    # row is walked whole
    matrices = [parse_polynomial(text) for text in (
        "x1^7", "x1^12", "x1^2*x2+x2^3*x3+x3^4", "x1^2+x1*x3^2+x2^2*x3")]
    assert DiagonalGroup(matrices[-1].anchored()).key == ((4, 1, 6), (0, 2, 4), (0, 0, 8))
    matrices += [random_invertible(rng, max_vars=rng.randint(1, 4)) for _ in range(60)]
    keys = 0
    for matrix in matrices:
        group = DiagonalGroup(matrix.anchored())
        if group.order > 3000:
            continue
        n, L = group.n, group.exponent
        elements = group_elements(group)
        generator_sets = [[], hermite_generators(group.key, L)]
        generator_sets += [[rng.choice(elements) for _ in range(rng.randint(1, 3))]
                           for _ in range(6)]
        subgroups = []
        for gens in generator_sets:
            key = hermite_key(gens, n, L)
            listed, oracle = group.kernel_elements(key), brute_span(group, gens)
            assert len(listed) == len(oracle) and sorted(listed) == sorted(oracle), (matrix, gens)
            subgroups.append((listed, oracle))
            keys += 1
            # an entry past a pivot is reduced below it, so a row with one
            # has w_k > 1: some multiple under L/d_k is not zero there
            walked = any(x for j, row in enumerate(key) for x in row[j + 1:])
            if len(oracle) == 1:
                kinds["trivial"] += 1
            elif len(oracle) == group.order:
                kinds["full"] += 1
            elif walked:
                kinds["non-diagonal"] += 1
            else:
                kinds["diagonal"] += 1
            kinds["walked"] += walked
            kinds["n = 1"] += n == 1
            assert frozenset(listed) == oracle, key
            for other in (oracle, set(oracle)):
                assert listed == other and other == listed, key
                assert not (listed != other or other != listed), key
            outside = [v for v in elements if v not in oracle]
            unequal = []
            if len(oracle) > 1:
                unequal.append(oracle - {pick.choice(sorted(oracle - {group.zero}))})
            if outside:
                unequal += [oracle | {pick.choice(outside)}, set(oracle) | set(outside)]
            for other in unequal:
                assert listed != other and other != listed, key
                assert not (listed == other or other == listed), key
            vectors = pick.sample(sorted(oracle), min(10, len(oracle))) + outside[:10]
            vectors += [tuple(pick.randrange(L) for _ in range(n)) for _ in range(10)]
            for v in vectors:
                assert (v in listed) == (v in oracle), (key, v)
            for v in vectors[:5]:
                out_of_range = [(v[0] + L, *v[1:]), (v[0] - L, *v[1:])]
                wrong_length = [v + (0,), v[:-1]]
                assert not any(w in listed for w in out_of_range + wrong_length), (key, v)
        for a, oracle_a in subgroups:
            for b, oracle_b in subgroups:
                assert (a == b, a != b) == (oracle_a == oracle_b, oracle_a != oracle_b)
    assert keys >= 200 and min(kinds.values()) >= 10, (keys, kinds)


def test_subgroups_of_two_spaces_are_unequal():
    # a Subgroup equals another exactly when their (n, L) and keys are: the
    # trivial subgroups of a group with L = 5 and one with L = 15 both list
    # {(0,)} and are unequal, as are the full group of the first and the
    # subgroup of order 5 of the second.  Each still equals the element set
    # of the other; none has a hash, and subgroup_key and the annihilator
    # read a Subgroup's key only in their own (Z/L)^n
    five, fifteen = (DiagonalGroup(parse_polynomial(f)) for f in ("x1^5", "x1^15"))
    trivial_5, trivial_15 = (g.kernel_elements(key_of(g, ())) for g in (five, fifteen))
    assert trivial_5.key != trivial_15.key
    assert trivial_5 != trivial_15 and not trivial_15 == trivial_5
    assert trivial_5 == frozenset(trivial_15) and set(trivial_5) == trivial_15
    full_5 = five.kernel_elements(five.key)
    order_5 = fifteen.kernel_elements(key_of(fifteen, [(3,)]))
    assert len(full_5) == len(order_5) == 5
    assert full_5 != order_5 and not order_5 == full_5
    again = DiagonalGroup(parse_polynomial("x1^5"))
    assert full_5 == again.kernel_elements(again.key) and subgroup_key(again, full_5) == five.key
    for sub in (trivial_5, order_5):
        with pytest.raises(TypeError):
            hash(sub)
    with pytest.raises(MembershipError):
        subgroup_key(fifteen, trivial_5)
    with pytest.raises(MembershipError):
        CharacterPairing(parse_polynomial("x1^15")).annihilator(trivial_5)


def test_a_set_that_is_not_one_whole_subgroup_is_refused():
    # x1^5's group is Z/5: 6, 9 and 12 are not reduced mod 5, and {0, 1}
    # is two elements of the five it spans.  On x1^3+x2^3, {0, (1,0), (0,1)}
    # is three of the nine it spans, and the subgroup of order 3 of
    # x1^6+x2^6 that (2,0) spans has (4,0), no element of G; neither is a
    # Subgroup of G, so neither has an annihilator or generator lines
    five = DiagonalGroup(parse_polynomial("x1^5"))
    for elements in ([(0,), (3,), (6,), (9,), (12,)], [(0,), (1,)]):
        with pytest.raises(MembershipError):
            key_of_elements(five, elements)
    pairing = CharacterPairing(parse_polynomial("x1^3+x2^3"))
    three = {(0, 0), (1, 0), (0, 1)}
    sixes = DiagonalGroup(parse_polynomial("x1^6+x2^6"))
    other = sixes.kernel_elements(key_of(sixes, [(2, 0)]))
    assert set(other) == {(0, 0), (2, 0), (4, 0)}
    for h in (three, other):
        with pytest.raises(MembershipError):
            key_of_elements(pairing.left, h)
        with pytest.raises(MembershipError):
            pairing.annihilator(h)
        with pytest.raises(MembershipError):
            format_group_subgroup(pairing.left, h)


def test_a_subgroup_of_another_group_of_the_same_space_is_refused():
    # x1^2*x2+x1*x2^2 and x1^3+x2^3 both have n = 2 and L = 3, and (1,0) is
    # in the second's G but not in the first's, of order 3: the Subgroup
    # (1,0) spans is in the first's (Z/3)^2 and is still refused there, as
    # subgroup_key reads its key's generators against E's rows
    pairing = CharacterPairing(parse_polynomial("x1^2*x2+x1*x2^2"))
    small = pairing.left
    big = DiagonalGroup(parse_polynomial("x1^3+x2^3"))
    assert (small.n, small.exponent, small.order) == (2, 3, 3) and (1, 0) not in small
    sub = subgroup_of(big, [(0, 0), (1, 0), (2, 0)])
    assert sub.space == (small.n, small.exponent)
    with pytest.raises(MembershipError):
        subgroup_key(small, sub)
    with pytest.raises(MembershipError):
        format_group_subgroup(small, sub)
    with pytest.raises(MembershipError):
        pairing.annihilator(sub)
    own = small.kernel_elements(small.key)
    assert subgroup_key(small, own) == small.key
    assert format_group_subgroup(small, own) == ["full"]


def test_listing_of_rows_walked_whole_matches_the_sums_of_the_rows():
    # perfbench's mirror03 input: G = <J, 1/100(29,31,10,7,57,30)> in the
    # group of this f, L = 300.  Past its pivot, row 1's multiples first
    # vanish at 150 = L/d_1, and row 0's at 300, which does not divide
    # L/d_0 = 100; so both rows are walked whole, and every one of the
    # 15,000 elements is a walked sum
    group = DiagonalGroup(parse_polynomial(
        "x6^10+x1^10*x3+x4^10*x6+x2^3*x4+x1*x5^3+x3^10"))
    L = group.exponent
    h = parse_group_element("1/100(29,31,10,7,57,30)", group)
    key = hermite_key([group.grading, h], group.n, L)
    assert L == 300
    assert key[:2] == ((3, 1, 270, 297, 199, 30), (0, 2, 0, 294, 200, 60))
    assert all(row[k] == L for k, row in enumerate(key) if k > 1)
    sums = [tuple(sum(map(mul, c, column)) % L for column in zip(*key))
            for c in product(*(range(L // row[k]) for k, row in enumerate(key)))]
    assert len(set(sums)) == len(sums) == 15000
    assert frozenset(group.kernel_elements(key)) == frozenset(sums)


def test_a_key_over_the_bound_is_refused_before_a_row_is_walked(monkeypatch):
    # the chain's group is cyclic of order 8^7, so its key's first row is
    # nonzero past its pivot; each row's w_k is an lcm, taken before its
    # columns are walked
    group = DiagonalGroup(parse_polynomial(
        "+".join("x%d^8*x%d" % (i, i + 1) for i in range(1, 7)) + "+x7^8"))
    key = group.key
    assert hermite_order(key, group.exponent) == 8 ** 7 > DEFAULT_GROUP_BOUND
    assert any(key[0][1:])

    def no_walk(*numbers):
        raise AssertionError("a row was walked")

    monkeypatch.setattr(diaggroups, "lcm", no_walk)
    with pytest.raises(SizeBoundError):
        group.kernel_elements(key)


def test_format_element(gq):
    j = gq.grading
    assert gq.format_element(j) == "1/5(1,1,1,1,1)"
    assert gq.format_element(gq.zero) == "1/1(0,0,0,0,0)"
