import pytest
from conftest import (X1, key_of, seeded, stratum_classes_of, stratum_elements, subgroup_of,
                      summed)

from bhht import burnside
from bhht.burnside import (
    BurnsideElement,
    SemidirectAmbient,
    induction,
    mark,
    saito_dual,
    stratum_class,
)
from bhht.diaggroups import CharacterPairing, DiagonalGroup
from bhht.errors import AmbientMismatchError, MembershipError
from bhht.euler import verify_duality
from bhht.intmat import hermite_generators
from bhht.oracles import (
    ambient_elements,
    brute_conjugate_element,
    brute_conjugating_perm,
    brute_span,
    brute_tag,
    group_elements,
    h_elements_of,
    inv,
    key_class,
    key_induction,
    key_of_elements,
    key_saito_dual,
    mul,
    naive_marks,
    split_subgroup_pairs,
    subgroup_elements,
)
from bhht.permgroups import (
    PermGroup,
    compose,
    generating_set,
    group_from_generators,
    identity_perm,
    orbit,
    parse_cycles,
)
from bhht.polynomials import parse_polynomial


@pytest.fixture(scope="module")
def small():
    """(Z2)^3 x| S3: 48 elements, small enough for exhaustive oracles."""
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    group = DiagonalGroup(matrix.anchored())
    perms = group_from_generators(3, ["(12)", "(123)"])
    return SemidirectAmbient(group, perms)


def ambient_of(polynomial, generators):
    matrix = parse_polynomial(polynomial)
    return SemidirectAmbient(DiagonalGroup(matrix.anchored()),
                             group_from_generators(matrix.n, generators))


def single(ambient, h_elements, t_elements, coefficient=1):
    """The element coefficient * [G x| S / H x| T]."""
    return BurnsideElement(ambient,
                           {key_class(ambient, key_of(ambient.diag, h_elements), t_elements):
                            coefficient})


def split_classes(ambient):
    """Every class of split subgroups, named by Hermite keys, sorted by name."""
    classes = {key_class(ambient, key_of(ambient.diag, h), t)
               for h, t in split_subgroup_pairs(ambient.diag, ambient.perms)}
    return sorted(classes, key=lambda c: c.name)


@pytest.fixture(scope="module")
def small_classes(small):
    return split_classes(small)


def test_ambient_group_axioms(small):
    rng = seeded(41)
    els = ambient_elements(small)
    assert len(els) == 48
    e = (small.diag.zero, identity_perm(3))
    for _ in range(80):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert mul(small, mul(small, a, b), c) == mul(small, a, mul(small, b, c))
        assert mul(small, a, inv(small, a)) == e
        assert mul(small, e, a) == a


def test_ht_class_of_generators_is_the_class_of_their_closure(small):
    e, c = parse_cycles("e", 3), parse_cycles("(123)", 3)
    h = {(1, 0, 0), (0, 1, 0)}
    closed = key_class(small, key_of(small.diag, brute_span(small.diag, h)), {e})
    assert key_class(small, key_of(small.diag, h), {e}) == closed and closed.h_order == 4
    trivial = key_of(small.diag, ())
    rotations = key_class(small, trivial, orbit(e, [c], compose))
    assert key_class(small, trivial, {c}) == rotations and rotations.t_order == 3


def test_ht_class_rejects_generators_outside_g_or_s(small):
    # the chain x1^2*x2 + x2^2 has G of order 4 inside (Z/4)^2: (1, 0) is
    # not in G, so a key with that row names no subgroup of G
    chain = ambient_of("x1^2*x2+x2^2", [])
    assert chain.diag.order < chain.diag.exponent ** 2
    outside = key_of(chain.diag, [(1, 0)])
    assert (1, 0) not in chain.diag and (1, 0) in outside
    with pytest.raises(MembershipError):
        key_class(chain, outside, {parse_cycles("e", 2)})
    rotations = SemidirectAmbient(small.diag, group_from_generators(3, ["(123)"]))
    with pytest.raises(MembershipError):
        key_class(rotations, key_of(small.diag, ()), {parse_cycles("(12)", 3)})


def test_ht_class_requires_invariant_h(small):
    # H = <first basis vector> is not invariant under (12)
    h = key_of(small.diag, [(1, 0, 0)])
    with pytest.raises(MembershipError):
        key_class(small, h, {parse_cycles("(12)", 3), parse_cycles("e", 3)})


def test_conjugate_test_identical(small):
    h = frozenset(group_elements(small.diag))
    t = small.perms.element_set
    assert brute_conjugating_perm(small, h, t, h, t) == parse_cycles("e", 3)


def test_conjugate_test_coordinate_subgroups():
    quintic = parse_polynomial("x1^5+x2^5+x3^5+x4^5+x5^5")
    group = DiagonalGroup(quintic)
    perms = group_from_generators(5, ["(12)", "(123)"])  # S3 on the first three
    ambient = SemidirectAmbient(group, perms)
    # vanishing on slots 1 and 3
    h1 = stratum_elements(group, [0, 2])
    h2 = stratum_elements(group, [1, 2])
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
            ha, hb = h_elements_of(a), h_elements_of(b)
            quick = brute_conjugating_perm(small, ha, a.t_elements, hb, b.t_elements)
            full = brute_conjugate_element(small, ha, a.t_elements, hb, b.t_elements)
            assert (quick is None) == (full is None)


def test_canonicalize_conjugates_share_representative(small, small_classes):
    from bhht.diaggroups import perm_act
    from bhht.permgroups import conjugate

    for cls in small_classes:
        for s in small.perms.elements:
            moved_h = frozenset(perm_act(s, h) for h in h_elements_of(cls))
            moved_t = frozenset(conjugate(s, t) for t in cls.t_elements)
            again = key_class(small, key_of(small.diag, moved_h), moved_t)
            assert again == cls
    names = {cls.name for cls in small_classes}
    assert len(names) == len(small_classes)


# T with several conjugates: S4, D8 and Z2 x Z2 on four variables
TAG_AMBIENTS = [
    pytest.param("x1^2+x2^2+x3^2", ["(12)", "(123)"], id="x1^2+x2^2+x3^2"),
    pytest.param("x1^3+x2^3+x3^3", ["(12)", "(123)"], id="x1^3+x2^3+x3^3"),
    pytest.param("x1^2+x2^2+x3^2+x4^2", ["(12)", "(1234)"], id="S4"),
    pytest.param("x1^2+x2^2+x3^2+x4^2", ["(1234)", "(13)"], id="D8"),
    pytest.param("x1^2+x2^2+x3^2+x4^2", ["(12)(34)", "(13)(24)"], id="Z2xZ2"),
]


@pytest.mark.parametrize("polynomial, generators", TAG_AMBIENTS)
def test_canonical_tag_matches_brute_force(polynomial, generators):
    # the output order of every class named by stratum, read off its zero
    # set's orbit, against the minimum over every s of (sorted T, sorted H),
    # that H read back as its key's rows; and tags order the classes as
    # those listed minima do
    ambient = ambient_of(polynomial, generators)
    diag = ambient.diag
    pairs = []
    for cls in stratum_classes_of(ambient):
        brute = brute_tag(ambient, h_elements_of(cls), cls.t_elements)
        tag = (brute[0], hermite_generators(key_of(diag, brute[1]), diag.exponent))
        assert cls.tag == tag
        pairs.append((brute, tag))
    assert all((a < b) == (tag_a < tag_b) for a, tag_a in pairs for b, tag_b in pairs)


def test_tag_refuses_a_class_named_by_hermite_key(small):
    # only a class named by stratum has a zero set whose orbit gives its
    # conjugates; a class named by Hermite keys is ordered by the brute tag
    cls = key_class(small, key_of(small.diag, ()), {parse_cycles("e", 3)})
    with pytest.raises(ValueError):
        cls.tag


@pytest.mark.parametrize("polynomial, generators", TAG_AMBIENTS)
def test_class_identity_matches_brute_force(polynomial, generators):
    # classes are equal, with equal hashes, exactly when their brute-force
    # tags are: the Hermite keys identify the same classes as sorted lists
    ambient = ambient_of(polynomial, generators)
    by_tag = {}
    for h, t in split_subgroup_pairs(ambient.diag, ambient.perms):
        by_tag.setdefault(brute_tag(ambient, h, t), []).append(
            key_class(ambient, key_of_elements(ambient.diag, h), generating_set(t)))
    reps = []
    for same in by_tag.values():
        assert all(cls == same[0] and hash(cls) == hash(same[0]) for cls in same)
        reps.append(same[0])
    assert all((a == b) == (i == j) for i, a in enumerate(reps)
               for j, b in enumerate(reps))


def test_class_keys_come_from_the_lattice(monkeypatch):
    # T's class key is read from S's lattice, and S is scanned with T's
    # generators alone; conjugating all of T by all of S, as the brute tag
    # does, took 176,321 calls for this verdict
    calls = []
    plain = burnside.conjugate

    def counted(s, t):
        calls.append(1)
        return plain(s, t)

    monkeypatch.setattr(burnside, "conjugate", counted)
    s5 = group_from_generators(5, ["(12)", "(12345)"])
    assert not verify_duality(parse_polynomial(X1), s5).equal
    assert len(calls) <= 60000


def test_classes_take_the_key_they_are_handed(monkeypatch):
    # a verdict's classes take H's generators and order from the closed form
    # of the stratum kernel their name hands them: each kernel is made once
    # per subset, and no Hermite key is built, of H or of anything else.
    # The quintic is self-transposed with S trivial, so its 31 strata and
    # the point name every subset exactly once, and the Saito dual asks for
    # their complements, subsets again
    import bhht
    from bhht import euler, intmat

    solved = []
    plain = DiagonalGroup.stratum_kernel

    def counted(group, subset):
        solved.append(tuple(subset))
        return plain(group, subset)

    def refuse(*_args):
        raise AssertionError("a verdict built a Hermite key")

    monkeypatch.setattr(DiagonalGroup, "stratum_kernel", counted)
    original = intmat.hermite_key
    for module in vars(bhht).values():
        if getattr(module, "hermite_key", None) is original:
            monkeypatch.setattr(module, "hermite_key", refuse)
    monkeypatch.setattr(euler, "_RECENT", type(euler._RECENT)(maxlen=2))
    assert verify_duality(parse_polynomial(X1), PermGroup(5, ())).equal
    assert sorted(solved) == sorted(set(solved)) and len(solved) == 32


def test_element_arithmetic(small):
    full = single(small, group_elements(small.diag), small.perms.elements)
    assert summed(small, full, BurnsideElement(small)) == full
    assert full.scale(2) == summed(small, full, full)
    assert summed(small, full, full.scale(-1)) == BurnsideElement(small)


def test_element_ambient_mismatch(small):
    other = SemidirectAmbient(small.diag, PermGroup(3, ()))
    x = single(small, {small.diag.zero}, {parse_cycles("e", 3)})
    with pytest.raises(AmbientMismatchError):
        BurnsideElement(other, x.coefficients)


def test_mark_trivial_column_is_index(small):
    trivial = key_class(small, key_of(small.diag, ()), {parse_cycles("e", 3)})
    for cls in stratum_classes_of(small):
        assert mark(cls, trivial) == small.order // cls.order


def test_mark_full_row_is_one(small, small_classes):
    full = stratum_class(small, (), small.perms.elements)
    for cls in small_classes:
        assert mark(full, cls) == 1


def test_mark_against_naive_oracle(small, small_classes):
    for kp in stratum_classes_of(small):
        fixed = naive_marks(kp)
        for k in small_classes:
            assert mark(kp, k) == fixed(k)


def test_mark_refuses_a_class_named_by_hermite_key(small):
    # a mark counts the cosets of a class named by stratum; key-named
    # classes, of any H, only ever stand on the fixed-point side
    keyed = key_class(small, key_of(small.diag, ()), small.perms.elements)
    assert keyed.closed is None
    with pytest.raises(ValueError):
        mark(keyed, keyed)


@pytest.mark.parametrize("polynomial, generators, cyclic_g", [
    ("x1^2+x2^2+x3^2+x4^2", ["(12)(34)", "(13)(24)"], False),  # (Z2)^4 x| Klein four
    ("x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x1", ["(1234)"], True),      # loop, its rotation
])
def test_mark_against_naive_oracle_on_all_class_pairs(polynomial, generators,
                                                      cyclic_g):
    # every stratum class K' against every split class K, including
    # H != H' and H' = K_C' with C' not S-fixed, so not S-invariant, which
    # the Euler characteristic path never asks for; subgroups of a cyclic G
    # are all S-invariant
    from bhht.diaggroups import perm_act

    ambient = ambient_of(polynomial, generators)
    classes = split_classes(ambient)
    unequal_h = not_invariant = 0
    for kp in stratum_classes_of(ambient):
        hp = h_elements_of(kp)
        invariant = all(frozenset(perm_act(s, h) for h in hp) == hp
                        for s in ambient.perms.generators)
        fixed = naive_marks(kp)
        for k in classes:
            assert mark(kp, k) == fixed(k)
            unequal_h += hp != h_elements_of(k)
            not_invariant += not invariant
    assert unequal_h
    assert bool(not_invariant) != cyclic_g


@pytest.mark.parametrize("polynomial, generators", [
    ("x1^2+x2^2+x3^2+x4^2", ["(12)(34)", "(13)(24)"]),
    ("x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x1", ["(1234)"]),
])
def test_cocycle_kernel_order_matches_scan(polynomial, generators):
    # c(U) in closed form against a scan of G, for the zero set C' of every
    # class K' that a mark counts the cosets of, and every conjugate
    # U = s^-1 T s of a class's T, over every s of S, that fixes C'
    from bhht.oracles import brute_cocycle_kernel_order, brute_isotropy
    from bhht.permgroups import conjugate, inverse

    ambient = ambient_of(polynomial, generators)
    diag = ambient.diag
    classes = split_classes(ambient)
    checked = set()
    for kp in stratum_classes_of(ambient):
        closed = kp.closed
        inside = set(closed)
        h_elements = brute_isotropy(diag, closed)
        for k in classes:
            for s in ambient.perms.elements:
                u = frozenset(conjugate(inverse(s), t) for t in k.t_elements)
                if (closed, u) not in checked and all({p[i] for i in closed} == inside
                                                      for p in u):
                    checked.add((closed, u))
                    assert diag.stratum_cocycle_order(closed, u) \
                        == brute_cocycle_kernel_order(diag, tuple(u), h_elements)
    # some U moves a point of its C', so that c(U) is not all of G
    assert any(p[i] != i for closed, u in checked for p in u for i in closed)


def test_mark_triangular_in_subconjugacy(small, small_classes):
    for a in stratum_classes_of(small):
        assert mark(a, a) > 0
        for b in small_classes:
            if b.order > a.order:
                assert mark(a, b) == 0  # bigger class cannot fix smaller cosets
            if mark(a, b) > 0:
                assert ht_subconjugate(small, b, a)


def ht_subconjugate(ambient, inner, outer):
    members = set(subgroup_elements(outer))
    inner_members = subgroup_elements(inner)
    for g in ambient_elements(ambient):
        gi = inv(ambient, g)
        if all(mul(ambient, mul(ambient, gi, x), g) in members
               for x in inner_members):
            return True
    return False


def test_diagonal_mark_is_normalizer_index(small):
    # mark(K, K) equals [N(K) : K], with the normalizer computed by scanning
    # the whole ambient group
    for cls in stratum_classes_of(small):
        members = set(subgroup_elements(cls))
        normalizer = 0
        for g in ambient_elements(small):
            gi = inv(small, g)
            if all(mul(small, mul(small, g, x), gi) in members for x in members):
                normalizer += 1
        assert mark(cls, cls) == normalizer // cls.order


def test_induction_identity(small):
    full = BurnsideElement(small, {stratum_class(small, (), small.perms.elements): 1})
    assert induction(full, small.perms) == full


def test_induction_fuses_conjugate_classes():
    quintic = parse_polynomial("x1^3+x2^3+x3^3")
    group = DiagonalGroup(quintic)
    s3 = group_from_generators(3, ["(12)", "(123)"])
    loner = SemidirectAmbient(group, PermGroup(3, ()))
    e3 = (parse_cycles("e", 3),)
    x = BurnsideElement(loner, {stratum_class(loner, (i,), e3): 1 for i in (0, 1)})
    lifted = induction(x, s3)
    (cls, c), = lifted.coefficients.items()
    assert c == 2 and cls.name == ((0,), e3)
    # the key naming fuses the same two classes
    assert list(key_induction(x, s3).coefficients.values()) == [2]


def test_induction_requires_subgroup(small):
    with pytest.raises(AmbientMismatchError):
        induction(BurnsideElement(small), PermGroup(3, ()))


def test_saito_dual_extremes(small):
    # [G x| S / G x| S] and [G x| S / e x| S] are the classes of the
    # strata empty and {1, 2, 3}, each other's complement
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    pairing = CharacterPairing(matrix)
    s = small.perms.elements
    full_h = BurnsideElement(small, {stratum_class(small, (), s): 1})
    dual = saito_dual(full_h, pairing)
    (cls, coeff), = dual.coefficients.items()
    assert coeff == 1 and cls.name == ((0, 1, 2), s)
    assert cls.h_order == 1 and cls.t_order == small.perms.order
    free = BurnsideElement(small, {stratum_class(small, (0, 1, 2), s): 1})
    dual_free = saito_dual(free, pairing)
    (cls2, _), = dual_free.coefficients.items()
    assert cls2.name == ((), s) and cls2.h_order == pairing.right.order


def random_element(rng, ambient, pairs, max_terms=3):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        h, t = rng.choice(pairs)
        cls = key_class(ambient, key_of(ambient.diag, h), t)
        coeffs[cls] = coeffs.get(cls, 0) + rng.randint(-3, 3)
    return BurnsideElement(ambient, coeffs)


def test_saito_dual_involution_and_induction_commute(small):
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    pairing = CharacterPairing(matrix)
    rng = seeded(42)
    pairs = split_subgroup_pairs(small.diag, small.perms)
    sub_perms = group_from_generators(3, ["(12)"])
    sub_ambient = SemidirectAmbient(small.diag, sub_perms)
    sub_pairs = [(h, t) for h, t in split_subgroup_pairs(small.diag, sub_perms)]
    for _ in range(100):
        x = random_element(rng, small, pairs)
        back = key_saito_dual(key_saito_dual(x, pairing), pairing.swapped())
        assert BurnsideElement(small, back.coefficients) == x
        y = random_element(rng, sub_ambient, sub_pairs)
        a = key_induction(key_saito_dual(y, pairing), small.perms)
        b = key_saito_dual(key_induction(y, small.perms), pairing)
        assert BurnsideElement(small, a.coefficients) \
            == BurnsideElement(small, b.coefficients)


def test_dual_conjugacy_criterion(small, small_classes):
    # split subgroups are conjugate iff their duals are
    matrix = parse_polynomial("x1^2+x2^2+x3^2")
    pairing = CharacterPairing(matrix)
    dual_ambient = SemidirectAmbient(pairing.right, small.perms)
    for a in small_classes:
        for b in small_classes:
            ha, hb = h_elements_of(a), h_elements_of(b)
            forward = brute_conjugating_perm(small, ha, a.t_elements, hb, b.t_elements)
            da = (frozenset(pairing.annihilator(subgroup_of(pairing.left, ha))), a.t_elements)
            db = (frozenset(pairing.annihilator(subgroup_of(pairing.left, hb))), b.t_elements)
            backward = brute_conjugating_perm(dual_ambient, *da, *db)
            assert (forward is None) == (backward is None)


def test_serialization_is_deterministic(small):
    # [G x| S / G x| S] is named by the empty stratum, and [G x| S / 1] by
    # the zero set of all three points, with T trivial
    full = stratum_class(small, (), small.perms.elements)
    trivial = stratum_class(small, (0, 1, 2), (identity_perm(3),))
    assert full.order == small.order and trivial.order == 1
    x = BurnsideElement(small, {full: 1, trivial: -2})
    records = x.records()
    assert records == x.records()
    assert all(rec["orbitType"] == "[G⋊S/H⋊T]" for rec in records)
    assert [rec["coefficient"] for rec in records] == [-2, 1]
