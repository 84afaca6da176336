from itertools import combinations

import pytest
from conftest import all_subsets, is_even, seeded
from hypothesis import given
from hypothesis import strategies as st

from bhht import permgroups
from bhht.errors import ParseError, SizeBoundError
from bhht.permgroups import (
    DEFAULT_ORDER_BOUND,
    PermGroup,
    compose,
    conjugate,
    cycle_notation,
    group_from_generators,
    identity_perm,
    inverse,
    orbit,
    orbit_count,
    orbits,
    parse_cycles,
    pc_check,
    subset_image,
)
from bhht.oracles import (
    brute_classes,
    brute_normalizer_order,
    brute_subgroups,
    brute_subset_representative,
    lattice_pc_witness,
)

S5 = ["(12345)", "(12)"]
PGL25 = ["(1 2 6 5 3 4)", "(1 2)(3 4)"]  # PGL(2,5) acting on the 6 points of P^1(F_5)
# (degree, generators) of the groups whose classes are checked against scans
CLASS_GROUPS = [(3, ["A3"]), (4, ["A4"]), (4, ["(12)", "(1234)"]), (5, ["A5"]),
                (5, S5), (5, ["D10"]), (4, ["Z2x2"])]


def orbits_on_subsets(group):
    """The group's orbits on all subsets of its points, as
    ``PermGroup.orbits_of`` lists them."""
    return group.orbits_of(all_subsets(group.n))


# -- parsing -------------------------------------------------------------------


def test_parse_cycles():
    assert parse_cycles("(12)(34)", 5) == (1, 0, 3, 2, 4)
    assert parse_cycles("(12345)", 5) == (1, 2, 3, 4, 0)
    assert parse_cycles("e", 3) == (0, 1, 2)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("(1 10 3)", 10)[0] == 9
    with pytest.raises(ParseError):
        parse_cycles("(16)", 5)
    with pytest.raises(ParseError):
        parse_cycles("(11)", 5)
    with pytest.raises(ParseError):
        parse_cycles("(12)(23)", 5)


def test_cycle_notation_round_trip():
    rng = seeded(21)
    for _ in range(100):
        n = rng.randint(1, 9)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        assert parse_cycles(cycle_notation(p), n) == p


def test_compose_inverse():
    p = parse_cycles("(123)", 4)
    q = parse_cycles("(34)", 4)
    assert compose(p, inverse(p)) == identity_perm(4)
    assert compose(p, q) != compose(q, p)
    assert conjugate(q, p) == parse_cycles("(124)", 4)


# -- group construction -----------------------------------------------------------


def test_orders_of_named_examples():
    assert group_from_generators(5, ["(12345)", "(14)(23)"]).order == 10
    assert group_from_generators(5, ["(12345)", "(12)(34)"]).order == 60
    assert group_from_generators(5, []).order == 1
    assert group_from_generators(5, ["D10"]).order == 10
    assert group_from_generators(5, ["A5"]).order == 60
    assert group_from_generators(4, ["Z2x2"]).order == 4
    assert group_from_generators(4, ["A4"]).order == 12
    assert group_from_generators(3, ["A3"]).order == 3


def test_order_bound_enforced():
    # |S8| = 40320 exceeds the default bound
    assert DEFAULT_ORDER_BOUND < 40320
    with pytest.raises(SizeBoundError):
        group_from_generators(8, ["(12)", "(12345678)"])


def test_contains_and_inverses():
    g = group_from_generators(4, ["(12)", "(1234)"])
    assert g.order == 24
    for p in g.elements:
        assert p in g and inverse(p) in g
        assert compose(p, inverse(p)) == identity_perm(4)


# -- subgroup lattice ---------------------------------------------------------------


def test_lattice_klein_four():
    g = group_from_generators(4, ["(12)(34)", "(13)(24)"])
    assert len(g.lattice.subgroups) == 5
    assert len(g.lattice.classes) == 5  # abelian: no fusion


def test_lattice_prime_cyclic():
    g = group_from_generators(5, ["(12345)"])
    assert len(g.lattice.subgroups) == 2


def test_lattice_a5_class_count():
    g = group_from_generators(5, ["A5"])
    assert len(g.lattice.subgroups) == 59
    assert len(g.lattice.classes) == 9


def test_lattice_s4_counts():
    g = group_from_generators(4, ["(12)", "(1234)"])
    assert len(g.lattice.subgroups) == 30
    assert len(g.lattice.classes) == 11


def test_lattice_matches_brute_force():
    for gens, n in ([["(12)(34)", "(13)(24)"], 4],
                    [["(123)"], 3],
                    [["(12)", "(123)"], 3],
                    [["D10"], 5],
                    [["A4"], 4],
                    [["(12)", "(1234)"], 4],
                    [["A5"], 5],
                    [S5, 5],
                    [PGL25, 6]):
        g = group_from_generators(n, gens)
        assert set(g.lattice.subgroups) == brute_subgroups(g), gens


def test_lattice_of_a6_counts(monkeypatch):
    # A6 has 501 subgroups in 22 conjugacy classes
    lattice = group_from_generators(6, ["(123)", "(23456)"]).lattice
    assert lattice.group.order == 360
    assert len(lattice.subgroups) == 501
    assert len(lattice.classes) == 22
    # S6 has 1,455 in 56; extending one member of each class by one element
    # of each of its double cosets takes a few thousand bounded closures
    bounded = []
    plain = permgroups.orbit

    def counted(seed, generators, act, bound=None):
        bounded.append(bound is not None)
        return plain(seed, generators, act, bound)

    s6 = group_from_generators(6, ["(12)", "(123456)"])
    monkeypatch.setattr(permgroups, "orbit", counted)
    lattice = s6.lattice
    assert len(lattice.subgroups) == 1455
    assert len(lattice.classes) == 56
    assert sum(bounded) < 5000


def test_lattice_products_come_from_the_cayley_table(monkeypatch):
    # the table is filled by one getter per row, and the enumeration reads
    # it: no product of permutation tuples is taken
    def refused(p, q):
        raise AssertionError("compose called")

    s5 = group_from_generators(5, S5)
    monkeypatch.setattr(permgroups, "compose", refused)
    assert len(s5.lattice.subgroups) == 156


def test_lattices_of_the_smallest_groups():
    # on one point a getter returns a bare point, not a permutation
    trivial = group_from_generators(1, [])
    assert trivial.lattice.subgroups == [frozenset({(0,)})]
    assert trivial.lattice.classes == {((0,),): [frozenset({(0,)})]}
    s2 = group_from_generators(2, ["(12)"])
    assert s2.lattice.subgroups == [frozenset({(0, 1)}), frozenset({(0, 1), (1, 0)})]
    assert list(s2.lattice.classes.items()) == [
        (((0, 1),), [frozenset({(0, 1)})]),
        (((0, 1), (1, 0)), [frozenset({(0, 1), (1, 0)})])]
    for group in (trivial, s2):
        assert set(group.lattice.subgroups) == brute_subgroups(group)


def test_normalizer_and_conjugacy():
    g = group_from_generators(3, ["(12)", "(123)"])  # S3
    h = frozenset({identity_perm(3), parse_cycles("(12)", 3)})
    key = g.lattice.key_of[h]
    cls = g.lattice.classes[key]
    assert h in cls and len(cls) == 3  # three conjugate reflections
    assert g.order // len(cls) == 2  # N(<(12)>) = <(12)>
    assert key == min(tuple(sorted(u)) for u in cls) == tuple(sorted(cls[0]))


@pytest.fixture(scope="module")
def class_groups():
    groups = [group_from_generators(n, gens) for n, gens in CLASS_GROUPS]
    a5 = group_from_generators(5, ["A5"])  # the S of x1_a5
    return groups + [stab for _rep, stab, _size in orbits_on_subsets(a5)]


def test_conjugacy_classes_match_scan(class_groups):
    for g in class_groups:
        lattice = g.lattice
        # dict equality ignores order: the listed items keep it checked
        assert list(lattice.classes.items()) == list(brute_classes(lattice).items()), g
        for key, cls in lattice.classes.items():
            assert key == min(tuple(sorted(u)) for u in cls)
            assert all(lattice.key_of[u] == key for u in cls)


def test_normalizer_orders_from_class_sizes_match_scan(class_groups):
    for g in class_groups:
        lattice = g.lattice
        for cls in lattice.classes.values():
            for u in cls:
                assert g.order // len(cls) == brute_normalizer_order(g, u), (g, u)


def test_subset_walk_representative_matches_scan():
    for gens in (["A5"], ["D10"], S5):
        g = group_from_generators(5, gens)
        for k in range(6):
            for subset in combinations(range(5), k):
                walked = orbit(frozenset(subset), g.generators, subset_image)
                assert (min(tuple(sorted(c)) for c in walked)
                        == brute_subset_representative(g, subset)), (g, subset)


# -- orbit counting ----------------------------------------------------------------


def test_orbit_count_examples():
    t = group_from_generators(5, ["(12)(34)"])
    assert orbit_count(t, range(5)) == 3
    assert orbits(t, range(5)) == ((0, 1), (2, 3), (4,))
    assert orbits(t, [4, 1, 0]) == ((0, 1), (4,))
    assert orbit_count(PermGroup(5, ()), range(5)) == 5
    d10 = group_from_generators(5, ["D10"])
    assert orbit_count(d10, range(5)) == 1


@given(n=st.sampled_from([4, 5]), data=st.data())
def test_memoized_orbits_are_read_off_the_element_list(n, data):
    # a random subgroup of S4 or S5, and each union of its orbits, which is
    # a point set it preserves: the walk and the memo both give the orbits
    # of the element list, and a second call returns the kept tuple itself
    gens = data.draw(st.lists(st.permutations(range(n)), max_size=2))
    group = PermGroup(n, [tuple(g) for g in gens])
    listed = sorted({tuple(sorted({p[i] for p in group.elements})) for i in range(n)})
    for mask in range(1, 1 << len(listed)):
        chosen = tuple(o for k, o in enumerate(listed) if mask >> k & 1)
        points = tuple(sorted(i for o in chosen for i in o))
        first = orbits(group, points)
        assert first == chosen
        assert orbits(group, points) is first
    assert orbit_count(group, range(n)) == len(listed)


def test_orbit_count_requires_invariance():
    t = group_from_generators(5, ["(12)"])
    with pytest.raises(ValueError):
        orbit_count(t, [0, 2])


def test_orbit_count_conjugation_invariant():
    g = group_from_generators(5, ["(12345)", "(14)(23)"])
    rng = seeded(22)
    subsets = [frozenset({0, 1}), frozenset({0, 2, 4}), frozenset(range(5))]
    for key in g.lattice.classes:
        t = g.subgroup(key)
        for s in g.elements:
            conj = g.subgroup(frozenset(conjugate(s, p) for p in t.element_set))
            for subset in subsets:
                moved = frozenset(s[i] for i in subset)
                if all({p[i] for i in subset} == set(subset) for p in t.element_set):
                    assert orbit_count(conj, moved) == orbit_count(t, subset)


# -- parity condition ---------------------------------------------------------------


def test_pc_examples_from_small_groups():
    assert pc_check(group_from_generators(3, ["A3"])).satisfies
    assert not pc_check(group_from_generators(4, ["A4"])).satisfies
    klein = pc_check(group_from_generators(4, ["Z2x2"]))
    assert not klein.satisfies
    assert klein.witness.order == 4  # the whole group violates: one orbit, n = 4
    assert pc_check(group_from_generators(5, ["D10"])).satisfies
    assert not pc_check(group_from_generators(5, ["(12345)", "(12)(34)"])).satisfies


def test_pc_implies_alternating_over_s5():
    s5 = group_from_generators(5, ["(12)", "(12345)"])
    assert s5.order == 120
    assert len(s5.lattice.subgroups) == 156
    for sub_set in s5.lattice.subgroups:
        sub = s5.subgroup(sub_set)
        if pc_check(sub).satisfies:
            assert all(is_even(p) for p in sub)


def _class_based_witness(group):
    # the earlier choice: the representative of the first violating class,
    # classes ordered by (order, least sorted member)
    for key in group.lattice.classes:
        sub = group.subgroup(key)
        if (orbit_count(sub, range(group.n)) - group.n) % 2:
            return sub.generators
    return None


def test_pc_witness_matches_class_based_choice():
    groups = [(5, ["(12)", "(12345)"]), (5, ["A5"]), (4, ["A4"]), (4, ["Z2x2"]),
              (5, ["D10"]), (4, ["(12)", "(1234)"]), (4, ["(1234)"]),
              (4, ["(12)", "(34)"]), (6, ["(123456)"]), (6, ["(12)(34)(56)", "(135)(246)"]),
              (6, ["(123)", "(456)", "(14)(25)(36)"]), (6, ["(12)", "(34)", "(56)"]),
              (6, ["(123)(456)", "(12)(45)"])]
    violated = 0
    for n, gens in groups:
        group = group_from_generators(n, gens)
        witness = pc_check(group).witness
        assert (None if witness is None else witness.generators) \
            == _class_based_witness(group), gens
        violated += witness is not None
    assert 0 < violated < len(groups)


def test_pc_check_matches_the_lattice_walk():
    # the least odd involution names the witness without a lattice; <(1234)>
    # has odd elements but no odd involution, so it walks its lattice
    from bhht.fixtures import load_catalogue

    s5 = group_from_generators(5, S5)
    groups = [s5.subgroup(h) for h in s5.lattice.subgroups]
    assert len(groups) == 156
    groups += [fx.perm_group() for fx in load_catalogue().values()]
    c4 = group_from_generators(4, ["(1234)"])
    groups.append(c4)
    shortcut = 0
    for group in groups:
        result = pc_check(group)
        witness = lattice_pc_witness(group)
        assert result.satisfies == (witness is None), group
        if witness is not None:
            assert result.witness.element_set == witness, group
            assert result.witness is group.subgroup(witness)
            shortcut += witness != group.element_set and len(witness) == 2
    assert pc_check(c4).witness is c4
    assert shortcut > 50


def test_cyclic_criterion_s6():
    # a cyclic group satisfies the parity condition iff its generator is even
    n = 6
    s6 = orbit(identity_perm(n), [parse_cycles("(12)", n), parse_cycles("(123456)", n)],
               compose)
    assert len(s6) == 720
    for p in s6:
        cyc = PermGroup(n, [p])
        assert pc_check(cyc).satisfies == is_even(p)


def test_is_alternating():
    # the parity condition fails on a transposition and holds on D10, all even
    swap = group_from_generators(2, ["(12)"])
    assert not pc_check(swap).satisfies and not all(is_even(p) for p in swap)
    d10 = group_from_generators(5, ["D10"])
    assert pc_check(d10).satisfies and all(is_even(p) for p in d10)


# -- subset orbits ------------------------------------------------------------------


def test_orbits_on_subsets_trivial():
    out = orbits_on_subsets(PermGroup(3, ()))
    assert len(out) == 8
    assert all(size == 1 for _rep, _stab, size in out)


def test_orbits_on_subsets_double_swap():
    g = group_from_generators(5, ["(12)(34)"])
    out = orbits_on_subsets(g)
    assert sum(size for _r, _s, size in out) == 32
    stabilizers = {rep: s for rep, s, _size in out}
    assert (0,) in stabilizers and (1,) not in stabilizers  # {1} and {2} merged
    assert stabilizers[(4,)] is g  # a fixed subset
    assert stabilizers[(0,)] is g.subgroup([identity_perm(5)])  # an orbit of |S| subsets


def test_orbits_on_subsets_full_symmetric():
    s5 = group_from_generators(5, ["(12)", "(12345)"])
    out = orbits_on_subsets(s5)
    assert len(out) == 6  # one orbit per cardinality
    assert [len(rep) for rep, _s, _size in out] == [0, 1, 2, 3, 4, 5]


def test_stabilizers_match_complements():
    g = group_from_generators(5, ["(12345)", "(14)(23)"])
    stab = {rep: s for rep, s, _size in orbits_on_subsets(g)}
    for rep, s in stab.items():
        complement = tuple(sorted(set(range(5)) - set(rep)))
        comp_stab = g.subgroup([p for p in g.elements
                                if {p[i] for i in complement} == set(complement)])
        assert comp_stab == s


def test_quasi_parity_for_complementary_subsets():
    # under the parity condition, relative fixed-dimension parities agree
    # between a subset and its complement, for every subgroup of the stabilizer
    g = group_from_generators(5, ["(12345)", "(14)(23)"])
    assert pc_check(g).satisfies
    for rep, stab, _size in orbits_on_subsets(g):
        complement = tuple(sorted(set(range(5)) - set(rep)))
        for key in stab.lattice.classes:
            t = stab.subgroup(key)
            lhs = orbit_count(t, rep) - orbit_count(stab, rep)
            rhs = orbit_count(t, complement) - orbit_count(stab, complement)
            assert (lhs - rhs) % 2 == 0
