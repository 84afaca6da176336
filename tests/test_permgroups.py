from itertools import combinations

import pytest
from conftest import is_even, seeded

from bhht.errors import ParseError, SizeBoundError
from bhht.permgroups import (
    PermGroup,
    closure,
    compose,
    conjugate,
    cycle_notation,
    group_from_generators,
    identity_perm,
    inverse,
    orbit_count,
    orbits,
    orbits_on_subsets,
    parse_cycles,
    pc_check,
)


def brute_force_subgroups(group, max_gens=3):
    """Oracle: closures of all generating subsets of bounded size.

    Valid for the groups used here: every subgroup of order <= 24 (and of
    D10, A4, S4) is generated by at most three elements.
    """
    els = list(group.elements)
    found = {frozenset({identity_perm(group.n)})}
    for k in range(1, max_gens + 1):
        for combo in combinations(els, k):
            found.add(closure(combo, group.n, bound=None))
    return found


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
    with pytest.raises(SizeBoundError):
        group_from_generators(8, ["(12)", "(12345678)"], bound=1000)


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
    assert len(g.lattice.conjugacy_classes) == 5  # abelian: no fusion


def test_lattice_prime_cyclic():
    g = group_from_generators(5, ["(12345)"])
    assert len(g.lattice.subgroups) == 2


def test_lattice_a5_class_count():
    g = group_from_generators(5, ["A5"])
    assert len(g.lattice.subgroups) == 59
    assert len(g.lattice.conjugacy_classes) == 9


def test_lattice_s4_counts():
    g = group_from_generators(4, ["(12)", "(1234)"])
    assert len(g.lattice.subgroups) == 30
    assert len(g.lattice.conjugacy_classes) == 11


def test_lattice_matches_brute_force():
    for gens, n in ([["(12)(34)", "(13)(24)"], 4],
                    [["(123)"], 3],
                    [["(12)", "(123)"], 3],
                    [["D10"], 5],
                    [["A4"], 4],
                    [["(12)", "(1234)"], 4]):
        g = group_from_generators(n, gens)
        assert set(g.lattice.subgroups) == brute_force_subgroups(g)


def test_normalizer_and_conjugacy():
    g = group_from_generators(3, ["(12)", "(123)"])  # S3
    h = frozenset({identity_perm(3), parse_cycles("(12)", 3)})
    assert g.lattice.normalizer(h) == h
    cls = next(c for c in g.lattice.conjugacy_classes
               if h in (g.lattice.subgroups[i] for i in c))
    assert len(cls) == 3  # three conjugate reflections
    assert g.lattice.class_key(cls) == min(
        tuple(sorted(g.lattice.subgroups[i])) for i in cls)


# -- orbit counting ----------------------------------------------------------------


def test_orbit_count_examples():
    t = group_from_generators(5, ["(12)(34)"])
    assert orbit_count(t, range(5)) == 3
    assert orbits(t, range(5)) == [(0, 1), (2, 3), (4,)]
    assert orbits(t, [4, 1, 0]) == [(0, 1), (4,)]
    assert orbit_count(PermGroup(5, ()), range(5)) == 5
    d10 = group_from_generators(5, ["D10"])
    assert orbit_count(d10, range(5)) == 1


def test_orbit_count_requires_invariance():
    t = group_from_generators(5, ["(12)"])
    with pytest.raises(ValueError):
        orbit_count(t, [0, 2])


def test_orbit_count_conjugation_invariant():
    g = group_from_generators(5, ["(12345)", "(14)(23)"])
    rng = seeded(22)
    subsets = [frozenset({0, 1}), frozenset({0, 2, 4}), frozenset(range(5))]
    for cls in g.lattice.conjugacy_classes:
        t = g.subgroup(g.lattice.class_key(cls))
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
    lattice = group.lattice
    for cls in lattice.conjugacy_classes:
        sub = group.subgroup(lattice.class_key(cls))
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


def test_cyclic_criterion_s6():
    # a cyclic group satisfies the parity condition iff its generator is even
    n = 6
    s6 = [p for p in closure([parse_cycles("(12)", n), parse_cycles("(123456)", n)],
                             n, bound=None)]
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
    out = orbits_on_subsets(group_from_generators(5, ["(12)(34)"]))
    assert sum(size for _r, _s, size in out) == 32
    reps = {rep for rep, _s, _size in out}
    assert (0,) in reps and (1,) not in reps  # {1} and {2} merged


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
        lat = stab.lattice
        for cls in lat.conjugacy_classes:
            t = stab.subgroup(lat.class_key(cls))
            lhs = orbit_count(t, rep) - orbit_count(stab, rep)
            rhs = orbit_count(t, complement) - orbit_count(stab, complement)
            assert (lhs - rhs) % 2 == 0
