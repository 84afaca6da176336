"""Marks by one class formula and the Saito dual by containment, against
their oracles.

A mark sums the class formula over the orbit of K''s zero set: each member
D that K's H vanishes on and K's T fixes adds, per conjugate U of T carried
onto K''s zero set, c(U) read off the block generators.  The element scan
of S (``oracles.conjugators_by_scan``) and the coset count of
``oracles.naive_marks`` must agree with it on every class pair of a stratum,
and on chi's own classes against every split class, and c(U) with a scan
of G on every subgroup U.  No mark reads S's element list.  The Saito
dual accepts ann(K_C) = K'_{C^c} by containment and orders; that must
agree with the annihilator solved by keys on every C, and refuse a
corrupted order or generator.
"""

import pytest
from conftest import all_subsets, key_of, key_zero_set
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_stratum_naming import CATALOGUE, catalogue_pairs, generated_pairs

from bhht.burnside import SemidirectAmbient, carried, mark, stratum_class
from bhht.diaggroups import CharacterPairing, DiagonalGroup
from bhht.euler import euler_analysis
from bhht.intmat import hermite_generators, hermite_order, in_hermite
from bhht.oracles import (
    CONSISTENCY_ORDER_BOUND,
    add,
    brute_cocycle_kernel_order,
    brute_isotropy,
    conjugators_by_scan,
    determinant,
    key_class,
    naive_marks,
    split_subgroup_pairs,
    swapped,
)
from bhht.permgroups import PermGroup, group_from_generators
from bhht.polynomials import parse_polynomial, transpose


def small_catalogue_pairs():
    """The catalogue pairs within the consistency sweep's bound, by name."""
    return [name for name in catalogue_pairs()
            if abs(determinant(CATALOGUE[name].matrix.rows)) * CATALOGUE[name].perm_group().order
            <= CONSISTENCY_ORDER_BOUND]


SMALL = small_catalogue_pairs()
# stabilizers with classes of several conjugates, which the catalogue within
# the bound and the generated inputs barely reach
SYMMETRIC = [
    ("x1^2+x2^2+x3^2", ["(12)", "(123)"]),
    ("x1^3+x2^3+x3^3", ["(12)", "(123)"]),
    ("x1^2+x2^2+x3^2+x4^2", ["(12)", "(1234)"]),
    ("x1^2+x2^2+x3^2+x4^2", ["(13)", "(1234)"]),
]


def catalogue_input(name):
    fx = CATALOGUE[name]
    return fx.matrix.anchored(), fx.perm_group()


def symmetric_input(text, generators):
    matrix = parse_polynomial(text).anchored()
    return matrix, group_from_generators(matrix.n, generators)


def both_sides(matrix):
    """f and f^T, once when they are equal, as for a Fermat polynomial."""
    return dict.fromkeys((matrix, transpose(matrix)))


def stratum_classes(analysis):
    """Per stratum: its ambient G x| S_I and every class [K_C x| T] of it."""
    for stratum in analysis.strata:
        ambient = SemidirectAmbient(analysis.group, stratum.stabilizer)
        yield ambient, [stratum_class(ambient, stratum.subset, key)
                        for key in stratum.class_keys]


def assert_class_marks(matrix, perms):
    """Every class pair of every stratum of f and f^T; returns their number."""
    pairs = 0
    for side in both_sides(matrix):
        for ambient, classes in stratum_classes(euler_analysis(side, perms)):
            closed = classes[0].closed
            assert closed is not None
            assert ambient.perms.subset_orbit(closed)[2] is ambient.perms
            for kp in classes:
                fixed = naive_marks(kp)
                for k in classes:
                    count = mark(kp, k)
                    assert count * kp.order == conjugators_by_scan(kp, k)
                    assert count == fixed(k)
                    pairs += 1
    return pairs


def assert_orbit_counts(matrix, perms):
    """c(U) for every subgroup U of every stratum's stabilizer."""
    for ambient, classes in stratum_classes(euler_analysis(matrix, perms)):
        diag = ambient.diag
        closed = classes[0].closed
        h_elements = brute_isotropy(diag, closed)
        for u in ambient.perms.lattice.subgroups:
            assert diag.stratum_cocycle_order(closed, u) \
                == brute_cocycle_kernel_order(diag, tuple(u), h_elements)


@pytest.mark.parametrize("name", SMALL)
def test_class_marks_match_the_scan_and_the_naive_count_on_the_catalogue(name):
    assert assert_class_marks(*catalogue_input(name))


def test_class_marks_match_the_scan_and_the_naive_count_on_generated_inputs():
    assert sum(assert_class_marks(m, s) for m, s in generated_pairs()) > 100


@pytest.mark.parametrize("text, generators", SYMMETRIC)
def test_class_marks_sum_over_several_conjugates(text, generators):
    matrix, perms = symmetric_input(text, generators)
    classes = perms.lattice.classes.values()
    assert any(len(members) > 1 for members in classes)
    assert assert_class_marks(matrix, perms)
    assert_orbit_counts(matrix, perms)


@pytest.mark.parametrize("name", SMALL)
def test_orbit_partition_counts_match_a_scan_of_g_on_the_catalogue(name):
    assert_orbit_counts(*catalogue_input(name))


def test_orbit_partition_counts_match_a_scan_of_g_on_generated_inputs():
    for matrix, perms in generated_pairs():
        assert_orbit_counts(matrix, perms)


def assert_closed_form_counts(matrix, perms):
    """c(U) in closed form against a scan of G, for f and f^T, every
    stratum zero set C and every subgroup U of C's stabilizer, which fixes
    C; returns the number of (C, U) compared.  G is scanned once per class
    of U: an s of the stabilizer carries the w constant on U's orbits in C
    onto those constant on sUs^-1's, so conjugates have one count."""
    compared = 0
    for side in both_sides(matrix):
        diag = DiagonalGroup(side.anchored())
        for rep, stabilizer, _size in perms.orbits_of(all_subsets(side.n)):
            closed = diag.zero_set(rep)
            assert stabilizer.subset_orbit(closed)[2] is stabilizer
            h_elements = brute_isotropy(diag, closed)
            lattice = stabilizer.lattice
            scanned = {}
            for u in lattice.subgroups:
                key = lattice.key_of[u]
                if key not in scanned:
                    # U's generators suffice: U fixes C, so K_C is U-invariant,
                    # and (uv).w - w = u.(v.w - w) + (u.w - w)
                    scanned[key] = brute_cocycle_kernel_order(
                        diag, stabilizer.subgroup(key).generators, h_elements)
                assert diag.stratum_cocycle_order(closed, u) == scanned[key], \
                    (side, closed, sorted(u))
                compared += 1
    return compared


@pytest.mark.parametrize("name", catalogue_pairs())
def test_closed_form_counts_match_the_kernel_order_on_the_catalogue(name):
    assert assert_closed_form_counts(*catalogue_input(name))


def test_closed_form_counts_match_the_kernel_order_on_generated_inputs():
    assert sum(assert_closed_form_counts(m, s) for m, s in generated_pairs()) > 500


@pytest.mark.parametrize("text, generators", SYMMETRIC + [
    # a 5-loop rotated in place
    ("x1^4*x2+x2^4*x3+x3^4*x4+x4^4*x5+x1*x5^4", ["(12345)"]),
    # 2-loops turned inside a block and swapped across blocks
    ("x1^3*x2+x1*x2^3+x3^3*x4+x3*x4^3", ["(12)", "(13)(24)"]),
])
def test_closed_form_counts_match_the_kernel_order_on_symmetric_inputs(text, generators):
    matrix, perms = symmetric_input(text, generators)
    assert assert_closed_form_counts(matrix, perms)
    assert_orbit_counts(matrix, perms)


@pytest.mark.parametrize("generators", [
    ["(123)"],
    ["(123)", "(456)"],
    ["(123)(456)", "(14)(25)(36)"],
])
def test_orbit_counts_where_u_rotates_one_loop_and_fixes_the_other(generators):
    # two 3-loops: some U rotate the first in place and fix the second
    # pointwise, so c(U) folds the first onto one orbit, a 1-loop, and
    # keeps the second as it is
    matrix, perms = symmetric_input(
        "x1^3*x2+x2^3*x3+x3^3*x1+x4^3*x5+x5^3*x6+x6^3*x4", generators)
    assert_orbit_counts(matrix, perms)


def test_no_mark_scans_s(monkeypatch):
    # over G x| S the classes of chi have zero sets that S need not fix: a
    # mark sums over the orbit of K''s zero set, as its walk left it, and
    # reads no element list of S or of a subgroup of S
    fx = CATALOGUE["pc_a3"]
    perms = fx.perm_group()
    analysis = euler_analysis(fx.matrix, perms)
    classes = sorted(analysis.element.coefficients, key=lambda cls: cls.name)
    # every orbit walked and every stabilizer's lattice built, as a verdict
    # leaves them; a property on the class hides every group's element list
    for kp in classes:
        assert perms.subset_orbit(kp.closed)[2].lattice.subgroups
    with monkeypatch.context() as patch:
        patch.setattr(PermGroup, "elements", property(_unreadable), raising=False)
        marks = {(kp, k): mark(kp, k) for kp in classes for k in classes}
    fixed = {kp: naive_marks(kp) for kp in classes}
    summed = 0
    for (kp, k), count in marks.items():
        assert count * kp.order == conjugators_by_scan(kp, k)
        assert count == fixed[kp](k)
        tp = kp.t_elements
        stabilizer, members = perms.orbit_carriers(kp.closed)
        classes = stabilizer.lattice.classes
        adding = [d for d in members
                  if not any(h[i] for h in k.h_gens for i in d)
                  and all(set(t[i] for i in d) == set(d) for t in k.t_elements)
                  and any(u <= tp for u in classes[carried(perms, d, k.t_elements)[1]])]
        if len(adding) > 1:  # a member other than K''s zero set adds
            summed += 1
    assert summed


def _unreadable(group):
    raise AssertionError("a mark read the element list of %r" % (group,))


@st.composite
def identical_blocks(draw):
    """(f, S) for f a sum of identical blocks, Fermat terms x^a, 2-chains
    x^a*y + y^b or 2-loops x^a*y + x*y^b, and S generated by a rotation of
    the blocks, a swap of the first two, or a turn of the first 2-loop
    inside itself when a = b, with |G x| S| <= 324.  G is kept to order 81,
    which admits (Z/3)^4: the naive count, which tests one representative
    per coset, grows with the number of G's subgroups."""
    kind = draw(st.sampled_from(["fermat", "chain", "loop"]))
    count = draw(st.integers(2, 4 if kind == "fermat" else 3))
    a = draw(st.integers(2, 5))
    b = draw(st.integers(2, 3))
    width = 1 if kind == "fermat" else 2
    terms = []
    for o in range(0, width * count, width):
        x, y = "x%d" % (o + 1), "x%d" % (o + 2)
        terms += {"fermat": ["%s^%d" % (x, a)],
                  "chain": ["%s^%d*%s" % (x, a, y), "%s^%d" % (y, b)],
                  "loop": ["%s^%d*%s" % (x, a, y), "%s*%s^%d" % (x, y, b)]}[kind]
    moves = {
        "rotate": "".join("(%s)" % " ".join(str(width * j + i) for j in range(count))
                          for i in range(1, width + 1)),
        "swap": "".join("(%d %d)" % (i, width + i) for i in range(1, width + 1)),
    }
    if kind == "loop" and a == b:
        moves["turn"] = "(1 2)"
    chosen = draw(st.sets(st.sampled_from(sorted(moves)), min_size=1))
    matrix = parse_polynomial("+".join(terms)).anchored()
    perms = group_from_generators(width * count, [moves[m] for m in sorted(chosen)])
    order = DiagonalGroup(matrix).order
    assume(order <= 81 and order * perms.order <= 324)
    return matrix, perms


@settings(max_examples=50)
@given(identical_blocks())
def test_marks_of_chi_classes_match_the_naive_count(pair):
    # the cosets of every class of chi, fixed by every split class, summed
    # over the orbit of the class's zero set
    matrix, perms = pair
    analysis = euler_analysis(matrix, perms)
    group, ambient = analysis.group, analysis.ambient
    classes = {key_class(ambient, key_of(group, h), t)
               for h, t in split_subgroup_pairs(group, perms)}
    for kp in analysis.element.coefficients:
        fixed = naive_marks(kp)
        for k in classes:
            assert mark(kp, k) == fixed(k)


# -- the Saito dual by containment ----------------------------------------------------


def zero_sets(group):
    """Z(K_I) for every subset I: every C a verdict can hand the dual."""
    n = group.n
    return sorted({key_zero_set(group, key_of(group, brute_isotropy(
        group, tuple(i for i in range(n) if m >> i & 1)))) for m in range(1 << n)})


def complement_of(closed, n):
    return tuple(i for i in range(n) if i not in closed)


def assert_containment_agrees_with_keys(matrix, perms):
    """Both directions of the pairing, every C; returns how many were checked."""
    forward = CharacterPairing(matrix)
    checked = 0
    for pairing in (forward, swapped(forward)):
        left, right = pairing.left, pairing.right
        for closed in zero_sets(left):
            ann = pairing.dual_kernel(key_of(left, brute_isotropy(left, closed)))
            dual = pairing.dual_stratum(closed)
            assert ann == key_of(right, brute_isotropy(right, complement_of(closed, left.n)))
            assert dual == key_zero_set(right, ann)
            checked += 1
    return checked


@pytest.mark.parametrize("name", SMALL)
def test_containment_agrees_with_the_annihilator_keys_on_the_catalogue(name):
    assert assert_containment_agrees_with_keys(*catalogue_input(name))


def test_containment_agrees_with_the_annihilator_keys_on_generated_inputs():
    for matrix, perms in generated_pairs():
        assert assert_containment_agrees_with_keys(matrix, perms)


def refused_with(monkeypatch, matrix, closed, corrupt):
    """Whether a fresh pairing refuses the dual of C when the kernel of C's
    complement in the dual group is handed out through
    ``corrupt(group, gens, order)``."""
    plain = DiagonalGroup.stratum_kernel
    complement = complement_of(closed, matrix.n)
    pairing = CharacterPairing(matrix)

    def wrong(group, subset):
        gens, order = plain(group, subset)
        if group is pairing.right and subset == complement:
            return corrupt(group, gens, order)
        return gens, order

    with monkeypatch.context() as patch:
        patch.setattr(DiagonalGroup, "stratum_kernel", wrong)
        return pairing.dual_stratum(closed) is None


def assert_corruptions_refused(monkeypatch, matrix):
    """On every C: a doubled order is refused, and so is a first generator
    moved by a character that K_C does not kill, if K_C is nontrivial."""
    reference = CharacterPairing(matrix)
    left, right = reference.left, reference.right
    whole = hermite_generators(right.key, right.exponent)
    moved = 0
    for closed in zero_sets(left):
        assert refused_with(monkeypatch, matrix, closed,
                            lambda group, gens, order: (gens, 2 * order))
        key = key_of(left, brute_isotropy(left, closed))
        if hermite_order(key, left.exponent) == 1:
            continue
        ann = reference.dual_kernel(key)
        w = next(g for g in whole if not in_hermite(ann, g))

        def move(group, gens, order):
            first = add(group, gens[0], w) if gens else w
            return (first,) + tuple(gens[1:]), order

        assert refused_with(monkeypatch, matrix, closed, move)
        moved += 1
    return moved


@pytest.mark.parametrize("name", SMALL)
def test_a_corrupted_order_or_generator_is_refused_on_the_catalogue(monkeypatch, name):
    assert assert_corruptions_refused(monkeypatch, catalogue_input(name)[0])


def test_a_corrupted_order_or_generator_is_refused_on_generated_inputs(monkeypatch):
    assert sum(assert_corruptions_refused(monkeypatch, m)
               for m, _s in generated_pairs()) > 50
