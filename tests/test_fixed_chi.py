"""The fixed-point Euler characteristic from anchored rows against
Milnor-Orlik.

A verdict reads the chi of each stratum's T-fixed fibre straight off the
anchored exponent rows, one open stratum at a time: ``euler._check_moves``
checks T, and ``polynomials.fold_order`` reads the folded blocks' orders
(``fixed_chi`` here runs the two).  A stratum I where f^I is not full contributes
nothing, and summed over the full T-invariant strata J of a full subset I,
fixed_chi must give the chi of the T-fixed fibre of f^I on all of C^I,
which ``oracles.milnor_orlik_chi`` reads off the weights of f^I alone.  By
induction on I, the two fix fixed_chi on every full stratum and every
subgroup T of its stabilizer.  The check refuses a T that moves I or the
monomials of f^I, and one that moves an anchored monomial apart from its
anchor.  Summed over the whole Burnside element with the marks of the
trivial subgroup, chi of the whole fibre must be Milnor-Orlik's too.
"""

import random

import pytest
from conftest import X1, X14, all_subsets, fixed_chi, is_full, random_invertible
from hypothesis import given
from hypothesis import strategies as st
from test_stratum_naming import CATALOGUE, catalogue_pairs, doubled, symmetries

from bhht.errors import NotInvariantError, NotInvertibleError
from bhht.euler import euler_analysis
from bhht.oracles import milnor_orlik_chi, weights
from bhht.permgroups import PermGroup, group_from_generators
from bhht.polynomials import ExponentMatrix, parse_polynomial, transpose


def subsets(n):
    """Every nonempty subset of n points, as sorted tuples."""
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


def stabilizer_subgroups(perms, subset):
    """Every subgroup of the stabilizer of the subset in S."""
    inside = set(subset)
    stab = perms.subgroup([p for p in perms.elements if {p[i] for i in inside} == inside])
    return [stab.subgroup(elements) for elements in stab.lattice.subgroups]


def both_sides():
    """Each distinct catalogue (f, S), on the f and the f^T side."""
    for name in catalogue_pairs():
        fx = CATALOGUE[name]
        s = fx.perm_group()
        yield fx.matrix.anchored(), s
        yield transpose(fx.matrix), s


def monomials_inside(matrix, subset):
    """The monomials of f^I, those supported inside the subset, with their
    coefficients, by a scan of the rows."""
    inside = set(subset)
    return {row: c for row, c in zip(matrix.rows, matrix.coefficients)
            if all(not e or j in inside for j, e in enumerate(row))}


def preserves_stratum(matrix, subset, t):
    """Whether T maps the subset and the monomials of f^I to themselves."""
    inside = set(subset)
    table = monomials_inside(matrix, subset)
    return all({p[i] for i in inside} == inside
               and all(table.get(tuple(row[p.index(j)] for j in range(matrix.n))) == c
                       for row, c in table.items())
               for p in t.generators)


def invariant_unions(subset, t):
    """Every nonempty T-invariant J within the subset: the unions of T's
    orbits on it, as sorted tuples."""
    orbs = sorted({tuple(sorted({g[i] for g in t.elements})) for i in subset})
    return [tuple(sorted(i for k, orb in enumerate(orbs) if mask >> k & 1 for i in orb))
            for mask in range(1, 1 << len(orbs))]


def assert_matches_milnor_orlik(matrix, subset, t):
    """fixed_chi against Milnor-Orlik on one (I, T) with f^I full: the sum
    over the full T-invariant J within I is the formula's.  Returns whether
    f^I is full; nothing is compared where it is not."""
    full = is_full(matrix, subset)
    if full:
        total = sum(fixed_chi(matrix, j, t)
                    for j in invariant_unions(subset, t) if is_full(matrix, j))
        assert milnor_orlik_chi(matrix, subset, t) == total, (matrix, subset, t)
    return full


def assert_agree(matrix, perms):
    """fixed_chi against Milnor-Orlik on every (I, T); returns how many
    pairs were compared and how many of them were on strata that are not
    full."""
    compared = short = 0
    for subset in subsets(matrix.n):
        for t in stabilizer_subgroups(perms, subset):
            short += not assert_matches_milnor_orlik(matrix, subset, t)
            compared += 1
    return compared, short


def test_fixed_chi_matches_the_reference_on_the_catalogue():
    compared = short = 0
    for matrix, perms in both_sides():
        c, s = assert_agree(matrix, perms)
        compared += c
        short += s
    assert compared > 3000 and short > 0


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fixed_chi_matches_the_reference_on_random_inputs(seed):
    # a seeded random invertible f with rows shuffled, against the whole
    # symmetry group of f; every other seed doubles a smaller f, so that
    # swapping its two copies is a symmetry
    rng = random.Random(seed)
    matrix = random_invertible(rng, max_vars=rng.randint(1, 4))
    if seed % 2:
        matrix = doubled(random_invertible(rng, max_vars=2))
    perms = symmetries(matrix)
    assert_agree(matrix, perms)
    assert_agree(transpose(matrix), perms)


def test_anchor_fullness_is_the_fullness_of_the_restriction():
    rng = random.Random(24)
    matrices = [m for m, _s in both_sides()]
    matrices += [random_invertible(rng, max_vars=6) for _ in range(40)]
    for matrix in matrices:
        assert matrix.full_subsets() == [s for s in sorted(all_subsets(matrix.n))
                                         if is_full(matrix, s)], matrix


@pytest.mark.parametrize("text, subset, generators", [
    (X1, (0,), ["(12)"]),                       # T moves I
    (X14, (0, 1, 2, 3), ["(23)"]),              # T moves f^I
    ("x1^2+2*x2^2", (0, 1), ["(12)"]),          # T moves a coefficient of f^I
])
def test_fixed_chi_refuses_what_the_reference_refuses(text, subset, generators):
    matrix = parse_polynomial(text)
    t = group_from_generators(matrix.n, generators)
    assert not preserves_stratum(matrix, subset, t)
    with pytest.raises(NotInvariantError):
        fixed_chi(matrix, subset, t)


def test_fixed_chi_refuses_a_t_that_moves_anchors_apart():
    # (12) preserves I = (1 2) and f^I = x1*x2, but not the monomial
    # x2^2*x4 anchored in I: fixed_chi, whose fold needs T to move anchored
    # monomials with their anchors, refuses it
    matrix = parse_polynomial("x3^2*x1+x1*x2+x2^2*x4+x4^2")
    swap = group_from_generators(4, ["(12)"])
    assert preserves_stratum(matrix, (0, 1), swap)
    with pytest.raises(NotInvariantError):
        fixed_chi(matrix, (0, 1), swap)


def test_the_assembled_chi_counts_the_whole_fibre_on_the_catalogue():
    # the mark of the trivial subgroup, sum of a_c |G x| S| / (|H_c| |T_c|)
    # over chi's classes, is chi(V_f) = 1 + (-1)^(n-1) mu(f): induction and
    # the assembly at every catalogue size, past the oracle sweep's bound
    checked = 0
    for matrix, perms in both_sides():
        analysis = euler_analysis(matrix, perms)
        order = analysis.ambient.order
        total = sum(c * order // (cls.h_order * cls.t_order)
                    for cls, c in analysis.element.coefficients.items())
        trivial = PermGroup(matrix.n, ())
        assert total == milnor_orlik_chi(matrix, tuple(range(matrix.n)), trivial), matrix
        checked += 1
    assert checked == 2 * len(catalogue_pairs())


def test_milnor_orlik_refuses_the_transpose_of_a_chain_that_starts_with_exponent_1():
    # x1 + x1*x2^3, the transpose of x1*x2 + x2^3, has weights 1 and 0,
    # where the formula does not hold; validation refuses it, and so f
    matrix = ExponentMatrix([(1, 0), (1, 3)])
    trivial = group_from_generators(2, [])
    assert weights(matrix) == (1, 0)
    with pytest.raises(NotInvertibleError):
        milnor_orlik_chi(matrix, (0, 1), trivial)
    with pytest.raises(NotInvertibleError):
        transpose(parse_polynomial("x1*x2+x2^3"))


def test_milnor_orlik_of_a_fermat_quintic_under_a_rotation():
    # x1^5+...+x5^5 on all five points: mu = 4^5 with no symmetry, and the
    # rotation's fixed space is the line x1 = ... = x5, where f is 5 x^5
    matrix = parse_polynomial(X1)
    rotation = group_from_generators(5, ["(12345)"])
    trivial = group_from_generators(5, [])
    assert milnor_orlik_chi(matrix, tuple(range(5)), trivial) == 1 + 4 ** 5
    assert milnor_orlik_chi(matrix, tuple(range(5)), rotation) == 1 + 4
