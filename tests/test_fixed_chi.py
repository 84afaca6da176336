"""The fixed-point Euler characteristic from anchored rows against the
reference fold.

``euler.fixed_chi`` reads fullness and the folded determinant straight off
the anchored exponent rows; ``oracles.stratum_chi_fixed`` restricts f to
the stratum, folds the restriction along T's orbits by merging monomials,
and takes the determinant of what is left.  The two must agree on every
stratum and every subgroup of its stabilizer, and refuse the same inputs.
Summed over the T-invariant strata J of a full subset I, ``fixed_chi`` must
also give the chi of the T-fixed fibre of f^I on all of C^I, which
``oracles.milnor_orlik_chi`` reads off the weights of f^I alone.
"""

import random

import pytest
from conftest import X1, X14, random_invertible
from hypothesis import given
from hypothesis import strategies as st
from test_stratum_naming import CATALOGUE, catalogue_pairs, doubled, symmetries

from bhht.errors import NotInvariantError
from bhht.euler import fixed_chi
from bhht.oracles import milnor_orlik_chi, restrict, stratum_chi_fixed
from bhht.permgroups import group_from_generators
from bhht.polynomials import ExponentMatrix, parse_polynomial, transpose, weights


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


def assert_agree(matrix, perms):
    """fixed_chi equals the reference on every (I, T); returns how many
    pairs were compared and how many of them were on strata that are not
    full."""
    compared = short = 0
    for subset in subsets(matrix.n):
        base = restrict(matrix, subset)
        for t in stabilizer_subgroups(perms, subset):
            assert fixed_chi(matrix, subset, t) == stratum_chi_fixed(base, t), \
                (matrix, subset, t)
            compared += 1
            short += not base.full
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
        for subset in subsets(matrix.n):
            assert matrix.full_on(subset) == restrict(matrix, subset).full, (matrix, subset)


@pytest.mark.parametrize("text, subset, generators", [
    (X1, (0,), ["(12)"]),                       # T moves I
    (X14, (0, 1, 2, 3), ["(23)"]),              # T moves f^I
    ("x1^2+2*x2^2", (0, 1), ["(12)"]),          # T moves a coefficient of f^I
])
def test_fixed_chi_refuses_what_the_reference_refuses(text, subset, generators):
    matrix = parse_polynomial(text)
    t = group_from_generators(matrix.n, generators)
    with pytest.raises(NotInvariantError):
        fixed_chi(matrix, subset, t)
    with pytest.raises(NotInvariantError):
        stratum_chi_fixed(restrict(matrix, subset), t)


def test_fixed_chi_refuses_a_t_that_moves_anchors_apart():
    # (12) preserves f^I = x1*x2, but not the monomial x2^2*x3 anchored in
    # I = (1 2): the reference folds f^I alone and finds chi 2, the two
    # points x1 = x2 = +-1, while fixed_chi, whose fold needs T to move
    # anchored monomials with their anchors, refuses
    matrix = parse_polynomial("x1*x2+x2^2*x3+x3^2")
    swap = group_from_generators(3, ["(12)"])
    assert stratum_chi_fixed(restrict(matrix, (0, 1)), swap) == 2
    with pytest.raises(NotInvariantError):
        fixed_chi(matrix, (0, 1), swap)


def restricted_matrix(matrix, subset):
    """f^I as an exponent matrix of its own."""
    return ExponentMatrix([m for m, _c in restrict(matrix, subset).monomials])


def assert_inclusion_exclusion(matrix, perms):
    """For each orbit representative I among the full subsets and each class
    T of S_I, the sum of fixed_chi(J, T) over the nonempty T-invariant
    J <= I is the Milnor-Orlik chi of I; returns the number of (I, T).

    An f^I with a variable of weight 0, which random draws with exponent 1
    make, is no quasi-homogeneous singularity, and the formula says nothing
    about it; such an I is passed over."""
    checked = 0
    for rep, stabilizer, _size in perms.orbits_of(matrix.full_subsets()):
        if not rep or not all(weights(restricted_matrix(matrix, rep))):
            continue
        for key in stabilizer.lattice.class_members:
            t = stabilizer.subgroup(key)
            total = 0
            for mask in range(1, 1 << len(rep)):
                j = tuple(p for k, p in enumerate(rep) if mask >> k & 1)
                if all({g[i] for i in j} == set(j) for g in t.generators):
                    total += fixed_chi(matrix, j, t)
            assert milnor_orlik_chi(matrix, rep, t) == total, (matrix, rep, key)
            checked += 1
    return checked


def test_fixed_chi_sums_to_milnor_orlik_on_the_catalogue():
    assert sum(assert_inclusion_exclusion(m, s) for m, s in both_sides()) > 500


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fixed_chi_sums_to_milnor_orlik_on_random_inputs(seed):
    # drawn as in the reference comparison above
    rng = random.Random(seed)
    matrix = random_invertible(rng, max_vars=rng.randint(1, 4))
    if seed % 2:
        matrix = doubled(random_invertible(rng, max_vars=2))
    perms = symmetries(matrix)
    assert_inclusion_exclusion(matrix, perms)
    assert_inclusion_exclusion(transpose(matrix), perms)


def test_milnor_orlik_refuses_a_weight_of_zero():
    matrix = parse_polynomial("x1*x2+x2")
    with pytest.raises(ValueError):
        milnor_orlik_chi(matrix, (0, 1), group_from_generators(2, []))


def test_milnor_orlik_of_a_fermat_quintic_under_a_rotation():
    # x1^5+...+x5^5 on all five points: mu = 4^5 with no symmetry, and the
    # rotation's fixed space is the line x1 = ... = x5, where f is 5 x^5
    matrix = parse_polynomial(X1)
    rotation = group_from_generators(5, ["(12345)"])
    trivial = group_from_generators(5, [])
    assert milnor_orlik_chi(matrix, tuple(range(5)), trivial) == 1 + 4 ** 5
    assert milnor_orlik_chi(matrix, tuple(range(5)), rotation) == 1 + 4
