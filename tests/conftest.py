import random

import pytest
from hypothesis import settings

from bhht.burnside import BurnsideElement, stratum_class
from bhht.euler import _check_moves
from bhht.intmat import hermite_generators, hermite_key
from bhht.oracles import key_of_elements
from bhht.permgroups import orbits
from bhht.polynomials import ExponentMatrix, fold_order, parse_polynomial

# Property tests draw the same bounded examples on every run and store none.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("tier1")

X1 = "x1^5+x2^5+x3^5+x4^5+x5^5"
X14 = "x1^4*x2+x1*x2^4+x3^4*x4+x3*x4^4+x5^5"
X15 = "x1^4*x2+x2^4*x3+x3^4*x4+x4^4*x5+x1*x5^4"


@pytest.fixture
def quintic():
    return parse_polynomial(X1)


@pytest.fixture
def x14():
    return parse_polynomial(X14)


@pytest.fixture
def x15():
    return parse_polynomial(X15)


def all_subsets(n):
    """Every subset of n points, the empty one first, as sorted tuples."""
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def key_of(group, elements):
    """The Hermite key of the subgroup of a diagonal group that the elements
    generate: how a test hands ``HTClass`` an H it holds as elements."""
    return hermite_key(elements, group.n, group.exponent)


def subgroup_of(group, elements):
    """The ``Subgroup`` of a diagonal group that a test holds as all of its
    elements, keyed by the oracle, which refuses any other element set."""
    return group.kernel_elements(key_of_elements(group, elements))


def stratum_elements(group, subset):
    """The stratum kernel K_I listed, from the closed-form generators of
    ``DiagonalGroup.stratum_kernel``."""
    return frozenset(group.kernel_elements(key_of(group, group.stratum_kernel(subset)[0])))


def stratum_classes_of(ambient):
    """Every class [K_C x| T] of G x| S named by stratum, the classes a mark
    counts the cosets of: for every subset I, C = Z(K_I) taken to its
    S-orbit representative, and every class key of that stabilizer's
    lattice; sorted by name."""
    n = ambient.diag.n
    classes = set()
    for mask in range(1 << n):
        closed = ambient.diag.zero_set(tuple(i for i in range(n) if mask >> i & 1))
        rep, _s, stabilizer = ambient.perms.subset_orbit(closed)
        classes.update(stratum_class(ambient, rep, key)
                       for key in stabilizer.lattice.classes)
    return sorted(classes, key=lambda cls: cls.name)


def fixed_chi(matrix, subset, perms):
    """chi of the T-fixed part of the fibre on the open stratum of a subset
    I where f^I is full, for T = ``perms``, as a verdict reads it: T
    checked on its generators (``euler._check_moves``), then (-1)^(k-1)
    times the order of f^I folded along T's k orbits on I
    (``polynomials.fold_order``)."""
    matrix = matrix.anchored()
    _check_moves(matrix, subset, perms.generators)
    orbs = orbits(perms.elements, subset)
    return (-1) ** (len(orbs) - 1) * fold_order(matrix, orbs)


def is_full(matrix, subset):
    """Whether f^I is full: as many monomials supported inside the subset
    as it has points, by a scan of the rows."""
    inside = set(subset)
    return len(inside) == sum(all(not e or j in inside for j, e in enumerate(row))
                              for row in matrix.rows)


def key_zero_set(group, key):
    """The points where every element of a key's subgroup vanishes."""
    gens = hermite_generators(key, group.exponent)
    return tuple(i for i in range(group.n) if not any(g[i] for g in gens))


def summed(ambient, *elements):
    """The sum of Burnside elements, as the program sums strata: in one dict."""
    total = {}
    for x in elements:
        for cls, c in x.coefficients.items():
            total[cls] = total.get(cls, 0) + c
    return BurnsideElement(ambient, total)


def random_invertible(rng, max_vars=6):
    """Random Sebastiani-Thom sum of chains and loops, rows shuffled, such
    that f and f^T pass validation: an exponent 1 drawn at either end of a
    chain of two or more variables, or at the end of a chain of one, is
    raised to 2, and so is the first of an even loop's exponents at every
    other variable where those are all 1."""
    n = 0
    blocks = []
    while n < max_vars:
        room = max_vars - n
        if room >= 2 and rng.random() < 0.4:
            m = rng.randint(2, min(4, room))
            exps = [rng.randint(1, 5) for _ in range(m)]
            if all(p == 1 for p in exps):
                exps[rng.randrange(m)] = rng.randint(2, 5)
            if m % 2 == 0:
                for k in (0, 1):
                    if all(p == 1 for p in exps[k::2]):
                        exps[k] = 2
            blocks.append(("loop", m, exps))
        else:
            m = rng.randint(1, min(3, room))
            exps = [rng.randint(1, 5) for _ in range(m)]
            exps[0], exps[-1] = max(exps[0], 2), max(exps[-1], 2)
            blocks.append(("chain", m, exps))
        n += blocks[-1][1]
    variables = list(range(n))
    rng.shuffle(variables)
    rows = []
    pos = 0
    for kind, m, exps in blocks:
        vs = variables[pos:pos + m]
        pos += m
        for i, p in enumerate(exps):
            row = [0] * n
            row[vs[i]] = p
            if kind == "loop":
                row[vs[(i + 1) % m]] += 1
            elif i + 1 < m:
                row[vs[i + 1]] += 1
            rows.append(row)
    rng.shuffle(rows)
    return ExponentMatrix(rows)


def is_even(p):
    """Parity of a permutation tuple, from its inversion count."""
    n = len(p)
    return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0


def seeded(seed=20240817):
    return random.Random(seed)
