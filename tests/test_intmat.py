from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from conftest import seeded

from bhht.intmat import (
    hermite_dual,
    hermite_generators,
    hermite_key,
    hermite_order,
    kernel_mod,
)
from bhht.oracles import determinant


def det_by_fractions(a):
    # independent oracle: plain Gaussian elimination over the rationals
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_determinant_matches_fraction_elimination():
    rng = seeded(1)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert determinant(a) == det_by_fractions(a)


def test_determinant_trivila_cases():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [2, 4]]) == 0


def test_invariant_factors_product_is_det():
    # x / |det a| runs over the v with a.v integral: a group of order |det a|
    rng = seeded(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        det = abs(determinant(a))
        if det == 0:
            continue
        assert hermite_order(kernel_mod(a, n, det), det) == det


def _span_mod(gens, n, m):
    have = {(0,) * n}
    for g in gens:
        while True:
            more = {tuple((a + b) % m for a, b in zip(x, g)) for x in have} - have
            if not more:
                break
            have |= more
    return have


def test_kernel_mod_matches_brute_force():
    rng = seeded(41)
    for _ in range(300):
        n, m, k = rng.randint(1, 3), rng.randint(1, 12), rng.randint(0, 4)
        rows = random_matrix(rng, k, n)
        key = kernel_mod(rows, n, m)
        gens, order = hermite_generators(key, m), hermite_order(key, m)
        # the key is canonical: classes take it as the name of the subgroup
        assert key == hermite_key(gens, n, m)
        brute = {x for x in product(range(m), repeat=n)
                 if all(sum(a * b for a, b in zip(r, x)) % m == 0 for r in rows)}
        assert order == len(brute)
        assert all(g in brute for g in gens)
        assert _span_mod(gens, n, m) == brute


def test_kernel_mod_order_matches_sympy_smith_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = seeded(42)
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(1, 8)
        m = rng.choice([2, 6, 12, 30, 64, 625, 1000])
        rows = random_matrix(rng, k, n, -30, 30)
        d = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        diag = [abs(int(d[j, j])) if j < k else 0 for j in range(n)]
        assert hermite_order(kernel_mod(rows, n, m), m) == prod(gcd(dj, m) for dj in diag)


def test_kernel_mod_keeps_entries_reduced():
    rng = seeded(43)
    for _ in range(100):
        rows, cols = rng.randint(1, 8), rng.randint(1, 6)
        m = rng.choice([2, 12, 625, 1000])
        a = random_matrix(rng, rows, cols, -999, 999)
        gens = hermite_generators(kernel_mod(a, cols, m), m)
        assert all(len(g) == cols and all(0 <= x < m for x in g) for g in gens)
        assert all(sum(r * x for r, x in zip(row, g)) % m == 0
                   for row in a for g in gens)


def test_kernel_mod_matches_sympy_on_wide_inputs():
    # past the reach of the brute-force comparison: k = 0 and k > n rows,
    # entries negative and entries past m, m up to 9^5.  The key is
    # canonical, its generators solve every row, and it has as many
    # elements as sympy's Smith form counts, so it is the kernel's own key
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = seeded(44)
    for m in (1, 2, 12, 625, 1000, 9 ** 5):
        for _ in range(12):
            n = rng.randint(1, 6)
            for k in (0, rng.randint(1, n), rng.randint(n + 1, n + 4)):
                rows = random_matrix(rng, k, n, -3 * m, 3 * m)
                key = kernel_mod(rows, n, m)
                gens = hermite_generators(key, m)
                assert key == hermite_key(gens, n, m)
                assert all(sum(a * b for a, b in zip(r, g)) % m == 0
                           for r in rows for g in gens)
                d = sympy_snf(sympy.Matrix(rows or [[0] * n]), domain=sympy.ZZ)
                diag = [abs(int(d[j, j])) if j < max(k, 1) else 0 for j in range(n)]
                assert hermite_order(key, m) == prod(gcd(dj, m) for dj in diag)


def test_hermite_dual_is_its_own_inverse_on_keys():
    # the congruences of a subgroup cut out exactly that subgroup
    rng = seeded(45)
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.choice([2, 12, 625, 1000])
        key = hermite_key(random_matrix(rng, rng.randint(0, 4), n, 0, m - 1), n, m)
        dual = hermite_dual(key, m)
        assert all(len(c) == n and any(c) and all(0 <= x < m for x in c) for c in dual)
        assert kernel_mod(dual, n, m) == key


def test_hermite_dual_refuses_a_lattice_without_m_zn():
    # (2, 1) and (0, 3) span a lattice that does not contain 4.Z^2
    with pytest.raises(ArithmeticError):
        hermite_dual(((2, 1), (0, 3)), 4)
