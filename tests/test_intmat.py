from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from conftest import seeded

from bhht.intmat import (
    determinant,
    identity,
    kernel_mod,
    smith_normal_form,
    solve_exact,
)


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


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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


def test_smith_normal_form_properties():
    rng = seeded(2)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, -6, 6)
        d, u, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0


def test_invariant_factors_product_is_det():
    rng = seeded(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        det = determinant(a)
        if det == 0:
            continue
        d, _u, _v = smith_normal_form(a)
        assert prod(d[i][i] for i in range(n)) == abs(det)


def test_solve_exact():
    rng = seeded(4)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        if determinant(a) == 0:
            continue
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert solve_exact(a, b) == x


def test_solve_singular_raises():
    import pytest

    with pytest.raises(ValueError):
        solve_exact([[1, 2], [2, 4]], [1, 1])


def test_identity():
    assert identity(2) == [[1, 0], [0, 1]]


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
        gens, order = kernel_mod(rows, n, m)
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
        assert kernel_mod(rows, n, m)[1] == prod(gcd(dj, m) for dj in diag)


def test_smith_normal_form_mod_keeps_entries_reduced():
    rng = seeded(43)
    for _ in range(100):
        rows, cols = rng.randint(1, 8), rng.randint(1, 6)
        m = rng.choice([2, 12, 625, 1000])
        a = random_matrix(rng, rows, cols, -999, 999)
        d, u, v = smith_normal_form(a, modulus=m)
        assert all(0 <= x < m for mat in (d, u, v) for row in mat for x in row)
        assert [[x % m for x in row] for row in matmul(matmul(u, a), v)] == d
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert gcd(determinant(u), m) == 1 and gcd(determinant(v), m) == 1
