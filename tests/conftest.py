import random

import pytest

from bhht.polynomials import ExponentMatrix, parse_polynomial

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


def random_invertible(rng, max_vars=6):
    """Random Sebastiani-Thom sum of chains and loops, rows shuffled."""
    n = 0
    blocks = []
    while n < max_vars:
        room = max_vars - n
        if room >= 2 and rng.random() < 0.4:
            m = rng.randint(2, min(4, room))
            exps = [rng.randint(1, 5) for _ in range(m)]
            if all(p == 1 for p in exps):
                exps[rng.randrange(m)] = rng.randint(2, 5)
            blocks.append(("loop", m, exps))
        else:
            m = rng.randint(1, min(3, room))
            blocks.append(("chain", m, [rng.randint(1, 5) for _ in range(m)]))
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
