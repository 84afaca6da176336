"""Exact integer and rational matrix routines.

Everything here works on plain lists of Python ints (or Fractions for the
solver); no floating point is used anywhere.
"""

from fractions import Fraction
from math import gcd


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matvec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def determinant(a):
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_exact(a, b):
    """Solve a @ x = b exactly over the rationals.

    Raises ValueError if the matrix is singular.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


def smith_normal_form(a, modulus):
    """Smith normal form of an integer matrix mod a positive modulus.

    Returns (d, u, v) with u @ a @ v == d mod the modulus, u and v invertible
    mod it and d diagonal.  Every entry is kept reduced mod the modulus, so
    none outgrows it (over Z, the transforms of a wide matrix can grow to
    many thousands of bits).  The solutions of a.x = 0 mod m form the sum
    of the Z/gcd(d[j][j], m) over the columns j, with d[j][j] = 0 past the
    last row.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[x % modulus for x in row] for row in a]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        m[dst] = [(x + q * y) % modulus for x, y in zip(m[dst], m[src])]
        u[dst] = [(x + q * y) % modulus for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for mat in (m, v):
            for row in mat:
                row[dst] = (row[dst] + q * row[src]) % modulus

    t = 0
    while t < min(rows, cols):
        # choose the least nonzero entry as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or m[i][j] < m[best[0]][best[1]]):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % m[t][t] != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)
        t += 1
    return m, u, v


def kernel_mod(rows, n, m):
    """Generators and order of {x in (Z/m)^n : r.x = 0 mod m for every row r}.

    With U @ A @ V = D in Smith normal form mod m, x = V @ y turns the
    congruences into d_j * y_j = 0 mod m (d_j = 0 beyond the rank), so y_j
    runs over the gcd(d_j, m) multiples of m / gcd(d_j, m).  The generators
    are the columns of V scaled by those steps, reduced mod m; trivial ones
    are left out.
    """
    if rows:
        d, _u, v = smith_normal_form(rows, m)
        diag = [d[j][j] if j < len(d) else 0 for j in range(n)]
    else:
        v, diag = identity(n), [0] * n
    gens = []
    order = 1
    for j, dj in enumerate(diag):
        g = gcd(dj, m)
        order *= g
        if g != 1:
            step = m // g
            gens.append(tuple(v[i][j] * step % m for i in range(n)))
    return gens, order
