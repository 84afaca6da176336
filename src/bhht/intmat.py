"""Exact integer matrix routines.

Everything here works on plain lists of Python ints; no floating point is
used anywhere.

The one integer normal form is the Hermite key of a lattice that contains
L.Z^n (``hermite_key``).  Taken mod L, it names a subgroup of (Z/L)^n and
decides its membership and order without listing it; the key of a larger
lattice gives the kernel of congruences mod m (``kernel_mod``).
"""

from math import prod


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


def hermite_key(generators, n, L):
    """The Hermite normal form of the lattice the generators and L.Z^n span.

    A subgroup H of (Z/L)^n is that lattice taken mod L, so two subgroups
    are equal exactly when their keys are, and nothing is listed to tell.
    The key is n rows, upper triangular: row j starts at column j with a
    pivot d_j dividing L, and every entry above a pivot is reduced mod it.
    A row with pivot L is L.e_j, which is zero mod L.  Each column is
    cleared by Euclid's algorithm on rows, starting from L.e_j: every step
    swaps two rows or subtracts a multiple of one from another, so the
    lattice never changes; it contains L.Z^n, so every entry can be kept
    mod L.
    """
    rows = [[x % L for x in g] for g in generators]
    key = []
    for j in range(n):
        pivot = [0] * n
        pivot[j] = L
        rest = []
        for row in rows:
            while row[j]:
                q = pivot[j] // row[j]
                pivot, row = row, [(p - q * r) % L for p, r in zip(pivot, row)]
            if any(row):
                rest.append(row)
        rows = rest
        key.append(pivot)
    for j, row in enumerate(key):
        for above in key[:j]:
            q = above[j] // row[j]
            if q:
                above[j:] = [a - q * b for a, b in zip(above[j:], row[j:])]
    return tuple(map(tuple, key))


def in_hermite(key, element):
    """Whether the element lies in the subgroup of the key: it reduces to zero
    against the rows, column by column."""
    v = list(element)
    for j, row in enumerate(key):
        q, r = divmod(v[j], row[j])
        if r:
            return False
        if q:
            for i in range(j + 1, len(v)):
                v[i] -= q * row[i]
    return True


def hermite_order(key, L):
    """|H| = the product of L / d_j over the pivots."""
    return prod(L // row[j] for j, row in enumerate(key))


def hermite_generators(key, L):
    """Generators of the key's subgroup: its rows with a pivot below L."""
    return tuple(row for j, row in enumerate(key) if row[j] != L)


def kernel_mod(rows, n, m):
    """The Hermite key of {x in (Z/m)^n : r.x = 0 mod m for every row r}.

    For the k rows A, the vectors (A.e_i, e_i) and m.Z^(k+n) span a lattice
    whose vectors with k leading zeros are the (0, x) with A.x = 0 mod m.
    In its Hermite key the rows past the k-th span exactly those, so their
    last n columns are the kernel's own key.
    """
    k = len(rows)
    stacked = [[row[i] for row in rows] + [int(i == j) for j in range(n)]
               for i in range(n)]
    return tuple(row[k:] for row in hermite_key(stacked, k + n, m)[k:])
