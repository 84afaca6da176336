"""Exact integer matrix routines: Hermite keys and kernels mod m.

Everything here works on plain lists of Python ints; no floating point is
used anywhere.

The one integer normal form is the Hermite key of a lattice that contains
L.Z^n (``hermite_key``).  Taken mod L, it names a subgroup of (Z/L)^n and
decides its membership and order without listing it.  Every key is n
columns wide, and so is every step that makes one.  A key is upper
triangular, so back substitution over it gives its dual, the congruences
that cut its subgroup out (``hermite_dual``).  The kernel of congruences
mod m is the dual of their own key (``kernel_mod``).

A key's rows also sort subgroups.  Let r_1, r_2, ... be the rows with a
pivot below L, read from the bottom up (``hermite_generators``).
The elements of H that vanish on the columns before j are the span of the
rows with pivot column j or later, so each r_i is the least element of H
outside the span of r_1 ... r_(i-1): its pivot is the least positive value
of its column there, and its later entries are reduced.  So sorted(H) runs
through sorted(span(r_1 ... r_i)) and goes on with r_(i+1): the r_i are the
generators a greedy walk over sorted(H) picks, and sorted(H) < sorted(H')
exactly when (r_1, r_2, ...) < (r'_1, r'_2, ...) as tuples.  Subgroups are
ordered and printed by those rows, and none is listed to do it.
"""

from math import prod
from operator import mul


def matvec(a, v):
    return [sum(map(mul, row, v)) for row in a]


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
    """Generators of the key's subgroup: its rows with a pivot below L, from
    the bottom up, so that they compare as the sorted subgroups do."""
    return tuple(key[j] for j in reversed(range(len(key))) if key[j][j] != L)


def hermite_dual(key, m):
    """The nonzero columns mod m of m.B^-1 for the key B of a lattice that
    contains m.Z^n: they span, with m.Z^n, the c with B.c in m.Z^n, that is
    the c with c.x = 0 mod m for every x of the lattice.

    m.Z^n lies in the lattice, so m.I = B.C for an integer C = m.B^-1.  C is
    upper triangular like B, and row j of B.C = m.I gives row j of C from
    the rows below it, d_j.C_j = m.e_j - sum of B_ji.C_i over i > j, exactly;
    a remainder means the key was not such a key.
    """
    n = len(key)
    inverse = [None] * n
    for j in range(n - 1, -1, -1):
        row = key[j]
        c = [0] * n
        c[j] = m
        for i in range(j + 1, n):
            if row[i]:
                c = [a - row[i] * b for a, b in zip(c, inverse[i])]
        if any(a % row[j] for a in c):
            raise ArithmeticError("%r is not a Hermite key of a lattice "
                                  "containing %d.Z^%d" % (key, m, n))
        inverse[j] = [a // row[j] for a in c]
    columns = ([a % m for a in column] for column in zip(*inverse))
    return [column for column in columns if any(column)]


def kernel_mod(rows, n, m):
    """The Hermite key of {x in (Z/m)^n : r.x = 0 mod m for every row r}.

    Two n-wide steps.  The rows and m.Z^n span a lattice with key B, and x
    lies in the kernel exactly when B.x lies in m.Z^n, so the kernel is
    spanned by the columns of m.B^-1 (``hermite_dual``).  The key of those
    columns is the kernel's key; it is unique, so any other construction of
    the same kernel gives the same tuple.
    """
    return hermite_key(hermite_dual(hermite_key(rows, n, m), m), n, m)

