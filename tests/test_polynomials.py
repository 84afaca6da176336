from fractions import Fraction
from itertools import product

import pytest
from conftest import random_invertible, seeded

from bhht.errors import (
    DegenerateLoopError,
    NotInvariantError,
    NotInvertibleError,
    ParseError,
)
from bhht.permgroups import PermGroup, group_from_generators, inverse
from bhht.polynomials import (
    ExponentMatrix,
    check_invariance,
    diagonal_restrict,
    parse_polynomial,
    restrict,
    serialize_polynomial,
    transpose,
    weights,
)


# -- parsing -------------------------------------------------------------------


def test_parse_fermat_quintic(quintic):
    assert quintic.n == 5
    assert sorted(quintic.rows) == sorted(
        tuple(5 if j == i else 0 for j in range(5)) for i in range(5))
    assert all(c == 1 for c in quintic.coefficients)


def test_parse_single_monomial():
    m = parse_polynomial("x1^2")
    assert m.rows == ((2,),)


def test_parse_x15_circulant(x15):
    for row in x15.rows:
        assert sorted(row) == [0, 0, 0, 1, 4]


def test_parse_coefficients():
    m = parse_polynomial("2*x1^3+1/2*x2^2")
    assert set(zip(m.rows, m.coefficients)) == {
        ((3, 0), Fraction(2)), ((0, 2), Fraction(1, 2))}


def test_parse_repeated_factor_merges():
    assert parse_polynomial("x1*x1").rows == ((2,),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("x1^2+")
    with pytest.raises(ParseError):
        parse_polynomial("y1^2")
    with pytest.raises(ParseError):
        parse_polynomial("x1^2+x1^2")  # repeated monomial
    with pytest.raises(ParseError):
        parse_polynomial("x1^2+x3^2")  # x2 missing
    with pytest.raises(ParseError):
        parse_polynomial("0*x1^2")


def test_mismatched_counts_parse_but_fail_validation():
    m = parse_polynomial("x1^2+x1*x2+x2^3")
    assert m.nmonomials == 3 and m.n == 2
    with pytest.raises(NotInvertibleError):
        m.validate()


def test_serialize_round_trip_byte_stable():
    rng = seeded(11)
    for _ in range(50):
        m = random_invertible(rng)
        text = serialize_polynomial(m)
        again = parse_polynomial(text)
        assert serialize_polynomial(again) == text
        assert again == m


# -- validation ----------------------------------------------------------------


def test_validate_quintic_is_five_chains(quintic):
    blocks = quintic.validate()
    assert len(blocks) == 5
    assert all(b.kind == "chain" and b.exponents == (5,) for b in blocks)


def test_validate_x14(x14):
    blocks = x14.validate()
    kinds = sorted((b.kind, b.variables, b.exponents) for b in blocks)
    assert kinds == [("chain", (4,), (5,)),
                     ("loop", (0, 1), (4, 4)),
                     ("loop", (2, 3), (4, 4))]


def test_validate_duplicate_rows_not_invertible():
    m = ExponentMatrix([(1, 1), (1, 1)])
    with pytest.raises(NotInvertibleError):
        m.validate()


def test_validate_three_variable_monomial_rejected():
    m = ExponentMatrix([(1, 1, 1), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(NotInvertibleError):
        m.validate()


def test_validate_degenerate_loop():
    with pytest.raises(DegenerateLoopError):
        parse_polynomial("x1*x2+x2*x3+x3*x1").validate()


def test_validate_no_unit_link():
    m = ExponentMatrix([(2, 2), (0, 3)])
    with pytest.raises(NotInvertibleError):
        m.validate()


def test_validate_random_sums(request):
    rng = seeded(12)
    for _ in range(60):
        m = random_invertible(rng)
        blocks = m.validate()
        covered = sorted(v for b in blocks for v in b.variables)
        assert covered == list(range(m.n))


# -- transpose -----------------------------------------------------------------


def test_transpose_symmetric_fixed(quintic):
    assert transpose(quintic) == quintic


def test_transpose_chain():
    m = parse_polynomial("x1^2*x2+x2^3")
    t = transpose(m)
    assert t == parse_polynomial("x1^2+x1*x2^3")


def test_transpose_x15_is_reversed_loop(x15):
    t = transpose(x15)
    blocks = t.validate()
    assert len(blocks) == 1 and blocks[0].kind == "loop"
    # reversing the cycle 1->5->4->3->2 maps it back onto the original
    relabel = {0: 0, 1: 4, 2: 3, 3: 2, 4: 1}
    rows = set()
    for row in t.rows:
        moved = [0] * 5
        for j, e in enumerate(row):
            moved[relabel[j]] = e
        rows.add(tuple(moved))
    assert rows == set(x15.rows)


def test_transpose_involution_random():
    rng = seeded(13)
    for _ in range(60):
        m = random_invertible(rng)
        assert transpose(transpose(m)) == transpose(transpose(m))
        assert transpose(transpose(m)).rows == m.anchored().rows


def test_validate_transposes_blocks_random():
    rng = seeded(14)
    for _ in range(40):
        m = random_invertible(rng)
        b1 = {(b.kind, len(b.variables), tuple(sorted(b.exponents)))
              for b in m.validate()}
        b2 = {(b.kind, len(b.variables), tuple(sorted(b.exponents)))
              for b in transpose(m).validate()}
        assert b1 == b2


# -- weights -------------------------------------------------------------------


def test_weights_quintic(quintic):
    assert weights(quintic) == (Fraction(1, 5),) * 5


def test_weights_x14(x14):
    assert weights(x14) == (Fraction(1, 5),) * 5


def test_weights_chain():
    m = parse_polynomial("x1^2*x2+x2^3")
    assert weights(m) == (Fraction(1, 3), Fraction(1, 3))


def test_weights_defining_equation_random():
    rng = seeded(15)
    for _ in range(40):
        m = random_invertible(rng)
        q = weights(m)
        for row in m.rows:
            assert sum(e * w for e, w in zip(row, q)) == 1


# -- restrict ------------------------------------------------------------------


def test_restrict_quintic(quintic):
    r = restrict(quintic, [0, 2])
    assert r.full
    assert [m for m, _c in r.monomials] == [(5, 0), (0, 5)]


def test_restrict_x14_partial(x14):
    r = restrict(x14, [0, 4])
    assert not r.full
    assert [m for m, _c in r.monomials] == [(0, 5)]


def test_restrict_x15_partial(x15):
    r = restrict(x15, [0, 1])
    assert not r.full
    assert [m for m, _c in r.monomials] == [(4, 1)]


def test_restrict_empty_is_vacuously_full(quintic):
    r = restrict(quintic, [])
    assert r.full and r.monomials == ()


def test_restrict_full_iff_dual_complement_full():
    rng = seeded(16)
    for _ in range(25):
        m = random_invertible(rng, max_vars=5)
        t = transpose(m)
        n = m.n
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            complement = [i for i in range(n) if not mask >> i & 1]
            assert (restrict(m.anchored(), subset).full
                    == restrict(t, complement).full)


# -- diagonal restrict -----------------------------------------------------------


def test_diagonal_restrict_two_squares():
    m = parse_polynomial("x1^4+x2^4")
    d = diagonal_restrict(m, [0, 1], group_from_generators(2, ["(12)"]))
    assert d.full
    assert d.variables == ((0, 1),)
    assert d.monomials == (((4,), Fraction(2)),)


def test_diagonal_restrict_trivial_group_is_restrict(x14):
    t = PermGroup(5, ())
    for subset in ([0, 1], [2, 3, 4], [4]):
        d = diagonal_restrict(x14, subset, t)
        r = restrict(x14, subset)
        assert d.full == r.full
        assert [c for _m, c in d.monomials] == [c for _m, c in r.monomials]


def test_diagonal_restrict_x14_pair_swap(x14):
    # (12)(34) folds each loop onto one variable: the linked monomials become
    # fifth powers of the orbit variable, merged with doubled coefficients
    d = diagonal_restrict(x14, [0, 1, 2, 3], group_from_generators(5, ["(12)(34)"]))
    assert d.full
    assert d.variables == ((0, 1), (2, 3))
    assert d.monomials == (((5, 0), Fraction(2)), ((0, 5), Fraction(2)))


def test_diagonal_restrict_cross_pairing(x14):
    # (13)(24) identifies the two loops monomial by monomial
    d = diagonal_restrict(x14, [0, 1, 2, 3], group_from_generators(5, ["(13)(24)"]))
    assert d.full
    assert d.monomials == (((4, 1), Fraction(2)), ((1, 4), Fraction(2)))


def test_diagonal_restrict_merged_coefficients_positive_integers():
    # with unit coefficients, merged coefficients are counts of collapsed monomials
    rng = seeded(17)
    for _ in range(20):
        m = random_invertible(rng, max_vars=5)
        check_invariance(m, PermGroup(m.n, ()))
        full = list(range(m.n))
        d = diagonal_restrict(m, full, PermGroup(m.n, ()))
        for _mono, c in d.monomials:
            assert c.denominator == 1 and c > 0


def test_diagonal_restrict_requires_invariance(x14):
    with pytest.raises(NotInvariantError):
        diagonal_restrict(x14, [0, 1, 2, 3], group_from_generators(5, ["(23)"]))


def test_plain_swap_is_a_rotation_of_a_short_loop(x14):
    # (12) rotates the first loop; it is a genuine symmetry on its own
    check_invariance(x14, group_from_generators(5, ["(12)"]))


def test_diagonal_restrict_requires_preserved_subset(quintic):
    with pytest.raises(NotInvariantError):
        diagonal_restrict(quintic, [0], group_from_generators(5, ["(12)"]))


# -- invariance ------------------------------------------------------------------


def preserves(matrix, p):
    """Oracle: the variable permutation p maps the monomial table to itself."""
    table = dict(zip(matrix.rows, matrix.coefficients))
    q = inverse(p)
    return all(table.get(tuple(row[q[i]] for i in range(matrix.n))) == c
               for row, c in table.items())


def test_invariance_quintic_any_subgroup(quintic):
    for gens in (["(12)"], ["(12345)"], ["(123)", "(45)"]):
        check_invariance(quintic, group_from_generators(5, gens))


def test_invariance_x15_rotation(x15):
    check_invariance(x15, group_from_generators(5, ["(12345)"]))
    with pytest.raises(NotInvariantError):  # the reflection of the loop
        check_invariance(x15, group_from_generators(5, ["(25)(34)"]))


def test_invariance_x14_double_swap(x14):
    # (12)(34) rotates both loops at once
    check_invariance(x14, group_from_generators(5, ["(12)(34)"]))


def test_invariance_x14_loop_exchange(x14):
    # (13)(24) swaps the two loops without rotating either
    check_invariance(x14, group_from_generators(5, ["(13)(24)"]))


def test_invariance_rejects_non_symmetry(x14):
    with pytest.raises(NotInvariantError):
        check_invariance(x14, group_from_generators(5, ["(23)"]))


def candidate_perms(rng, matrix):
    """Block swaps, loop rotations and random transpositions of f's variables."""
    n = matrix.n
    blocks = matrix.validate()
    out = []
    for a in blocks:
        m = len(a.variables)
        for b in blocks:
            if a.variables < b.variables and len(b.variables) == m:
                p = list(range(n))
                for u, v in zip(a.variables, b.variables):
                    p[u], p[v] = v, u
                out.append(tuple(p))
        if a.kind == "loop":
            for k in range(1, m):
                p = list(range(n))
                for i, v in enumerate(a.variables):
                    p[v] = a.variables[(i + k) % m]
                out.append(tuple(p))
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        p = list(range(n))
        p[i], p[j] = j, i
        out.append(tuple(p))
    return out


def test_invariance_on_generators_matches_a_scan_of_every_element():
    rng = seeded(18)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        half = random_invertible(rng, max_vars=3)
        n = half.n
        # two copies of one polynomial, the second maybe with coefficient 2
        rows = [r + (0,) * n for r in half.rows] + [(0,) * n + r for r in half.rows]
        coeffs = [1] * n + [rng.choice([1, 1, 2])] * n
        matrix = ExponentMatrix(rows, coeffs)
        copy_swap = tuple(range(n, 2 * n)) + tuple(range(n))
        gens = rng.sample(candidate_perms(rng, matrix), rng.randint(0, 2))
        perms = PermGroup(2 * n, [copy_swap] + gens)
        expected = all(preserves(matrix, p) for p in perms.elements)
        try:
            check_invariance(matrix, perms)
            accepted = True
        except NotInvariantError:
            accepted = False
        assert accepted == expected
        outcomes[accepted] += 1
    assert min(outcomes.values()) >= 20


def test_no_loop_reflection_preserves_f():
    # only a loop with all exponents 1, which validation rejects, has a
    # reflection among its symmetries; for length 2 each reflection is a rotation
    for m in range(2, 6):
        for exps in product(range(1, 5), repeat=m):
            rows = []
            for i, a in enumerate(exps):
                row = [0] * m
                row[i] = a
                row[(i + 1) % m] += 1
                rows.append(row)
            matrix = ExponentMatrix(rows)
            reflections = [tuple((s - i) % m for i in range(m)) for s in range(m)]
            if all(a == 1 for a in exps):
                assert m == 2 or all(preserves(matrix, r) for r in reflections)
                continue
            for r in reflections:
                rotation = all(r[i] == (i + r[0]) % m for i in range(m))
                try:
                    check_invariance(matrix, PermGroup(m, [r]))
                except NotInvariantError:
                    continue
                assert rotation, (exps, r)


def test_degenerate_loop_cannot_reach_flip_check():
    with pytest.raises(DegenerateLoopError):
        check_invariance(parse_polynomial("x1*x2+x2*x3+x3*x1"),
                         group_from_generators(3, ["(23)"]))
