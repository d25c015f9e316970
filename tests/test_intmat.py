import random

import pytest
from hypothesis import given, settings, strategies as st

from repstab.errors import InvariantViolation
from repstab.intmat import (hermite_row_form, smith_normal_form,
                            integer_kernel, solve_integer, mat_identity,
                            inverse_mod)

from oracles import mat_mul, hermite_row_form_oracle


def _is_unimodular(m):
    # determinant +-1 via fraction-free expansion on small sizes
    n = len(m)
    if n == 0:
        return True
    if n == 1:
        return abs(m[0][0]) == 1
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        sub = _det(minor)
        det += (-1) ** j * m[0][j] * sub
    return abs(det) == 1


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=m, max_size=m),
            min_size=n, max_size=n)))


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_smith_form_transforms(mat):
    d, u, v = smith_normal_form(mat)
    n, m = len(mat), len(mat[0])
    prod = mat_mul(mat_mul(u, mat), v)
    for i in range(n):
        for j in range(m):
            want = d[i] if i == j and i < len(d) else 0
            assert prod[i][j] == want
    for i in range(len(d) - 1):
        if d[i]:
            assert d[i + 1] % d[i] == 0
        else:
            assert d[i + 1] == 0
    assert _is_unimodular(u) and _is_unimodular(v)


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_integer_kernel_annihilates(mat):
    m = len(mat[0])
    for vec in integer_kernel(mat, m):
        assert all(sum(row[j] * vec[j] for j in range(m)) == 0
                   for row in mat)


@given(small_matrix, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_solve_integer_solves(mat, coeffs):
    m = len(mat[0])
    coeffs = (coeffs * m)[:m]
    target = [sum(row[j] * coeffs[j] for j in range(m)) for row in mat]
    sol = solve_integer(mat, target)
    assert sol is not None
    assert all(sum(row[j] * sol[j] for j in range(m)) == target[i]
               for i, row in enumerate(mat))


def test_hermite_uniqueness_under_shuffles():
    rng = random.Random(7)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.7:
            rows += [[9 if j == i else 0 for j in range(m)]
                     for i in range(m)]
        h1 = hermite_row_form_oracle(rows, m)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hermite_row_form_oracle(shuffled, m) == h1
        # canonical shape
        pivots = []
        for row in h1:
            p = next(j for j, v in enumerate(row) if v)
            assert row[p] > 0
            pivots.append(p)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for i, row in enumerate(h1):
            p = pivots[i]
            for k in range(i):
                assert 0 <= h1[k][p] < row[p]


def _relation_rows(mods):
    return [[m if j == i else 0 for j in range(len(mods))]
            for i, m in enumerate(mods)]


def test_modular_hermite_matches_oracle():
    # the modular form of span(rows) + diag(mods) equals the integer form
    # with the relation rows written out: p in {2, 3, 5}, ranks 0-5, 0-5
    # rows with negative entries, and rows already in the relation lattice
    rng = random.Random(11)
    for case in range(3000):
        p = (2, 3, 5)[case % 3]
        rank = rng.randint(0, 5)
        exps = sorted((rng.randint(1, 4 if p == 2 else 3)
                       for _ in range(rank)), reverse=True)
        mods = tuple(p ** e for e in exps)
        rows = [[rng.randint(-2 * m, 2 * m) for m in mods]
                for _ in range(rng.randint(0, 5))]
        if rank and rng.random() < 0.3:
            rows.append([m * rng.randint(-2, 2) for m in mods])
        want = hermite_row_form_oracle(rows + _relation_rows(mods), rank)
        assert hermite_row_form(rows, mods) == want, (mods, rows)


def test_modular_hermite_needs_unit_and_carry():
    # Z/4 x Z/4 with the row (2, 1): the pivot of column 1 is 2, which
    # only the carried row 2 (2, 1) - (4, 0) = (0, 2) reaches; over Z/9,
    # the row (6) has pivot 3, its unit part 2 inverted
    assert hermite_row_form([[2, 1]], (4, 4)) == [[2, 1], [0, 2]]
    assert hermite_row_form([[6]], (9,)) == [[3]]
    assert hermite_row_form([], (8, 2)) == [[8, 0], [0, 2]]
    assert hermite_row_form([[5, 7]], ()) == []


prime_power = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3))
square_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n,
                                max_size=n), min_size=n, max_size=n))


def _elementary_product(n, ops):
    """Product of elementary row additions and swaps: unimodular."""
    m = mat_identity(n)
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            m[0], m[i] = m[i], m[0]
        else:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _assert_inverse_mod(m, inv, q):
    n = len(m)
    assert all(0 <= v < q for row in inv for v in row)
    for prod in (mat_mul(m, inv), mat_mul(inv, m)):
        assert [[v % q for v in row] for row in prod] == mat_identity(n)


@given(st.integers(1, 4), st.lists(st.tuples(st.integers(0, 3),
                                              st.integers(0, 3),
                                              st.integers(-9, 9)),
                                    max_size=12), prime_power)
@settings(max_examples=150, deadline=None)
def test_inverse_mod_of_elementary_products(n, ops, pk):
    p, k = pk
    m = _elementary_product(n, ops)
    _assert_inverse_mod(m, inverse_mod(m, p ** k), p ** k)


@given(square_matrix, prime_power)
@settings(max_examples=200, deadline=None)
def test_inverse_mod_exactly_when_invertible_mod_p(m, pk):
    p, k = pk
    if _det(m) % p:
        _assert_inverse_mod(m, inverse_mod(m, p ** k), p ** k)
    else:
        with pytest.raises(InvariantViolation):
            inverse_mod(m, p ** k)


def test_inverse_mod_examples():
    assert inverse_mod([], 8) == []
    assert inverse_mod([[3]], 8) == [[3]]
    assert inverse_mod([[1, 2], [0, 1]], 9) == [[1, 7], [0, 1]]
    with pytest.raises(InvariantViolation):
        inverse_mod([[2, 0], [0, 1]], 4)
