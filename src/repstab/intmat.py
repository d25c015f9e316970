"""Exact integer matrix routines: the Hermite and Smith normal forms and
the inverse modulo an integer.

Everything here works on small dense matrices given as lists of row lists.
Sizes stay in the single digits to low tens, so the classical cubic
algorithms with exact big integers are entirely adequate.  The Hermite
form is the group layer's one lattice primitive.  It is taken of
span(rows) + diag(m_1, ..., m_r) Z^r with the relation rows implicit, the
moduli powers of one prime in any order, and it is computed modulo their
largest with p-power pivots (Domich, Kannan and Trotter, Math. Oper. Res.
12, 1987; Cohen, A Course in Computational Algebraic Number Theory, Alg.
2.4.8), so no entry outgrows it.  It answers membership and coset
representatives, and, as blocks of the form of a stacked lattice,
kernels, intersections and sections (see `subgroups`).  The Smith form
serves only isomorphism types: quotients and subgroup decompositions.
`inverse_mod` is the group layer's one matrix inverse.  It works in Z/m,
so a unimodular transform needs no Fractions: its inverse modulo a
multiple of every modulus it is read under gives the same results.
"""

import math

from .errors import InvariantViolation


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_row_form(rows, moduli):
    """Row Hermite form of span(rows) + diag(moduli) Z^r.

    `moduli` are powers p^l_1, ..., p^l_r of one prime, in any order, so
    L contains D Z^r, D = max(moduli), and its form has row c with pivot
    p^v on the diagonal and entries above a pivot in [0, pivot);
    uniqueness makes it a canonical form.  The relation rows p^l_c e_c
    are never written out.  Before column c, the rows left hold L meet
    (0^c x Z^(r-c)) together with the relations of columns c and up:
    - entries of column j are read mod p^l_j, a relation;
    - the pivot is a row of least p-valuation v, found as the least
      gcd with D, or p^l_c e_c when every row is 0 there; times the
      inverse mod D of its unit part it has entry p^v;
    - the other rows are cleared by exact multiples of the pivot, and
      (p^l_c / p^v) times the pivot, which is 0 in column c, is carried
      down: with p^l_c e_c it spans the part of the pivot's line and the
      relation that vanishes in column c.
    """
    r = len(moduli)
    d = max(moduli, default=1)
    work = [[v % m for v, m in zip(row, moduli)] for row in rows]
    basis = []
    for c, m in enumerate(moduli):
        best, piv = m, None
        for i, row in enumerate(work):
            if row[c]:
                g = math.gcd(row[c], d)
                if g < best:
                    best, piv = g, i
        if piv is None:
            basis.append([m if j == c else 0 for j in range(r)])
            continue
        prow = work.pop(piv)
        u = pow(prow[c] // best, -1, d)
        prow = [v * u % mj for v, mj in zip(prow, moduli)]
        for i, row in enumerate(work):
            q = row[c] // best
            if q:
                work[i] = [(a - q * b) % mj
                           for a, b, mj in zip(row, prow, moduli)]
        carry = [m // best * b % mj for b, mj in zip(prow, moduli)]
        work = [row for row in work if any(row)]
        if any(carry):
            work.append(carry)
        basis.append(prow)
    # reduce the entries above each pivot, left to right within a row so
    # that later pivot columns stay clean
    for k in range(r):
        row = basis[k]
        for i in range(k + 1, r):
            q = row[i] // basis[i][i]
            if q:
                row[i:] = [a - q * b for a, b in zip(row[i:], basis[i][i:])]
    return basis


def smith_normal_form(mat):
    """Smith form with transforms: returns (d, U, V) with U*mat*V = diag(d).

    U (n x n) and V (m x m) are unimodular; the diagonal is nonnegative with
    d_1 | d_2 | ...; `d` has length min(n, m).
    """
    a = [list(r) for r in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    U = mat_identity(n)
    V = mat_identity(m)

    def row_sub(i, k, q):
        for j in range(m):
            a[i][j] -= q * a[k][j]
        for j in range(n):
            U[i][j] -= q * U[k][j]

    def col_sub(j, k, q):
        for r in range(n):
            a[r][j] -= q * a[r][k]
        for r in range(m):
            V[r][j] -= q * V[r][k]

    def row_swap(i, k):
        if i != k:
            a[i], a[k] = a[k], a[i]
            U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        if j != k:
            for r in range(n):
                a[r][j], a[r][k] = a[r][k], a[r][j]
            for r in range(m):
                V[r][j], V[r][k] = V[r][k], V[r][j]

    for t in range(min(n, m)):
        while True:
            # smallest nonzero entry in the trailing block -> pivot
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    v = abs(a[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                break
            row_swap(t, best[1])
            col_swap(t, best[2])
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # divisibility: pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)  # adds the offending row, restart
        if t < min(n, m) and a[t][t] < 0:
            for j in range(m):
                a[t][j] = -a[t][j]
            for j in range(n):
                U[t][j] = -U[t][j]
    d = [a[i][i] for i in range(min(n, m))]
    return d, U, V


def inverse_mod(mat, modulus):
    """Inverse of a square integer matrix modulo `modulus`, entries reduced.

    Callers build matrices that are invertible by construction, so a
    matrix singular modulo `modulus` is a broken invariant.
    """
    n = len(mat)
    aug = [[mat[i][j] % modulus for j in range(n)]
           + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n)
                    if math.gcd(aug[i][col], modulus) == 1), None)
        if piv is None:
            raise InvariantViolation(
                f"matrix not invertible modulo {modulus}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, modulus)
        aug[col] = [(v * inv) % modulus for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [(a - c * b) % modulus
                          for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
