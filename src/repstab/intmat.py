"""Exact integer matrix routines: Hermite and Smith normal forms, kernels,
and the inverse modulo an integer.

Everything here works on small dense matrices given as lists of row lists.
Sizes stay in the single digits to low tens, so the classical cubic
algorithms with exact big integers are entirely adequate.  `inverse_mod`
is the group layer's one matrix inverse.  It works in Z/m, so a
unimodular transform needs no Fractions: its inverse modulo a multiple
of every modulus it is read under gives the same results.
"""

import math

from .errors import InvariantViolation


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _pivot(row):
    for j, v in enumerate(row):
        if v:
            return j
    return len(row)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_row_form(rows, ncols):
    """Unique row-style Hermite form of the lattice spanned by `rows`.

    Returns the nonzero rows in echelon order: pivots strictly move right,
    pivot entries are positive, entries above a pivot are reduced into
    [0, pivot).  Uniqueness makes this usable as a canonical form.
    """
    basis = []  # kept in echelon order with distinct pivots
    for vec in rows:
        vec = list(vec)
        i = 0
        while True:
            p = _pivot(vec)
            if p == ncols:
                break
            # locate basis row with this pivot, or the insertion point
            while i < len(basis) and _pivot(basis[i]) < p:
                i += 1
            if i < len(basis) and _pivot(basis[i]) == p:
                brow = basis[i]
                if vec[p] % brow[p] == 0:
                    q = vec[p] // brow[p]
                    for j in range(p, ncols):
                        vec[j] -= q * brow[j]
                else:
                    g, x, y = _xgcd(brow[p], vec[p])
                    q1, q2 = brow[p] // g, vec[p] // g
                    new = [x * brow[j] + y * vec[j] for j in range(ncols)]
                    vec = [q1 * vec[j] - q2 * brow[j] for j in range(ncols)]
                    basis[i] = new
            else:
                basis.insert(i, vec)
                break
        # inserted rows may break echelon order below the insertion point;
        # the loop above always leaves pivots distinct, so just resort
        basis.sort(key=_pivot)
    # normalize signs and reduce entries above each pivot; within a row the
    # reductions must run left to right so later pivot columns stay clean
    for i, row in enumerate(basis):
        p = _pivot(row)
        if row[p] < 0:
            basis[i] = [-v for v in row]
    for k in range(len(basis)):
        for i in range(k + 1, len(basis)):
            p = _pivot(basis[i])
            q = basis[k][p] // basis[i][p]
            if q:
                for j in range(p, ncols):
                    basis[k][j] -= q * basis[i][j]
    return [list(r) for r in basis]


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


def integer_kernel(mat, ncols):
    """Basis (list of length-ncols rows) of {x : mat @ x = 0} over Z."""
    nrows = len(mat)
    if nrows == 0:
        return mat_identity(ncols)
    d, _u, v = smith_normal_form(mat)
    basis = []
    for j in range(ncols):
        if j >= len(d) or d[j] == 0:
            basis.append([v[r][j] for r in range(ncols)])
    return basis


def solve_integer(mat, target):
    """Some integer x with mat @ x = target, or None if unsolvable."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    d, u, v = smith_normal_form(mat)
    b = [sum(u[i][k] * target[k] for k in range(nrows)) for i in range(nrows)]
    y = [0] * ncols
    for i in range(nrows):
        di = d[i] if i < len(d) else 0
        if di:
            if b[i] % di:
                return None
            y[i] = b[i] // di
        elif b[i]:
            return None
    return [sum(v[i][k] * y[k] for k in range(ncols)) for i in range(ncols)]


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
