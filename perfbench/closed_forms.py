"""Closed-form group counts used to check the library's answers.

Nothing here calls repstab: a finite abelian p-group is a prime and a
non-increasing tuple of exponents, and every count is a product formula.

- Surjections lambda -> mu (the staircase form): only the reductions
  mod p decide surjectivity; row k of the reduction is free on its first
  c_k = #{j : lambda_j >= mu_k} columns.
- Subgroups of type nu in a group of type lambda (Birkhoff): with primes
  denoting conjugate partitions,
  prod_i p^(nu'_{i+1} (lambda'_i - nu'_i))
         * [lambda'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_p.
  Subgroups of cotype nu are counted by the same formula (duality).
"""

from functools import lru_cache
from itertools import product


def conjugate(lam):
    return tuple(sum(1 for x in lam if x >= i)
                 for i in range(1, (lam[0] if lam else 0) + 1))


def gaussian_binomial(n, k, p):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def epi_count(p, lam, mu):
    """|Epi(lambda, mu)| for the p-groups of exponent tuples lam, mu."""
    if not mu:
        return 1
    total = 1
    for m in mu:
        for l in lam:
            total *= p ** (min(m, l) - (1 if m <= l else 0))
    for k, m in enumerate(mu):
        c = sum(1 for l in lam if l >= m)
        if c <= k:
            return 0
        total *= p ** c - p ** k
    return total


def aut_count(p, lam):
    return epi_count(p, lam, lam)


def sub_partitions(lam):
    """Every partition nu contained in lam (nu_i <= lam_i)."""
    out = []
    for nu in product(*(range(x + 1) for x in lam)):
        if all(a >= b for a, b in zip(nu, nu[1:])):
            out.append(tuple(x for x in nu if x))
    return sorted(set(out))


@lru_cache(maxsize=None)
def subgroups_of_type(p, lam, nu):
    lc, nc = conjugate(lam), conjugate(nu)
    if len(nc) > len(lc) or any(b > a for a, b in zip(lc, nc)):
        return 0
    total = 1
    for i in range(len(lc)):
        li = lc[i]
        ni = nc[i] if i < len(nc) else 0
        nn = nc[i + 1] if i + 1 < len(nc) else 0
        total *= p ** (nn * (li - ni)) * gaussian_binomial(li - nn, ni - nn, p)
    return total


def subgroup_count(p, lam):
    return sum(subgroups_of_type(p, lam, nu) for nu in sub_partitions(lam))


def wide_count(p, lam_g, lam_h):
    """|Wide(g, h)| over all abelian p-groups, by Goursat:
    sum over quotient types q of N(g, q) N(h, q) |Aut(q)|."""
    subs_g = set(sub_partitions(lam_g))
    return sum(subgroups_of_type(p, lam_g, q) * subgroups_of_type(p, lam_h, q)
               * aut_count(p, q)
               for q in sub_partitions(lam_h) if q in subs_g)


def wide_identity_rhs(p, lam_t, lam_g):
    """Criterion 06 right-hand side: sum over subgroups n of g of
    |Epi(t, g/n)|, grouped by the cotype of n."""
    return sum(subgroups_of_type(p, lam_g, q) * epi_count(p, lam_t, q)
               for q in sub_partitions(lam_g))
