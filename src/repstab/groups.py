"""Finite abelian p-groups and their surjective homomorphisms.

A group is a prime together with a non-increasing partition of exponents:
(p, [l1 >= l2 >= ...]) stands for Z/p^l1 + Z/p^l2 + ...; the empty
partition is the trivial group.  A homomorphism is an integer matrix acting
on the cyclic generators, stored with entry (i, j) reduced modulo p^{mu_i}
(mu = target exponents).  Well-definedness forces p^{max(0, mu_i - l_j)} to
divide entry (i, j).

Surjectivity onto a p-group only depends on the induced map of Frattini
quotients, so it is tested by the rank of the matrix mod p, and surjections
are counted in closed form from the two partitions.  Enumerations walk all
well-defined matrices in lexicographic (row-major) order, which fixes
canonical, cache-stable orderings everywhere downstream.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
import math
from operator import mul

from . import config
from .errors import (DivisibilityViolation, NotSurjective, ScaleExceeded,
                     ShapeMismatch)
from .intmat import inverse_mod, solve_integer


@dataclass(frozen=True)
class GroupType:
    """Isomorphism type of a finite abelian p-group."""

    p: int
    exponents: tuple

    def __post_init__(self):
        if self.p < 2 or not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        ex = tuple(int(e) for e in self.exponents)
        if any(e < 1 for e in ex):
            raise ValueError("exponents must be positive")
        if list(ex) != sorted(ex, reverse=True):
            raise ValueError("exponents must be sorted non-increasing")
        object.__setattr__(self, "exponents", ex)

    # Trivial groups with different p are the same group; fold them together.
    def __eq__(self, other):
        if not isinstance(other, GroupType):
            return NotImplemented
        if not self.exponents and not other.exponents:
            return True
        return self.p == other.p and self.exponents == other.exponents

    def __hash__(self):
        if not self.exponents:
            return hash(("trivial",))
        return hash((self.p, self.exponents))

    @property
    def rank(self):
        return len(self.exponents)

    @property
    def order(self):
        return self.p ** sum(self.exponents)

    @property
    def exponent_log(self):
        """Log_p of the group exponent (0 for the trivial group)."""
        return self.exponents[0] if self.exponents else 0

    def is_trivial(self):
        return not self.exponents

    def moduli(self):
        return tuple(self.p ** e for e in self.exponents)

    def key(self):
        """Canonical cache key, e.g. "p2-l2.1"; the trivial group is "p2-l"."""
        return f"p{self.p}-l" + ".".join(str(e) for e in self.exponents)

    def sort_key(self):
        return (self.order, self.exponents)

    def elements(self):
        """All elements as coordinate tuples, in lexicographic order."""
        return list(product(*[range(m) for m in self.moduli()]))

    def __repr__(self):
        if not self.exponents:
            return "GroupType(trivial)"
        body = "x".join(f"C{self.p ** e}" for e in self.exponents)
        return f"GroupType({body})"


def group(p, exponents):
    return GroupType(p, tuple(exponents))


def trivial_group(p=2):
    return GroupType(p, ())


def cyclic(p, e):
    return GroupType(p, (e,)) if e else GroupType(p, ())


def delta_rank(g):
    """Minimal size of a generating set (rank of the Frattini quotient)."""
    return g.rank


# Miller-Rabin with the first thirteen prime bases is exact below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


@lru_cache(maxsize=None)
def _is_prime(n):
    """Exact primality by deterministic Miller-Rabin.

    Inputs without a small factor at or above the proven bound are refused
    with ScaleExceeded rather than answered probabilistically.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_EXACT_BELOW:
        raise ScaleExceeded(
            f"primality of {n} is not decided exactly above {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Morphism:
    """Homomorphism between abelian p-groups in canonical reduced form."""

    source: GroupType
    target: GroupType
    matrix: tuple  # rows indexed by target generators, reduced mod p^{mu_i}

    @property
    def p(self):
        return self.target.p if self.target.exponents else self.source.p

    def __call__(self, x):
        """Apply to an element given as a coordinate tuple of the source."""
        mods = self.target.moduli()
        return tuple(
            sum(r * c for r, c in zip(row, x)) % m
            for row, m in zip(self.matrix, mods)
        )

    def __matmul__(self, other):
        """Composition self o other (other is applied first)."""
        if other.target != self.source:
            raise ShapeMismatch(
                f"cannot compose {self.source!r}<-{other.target!r}")
        return Morphism(other.source, self.target,
                        _compose(self.matrix, other.columns,
                                 self.target.moduli()))

    @property
    def columns(self):
        """The matrix column by column, one per source generator."""
        return (tuple(zip(*self.matrix)) if self.matrix
                else ((),) * self.source.rank)

    def sort_key(self):
        return tuple(v for row in self.matrix for v in row)

    def __repr__(self):
        return f"Morphism({self.source!r}->{self.target!r}, {self.matrix})"


def _compose(rows, cols, mods):
    """Entry (i, j) is rows[i] . cols[j] mod mods[i]: the matrix of f o g
    is _compose(f.matrix, g.columns, f.target.moduli()).  Label lookups
    call it directly and build no Morphism."""
    return tuple(tuple(sum(map(mul, row, col)) % m for col in cols)
                 for row, m in zip(rows, mods))


def make_morphism(source, target, matrix):
    """Validate, canonically reduce, and wrap an integer matrix as a map."""
    rows = [list(r) for r in matrix]
    if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
        raise ShapeMismatch(
            f"matrix must be {target.rank}x{source.rank}, got "
            f"{len(rows)}x{[len(r) for r in rows]}")
    p = target.p if target.exponents else source.p
    mu = target.exponents
    lam = source.exponents
    canon = []
    for i, row in enumerate(rows):
        m = p ** mu[i]
        out = []
        for j, v in enumerate(row):
            need = p ** max(0, mu[i] - lam[j])
            if v % need:
                raise DivisibilityViolation(
                    f"entry ({i},{j})={v} must be divisible by {need}")
            out.append(v % m)
        canon.append(tuple(out))
    return Morphism(source, target, tuple(canon))


def identity_morphism(g):
    return Morphism(g, g, tuple(
        tuple(1 if i == j else 0 for j in range(g.rank))
        for i in range(g.rank)))


def _rank_mod_p(rows, p):
    """Rank over F_p of a small integer matrix given as a sequence of rows.

    This is the Frattini rank: maps are onto, and elements generate, exactly
    when their rows span G/pG.
    """
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def is_surjective(f):
    """Onto iff the matrix mod p has full rank over the prime field."""
    s = f.target.rank
    if s == 0:
        return True
    if f.source.rank < s:
        return False
    return _rank_mod_p([list(r) for r in f.matrix], f.p) == s


def quotient_exists(t, g):
    """Whether g is a quotient type of t (componentwise exponent bound)."""
    if t.p != g.p and not g.is_trivial() and not t.is_trivial():
        return False
    if g.rank > t.rank:
        return False
    return all(m <= l for m, l in zip(g.exponents, t.exponents))


def _entry_choices(t, g):
    """Per-entry allowed values (row-major) for well-defined matrices t->g."""
    p = g.p if g.exponents else t.p
    choices = []
    for mi in g.exponents:
        m = p ** mi
        for lj in t.exponents:
            step = p ** max(0, mi - lj)
            choices.append(range(0, m, step))
    return choices


def hom_candidate_count(t, g):
    n = 1
    p = g.p if g.exponents else t.p
    for mi in g.exponents:
        for lj in t.exponents:
            n *= p ** min(mi, lj)
    return n


def iter_epis(t, g):
    """Lazily yield all surjections t -> g in lexicographic matrix order."""
    if g.is_trivial():
        yield Morphism(t, g, ())
        return
    if not quotient_exists(t, g):
        return
    s, r = g.rank, t.rank
    p = g.p
    choices = _entry_choices(t, g)
    for flat in product(*choices):
        rows = [list(flat[i * r:(i + 1) * r]) for i in range(s)]
        if _rank_mod_p(rows, p) == s:
            yield Morphism(t, g, tuple(tuple(row) for row in rows))


def first_epi(t, g):
    """The first surjection t -> g in lexicographic order, in closed form.

    Equals next(iter_epis(t, g)) (None when there is none) without walking
    the candidates before it, which for C_p^r -> C_p^s are at least the
    p^(r(s-1)) matrices with a zero first row.  Row k may have a unit
    residue only in its first c_k = #{j : l_j >= mu_k} columns, and these
    supports grow with k.  The smallest row outside the span of unit rows
    e_j already chosen is e_j for the largest unused j < c_k, and every
    later row still finds an unused column, so that row is the greedy
    lexicographic choice.
    """
    if g.is_trivial():
        return Morphism(t, g, ())
    if not quotient_exists(t, g):
        return None
    rows, used = [], set()
    for mu in g.exponents:
        c = sum(1 for lj in t.exponents if lj >= mu)
        j = max(k for k in range(c) if k not in used)
        used.add(j)
        rows.append(tuple(int(k == j) for k in range(t.rank)))
    return Morphism(t, g, tuple(rows))


_EPI_CACHE = {}


def enumerate_epis(t, g, limit=None):
    """All surjections t -> g, canonical and lexicographically ordered.

    Results are memoized; concurrent computations would only ever race to
    store equal lists.
    """
    key = (t, g)
    got = _EPI_CACHE.get(key)
    if got is None:
        if not g.is_trivial() and quotient_exists(t, g):
            config.check_candidates(hom_candidate_count(t, g), limit,
                                    what="epi enumeration")
        got = tuple(iter_epis(t, g))
        _EPI_CACHE[key] = got
    return list(got)


_COUNT_CACHE = {}


def count_epis(t, g):
    """|Epi(t, g)| in closed form.

    Entry (i, j) of a matrix t -> g has p^min(mu_i, l_j) values, and its
    residue mod p is free when mu_i <= l_j and zero otherwise; each free
    residue class has p^(min - 1) lifts.  With mu sorted non-increasing,
    row k mod p ranges over F_p^{c_k}, c_k = #{j : l_j >= mu_k}, and these
    spaces are nested, so the rows are independent in
    prod_k (p^{c_k} - p^k) ways.
    """
    key = (t, g)
    cnt = _COUNT_CACHE.get(key)
    if cnt is not None:
        return cnt
    if g.is_trivial():
        cnt = 1
    elif not quotient_exists(t, g):
        cnt = 0
    else:
        p, mu, lam = g.p, g.exponents, t.exponents
        cnt = 1
        for k, mk in enumerate(mu):
            c = sum(1 for lj in lam if lj >= mk)
            cnt *= p ** c - p ** k
            for lj in lam:
                cnt *= p ** (min(mk, lj) - (mk <= lj))
    _COUNT_CACHE[key] = cnt
    return cnt


def aut_transitive_on_epis(t):
    """Whether Aut(t) acts transitively on Epi(t, h) for every group h.

    True exactly when all exponents of t are equal: t trivial, cyclic,
    C_p^n or (Z/p^k)^n.  Such a t is a free Z/p^k-module with basis e_i,
    and every quotient h has exponent dividing p^k.  Given surjections
    beta, beta': t -> h, pick x_i with beta(x_i) = beta'(e_i).  Adding
    elements of ker(beta) to the x_i reaches every lift, and ker(beta)
    maps onto ker(t/pt -> h/ph), so the x_i can be chosen to reduce to a
    basis of t/pt.  Then sigma(e_i) = x_i is onto by Nakayama, hence an
    automorphism, and beta o sigma = beta'.  If the exponents differ, the
    projections onto C_p through a largest and through a smallest cyclic
    factor differ on the characteristic subgroup t[p^min], so no
    automorphism relates them.
    """
    return len(set(t.exponents)) <= 1


def automorphisms(g, limit=None):
    """All invertible endomorphisms; equals enumerate_epis(g, g)."""
    config.check_order(g.order, limit, what="automorphism enumeration")
    return enumerate_epis(g, g)


@lru_cache(maxsize=None)
def automorphism_generators(g):
    """A small generating set of Aut(g), used for orbit and coinvariant
    computations where enumerating the whole group would be hopeless.

    Homocyclic g = (Z/p^k)^r with r >= 2 gets at most four generators: the
    transvection T = I + E_12, the signed cycle C: e_j -> e_{j+1},
    e_r -> (-1)^(r+1) e_1 (so det C = 1), and diag(u, 1, ..., 1) for each
    generator u of (Z/p^k)^*.  They generate Aut(g) = GL_r(Z/p^k):
    Z/p^k is a local ring, so SL_r(Z/p^k) is generated by the elementary
    transvections I + a E_ij, which are powers of I + E_ij.  Conjugating T
    by powers of C gives every I +- E_{i,i+1} and I +- E_{r,1}, and the
    commutator [I + a E_ij, I + b E_jk] = I + ab E_ik (i != k) reaches every
    E_ij from these.  For r = 2, T and C are the images of the usual
    generators T and S of SL_2(Z) (Trott, Canad. Math. Bull. 5, 1962;
    Coxeter-Moser, Generators and Relations for Discrete Groups, 7.5).
    Finally det maps the diag(u, 1, ..., 1) onto the units.

    Other groups get the transvections I + p^max(0, l_i - l_j) E_ij and
    the unit scalings of each cyclic factor.
    """
    p, lam, r = g.p, g.exponents, g.rank

    def elementary(i, j, v):
        rows = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
        rows[i][j] = v
        return make_morphism(g, g, rows)

    if r >= 2 and len(set(lam)) == 1:
        cycle = [[1 if a == b + 1 else 0 for b in range(r)] for a in range(r)]
        cycle[0][r - 1] = (-1) ** (r + 1)
        return (elementary(0, 1, 1), make_morphism(g, g, cycle),
                *(elementary(0, 0, u) for u in _unit_generators(p, lam[0])))
    return tuple(
        [elementary(i, j, p ** max(0, lam[i] - lam[j]))
         for i in range(r) for j in range(r) if i != j]
        + [elementary(i, i, u)
           for i in range(r) for u in _unit_generators(p, lam[i])])


def _unit_generators(p, k):
    """Generators of (Z/p^k)^*  (cyclic for odd p; {-1, 5} for p = 2)."""
    m = p ** k
    if m <= 2:
        return []
    if p == 2:
        return [m - 1] if k == 2 else [m - 1, 5]
    for cand in range(2, m):
        if math.gcd(cand, p) != 1:
            continue
        if _mult_order(cand, m) == (p - 1) * p ** (k - 1):
            return [cand]
    raise RuntimeError("no primitive root found")  # unreachable for odd p


def _mult_order(a, m):
    x, k = a % m, 1
    while x != 1:
        x = (x * a) % m
        k += 1
    return k


def lift_epi(alpha, beta):
    """Fill the diagonal of a cospan of surjections with a surjection.

    Given alpha: A -> C and beta: B -> C where A is a free module over
    Z/p^n (all exponents equal), B has exponent dividing p^n, and
    rank(A) >= rank(B), returns gamma: A -> B with beta o gamma = alpha and
    gamma surjective.
    """
    a_t, b_t = alpha.source, beta.source
    if alpha.target != beta.target:
        raise ShapeMismatch("cospan legs must share a target")
    if not (is_surjective(alpha) and is_surjective(beta)):
        raise NotSurjective("both legs must be surjective")
    if len(set(a_t.exponents)) > 1:
        raise ShapeMismatch("the lifting source must be a free module")
    if a_t.rank < b_t.rank:
        raise ShapeMismatch("rank of the free source must dominate")
    if b_t.exponent_log > a_t.exponent_log:
        raise ShapeMismatch("target exponent must divide the source exponent")
    # gamma sends a_i to b_i (i < rank B) and to 0 beyond; express in
    # standard coordinates by inverting the a-basis mod p^n
    nn, mm = a_t.rank, b_t.rank
    a_vecs, b_vecs = _adapted_basis(alpha), _adapted_basis(beta)
    q = a_t.p ** a_t.exponent_log
    amat = [[a_vecs[k][i] % q for k in range(nn)] for i in range(nn)]
    ainv = inverse_mod(amat, q)
    rows = [[sum(b_vecs[k][i] * ainv[k][j] for k in range(mm))
             for j in range(nn)] for i in range(mm)]
    return make_morphism(a_t, b_t, rows)


def _adapted_basis(f):
    """A section of f completed to a Frattini basis of f.source, with the
    extra vectors moved into ker f.

    Entry i < rank(target) is an integer preimage of e_i, the later entries
    map to 0, and together they reduce to a basis of source/p source.
    Each unit vector e_k that raises the rank mod p is taken, minus the
    section's lift of its image; the section already spans that image, so
    the move keeps the span mod p.
    """
    src, ll = f.source, f.target.rank
    vecs = section(f)
    for k in range(src.rank):
        if len(vecs) == src.rank:
            break
        unit = [int(i == k) for i in range(src.rank)]
        if _rank_mod_p(vecs + [unit], src.p) > len(vecs):
            img = f(unit)
            vecs.append([u - sum(img[i] * vecs[i][j] for i in range(ll))
                         for j, u in enumerate(unit)])
    return vecs


def section(f):
    """Integer preimages of the standard generators of f.target.

    Entry k solves f(x) = e_k over the integers against the relations
    p^mu_i of the target, so f(x mod f.source.moduli()) = e_k; the
    entries are not reduced.  `f` must be surjective.
    """
    mods = f.target.moduli()
    ll = f.target.rank
    mat = [list(f.matrix[i]) + [mods[i] if k == i else 0 for k in range(ll)]
           for i in range(ll)]
    out = []
    for k in range(ll):
        sol = solve_integer(mat, [1 if i == k else 0 for i in range(ll)])
        if sol is None:
            raise NotSurjective(f"{f!r} misses generator {k} of its target")
        out.append(sol[:f.source.rank])
    return out


def orbit_roots(n, pairs):
    """Union-find over points 0..n-1: merge each pair (a, b) in the order
    given, attaching the root of a below the root of b; returns the root
    of every point.

    The roots depend only on the merge order, so callers that feed their
    pairs in a fixed order get fixed orbit representatives.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(i) for i in range(n)]
