"""Subgroups of finite abelian p-groups via integer lattices.

A subgroup S of G = Z^r / diag(p^l1, ..., p^lr) is stored as the preimage
lattice L with K <= L <= Z^r, where K is the relation lattice.  The row
Hermite form B of L is the unique normal form: two subgroups are equal
exactly when their forms agree, and quotients come out of the Smith form
of the basis matrix.

B is upper triangular with positive pivots, so one integer
back-substitution, `_hermite_reduce`, writes any x as a B + rem with
0 <= rem_i < B_ii (Cohen, A Course in Computational Algebraic Number
Theory, 2.4).  It answers three questions: x lies in S when rem is zero,
a are its coordinates on the basis, and rem is the unique representative
of the coset x + S in the box [0, B_ii).  Everything here stays in the
integers.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import config
from .errors import NotASubgroup, FamilyNotSubmultiplicative
from .groups import GroupType, make_morphism, enumerate_epis
from .intmat import (hermite_row_form, inverse_mod, smith_normal_form,
                     integer_kernel)


@dataclass(frozen=True)
class Subgroup:
    ambient: GroupType
    basis: tuple  # Hermite rows of the preimage lattice, r x r

    def __post_init__(self):
        object.__setattr__(self, "basis",
                           tuple(tuple(v for v in row) for row in self.basis))

    @property
    def order(self):
        det = 1
        for i in range(len(self.basis)):
            det *= self.basis[i][i]
        return self.ambient.order // det if det else 0

    def sort_key(self):
        return (self.order, tuple(v for row in self.basis for v in row))

    def contains_element(self, x):
        return not any(self.coset_rep(x))

    def coset_rep(self, x):
        """The representative of x + S in the box [0, pivot): two elements
        share a coset exactly when their representatives agree."""
        return _hermite_reduce(self.basis, x)[1]

    def contains(self, other):
        if other.ambient != self.ambient:
            raise NotASubgroup("ambient groups differ")
        return all(self.contains_element(row) for row in other.basis)

    def intersect(self, other):
        if other.ambient != self.ambient:
            raise NotASubgroup("ambient groups differ")
        r = self.ambient.rank
        b1 = [list(row) for row in self.basis]
        b2 = [list(row) for row in other.basis]
        # solve a*b1 = c*b2: kernel of [b1^T | -b2^T]
        mat = [[b1[k][i] for k in range(r)] + [-b2[k][i] for k in range(r)]
               for i in range(r)]
        ker = integer_kernel(mat, 2 * r)
        gens = []
        for coeffs in ker:
            gens.append([sum(coeffs[k] * b1[k][i] for k in range(r))
                         for i in range(r)])
        return subgroup_from_lattice_rows(self.ambient, gens)

    def sum_with(self, other):
        """The subgroup generated by self and other."""
        if other.ambient != self.ambient:
            raise NotASubgroup("ambient groups differ")
        return subgroup_from_lattice_rows(
            self.ambient, [list(r) for r in self.basis]
            + [list(r) for r in other.basis])

    def intersection_order(self, other):
        """|self meet other| via |A||B| / |A+B| (cheaper than the meet)."""
        return self.order * other.order // self.sum_with(other).order

    def elements(self):
        """All elements (tuples mod the ambient moduli), sorted."""
        gens, orders = self._generator_data()
        mods = self.ambient.moduli()
        out = set()
        for coeffs in product(*[range(d) for d in orders]):
            elt = tuple(
                sum(c * gens[k][i] for k, c in enumerate(coeffs)) % mods[i]
                for i in range(self.ambient.rank))
            out.add(elt)
        return sorted(out)

    @lru_cache(maxsize=None)
    def _generator_data(self):
        """Independent generators realizing the abstract type.

        Returns (gens, orders): ambient coordinate vectors g_k of order
        orders[k] (each a prime power > 1, non-increasing) such that S is
        the internal direct sum of the cyclic groups <g_k>.
        """
        gens, orders, _proj = self._decomposition()
        return gens, orders

    @lru_cache(maxsize=None)
    def _decomposition(self):
        r = self.ambient.rank
        mods = self.ambient.moduli()
        b = self.basis
        # write the relation lattice K in terms of the basis: C * B = K
        # (C integral because K <= L); S = L/K = Z^r / rowspan(C)
        cmat = [_solve_rows(b, row) for row in relation_rows(self.ambient)]
        d, _u, v = smith_normal_form(cmat)
        # coefficient rows map to the quotient by a |-> a V (row
        # convention), so the abstract generator e_k pulls back to row k
        # of V^{-1}.  Generators are only read modulo the ambient moduli,
        # which all divide p^l1, so V^{-1} mod p^l1 gives the same ones
        vinv = inverse_mod(v, max(mods, default=1))
        gens, orders, keep = [], [], []
        for k in range(r):
            if d[k] == 1:
                continue
            vec = tuple(sum(vinv[k][t] * b[t][i] for t in range(r)) % mods[i]
                        for i in range(r))
            gens.append(vec)
            orders.append(d[k])
            keep.append(k)
        idx = sorted(range(len(gens)),
                     key=lambda i: (-orders[i], gens[i]))
        # projector: coords(x) = (basis coefficients of x) V[:, keep]
        proj = tuple(tuple(v[t][keep[i]] for t in range(r)) for i in idx)
        return (tuple(gens[i] for i in idx), tuple(orders[i] for i in idx),
                proj)

    @property
    def isomorphism_type(self):
        _gens, orders = self._generator_data()
        p = self.ambient.p
        exps = tuple(_p_val(o, p) for o in orders)
        return GroupType(p, exps)

    def abstract_coordinates(self, x):
        """Coordinates of an element of S in the generator decomposition;
        NotASubgroup if x is not in S."""
        _gens, orders, proj = self._decomposition()
        a = _solve_rows(self.basis, x)
        return tuple(sum(c * ai for c, ai in zip(col, a)) % n
                     for col, n in zip(proj, orders))

    @property
    def generators(self):
        """The generator vectors g_k: abstract coordinates c map in to
        sum c_k g_k, and abstract_coordinates maps back."""
        return self._generator_data()[0]

    def __repr__(self):
        return f"Subgroup({self.ambient!r}, order={self.order})"


def _p_val(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _hermite_reduce(basis, x):
    """(a, rem) with x = a @ basis + rem and 0 <= rem[i] < basis[i][i],
    for an upper-triangular basis with positive pivots."""
    r = len(basis)
    a = [0] * r
    v = list(x)
    for i in range(r):
        row = basis[i]
        q = v[i] // row[i]
        if q:
            a[i] = q
            for j in range(i, r):
                v[j] -= q * row[j]
    return a, tuple(v)


def _solve_rows(basis, x):
    """Coefficients a with a @ basis = x; NotASubgroup if there are none."""
    a, rem = _hermite_reduce(basis, x)
    if any(rem):
        raise NotASubgroup("vector not in lattice")
    return a


def relation_rows(g):
    mods = g.moduli()
    r = g.rank
    return [[mods[i] if j == i else 0 for j in range(r)] for i in range(r)]


def subgroup_from_lattice_rows(ambient, rows):
    allrows = [list(r) for r in rows] + relation_rows(ambient)
    h = hermite_row_form(allrows, ambient.rank)
    return Subgroup(ambient, tuple(tuple(r) for r in h))


def subgroup_from_generators(ambient, gens):
    """Subgroup generated by the given coordinate tuples."""
    return subgroup_from_lattice_rows(ambient, [list(g) for g in gens])


def trivial_subgroup(ambient):
    return subgroup_from_lattice_rows(ambient, [])


def full_subgroup(ambient):
    r = ambient.rank
    return subgroup_from_lattice_rows(
        ambient, [[1 if j == i else 0 for j in range(r)] for i in range(r)])


_LATTICE_CACHE = {}


def enumerate_subgroups(g, order_filter=None, limit=None):
    """Every subgroup exactly once, in canonical order.

    Elementary ambient groups go through echelon-form subspace enumeration;
    the general case extends each known subgroup by elements x with
    p*x already inside (index-p extensions reach everything).
    """
    config.check_order(g.order, limit, what="subgroup enumeration")
    got = _LATTICE_CACHE.get(g)
    if got is None:
        if g.is_trivial():
            got = [trivial_subgroup(g)]
        elif all(e == 1 for e in g.exponents):
            got = _elementary_subgroups(g)
        else:
            got = _generic_subgroups(g)
        got = sorted(got, key=lambda s: s.sort_key())
        _LATTICE_CACHE[g] = got
    if order_filter is None:
        return list(got)
    return [s for s in got if s.order == order_filter]


def minimal_subgroups(g):
    """The subgroups of order p, in canonical order, without a lattice.

    The elements of order dividing p in G = sum Z/p^l_i are the vectors
    (p^(l_i - 1) v_i) for v in the socle F_p^r, so the subgroups of order
    p are the lines of F_p^r, each generated by its vector whose first
    nonzero coordinate is 1.
    """
    p, r = g.p, g.rank
    scale = [p ** (e - 1) for e in g.exponents]
    out = []
    for lead in range(r):
        for tail in product(range(p), repeat=r - lead - 1):
            vec = (0,) * lead + (1,) + tail
            out.append(subgroup_from_generators(
                g, [[v * s for v, s in zip(vec, scale)]]))
    return sorted(out, key=lambda s: s.sort_key())


def _elementary_subgroups(g):
    """Subspaces of F_p^r via reduced row echelon forms."""
    p = g.p
    r = g.rank
    from itertools import combinations

    out = []
    for k in range(r + 1):
        for pivots in combinations(range(r), k):
            free_pos = []
            for i, pc in enumerate(pivots):
                for j in range(pc + 1, r):
                    if j not in pivots:
                        free_pos.append((i, j))
            for vals in product(range(p), repeat=len(free_pos)):
                rows = [[0] * r for _ in range(k)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free_pos, vals):
                    rows[i][j] = v
                out.append(subgroup_from_lattice_rows(g, rows))
    return out


def _generic_subgroups(g):
    p = g.p
    elements = g.elements()
    mods = g.moduli()
    bottom = trivial_subgroup(g)
    seen = {bottom.basis: bottom}
    frontier = [bottom]
    while frontier:
        new = []
        for s in frontier:
            for x in elements:
                px = tuple((p * v) % m for v, m in zip(x, mods))
                if not s.contains_element(px) or s.contains_element(x):
                    continue
                t = subgroup_from_lattice_rows(
                    g, [list(row) for row in s.basis] + [list(x)])
                if t.basis not in seen:
                    seen[t.basis] = t
                    new.append(t)
        frontier = new
    return list(seen.values())


def kernel(f):
    """Kernel of a morphism as a subgroup of its source."""
    src, tgt = f.source, f.target
    r, s = src.rank, tgt.rank
    tmods = tgt.moduli()
    # solutions of A x = diag(p^mu) y: kernel of [A | -diag]
    mat = [[f.matrix[i][j] for j in range(r)]
           + [-tmods[i] if k == i else 0 for k in range(s)]
           for i in range(s)]
    ker = integer_kernel(mat, r + s)
    rows = [k[:r] for k in ker]
    return subgroup_from_lattice_rows(src, rows)


def image(f):
    """Image of a morphism as a subgroup of its target."""
    cols = [[f.matrix[i][j] for i in range(f.target.rank)]
            for j in range(f.source.rank)]
    return subgroup_from_generators(f.target, cols)


def quotient(g, s):
    """Quotient type and the canonical projection morphism.

    The projection comes from the Smith transform of the subgroup basis, so
    it is deterministic in the basis normal form.
    """
    if s.ambient != g:
        raise NotASubgroup("subgroup not inside the given group")
    r = g.rank
    p = g.p
    b = [list(row) for row in s.basis]
    # quotient of Z^r by the row span: Smith form of B^T
    bt = [[b[k][i] for k in range(r)] for i in range(r)]
    d, u, v = smith_normal_form(bt)
    entries = []
    for i in range(r):
        di = d[i]
        if di > 1:
            entries.append((_p_val(di, p), [u[i][j] for j in range(r)]))
    entries.sort(key=lambda t: (-t[0], t[1]))
    qtype = GroupType(p, tuple(e for e, _row in entries))
    rows = [row for _e, row in entries]
    proj = make_morphism(g, qtype, rows)
    return qtype, proj


@dataclass(frozen=True)
class NormalQuotientPoset:
    group: GroupType
    bound: int
    elements: tuple       # subgroups H with |G/H| <= bound
    relation: tuple       # relation[i][j] = (H_i <= H_j)


def normal_quotient_poset(g, n, limit=None):
    subs = [s for s in enumerate_subgroups(g, limit=limit)
            if g.order // s.order <= n]
    subs.sort(key=lambda s: s.sort_key())
    rel = tuple(tuple(sj.contains(si) for sj in subs) for si in subs)
    return NormalQuotientPoset(g, n, tuple(subs), rel)


def q_leq_n(g, n, family, limit=None):
    """Largest quotient of g visible through family members of order <= n.

    Returns (quotient type, projection).  Applying the construction twice
    gives an isomorphic result.
    """
    if not (family.multiplicative and family.subgroup_closed):
        raise FamilyNotSubmultiplicative(
            f"{family} is not multiplicative and subgroup-closed")
    inter = full_subgroup(g)
    for v in family.members(max_order=n):
        if v.order > n:
            continue
        for f in enumerate_epis(g, v, limit=limit):
            inter = inter.intersect(kernel(f))
            if inter.order == 1:
                break
        if inter.order == 1:
            break
    return quotient(g, inter)
