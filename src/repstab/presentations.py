"""Finitely presented contravariant functors on a family of p-groups.

An object is a list of representable generators e_G together with relation
columns; a relation column with source H is a formal rational combination
of surjections H -> G_i placed in the generator rows (the Yoneda
description of a map e_H -> sum e_{G_i}).  Evaluation at T is the cokernel
of the evaluated relation matrix, with basis labels (generator index,
surjection) surviving the first-independent convention of
:mod:`repstab.linalg`.

Let e be the largest exponent of a generator or relation source.  Then X
sees T only through T/p^e T = sum Z/p^min(l_j, e): a matrix T -> G is well
defined when p^max(0, mu_i - l_j) divides entry (i, j), a bound that with
mu_i <= e is unchanged when l_j becomes min(l_j, e), and surjectivity is
read mod p.  So Epi(T, G) and Epi(T/p^e T, G) are the same matrices in the
same order for every generator and relation source G; so are the relation
columns, their echelon form and every pullback lookup, and X(T) is
X(T/p^e T) with the source of each label set back to T.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from . import config
from .errors import NotInFamily, NotSurjective
from .groups import (GroupType, Morphism, make_morphism, identity_morphism,
                     enumerate_epis, first_epi, count_epis, is_surjective,
                     quotient_exists, trivial_group, cyclic,
                     aut_transitive_on_epis, automorphism_generators,
                     orbit_roots, _compose)
from .linalg import BasedSpace, QMatrix, StreamCoker, sparse_kernel
from .subgroups import minimal_subgroups, quotient
from .families import Family


@dataclass(frozen=True)
class MorphismCombination:
    """Formal rational combination of surjections source -> target."""

    source: GroupType
    target: GroupType
    terms: tuple  # ((Morphism, Fraction), ...) sorted, zero coeffs pruned

    @classmethod
    def make(cls, source, target, terms):
        agg = {}
        for mor, coeff in (terms.items() if isinstance(terms, dict) else terms):
            if mor.source != source or mor.target != target:
                raise ValueError("term endpoints do not match the combination")
            if not is_surjective(mor):
                raise NotSurjective("combination keys must be surjections")
            c = agg.get(mor, Fraction(0)) + Fraction(coeff)
            agg[mor] = c
        items = tuple(sorted(((m, c) for m, c in agg.items() if c),
                             key=lambda t: t[0].sort_key()))
        return cls(source, target, items)


class PresentedObject:
    """Finitely presented object: generators plus relation columns.

    `scale` is the largest order at which a presentation built up to a
    scale is exact; None means exact at every order.  `exponent` is the
    largest exponent (log_p) of a generator or relation source.
    """

    def __init__(self, family, generators, rel_sources=(), columns=(),
                 scale=None):
        self.family = family
        self.scale = scale
        self.generators = tuple(generators)
        self.rel_sources = tuple(rel_sources)
        self.columns = tuple(tuple(col) for col in columns)
        for g in self.generators:
            if not family.contains(g):
                raise NotInFamily(f"generator {g!r} outside {family!r}")
        for h in self.rel_sources:
            if not family.contains(h):
                raise NotInFamily(f"relation source {h!r} outside {family!r}")
        if len(self.columns) != len(self.rel_sources):
            raise ValueError("one column per relation source required")
        for h, col in zip(self.rel_sources, self.columns):
            if len(col) != len(self.generators):
                raise ValueError("column length must match generator count")
            for i, entry in enumerate(col):
                if entry is None:
                    continue
                if entry.source != h or entry.target != self.generators[i]:
                    raise ValueError("misaligned combination endpoints")
        self.exponent = max((g.exponent_log for g in
                             self.generators + self.rel_sources), default=0)
        self._evals = {}

    def content_key(self):
        cols = tuple(
            tuple((i, entry.terms) for i, entry in enumerate(col)
                  if entry is not None and entry.terms)
            for col in self.columns)
        return (self.family.key(), self.generators, self.rel_sources, cols,
                self.scale)

    def __eq__(self, other):
        return (isinstance(other, PresentedObject)
                and self.content_key() == other.content_key())

    def __hash__(self):
        return hash(self.content_key())

    def __repr__(self):
        return (f"PresentedObject({self.family!r}, gens={len(self.generators)},"
                f" rels={len(self.rel_sources)})")


class EvalData:
    """X(t) with its labels (i, u), the index (i, u.matrix) -> position of
    each label, and the relation span's cokernel."""

    __slots__ = ("labels", "index", "coker", "space")

    def __init__(self, labels, index, coker, space):
        self.labels = labels
        self.index = index
        self.coker = coker
        self.space = space


def _check_in_range(x, t):
    if not x.family.contains(t):
        raise NotInFamily(f"{t!r} is not in {x.family!r}")
    if x.scale is not None:
        config.check_order(t.order, x.scale,
                           what="evaluation above the presentation scale")


def _pulled_back(x, index, labels, alpha):
    """Positions under `index` of the labels (i, u o alpha), for the
    labels (i, u) of x at the target of alpha."""
    cols = alpha.columns
    mods = [g.moduli() for g in x.generators]
    return [index[(i, _compose(u.matrix, cols, mods[i]))]
            for i, u in labels]


def _eval_data(x, t, limit=None):
    _check_in_range(x, t)
    config.check_order(t.order, limit, what="evaluation")
    got = x._evals.get(t)
    if got is None:
        # Epi(t, G) = Epi(t/p^e t, G) as matrices for G of exponent <= p^e
        # (module docstring): share the span and re-source the labels at t
        e = x.exponent
        low = GroupType(t.p, tuple(min(l, e) for l in t.exponents)) if e else t
        got = x._evals.get(low)
        if got is None:
            # the elimination over n labels costs up to n^2 offers; count
            # the labels in closed form before enumerating any of them
            config.check_candidates(
                sum(count_epis(low, g) for g in x.generators) ** 2,
                what="evaluation")
            got = x._evals[low] = _evaluate(x, low)
        if low != t:
            labels = [(i, Morphism(t, u.target, u.matrix))
                      for i, u in got.labels]
            surv = got.coker.surviving()
            got = EvalData(labels, got.index, got.coker, BasedSpace(
                len(surv), tuple(labels[r] for r in surv)))
        x._evals[t] = got
    return got


def _evaluate(x, t):
    labels = [(i, u) for i, g in enumerate(x.generators)
              for u in enumerate_epis(t, g)]
    index = {(i, u.matrix): k for k, (i, u) in enumerate(labels)}
    coker = StreamCoker(len(labels))
    mods = [g.moduli() for g in x.generators]
    # The relation span is an Aut(t)-submodule: the column of beta o sigma
    # is that of beta with each label (i, u) moved to (i, u o sigma).  When
    # Aut(t) is transitive on every Epi(t, h), one surjection per source,
    # closed under automorphism generators, spans it; the echelon form
    # depends only on the span.
    transitive = aut_transitive_on_epis(t)
    raised = []
    for h, col_entries in zip(x.rel_sources, x.columns):
        terms = [(i, mor.matrix, mods[i],
                  coeff.numerator if coeff.denominator == 1 else coeff)
                 for i, entry in enumerate(col_entries) if entry is not None
                 for mor, coeff in entry.terms]
        betas = ((first_epi(t, h),) if transitive and quotient_exists(t, h)
                 else enumerate_epis(t, h))
        for beta in betas:
            cols = beta.columns
            col = {}
            for i, rows, m, coeff in terms:
                k = index[(i, _compose(rows, cols, m))]
                col[k] = col.get(k, 0) + coeff
            col = {k: v for k, v in col.items() if v}
            if col and coker.offer(col):
                raised.append(col)
    if transitive and raised:
        perms = [_pulled_back(x, index, labels, sigma)
                 for sigma in automorphism_generators(t)]
        coker.close_under(raised, [
            lambda col, perm=perm: {perm[k]: v for k, v in col.items()}
            for perm in perms])
    surv = coker.surviving()
    return EvalData(labels, index, coker,
                    BasedSpace(len(surv), tuple(labels[r] for r in surv)))


def evaluate(x, t, limit=None):
    """The value X(t) as a based space."""
    return _eval_data(x, t, limit).space


def evaluate_dim(x, t, limit=None):
    """dim X(t); avoids materializing surjection sets for free objects."""
    if not x.rel_sources:
        _check_in_range(x, t)
        return sum(count_epis(t, g) for g in x.generators)
    return _eval_data(x, t, limit).space.dim


def structure_map(x, alpha, limit=None):
    """Matrix of the pullback X(target(alpha)) -> X(source(alpha))."""
    if not is_surjective(alpha):
        raise NotSurjective("structure maps exist along surjections only")
    src = _eval_data(x, alpha.target, limit)   # X evaluated at the target
    dst = _eval_data(x, alpha.source, limit)
    return QMatrix(dst.space.dim, src.space.dim, tuple(
        dst.coker.project({k: 1})
        for k in _pulled_back(x, dst.index, src.space.labels, alpha)))


def indecomposables_Q(x, g, limit=None):
    """Value of the indecomposables quotient at g.

    Quotient of X(g) by the images of the pullbacks along all projections
    from proper quotients.
    """
    data = _eval_data(x, g, limit)
    coker = StreamCoker(data.space.dim)
    for col in _proper_pullback_span(functor_of_presentation(x, limit), g):
        coker.offer(col)
    surv = coker.surviving()
    return BasedSpace(len(surv),
                      tuple(data.space.labels[r] for r in surv))


def filtration_L(x, n, g, limit=None):
    """The subspace of X(g) generated from values at groups of order <= n."""
    data = _eval_data(x, g, limit)
    coker = StreamCoker(data.space.dim)
    picked = []
    for h in x.family.members(max_order=n):
        if not quotient_exists(g, h):
            continue
        for alpha in enumerate_epis(g, h):
            for j, col in enumerate(structure_map(x, alpha, limit).columns):
                if coker.offer(col):
                    picked.append((h, alpha, j))
    return BasedSpace(len(picked), tuple(picked))


def base_and_support(x, bound, limit=None):
    """(base, support) scanned over family members of order <= bound.

    base is the least order with a nonzero value, or None when the object
    vanishes on the whole scanned range.
    """
    support = []
    base = None
    for g in x.family.members(max_order=bound):
        if evaluate_dim(x, g, limit):
            support.append(g)
            if base is None or g.order < base:
                base = g.order
    return base, support


# ---------------------------------------------------------------------------
# explicit functors and bounded presentations


class ExplicitFunctor:
    """A functor given by computable values and pullbacks.

    `space_fn(T) -> BasedSpace`, and `push_fn(alpha, vec)` applies the
    pullback X(target) -> X(source) of alpha to one vector.  Vectors are
    sparse dicts (basis position -> value) on the way in and out.
    """

    def __init__(self, family, space_fn, push_fn):
        self.family = family
        self._space_fn = space_fn
        self.push = push_fn
        self._spaces = {}

    def space(self, t):
        got = self._spaces.get(t)
        if got is None:
            got = self._spaces[t] = self._space_fn(t)
        return got


def functor_of_presentation(x, limit=None):
    def push_fn(alpha, vec):
        src = _eval_data(x, alpha.target, limit)
        dst = _eval_data(x, alpha.source, limit)
        # u -> u o alpha is injective, so no two labels land together
        pulled = _pulled_back(x, dst.index,
                              [src.space.labels[pos] for pos in vec], alpha)
        return dst.coker.project(dict(zip(pulled, vec.values())))

    return ExplicitFunctor(x.family, lambda t: evaluate(x, t, limit),
                           push_fn)


def _proper_pullback_span(fun, g):
    """Images of the pullbacks into fun(g) from its proper quotients.

    Every nontrivial subgroup S contains a subgroup C of order p, and
    g -> g/S factors through g/C, so the quotients g/C span everything.
    """
    cols = []
    for c in minimal_subgroups(g):
        qt, proj = quotient(g, c)
        cols.extend(fun.push(proj, {j: 1}) for j in range(fun.space(qt).dim))
    return cols


def _cover(fun, bound, minimal):
    """Choose generators (type, vector) covering `fun` at orders <= bound.

    Each vector is a basis vector {i: 1} of fun(type).  Minimal covers
    pick module generators over the automorphism action: one
    representable copy reaches the whole automorphism span of its vector,
    so each picked vector is closed off under the action before the next
    pick.
    """
    gens = []
    for g in fun.family.members(max_order=bound):
        dim = fun.space(g).dim
        if not minimal:
            gens.extend((g, {i: 1}) for i in range(dim))
        elif dim:
            coker = StreamCoker(dim)
            for col in _proper_pullback_span(fun, g):
                coker.offer(col)
            actions = [partial(fun.push, psi)
                       for psi in automorphism_generators(g)]
            for i in range(dim):
                if coker.offer({i: 1}):
                    gens.append((g, {i: 1}))
                    coker.close_under([{i: 1}], actions)
    return gens


def _counit_kernel(fun, gens, t):
    """Kernel of sum e_{G_k} -> fun at t, with the free basis labeled
    (k, alpha) for alpha in Epi(t, G_k), as `sparse_kernel` returns it.
    The counit's entry count is known in closed form before anything is
    built, and refused above the bound."""
    config.check_candidates(
        fun.space(t).dim * sum(count_epis(t, g) for g, _v in gens),
        config.MAX_COUNIT_ENTRIES, what="counit matrix")
    labels = [(k, alpha) for k, (g, _v) in enumerate(gens)
              for alpha in enumerate_epis(t, g)]
    counit = QMatrix(fun.space(t).dim, len(labels), tuple(
        fun.push(alpha, gens[k][1]) for k, alpha in labels))
    kern, free = sparse_kernel(counit)
    return labels, kern, free


def kernel_functor(fun, gens):
    """Kernel of the counit of a free cover, as an ExplicitFunctor.

    The kernel value at T is based by tracked sparse vectors in the free
    module coordinates (k, alpha), in free-variable normal form: basis
    vector j is the unique kernel vector whose free coordinates are a
    delta at the j-th free column.  A pullback of a kernel vector is a
    kernel vector, so expressing it is just reading off its free
    coordinates.
    """
    basis_cache = {}
    mods = [g.moduli() for g, _v in gens]

    def kernel_basis(t):
        """(labels, kernel vectors, {(k, alpha.matrix): j} over the free
        columns) at t."""
        got = basis_cache.get(t)
        if got is None:
            labels, kern, free = _counit_kernel(fun, gens, t)
            index = {(labels[f][0], labels[f][1].matrix): j
                     for j, f in enumerate(free)}
            got = basis_cache[t] = (labels, kern, index)
        return got

    def space_fn(t):
        n = len(kernel_basis(t)[1])
        return BasedSpace(n, tuple(range(n)))

    def push_fn(alpha, vec):
        tlabels, tkern, _tindex = kernel_basis(alpha.target)
        sindex = kernel_basis(alpha.source)[2]
        cols = alpha.columns
        out = {}
        for b, c in vec.items():
            for pos, val in tkern[b].items():
                k, u = tlabels[pos]
                j = sindex.get((k, _compose(u.matrix, cols, mods[k])))
                if j is not None:
                    out[j] = out.get(j, 0) + c * val
        return {j: v for j, v in out.items() if v}

    return ExplicitFunctor(fun.family, space_fn, push_fn), kernel_basis


def relation_columns(kbasis, rel_gens, gen_types):
    """Relation columns over the generators `gen_types` of the kernel
    vectors chosen by a cover of `kernel_functor`."""
    cols = []
    for h, kvec in rel_gens:
        labels, kern, _index = kbasis(h)
        # kvec is in kernel coordinates: expand to the free module
        free_vec = {}
        for pos, val in kvec.items():
            for fpos, fval in kern[pos].items():
                free_vec[fpos] = free_vec.get(fpos, 0) + val * fval
        per_gen = {}
        for fpos, val in free_vec.items():
            if val:
                k, alpha = labels[fpos]
                per_gen.setdefault(k, []).append((alpha, val))
        cols.append(tuple(
            MorphismCombination.make(h, g, per_gen[k]) if k in per_gen
            else None for k, g in enumerate(gen_types)))
    return cols


def present_explicit(fun, scale, minimal=True):
    """A PresentedObject matching `fun` on all members of order <= scale."""
    gens = _cover(fun, scale, minimal)
    kfun, kbasis = kernel_functor(fun, gens)
    rel_gens = _cover(kfun, scale, minimal)
    gen_types = tuple(g for g, _v in gens)
    return PresentedObject(fun.family, gen_types,
                           tuple(h for h, _v in rel_gens),
                           relation_columns(kbasis, rel_gens, gen_types),
                           scale)


# ---------------------------------------------------------------------------
# built-in objects


@dataclass(frozen=True)
class ChiInterval:
    """Convex membership predicate given as an interval in the quotient
    order: lo <= T <= hi (either bound may be omitted)."""

    lo: GroupType = None
    hi: GroupType = None

    def contains(self, t):
        if self.lo is not None and not quotient_exists(t, self.lo):
            return False
        if self.hi is not None and not quotient_exists(self.hi, t):
            return False
        return True


@dataclass(frozen=True)
class BuiltinObject:
    kind: str           # e, c, t_triv, s_triv, chi, unit
    family: Family
    group: GroupType = None
    interval: ChiInterval = None

    def __post_init__(self):
        if self.kind not in ("e", "c", "t_triv", "s_triv", "chi", "unit"):
            raise ValueError(f"unknown builtin kind {self.kind!r}")
        if self.kind in ("e", "c", "t_triv", "s_triv"):
            if self.group is None or not self.family.contains(self.group):
                raise NotInFamily("builtin parameter group must be a member")
        if self.kind == "chi" and self.interval is None:
            raise ValueError("chi needs an interval predicate")


def free_object(family, *gens):
    return PresentedObject(family, tuple(gens))


def unit_object(family):
    return free_object(family, trivial_group(family.p))


def builtin_to_presentation(b, scale, limit=None):
    """Presentation agreeing with the builtin on all orders <= scale."""
    config.check_order(scale, limit, what="builtin presentation")
    fam = b.family
    if b.kind == "unit":
        return unit_object(fam)
    if b.kind == "e":
        return free_object(fam, b.group)
    if b.kind == "c":
        return _coinvariant_presentation(fam, b.group)
    if b.kind == "s_triv":
        return _simple_presentation(fam, b.group, scale)
    if b.kind == "t_triv":
        fun = _coinduced_functor(fam, b.group)
        return present_explicit(fun, scale, minimal=True)
    if b.kind == "chi":
        fun = _chi_functor(fam, b.interval)
        return present_explicit(fun, scale, minimal=True)
    raise ValueError(b.kind)


def _automorphism_relations(g):
    """Relation columns psi - id of e_g, one per generator psi of Aut(g).

    They generate the relations of every automorphism, since
    (psi1 psi2 - id) beta = (psi1 - id)(psi2 beta) + (psi2 - id) beta.
    """
    ident = identity_morphism(g)
    return [(MorphismCombination.make(g, g, [(psi, 1), (ident, -1)]),)
            for psi in automorphism_generators(g)]


def _coinvariant_presentation(family, g):
    """e_g modulo the automorphism action (trivial coefficients)."""
    columns = _automorphism_relations(g)
    return PresentedObject(family, (g,), (g,) * len(columns), columns)


def _simple_presentation(family, g, scale):
    """The simple object supported at g, presented up to `scale`.

    One relation source per Aut(t)-orbit of Epi(t, g) suffices: alpha o
    sigma and alpha have the same image in e_g.
    """
    columns = _automorphism_relations(g)
    rel_sources = [g] * len(columns)
    for t in family.members(max_order=scale):
        if t.order > g.order:
            for alpha in _orbit_structure(t, g)[0]:
                rel_sources.append(t)
                columns.append(
                    (MorphismCombination.make(t, g, [(alpha, 1)]),))
    return PresentedObject(family, (g,), tuple(rel_sources), tuple(columns),
                           scale)


def _coinduced_functor(family, g):
    def space_fn(t):
        reps = _orbit_structure(g, t)[0]
        return BasedSpace(len(reps), reps)

    def push_fn(alpha, vec):
        # the pullback precomposes orbit indicator functions with
        # (alpha o -): orbit rep gamma: g -> source takes the value at
        # the orbit of alpha o gamma
        tlookup = _orbit_structure(g, alpha.target)[1]
        out = {}
        for r, gamma in enumerate(_orbit_structure(g, alpha.source)[0]):
            v = vec.get(tlookup[(alpha @ gamma).matrix])
            if v:
                out[r] = v
        return out

    return ExplicitFunctor(family, space_fn, push_fn)


@lru_cache(maxsize=None)
def _orbit_structure(g, t):
    """(reps, lookup) for Aut(g) precomposition orbits on Epi(g, t).

    Orbits are numbered, and represented, by their first member in
    enumeration order, so neither depends on the generating set.
    """
    if not quotient_exists(g, t):
        return (), {}
    epis = enumerate_epis(g, t)
    index = {f.matrix: i for i, f in enumerate(epis)}
    gens = automorphism_generators(g)
    found = orbit_roots(len(epis), ((i, index[(f @ psi).matrix])
                                    for i, f in enumerate(epis)
                                    for psi in gens))
    roots = {}
    reps = []
    for f, r in zip(epis, found):
        if r not in roots:
            roots[r] = len(reps)
            reps.append(f)
    lookup = {f.matrix: roots[r] for f, r in zip(epis, found)}
    return tuple(reps), lookup


def _chi_functor(family, interval):
    def space_fn(t):
        inside = interval.contains(t)
        return BasedSpace(1 if inside else 0, ("chi",) if inside else ())

    def push_fn(alpha, vec):
        both = (interval.contains(alpha.target)
                and interval.contains(alpha.source))
        return dict(vec) if both else {}

    return ExplicitFunctor(family, space_fn, push_fn)


# ---------------------------------------------------------------------------
# presentation surgery


def restrict_presentation(x, subfamily):
    """Restriction to a downward-closed subfamily: drop outside data.

    Entries from kept relation sources into dropped generators vanish
    automatically (no surjections leave the subfamily downward).
    """
    if not subfamily.downward_closed:
        raise NotInFamily("restriction requires a downward-closed subfamily")
    if subfamily.p != x.family.p:
        raise NotInFamily(f"{x!r} is not over the prime of {subfamily!r}")
    keep_gen = [i for i, g in enumerate(x.generators)
                if subfamily.contains(g)]
    gens = tuple(x.generators[i] for i in keep_gen)
    rel_sources, columns = [], []
    for h, col in zip(x.rel_sources, x.columns):
        if not subfamily.contains(h):
            continue
        newcol = tuple(col[i] for i in keep_gen)
        rel_sources.append(h)
        columns.append(newcol)
    return PresentedObject(subfamily, gens, tuple(rel_sources),
                           tuple(columns), x.scale)


def quotient_by_elements(x, t, vectors):
    """Quotient presentation by classes of vectors in X(t).

    Each vector (coordinates on the X(t) basis) is lifted to the free
    cover and becomes a fresh relation column with source t.
    """
    data = _eval_data(x, t)
    rel_sources = list(x.rel_sources)
    columns = [tuple(col) for col in x.columns]
    for vec in vectors:
        per_gen = {}
        for pos, val in enumerate(vec):
            if val:
                # the surviving basis classes are ambient basis elements
                amb = data.space.labels[pos]
                per_gen.setdefault(amb[0], []).append((amb[1], Fraction(val)))
        col = []
        for k in range(len(x.generators)):
            terms = per_gen.get(k)
            col.append(None if not terms else
                       MorphismCombination.make(t, x.generators[k], terms))
        rel_sources.append(t)
        columns.append(tuple(col))
    return PresentedObject(x.family, x.generators, tuple(rel_sources),
                           tuple(columns), x.scale)


def direct_sum(x, y):
    if x.family != y.family:
        raise NotInFamily("direct sum requires a common family")
    gens = x.generators + y.generators
    rel_sources = x.rel_sources + y.rel_sources
    columns = []
    pad_y = (None,) * len(y.generators)
    pad_x = (None,) * len(x.generators)
    for col in x.columns:
        columns.append(tuple(col) + pad_y)
    for col in y.columns:
        columns.append(pad_x + tuple(col))
    scales = [s for s in (x.scale, y.scale) if s is not None]
    return PresentedObject(x.family, gens, rel_sources, tuple(columns),
                           min(scales, default=None))


# ---------------------------------------------------------------------------
# shipped example objects


def torsion_example_a(p, family=None):
    """Cokernel of the difference of the two projections C_p^2 -> C_p."""
    from .families import all_abelian
    fam = family or all_abelian(p)
    c = cyclic(p, 1)
    c2 = GroupType(p, (1, 1))
    lam = make_morphism(c2, c, [[1, 0]])
    rho = make_morphism(c2, c, [[0, 1]])
    comb = MorphismCombination.make(c2, c, [(lam, 1), (rho, -1)])
    return PresentedObject(fam, (c,), (c2,), ((comb,),))


def torsion_example_b(family=None):
    """Cokernel of the sum of the three surjections C_2^2 -> C_2."""
    from .families import all_abelian
    fam = family or all_abelian(2)
    c = cyclic(2, 1)
    c2 = GroupType(2, (1, 1))
    lam = make_morphism(c2, c, [[1, 0]])
    rho = make_morphism(c2, c, [[0, 1]])
    sig = make_morphism(c2, c, [[1, 1]])
    comb = MorphismCombination.make(c2, c, [(lam, 1), (rho, 1), (sig, 1)])
    return PresentedObject(fam, (c,), (c2,), ((comb,),))
