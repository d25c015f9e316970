"""Tensor and internal-hom decompositions of representable generators.

The tensor of two generators splits over the wide subgroups of the product
(subgroups surjecting onto both factors); each wide subgroup is classified
by a unique triple (N1, iso, N2) of a kernel on each side and an
isomorphism of the common quotient, which is how enumeration proceeds.
The internal hom splits over virtual homomorphisms (A, A') and the three
auxiliary sets L/M/N with their size filtration sigma tie the two pictures
together; this module exposes those sets and the checks on them.
Elements of a product are addressed only through `Product.split` and
`Product.embed`, and elements of a subgroup only through its `generators`
and `abstract_coordinates`.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import config
from .errors import FamilyNotGlobalMultiplicative, NotSurjective, \
    ShapeMismatch, InvariantViolation, NotInFamily
from .groups import (GroupType, Morphism, make_morphism, enumerate_epis,
                     count_epis, automorphisms, quotient_exists, section,
                     _rank_mod_p)
from .subgroups import (Subgroup, subgroup_from_lattice_rows,
                        subgroup_from_generators, enumerate_subgroups,
                        kernel, quotient, full_subgroup)


@dataclass(frozen=True)
class Product:
    """A product of group types with coordinate bookkeeping.

    The underlying GroupType has sorted exponents; `positions[k]` is the
    sorted position of natural coordinate k (left coordinates first).
    Elements are addressed through `embed` and `split` only.
    """

    factors: tuple
    group: GroupType
    positions: tuple

    @classmethod
    def of(cls, *factors):
        """ShapeMismatch when two nontrivial factors have different
        primes: their product is not a p-group."""
        primes = {f.p for f in factors if not f.is_trivial()}
        if len(primes) > 1:
            raise ShapeMismatch(f"factors of mixed primes {sorted(primes)}")
        p = primes.pop() if primes else (factors[0].p if factors else 2)
        exps = []
        for f in factors:
            exps.extend(f.exponents)
        order = sorted(range(len(exps)), key=lambda k: (-exps[k], k))
        positions = [0] * len(exps)
        for spos, k in enumerate(order):
            positions[k] = spos
        gt = GroupType(p, tuple(exps[k] for k in order))
        return cls(tuple(factors), gt, tuple(positions))

    def projection(self, idx):
        """Canonical projection morphism group -> factors[idx]."""
        return make_morphism(self.group, self.factors[idx],
                             self.inclusion_rows(idx))

    def inclusion_rows(self, idx):
        """Lattice rows generating 1 x ... x factors[idx] x ... x 1."""
        off = sum(f.rank for f in self.factors[:idx])
        return [[1 if c == self.positions[off + i] else 0
                 for c in range(self.group.rank)]
                for i in range(self.factors[idx].rank)]

    def factor_subgroup(self, idx):
        return subgroup_from_lattice_rows(self.group, self.inclusion_rows(idx))

    def embed(self, *coords):
        """Element of the product from per-factor coordinate tuples."""
        flat = []
        for c in coords:
            flat.extend(c)
        out = [0] * self.group.rank
        for k, v in enumerate(flat):
            out[self.positions[k]] = v
        mods = self.group.moduli()
        return tuple(v % m for v, m in zip(out, mods))

    def split(self, vec):
        """Per-factor coordinate tuples of an element; inverse of embed."""
        out, off = [], 0
        for f in self.factors:
            out.append(tuple(vec[self.positions[off + i]]
                             for i in range(f.rank)))
            off += f.rank
        return tuple(out)


@dataclass(frozen=True)
class WideSubgroup:
    """Wide subgroup of left x right with its classifying triple."""

    left: GroupType
    right: GroupType
    product: Product
    embedded: Subgroup
    kernel_left: Subgroup     # N1 <= left
    kernel_right: Subgroup    # N2 <= right
    spread_iso: Morphism      # automorphism of the common quotient type
    spread: GroupType         # left/N1 ~ right/N2

    @property
    def isomorphism_type(self):
        return self.embedded.isomorphism_type

    def sort_key(self):
        return self.embedded.sort_key()


@lru_cache(maxsize=None)
def _wide_list(g, h):
    """All wide subgroups of g x h (no family filter), canonical order."""
    prod = Product.of(g, h)
    projl, projr = prod.projection(0), prod.projection(1)
    out = []
    for n1 in enumerate_subgroups(g):
        q1, pi1 = quotient(g, n1)
        for n2 in enumerate_subgroups(h):
            q2, pi2 = quotient(h, n2)
            if q2 != q1:
                continue
            for psi in automorphisms(q1):
                # embedded = kernel of (psi o pi1 o projl) - (pi2 o projr)
                lhs = (psi @ pi1) @ projl
                rhs = pi2 @ projr
                rows = [[lhs.matrix[i][j] - rhs.matrix[i][j]
                         for j in range(prod.group.rank)]
                        for i in range(q1.rank)]
                diff = make_morphism(prod.group, q1, rows) \
                    if q1.rank else None
                if diff is None:
                    emb = full_subgroup(prod.group)
                else:
                    emb = kernel(diff)
                out.append(WideSubgroup(g, h, prod, emb, n1, n2, psi, q1))
    out.sort(key=lambda w: w.sort_key())
    return tuple(out)


def enumerate_wide(g, h, family, limit=None):
    """Wide subgroups of g x h whose type belongs to the family."""
    config.check_order(g.order * h.order, limit, what="wide enumeration")
    return [w for w in _wide_list(g, h)
            if family.contains(w.isomorphism_type)]


def count_wide(g, h, family, limit=None):
    """|Wide(g,h)| within the family, without materializing embeddings.

    Counts triples (N1, N2, iso); when the family contains every abelian
    p-group the type filter is skipped, otherwise the wide subgroups are
    materialized and filtered.
    """
    if family.kind == "Zpinf":
        quots_g = _quotient_census(g, limit)
        quots_h = _quotient_census(h, limit)
        return sum(cg * quots_h[q] * count_epis(q, q)
                   for q, cg in quots_g.items() if q in quots_h)
    return len(enumerate_wide(g, h, family, limit))


def _quotient_census(g, limit):
    """Quotient type -> number of subgroups of g with that quotient."""
    census = {}
    for n in enumerate_subgroups(g, limit=limit):
        q, _ = quotient(g, n)
        census[q] = census.get(q, 0) + 1
    return census


def tensor_decompose(g, h, family, limit=None):
    """Summand types of e_g (x) e_h, one per wide subgroup in the family."""
    return [w.isomorphism_type for w in enumerate_wide(g, h, family, limit)]


@dataclass(frozen=True)
class VirtualHom:
    """A wide subgroup A of left x right with A' normal, A' meeting the
    right factor trivially, and A/A' in the family."""

    left: GroupType
    right: GroupType
    wide: WideSubgroup
    sub: Subgroup            # A' as a subgroup of the ambient product
    spread: GroupType        # type of A/A'

    def sort_key(self):
        return (self.wide.sort_key(), self.sub.sort_key())


@lru_cache(maxsize=None)
def _vhom_census(g, h, family):
    """(wide A, T, spread) for every virtual hom, found in the coordinates
    of each wide A: T <= the abstract type of A is A' in A's coordinates.

    Each subgroup T of A's type is a candidate A'.  A' meets 1 x h
    trivially exactly when its projection to g is injective, and a map of
    finite p-groups is injective exactly when it is on the socle, since a
    nonzero kernel has an element of order p.  The socle of T has the
    F_p-basis (o/p) gen over its generators gen of order o, whose g
    parts, combined from the g parts of A's generators, are multiples of
    m/p in each Z/m: one rank mod p of the quotients decides.  Nothing is
    embedded: the hom dimensions read only the spreads.
    """
    prod = Product.of(g, h)
    p = prod.group.p
    gmods = g.moduli()
    out = []
    for w in _wide_list(g, h):
        a = w.embedded
        gparts = [prod.split(gen)[0] for gen in a.generators]
        for t in enumerate_subgroups(a.isomorphism_type):
            spread = _quotient_type_cached(t.ambient, t.basis)
            if not family.contains(spread):
                continue
            socle = [_combine(g.rank, gparts, [v * (o // p) for v in gen])
                     for gen, o in zip(*t._generator_data())]
            if _rank_mod_p([[x // (m // p) for x, m in zip(y, gmods)]
                            for y in socle], p) == len(socle):
                out.append((w, t, spread))
    return tuple(out)


@lru_cache(maxsize=None)
def _vhom_list(g, h, family):
    """The virtual homs of the census, each A' embedded, in canonical
    order."""
    out = [VirtualHom(g, h, w, _embed(w.embedded, t), spread)
           for w, t, spread in _vhom_census(g, h, family)]
    out.sort(key=lambda v: v.sort_key())
    return tuple(out)


def enumerate_vhom(g, h, family, limit=None):
    """All virtual homomorphisms from g to h with spreads in the family.

    The ambient wide subgroup A itself is not filtered by membership, only
    the spread A/A' is; this follows the defining conditions literally.
    """
    config.check_order(g.order * h.order, limit, what="virtual hom enumeration")
    return list(_vhom_list(g, h, family))


def _combine(n, gens, coeffs):
    """sum_k coeffs[k] gens[k]: abstract coordinates mapped in through the
    generators of a subgroup of an ambient group of rank n."""
    return tuple(sum(c * gen[i] for c, gen in zip(coeffs, gens))
                 for i in range(n))


def _embed(s, t):
    """t <= the abstract type of s, mapped into the ambient of s through
    the generators of s: the inverse of `_inner`."""
    return subgroup_from_lattice_rows(s.ambient, [
        _combine(s.ambient.rank, s.generators, row) for row in t.basis])


def _inner(a, aprime):
    """aprime <= a as a subgroup of the abstract type of a."""
    return subgroup_from_generators(
        a.isomorphism_type,
        [a.abstract_coordinates(gen) for gen in aprime.generators])


@lru_cache(maxsize=None)
def _quotient_type_cached(gtype, basis):
    qt, _ = quotient(gtype, Subgroup(gtype, basis))
    return qt


def hom_decompose(g, h, family, limit=None):
    """Summand types of the internal hom of e_g into e_h."""
    if not (family.multiplicative and family.downward_closed
            and family.subgroup_closed):
        raise FamilyNotGlobalMultiplicative(
            f"{family!r} is not a multiplicative global family")
    return [v.spread for v in enumerate_vhom(g, h, family, limit)]


def hom_dimension(g, h, t, family, limit=None):
    """dim of the internal hom at t, summed over the spread summands."""
    config.check_order(g.order * h.order, limit, what="virtual hom enumeration")
    return sum(count_epis(t, spread)
               for _w, _t, spread in _vhom_census(g, h, family))


def hom_eval_oracle(g, h, t, family, limit=None):
    """Independent hom dimension: tensor-decompose e_t (x) e_g, then apply
    the Yoneda description of maps into e_h."""
    return sum(count_epis(w, h) for w in tensor_decompose(t, g, family, limit))


# ---------------------------------------------------------------------------
# tensor of a generator with a presented object


def tensor_with_generator(g, x, limit=None):
    """Presentation of e_g (x) X for a presented object X."""
    return tensor_with_generator_data(g, x, limit)[0]


_TENSOR_MEMO = {}


def tensor_with_generator_data(g, x, limit=None):
    """Like tensor_with_generator, also returning the generator slots
    (original generator index, wide subgroup) in order.

    Results are memoized so evaluation caches accumulate on one object.
    """
    memo_key = (g, x)
    got = _TENSOR_MEMO.get(memo_key)
    if got is not None:
        return got
    from .presentations import PresentedObject, MorphismCombination
    fam = x.family
    gen_data = []   # (orig index, WideSubgroup)
    for i, gi in enumerate(x.generators):
        for w in enumerate_wide(g, gi, fam, limit):
            gen_data.append((i, w))
    gen_types = tuple(w.isomorphism_type for _i, w in gen_data)
    rel_sources = []
    columns = []
    for j, hj in enumerate(x.rel_sources):
        col_entries = x.columns[j]
        for wprime in enumerate_wide(g, hj, fam, limit):
            source_type = wprime.isomorphism_type
            per_slot = {}
            for i, entry in enumerate(col_entries):
                if entry is None:
                    continue
                for mor, coeff in entry.terms:
                    slot, tau = _pushed_component(wprime, mor, gen_data, i)
                    per_slot.setdefault(slot, []).append((tau, coeff))
            col = []
            for slot in range(len(gen_data)):
                terms = per_slot.get(slot)
                col.append(None if not terms else MorphismCombination.make(
                    source_type, gen_types[slot], terms))
            rel_sources.append(source_type)
            columns.append(tuple(col))
    # a missing relation source of x has order above x.scale, and so have
    # its wide subgroups: the tensor is exact up to the same scale
    obj = PresentedObject(fam, gen_types, tuple(rel_sources),
                          tuple(columns), x.scale)
    _TENSOR_MEMO[memo_key] = (obj, gen_data)
    return obj, gen_data


def _pushed_component(wprime, mor, gen_data, target_index):
    """Where (1 x mor) sends the wide summand wprime, and the induced map.

    mor: H -> G_i; wprime is wide in g x H.  The image of wprime under
    (id, mor) is a wide subgroup of g x G_i appearing in gen_data; returns
    its slot and the abstract surjection type(wprime) -> type(image).
    """
    prod_dst = Product.of(wprime.left, mor.target)
    img_gens = []
    for vec in wprime.embedded.generators:
        x, y = wprime.product.split(vec)
        img_gens.append(prod_dst.embed(x, mor(y)))
    slot = _generator_slot(
        gen_data, target_index,
        subgroup_from_generators(prod_dst.group, img_gens))
    wdst = gen_data[slot][1].embedded
    cols = [wdst.abstract_coordinates(vec) for vec in img_gens]
    rows = [[c[i] for c in cols] for i in range(wdst.isomorphism_type.rank)]
    return slot, make_morphism(wprime.isomorphism_type,
                               wdst.isomorphism_type, rows)


def _generator_slot(gen_data, index, img):
    """The slot of gen_data holding generator index's wide subgroup img."""
    for slot, (i, w) in enumerate(gen_data):
        if i == index and w.embedded == img:
            return slot
    raise ShapeMismatch("pushed wide subgroup missing from generators")


def tensor_presentation(g, h, family, limit=None):
    """Presentation of e_g (x) e_h (free on the wide summand types)."""
    from .presentations import PresentedObject
    return PresentedObject(family, tuple(tensor_decompose(g, h, family,
                                                          limit)))


# ---------------------------------------------------------------------------
# the L / M / N sets with the sigma filtration


@dataclass(frozen=True)
class LMNReport:
    t: GroupType
    g: GroupType
    h: GroupType
    mode: str                 # "explicit" or "counts"
    size: int
    sigma_counts: tuple       # sorted (sigma, count) pairs
    ok: bool
    failures: tuple


def _sigma_level_counts_m(t, g, h, family):
    levels = {}
    for _w, _t, spread in _vhom_census(g, h, family):
        n = count_epis(t, spread)
        if n:
            levels[spread.order] = levels.get(spread.order, 0) + n
    return levels


def _sigma_level_counts_n(t, g, h):
    """sigma census of pairs (W, lam) without enumerating the lam's.

    For fixed wide W <= t x g, sigma(W, lam) = |t| / |K| where K is the
    kernel of lam restricted to K_W = {s : (s, 1) in W}.  Exact-kernel
    counts come from inclusion-exclusion over the subgroup lattice of K_W,
    with #{lam killing S} = #Epi(W/S, h).
    """
    prod = Product.of(t, g)
    levels = {}
    tfac = prod.factor_subgroup(0)
    for w in _wide_list(t, g):
        a = w.embedded
        kw = a.intersect(tfac)
        # containment-closed Moebius over the little lattice
        emb_list = [_embed(kw, k)
                    for k in enumerate_subgroups(kw.isomorphism_type)]
        kill_counts = []
        for s_emb in emb_list:
            inner = _inner(a, s_emb)
            qt = _quotient_type_cached(inner.ambient, inner.basis)
            kill_counts.append(count_epis(qt, h))
        exact = _moebius_exact(emb_list, kill_counts)
        for s_emb, cnt in zip(emb_list, exact):
            if cnt:
                sigma = t.order // s_emb.order
                levels[sigma] = levels.get(sigma, 0) + cnt
    return levels


def _moebius_exact(subs, kill_counts):
    """From 'kills at least S' counts to 'kernel exactly S' counts."""
    n = len(subs)
    order = sorted(range(n), key=lambda i: -subs[i].order)
    exact = [0] * n
    for pos in order:
        total = kill_counts[pos]
        for other in range(n):
            if other != pos and subs[other].contains(subs[pos]) \
                    and subs[other].order > subs[pos].order:
                total -= exact[other]
        exact[pos] = total
    return exact


def _enumerate_n_explicit(t, g, h):
    """Explicit (W, lam) pairs with sigma, and their mu-image data."""
    prod = Product.of(t, g)
    tfac = prod.factor_subgroup(0)
    out = []
    for w in _wide_list(t, g):
        a = w.embedded
        atype = a.isomorphism_type
        kw = a.intersect(tfac)
        kw_elements = kw.elements()
        kw_abs = [a.abstract_coordinates(e) for e in kw_elements]
        for lam in enumerate_epis(atype, h):
            kernel_size = sum(1 for c in kw_abs
                              if all(v == 0 for v in lam(c)))
            sigma = t.order // kernel_size
            out.append((w, lam, sigma))
    return out


def lmn_theta(g, h, item):
    """The composite bijection N(T) -> M(T): (W, lam) -> (A, A', theta),
    with theta tabulated on the elements of t."""
    w, lam, _sigma = item
    prod_gh = Product.of(g, h)
    a_sub = w.embedded

    def pushed(vec):
        # (s, x) in W  ->  (x, lam(s, x)) in g x h
        _s, x = w.product.split(vec)
        return prod_gh.embed(x, lam(a_sub.abstract_coordinates(vec)))

    # A is the image of W, A' the image of W meet (1 x g)
    a_img = subgroup_from_generators(
        prod_gh.group, [pushed(vec) for vec in a_sub.generators])
    wg = a_sub.intersect(w.product.factor_subgroup(1))
    ap = subgroup_from_generators(
        prod_gh.group, [pushed(vec) for vec in wg.generators])
    # for each element s of t choose w = (s, x) in W; theta(s) is the coset
    # of its image modulo A'
    theta = {}
    for vec in a_sub.elements():
        s, _x = w.product.split(vec)
        if s not in theta:
            theta[s] = ap.coset_rep(pushed(vec))
    return a_img, ap, tuple(sorted(theta.items()))


def lmn_bijections_check(t, g, h, family, explicit_limit=20000, limit=None):
    """Check the L/M/N correspondences with the sigma filtration.

    Explicit mode enumerates all three sets, applies the constructions and
    verifies bijectivity and sigma preservation.  Above `explicit_limit`
    elements, the sigma-graded cardinalities of the two independently
    enumerable sides are compared instead.
    """
    config.check_order(t.order * g.order * h.order, limit, what="L/M/N check")
    m_levels = _sigma_level_counts_m(t, g, h, family)
    size = sum(m_levels.values())
    failures = []
    gh = g.order * h.order
    for sigma in m_levels:
        if sigma > gh:
            failures.append(f"sigma {sigma} exceeds |g||h| = {gh}")
    if size > explicit_limit:
        n_levels = _sigma_level_counts_n(t, g, h)
        if n_levels != m_levels:
            failures.append(f"sigma census differs: N={n_levels} M={m_levels}")
        return LMNReport(t, g, h, "counts", size,
                         tuple(sorted(m_levels.items())), not failures,
                         tuple(failures))
    # explicit: enumerate N, map to M via the bijection, compare with the
    # independent M enumeration, and check sigma on both sides
    n_items = _enumerate_n_explicit(t, g, h)
    n_levels = {}
    for _w, _lam, sigma in n_items:
        n_levels[sigma] = n_levels.get(sigma, 0) + 1
        if sigma > gh:
            failures.append(f"sigma {sigma} exceeds |g||h| = {gh}")
    if n_levels != m_levels:
        failures.append(f"sigma census differs: N={n_levels} M={m_levels}")
    # independent M enumeration: (vhom, theta) with theta tabulated
    m_keys = {}
    for v in _vhom_list(g, h, family):
        thetas = enumerate_epis(t, v.spread)
        # one section per virtual hom, and none without a theta
        qgens = _spread_section(v) if thetas else None
        for theta in thetas:
            key = _m_key(t, v, qgens, theta)
            if key in m_keys:
                failures.append(f"duplicate M element {key}")
            m_keys[key] = v.spread.order
    mapped = {}
    for item in n_items:
        a_img, ap, theta_tab = lmn_theta(g, h, item)
        key = (a_img.basis, ap.basis, theta_tab)
        if key in mapped:
            failures.append("mu o nu^{-1} not injective")
        mapped[key] = item[2]
    if set(mapped) != set(m_keys):
        failures.append("mu o nu^{-1} image differs from M")
    else:
        for key, sigma in mapped.items():
            if m_keys[key] != sigma:
                failures.append(f"sigma not preserved at {key}")
                break
    return LMNReport(t, g, h, "explicit", size,
                     tuple(sorted(m_levels.items())), not failures,
                     tuple(failures))


def _m_key(t, vhom, qgens, theta):
    """Canonical key of an M element: (A, A', theta as a coset table), with
    qgens the spread section of vhom."""
    ap = vhom.sub
    n = ap.ambient.rank
    table = tuple((s, ap.coset_rep(_combine(n, qgens, theta(s))))
                  for s in t.elements())
    return (vhom.wide.embedded.basis, ap.basis, table)


def _spread_section(vhom):
    """Coset representatives realizing the spread generators inside A."""
    a = vhom.wide.embedded
    inner = _inner(a, vhom.sub)
    qt, proj = quotient(inner.ambient, inner)
    if qt != vhom.spread:
        raise InvariantViolation(
            f"spread {vhom.spread!r} disagrees with A/A' = {qt!r}")
    # an abstract preimage of each spread generator, mapped in through
    # the generators of A
    return [_combine(a.ambient.rank, a.generators, acoords)
            for acoords in section(proj)]


def sigma_pullback_check(phi, g, h, family, limit=None):
    """Sigma grows along non-canonical pullbacks and is preserved exactly
    on the canonical one.

    For each (W, lam) over the target of phi and each compatible
    (W', lam') upstairs, sigma(W', lam') >= sigma(W, lam) with equality
    exactly for the pullback (phi x 1)^{-1}(W) with the composed map.
    NotInFamily if phi's source or target, g or h is not a member.
    """
    if not quotient_exists(phi.source, phi.target):
        raise NotSurjective("phi must be a surjection")
    if not all(map(family.contains, (phi.source, phi.target, g, h))):
        raise NotInFamily(f"phi's groups, g and h must be in {family!r}")
    t, tp = phi.target, phi.source
    config.check_order(tp.order * g.order * h.order, limit,
                       what="sigma pullback check")
    down = _enumerate_n_explicit(t, g, h)
    # each W' is pushed to (phi x 1)(W') once, not once per (W, lam)
    prod = Product.of(t, g)
    up = [(wp, lamp, sigmap, _push_image(phi, wp, prod))
          for wp, lamp, sigmap in _enumerate_n_explicit(tp, g, h)]
    # (phi x 1)(W') = W puts W' inside (phi x 1)^{-1}(W), which has order
    # |W| |ker phi|: W' is that pullback exactly when the orders agree
    kernel_order = tp.order // t.order
    failures = []
    checked = 0
    for w, lam, sigma in down:
        for wp, lamp, sigmap, image in up:
            if not _is_pushforward(phi, wp, w, lamp, lam, image):
                continue
            checked += 1
            is_pullback = wp.embedded.order == w.embedded.order * kernel_order
            if sigmap < sigma:
                failures.append((w, lam, wp, lamp, "sigma dropped"))
            if (sigmap == sigma) != is_pullback:
                failures.append((w, lam, wp, lamp, "equality mismatch"))
    return {"pairs_checked": checked, "ok": not failures,
            "failures": failures}


def _push_image(phi, wp, prod):
    """(phi x 1) on the generators of W', and (phi x 1)(W') <= prod."""
    pushed = [prod.embed(phi(s), x)
              for s, x in map(wp.product.split, wp.embedded.generators)]
    return pushed, subgroup_from_generators(prod.group, pushed)


def _is_pushforward(phi, wp, w, lamp, lam, image=None):
    """(phi x 1)(W') == W and lam' == lam o (phi x 1) on W'.

    `image` is `_push_image(phi, wp, w.product)` when the caller has it.
    Both sides of the second equation are homomorphisms on W', so they
    agree once they agree on its generators.
    """
    pushed, img = image or _push_image(phi, wp, w.product)
    a_up, a_dn = wp.embedded, w.embedded
    return img == a_dn and all(
        lamp(a_up.abstract_coordinates(vec))
        == lam(a_dn.abstract_coordinates(v))
        for vec, v in zip(a_up.generators, pushed))
