"""Tensor and internal-hom decompositions of representable generators.

The tensor of two generators splits over the wide subgroups of the product
(subgroups surjecting onto both factors); each wide subgroup is classified
by a unique triple (N1, iso, N2) of a kernel on each side and an
isomorphism of the common quotient, which is how enumeration proceeds.
The internal hom splits over virtual homomorphisms (A, A') and the three
auxiliary sets L/M/N with their size filtration sigma tie the two pictures
together; this module exposes those sets and the checks on them.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import config
from .errors import FamilyNotGlobalMultiplicative, NotSurjective, \
    ShapeMismatch, InvariantViolation
from .groups import (GroupType, Morphism, make_morphism, enumerate_epis,
                     count_epis, automorphisms, quotient_exists, section)
from .subgroups import (Subgroup, subgroup_from_lattice_rows,
                        subgroup_from_generators, enumerate_subgroups,
                        kernel, quotient, trivial_subgroup, full_subgroup)


@dataclass(frozen=True)
class Product:
    """A product of group types with coordinate bookkeeping.

    The underlying GroupType has sorted exponents; `positions[k]` is the
    sorted position of natural coordinate k (left coordinates first).
    """

    factors: tuple
    group: GroupType
    positions: tuple

    @classmethod
    def of(cls, *factors):
        p = None
        for f in factors:
            if not f.is_trivial():
                p = f.p
                break
        if p is None:
            p = factors[0].p if factors else 2
        exps = []
        for f in factors:
            exps.extend(f.exponents)
        order = sorted(range(len(exps)), key=lambda k: (-exps[k], k))
        positions = [0] * len(exps)
        for spos, k in enumerate(order):
            positions[k] = spos
        gt = GroupType(p, tuple(exps[k] for k in order))
        return cls(tuple(factors), gt, tuple(positions))

    def offset(self, idx):
        return sum(f.rank for f in self.factors[:idx])

    def projection(self, idx):
        """Canonical projection morphism group -> factors[idx]."""
        f = self.factors[idx]
        off = self.offset(idx)
        rows = []
        for i in range(f.rank):
            row = [0] * self.group.rank
            row[self.positions[off + i]] = 1
            rows.append(row)
        return make_morphism(self.group, f, rows)

    def inclusion_rows(self, idx):
        """Lattice rows generating 1 x ... x factors[idx] x ... x 1."""
        f = self.factors[idx]
        off = self.offset(idx)
        rows = []
        for i in range(f.rank):
            row = [0] * self.group.rank
            row[self.positions[off + i]] = 1
            rows.append(row)
        return rows

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


def _product2(g, h):
    return Product.of(g, h)


@lru_cache(maxsize=None)
def _wide_list(g, h):
    """All wide subgroups of g x h (no family filter), canonical order."""
    prod = _product2(g, h)
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
        total = 0
        quots_g = {}
        for n1 in enumerate_subgroups(g, limit=limit):
            q1, _ = quotient(g, n1)
            quots_g[q1] = quots_g.get(q1, 0) + 1
        quots_h = {}
        for n2 in enumerate_subgroups(h, limit=limit):
            q2, _ = quotient(h, n2)
            quots_h[q2] = quots_h.get(q2, 0) + 1
        for q, cg in quots_g.items():
            ch = quots_h.get(q)
            if ch:
                total += cg * ch * count_epis(q, q)
        return total
    return len(enumerate_wide(g, h, family, limit))


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
def _vhom_list(g, h, family):
    prod = _product2(g, h)
    right = prod.factor_subgroup(1)
    out = []
    for w in _wide_list(g, h):
        a = w.embedded
        for aprime_abs, aprime in _subgroups_of(a):
            if aprime.intersection_order(right) != 1:
                continue
            spread = _quotient_type_within(a, aprime)
            if not family.contains(spread):
                continue
            out.append(VirtualHom(g, h, w, aprime, spread))
    out.sort(key=lambda v: v.sort_key())
    return tuple(out)


def enumerate_vhom(g, h, family, limit=None):
    """All virtual homomorphisms from g to h with spreads in the family.

    The ambient wide subgroup A itself is not filtered by membership, only
    the spread A/A' is; this follows the defining conditions literally.
    """
    config.check_order(g.order * h.order, limit, what="virtual hom enumeration")
    return list(_vhom_list(g, h, family))


def _subgroups_of(s):
    """Subgroups of a subgroup s <= ambient, as (abstract, embedded) pairs.

    Enumerates the lattice of the abstract type once per type and maps the
    generators through the embedding of s.
    """
    ambient = s.ambient
    atype = s.isomorphism_type
    emb = s.embedding_matrix()          # ambient.rank x atype.rank
    out = []
    for t in enumerate_subgroups(atype):
        rows = []
        for brow in t.basis:
            # abstract lattice vector -> ambient coordinates
            vec = [sum(emb[i][k] * brow[k] for k in range(atype.rank))
                   for i in range(ambient.rank)]
            rows.append(vec)
        out.append((t, subgroup_from_lattice_rows(ambient, rows)))
    return out


def _quotient_type_within(a, aprime):
    """Type of a/aprime for nested subgroups of a common ambient group."""
    atype = a.isomorphism_type
    # abstract coordinates of aprime's generators inside a
    gens = []
    sub_emb = aprime.embedding_matrix()
    t = len(sub_emb[0]) if sub_emb else 0
    for col in range(t):
        vec = tuple(sub_emb[i][col] for i in range(a.ambient.rank))
        gens.append(tuple(a.abstract_coordinates(vec)))
    inner = subgroup_from_generators(atype, gens) if gens \
        else trivial_subgroup(atype)
    return _quotient_type_cached(atype, inner.basis)


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
    return sum(count_epis(t, v.spread)
               for v in enumerate_vhom(g, h, family, limit))


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
    obj = PresentedObject(fam, gen_types, tuple(rel_sources),
                          tuple(columns))
    _TENSOR_MEMO[memo_key] = (obj, gen_data)
    return obj, gen_data


def _pushed_component(wprime, mor, gen_data, target_index):
    """Where (1 x mor) sends the wide summand wprime, and the induced map.

    mor: H -> G_i; wprime is wide in g x H.  The image of wprime under
    (id, mor) is a wide subgroup of g x G_i appearing in gen_data; returns
    its slot and the abstract surjection type(wprime) -> type(image).
    """
    g = wprime.left
    hj = wprime.right
    gi = mor.target
    prod_src = wprime.product
    prod_dst = _product2(g, gi)
    # natural-coordinates map (x, y) -> (x, mor y), then into sorted coords
    rg, rh, rgi = g.rank, hj.rank, gi.rank
    emb = wprime.embedded.embedding_matrix()
    k = len(emb[0]) if emb else 0
    img_gens = []
    for col in range(k):
        vec = tuple(emb[i][col] for i in range(prod_src.group.rank))
        xpart = tuple(vec[prod_src.positions[i]] for i in range(rg))
        ypart = tuple(vec[prod_src.positions[rg + i]] for i in range(rh))
        img_gens.append(prod_dst.embed(xpart, mor(ypart)))
    img = subgroup_from_generators(prod_dst.group, img_gens)
    slot = None
    for s, (i, w) in enumerate(gen_data):
        if i == target_index and w.embedded == img:
            slot = s
            break
    if slot is None:
        raise ShapeMismatch("pushed wide subgroup missing from generators")
    wdst = gen_data[slot][1]
    src_type = wprime.isomorphism_type
    dst_type = wdst.embedded.isomorphism_type
    rows = [[0] * src_type.rank for _ in range(dst_type.rank)]
    for col in range(k):
        coords = wdst.embedded.abstract_coordinates(img_gens[col])
        for i in range(dst_type.rank):
            rows[i][col] = coords[i]
    tau = make_morphism(src_type, dst_type, rows)
    return slot, tau


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
    for v in _vhom_list(g, h, family):
        n = count_epis(t, v.spread)
        if n:
            levels[v.spread.order] = levels.get(v.spread.order, 0) + n
    return levels


def _sigma_level_counts_n(t, g, h, family):
    """sigma census of pairs (W, lam) without enumerating the lam's.

    For fixed wide W <= t x g, sigma(W, lam) = |t| / |K| where K is the
    kernel of lam restricted to K_W = {s : (s, 1) in W}.  Exact-kernel
    counts come from inclusion-exclusion over the subgroup lattice of K_W,
    with #{lam killing S} = #Epi(W/S, h).
    """
    prod = _product2(t, g)
    levels = {}
    tfac = prod.factor_subgroup(0)
    for w in _wide_list(t, g):
        a = w.embedded
        kw = a.intersect(tfac)
        subs = _subgroups_of(kw)
        # containment-closed Moebius over the little lattice
        emb_list = [s_emb for _abs, s_emb in subs]
        kill_counts = []
        for s_emb in emb_list:
            qt = _quotient_type_within(a, s_emb)
            kill_counts.append(count_epis(qt, h))
        n = len(emb_list)
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
    prod = _product2(t, g)
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


def _n_to_m(t, g, h, item):
    """The composite bijection N(T) -> M(T): (W, lam) -> (A, A', theta)."""
    w, lam, _sigma = item
    prod_tg = w.product
    prod_gh = _product2(g, h)
    a_sub = w.embedded
    atype = a_sub.isomorphism_type
    rt, rg = t.rank, g.rank
    emb = a_sub.embedding_matrix()
    k = len(emb[0]) if emb else 0
    # A = {(g part, lam(w)) : w in W} <= g x h
    a_gens = []
    for col in range(k):
        vec = tuple(emb[i][col] for i in range(prod_tg.group.rank))
        gpart = tuple(vec[prod_tg.positions[rt + i]] for i in range(rg))
        acoords = a_sub.abstract_coordinates(vec)
        a_gens.append(prod_gh.embed(gpart, lam(acoords)))
    a_img = subgroup_from_generators(prod_gh.group, a_gens)
    # A' = {(g part, lam(w)) : w in W with t part 1}
    wg = a_sub.intersect(w.product.factor_subgroup(1))
    ap_gens = []
    emb2 = wg.embedding_matrix()
    k2 = len(emb2[0]) if emb2 else 0
    for col in range(k2):
        vec = tuple(emb2[i][col] for i in range(prod_tg.group.rank))
        gpart = tuple(vec[prod_tg.positions[rt + i]] for i in range(rg))
        acoords = a_sub.abstract_coordinates(vec)
        ap_gens.append(prod_gh.embed(gpart, lam(acoords)))
    ap = subgroup_from_generators(prod_gh.group, ap_gens)
    return a_img, ap


def lmn_theta(t, g, h, item):
    """theta of the image triple, tabulated on the elements of t."""
    w, lam, _sigma = item
    prod_tg = w.product
    prod_gh = _product2(g, h)
    a_sub = w.embedded
    rt, rg = t.rank, g.rank
    a_img, ap = _n_to_m(t, g, h, item)
    # for each element s of t choose w = (s, g) in W and record the coset
    elems = a_sub.elements()
    theta = {}
    for vec in elems:
        s = tuple(vec[prod_tg.positions[i]] for i in range(rt))
        if s in theta:
            continue
        gpart = tuple(vec[prod_tg.positions[rt + i]] for i in range(rg))
        acoords = a_sub.abstract_coordinates(vec)
        pair = prod_gh.embed(gpart, lam(acoords))
        theta[s] = pair
    # normalize cosets: the stored pair modulo ap
    mods = prod_gh.group.moduli()
    apel = ap.elements()
    canon = {}
    for s, pair in theta.items():
        coset = min(tuple((pv + av) % m for pv, av, m in zip(pair, ael, mods))
                    for ael in apel)
        canon[s] = coset
    return a_img, ap, tuple(sorted(canon.items()))


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
        n_levels = _sigma_level_counts_n(t, g, h, family)
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
        for theta in enumerate_epis(t, v.spread):
            key = _m_key(t, g, h, v, theta)
            if key in m_keys:
                failures.append(f"duplicate M element {key}")
            m_keys[key] = v.spread.order
    mapped = {}
    for item in n_items:
        a_img, ap, theta_tab = lmn_theta(t, g, h, item)
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


def _m_key(t, g, h, vhom, theta):
    """Canonical key of an M element: (A, A', theta as a coset table)."""
    prod_gh = _product2(g, h)
    mods = prod_gh.group.moduli()
    a = vhom.wide.embedded
    ap = vhom.sub
    apel = ap.elements()
    # tabulate theta: element of t -> coset of A' in A, canonically
    spread = vhom.spread
    qgens = _spread_section(vhom)
    table = []
    for s in t.elements():
        img = theta(s)   # coordinates in the spread type
        rep = [0] * prod_gh.group.rank
        for k, c in enumerate(img):
            if c:
                for i in range(prod_gh.group.rank):
                    rep[i] += c * qgens[k][i]
        rep = tuple(v % m for v, m in zip(rep, mods))
        coset = min(tuple((rv + av) % m for rv, av, m in zip(rep, ael, mods))
                    for ael in apel)
        table.append((s, coset))
    return (a.basis, ap.basis, tuple(table))


def _spread_section(vhom):
    """Coset representatives realizing the spread generators inside A."""
    a = vhom.wide.embedded
    ap = vhom.sub
    qt = vhom.spread
    atype = a.isomorphism_type
    emb = a.embedding_matrix()
    # inner = A' in abstract coordinates of A; quotient projection
    gens = []
    sub_emb = ap.embedding_matrix()
    tcols = len(sub_emb[0]) if sub_emb else 0
    for col in range(tcols):
        vec = tuple(sub_emb[i][col] for i in range(a.ambient.rank))
        gens.append(list(a.abstract_coordinates(vec)))
    inner = subgroup_from_generators(atype, gens) if gens \
        else trivial_subgroup(atype)
    qt2, proj = quotient(atype, inner)
    if qt2 != qt:
        raise InvariantViolation(
            f"spread {qt!r} disagrees with A/A' = {qt2!r}")
    # section: for each spread generator pick an abstract preimage, then
    # map through the embedding of A
    return [[sum(emb[i][c] * acoords[c] for c in range(atype.rank))
             for i in range(a.ambient.rank)]
            for acoords in section(proj)]


def sigma_pullback_check(phi, g, h, family, limit=None):
    """Sigma grows along non-canonical pullbacks and is preserved exactly
    on the canonical one.

    For each (W, lam) over the target of phi and each compatible
    (W', lam') upstairs, sigma(W', lam') >= sigma(W, lam) with equality
    exactly for the pullback (phi x 1)^{-1}(W) with the composed map.
    """
    if not quotient_exists(phi.source, phi.target):
        raise NotSurjective("phi must be a surjection")
    t, tp = phi.target, phi.source
    config.check_order(tp.order * g.order * h.order, limit,
                       what="sigma pullback check")
    down = _enumerate_n_explicit(t, g, h)
    up = _enumerate_n_explicit(tp, g, h)
    prod_t = _product2(t, g)
    prod_tp = _product2(tp, g)
    failures = []
    checked = 0
    for w, lam, sigma in down:
        wtype = w.embedded.isomorphism_type
        for wp, lamp, sigmap in up:
            if not _is_pushforward(phi, wp, w, lamp, lam):
                continue
            checked += 1
            is_pullback = _is_canonical_pullback(phi, wp, w)
            if sigmap < sigma:
                failures.append((w, lam, wp, lamp, "sigma dropped"))
            if (sigmap == sigma) != is_pullback:
                failures.append((w, lam, wp, lamp, "equality mismatch"))
    return {"pairs_checked": checked, "ok": not failures,
            "failures": failures}


def _push_element(phi, prod_tp, prod_t, vec):
    rt = phi.source.rank
    rg = prod_t.factors[1].rank
    tpart = tuple(vec[prod_tp.positions[i]] for i in range(rt))
    gpart = tuple(vec[prod_tp.positions[rt + i]] for i in range(rg))
    return prod_t.embed(phi(tpart), gpart)


def _is_pushforward(phi, wp, w, lamp, lam):
    """(phi x 1)(W') == W and lam' == lam o (phi x 1) on W'."""
    prod_tp = wp.product
    prod_t = w.product
    a_up, a_dn = wp.embedded, w.embedded
    # image check via generators both ways (orders decide equality)
    emb = a_up.embedding_matrix()
    k = len(emb[0]) if emb else 0
    img_gens = []
    for col in range(k):
        vec = tuple(emb[i][col] for i in range(prod_tp.group.rank))
        img_gens.append(_push_element(phi, prod_tp, prod_t, vec))
    img = subgroup_from_generators(prod_t.group, img_gens)
    if img != a_dn:
        return False
    # lam compatibility on the subgroup elements
    for vec in a_up.elements():
        pushed = _push_element(phi, prod_tp, prod_t, vec)
        lv = lamp(a_up.abstract_coordinates(vec))
        dv = lam(a_dn.abstract_coordinates(pushed))
        if lv != dv:
            return False
    return True


def _is_canonical_pullback(phi, wp, w):
    """W' == (phi x 1)^{-1}(W)."""
    prod_tp = wp.product
    prod_t = w.product
    rt, rg = phi.source.rank, prod_t.factors[1].rank
    # build the morphism (phi x 1): tp x g -> t x g in sorted coordinates
    rows = []
    tgt = prod_t.group
    for i in range(tgt.rank):
        rows.append([0] * prod_tp.group.rank)
    for i in range(phi.target.rank):
        for j in range(rt):
            rows[prod_t.positions[i]][prod_tp.positions[j]] = \
                phi.matrix[i][j]
    for i in range(rg):
        rows[prod_t.positions[phi.target.rank + i]][
            prod_tp.positions[rt + i]] = 1
    phimap = make_morphism(prod_tp.group, tgt, rows)
    from .subgroups import preimage
    pull = preimage(phimap, w.embedded)
    return pull == wp.embedded
