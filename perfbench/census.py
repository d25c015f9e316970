"""group-census: in-process rows over the integer group layer.

Every row is checked after the passes against a route that does not use
the code being timed: closed forms (closed_forms.py), an own rank mod p,
an own subgroup closure, or the library's independent hom oracle.
"""

from collections import Counter
from itertools import product

import closed_forms as cf
from jobs import Job, Kind, expect_equal, first_error

from repstab import groups as G, subgroups as S, monoidal as M
from repstab import families as F, wqo as W


def _members(p, bound):
    return F.all_abelian(p).members(bound)


def _key(g):
    return g.key()


# -- epi counts ------------------------------------------------------------

def _pairs_label(pairs):
    return " ".join(f"{t.key()}->{g.key()}" for t, g in pairs)


def _count_job(kind, pairs):
    def run():
        return tuple(G.count_epis(t, g) for t, g in pairs)

    def check(got):
        want = tuple(cf.epi_count(t.p, t.exponents, g.exponents)
                     for t, g in pairs)
        return expect_equal(got, want, f"count_epis {_pairs_label(pairs)}")

    return Job(kind, _pairs_label(pairs), run, check)


def _small_pairs(p, order, limit):
    """(t, g): t of the given order, g nontrivial with at most `limit`
    candidate matrices t -> g."""
    return [(t, g) for t in _members(p, order) if t.order == order
            for g in _members(p, order)
            if not g.is_trivial() and G.hom_candidate_count(t, g) <= limit]


def _rank_mod_p(rows, p):
    rows = [[v % p for v in row] for row in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _enum_job(pairs):
    def run():
        return tuple(tuple(m.matrix for m in G.enumerate_epis(t, g))
                     for t, g in pairs)

    def check(got):
        for (t, g), mats in zip(pairs, got):
            p = g.p
            flat = [tuple(v for row in m for v in row) for m in mats]
            msg = first_error(
                expect_equal(len(mats), cf.epi_count(p, t.exponents,
                                                     g.exponents),
                             f"|enumerate_epis({t.key()}, {g.key()})|"),
                None if flat == sorted(set(flat)) else
                f"enumerate_epis({t.key()}, {g.key()}) not strictly sorted",
                None if all(_rank_mod_p(m, p) == g.rank for m in mats) else
                f"enumerate_epis({t.key()}, {g.key()}) lists a non-surjection")
            if msg:
                return msg
        return None

    return Job("epi-enum", _pairs_label(pairs), run, check)


# -- lattices, wide subgroups ---------------------------------------------

def _type_census(g):
    pairs = Counter()
    for s in S.enumerate_subgroups(g):
        q, _ = S.quotient(g, s)
        pairs[(s.isomorphism_type.exponents, q.exponents)] += 1
    return tuple(sorted(pairs.items()))


def _check_census(g, got):
    p, lam = g.p, g.exponents
    types, cotypes = Counter(), Counter()
    for (ty, co), n in got:
        if p ** (sum(ty) + sum(co)) != g.order:
            return f"subgroup {ty} of {g.key()} has quotient {co}"
        types[ty] += n
        cotypes[co] += n
    want = {nu: n for nu in cf.sub_partitions(lam)
            if (n := cf.subgroups_of_type(p, lam, nu))}
    return first_error(
        expect_equal(dict(types), want, f"subgroup types of {g.key()}"),
        expect_equal(dict(cotypes), want, f"subgroup cotypes of {g.key()}"))


def _lattice_job(groups):
    def run():
        return tuple(_type_census(g) for g in groups)

    def check(got):
        return first_error(*(_check_census(g, c) for g, c in zip(groups, got)))

    return Job("lattice", " ".join(map(_key, groups)), run, check)


def _wide_job(kind, pairs, family):
    def run():
        return tuple(M.count_wide(t, g, family) for t, g in pairs)

    def check(got):
        for (t, g), n in zip(pairs, got):
            lt, lg = t.exponents, g.exponents
            msg = first_error(
                expect_equal(n, cf.wide_count(2, lt, lg),
                             f"count_wide({t.key()}, {g.key()})"),
                expect_equal(n, cf.wide_identity_rhs(2, lt, lg),
                             f"criterion 06 at ({t.key()}, {g.key()})"))
            if msg:
                return msg
        return None

    return Job(kind, " ".join(f"{t.key()}x{g.key()}" for t, g in pairs),
               run, check)


# -- hom, L/M/N, framings --------------------------------------------------

_HOM_GOLDEN = {("p2-l1", "p2-l1", "p2-l1"): 4, ("p2-l1", "p2-l1", "p2-l1.1"): 16}


def _triples_label(triples):
    return " ".join(",".join(map(_key, tr)) for tr in triples)


def _hom_job(kind, pairs, ts, family):
    """hom_dimension(g, h, t) for each (g, h) and every t."""
    triples = [(g, h, t) for g, h in pairs for t in ts]

    def run():
        return tuple(M.hom_dimension(g, h, t, family) for g, h, t in triples)

    def check(got):
        for (g, h, t), d in zip(triples, got):
            key = (g.key(), h.key(), t.key())
            want = M.hom_eval_oracle(g, h, t, family)
            msg = first_error(
                expect_equal(d, want, f"hom_dimension{key}"),
                expect_equal(d, _HOM_GOLDEN.get(key, want),
                             f"hom golden {key}"))
            if msg:
                return msg
        return None

    return Job(kind, " ".join(f"{g.key()},{h.key()}" for g, h in pairs),
               run, check)


def _lmn_job(triples, family):
    def run():
        out = []
        for t, g, h in triples:
            rep = M.lmn_bijections_check(t, g, h, family,
                                         explicit_limit=20000)
            out.append((rep.ok, rep.mode, tuple(rep.sigma_counts),
                        tuple(rep.failures)))
        return tuple(out)

    def check(got):
        for (t, g, h), (ok, _mode, sigma, failures) in zip(triples, got):
            where = (t.key(), g.key(), h.key())
            if not ok:
                return f"L/M/N check failed at {where}: {failures}"
            if any(s > g.order * h.order for s, _n in sigma):
                return f"sigma above |g||h| at {where}"
        return None

    return Job("lmn", _triples_label(triples), run, check)


def _elements(a):
    return list(product(*(range(m) for m in a.moduli())))


def _exponent(a, x):
    mods, e = a.moduli(), 0
    while any(v % m for v, m in zip(x, mods)):
        x = tuple(v * a.p for v in x)
        e += 1
    return e


def _span(a, gens):
    mods = a.moduli()
    seen = {tuple(0 for _ in mods)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for h in gens:
            y = tuple((u + v) % m for u, v, m in zip(x, h, mods))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def framing_inputs(a, size):
    """(labels, assignment) of every framing of a domain of `size`:
    generating assignments, labels at the element order plus 0 or 1."""
    out = []
    for assign in product(_elements(a), repeat=size):
        if len(_span(a, assign)) != a.order:
            continue
        exps = [_exponent(a, x) for x in assign]
        for slack in product((0, 1), repeat=size):
            out.append((tuple(e + s for e, s in zip(exps, slack)), assign))
    return out


def _framing_job(a, sizes):
    inputs = [f for size in sizes for f in framing_inputs(a, size)]

    def run():
        out = []
        for labels, assign in inputs:
            mor, taut = W.factor_framing(W.Framing(W.ols(*labels), a, assign))
            out.append((mor.values, taut.domain.labels, taut.assignment))
        return tuple(out)

    def check(got):
        for (labels, assign), (values, tlabels, tassign) in zip(inputs, got):
            if tuple(tassign[v] for v in values) != assign:
                return f"framing {labels} {assign} not reproduced"
            if sorted(set(values)) != list(range(len(tassign))):
                return f"framing {labels} {assign}: map is not onto"
            if len(set(tassign)) != len(tassign) or \
                    len(_span(a, tassign)) != a.order:
                return f"framing {labels} {assign}: image is not tautological"
            if tlabels != tuple(_exponent(a, x) for x in tassign):
                return f"framing {labels} {assign}: labels are not orders"
        return expect_equal(len(got), len(inputs), "framings factored")

    return Job("framing", f"{a.key()} sizes {min(sizes)}-{max(sizes)}", run,
               check)


# -- the workload ----------------------------------------------------------

# Pairs and groups left out of every pool, with their cost at the seed on a
# 2-core box: C3^4->C3^4 (60 s), C2^6->C2^5 (ScaleExceeded), the lattice
# rows of C4xC2^4 (3.6 s for the lattice alone) and C2^6 (6.6 s with the
# types of its 2825 subgroups), count_wide(C2^5, C2^5) (12.7 s, an
# |Aut(C2^5)| scan),
# and hom pairs (C2^3, C2^3) (28 s), (C2^3, C4xC2) (5 s).
_SCAN_PAIRS = ((2, (1,) * 5, (1,) * 4), (3, (1,) * 4, (1,) * 3),
               (5, (1,) * 3, (1,) * 2), (5, (1,) * 3, (1,) * 3))
_LATTICE_SKIP = {"p2-l2.1.1.1.1", "p2-l1.1.1.1.1.1"}
_HOM_SKIP = {("p2-l1.1.1", "p2-l1.1.1"), ("p2-l1.1.1", "p2-l2.1"),
             ("p2-l2.1", "p2-l1.1.1"), ("p2-l2.1", "p2-l2.1")}


def kinds():
    """Rows group the sub-millisecond calls, so that every job is one
    user-level query of at least a few milliseconds."""
    Z2 = F.all_abelian(2)
    # one row: the scans allocate the largest transient arrays, so where
    # they fall among the growing memos sets peak RSS; a single-job kind
    # always sits mid-pass
    scan = [_count_job("epi-scan", [(G.group(p, lam), G.group(p, mu))
                                    for p, lam, mu in _SCAN_PAIRS])]
    orders = [(p, p ** e) for p, top in ((2, 5), (3, 3), (5, 2))
              for e in range(1, top + 1)]
    counts = [_count_job("epi-count", _small_pairs(p, n, 1 << 14))
              for p, n in orders]
    enums = [_enum_job(_small_pairs(p, n, 1 << 12))
             for p, n in orders if n <= 27]

    lattice_groups = [g for p, b in ((2, 64), (3, 81), (5, 25))
                      for g in _members(p, b)
                      if not g.is_trivial() and g.key() not in _LATTICE_SKIP]
    small = [g for g in lattice_groups if g.order < 16]
    lattice = [_lattice_job(small)] + [
        _lattice_job([g]) for g in sorted(
            (g for g in lattice_groups if g.order >= 16),
            key=lambda g: cf.subgroup_count(g.p, g.exponents))]

    anchors = [g for g in Z2.members(32) if g.order == 32 and g.rank < 5]
    wide_anchor = [_wide_job("wide-anchor", [(g, g)], Z2) for g in anchors]
    m16 = Z2.members(16)
    wide = [_wide_job("wide", [(t, g) for g in m16], Z2)
            for t in Z2.members(32)]

    m8 = Z2.members(8)
    hom_pairs = [(g, h) for g in m8 for h in m8
                 if (g.key(), h.key()) not in _HOM_SKIP]
    hom_heavy = [_hom_job("hom-heavy", [(g, h)], m8, Z2)
                 for g, h in hom_pairs if g.order * h.order >= 32]
    hom_light = [_hom_job("hom", [(g, h) for gg, h in hom_pairs
                                  if gg == g and g.order * h.order < 32],
                          m8, Z2) for g in m8]

    m4 = Z2.members(4)
    C2 = G.cyclic(2, 1)
    lmn = [_lmn_job([(t, g, h) for h in m4], Z2) for t in m4 for g in m4]
    lmn.append(_lmn_job([(G.group(2, [1, 1, 1]), C2, C2),
                         (C2, G.group(2, [1, 1, 1]), C2),
                         (G.group(2, [2, 1]), C2, C2)], Z2))

    targets = [C2, G.cyclic(3, 1), G.cyclic(2, 2), G.group(2, [1, 1]),
               G.cyclic(5, 1), G.cyclic(7, 1)]
    framing = [_framing_job(a, (1, 2, 3)) for a in targets]

    pools = [("epi-scan", scan), ("epi-count", counts), ("epi-enum", enums),
             ("lattice", lattice), ("wide-anchor", wide_anchor),
             ("wide", wide), ("hom-heavy", hom_heavy), ("hom", hom_light),
             ("lmn", lmn), ("framing", framing)]
    return [Kind(name, len(pool), pool) for name, pool in pools]
