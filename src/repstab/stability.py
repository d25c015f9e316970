"""Truncation, torsion detection, and bounded-range stability scans.

Every "eventually" style verdict here is a bounded-range report carrying
the range it was verified on; nothing extrapolates beyond the scanned
groups.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (TowerUnavailable, NotStabilized, NotAInfinity,
                     FamilyUnsupported, FamilyNotExpansive,
                     FamilyNotSubmultiplicative, InvariantViolation)
from .groups import (GroupType, make_morphism, enumerate_epis, first_epi,
                     count_epis, quotient_exists, delta_rank,
                     aut_transitive_on_epis, automorphism_generators,
                     orbit_roots, section)
from .linalg import (BasedSpace, QMatrix, FinitePosetDiagram,
                     colimit_of_diagram, StreamCoker, span_rank, rref_kernel)
from .subgroups import quotient, normal_quotient_poset, q_leq_n
from .presentations import (evaluate, evaluate_dim, structure_map,
                            _eval_data, restrict_presentation,
                            _orbit_structure)
from .towers import colimit_tower_stages

# tower stage groups may exceed the interactive desk bound; their cost is
# governed by the stage budget and the candidate guards instead
_STAGE_ORDER_LIMIT = 2 ** 62


# ---------------------------------------------------------------------------
# reports


@dataclass
class StabilityReport:
    kind: str
    table: dict            # group key -> row dict
    thresholds: dict       # name -> value (orders), None when not found
    tested_range: str
    verdicts: tuple        # human readable strings with explicit bounds
    witnesses: tuple = ()

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "table": {k: dict(v) for k, v in sorted(self.table.items())},
            "thresholds": dict(self.thresholds),
            "tested_range": self.tested_range,
            "verdicts": list(self.verdicts),
            "witnesses": [str(w) for w in self.witnesses],
        }


@dataclass
class OrderEstimate:
    n: int
    samples: tuple     # (group, dim, delta, ratio Fraction)
    tail_max: tuple    # (m, sup ratio over delta >= m) pairs

    def to_json_dict(self):
        return {
            "n": self.n,
            "samples": [
                {"group": g.key(), "dim": d, "delta": dl,
                 "ratio": f"{r.numerator}/{r.denominator}"}
                for (g, d, dl, r) in self.samples],
            "tail_max": [
                {"min_delta": m, "sup": f"{r.numerator}/{r.denominator}"}
                for (m, r) in self.tail_max],
        }


# ---------------------------------------------------------------------------
# truncation


def _quotient_connecting(g, poset, i, j):
    """Canonical surjection (G/H_i) -> (G/H_j) for H_i <= H_j."""
    qi, pi_i = quotient(g, poset.elements[i])
    qj, pi_j = quotient(g, poset.elements[j])
    # q o pi_i = pi_j; read q off preimages of the generators of qi
    cols = [pi_j(tuple(v % m for v, m in zip(x, g.moduli())))
            for x in section(pi_i)]
    rows = [[cols[k][t] for k in range(qi.rank)] for t in range(qj.rank)]
    return make_morphism(qi, qj, rows)


def truncate_tau(x, n, g, limit=None):
    """Bounded-index recovery of X(g): the colimit over the poset of
    normal subgroups of index <= n, with the comparison map into X(g).

    Returns (colimit space, counit matrix into X(g)).
    """
    poset = normal_quotient_poset(g, n, limit=limit)
    nodes = []
    quots = []
    for h in poset.elements:
        q, proj = quotient(g, h)
        quots.append((q, proj))
        nodes.append(evaluate(x, q))
    arrows = []
    for i in range(len(poset.elements)):
        for j in range(len(poset.elements)):
            if i != j and poset.relation[i][j]:
                # H_i <= H_j: value at the coarser quotient maps into the
                # finer one along the pullback of the connecting surjection
                conn = _quotient_connecting(g, poset, i, j)
                arrows.append((j, i, structure_map(x, conn, limit)))
    diagram = FinitePosetDiagram(tuple(nodes), tuple(arrows))
    colim, injections = colimit_of_diagram(diagram)
    # counit: collapse through the pullbacks along the projections
    xg = evaluate(x, g)
    cols = []
    for node_idx, lab in colim.labels:
        q, proj = quots[node_idx]
        mat = structure_map(x, proj, limit)
        pos = nodes[node_idx].labels.index(lab)
        cols.append(mat.column(pos))
    rows = tuple(tuple(cols[j][r] for j in range(len(cols)))
                 for r in range(xg.dim))
    return colim, QMatrix(xg.dim, colim.dim, rows)


def central_stability_degree(x, test_bound, limit=None):
    """Least p-power N such that the bounded-index recovery is an
    isomorphism at every family member of order <= test_bound, for every
    threshold from N up to test_bound."""
    fam = x.family
    p = fam.p
    members = fam.members(max_order=test_bound)
    ns = [1]
    q = p
    while q <= test_bound:
        ns.append(q)
        q *= p
    table = {}
    iso_at = {}
    for n in ns:
        all_ok = True
        for g in members:
            colim, counit = truncate_tau(x, n, g, limit)
            xg_dim = evaluate_dim(x, g, limit)
            ok = (colim.dim == xg_dim and counit.rank() == xg_dim)
            row = table.setdefault(g.key(), {"dim": xg_dim})
            row[f"tau_iso({n})"] = ok
            if not ok:
                all_ok = False
        iso_at[n] = all_ok
    degree = None
    for idx, n in enumerate(ns):
        if all(iso_at[m] for m in ns[idx:]):
            degree = n
            break
    witnesses = tuple(
        (n, key) for n in ns for key, row in table.items()
        if not row.get(f"tau_iso({n})", True))
    verdict = (f"central stability degree {degree} "
               f"(verified on members of order <= {test_bound})"
               if degree is not None else
               f"no degree found up to {test_bound}")
    return StabilityReport("central-stability", table,
                           {"degree": degree}, f"order <= {test_bound}",
                           (verdict,), witnesses)


# ---------------------------------------------------------------------------
# torsion


def canonical_tower_epi(tower, stage, g):
    """The coordinatewise surjection tower.group(stage) -> g, when any
    surjection exists."""
    src = tower.group(stage)
    if not quotient_exists(src, g):
        return None
    rows = [[1 if j == i else 0 for j in range(src.rank)]
            for i in range(g.rank)]
    return make_morphism(src, g, rows)


def torsion_subspace(x, g, tower, max_stage=6, limit=None):
    """Vectors of X(g) killed by pullback to deep tower stages.

    Returns (BasedSpace whose labels are the torsion basis vectors in X(g)
    coordinates, exhausted flag).  Exhausted means two consecutive stages
    agreed; for finitely presented objects the union then remains stable.
    """
    dim = evaluate_dim(x, g, limit)
    stages = []
    for stage in range(max_stage + 1):
        alpha = canonical_tower_epi(tower, stage, g)
        if alpha is None:
            continue
        if not x.family.contains(alpha.source):
            raise TowerUnavailable(
                f"tower stage {alpha.source!r} escapes the family")
        mat = structure_map(x, alpha, limit or _STAGE_ORDER_LIMIT)
        stages.append(rref_kernel(mat)[0])
    if not stages:
        return BasedSpace(0, ()), False
    basis = stages[-1]
    # the kernels increase along the tower; certify only when the last two
    # computed stages span the same subspace (a bounded-scan certificate,
    # valid because finitely generated torsion is eventually exhausted)
    exhausted = False
    if len(stages) >= 2:
        prev, last = stages[-2], stages[-1]
        exhausted = len(prev) == len(last) and _same_span(dim, prev, last)
    space = BasedSpace(len(basis), tuple(basis))
    return space, exhausted


def _same_span(dim, vecs_a, vecs_b):
    ra = span_rank(dim, list(vecs_a))
    rall = span_rank(dim, list(vecs_a) + list(vecs_b))
    return ra == rall


def torsion_oracle_via_L(x, g, vec, tower, window=2, max_stage=5,
                         limit=None):
    """Torsion test through the colimit: the element in question is
    torsion exactly when its unit tensor dies in the colimit of the
    tensor with its own representable.

    `vec` is given in X(g) coordinates.  Returns True as soon as the
    image vanishes at some stage; returns False when the tower stages
    stabilize with the image still nonzero; raises NotStabilized if the
    window is never reached.
    """
    from .monoidal import tensor_with_generator_data
    if all(v == 0 for v in vec):
        return True
    # a simple tensor [alpha] (x) alpha^*(v) vanishes exactly when the
    # right factor does, so stagewise death is visible on x alone
    last_stage = None
    for m in range(max_stage + 1):
        alpha = canonical_tower_epi(tower, m, g)
        if alpha is None:
            continue
        pushed = structure_map(x, alpha,
                               limit or _STAGE_ORDER_LIMIT).apply(vec)
        if all(v == 0 for v in pushed):
            return True
        last_stage = m
    if last_stage is None:
        raise NotStabilized("no tower stage surjects onto the group")
    # not killed on any scanned stage: decide through the coinvariant
    # chain of the tensored object
    tensored, gen_data = tensor_with_generator_data(g, x, limit)
    stages, maps, stab = colimit_tower_stages(tensored, tower, window,
                                              max_stage)
    if stab is None:
        raise NotStabilized("tower window not reached; raise max_stage")
    if last_stage != max_stage:
        raise NotStabilized("tower never reaches the group; raise max_stage")
    # 1_g (x) v sums val * (slot, theta) over the labels of v; each pulls
    # back to the class e_slot at the last stage, and relations at g pull
    # back to relations, so the tensored object is never evaluated
    projected = stages[max_stage].project(
        _unit_tensor_slots(x, g, vec, gen_data, limit))
    return not any(v != 0 for v in projected)


def _unit_tensor_slots(x, g, vec, gen_data, limit=None):
    """(slot, value) pairs of 1_g (x) v in the tensored presentation: the
    label (i, u) of X(g) lies in the generator slot whose wide subgroup of
    g x G_i is the graph of u."""
    from .monoidal import _product2
    from .subgroups import subgroup_from_generators
    labels = _eval_data(x, g, limit).space.labels
    units = [tuple(1 if t == k else 0 for t in range(g.rank))
             for k in range(g.rank)]
    for pos, val in enumerate(vec):
        if not val:
            continue
        i, u = labels[pos]
        prod = _product2(g, x.generators[i])
        img = subgroup_from_generators(
            prod.group, [prod.embed(unit, u(unit)) for unit in units])
        yield next(s for s, (ii, w) in enumerate(gen_data)
                   if ii == i and w.embedded == img), Fraction(val)


# ---------------------------------------------------------------------------
# scans


_SCAN_FAMILIES = ("Cpinf", "Fpn", "Ep")


def _scan_members(family, max_rank):
    if family.kind in ("Ep", "Fpn"):
        n = family.n if family.kind == "Fpn" else 1
        return [GroupType(family.p, (n,) * r) if r else
                GroupType(family.p, ()) for r in range(max_rank + 1)]
    # cyclic chain: exponent plays the role of the rank budget
    return [GroupType(family.p, (e,)) if e else GroupType(family.p, ())
            for e in range(max_rank + 1)]


def stability_scan(x, restricted_family, max_rank, limit=None):
    """Bounded-range scan for eventual torsion-freeness and stable
    surjectivity of the restriction of x.

    Downward-closed subfamilies restrict the presentation; the free-module
    family is scanned by evaluation only.
    """
    if restricted_family.kind not in _SCAN_FAMILIES:
        raise FamilyUnsupported(
            f"scan supports {_SCAN_FAMILIES}, got {restricted_family.kind}")
    if restricted_family.downward_closed:
        xr = restrict_presentation(x, restricted_family)
    else:
        xr = x   # evaluation-only restriction
    members = _scan_members(restricted_family, max_rank)
    dims = {g: evaluate_dim(xr, g, limit) for g in members}
    table = {g.key(): {"dim": dims[g]} for g in members}

    inj_fail = {}
    for a in members:
        for b in members:
            if b.order <= a.order or not quotient_exists(b, a):
                continue
            wit = _first_noninjective(xr, a, b, dims, limit)
            if wit is not None:
                inj_fail[a] = (b, wit)
                break
    etf = None
    for a in members:
        if all((aa not in inj_fail) for aa in members
               if aa.order >= a.order):
            etf = a.order
            break
    surj_fail = {}
    for a in members:
        for b in members:
            if b.order < a.order or not quotient_exists(b, a) or a == b:
                continue
            if not _jointly_surjective(xr, a, b, dims, limit):
                surj_fail[a] = b
                break
    stably = None
    for a in members:
        if all((aa not in surj_fail) for aa in members
               if aa.order >= a.order):
            stably = a.order
            break
    for g in members:
        table[g.key()]["flags"] = ";".join(
            fl for fl in ((f"inj-fail->{inj_fail[g][0].key()}"
                           if g in inj_fail else ""),
                          (f"surj-fail->{surj_fail[g].key()}"
                           if g in surj_fail else "")) if fl)
    rng = f"{restricted_family.key()} members up to index {max_rank}"
    verdicts = (
        (f"all pullbacks injective from order {etf} on (within {rng})"
         if etf is not None else
         f"no injectivity threshold found within {rng}"),
        (f"joint surjectivity from order {stably} on (within {rng})"
         if stably is not None else
         f"no surjectivity threshold found within {rng}"),
    )
    return StabilityReport(
        "stability-scan", table,
        {"torsion_free_from": etf, "surjective_from": stably}, rng,
        verdicts,
        tuple((a.key(), b.key(), str(w)) for a, (b, w) in inj_fail.items()))


def _scan_pullback(b, a):
    """The first surjection b -> a; at scan members it decides every pair.

    Scan members are homocyclic, so Aut(b) is transitive on Epi(b, a)
    (`aut_transitive_on_epis`); the callers have checked that a is a
    quotient of b.
    """
    if not aut_transitive_on_epis(b):
        raise InvariantViolation(
            f"{b!r}: Aut(b) is not transitive on its surjections")
    return first_epi(b, a)


def _first_noninjective(x, a, b, dims, limit=None):
    """The first surjection b -> a whose pullback is not injective.

    (alpha o sigma)^* = sigma^* o alpha^* with sigma^* invertible, so the
    rank is constant on Aut(b)-orbits, and there is one orbit: the first
    surjection decides.
    """
    da, db = dims[a], dims[b]
    if da == 0:
        return None
    data_b = _eval_data(x, b, limit)
    labels_a = evaluate(x, a, limit).labels
    alpha = _scan_pullback(b, a)
    cols = []
    for (i, u) in labels_a:
        k = data_b.index[(i, u @ alpha)]
        cols.append(data_b.coker.project({k: Fraction(1)}))
    return alpha if span_rank(db, cols) < da else None


def _jointly_surjective(x, a, b, dims, limit=None):
    """Whether the images of all pullbacks X(a) -> X(b) span X(b).

    The image of (alpha o sigma)^* is sigma^* of the image of alpha^*, and
    Aut(b) is transitive, so the joint image is the image of one pullback
    closed under the automorphism generators of b.
    """
    da, db = dims[a], dims[b]
    if db == 0:
        return True
    if da == 0:
        return False
    data_b = _eval_data(x, b, limit)
    labels_a = evaluate(x, a, limit).labels
    alpha = _scan_pullback(b, a)
    coker = StreamCoker(db)
    raised = []
    for (i, u) in labels_a:
        k = data_b.index[(i, u @ alpha)]
        col = data_b.coker.project({k: Fraction(1)})
        col = {t: v for t, v in enumerate(col) if v}
        if coker.offer(col):
            if coker.rank == db:
                return True
            raised.append(col)
    coker.close_under(raised, [
        structure_map(x, sigma, limit).apply_sparse
        for sigma in automorphism_generators(b)])
    return coker.rank == db


def omega_order(x, n, family, max_rank, limit=None):
    """Exact growth ratios dim X(T) / n^delta(T) over a systematic sample.

    The sample is every family member generated by at most max_rank
    elements; tail maxima are reported per lower bound on the rank and no
    claim is made beyond the sample.
    """
    if not family.expansive:
        raise FamilyNotExpansive(f"{family!r} is not expansive")
    if family.kind in ("Ep", "Fpn"):
        sample = _scan_members(family, max_rank)
    else:
        sample = [g for g in family.members(family.p ** (family.n
                                                         * max_rank))
                  if g.rank <= max_rank]
    rows = []
    for g in sample:
        d = evaluate_dim(x, g, limit)
        delta = delta_rank(g)
        rows.append((g, d, delta, Fraction(d, n ** delta)))
    tails = []
    for m in range(max_rank + 1):
        vals = [r for (_g, _d, delta, r) in rows if delta >= m]
        if vals:
            tails.append((m, max(vals)))
    return OrderEstimate(n, tuple(rows), tuple(tails))


def qstar_check(x, n, bound, limit=None):
    """Values only depend on the bounded-quotient reflection: verify
    dim X(G) = dim X(q_{<=n} G) with the projection inducing an
    isomorphism, for all members of order <= bound."""
    fam = x.family
    if not (fam.multiplicative and fam.subgroup_closed):
        raise FamilyNotSubmultiplicative(
            f"{fam!r} is not multiplicative and subgroup-closed")
    table = {}
    ok_all = True
    for g in fam.members(max_order=bound):
        q, proj = q_leq_n(g, n, fam, limit)
        mat = structure_map(x, proj, limit)
        ok = (evaluate_dim(x, g, limit) == evaluate_dim(x, q, limit)
              and mat.is_invertible())
        table[g.key()] = {"dim": evaluate_dim(x, g, limit),
                          "q_group": q.key(), "iso": ok}
        ok_all = ok_all and ok
    return {"ok": ok_all, "bound": bound, "n": n, "table": table}


# ---------------------------------------------------------------------------
# transitivity / bijectivity data for the noetherianity criterion


def trans_bij_check(family, bound, limit=None):
    """Transitivity of the automorphism action on surjection sets and
    stabilization of the two-point quotients along the chain.

    Requires the bounded poset of members to be a chain (one isomorphism
    class per comparability level).  For cyclic families the two-point
    quotient is matched against the automorphisms of the target.
    """
    members = family.members(max_order=bound)
    members.sort(key=lambda g: g.sort_key())
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a.order == b.order and a != b:
                raise NotAInfinity(
                    f"{family!r} has incomparable members at order {a.order}")
            lo, hi = (a, b) if a.order <= b.order else (b, a)
            if not quotient_exists(hi, lo):
                raise NotAInfinity(
                    f"no surjections {hi!r} -> {lo!r}: not a chain")
    results = {}
    ok_all = True
    for h in members:
        for g in members:
            if g.order <= h.order or not quotient_exists(g, h):
                continue
            transitive = len(_orbit_structure(g, h)[0]) <= 1
            u2 = _two_point_orbits(g, h)
            row = {"transitive": transitive, "u2": len(u2)}
            if family.kind in ("Cpinf", "Cpn"):
                aut_h = count_epis(h, h)
                row["aut_target"] = aut_h
                row["u2_matches_aut"] = (len(u2) == aut_h)
                ok_all = ok_all and row["u2_matches_aut"]
            ok_all = ok_all and transitive
            results[(g.key(), h.key())] = row
    # lambda stabilization along consecutive chain steps
    lam_ok = True
    for h in members:
        chain = [g for g in members
                 if g.order > h.order and quotient_exists(g, h)]
        chain.sort(key=lambda g: g.order)
        for lo, hi in zip(chain, chain[1:]):
            if not quotient_exists(hi, lo):
                continue
            if not _lambda_bijective(lo, hi, h):
                lam_ok = False
                results[(hi.key(), h.key())]["lambda_bij"] = False
    return {"ok": ok_all and lam_ok, "bound": bound,
            "pairs": {f"{k[0]}|{k[1]}": v for k, v in results.items()},
            "lambda_stable": lam_ok}


def _two_point_orbits(g, h):
    """Orbits of the diagonal automorphism action on pairs of
    surjections g -> h."""
    return set(_two_point_orbit_index(g, h).values())


def _lambda_bijective(lo, hi, h):
    """Whether composing with one fixed surjection hi -> lo embeds the
    two-point orbits bijectively."""
    phi = first_epi(hi, lo)
    epis_lo = enumerate_epis(lo, h)
    down = _two_point_orbit_reps(lo, h)
    up_index = _two_point_orbit_index(hi, h)
    images = set()
    for (fa, fb) in down:
        images.add(up_index[((fa @ phi).matrix, (fb @ phi).matrix)])
    return len(images) == len(down) and len(images) == \
        len(set(up_index.values()))


def _two_point_orbit_reps(g, h):
    epis = enumerate_epis(g, h)
    idx = _two_point_orbit_index(g, h)
    reps = {}
    for fa in epis:
        for fb in epis:
            o = idx[(fa.matrix, fb.matrix)]
            reps.setdefault(o, (fa, fb))
    return list(reps.values())


def _two_point_orbit_index(g, h):
    epis = enumerate_epis(g, h)
    index = {f.matrix: i for i, f in enumerate(epis)}
    n = len(epis)
    gens = automorphism_generators(g)
    moved = [[index[(f @ psi).matrix] for psi in gens] for f in epis]
    roots = orbit_roots(n * n, ((i * n + j, moved[i][k] * n + moved[j][k])
                                for i in range(n) for j in range(n)
                                for k in range(len(gens))))
    return {(fa.matrix, fb.matrix): roots[i * n + j]
            for i, fa in enumerate(epis) for j, fb in enumerate(epis)}
