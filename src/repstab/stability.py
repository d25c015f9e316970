"""Truncation, torsion detection, and bounded-range stability scans.

Every "eventually" style verdict here is a bounded-range report carrying
the range it was verified on; nothing extrapolates beyond the scanned
groups.  Scans and torsion walk the chain `ColimitTower.group` of the
family's tower; its groups are homocyclic, so one surjection onto a group
stands for all of them (`groups.aut_transitive_on_epis`).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (TowerUnavailable, NotStabilized, NotAInfinity,
                     FamilyUnsupported, FamilyNotExpansive,
                     FamilyNotSubmultiplicative, InvariantViolation)
from .groups import (Morphism, make_morphism, enumerate_epis, first_epi,
                     count_epis, quotient_exists,
                     aut_transitive_on_epis, automorphism_generators,
                     orbit_roots, section)
from .linalg import (BasedSpace, QMatrix, FinitePosetDiagram,
                     colimit_of_diagram, StreamCoker, span_rank,
                     sparse_kernel)
from .subgroups import quotient, normal_quotient_poset, q_leq_n
from .presentations import (evaluate, evaluate_dim, structure_map,
                            _eval_data, restrict_presentation,
                            _orbit_structure)
from .towers import colimit_tower_stages, tower_for_family

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
        cols.append(mat.columns[nodes[node_idx].labels.index(lab)])
    return colim, QMatrix(xg.dim, colim.dim, tuple(cols))


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
    failed = set()
    for n in ns:
        for g in members:
            colim, counit = truncate_tau(x, n, g, limit)
            xg_dim = evaluate_dim(x, g, limit)
            ok = (colim.dim == xg_dim and counit.rank() == xg_dim)
            row = table.setdefault(g.key(), {"dim": xg_dim})
            row[f"tau_iso({n})"] = ok
            if not ok:
                failed.add(n)
    degree = _stable_from(ns, failed)
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


def torsion_subspace(x, g, tower, max_stage=6, limit=None):
    """Vectors of X(g) killed by pullback to deep tower stages.

    Returns (BasedSpace whose labels are the torsion basis vectors in X(g)
    coordinates, exhausted flag).  Exhausted means two consecutive stages
    agreed; for finitely presented objects the union then remains stable.
    Each stage pulls back along its first surjection onto g: for sigma in
    the transitive Aut of the stage, (alpha o sigma)^* = sigma^* o alpha^*
    has the kernel of alpha^*, and the labels depend only on the kernel.
    """
    dim = evaluate_dim(x, g, limit)
    stages = []
    for stage in range(max_stage + 1):
        t = tower.group(stage)
        if not x.family.contains(t):
            raise TowerUnavailable(
                f"tower stage {t!r} escapes {x.family!r}")
        alpha = first_epi(t, g)
        if alpha is None:
            continue
        mat = structure_map(x, alpha, limit or _STAGE_ORDER_LIMIT)
        stages.append(sparse_kernel(mat)[0])
    if not stages:
        return BasedSpace(0, ()), False
    basis = stages[-1]
    # the kernels increase along the tower; certify only when the last two
    # computed stages span the same subspace (a bounded-scan certificate,
    # valid because finitely generated torsion is eventually exhausted)
    exhausted = False
    if len(stages) >= 2:
        prev, last = stages[-2], stages[-1]
        exhausted = (len(prev) == len(last)
                     and span_rank(dim, prev + last) == len(prev))
    # labels must be hashable: dense coordinate tuples
    space = BasedSpace(len(basis), tuple(
        tuple(vec.get(j, Fraction(0)) for j in range(dim)) for vec in basis))
    return space, exhausted


def torsion_oracle_via_L(x, g, vec, tower, window=2, max_stage=5,
                         limit=None):
    """Torsion test through the colimit: the element in question is
    torsion exactly when its unit tensor dies in the colimit of the
    tensor with its own representable.

    `vec` is a dense coordinate tuple on the X(g) basis, the form of the
    `torsion_subspace` labels.  Returns True as soon as the
    image vanishes at some stage; returns False when the tower stages
    stabilize with the image still nonzero; raises NotStabilized if the
    window is never reached.
    """
    from .monoidal import tensor_with_generator_data
    sparse = {j: v for j, v in enumerate(vec) if v}
    if not sparse:
        return True
    # a simple tensor [alpha] (x) alpha^*(v) vanishes exactly when the
    # right factor does, so stagewise death is visible on x alone, and
    # along any one surjection from the stage, as in `torsion_subspace`
    last_stage = None
    for m in range(max_stage + 1):
        alpha = first_epi(tower.group(m), g)
        if alpha is None:
            continue
        if not structure_map(x, alpha,
                             limit or _STAGE_ORDER_LIMIT).apply(sparse):
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
    return not stages[max_stage].project(
        _unit_tensor_slots(x, g, sparse, gen_data, limit))


def _unit_tensor_slots(x, g, vec, gen_data, limit=None):
    """(slot, value) pairs of 1_g (x) v, for v a sparse vector of X(g), in
    the tensored presentation: the label (i, u) of X(g) lies in the
    generator slot whose wide subgroup of g x G_i is the graph of u."""
    from .monoidal import Product, _generator_slot
    from .subgroups import subgroup_from_generators
    labels = _eval_data(x, g, limit).space.labels
    units = [tuple(1 if t == k else 0 for t in range(g.rank))
             for k in range(g.rank)]
    for pos, val in vec.items():
        i, u = labels[pos]
        prod = Product.of(g, x.generators[i])
        img = subgroup_from_generators(
            prod.group, [prod.embed(unit, u(unit)) for unit in units])
        yield _generator_slot(gen_data, i, img), Fraction(val)


# ---------------------------------------------------------------------------
# scans


_SCAN_FAMILIES = ("Cpinf", "Fpn", "Ep")


def _stable_from(items, failed):
    """The first of `items` from which no later item is in `failed`."""
    for i, item in enumerate(items):
        if failed.isdisjoint(items[i:]):
            return item
    return None


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
    # (Z/p^n)^r for Fpn and Ep; Z/p^r for Cpinf, the exponent playing the
    # role of the rank budget
    tower = tower_for_family(restricted_family)
    members = [tower.group(r) for r in range(max_rank + 1)]
    dims = {g: evaluate_dim(xr, g, limit) for g in members}
    table = {g.key(): {"dim": dims[g]} for g in members}

    # a chain: each member is a quotient of every later one
    inj_fail = {}
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            wit = _first_noninjective(xr, a, b, dims, limit)
            if wit is not None:
                inj_fail[a] = (b, wit)
                break
    surj_fail = {}
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if not _jointly_surjective(xr, a, b, dims, limit):
                surj_fail[a] = b
                break
    orders = [a.order for a in members]
    etf = _stable_from(orders, {a.order for a in inj_fail})
    stably = _stable_from(orders, {a.order for a in surj_fail})
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
    if dims[a] == 0:
        return None
    alpha = _scan_pullback(b, a)
    return alpha if structure_map(x, alpha, limit).rank() < dims[a] else None


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
    coker = StreamCoker(db)
    raised = []
    for col in structure_map(x, _scan_pullback(b, a), limit).columns:
        if coker.offer(col):
            if coker.rank == db:
                return True
            raised.append(col)
    coker.close_under(raised, [
        structure_map(x, sigma, limit).apply
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
        tower = tower_for_family(family)
        sample = [tower.group(r) for r in range(max_rank + 1)]
    elif family.n is None:
        raise FamilyUnsupported(
            f"{family!r} has unbounded exponents: its members of rank <= "
            f"{max_rank} are infinitely many")
    else:
        sample = [g for g in family.members(family.p ** (family.n
                                                         * max_rank))
                  if g.rank <= max_rank]
    rows = []
    for g in sample:
        d = evaluate_dim(x, g, limit)
        delta = g.rank   # minimal number of generators
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
    quotient is matched against the automorphisms of the target.  `limit`
    bounds the number of surjection pairs indexed, sum |Epi(g, h)|^2.
    """
    from . import config
    members = family.members(max_order=bound)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a.order == b.order:
                raise NotAInfinity(
                    f"{family!r} has incomparable members at order {a.order}")
            if not quotient_exists(b, a):
                raise NotAInfinity(
                    f"no surjections {b!r} -> {a!r}: not a chain")
    # a chain: every later member surjects onto every earlier one
    config.check_candidates(
        sum(count_epis(g, h) ** 2 for i, h in enumerate(members)
            for g in members[i + 1:]), limit, what="two-point orbit scan")
    pairs = {}
    ok = lam_ok = True
    for i, h in enumerate(members):
        prev = prev_index = None
        for g in members[i + 1:]:
            index = _two_point_orbit_index(g, h)
            row = {"transitive": len(_orbit_structure(g, h)[0]) <= 1,
                   "u2": len(set(index.values()))}
            ok = ok and row["transitive"]
            if family.kind in ("Cpinf", "Cpn"):
                row["aut_target"] = count_epis(h, h)
                row["u2_matches_aut"] = row["u2"] == row["aut_target"]
                ok = ok and row["u2_matches_aut"]
            # lambda stabilization along the chain step g -> prev
            if prev is not None and not _lambda_bijective(
                    first_epi(g, prev), h, prev_index, index):
                lam_ok = row["lambda_bij"] = False
            pairs[f"{g.key()}|{h.key()}"] = row
            prev, prev_index = g, index
    return {"ok": ok and lam_ok, "bound": bound, "pairs": pairs,
            "lambda_stable": lam_ok}


def _lambda_bijective(phi, h, down, up):
    """Whether precomposing with phi: hi -> lo maps the two-point orbits at
    lo bijectively onto those at hi.

    `down` and `up` are the `_two_point_orbit_index` of lo and hi over h;
    each orbit at lo is represented by its first pair in `down`.
    """
    reps = {}
    for pair, root in down.items():
        reps.setdefault(root, pair)
    images = {up[tuple((Morphism(phi.target, h, f) @ phi).matrix
                       for f in pair)] for pair in reps.values()}
    return len(images) == len(reps) == len(set(up.values()))


def _two_point_orbit_index(g, h):
    """Orbit root of every pair of surjections g -> h under the diagonal
    Aut(g) action, keyed by the two matrices in enumeration order."""
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
