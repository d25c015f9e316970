"""Colimit towers and the colimit functor computed through them.

A tower is a chain G_0 <- G_1 <- ... inside a family through which the
colimit of any functor can be computed: stage i contributes the
automorphism coinvariants of the value at G_i, and the colimit is the
limit of the induced chain.  Supported rules: (Z/p^n)^i for the bounded
and free families, Z/p^i for the cyclic p-groups, C_p^i for elementary
abelian, and the constant chain for bounded cyclic families.

Relation-free presentations get two fast paths.  For moderate surjection
sets the automorphisms permute the (generator, surjection) basis and
coinvariants are orbit counts.  For large sets we use that every tower
group is a free module or cyclic, so automorphisms act transitively on
each nonempty surjection set (`groups.aut_transitive_on_epis`); the
coinvariants are then one dimension per live generator.  The two routes
are cross-checked in the test suite.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import TowerUnavailable, InvariantViolation
from .groups import (GroupType, make_morphism, automorphism_generators,
                     aut_transitive_on_epis, hom_candidate_count,
                     orbit_roots, quotient_exists)
from .linalg import QMatrix, coinvariants_data
from .presentations import evaluate, structure_map, _eval_data

_PERM_LABEL_LIMIT = 20000
# tower stage groups may exceed the interactive desk bound; their cost is
# governed by the stage budget and the candidate guards instead
_STAGE_ORDER_LIMIT = 2 ** 62


@dataclass(frozen=True)
class ColimitTower:
    family: object
    rule: str      # "product" | "cyclic" | "constant"

    def group(self, i):
        p = self.family.p
        if self.rule == "product":
            n = self.family.n if self.family.kind in ("Zpn", "Fpn") else 1
            return GroupType(p, (n,) * i) if i else GroupType(p, ())
        if self.rule == "cyclic":
            return GroupType(p, (i,)) if i else GroupType(p, ())
        return GroupType(p, (self.family.n,))

    def projection(self, i):
        """Canonical surjection group(i+1) -> group(i)."""
        src, dst = self.group(i + 1), self.group(i)
        rows = [[1 if j == k else 0 for j in range(src.rank)]
                for k in range(dst.rank)]
        return make_morphism(src, dst, rows)


def tower_for_family(family):
    if family.kind in ("Zpn", "Fpn", "Ep"):
        return ColimitTower(family, "product")
    if family.kind == "Cpinf":
        return ColimitTower(family, "cyclic")
    if family.kind == "Cpn":
        return ColimitTower(family, "constant")
    raise TowerUnavailable(f"no canonical tower for {family!r}")


class _Stage:
    """Coinvariants of X at one tower group."""

    __slots__ = ("group", "mode", "dim", "labels", "index", "orbit_of",
                 "space_dim", "project_fn", "lifts", "live")

    def __init__(self, x, g):
        self.group = g
        self.live = None
        self.labels = self.index = self.orbit_of = None
        self.project_fn = self.lifts = self.space_dim = None
        if not x.rel_sources:
            total = sum(hom_candidate_count(g, gen)
                        for gen in x.generators if quotient_exists(g, gen))
            if total > _PERM_LABEL_LIMIT and aut_transitive_on_epis(g):
                self.mode = "transitive"
                self.live = [i for i, gen in enumerate(x.generators)
                             if quotient_exists(g, gen)]
                self.dim = len(self.live)
                return
            self._init_perm(x, g)
            return
        self._init_generic(x, g)

    def _init_perm(self, x, g):
        data = _eval_data(x, g, _STAGE_ORDER_LIMIT)
        labels = data.space.labels
        index = {lab: i for i, lab in enumerate(labels)}
        found = orbit_roots(len(labels), (
            (pos, index[(i, u @ psi)])
            for psi in automorphism_generators(g)
            for pos, (i, u) in enumerate(labels)))
        roots = {}
        orbit_of = []
        for r in found:
            if r not in roots:
                roots[r] = len(roots)
            orbit_of.append(roots[r])
        self.mode = "perm"
        self.labels = labels
        self.index = index
        self.orbit_of = orbit_of
        self.dim = len(roots)
        self.space_dim = len(labels)
        lifts = {}
        for pos, orb in enumerate(orbit_of):
            lifts.setdefault(orb, pos)
        self.lifts = [lifts[o] for o in range(self.dim)]
        self.live = sorted({labels[pos][0] for pos in range(len(labels))})

    def _init_generic(self, x, g):
        sp = evaluate(x, g, _STAGE_ORDER_LIMIT)
        mats = [structure_map(x, psi, _STAGE_ORDER_LIMIT)
                for psi in automorphism_generators(g)]
        space, coker = coinvariants_data(sp, mats)
        self.mode = "generic"
        self.dim = space.dim
        self.space_dim = sp.dim
        self.project_fn = coker.project
        self.lifts = coker.surviving()

    def project(self, vec):
        if self.mode == "perm":
            out = [Fraction(0)] * self.dim
            for pos, val in enumerate(vec):
                if val:
                    out[self.orbit_of[pos]] += val
            return tuple(out)
        if self.mode == "generic":
            return self.project_fn({i: v for i, v in enumerate(vec) if v})
        raise RuntimeError("transitive stages carry no explicit vectors")


def _connecting(x, tower, i, lo, hi):
    """Matrix of the induced coinvariants map, stage i -> stage i+1."""
    eps = tower.projection(i)
    if lo.mode == "transitive" or hi.mode == "transitive":
        # both stages reduce to one dimension per live generator; the
        # induced map sends a generator class to the same generator class
        lo_live = lo.live
        hi_live = hi.live
        if lo_live is None or hi_live is None:
            raise TowerUnavailable("mixed stage modes need generator data")
        # tower groups are free or cyclic, so the action on each nonempty
        # surjection set is transitive; a permuted stage must agree
        for st in (lo, hi):
            if not aut_transitive_on_epis(st.group) or st.dim != len(st.live):
                raise InvariantViolation(
                    f"{st.group!r}: {st.dim} orbits for {len(st.live)} "
                    "live generators")
        pos_hi = {gen: k for k, gen in enumerate(hi_live)}
        mat = [[Fraction(0)] * len(lo_live) for _ in range(len(hi_live))]
        for col, gen in enumerate(lo_live):
            mat[pos_hi[gen]][col] = Fraction(1)
        return QMatrix(len(hi_live), len(lo_live),
                       tuple(tuple(r) for r in mat))
    if lo.mode == "perm" and hi.mode == "perm":
        mat = [[Fraction(0)] * lo.dim for _ in range(hi.dim)]
        for orb in range(lo.dim):
            gen_i, u = lo.labels[lo.lifts[orb]]
            tpos = hi.index[(gen_i, u @ eps)]
            mat[hi.orbit_of[tpos]][orb] += 1
        return QMatrix(hi.dim, lo.dim, tuple(tuple(r) for r in mat))
    smap = structure_map(x, eps, _STAGE_ORDER_LIMIT)
    cols = []
    for pos in lo.lifts:
        vec = [Fraction(0)] * lo.space_dim
        vec[pos] = Fraction(1)
        cols.append(hi.project(smap.apply(vec)))
    rows = tuple(tuple(cols[j][r] for j in range(len(cols)))
                 for r in range(hi.dim))
    return QMatrix(hi.dim, len(cols), rows)


def colimit_tower_stages(x, tower, window=2, max_stage=8):
    """Coinvariant dimensions and connecting maps along the tower.

    Returns (stages, maps, stabilized_at): stabilized_at is the first
    stage opening a run of `window` consecutive stages linked by
    isomorphisms, or None.
    """
    stages = []
    for i in range(max_stage + 1):
        g = tower.group(i)
        if not x.family.contains(g):
            raise TowerUnavailable(f"tower stage {g!r} escapes the family")
        stages.append(_Stage(x, g))
    maps = [_connecting(x, tower, i, stages[i], stages[i + 1])
            for i in range(max_stage)]
    # the tail must form a run of `window` stages linked by isomorphisms;
    # an initial dead zone of empty stages must not count as stabilization
    need = max(window - 1, 1)
    stabilized_at = None
    if max_stage >= need and all(maps[j].is_invertible()
                                 for j in range(max_stage - need,
                                                max_stage)):
        stabilized_at = max_stage - need
    return stages, maps, stabilized_at


def colimit_L(x, tower, window=2, max_stage=8):
    """Colimit dimension through the tower with a stabilization flag.

    Reports the final stage dimension once the last `window` stages agree
    via isomorphisms; otherwise the last dimension is reported with
    stabilized=False rather than a false claim of exactness.
    """
    stages, maps, stab = colimit_tower_stages(x, tower, window, max_stage)
    return stages[-1].dim, stab is not None
