"""Colimit towers and the colimit functor computed through them.

A tower is a chain G_0 <- G_1 <- ... inside a family through which the
colimit of any functor can be computed: stage i contributes the
automorphism coinvariants of the value at G_i, and the colimit is the
limit of the induced chain.  Supported rules: (Z/p^n)^i for the bounded
and free families, Z/p^i for the cyclic p-groups, C_p^i for elementary
abelian, and the constant chain for bounded cyclic families.

Every stage is in closed form, with no evaluation.  A tower group G is
homocyclic, so Aut(G) is transitive on each nonempty Epi(G, H)
(`groups.aut_transitive_on_epis`).  The free part sum_i Q[Epi(G, G_i)]
therefore has coinvariants Q^live, one coordinate e_i per generator G_i
that is a quotient of G, the class of (i, u) being e_i.  A relation
column with source H, pulled back along any surjection beta: G -> H, has
the terms (i, mor o beta), so its class is the augmentation of the
column: the vector whose i-th entry is the sum of the coefficients in
entry i, the same for every beta.  Coinvariants are right exact, so the
stage is Q^live modulo the augmentations of the relation sources that
are quotients of G.  The projection G_{i+1} -> G_i sends (i, u) to
(i, u o eps), so the connecting map sends the class of e_i to the class
of e_i.  The evaluate-and-reduce route stays in the test oracles.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import TowerUnavailable, NotStabilized, InvariantViolation
from .groups import (GroupType, make_morphism, aut_transitive_on_epis,
                     quotient_exists)
from .linalg import QMatrix, StreamCoker


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
    """Coinvariants of X at a homocyclic group g: Q^live, kept as one
    coordinate e_i per generator modulo the e_i of the generators that are
    not quotients of g (no label lies over them), modulo the augmentations
    of the relation columns whose source is a quotient of g."""

    __slots__ = ("coker", "dim")

    def __init__(self, x, g):
        if not aut_transitive_on_epis(g):
            raise InvariantViolation(
                f"{g!r} is no tower group: Aut is not transitive on its "
                "surjection sets")
        self.coker = StreamCoker(len(x.generators))
        for i, gen in enumerate(x.generators):
            if not quotient_exists(g, gen):
                self.coker.offer({i: Fraction(1)})
        for h, col in zip(x.rel_sources, x.columns):
            if quotient_exists(g, h):
                self.coker.offer({i: sum(c for _mor, c in entry.terms)
                                  for i, entry in enumerate(col)
                                  if entry is not None})
        self.dim = len(x.generators) - self.coker.rank

    def project(self, pairs):
        """Coordinates of the class of the sum of val * e_i over (i, val)."""
        weights = {}
        for i, val in pairs:
            weights[i] = weights.get(i, 0) + val
        return self.coker.project(weights)


def _connecting(lo, hi):
    """Matrix of the induced coinvariants map: e_i goes to e_i."""
    cols = [hi.project([(i, Fraction(1))]) for i in lo.coker.surviving()]
    return QMatrix(hi.dim, lo.dim,
                   tuple(tuple(c[r] for c in cols) for r in range(hi.dim)))


def colimit_tower_stages(x, tower, window=2, max_stage=8):
    """Coinvariant dimensions and connecting maps along the tower.

    Returns (stages, maps, stabilized_at): stabilized_at is the first
    stage opening a run of `window` consecutive stages linked by
    isomorphisms, or None.
    """
    if max_stage < 0:
        raise NotStabilized(f"max_stage {max_stage} leaves no tower stage")
    stages = []
    for i in range(max_stage + 1):
        g = tower.group(i)
        if not x.family.contains(g):
            raise TowerUnavailable(f"tower stage {g!r} escapes the family")
        stages.append(_Stage(x, g))
    maps = [_connecting(stages[i], stages[i + 1]) for i in range(max_stage)]
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
