"""Projective resolutions over a truncated family.

Within the finite subcategory of members of order <= group_bound, every
finite-type object has a resolution by finite sums of representable
generators.  The canonical variant covers each value by one generator per
basis vector; the minimal variant covers module generators of the
indecomposable residue over the automorphism action, and asserts that the
differentials vanish under the indecomposables functor (no isomorphism
components; in a free module the decomposable part is spanned exactly by
the non-isomorphism basis maps).

With the trivial-coefficient projectives used here, the vanishing can
genuinely fail for objects whose indecomposable residues are non-free
automorphism modules (coinvariant style objects); the assertion then
raises instead of silently returning a non-minimal answer.
"""

from dataclasses import dataclass

from .errors import DepthExceeded
from .families import truncated
from .presentations import (functor_of_presentation,
                            restrict_presentation, _cover, kernel_functor,
                            relation_columns)


@dataclass(frozen=True)
class ResolutionLevel:
    index: int
    generators: tuple        # group types of the free cover at this level
    differential: tuple      # columns of MorphismCombination | None rows


def resolution(x, group_bound, depth, minimal=True):
    """Projective resolution of x over the members of order <= group_bound.

    Returns a list of ResolutionLevel; level k's differential maps its
    free cover into level k-1 (level 0's maps onto x itself, encoded as
    entries over the level-0 generators only when k > 0; for k = 0 the
    `differential` holds the chosen covering vectors, sparse dicts
    {basis position: 1} in the value of x at each generator).
    """
    fam = x.family
    bounded = truncated(fam, group_bound) if not _already_bounded(
        fam, group_bound) else fam
    xb = restrict_presentation(x, bounded) if bounded is not fam else x
    fun = functor_of_presentation(xb)
    levels = []
    gens = _cover(fun, group_bound, minimal)
    levels.append(ResolutionLevel(0, tuple(g for g, _v in gens),
                                  tuple(v for _g, v in gens)))
    current_fun, current_gens = fun, gens
    for k in range(1, depth + 1):
        kfun, kbasis = kernel_functor(current_fun, current_gens)
        rel_gens = _cover(kfun, group_bound, minimal)
        if not rel_gens:
            return levels
        diff = relation_columns(kbasis, rel_gens,
                                [g for g, _v in current_gens])
        if minimal:
            _assert_no_iso_terms(diff)
        levels.append(ResolutionLevel(
            k, tuple(g for g, _v in rel_gens), tuple(diff)))
        current_fun, current_gens = kfun, rel_gens
    # one more kernel tells us whether the resolution actually terminated
    kfun, _kb = kernel_functor(current_fun, current_gens)
    if _cover(kfun, group_bound, minimal):
        raise DepthExceeded(f"resolution not finished at depth {depth}")
    return levels


def _already_bounded(family, bound):
    return family.kind == "TruncatedLeq" and family.bound <= bound


def _assert_no_iso_terms(diff_columns):
    """In a free module the decomposable part is spanned by the non-iso
    basis maps, so vanishing under the indecomposables functor is exactly
    the absence of isomorphism terms.  Objects whose indecomposable
    residues are not free modules over the automorphism groups cannot have
    this property with plain representable covers (that would need
    coefficient-module projectives); they are rejected here instead of
    silently returning a non-minimal answer."""
    for col in diff_columns:
        for entry in col:
            if entry is None:
                continue
            for mor, coeff in entry.terms:
                if mor.source.order == mor.target.order and coeff:
                    raise DepthExceeded(
                        "minimal resolution impossible with plain "
                        "representable covers: an automorphism-twisted "
                        "residue forces an isomorphism component")
