"""Exact computations with families of finite abelian p-groups.

The package models the category of finite abelian p-groups with
surjections, contravariant functors from it to rational vector spaces
given by finite presentations, the wide-subgroup tensor and virtual-hom
decompositions of representables, torsion and bounded-range stability
scans, and the ordered-labeled-set combinatorics behind the noetherianity
arguments.  Everything is exact: integers, Fractions, no floats.

The namespace is lazy (PEP 562): `import repstab` loads no submodule, and
the first use of an exported name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "groups": ("GroupType", "Morphism", "group", "cyclic", "trivial_group",
               "make_morphism", "identity_morphism", "is_surjective",
               "enumerate_epis", "iter_epis", "count_epis", "automorphisms",
               "lift_epi"),
    "subgroups": ("Subgroup", "subgroup_from_generators",
                  "enumerate_subgroups", "kernel", "image", "quotient",
                  "normal_quotient_poset", "q_leq_n"),
    "families": ("Family", "all_abelian", "exponent_bounded",
                 "cyclic_family", "free_modules", "elementary", "truncated",
                 "family_contains", "parse_family_spec", "parse_group_spec"),
    "linalg": ("BasedSpace", "QMatrix", "FinitePosetDiagram",
               "colimit_of_diagram"),
    "presentations": ("MorphismCombination", "PresentedObject",
                      "BuiltinObject", "ChiInterval", "free_object",
                      "unit_object", "builtin_to_presentation", "evaluate",
                      "evaluate_dim", "structure_map", "indecomposables_Q",
                      "filtration_L", "base_and_support",
                      "restrict_presentation", "direct_sum",
                      "quotient_by_elements", "torsion_example_a",
                      "torsion_example_b"),
    "monoidal": ("WideSubgroup", "VirtualHom", "enumerate_wide",
                 "count_wide", "tensor_decompose", "enumerate_vhom",
                 "hom_decompose", "hom_dimension", "hom_eval_oracle",
                 "tensor_presentation", "tensor_with_generator",
                 "lmn_bijections_check", "sigma_pullback_check"),
    "towers": ("ColimitTower", "tower_for_family", "colimit_L"),
    "stability": ("StabilityReport", "OrderEstimate", "truncate_tau",
                  "central_stability_degree", "torsion_subspace",
                  "torsion_oracle_via_L", "stability_scan", "omega_order",
                  "qstar_check", "trans_bij_check"),
    "resolutions": ("resolution", "ResolutionLevel"),
    "wqo": ("OrderedLabeledSet", "DagSurjection", "Framing", "ols", "dagger",
            "compose_check", "lex_compare", "find_good_pair",
            "ldag_invariants", "ldag_construct_morphism",
            "tautological_framings", "factor_framing", "is_tautological"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
_SUBMODULES = ("config", "errors", "families", "groups", "intmat", "linalg",
               "monoidal", "presentations", "resolutions", "stability",
               "subgroups", "towers", "wqo")

__all__ = sorted([*_OWNER, *_SUBMODULES])


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
