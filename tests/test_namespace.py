"""The package namespace: what `from repstab import *` binds, and that
the lazy `__getattr__` hands out the submodules' own objects."""

import importlib
import json
import subprocess
import sys

import pytest

import repstab

EXPORTS = {
    "groups": ["GroupType", "Morphism", "group", "cyclic", "trivial_group",
               "make_morphism", "identity_morphism", "is_surjective",
               "enumerate_epis", "iter_epis", "count_epis", "automorphisms",
               "lift_epi"],
    "subgroups": ["Subgroup", "subgroup_from_generators",
                  "enumerate_subgroups", "kernel", "image", "quotient",
                  "normal_quotient_poset", "q_leq_n"],
    "families": ["Family", "all_abelian", "exponent_bounded",
                 "cyclic_family", "free_modules", "elementary", "truncated",
                 "family_contains", "parse_family_spec", "parse_group_spec"],
    "linalg": ["BasedSpace", "QMatrix", "FinitePosetDiagram", "snf_reduce",
               "colimit_of_diagram", "coinvariants"],
    "presentations": ["MorphismCombination", "PresentedObject",
                      "BuiltinObject", "ChiInterval", "free_object",
                      "unit_object", "builtin_to_presentation", "evaluate",
                      "evaluate_dim", "structure_map", "indecomposables_Q",
                      "filtration_L", "base_and_support",
                      "restrict_presentation", "direct_sum",
                      "quotient_by_elements", "torsion_example_a",
                      "torsion_example_b"],
    "monoidal": ["WideSubgroup", "VirtualHom", "enumerate_wide",
                 "count_wide", "tensor_decompose", "enumerate_vhom",
                 "hom_decompose", "hom_dimension", "hom_eval_oracle",
                 "tensor_presentation", "tensor_with_generator",
                 "lmn_bijections_check", "sigma_pullback_check"],
    "towers": ["ColimitTower", "tower_for_family", "colimit_L"],
    "stability": ["StabilityReport", "OrderEstimate", "truncate_tau",
                  "central_stability_degree", "torsion_subspace",
                  "torsion_oracle_via_L", "stability_scan", "omega_order",
                  "qstar_check", "trans_bij_check"],
    "resolutions": ["resolution", "ResolutionLevel"],
    "wqo": ["OrderedLabeledSet", "DagSurjection", "Framing", "ols", "dagger",
            "compose_check", "lex_compare", "find_good_pair",
            "ldag_invariants", "ldag_construct_morphism",
            "tautological_framings", "factor_framing", "is_tautological"],
}
SUBMODULES = ["config", "errors", "families", "groups", "intmat", "linalg",
              "monoidal", "presentations", "resolutions", "stability",
              "subgroups", "towers", "wqo"]
ALL = sorted([name for names in EXPORTS.values() for name in names]
             + SUBMODULES)

# in a fresh interpreter with warnings as errors: a submodule asked for by
# name is imported, then `from repstab import *` binds its names
_STAR_PROBE = """
import json, sys
import repstab
repstab.towers
assert "repstab.towers" in sys.modules and "repstab.wqo" not in sys.modules
ns = {}
exec("from repstab import *", ns)
print(json.dumps(sorted(k for k in ns if k != "__builtins__")))
"""


def test_star_import_binds_exports_and_submodules(subprocess_env):
    assert len(ALL) == len(set(ALL)) == 109
    run = subprocess.run([sys.executable, "-W", "error", "-c", _STAR_PROBE],
                         env=subprocess_env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert json.loads(run.stdout) == ALL
    assert sorted(repstab.__all__) == ALL


def test_exports_are_the_submodule_objects():
    for _ in range(2):   # the first lookup imports, the second is cached
        for module, names in EXPORTS.items():
            mod = importlib.import_module(f"repstab.{module}")
            for name in names:
                assert getattr(repstab, name) is getattr(mod, name), name
        for module in SUBMODULES:
            assert getattr(repstab, module) is \
                importlib.import_module(f"repstab.{module}")


def test_dir_and_unknown_names():
    assert set(ALL) <= set(dir(repstab))
    assert "__version__" in dir(repstab)
    with pytest.raises(AttributeError, match="no_such_name"):
        repstab.no_such_name
    with pytest.raises(ImportError):
        from repstab import no_such_name  # noqa: F401
