"""Exact computations with families of finite abelian p-groups.

The package models the category of finite abelian p-groups with
surjections, contravariant functors from it to rational vector spaces
given by finite presentations, the wide-subgroup tensor and virtual-hom
decompositions of representables, torsion and bounded-range stability
scans, and the ordered-labeled-set combinatorics behind the noetherianity
arguments.  Everything is exact: integers, Fractions, no floats.
"""

from .groups import (GroupType, Morphism, group, cyclic, trivial_group,
                     make_morphism, identity_morphism, is_surjective,
                     enumerate_epis, iter_epis, count_epis, automorphisms,
                     lift_epi)
from .subgroups import (Subgroup, subgroup_from_generators,
                        enumerate_subgroups, kernel, image, quotient,
                        normal_quotient_poset, q_leq_n)
from .families import (Family, all_abelian, exponent_bounded, cyclic_family,
                       free_modules, elementary, truncated, family_contains,
                       parse_family_spec, parse_group_spec)
from .linalg import (BasedSpace, QMatrix, FinitePosetDiagram, snf_reduce,
                     colimit_of_diagram, coinvariants)
from .presentations import (MorphismCombination, PresentedObject,
                            BuiltinObject, ChiInterval, free_object,
                            unit_object, builtin_to_presentation, evaluate,
                            evaluate_dim, structure_map, indecomposables_Q,
                            filtration_L, base_and_support,
                            restrict_presentation, direct_sum,
                            quotient_by_elements, torsion_example_a,
                            torsion_example_b)
from .monoidal import (WideSubgroup, VirtualHom, enumerate_wide, count_wide,
                       tensor_decompose, enumerate_vhom, hom_decompose,
                       hom_dimension, hom_eval_oracle, tensor_presentation,
                       tensor_with_generator, lmn_bijections_check,
                       sigma_pullback_check)
from .towers import ColimitTower, tower_for_family, colimit_L
from .stability import (StabilityReport, OrderEstimate, truncate_tau,
                        central_stability_degree, torsion_subspace,
                        torsion_oracle_via_L, stability_scan, omega_order,
                        qstar_check, trans_bij_check)
from .resolutions import resolution, ResolutionLevel
from .wqo import (OrderedLabeledSet, DagSurjection, Framing, ols, dagger,
                  compose_check, lex_compare, find_good_pair,
                  ldag_invariants, ldag_construct_morphism,
                  tautological_framings, factor_framing, is_tautological)
from . import errors

__version__ = "0.1.0"
