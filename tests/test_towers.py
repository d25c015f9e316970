import pytest

from repstab.groups import group, cyclic, trivial_group, quotient_exists
from repstab.families import (Family, all_abelian, exponent_bounded,
                              cyclic_family, free_modules, elementary)
from repstab.presentations import (free_object, builtin_to_presentation,
                                   BuiltinObject, direct_sum,
                                   restrict_presentation, torsion_example_a,
                                   torsion_example_b)
from repstab.towers import tower_for_family, colimit_L, colimit_tower_stages
from repstab.monoidal import tensor_presentation, tensor_with_generator
from repstab.errors import TowerUnavailable, NotStabilized

from oracles import coinvariant_stages_bruteforce

C2 = cyclic(2, 1)
C3 = cyclic(3, 1)


def test_tower_rules():
    te = tower_for_family(elementary(2))
    assert te.group(3) == group(2, [1, 1, 1])
    tz = tower_for_family(exponent_bounded(2, 2))
    assert tz.group(2) == group(2, [2, 2])
    tc = tower_for_family(cyclic_family(2))
    assert tc.group(4) == cyclic(2, 4)
    tk = tower_for_family(Family("Cpn", 2, 3))
    assert tk.group(5) == cyclic(2, 3)  # constant chain
    with pytest.raises(TowerUnavailable):
        tower_for_family(all_abelian(2))


def test_tower_conditions_spot_checks():
    # (a): every member receives a surjection from a deep enough stage
    fam = exponent_bounded(2, 2)
    tw = tower_for_family(fam)
    for g in fam.members(16):
        assert any(quotient_exists(tw.group(i), g) for i in range(5))
    # projections are canonical surjections
    eps = tw.projection(2)
    assert eps.source == tw.group(3) and eps.target == tw.group(2)
    from repstab.groups import is_surjective
    assert is_surjective(eps)


@pytest.mark.parametrize("fam,g", [
    (elementary(2), group(2, [1, 1])),
    (elementary(3), cyclic(3, 1)),
    (cyclic_family(2), cyclic(2, 2)),
    (exponent_bounded(2, 2), group(2, [2, 1])),
    (free_modules(2, 2), group(2, [2, 2])),
])
def test_colimit_of_generator_is_one_dimensional(fam, g):
    x = free_object(fam, g)
    dim, stab = colimit_L(x, tower_for_family(fam), window=2,
                          max_stage=max(4, sum(g.exponents) + 2))
    assert (dim, stab) == (1, True)


def test_colimit_of_coinduced_vanishes():
    c2inf = cyclic_family(2)
    t1 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=trivial_group(2)), 8)
    assert colimit_L(t1, tower_for_family(c2inf), 2, 6) == (0, True)


def test_colimit_additive_on_tensor_of_generators():
    e2fam = elementary(2)
    tp = tensor_presentation(C2, C2, e2fam)
    assert colimit_L(tp, tower_for_family(e2fam), 2, 5) == (2, True)
    s = direct_sum(free_object(e2fam, C2), free_object(e2fam, C2))
    assert colimit_L(s, tower_for_family(e2fam), 2, 5) == (2, True)


E2, E3 = elementary(2), elementary(3)
F3_2 = exponent_bounded(3, 2)


def _stage_cases():
    """(id, object, family, max_stage): free objects in every tower family,
    restrictions, builtins, a direct sum and tensored objects."""
    misc_a = {fam: restrict_presentation(torsion_example_a(3), fam)
              for fam in (E3, F3_2)}
    return [
        ("e(C2^2)-E2", free_object(E2, group(2, [1, 1])), E2, 3),
        ("e(C4xC2)-Zpn:2,2", free_object(exponent_bounded(2, 2),
                                         group(2, [2, 1])),
         exponent_bounded(2, 2), 2),
        ("e(C4)-Fpn:2,2", free_object(free_modules(2, 2), cyclic(2, 2)),
         free_modules(2, 2), 3),
        ("e(C4)-Cpinf:2", free_object(cyclic_family(2), cyclic(2, 2)),
         cyclic_family(2), 4),
        ("e(C4)-Cpn:2,3", free_object(Family("Cpn", 2, 3), cyclic(2, 2)),
         Family("Cpn", 2, 3), 3),
        ("misc-a(3)-E3", misc_a[E3], E3, 3),
        ("misc-a(3)-Zpn:3,2", misc_a[F3_2], F3_2, 3),
        ("misc-b-E2", restrict_presentation(torsion_example_b(), E2), E2, 4),
        ("t(1)-Cpinf:2", builtin_to_presentation(
            BuiltinObject("t_triv", cyclic_family(2),
                          group=trivial_group(2)), 8), cyclic_family(2), 5),
        ("s(C2)-E2", builtin_to_presentation(
            BuiltinObject("s_triv", E2, group=C2), 16), E2, 4),
        ("c(C2^2)-E2", builtin_to_presentation(
            BuiltinObject("c", E2, group=group(2, [1, 1])), 16), E2, 4),
        ("e(C2)(x)e(C2)-E2", tensor_presentation(C2, C2, E2), E2, 3),
        ("e(C2)+e(C2^2)-E2", direct_sum(free_object(E2, C2),
                                        free_object(E2, group(2, [1, 1]))),
         E2, 3),
        ("e(C3)(x)misc-a(3)-E3", tensor_with_generator(C3, misc_a[E3]),
         E3, 3),
        ("e(C3)(x)misc-a(3)-Zpn:3,2",
         tensor_with_generator(C3, misc_a[F3_2]), F3_2, 3),
    ]


_CASES = _stage_cases()


@pytest.mark.parametrize("x,fam,max_stage", [c[1:] for c in _CASES],
                         ids=[c[0] for c in _CASES])
def test_stages_agree_with_evaluation_oracle(x, fam, max_stage):
    # the closed form against evaluating X at every stage and reducing
    # the structure maps of the automorphism generators
    tower = tower_for_family(fam)
    stages, maps, stab = colimit_tower_stages(x, tower, 2, max_stage)
    dims, ranks = coinvariant_stages_bruteforce(x, tower, max_stage)
    assert [st.dim for st in stages] == dims
    assert [m.rank() for m in maps] == ranks
    invertible = [r == dims[i] == dims[i + 1] for i, r in enumerate(ranks)]
    assert [m.is_invertible() for m in maps] == invertible
    assert stab == (max_stage - 1 if invertible[-1] else None)


def test_negative_stage_budget_is_typed():
    x = free_object(E2, C2)
    with pytest.raises(NotStabilized):
        colimit_L(x, tower_for_family(E2), 2, -1)


def test_unstabilized_reported_honestly():
    # too small a stage budget must not claim exactness
    fam = cyclic_family(2)
    x = free_object(fam, cyclic(2, 4))
    dim, stab = colimit_L(x, tower_for_family(fam), window=2, max_stage=4)
    assert stab is False
