import random
from fractions import Fraction

import pytest

from repstab.groups import (group, cyclic, trivial_group, make_morphism,
                            enumerate_epis, automorphisms, identity_morphism,
                            quotient_exists)
from repstab.families import all_abelian, cyclic_family, elementary
from repstab.presentations import (PresentedObject,
                                   free_object, unit_object, evaluate,
                                   evaluate_dim, structure_map,
                                   indecomposables_Q, filtration_L,
                                   base_and_support, BuiltinObject,
                                   ChiInterval, builtin_to_presentation,
                                   restrict_presentation, direct_sum,
                                   quotient_by_elements, torsion_example_a,
                                   torsion_example_b,
                                   _eval_data, functor_of_presentation,
                                   kernel_functor, _cover,
                                   _coinduced_functor, _chi_functor)
from repstab.errors import NotInFamily, NotSurjective, ScaleExceeded
from repstab.cli import parse_object_spec

from oracles import (dense_columns, dense_evaluate_dim, normalized_pivots,
                     relation_span_bruteforce, simple_presentation_bruteforce)

C2 = cyclic(2, 1)
C4 = cyclic(2, 2)
C22 = group(2, [1, 1])
C3 = cyclic(3, 1)
C9 = cyclic(3, 2)
Z2 = all_abelian(2)
Z3 = all_abelian(3)


def delta(g):
    return g.rank


def test_misc_a_dimension_table():
    x = torsion_example_a(3)
    for g in Z3.members(81):
        want = 0 if delta(g) == 0 else (2 if delta(g) == 1 else 1)
        assert evaluate_dim(x, g) == want, g


def test_misc_b_dimension_table():
    y = torsion_example_b()
    expected = {0: 0, 1: 1, 2: 2}
    for g in Z2.members(32):
        want = expected.get(delta(g), 0)
        assert evaluate_dim(y, g) == want, g


def test_evaluation_matches_dense_bruteforce():
    xs = [torsion_example_a(2), torsion_example_b(),
          free_object(Z2, C4), unit_object(Z2)]
    for x in xs:
        for g in Z2.members(16):
            assert evaluate_dim(x, g) == dense_evaluate_dim(x, g), (x, g)


@pytest.mark.parametrize("spec,scale,bound", [
    ("misc-a(2)", 16, 64), ("misc-b", 16, 64), ("misc-a(3)", 16, 81),
    ("misc-a(5)", 16, 125), ("s(C2)", 16, 16), ("s(C2^2)", 16, 16),
    ("s(C3)", 27, 27), ("s(C4xC2)", 16, 16), ("c(C4)", 16, 16),
    ("c(C2^2)", 16, 16), ("c(C9)", 16, 27), ("c(C4xC2)", 16, 16),
    ("t(1)", 16, 16), ("unit", 16, 16), ("e(C4)", 16, 16)])
def test_relation_span_matches_bruteforce(spec, scale, bound):
    # one surjection per relation source closed under Aut(t) gives the
    # same echelon form as offering every surjection
    x = parse_object_spec(spec, scale=scale)
    for t in x.family.members(bound):
        assert normalized_pivots(_eval_data(x, t).coker) == \
            normalized_pivots(relation_span_bruteforce(x, t)), (spec, t)


@pytest.mark.parametrize("spec,scale", [
    ("s(C2)", 16), ("s(C2^2)", 8), ("s(C3)", 27), ("s(C4xC2)", 16)])
def test_orbit_reduced_simple_matches_exhaustive(spec, scale):
    # one relation source per Aut(t)-orbit of Epi(t, g) spans what one
    # source per surjection and psi - id for every automorphism span
    x = parse_object_spec(spec, scale=scale)
    full = simple_presentation_bruteforce(x.family, x.generators[0], scale)
    assert len(x.rel_sources) < len(full.rel_sources)
    for t in x.family.members(scale):
        assert normalized_pivots(_eval_data(x, t).coker) == \
            normalized_pivots(relation_span_bruteforce(full, t)), (spec, t)


def test_evaluation_above_the_scale_is_refused():
    for spec in ("s(C2)", "t(1)"):
        x = parse_object_spec(spec, scale=2)
        assert x.scale == 2
        evaluate_dim(x, C2)
        with pytest.raises(ScaleExceeded):
            evaluate_dim(x, C4)
        with pytest.raises(ScaleExceeded):
            evaluate_dim(restrict_presentation(x, cyclic_family(2)), C4)
    # free and coinvariant fixtures are exact at every order
    for spec in ("e(C2^2)", "c(C2^2)", "misc-b"):
        x = parse_object_spec(spec, scale=2)
        assert x.scale is None
        assert evaluate_dim(x, group(2, [1] * 5)) == \
            evaluate_dim(parse_object_spec(spec), group(2, [1] * 5))


def test_evaluation_bound_holds_on_a_warm_cache():
    # the order bound is checked before the memo is read, so a cached
    # value does not slip past a bound that a fresh object would refuse
    c23 = group(2, [1, 1, 1])
    warm, fresh = torsion_example_b(), torsion_example_b()
    assert evaluate_dim(warm, c23) == 0
    for x in (warm, fresh):
        with pytest.raises(ScaleExceeded):
            _eval_data(x, c23, 4)
        with pytest.raises(ScaleExceeded):
            evaluate(x, c23, limit=4)
    assert evaluate_dim(warm, c23) == 0


def test_evaluate_generator_example():
    e = free_object(Z2, C2)
    assert evaluate_dim(e, C22) == 3
    sp = evaluate(e, C22)
    assert len(sp.labels) == 3
    with pytest.raises(NotInFamily):
        evaluate(free_object(cyclic_family(2), C2), C22)


def test_structure_map_functoriality():
    x = torsion_example_a(3)
    rng = random.Random(5)
    chains = [(group(3, [2, 1]), C9, C3), (group(3, [1, 1, 1]),
                                           group(3, [1, 1]), C3)]
    for (a, b, c) in chains:
        for f in enumerate_epis(a, b)[:4]:
            for g in enumerate_epis(b, c)[:4]:
                lhs = structure_map(x, g @ f)
                rhs = structure_map(x, f) @ structure_map(x, g)
                assert dense_columns(lhs) == dense_columns(rhs)


def _push_only_functors():
    misc = functor_of_presentation(torsion_example_a(2))
    return [
        _coinduced_functor(cyclic_family(2), trivial_group(2)),   # t(1)
        _coinduced_functor(Z2, C2),
        _chi_functor(Z2, ChiInterval(lo=C2, hi=C22)),
        misc,
        kernel_functor(misc, _cover(misc, 8, minimal=False))[0],
    ]


@pytest.mark.parametrize("fun", _push_only_functors(), ids=[
    "t(1)", "t(C2)", "chi", "misc-a(2)", "kernel-of-misc-a(2)-cover"])
def test_explicit_functors_are_functors(fun):
    # push(id, v) == v and push(a o b, v) == push(b, push(a, v)) on
    # members of order <= 8, for sampled surjections and vectors
    rng = random.Random(3)
    members = list(fun.family.members(max_order=8))

    def vectors(t):
        dim = fun.space(t).dim
        units = [{i: 1} for i in range(dim)]
        mixed = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for i in range(dim)}
        return units + [{i: v for i, v in mixed.items() if v}]

    for c in members:
        for v in vectors(c):
            assert fun.push(identity_morphism(c), v) == v
        for b in members:
            if not quotient_exists(b, c):
                continue
            epis = enumerate_epis(b, c)
            alphas = rng.sample(epis, min(3, len(epis)))
            for a in members:
                if not quotient_exists(a, b):
                    continue
                epis = enumerate_epis(a, b)
                for beta in rng.sample(epis, min(3, len(epis))):
                    for alpha in alphas:
                        for v in vectors(c):
                            assert fun.push(alpha @ beta, v) == \
                                fun.push(beta, fun.push(alpha, v))


def test_structure_map_identity_and_injectivity():
    e = free_object(Z2, C2)
    ident = structure_map(e, make_morphism(C2, C2, [[1]]))
    assert dense_columns(ident) == [(Fraction(1),)]
    m = structure_map(e, make_morphism(C4, C2, [[1]]))
    assert m.rank() == 1  # generators are torsion free


def test_structure_map_requires_surjection():
    e = free_object(Z2, C2)
    with pytest.raises(NotSurjective):
        structure_map(e, make_morphism(C4, C4, [[2]]))


def test_indecomposables_examples():
    e4 = free_object(Z2, C4)
    assert indecomposables_Q(e4, C4).dim == len(automorphisms(C4))
    e2 = free_object(Z2, C2)
    assert indecomposables_Q(e2, C4).dim == 0
    u = unit_object(Z2)
    assert indecomposables_Q(u, C2).dim == 0
    assert indecomposables_Q(u, trivial_group(2)).dim == 1


def test_indecomposables_detect_epis():
    # a map surjective on indecomposables at every small group is
    # surjective there (checked through the free cover of a target)
    y = torsion_example_b()
    e2 = free_object(Z2, C2)
    # the defining quotient e_{C2} -> Y: Q surjective everywhere small
    for g in Z2.members(8):
        qy = indecomposables_Q(y, g).dim
        qe = indecomposables_Q(e2, g).dim
        assert qe >= qy
        # and the actual values surject
        assert evaluate_dim(e2, g) >= evaluate_dim(y, g)


def test_filtration_examples():
    e4 = free_object(Z2, C4)
    for g in [C4, group(2, [2, 1])]:
        assert filtration_L(e4, 2, g).dim == 0
        assert filtration_L(e4, 4, g).dim == evaluate_dim(e4, g)
    u = unit_object(Z2)
    assert filtration_L(u, 1, C22).dim == 1


def test_base_and_support():
    e4 = free_object(Z2, C4)
    base, supp = base_and_support(e4, 16)
    assert base == 4
    x = torsion_example_a(3)
    assert base_and_support(x, 27)[0] == 3
    zero = PresentedObject(Z2, ())
    assert base_and_support(zero, 8) == (None, [])


def test_builtin_e_c_unit():
    b = builtin_to_presentation(BuiltinObject("e", Z2, group=C2), 8)
    assert evaluate_dim(b, C22) == 3
    u = builtin_to_presentation(BuiltinObject("unit", Z2), 8)
    for g in Z2.members(8):
        assert evaluate_dim(u, g) == 1
    c4 = builtin_to_presentation(BuiltinObject("c", Z2, group=C4), 8)
    # value counts normal subgroups with the given quotient
    for g in Z2.members(8):
        from repstab.subgroups import enumerate_subgroups, quotient
        want = sum(1 for s in enumerate_subgroups(g)
                   if quotient(g, s)[0] == C4)
        assert evaluate_dim(c4, g) == want, g


def test_builtin_simple():
    s = builtin_to_presentation(BuiltinObject("s_triv", Z2, group=C2), 8)
    for g in Z2.members(8):
        assert evaluate_dim(s, g) == (1 if g == C2 else 0)


def test_builtin_coinduced_dims():
    c2inf = cyclic_family(2)
    t1 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=trivial_group(2)), 8)
    dims = [evaluate_dim(t1, g) for g in c2inf.members(8)]
    assert dims == [1, 0, 0, 0]
    tc2 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=C2), 8)
    # one orbit of precompositions per achievable quotient
    assert [evaluate_dim(tc2, g) for g in c2inf.members(8)] == [1, 1, 0, 0]


def test_builtin_chi_interval():
    c2inf = cyclic_family(2)
    chi = builtin_to_presentation(
        BuiltinObject("chi", c2inf, interval=ChiInterval(lo=C2)), 8)
    assert [evaluate_dim(chi, g) for g in c2inf.members(8)] == [0, 1, 1, 1]
    boxed = builtin_to_presentation(
        BuiltinObject("chi", c2inf,
                      interval=ChiInterval(lo=C2, hi=cyclic(2, 2))), 8)
    assert [evaluate_dim(boxed, g) for g in c2inf.members(8)] == [0, 1, 1, 0]


def test_restriction_drops_outside_data():
    x = torsion_example_b()
    r = restrict_presentation(x, elementary(2))
    for g in elementary(2).members(16):
        assert evaluate_dim(r, g) == evaluate_dim(x, g)
    rc = restrict_presentation(x, cyclic_family(2))
    assert rc.rel_sources == ()  # relation source C2^2 dropped
    assert evaluate_dim(rc, C2) == 1


def test_direct_sum_dims_add():
    a = free_object(Z2, C2)
    b = torsion_example_b()
    s = direct_sum(a, b)
    for g in Z2.members(8):
        assert evaluate_dim(s, g) == evaluate_dim(a, g) + evaluate_dim(b, g)


def test_quotient_by_elements():
    e = free_object(Z2, C2)
    sp = evaluate(e, C2)
    q = quotient_by_elements(e, C2, [(Fraction(1),)])
    assert evaluate_dim(q, C2) == 0
    assert evaluate_dim(q, C22) == 0  # killing the generator kills above


def test_perfect_not_projective_report():
    # the short exact sequence claim at the trivial group: the coinduced
    # object is nonzero there while the coinvariant one vanishes, so the
    # dimension bookkeeping of the claimed sequence fails at the trivial
    # group and holds at the nontrivial cyclic ones; both sides computed,
    # nothing hard-coded
    p = 2
    cpinf = cyclic_family(p)
    cp = builtin_to_presentation(BuiltinObject("c", cpinf, group=C2), 8)
    cp2 = builtin_to_presentation(BuiltinObject("c", cpinf,
                                                group=cyclic(2, 2)), 8)
    t = builtin_to_presentation(BuiltinObject("t_triv", cpinf, group=C2), 8)
    rows = {}
    for g in cpinf.members(8):
        rows[g.key()] = (evaluate_dim(cp2, g), evaluate_dim(cp, g),
                         evaluate_dim(t, g))
    # exactness bookkeeping: dim c_{p^2} - dim c_p + dim t == 0
    mismatch = {k: v for k, v in rows.items() if v[0] - v[1] + v[2] != 0}
    assert set(mismatch) == {"p2-l"}, rows
    assert rows["p2-l"] == (0, 0, 1)


def test_element_class_roundtrip():
    # the class of the basis element [u] of X(C3) labeled at position pos
    # has the single coordinate 1 at pos
    x = torsion_example_a(3)
    data = _eval_data(x, C3)
    for pos, (i, u) in enumerate(data.space.labels):
        assert data.coker.project({data.index[(i, u.matrix)]: 1}) == {pos: 1}
