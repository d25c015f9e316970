from fractions import Fraction

import pytest

from repstab.groups import group, cyclic, enumerate_epis
from repstab.families import (all_abelian, exponent_bounded, cyclic_family,
                              elementary, free_modules)
from repstab.presentations import (free_object, unit_object,
                                   evaluate_dim, restrict_presentation,
                                   quotient_by_elements, torsion_example_a,
                                   torsion_example_b)
from repstab.stability import (truncate_tau, central_stability_degree,
                               torsion_subspace, torsion_oracle_via_L,
                               stability_scan, omega_order, qstar_check,
                               trans_bij_check)
from repstab.towers import tower_for_family
from repstab.monoidal import tensor_with_generator
from repstab.linalg import span_rank
from repstab.errors import NotAInfinity, FamilyNotExpansive, \
    FamilyUnsupported
from repstab import stability

from oracles import (first_noninjective_bruteforce,
                     jointly_surjective_bruteforce)

C2 = cyclic(2, 1)
C4 = cyclic(2, 2)
C3 = cyclic(3, 1)
C9 = cyclic(3, 2)
Z2 = all_abelian(2)
Z3 = all_abelian(3)


def test_truncation_of_generators():
    e2 = free_object(Z2, C2)
    for g in Z2.members(8):
        for n in (1, 2, 4, 8):
            sp, counit = truncate_tau(e2, n, g)
            want = evaluate_dim(e2, g) if n >= 2 else 0
            assert sp.dim == want, (g, n)
            if n >= 2:
                assert counit.rank() == want


def test_truncation_counit_iso_example():
    e2 = free_object(Z2, C2)
    sp, counit = truncate_tau(e2, 2, C4)
    assert sp.dim == 1 and counit.rank() == 1


def test_central_stability_degrees():
    assert central_stability_degree(unit_object(Z2), 8).thresholds[
        "degree"] == 1
    assert central_stability_degree(free_object(Z2, C4), 8).thresholds[
        "degree"] == 4
    rep = central_stability_degree(torsion_example_a(2), 16)
    assert rep.thresholds["degree"] == 4  # relations live at order p^2


def test_torsion_tables_misc_a():
    x = restrict_presentation(torsion_example_a(3), exponent_bounded(3, 2))
    tw = tower_for_family(exponent_bounded(3, 2))
    sp, exhausted = torsion_subspace(x, C9, tw, max_stage=3)
    assert (sp.dim, exhausted) == (1, True)
    sp2, _ = torsion_subspace(x, group(3, [1, 1]), tw, max_stage=3)
    assert sp2.dim == 0
    sp3, _ = torsion_subspace(x, C3, tw, max_stage=3)
    assert sp3.dim == 1  # p - 2


def test_generators_are_torsion_free():
    fam = exponent_bounded(2, 2)
    tw = tower_for_family(fam)
    e = free_object(fam, C4)
    for g in fam.members(8):
        sp, exhausted = torsion_subspace(e, g, tw, max_stage=4)
        assert sp.dim == 0 and exhausted


def test_misc_b_is_torsion():
    y = restrict_presentation(torsion_example_b(), elementary(2))
    tw = tower_for_family(elementary(2))
    for g in elementary(2).members(8):
        sp, exhausted = torsion_subspace(y, g, tw, max_stage=5)
        assert exhausted
        assert sp.dim == evaluate_dim(y, g), g


def test_quotient_by_torsion_is_torsion_free():
    fam = exponent_bounded(3, 2)
    x = restrict_presentation(torsion_example_a(3), fam)
    tw = tower_for_family(fam)
    work = x
    for g in fam.members(9):
        sp, _ = torsion_subspace(work, g, tw, max_stage=3)
        if sp.dim:
            work = quotient_by_elements(work, g, list(sp.labels))
    for g in fam.members(9):
        sp, exhausted = torsion_subspace(work, g, tw, max_stage=3)
        assert sp.dim == 0 and exhausted, g
    # the quotient has the expected one-dimensional values
    for g in fam.members(9):
        want = 0 if g.is_trivial() else 1
        assert evaluate_dim(work, g) == want


def test_oracle_agrees_with_subspace():
    # full per-vector agreement at the small cyclic group
    fam = elementary(3)
    x = restrict_presentation(torsion_example_a(3), fam)
    tw = tower_for_family(fam)
    sp, _ = torsion_subspace(x, C3, tw, max_stage=3)
    dim = evaluate_dim(x, C3)
    basis = [tuple(Fraction(1 if i == k else 0) for i in range(dim))
             for k in range(dim)]
    for v in list(sp.labels) + basis:
        in_subspace = span_rank(dim, list(sp.labels) + [v]) == sp.dim
        assert torsion_oracle_via_L(x, C3, v, tw, max_stage=3) == \
            in_subspace, v


def test_oracle_agrees_at_larger_cyclic_group():
    # one positive and one negative verdict at the order nine group; the
    # negative one exercises the full coinvariant chain
    fam = exponent_bounded(3, 2)
    x = restrict_presentation(torsion_example_a(3), fam)
    tw = tower_for_family(fam)
    sp, _ = torsion_subspace(x, C9, tw, max_stage=3)
    assert sp.dim == 1
    assert torsion_oracle_via_L(x, C9, sp.labels[0], tw, max_stage=3)
    non_torsion = (Fraction(1), Fraction(0))
    assert span_rank(2, list(sp.labels) + [non_torsion]) == 2
    assert torsion_oracle_via_L(x, C9, non_torsion, tw, max_stage=3) \
        is False


def test_oracle_trivial_cases():
    fam = exponent_bounded(2, 1)
    e = free_object(fam, C2)
    tw = tower_for_family(fam)
    assert torsion_oracle_via_L(e, C2, (Fraction(0),), tw) is True
    assert torsion_oracle_via_L(e, C2, (Fraction(1),), tw,
                                max_stage=4) is False


def test_oracle_keeps_generator_slots_apart():
    # a free object is torsion free; a difference of two labels lies in
    # two distinct generator slots of the tensored object, whose classes
    # stay independent along the whole tower
    fam = elementary(2)
    e = free_object(fam, C2)
    tw = tower_for_family(fam)
    c22 = group(2, [1, 1])
    for vec in [(1, -1, 0), (0, 1, 1), (1, 1, 1)]:
        vec = tuple(Fraction(v) for v in vec)
        assert torsion_oracle_via_L(e, c22, vec, tw, max_stage=4) is False


def test_tensor_with_torsion_is_torsion():
    fam = exponent_bounded(3, 2)
    x = restrict_presentation(torsion_example_a(3), fam)
    tw = tower_for_family(fam)
    tors_dims = {}
    tx = tensor_with_generator(C3, x)
    # the torsion part of X at cyclic groups stays torsion in e_G (x) X:
    # check that pushing the unit tensor of a torsion vector dies
    sp, _ = torsion_subspace(x, C9, tw, max_stage=3)
    for v in sp.labels:
        assert torsion_oracle_via_L(x, C9, v, tw, max_stage=3)


def test_stability_scan_misc_a():
    rep = stability_scan(torsion_example_a(3), elementary(3), 4)
    assert rep.thresholds == {"torsion_free_from": 9, "surjective_from": 3}
    assert rep.table["p3-l1"]["dim"] == 2
    assert rep.table["p3-l1.1.1.1"]["dim"] == 1


@pytest.mark.parametrize("x,fam", [
    (torsion_example_a(2), elementary(2)),
    (torsion_example_a(3), elementary(3)),
    (torsion_example_a(5), elementary(5)),
    (torsion_example_b(), elementary(2)),
    (torsion_example_a(3), cyclic_family(3)),
    (torsion_example_b(), cyclic_family(2)),
    (torsion_example_a(2), free_modules(2, 2)),
    (torsion_example_b(), free_modules(2, 2))])
def test_stability_scan_matches_exhaustive_oracle(x, fam, monkeypatch):
    fast = stability_scan(x, fam, 3).to_json_dict()
    monkeypatch.setattr(stability, "_first_noninjective",
                        lambda x, a, b, dims, limit=None:
                        first_noninjective_bruteforce(x, a, b))
    monkeypatch.setattr(stability, "_jointly_surjective",
                        lambda x, a, b, dims, limit=None:
                        jointly_surjective_bruteforce(x, a, b))
    assert stability_scan(x, fam, 3).to_json_dict() == fast


def test_stability_scan_unit_and_generator():
    rep = stability_scan(unit_object(Z2), elementary(2), 3)
    assert rep.thresholds == {"torsion_free_from": 1, "surjective_from": 1}
    repc = stability_scan(free_object(Z2, C2), cyclic_family(2), 3)
    assert repc.thresholds["torsion_free_from"] == 1
    with pytest.raises(FamilyUnsupported):
        stability_scan(unit_object(Z2), all_abelian(2), 2)


def test_stability_scan_free_module_family():
    # evaluation-only restriction for the non-downward-closed family
    x = torsion_example_a(2)
    rep = stability_scan(x, free_modules(2, 2), 3)
    assert rep.thresholds["torsion_free_from"] is not None


def test_omega_ratios_elementary():
    p = 2
    n = 3
    x = free_object(elementary(p), group(p, [1] * n))
    est = omega_order(x, p ** n, elementary(p), 7)
    ratios = [r for (_g, _d, delta, r) in est.samples if delta >= n]
    expected = []
    for m in range(n, 8):
        val = Fraction(1)
        for i in range(n):
            val *= (1 - Fraction(p ** i, p ** m))
        expected.append(val)
    assert ratios == expected
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > Fraction(9, 10)


def test_omega_unit_and_sum():
    est = omega_order(unit_object(Z2), 1, elementary(2), 4)
    assert all(r == 1 for (_g, _d, _dl, r) in est.samples)
    from repstab.presentations import direct_sum
    e2fam = elementary(2)
    s = direct_sum(free_object(e2fam, C2), free_object(e2fam, C2))
    est2 = omega_order(s, 2, elementary(2), 6)
    tail = dict(est2.tail_max)
    assert tail[6] <= 2 and tail[6] > Fraction(3, 2)
    with pytest.raises(FamilyNotExpansive):
        omega_order(unit_object(Z2), 2, cyclic_family(2), 3)


def test_omega_subadditivity_on_sums():
    e2fam = elementary(2)
    from repstab.presentations import direct_sum
    a = free_object(e2fam, C2)
    b = free_object(e2fam, group(2, [1, 1]))
    s = direct_sum(a, b)
    for n in (2, 4):
        ea = dict(omega_order(a, n, e2fam, 5).tail_max)
        eb = dict(omega_order(b, n, e2fam, 5).tail_max)
        es = dict(omega_order(s, n, e2fam, 5).tail_max)
        for m in range(5):
            assert max(ea[m], eb[m]) <= es[m] <= ea[m] + eb[m]


def test_qstar_examples():
    assert qstar_check(free_object(Z2, C2), 2, 16)["ok"]
    assert qstar_check(torsion_example_a(3), 9, 27)["ok"]
    assert qstar_check(unit_object(Z2), 1, 8)["ok"]


def test_trans_bij_families():
    out = trans_bij_check(cyclic_family(2), 16)
    assert out["ok"] and out["lambda_stable"]
    assert out["pairs"]["p2-l2|p2-l1"]["u2"] == 1
    out3 = trans_bij_check(cyclic_family(3), 27)
    assert out3["ok"]
    assert out3["pairs"]["p3-l2|p3-l1"]["u2"] == 2
    with pytest.raises(NotAInfinity):
        trans_bij_check(all_abelian(2), 8)
    # vacuous bound: only the trivial group in range
    assert trans_bij_check(cyclic_family(2), 1)["ok"]


def test_kernel_same_along_all_tower_epis():
    fam = exponent_bounded(3, 1)
    x = restrict_presentation(torsion_example_a(3), fam)
    tw = tower_for_family(fam)
    from repstab.linalg import rref_kernel
    from repstab.presentations import structure_map
    g = C3
    stage = tw.group(2)
    kernels = []
    for alpha in enumerate_epis(stage, g):
        mat = structure_map(x, alpha)
        kernels.append(sorted(rref_kernel(mat)[0]))
    assert all(k == kernels[0] for k in kernels)
