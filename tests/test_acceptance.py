"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check prints a single verdict line; all equalities are exact
(tolerance zero).  Bounded-range criteria state their ranges explicitly.
"""

import math
from fractions import Fraction
from itertools import product

from repstab.groups import (group, cyclic, trivial_group, make_morphism,
                            identity_morphism, count_epis)
from repstab.subgroups import enumerate_subgroups, quotient
from repstab.families import (all_abelian, exponent_bounded, cyclic_family,
                              elementary, free_modules)
from repstab.presentations import (free_object, evaluate_dim,
                                   restrict_presentation,
                                   builtin_to_presentation, BuiltinObject,
                                   torsion_example_a, torsion_example_b)
from repstab.monoidal import (enumerate_wide, count_wide, tensor_decompose,
                              hom_decompose, hom_dimension, hom_eval_oracle,
                              tensor_presentation, lmn_bijections_check,
                              sigma_pullback_check)
from repstab.stability import (truncate_tau, central_stability_degree,
                               torsion_subspace, stability_scan, omega_order,
                               trans_bij_check)
from repstab.towers import tower_for_family, colimit_L
from repstab.wqo import (dagger, compose_check, lex_compare,
                         ldag_construct_morphism, ols, find_good_pair,
                         tautological_framings, Framing, factor_framing,
                         element_exponent, _surjections, _generates)

from oracles import count_surjective_fp_matrices

C2 = cyclic(2, 1)
C4 = cyclic(2, 2)
Z2 = all_abelian(2)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_wide_subgroups_and_tensor():
    c2inf = cyclic_family(2)
    assert len(enumerate_wide(C4, C2, Z2)) == 2
    assert len(enumerate_wide(C4, C2, c2inf)) == 1
    assert sorted(g.key() for g in tensor_decompose(C2, C4, Z2)) == \
        ["p2-l2", "p2-l2.1"]
    assert [g.key() for g in tensor_decompose(C2, C4, c2inf)] == ["p2-l2"]
    _report(1, "wide subgroups of C4xC2: 2 ambient / 1 cyclic; tensor "
               "splits accordingly")


def test_criterion_02_epi_count_formula():
    for p in (2, 3):
        for m in range(1, 5):
            for n in range(1, m + 1):
                t = group(p, [1] * m)
                g = group(p, [1] * n)
                expected = math.prod(p ** m - p ** i for i in range(n))
                assert count_epis(t, g) == expected, (p, m, n)
                assert count_surjective_fp_matrices(p, m, n) == expected, \
                    (p, m, n)
    _report(2, "surjection counts match the falling product for "
               "p in {2,3}, m <= 4, by exhaustive matrix enumeration")


def test_criterion_03_torsion_example_a():
    x = torsion_example_a(3)
    for g in all_abelian(3).members(81):
        want = 0 if g.rank == 0 else (2 if g.rank == 1 else 1)
        assert evaluate_dim(x, g) == want, g
    for g in all_abelian(3).members(81):
        if g.is_trivial():
            continue
        fam = exponent_bounded(3, g.exponent_log)
        xr = restrict_presentation(x, fam)
        tower = tower_for_family(fam)
        sp, exhausted = torsion_subspace(xr, g, tower,
                                         max_stage=g.rank + 2)
        assert exhausted, g
        want = 1 if g.rank == 1 else 0
        assert sp.dim == want, (g, sp.dim)
    _report(3, "dimension table 0/2/1 by rank up to order 81 and torsion "
               "exactly at nontrivial cyclic groups")


def test_criterion_04_torsion_example_b():
    y = torsion_example_b()
    assert evaluate_dim(y, C2) == 1
    assert evaluate_dim(y, group(2, [1, 1])) == 2
    assert evaluate_dim(y, group(2, [1, 1, 1])) == 0
    for g in Z2.members(64):
        if g.rank >= 3:
            assert evaluate_dim(y, g) == 0, g
    for g in Z2.members(64):
        if g.is_trivial() or g.rank >= 3:
            continue
        fam = exponent_bounded(2, g.exponent_log)
        yr = restrict_presentation(y, fam)
        tower = tower_for_family(fam)
        # the vanishing zone of this object starts at rank three, so the
        # scan must reach it before the tail certificate is meaningful
        sp, exhausted = torsion_subspace(yr, g, tower,
                                         max_stage=max(g.rank + 2, 4))
        assert exhausted and sp.dim == evaluate_dim(y, g), g
    _report(4, "dimensions 1/2/0 with vanishing beyond rank 2 up to order "
               "64, and the whole object is torsion")


def test_criterion_05_hom_consistency():
    members = Z2.members(8)
    for g in members:
        for h in members:
            for t in members:
                assert hom_dimension(g, h, t, Z2) == \
                    hom_eval_oracle(g, h, t, Z2), (g, h, t)
    assert hom_dimension(C2, C2, C2, Z2) == 4
    assert hom_dimension(C2, C2, group(2, [1, 1]), Z2) == 16
    for g in members:
        summands = [s.key()
                    for s in hom_decompose(trivial_group(2), g, Z2)]
        assert summands == [g.key()], g
    _report(5, "internal hom dimensions agree with the tensor-side oracle "
               "on all triples of order <= 8, golden values 4 and 16")


def test_criterion_06_wide_counting_identity():
    members = Z2.members(32)
    for t in members:
        for g in members:
            lhs = count_wide(t, g, Z2)
            rhs = sum(count_epis(t, quotient(g, n)[0])
                      for n in enumerate_subgroups(g))
            assert lhs == rhs, (t, g)
    _report(6, "wide subgroup counts equal summed surjection counts over "
               "all kernels, for 2-groups of order <= 32")


def test_criterion_07_lmn_bijections_and_sigma():
    members = Z2.members(8)
    explicit = counts = 0
    for t in members:
        for g in members:
            for h in members:
                rep = lmn_bijections_check(t, g, h, Z2,
                                           explicit_limit=20000)
                assert rep.ok, (t, g, h, rep.failures)
                if rep.mode == "explicit":
                    explicit += 1
                else:
                    counts += 1
                gh = g.order * h.order
                assert all(sigma <= gh for sigma, _n in rep.sigma_counts)
    for phi, g, h in [
        (make_morphism(C4, C2, [[1]]), C2, C2),
        (make_morphism(group(2, [1, 1]), C2, [[1, 0]]), C2,
         trivial_group(2)),
        (identity_morphism(C2), C2, C2),
    ]:
        out = sigma_pullback_check(phi, g, h, Z2)
        assert out["ok"], out
    _report(7, f"L/M/N correspondence verified on all order <= 8 triples "
               f"({explicit} explicit bijections, {counts} sigma-censuses "
               f"for the largest), pullback inequality strict off the "
               f"canonical lift")


def test_criterion_08_central_stability():
    # bounded-index recovery of generators switches on exactly at |G|
    for g in [C2, C4, group(2, [1, 1])]:
        e = free_object(Z2, g)
        for n in (1, 2, 4, 8):
            for t in Z2.members(8):
                sp, counit = truncate_tau(e, n, t)
                want = evaluate_dim(e, t) if n >= g.order else 0
                assert sp.dim == want, (g, n, t)
                if n >= g.order:
                    assert counit.rank() == want
    rep = central_stability_degree(torsion_example_a(3), 81)
    assert rep.thresholds["degree"] is not None
    assert rep.thresholds["degree"] <= 9
    _report(8, f"truncation of generators flips at the group order; "
               f"recovery degree {rep.thresholds['degree']} <= 9 for the "
               f"p=3 example at bound 81")


def test_criterion_09_colimit_functor():
    checked = 0
    for fam in (elementary(2), cyclic_family(2), exponent_bounded(2, 2),
                exponent_bounded(2, 4), free_modules(2, 2), elementary(3)):
        tower = tower_for_family(fam)
        for g in fam.members(16):
            if g.is_trivial():
                continue
            x = free_object(fam, g)
            stages = max(4, sum(g.exponents) + 2)
            dim, stab = colimit_L(x, tower, window=2, max_stage=stages)
            assert (dim, stab) == (1, True), (fam, g)
            checked += 1
    c2inf = cyclic_family(2)
    t1 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=trivial_group(2)), 8)
    assert colimit_L(t1, tower_for_family(c2inf), 2, 6) == (0, True)
    e2fam = elementary(2)
    tp = tensor_presentation(C2, C2, e2fam)
    assert colimit_L(tp, tower_for_family(e2fam), 2, 5) == (2, True)
    _report(9, f"colimit of {checked} generators is one-dimensional; the "
               f"coinduced object dies and the tensor square gives 2")


def test_criterion_10_growth_order():
    for p, max_rank in ((2, 7), (3, 5)):
        fam = elementary(p)
        for n in (1, 2, 3):
            x = free_object(fam, group(p, [1] * n))
            est = omega_order(x, p ** n, fam, max_rank)
            ratios = [r for (_g, _d, delta, r) in est.samples
                      if delta >= n]
            expected = []
            for m in range(n, max_rank + 1):
                val = Fraction(1)
                for i in range(n):
                    val *= 1 - Fraction(p ** i, p ** m)
                expected.append(val)
            assert ratios == expected, (p, n)
            assert all(a < b for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] > Fraction(9, 10), (p, n, ratios[-1])
    _report(10, "growth ratios match the exact products, increase, and "
                "exceed 9/10 within the sampled ranks")


def test_criterion_11_wqo_suite():
    checked = 0
    for m in range(1, 7):
        for k in range(1, m + 1):
            for values in _surjections(m, k):
                dagger(values, k)     # laws asserted internally
                checked += 1
    for m in range(1, 6):
        for k in range(1, m + 1):
            mono_mk = [v for v in _surjections(m, k)
                       if dagger(v, k)[1]]
            for j in range(1, k + 1):
                mono_kj = [v for v in _surjections(k, j)
                           if dagger(v, j)[1]]
                for phi in mono_mk:
                    for psi in mono_kj:
                        compose_check(phi, psi)
                        checked += 1
    from itertools import permutations
    for m in range(1, 7):
        for perm in permutations(range(m)):
            if dagger(perm, m)[1]:
                assert perm == tuple(range(m))
        checked += 1
    # lex ordering is precomposition-monotone
    for m in range(1, 5):
        for k in range(1, m + 1):
            homset = [v for v in _surjections(m, k)
                      if dagger(v, k)[1]]
            for w in range(m, 6):
                thetas = [v for v in _surjections(w, m)
                          if dagger(v, m)[1]]
                for theta in thetas:
                    for a in homset:
                        for b in homset:
                            if lex_compare(a, b) <= 0:
                                fa = tuple(a[t] for t in theta)
                                fb = tuple(b[t] for t in theta)
                                assert lex_compare(fa, fb) <= 0
                                checked += 1
    import random
    rng = random.Random(99)
    comparable = 0
    for _ in range(4000):
        x = ols(*[rng.randint(0, 4) for _ in range(rng.randint(1, 6))])
        y = ols(*[rng.randint(0, 4) for _ in range(rng.randint(1, 6))])
        if find_good_pair([x, y], order="ldag") == (0, 1):
            comparable += 1
            mor = ldag_construct_morphism(x, y)
            assert mor is not None and mor.is_valid()
    assert comparable > 300
    _report(11, f"section laws, composition, rigidity and hom-order "
                f"monotonicity exhaustively verified ({checked} instances); "
                f"construction succeeded on all {comparable} comparable "
                f"random pairs")


def test_criterion_12_condition_f():
    targets = [g for p in (2, 3, 5, 7) for g in all_abelian(p).members(8)
               if not g.is_trivial()] + [trivial_group(2)]
    factored = 0
    for a in targets:
        elements = a.elements()
        exps = {e: element_exponent(a, e) for e in elements}
        tauts = {(t.domain.labels, t.assignment)
                 for t in tautological_framings(a)}
        for size in range(1, 5):
            for assign in product(elements, repeat=size):
                if not _generates(a, assign):
                    continue
                for slack in product((0, 1), repeat=size):
                    labels = tuple(exps[e] + s
                                   for e, s in zip(assign, slack))
                    f = Framing(ols(*labels), a, assign)
                    mor, taut = factor_framing(f)
                    assert (taut.domain.labels, taut.assignment) in tauts
                    assert mor.is_valid()
                    for e in range(size):
                        assert taut.assignment[mor.values[e]] == assign[e]
                    factored += 1
    _report(12, f"{factored} framings with domains of size <= 4 into "
                f"groups of order <= 8 all factor through tautological "
                f"framings with the composite reproduced")


def test_criterion_13_gan_li_criterion_data():
    for p in (2, 3):
        out = trans_bij_check(cyclic_family(p), 27)
        assert out["ok"] and out["lambda_stable"], (p, out)
        for pair, row in out["pairs"].items():
            assert row["transitive"], pair
            assert row["u2_matches_aut"], pair
    assert trans_bij_check(cyclic_family(3), 27)["pairs"][
        "p3-l2|p3-l1"]["u2"] == 2
    _report(13, "automorphisms act transitively on surjection sets and "
                "the two-point quotients match the target automorphism "
                "counts, cyclic families at bound 27")


def test_criterion_14_stability_scan():
    rep = stability_scan(torsion_example_a(3), elementary(3), 4)
    assert rep.thresholds["torsion_free_from"] == 9
    assert rep.thresholds["surjective_from"] == 3
    assert rep.table["p3-l1.1.1.1"]["dim"] == 1
    assert any("order 9" in v for v in rep.verdicts)
    assert any("order 3" in v for v in rep.verdicts)
    _report(14, "restriction of the p=3 example to elementary groups is "
                "injective from order 9 and jointly surjective from order "
                "3, verified through rank 4 with explicit bounds in the "
                "report")
