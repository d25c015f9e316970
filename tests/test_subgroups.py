import random

import pytest

from repstab.groups import (group, cyclic, make_morphism, enumerate_epis,
                            section)
from repstab.subgroups import (subgroup_from_generators,
                               enumerate_subgroups, kernel, image,
                               quotient, normal_quotient_poset, q_leq_n,
                               trivial_subgroup, full_subgroup,
                               minimal_subgroups)
from repstab.families import all_abelian, cyclic_family
from repstab.errors import NotASubgroup, FamilyNotSubmultiplicative, \
    NotSurjective, ScaleExceeded

from repstab import subgroups

from oracles import (coordinates_bruteforce, coset_min_bruteforce,
                     subgroups_bruteforce, preimage, sum_with,
                     intersection_order, generic_subgroups_bruteforce,
                     all_matrices, intersect_via_kernel)

C2 = cyclic(2, 1)
C4 = cyclic(2, 2)
C22 = group(2, [1, 1])
C23 = group(2, [1, 1, 1])
C42 = group(2, [2, 1])
C82 = group(2, [3, 1])
C93 = group(3, [2, 1])
C33 = group(3, [1, 1])


def test_subgroup_counts_examples():
    assert len(enumerate_subgroups(C22)) == 5
    assert len(enumerate_subgroups(C23, order_filter=4)) == 7
    assert [s.order for s in enumerate_subgroups(C4)] == [1, 2, 4]


@pytest.mark.parametrize("g", [C2, C22, C4, C42, C23, group(3, [1, 1]),
                               cyclic(3, 2), group(2, [2, 2])])
def test_lattice_matches_bruteforce(g):
    ours = {frozenset(s.elements()) for s in enumerate_subgroups(g)}
    assert ours == subgroups_bruteforce(g)


def test_generic_lattice_matches_elementwise_extension(monkeypatch):
    # coset-representative extension finds the same lattice as extending
    # by every element, on every non-elementary group of order <= 64, 81
    # and 125, with one Hermite form per index-p extension S < T: T has
    # (p^rank(T) - 1)/(p - 1) maximal subgroups, plus one for the bottom
    calls = []

    def counted(rows, ncols):
        calls.append(1)
        return hermite(rows, ncols)

    hermite = subgroups.hermite_row_form
    monkeypatch.setattr(subgroups, "hermite_row_form", counted)
    groups = [g for p, bound in ((2, 64), (3, 81), (5, 125))
              for g in all_abelian(p).members(bound)
              if any(e > 1 for e in g.exponents)]
    assert len(groups) == 33
    for g in groups:
        calls.clear()
        lattice = subgroups._generic_subgroups(g)
        hermite_forms = len(calls)
        covers = sum((g.p ** s.isomorphism_type.rank - 1) // (g.p - 1)
                     for s in lattice)
        assert hermite_forms == 1 + covers, g
        ours = sorted(s.sort_key() for s in lattice)
        want = sorted(s.sort_key() for s in generic_subgroups_bruteforce(g))
        assert ours == want, g


def test_normal_form_unique_per_subgroup():
    seen = {}
    for s in enumerate_subgroups(C42):
        key = frozenset(s.elements())
        assert key not in seen
        seen[key] = s.basis
    # regenerating from different generator sets gives the same form
    s1 = subgroup_from_generators(C42, [(2, 1)])
    s2 = subgroup_from_generators(C42, [(2, 1), (0, 0), (2, 1)])
    assert s1 == s2


def test_order_times_quotient_order():
    for s in enumerate_subgroups(C42):
        qt, proj = quotient(C42, s)
        assert s.order * qt.order == C42.order
        assert proj.source == C42 and proj.target == qt


def test_quotient_examples():
    s = subgroup_from_generators(C42, [(2, 1)])
    qt, _ = quotient(C42, s)
    assert qt == C4
    qt2, _ = quotient(C4, full_subgroup(C4))
    assert qt2.is_trivial()


def test_kernel_and_first_isomorphism():
    f = make_morphism(C4, C2, [[1]])
    k = kernel(f)
    assert k.order == 2
    qt, _ = quotient(C4, k)
    assert qt == C2
    # first isomorphism theorem across enumerated surjections
    for t, g in [(C22, C2), (C42, C4), (C42, C2), (C23, C22)]:
        for f in enumerate_epis(t, g):
            qt, _ = quotient(t, kernel(f))
            assert qt == g


def test_image_and_preimage():
    f = make_morphism(C4, C2, [[1]])
    assert image(f).order == 2
    pre = preimage(f, trivial_subgroup(C2))
    assert pre == kernel(f)
    with pytest.raises(NotASubgroup):
        preimage(f, trivial_subgroup(C4))


def test_intersection_and_sum():
    diag = subgroup_from_generators(C22, [(1, 1)])
    left = subgroup_from_generators(C22, [(1, 0)])
    assert diag.intersect(left).order == 1
    assert sum_with(diag, left).order == 4
    assert intersection_order(diag, left) == 1


def _graph_cases():
    """Every morphism between 2-groups of order <= 16, then random ones
    for p in {3, 5} with mixed exponents, many of whose targets have a
    modulus above every modulus of the source."""
    small = all_abelian(2).members(16)
    for g in small:
        for h in small:
            for m in all_matrices(g, h):
                yield make_morphism(g, h, m)
    rng = random.Random(24)
    for case in range(800):
        p = (3, 5)[case % 2]
        g, h = (group(p, sorted((rng.randint(1, 3)
                                 for _ in range(rng.randint(0, 3))),
                                reverse=True)) for _ in range(2))
        yield make_morphism(g, h, [[rng.randrange(p ** mu)
                                    * p ** max(0, mu - lam)
                                    for lam in g.exponents]
                                   for mu in h.exponents])


def test_graph_lattice_blocks_match_oracles():
    # kernel and section are blocks of one Hermite form of the graph
    # lattice; the kernel oracle is the preimage of 0 from one integer
    # kernel, and f is onto exactly when that kernel has index |target|
    seen = {}
    for f in _graph_cases():
        g, h = f.source, f.target
        ker = kernel(f)
        assert ker.basis == preimage(f, trivial_subgroup(h)).basis, f
        onto = ker.order * h.order == g.order
        key = (g.p, onto, max(h.moduli(), default=1)
               > max(g.moduli(), default=1))
        seen[key] = seen.get(key, 0) + 1
        if not onto:
            with pytest.raises(NotSurjective):
                section(f)
            continue
        sec = section(f)
        assert len(sec) == h.rank
        for k, x in enumerate(sec):
            assert f(x) == tuple(int(i == k) for i in range(h.rank)), f
            # reduced into the box of the kernel's pivots
            assert all(0 <= v < row[i]
                       for i, (v, row) in enumerate(zip(x, ker.basis))), f
    assert seen == {(2, True, False): 23841, (2, False, False): 59671,
                    (2, False, True): 6145,
                    (3, True, False): 174, (3, False, False): 95,
                    (3, False, True): 131,
                    (5, True, False): 182, (5, False, False): 68,
                    (5, False, True): 150}


@pytest.mark.parametrize("g", [group(2, [2, 1, 1]), C82, C93], ids=repr)
def test_intersect_matches_oracle(g):
    subs = enumerate_subgroups(g)
    for s in subs:
        elements = set(s.elements())
        for t in subs:
            meet = s.intersect(t)
            assert meet.basis == intersect_via_kernel(s, t).basis
            assert set(meet.elements()) == elements & set(t.elements())


def test_normal_quotient_poset_examples():
    p = normal_quotient_poset(C4, 2)
    assert [s.order for s in p.elements] == [2, 4]
    assert len(normal_quotient_poset(C22, 4).elements) == 5
    p1 = normal_quotient_poset(C42, 1)
    assert len(p1.elements) == 1 and p1.elements[0].order == 8
    # relation is a partial order (reflexive, antisymmetric on the list)
    rel = p.relation
    assert all(rel[i][i] for i in range(len(rel)))


def test_q_leq_n_examples():
    z2 = all_abelian(2)
    qt, proj = q_leq_n(C4, 2, z2)
    assert qt == C2
    qt2, _ = q_leq_n(C4, 4, z2)
    assert qt2 == C4
    qt3, _ = q_leq_n(C23, 2, z2)
    assert qt3 == C23
    # idempotent up to isomorphism
    qq, _ = q_leq_n(qt, 2, z2)
    assert qq == qt
    with pytest.raises(FamilyNotSubmultiplicative):
        q_leq_n(C4, 2, cyclic_family(2))


@pytest.mark.parametrize("p,bound", [(2, 64), (3, 81), (5, 125)])
def test_minimal_subgroups_are_the_order_p_lattice(p, bound):
    # one subgroup per line of the socle, in the lattice's canonical order
    for g in all_abelian(p).members(max_order=bound):
        assert minimal_subgroups(g) == enumerate_subgroups(g, order_filter=p)


def test_scale_guard():
    with pytest.raises(ScaleExceeded):
        enumerate_subgroups(group(2, [1] * 13))


def test_abstract_type_of_subgroups():
    w = subgroup_from_generators(C42, [(1, 1)])
    assert w.isomorphism_type == C4
    for g in [C42, C23, group(2, [2, 2]), C82, C93, C33]:
        for s in enumerate_subgroups(g):
            assert s.isomorphism_type.order == s.order
            # generator decomposition reproduces every element
            gens, orders = s._generator_data()
            mods = g.moduli()
            for e in s.elements():
                c = s.abstract_coordinates(e)
                assert c == coordinates_bruteforce(s, e)
                rec = tuple(sum(ci * gens[k][i] for k, ci in enumerate(c))
                            % mods[i] for i in range(g.rank))
                assert rec == e


@pytest.mark.parametrize("g", [C42, C82, C93, C33])
def test_coset_rep_matches_bruteforce_minimum(g):
    mods = g.moduli()
    for s in enumerate_subgroups(g):
        pairs = {(s.coset_rep(x), coset_min_bruteforce(s, x))
                 for x in g.elements()}
        # same representative exactly when the oracle minima agree
        assert len(pairs) == len({r for r, _m in pairs}) \
            == len({m for _r, m in pairs}) == g.order // s.order
        for x in g.elements():
            rep = s.coset_rep(x)
            # unreduced lifts of x land on the same representative
            assert s.coset_rep([v + m for v, m in zip(x, mods)]) == rep
            assert s.coset_rep([v - m for v, m in zip(x, mods)]) == rep
            assert s.contains_element([v - r for v, r in zip(x, rep)])
            if s.contains_element(x):
                assert not any(rep)
            else:
                assert coordinates_bruteforce(s, x) is None
                with pytest.raises(NotASubgroup):
                    s.abstract_coordinates(x)
