import pytest

from repstab.groups import (group, cyclic, trivial_group, make_morphism,
                            identity_morphism, count_epis)
from repstab.subgroups import enumerate_subgroups, quotient
from repstab.families import all_abelian, cyclic_family, \
    parse_family_spec
from repstab.monoidal import (enumerate_wide, count_wide, tensor_decompose,
                              enumerate_vhom, hom_decompose, hom_dimension,
                              hom_eval_oracle, tensor_presentation,
                              tensor_with_generator, lmn_bijections_check,
                              sigma_pullback_check, Product)
from repstab.presentations import evaluate_dim, torsion_example_a
from repstab.errors import FamilyNotGlobalMultiplicative, NotInFamily, \
    ShapeMismatch

from repstab import monoidal, subgroups

from oracles import (image_subgroup, preimage, times_identity,
                     is_pushforward_bruteforce, vhom_list_bruteforce)

C2 = cyclic(2, 1)
C4 = cyclic(2, 2)
C22 = group(2, [1, 1])
C23 = group(2, [1, 1, 1])
Z2 = all_abelian(2)
C2INF = cyclic_family(2)
TRIV = trivial_group(2)


def test_wide_examples():
    assert len(enumerate_wide(C4, C2, Z2)) == 2
    assert len(enumerate_wide(C4, C2, C2INF)) == 1
    assert len(enumerate_wide(C4, TRIV, Z2)) == 1
    types = sorted(w.isomorphism_type.key()
                   for w in enumerate_wide(C4, C2, Z2))
    assert types == ["p2-l2", "p2-l2.1"]


def test_wide_triples_unique():
    # the classifying triples are unique per wide subgroup
    seen = set()
    for w in enumerate_wide(C22, C22, Z2):
        assert w.embedded.basis not in seen
        seen.add(w.embedded.basis)
        # projections onto both factors are surjective
        prod = w.product
        for idx in range(2):
            proj = prod.projection(idx)
            assert image_subgroup(proj, w.embedded).order == \
                prod.factors[idx].order


def test_tensor_decompose_examples():
    assert sorted(g.key() for g in tensor_decompose(C2, C4, Z2)) == \
        ["p2-l2", "p2-l2.1"]
    assert [g.key() for g in tensor_decompose(C2, C4, C2INF)] == ["p2-l2"]
    assert sorted(g.key() for g in tensor_decompose(C2, C2, Z2)) == \
        ["p2-l1", "p2-l1.1"]
    assert [g.key() for g in tensor_decompose(C4, TRIV, Z2)] == ["p2-l2"]


def test_tensor_dimension_identity():
    # dim(e_G (x) e_H)(T) = |Epi(T,G)| |Epi(T,H)| = sum over summands
    groups = [g for g in Z2.members(16)]
    for g in groups:
        for h in groups:
            if g.order * h.order > 64:
                continue
            summands = tensor_decompose(g, h, Z2)
            for t in Z2.members(16):
                lhs = count_epis(t, g) * count_epis(t, h)
                rhs = sum(count_epis(t, w) for w in summands)
                assert lhs == rhs, (g, h, t)


def test_wide_counting_identity():
    for t in Z2.members(16):
        for g in Z2.members(16):
            lhs = count_wide(t, g, Z2)
            rhs = sum(count_epis(t, quotient(g, n)[0])
                      for n in enumerate_subgroups(g))
            assert lhs == rhs, (t, g)


def test_cyclic_wides_are_graphs():
    # wide cyclic subgroups of a product of cyclic groups come from
    # surjections of the larger factor onto the smaller
    for g, h in [(C4, C2), (cyclic(2, 3), C4), (C4, C4)]:
        wides = enumerate_wide(g, h, C2INF)
        expected = count_epis(g, h) if g.order > h.order else \
            (count_epis(g, h) if g.order == h.order else count_epis(h, g))
        if g.order == h.order:
            # graphs of isomorphisms in either direction coincide
            expected = count_epis(g, h)
        assert len(wides) == expected


def test_vhom_examples():
    vs = enumerate_vhom(C2, C2, Z2)
    assert sorted(v.spread.key() for v in vs) == \
        ["p2-l", "p2-l1", "p2-l1", "p2-l1", "p2-l1.1"]
    v1 = enumerate_vhom(TRIV, C4, Z2)
    assert len(v1) == 1 and v1[0].spread == C4
    v2 = enumerate_vhom(C4, TRIV, Z2)
    assert sorted(v.spread.key() for v in v2) == ["p2-l", "p2-l1", "p2-l2"]


def test_hom_decompose_golden():
    hd = hom_decompose(C2, C2, Z2)
    assert sorted(g.key() for g in hd) == \
        ["p2-l", "p2-l1", "p2-l1", "p2-l1", "p2-l1.1"]
    assert hom_dimension(C2, C2, C2, Z2) == 4
    assert hom_dimension(C2, C2, C22, Z2) == 16
    assert [g.key() for g in hom_decompose(TRIV, C4, Z2)] == ["p2-l2"]
    with pytest.raises(FamilyNotGlobalMultiplicative):
        hom_decompose(C2, C2, C2INF)


def test_hom_oracle_agreement_small():
    members = Z2.members(8)
    for g in members:
        for h in members:
            for t in members:
                assert hom_dimension(g, h, t, Z2) == \
                    hom_eval_oracle(g, h, t, Z2), (g, h, t)


@pytest.mark.parametrize("spec", ["Z2inf", "Cpinf:2"])
def test_hom_dimension_sums_vhom_spreads(spec):
    # the spread census gives the dimension that the embedded virtual
    # homs give, on every pair of groups of order <= 8
    fam = parse_family_spec(spec)
    members = Z2.members(8)
    for g in members:
        for h in members:
            spreads = [v.spread for v in enumerate_vhom(g, h, fam)]
            for t in members:
                assert hom_dimension(g, h, t, fam) == sum(
                    count_epis(t, s) for s in spreads), (g, h, t)


def test_hom_dimension_embeds_nothing(monkeypatch):
    # with the lattices warm and the virtual-hom memos cleared, the hom
    # dimension reads the spreads alone: no A' is embedded
    pairs = [(g, h) for g in Z2.members(8) for h in Z2.members(4)]
    for g, h in pairs:
        hom_dimension(g, h, C2, Z2)
    monoidal._vhom_census.cache_clear()
    monoidal._vhom_list.cache_clear()
    calls = []
    embed = monoidal._embed
    monkeypatch.setattr(monoidal, "_embed",
                        lambda s, t: calls.append(1) or embed(s, t))
    for g, h in pairs:
        for t in (TRIV, C2, C22):
            hom_dimension(g, h, t, Z2)
    assert calls == []
    assert len(enumerate_vhom(C2, C2, Z2)) == len(calls) == 5


def test_hom_oracle_unit_case():
    for g in Z2.members(8):
        for h in Z2.members(8):
            assert hom_eval_oracle(g, h, TRIV, Z2) == count_epis(g, h)


def test_tensor_with_generator_dims():
    x = torsion_example_a(2)
    tx = tensor_with_generator(C2, x)
    for t in Z2.members(16):
        want = count_epis(t, C2) * evaluate_dim(x, t)
        assert evaluate_dim(tx, t) == want, t


def test_tensor_presentation_free():
    tp = tensor_presentation(C2, C2, Z2)
    assert tp.rel_sources == ()
    for t in Z2.members(16):
        assert evaluate_dim(tp, t) == count_epis(t, C2) ** 2


def _vhom_grid():
    """(g, h, family): 2-group pairs with |g||h| <= 16 over three
    families, and 3-group pairs with |g||h| <= 27."""
    for spec in ("Z2inf", "E2", "Cpinf:2"):
        fam = parse_family_spec(spec)
        for g in Z2.members(16):
            for h in Z2.members(16 // g.order):
                yield g, h, fam
    z3 = all_abelian(3)
    for g in z3.members(27):
        for h in z3.members(27 // g.order):
            yield g, h, z3


def test_vhom_list_matches_bruteforce(monkeypatch):
    # virtual homs found by one rank mod p per candidate A' agree field by
    # field, in order, with the embedded intersection test; only an
    # accepted A' costs a Hermite form
    calls = []

    def counted(rows, ncols):
        calls.append(1)
        return hermite(rows, ncols)

    hermite = subgroups.hermite_row_form
    cases = vhoms = 0
    for g, h, fam in _vhom_grid():
        want = vhom_list_bruteforce(g, h, fam)
        monkeypatch.setattr(subgroups, "hermite_row_form", counted)
        calls.clear()
        ours = monoidal._vhom_list.__wrapped__(g, h, fam)
        monkeypatch.setattr(subgroups, "hermite_row_form", hermite)
        assert len(calls) == len(ours)
        assert [(v.wide.embedded.basis, v.sub.basis, v.spread, v.sub.order)
                for v in ours] == [
            (v.wide.embedded.basis, v.sub.basis, v.spread, v.sub.order)
            for v in want], (g, h, fam)
        cases += 1
        vhoms += len(ours)
    assert (cases, vhoms) == (132, 1840)


def test_lmn_small_examples():
    rep = lmn_bijections_check(C2, C2, C2, Z2)
    assert rep.ok and rep.mode == "explicit" and rep.size == 4
    assert dict(rep.sigma_counts) == {1: 1, 2: 3}
    # with a trivial test group the count is the surjection count
    rep2 = lmn_bijections_check(TRIV, C22, C2, Z2)
    assert rep2.ok and rep2.size == count_epis(C22, C2)
    # sigma never exceeds the product of the orders
    for (sigma, _n) in rep.sigma_counts:
        assert sigma <= C2.order * C2.order


def test_lmn_explicit_medium():
    for (t, g, h) in [(C4, C22, C2), (C4, C4, C4), (C22, C22, C22)]:
        rep = lmn_bijections_check(t, g, h, Z2)
        assert rep.ok, rep.failures
        assert rep.mode == "explicit"


def test_lmn_counts_mode_consistency():
    rep = lmn_bijections_check(C22, C23, C2, Z2, explicit_limit=10)
    assert rep.mode == "counts" and rep.ok, rep.failures
    rep2 = lmn_bijections_check(C22, C23, C2, Z2, explicit_limit=10 ** 6)
    assert rep2.mode == "explicit" and rep2.ok
    assert rep.sigma_counts == rep2.sigma_counts


def test_sigma_pullback_examples():
    phi = make_morphism(C4, C2, [[1]])
    out = sigma_pullback_check(phi, C2, C2, Z2)
    assert out["ok"] and out["pairs_checked"] > 0
    out2 = sigma_pullback_check(make_morphism(C22, C2, [[1, 0]]),
                                C2, TRIV, Z2)
    assert out2["ok"]
    out3 = sigma_pullback_check(identity_morphism(C2), C2, C2, Z2)
    assert out3["ok"]
    # the family is read: every group involved must be a member
    with pytest.raises(NotInFamily):
        sigma_pullback_check(make_morphism(C22, C2, [[1, 0]]), C2, C2,
                             C2INF)
    with pytest.raises(NotInFamily):
        sigma_pullback_check(phi, C2, C22, C2INF)


def test_product_coordinates():
    prod = Product.of(C2, C4)  # sorting swaps the coordinates
    assert prod.group == group(2, [2, 1])
    assert prod.embed((1,), (3,)) == (3, 1)
    pl = prod.projection(0)
    pr = prod.projection(1)
    assert pl((3, 1)) == (1,)
    assert pr((3, 1)) == (3,)
    assert prod.split((3, 1)) == ((1,), (3,))
    # split inverts embed on every element of every product of 2-groups of
    # order <= 8 and of 3-groups of order <= 9; projections read the
    # inclusion rows
    for members in (Z2.members(8), all_abelian(3).members(9)):
        for g in members:
            for h in members:
                prod = Product.of(g, h)
                for x in g.elements():
                    for y in h.elements():
                        assert prod.split(prod.embed(x, y)) == (x, y)
                for idx in (0, 1):
                    assert prod.projection(idx).matrix == tuple(
                        map(tuple, prod.inclusion_rows(idx)))


def test_product_refuses_mixed_primes():
    C3 = cyclic(3, 1)
    with pytest.raises(ShapeMismatch):
        Product.of(C2, C3)
    with pytest.raises(ShapeMismatch):
        hom_decompose(C2, C3, Z2)
    with pytest.raises(ShapeMismatch):
        tensor_decompose(C4, group(3, [1, 1]), Z2)
    # a trivial factor has no prime of its own
    assert Product.of(trivial_group(3), C2).group == C2
    assert Product.of(C3, TRIV).group == C3


def _pullback_grid():
    """(phi, g, h) over 2-groups with |T'| |g| |h| <= 16, one surjection
    phi: T' -> T per kernel: the others differ from it by an automorphism
    of T, which only relabels the pairs (W, lam) downstairs."""
    members = Z2.members(16)
    for tp in members:
        for g in members:
            for h in members:
                if tp.order * g.order * h.order <= 16:
                    for k in enumerate_subgroups(tp):
                        yield quotient(tp, k)[1], g, h


def test_pushforward_and_pullback_closed_forms():
    # _is_pushforward checks generators only, and the canonical pullback
    # is decided by |W'| = |W| |ker phi|; both against element-wise
    # oracles over every (W, lam, W', lam') of each phi in the grid
    cases = pushforwards = 0
    for phi, g, h in _pullback_grid():
        t, tp = phi.target, phi.source
        phi_x_1 = times_identity(phi, g)
        found = 0
        for w, lam, _sigma in monoidal._enumerate_n_explicit(t, g, h):
            pulled = preimage(phi_x_1, w.embedded)
            for wp, lamp, _sigmap in monoidal._enumerate_n_explicit(tp, g, h):
                fast = monoidal._is_pushforward(phi, wp, w, lamp, lam)
                assert fast == is_pushforward_bruteforce(phi_x_1, wp, w,
                                                         lamp, lam)
                if fast:
                    found += 1
                    assert (wp.embedded == pulled) == (
                        wp.embedded.order
                        == w.embedded.order * tp.order // t.order)
        out = sigma_pullback_check(phi, g, h, Z2)
        assert out["ok"] and out["pairs_checked"] == found
        cases += 1
        pushforwards += found
    assert cases > 300 and pushforwards > 700, (cases, pushforwards)
