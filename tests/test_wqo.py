import random
import time
from itertools import permutations, product

import pytest

from repstab.groups import group, cyclic, trivial_group
from repstab.wqo import (Framing, ols,
                         dagger, compose_check, lex_compare,
                         find_good_pair, ldag_invariants,
                         ldag_construct_morphism,
                         tautological_framings, factor_framing,
                         is_tautological, element_exponent, _surjections,
                         _ordered_subset_count)
from repstab.errors import (NotSurjective, InvalidFraming, LawViolation,
                            ScaleExceeded)

from oracles import enumerate_morphisms

MAXSIZE = 6


def test_dagger_examples():
    sec, mono = dagger((0, 1, 0))
    assert sec == (0, 1) and mono
    sec, mono = dagger((1, 0))
    assert sec == (1, 0) and not mono
    assert dagger((0, 1)) == ((0, 1), True)
    with pytest.raises(NotSurjective):
        dagger((0, 0), 2)


def test_dagger_laws_exhaustive():
    for m in range(1, MAXSIZE + 1):
        for k in range(1, m + 1):
            for values in _surjections(m, k):
                sec, mono = dagger(values, k)  # laws asserted inside
                # monotone surjections send minima to minima
                if mono:
                    assert values[0] == 0 and sec[0] == 0


def test_composition_law_exhaustive():
    for m in range(1, 5):
        for k in range(1, m + 1):
            for j in range(1, k + 1):
                for phi in _surjections(m, k):
                    if not dagger(phi, k)[1]:
                        continue
                    for psi in _surjections(k, j):
                        if not dagger(psi, j)[1]:
                            continue
                        assert compose_check(phi, psi)


def test_rigidity_exhaustive():
    # the only monotone-section self-surjection is the identity
    for m in range(1, MAXSIZE + 1):
        for perm in permutations(range(m)):
            if dagger(perm, m)[1]:
                assert perm == tuple(range(m))


def test_lex_total_order_and_monotone_precomposition():
    for m in range(1, 5):
        for k in range(1, m + 1):
            homset = [v for v in _surjections(m, k)
                      if dagger(v, k)[1]]
            for a in homset:
                for b in homset:
                    c = lex_compare(a, b)
                    assert c == -lex_compare(b, a)
                    assert (c == 0) == (a == b)
            # precomposition by monotone-section maps preserves order
            for w in range(m, 6):
                thetas = [t for t in _surjections(w, m)
                          if dagger(t, m)[1]]
                for theta in thetas[:6]:
                    for a in homset:
                        for b in homset:
                            if lex_compare(a, b) <= 0:
                                fa = tuple(a[theta[i]] for i in range(w))
                                fb = tuple(b[theta[i]] for i in range(w))
                                assert lex_compare(fa, fb) <= 0


def test_good_pair_examples():
    assert find_good_pair([(2, 0), (1, 1), (0, 2), (3, 3)]) == (0, 3)
    assert find_good_pair([(0, 0), (1, 0)]) == (0, 1)
    assert find_good_pair([(2, 0), (1, 1), (0, 2)]) is None
    words = [((1,),), ((0,), (2,)), ((1,), (1,), (1,))]
    assert find_good_pair(words, order="words") == (0, 1)
    bad_words = [((2,), (2,)), ((1,), (0,))]
    assert find_good_pair(bad_words, order="words") is None


def test_max_bad_sequence_length_for_bounded_grid():
    # exhaustive search for the longest sequence over {0,1,2}^2 with no
    # dominating later element; reversing any linear extension uses all
    # nine points, and no repetition is possible
    points = [(a, b) for a in range(3) for b in range(3)]

    best = 0
    stack = [((), points)]
    while stack:
        seq, remaining = stack.pop()
        best = max(best, len(seq))
        for x in remaining:
            if any(all(u <= v for u, v in zip(s, x)) for s in seq):
                continue
            nxt = [y for y in remaining if y != x]
            stack.append((seq + (x,), nxt))
    assert best == 9
    # hence every longer sequence has a good pair
    rng = random.Random(0)
    for _ in range(200):
        seq = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(10)]
        assert find_good_pair(seq) is not None


def test_invariant_examples():
    assert ldag_invariants(ols(2, 1)) == (2, 1, ((1, 2),))
    assert ldag_invariants(ols(3)) == (3, 3, ())
    assert ldag_invariants(ols(1, 2, 1)) == (1, 1, ((2, 1), (1, 1)))


def test_construct_morphism_examples():
    m = ldag_construct_morphism(ols(1), ols(2, 1))
    assert m is not None and m.values == (0, 0)
    m2 = ldag_construct_morphism(ols(2, 1), ols(2, 1))
    assert m2.values == (0, 1)
    assert ldag_construct_morphism(ols(2, 1), ols(1, 1)) is None


def test_construction_succeeds_on_all_comparable_pairs():
    rng = random.Random(12)
    comparable = 0
    for _ in range(3000):
        x = ols(*[rng.randint(0, 4) for _ in range(rng.randint(1, 6))])
        y = ols(*[rng.randint(0, 4) for _ in range(rng.randint(1, 6))])
        if find_good_pair([x, y], order="ldag") == (0, 1):
            comparable += 1
            m = ldag_construct_morphism(x, y)
            assert m is not None and m.is_valid()
    assert comparable > 200


def test_morphism_existence_implies_comparison():
    # monotone direction of the invariant triple
    labels = [0, 1, 2]
    pool = [ols(*ls) for n in range(1, 4)
            for ls in product(labels, repeat=n)]
    for x in pool:
        for y in pool:
            if y.size < x.size:
                continue
            if enumerate_morphisms(x, y):
                assert find_good_pair([x, y], order="ldag") == (0, 1), (x, y)


def test_tautological_framings_guard_counts_ordered_subsets():
    # order 8 has sum_k 8!/(8-k)! = 109600 ordered subsets, under 2^24;
    # order 16 has about 5.7e13, refused before any subset is walked
    # C2^2 has 4 + 12 + 24 + 24 = 64 candidates
    with pytest.raises(ScaleExceeded):
        tautological_framings(group(2, [1, 1]), limit=63)
    assert len(tautological_framings(group(2, [1, 1]), limit=64)) == 54
    assert _ordered_subset_count(8, 2 ** 24) == 109600
    start = time.perf_counter()
    with pytest.raises(ScaleExceeded):
        tautological_framings(group(2, [1, 1, 1, 1]))
    with pytest.raises(ScaleExceeded):
        tautological_framings(cyclic(2, 40))
    assert time.perf_counter() - start < 1


def test_tautological_framings_counts():
    c2 = cyclic(2, 1)
    assert len(tautological_framings(c2)) == 3
    assert len(tautological_framings(trivial_group(2))) == 1
    c22 = group(2, [1, 1])
    frs = tautological_framings(c22)
    # ordered generating subsets found by brute force
    count = 0
    elements = c22.elements()
    from repstab.wqo import _generates
    for n in range(1, 5):
        for perm in permutations(elements, n):
            if _generates(c22, perm):
                count += 1
    assert len(frs) == count
    # omega filtering keeps only allowed label values
    assert all(set(f.domain.labels) <= {0, 1}
               for f in tautological_framings(c22, omega=(0, 1)))


def test_factor_framing_examples():
    c2 = cyclic(2, 1)
    f = Framing(ols(1, 1), c2, ((1,), (0,)))
    mor, taut = factor_framing(f)
    assert is_tautological(taut)
    assert taut.assignment == ((1,), (0,))
    assert mor.values == (0, 1)
    # collapsing repeated elements
    f2 = Framing(ols(1, 1, 1), c2, ((1,), (1,), (0,)))
    mor2, taut2 = factor_framing(f2)
    assert taut2.assignment == ((1,), (0,))
    assert mor2.values == (0, 0, 1)
    # an already tautological framing factors through itself
    mor3, taut3 = factor_framing(taut2)
    assert taut3 == taut2 and mor3.values == (0, 1)


def test_condition_f_small_exhaustive():
    # every framing with a small domain factors through a tautological
    # framing of its target, and the composite reproduces the assignment
    targets = [cyclic(2, 1), group(2, [1, 1]), cyclic(2, 2)]
    for a in targets:
        elements = a.elements()
        exps = {e: element_exponent(a, e) for e in elements}
        tauts = {(t.domain.labels, t.assignment)
                 for t in tautological_framings(a)}
        for size in range(1, 4):
            for assign in product(elements, repeat=size):
                from repstab.wqo import _generates
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


def test_framing_validation():
    c4 = cyclic(2, 2)
    with pytest.raises(InvalidFraming):
        Framing(ols(1), c4, ((1,),))   # label too small for the order
    with pytest.raises(InvalidFraming):
        Framing(ols(2), c4, ((2,),))   # does not generate


def test_law_checks_raise_typed_errors(monkeypatch):
    # raised, not asserted, so the checks also hold under python -O
    import repstab.wqo as wqo
    real = wqo.dagger
    monkeypatch.setattr(wqo, "dagger_map",
                        lambda values, k: tuple(range(k))[::-1])
    with pytest.raises(LawViolation):
        wqo.dagger((0, 1, 0), 2)
    with pytest.raises(LawViolation):
        wqo.compose_check((0, 1, 1), (0, 1))
    monkeypatch.undo()

    def wrong_composite(values, target_size=None):
        if tuple(values) == (0, 0, 1, 1):
            return (0, 3), True
        return real(values, target_size)

    monkeypatch.setattr(wqo, "dagger", wrong_composite)
    with pytest.raises(LawViolation):
        wqo.compose_check((0, 0, 1, 2), (0, 1, 1))


def test_framing_rejects_wrong_coordinate_count():
    with pytest.raises(InvalidFraming):
        Framing(ols(1), cyclic(2, 1), ((1, 0),))
    with pytest.raises(InvalidFraming):
        Framing(ols(1, 1), group(2, [1, 1]), ((1, 0), (1,)))
