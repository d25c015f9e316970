import math

import pytest
from hypothesis import given, settings, strategies as st

from repstab.groups import (group, cyclic, trivial_group,
                            make_morphism, identity_morphism, is_surjective,
                            enumerate_epis, iter_epis, count_epis,
                            automorphisms, automorphism_generators,
                            quotient_exists, lift_epi, hom_candidate_count,
                            aut_transitive_on_epis, first_epi, _is_prime,
                            section)
from repstab.errors import DivisibilityViolation, ShapeMismatch, ScaleExceeded
from repstab.families import all_abelian
from repstab.subgroups import image, quotient
from repstab.presentations import _orbit_structure, free_object
from repstab.stability import _two_point_orbit_index
from repstab.towers import _Stage

from oracles import (count_epis_bruteforce, all_matrices, is_onto_bruteforce,
                     compose_bruteforce, orbits_bruteforce)

C2 = cyclic(2, 1)
C4 = cyclic(2, 2)
C8 = cyclic(2, 3)
C22 = group(2, [1, 1])
C23 = group(2, [1, 1, 1])
C42 = group(2, [2, 1])

SMALL_2GROUPS = [trivial_group(2), C2, C22, C4, C23, C42, C8]


def test_grouptype_invariants():
    g = group(2, [2, 1])
    assert g.order == 8 and g.rank == 2
    assert g.key() == "p2-l2.1"
    assert trivial_group(2).key() == "p2-l"
    assert trivial_group(2) == trivial_group(3)
    with pytest.raises(ValueError):
        group(2, [1, 2])  # not sorted
    with pytest.raises(ValueError):
        group(4, [1])     # not prime


def test_make_morphism_examples():
    f = make_morphism(C4, C2, [[1]])
    assert is_surjective(f)
    with pytest.raises(DivisibilityViolation):
        make_morphism(C2, C4, [[1]])
    g = make_morphism(C42, C4, [[1, 2]])
    assert is_surjective(g)
    with pytest.raises(ShapeMismatch):
        make_morphism(C4, C2, [[1, 0]])


def test_canonical_reduction_idempotent():
    f = make_morphism(C4, C2, [[3]])
    assert f.matrix == ((1,),)
    g = make_morphism(C4, C4, [[5]])
    assert g.matrix == ((1,),)


def test_is_surjective_examples():
    assert is_surjective(make_morphism(C4, C2, [[1]]))
    assert is_surjective(make_morphism(C22, C2, [[1, 1]]))
    assert not is_surjective(make_morphism(C4, C4, [[2]]))


def test_surjectivity_brute_force_agreement():
    # mod-p rank criterion vs image enumeration, plus cokernel triviality
    pairs = [(t, g) for t in SMALL_2GROUPS for g in SMALL_2GROUPS
             if hom_candidate_count(t, g) <= 512]
    for t, g in pairs:
        if g.is_trivial():
            continue
        for mat in all_matrices(t, g):
            f = make_morphism(t, g, mat)
            brute = is_onto_bruteforce(mat, t, g)
            assert is_surjective(f) == brute
            qt, _ = quotient(g, image(f))
            assert (qt.order == 1) == brute


def test_epi_counts_match_bruteforce():
    for t in SMALL_2GROUPS:
        for g in SMALL_2GROUPS:
            if hom_candidate_count(t, g) > 4096:
                continue
            assert count_epis(t, g) == count_epis_bruteforce(t, g), (t, g)
    for t, g in [(group(3, [1, 1]), cyclic(3, 1)),
                 (cyclic(3, 2), cyclic(3, 1)),
                 (group(3, [2, 1]), group(3, [1, 1]))]:
        assert count_epis(t, g) == count_epis_bruteforce(t, g)


def test_enumerate_epis_examples():
    assert len(enumerate_epis(C22, C2)) == 3
    assert enumerate_epis(C2, C4) == []
    p, m, n = 2, 3, 2
    t, g = group(p, [1] * m), group(p, [1] * n)
    expected = math.prod(p ** m - p ** i for i in range(n))
    assert len(enumerate_epis(t, g)) == expected


def test_enumeration_is_lexicographic_and_canonical():
    epis = enumerate_epis(C22, C2)
    keys = [f.sort_key() for f in epis]
    assert keys == sorted(keys)
    for f in epis:
        assert all(0 <= v < 2 for row in f.matrix for v in row)


def test_closed_form_count_agrees_with_enumeration():
    # mixed exponents: closed form vs the mod-p walk vs image enumeration
    pairs = [(group(2, [2, 1]), group(2, [1, 1])),
             (group(2, [3, 1]), group(2, [2, 1])),
             (group(2, [2, 2, 1]), group(2, [2, 1])),
             (group(2, [3, 2]), cyclic(2, 2)),
             (group(3, [2, 1]), group(3, [1, 1])),
             (group(3, [3, 1]), group(3, [2, 1])),
             (group(3, [2, 1]), cyclic(3, 2)),
             (group(5, [2, 1]), group(5, [1, 1])),
             (group(5, [2, 1]), cyclic(5, 2))]
    for t, g in pairs:
        n = count_epis(t, g)
        assert n > 0, (t, g)
        assert n == sum(1 for _ in iter_epis(t, g)), (t, g)
        assert n == count_epis_bruteforce(t, g), (t, g)
    # above every former scan bound: 2^30 candidates
    t, g = group(2, [1] * 6), group(2, [1] * 5)
    assert count_epis(t, g) == math.prod(2 ** 6 - 2 ** i for i in range(5))


def test_closed_form_count_on_small_families():
    # every pair of members with at most 2^14 candidate matrices
    checked = 0
    for p, bound in ((2, 64), (3, 81), (5, 125)):
        members = all_abelian(p).members(bound)
        for t in members:
            for g in members:
                if hom_candidate_count(t, g) > 1 << 14:
                    continue
                assert count_epis(t, g) == \
                    sum(1 for _ in iter_epis(t, g)), (t, g)
                checked += 1
    assert checked == 975


def test_aut_transitive_on_epis_matches_orbits():
    # the primitive against a union-find over every surjection; homocyclic
    # sources have one orbit on every Epi(t, h), the others have two or
    # more on Epi(t, C_p)
    checked = 0
    for p, bound in ((2, 32), (3, 27), (5, 25)):
        members = all_abelian(p).members(bound)
        for t in members:
            homocyclic = len(set(t.exponents)) <= 1
            assert aut_transitive_on_epis(t) == homocyclic, t
            if not homocyclic:
                assert len(_orbit_structure(t, cyclic(p, 1))[0]) > 1, t
                continue
            for h in members:
                if quotient_exists(t, h) and count_epis(t, h) <= 5000:
                    assert len(_orbit_structure(t, h)[0]) == 1, (t, h)
                    checked += 1
    assert checked == 66
    assert not aut_transitive_on_epis(C42)
    assert len(_orbit_structure(C42, C2)[0]) == 2


def test_first_epi_is_first_in_enumeration():
    checked = 0
    for p, bound in ((2, 64), (3, 81), (5, 125)):
        members = all_abelian(p).members(bound)
        for t in members:
            for g in members:
                if hom_candidate_count(t, g) <= 1 << 16:
                    assert first_epi(t, g) == next(iter_epis(t, g), None)
                    checked += 1
    assert checked == 1022
    # far beyond any enumeration: C2^12 -> C2^6 has 2^72 candidates
    t, g = group(2, [1] * 12), group(2, [1] * 6)
    assert is_surjective(first_epi(t, g))
    assert first_epi(t, g).matrix[0] == (0,) * 11 + (1,)


def test_is_prime_exact_and_bounded():
    sieve = [n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
             for n in range(20000)]
    assert [_is_prime(n) for n in range(20000)] == sieve
    # strong pseudoprimes to several of the bases, and large primes
    assert not _is_prime(3215031751)          # spsp(2, 3, 5, 7)
    assert not _is_prime(3825123056546413051)  # spsp(2, ..., 23)
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 61 + 1)
    assert not _is_prime(2 ** 89)
    with pytest.raises(ScaleExceeded):
        _is_prime(2 ** 89 - 1)


def test_automorphisms_examples():
    assert len(automorphisms(C22)) == 6
    assert len(automorphisms(C4)) == 2
    assert len(automorphisms(trivial_group(2))) == 1
    assert automorphisms(C4) == enumerate_epis(C4, C4)


def _generated(gens, g):
    """Matrices of the group the automorphisms `gens` generate, by BFS.

    A matrix is kept as the tuple of its columns, the images of the
    generators of g, and each automorphism acts on them through a table
    of its values on the elements of g.
    """
    tables = [{x: psi(x) for x in g.elements()} for psi in gens]
    start = tuple(zip(*identity_morphism(g).matrix))
    reached, frontier = {start}, [start]
    while frontier:
        cols = frontier.pop()
        for table in tables:
            h = tuple(table[c] for c in cols)
            if h not in reached:
                reached.add(h)
                frontier.append(h)
    return {tuple(zip(*cols)) for cols in reached}


@pytest.mark.parametrize("g", [C2, C4, C22, C42, C8, cyclic(3, 2),
                               group(3, [1, 1]), group(2, [2, 2])])
def test_automorphism_generators_generate(g):
    full = {f.matrix for f in automorphisms(g)}
    assert _generated(automorphism_generators(g), g) == full


@pytest.mark.parametrize("g", [C23, group(3, [1, 1, 1]), group(2, [2, 2, 2]),
                               group(2, [1, 1, 1, 1]), group(2, [3, 3]),
                               group(3, [2, 2])],
                         ids=["C2^3", "C3^3", "C4^3", "C2^4", "C8^2", "C9^2"])
def test_homocyclic_generators_generate(g):
    # |Aut(g)| = |Epi(g, g)| in closed form, so nothing lists Aut(g)
    assert len(_generated(automorphism_generators(g), g)) == count_epis(g, g)


def test_homocyclic_generators_at_most_four():
    for p in (2, 3, 5):
        for g in all_abelian(p).members(729):
            if g.rank >= 2 and len(set(g.exponents)) == 1:
                assert len(automorphism_generators(g)) <= 4, g


def test_composition_associative_and_canonical():
    a = make_morphism(C42, C4, [[1, 2]])
    b = make_morphism(C4, C2, [[1]])
    c = make_morphism(group(2, [2, 2]), C42, [[1, 0], [0, 1]])
    assert ((b @ a) @ c).matrix == (b @ (a @ c)).matrix


def test_epis_are_categorically_epi():
    # precomposition with a surjection is injective on surjection sets
    phi = make_morphism(C23, C22, [[1, 0, 0], [0, 1, 0]])
    seen = {}
    for f in enumerate_epis(C22, C2):
        key = (f @ phi).matrix
        assert key not in seen
        seen[key] = f


def test_lift_epi_fills_cospans():
    # free source dominating: every cospan lifts to a surjection
    fq = group(2, [2, 2])
    for b in [C4, C42, group(2, [2, 2]), C22]:
        for c in [C2, C4, trivial_group(2)]:
            if not quotient_exists(b, c) or not quotient_exists(fq, c):
                continue
            alpha = next(iter_epis(fq, c))
            beta = next(iter_epis(b, c))
            gamma = lift_epi(alpha, beta)
            assert is_surjective(gamma)
            assert (beta @ gamma).matrix == alpha.matrix


def test_lift_epi_many_cospans():
    fq = group(2, [1, 1, 1])
    b = group(2, [1, 1])
    c = C2
    for alpha in enumerate_epis(fq, c)[:5]:
        for beta in enumerate_epis(b, c)[:5]:
            gamma = lift_epi(alpha, beta)
            assert is_surjective(gamma)
            assert (beta @ gamma).matrix == alpha.matrix


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_quotient_exists_iff_epis_exist(a, b):
    t = group(2, [2, 1][:a] or [1]) if a else trivial_group(2)
    g = group(2, [1] * b) if b else trivial_group(2)
    has = count_epis(t, g) > 0
    assert has == quotient_exists(t, g)


# Z2inf<=16 and Z3inf<=27 (E2 up to rank 3 lies inside the first)
ORBIT_FAMILIES = ((2, 16), (3, 27))


def _orbit_pairs(max_epis=5000):
    """(g, t) with t nontrivial and 0 < |Epi(g, t)| <= max_epis; the bound
    leaves out only C2^4 -> C2^4 and C3^3 -> C3^3."""
    for p, bound in ORBIT_FAMILIES:
        members = all_abelian(p).members(bound)
        for g in members:
            for t in members:
                if not t.is_trivial() and 0 < count_epis(g, t) <= max_epis:
                    yield g, t


def _partition(keys, roots):
    parts = {}
    for key, root in zip(keys, roots):
        parts.setdefault(root, set()).add(key)
    return {frozenset(part) for part in parts.values()}


def test_section_is_a_section():
    checked = 0
    for g, t in _orbit_pairs():
        mods = g.moduli()
        for f in enumerate_epis(g, t):
            sec = section(f)
            assert len(sec) == t.rank
            for k, x in enumerate(sec):
                e_k = tuple(1 if i == k else 0 for i in range(t.rank))
                assert f(tuple(v % m for v, m in zip(x, mods))) == e_k, f
            checked += 1
    assert checked == 4593


def test_orbit_structure_matches_full_automorphisms():
    checked = 0
    for g, t in _orbit_pairs():
        reps, lookup = _orbit_structure(g, t)
        mats = [f.matrix for f in enumerate_epis(g, t)]
        mods = t.moduli()
        want = orbits_bruteforce(
            g, mats, lambda f, a: compose_bruteforce(f, a, mods))
        assert _partition(mats, [lookup[m] for m in mats]) == want, (g, t)
        # every representative lies in the orbit it labels and is its
        # first member in enumeration order
        assert [lookup[r.matrix] for r in reps] == list(range(len(reps)))
        first = {}
        for m in mats:
            first.setdefault(lookup[m], m)
        assert [r.matrix for r in reps] == [first[o] for o in range(len(reps))]
        checked += 1
    assert checked == 53


def test_two_point_orbit_index_matches_full_automorphisms():
    checked = 0
    for g, h in _orbit_pairs(max_epis=64):
        mats = [f.matrix for f in enumerate_epis(g, h)]
        mods = h.moduli()
        pairs = [(a, b) for a in mats for b in mats]
        index = _two_point_orbit_index(g, h)
        want = orbits_bruteforce(
            g, pairs, lambda ab, s: (compose_bruteforce(ab[0], s, mods),
                                     compose_bruteforce(ab[1], s, mods)))
        assert _partition(pairs, [index[ab] for ab in pairs]) == want, (g, h)
        checked += 1
    assert checked == 45


def test_stage_dim_is_orbit_count_at_homocyclic_members():
    # at a homocyclic group the closed-form stage of a free object has one
    # coordinate per live generator: that many Aut-orbits of labels
    checked = 0
    for p, bound in ORBIT_FAMILIES:
        fam = all_abelian(p)
        gens = [cyclic(p, 1), group(p, [1, 1])]
        x = free_object(fam, *gens)
        for g in fam.members(bound):
            if not aut_transitive_on_epis(g):
                continue
            keys = [(i, u.matrix) for i, gen in enumerate(gens)
                    for u in enumerate_epis(g, gen)]
            want = orbits_bruteforce(
                g, keys, lambda iu, a: (iu[0], compose_bruteforce(
                    iu[1], a, gens[iu[0]].moduli())))
            live = sum(quotient_exists(g, gen) for gen in gens)
            assert _Stage(x, g).dim == live == len(want), g
            checked += 1
    assert checked == 15
