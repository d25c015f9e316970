import math
import random
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repstab.linalg import (QMatrix, FinitePosetDiagram, space,
                            snf_reduce, colimit_of_diagram, coinvariants,
                            StreamCoker, rref_kernel, sparse_kernel)

from oracles import (FractionCoker, dense_rank, normalized_pivots,
                     rref_kernel_fraction)


def test_snf_reduce_examples():
    r, k, p = snf_reduce([[0, 0], [0, 0]])
    assert (r, len(k), len(p.indices)) == (0, 2, 2)
    r, k, p = snf_reduce(QMatrix.identity(3))
    assert (r, len(k), len(p.indices)) == (3, 0, 0)
    r, k, p = snf_reduce([[1, 1], [1, 1]])
    assert (r, len(k), len(p.indices)) == (1, 1, 1)


small = st.integers(1, 5).flatmap(
    lambda n: st.integers(0, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-3, 3), min_size=m, max_size=m),
            min_size=n, max_size=n)))


@given(small)
@settings(max_examples=120, deadline=None)
def test_rank_nullity_and_projection(rows):
    n = len(rows)
    m = len(rows[0]) if rows and rows[0] else 0
    rank, kernel, proj = snf_reduce([r for r in rows])
    assert rank + len(kernel) == m
    assert rank == dense_rank(rows) if m else rank == 0
    # kernel vectors annihilate, projection kills columns
    for vec in kernel:
        assert all(sum(rows[i][j] * vec[j] for j in range(m)) == 0
                   for i in range(n))
    for j in range(m):
        col = [Fraction(rows[i][j]) for i in range(n)]
        out = proj.matrix.apply(col) if proj.indices else ()
        assert all(v == 0 for v in out)
    # projection restricted to the chosen basis is the identity
    for pos, idx in enumerate(proj.indices):
        e = [Fraction(1 if i == idx else 0) for i in range(n)]
        out = proj.matrix.apply(e)
        assert all(out[t] == (1 if t == pos else 0)
                   for t in range(len(proj.indices)))
    # the RREF kernel: annihilated, cols - rank vectors, and vector j is
    # the delta at free column j on the free columns; exactly the vectors
    # of the dense Fraction RREF
    if m:
        mat = QMatrix.from_rows(rows)
        assert mat.rank() == dense_rank(rows)
        kern, free = rref_kernel(mat)
        assert (kern, free) == rref_kernel_fraction(mat)
        assert len(kern) == len(free) == m - rank
        for j, vec in enumerate(kern):
            assert all(sum(rows[i][c] * vec[c] for c in range(m)) == 0
                       for i in range(n))
            assert [vec[c] for c in free] == [int(k == j)
                                              for k in range(len(free))]


def test_sparse_kernel_without_constraints():
    # no rows, or only empty rows: every column is free
    units = [{j: 1} for j in range(3)]
    assert sparse_kernel([], 3) == (units, [0, 1, 2])
    assert sparse_kernel([{}, {}], 3) == (units, [0, 1, 2])
    assert sparse_kernel([{}], 0) == ([], [])
    # one row x0 + 2 x2 = 0: columns 1 and 2 are free
    assert sparse_kernel([{0: 1, 2: 2}], 3) == (
        [{1: 1}, {2: 1, 0: -2}], [1, 2])


def test_first_independent_labels_convention():
    # span {(1,1)}: the first coordinate class survives
    _r, _k, proj = snf_reduce([[1], [1]])
    assert proj.indices == (0,)


def test_colimit_examples():
    v = space(["v"])
    w = space(["w"])
    c, _maps = colimit_of_diagram(FinitePosetDiagram((v,), ()))
    assert c.dim == 1
    c2, maps = colimit_of_diagram(
        FinitePosetDiagram((v, w), ((0, 1, QMatrix.identity(1)),)),
        validate=True)
    assert c2.dim == 1
    assert all(m.rank() == 1 for m in maps)
    c3, _ = colimit_of_diagram(
        FinitePosetDiagram((v, w), ((0, 1, QMatrix.zeros(1, 1)),)))
    assert c3.dim == 1


def test_colimit_terminal_node_isomorphisms():
    # chain of isomorphisms collapses onto one copy
    nodes = tuple(space([f"x{i}"]) for i in range(3))
    arrows = ((0, 1, QMatrix.identity(1)), (1, 2, QMatrix.identity(1)),
              (0, 2, QMatrix.identity(1)))
    d = FinitePosetDiagram(nodes, arrows)
    d.validate()
    c, maps = colimit_of_diagram(d)
    assert c.dim == 1
    assert all(m.rank() == 1 for m in maps)


def test_diagram_validation_catches_bad_composites():
    nodes = (space(["a"]), space(["b"]), space(["c"]))
    bad = ((0, 1, QMatrix.identity(1)), (1, 2, QMatrix.identity(1)),
           (0, 2, QMatrix.zeros(1, 1)))
    import pytest
    with pytest.raises(ValueError):
        FinitePosetDiagram(nodes, bad).validate()


def test_coinvariants_examples():
    v2 = space(["a", "b"])
    swap = QMatrix.from_rows([[0, 1], [1, 0]])
    assert coinvariants(v2, [swap]).dim == 1
    assert coinvariants(v2, [QMatrix.identity(2)]).dim == 2
    # regular action of the two-element group on its group algebra
    assert coinvariants(v2, [swap, QMatrix.identity(2)]).dim == 1


def test_serialization_roundtrip_lossless():
    from repstab.serialize import qmatrix_to_json, qmatrix_from_json
    m = QMatrix.from_rows([[Fraction(1, 3), Fraction(-2)],
                           [Fraction(0), Fraction(5, 7)]])
    assert qmatrix_from_json(qmatrix_to_json(m)) == m


def test_stream_coker_matches_snf_reduce():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(0, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        rank, _k, proj = snf_reduce(rows)
        sc = StreamCoker(n)
        for j in range(m):
            sc.offer({i: Fraction(rows[i][j]) for i in range(n)
                      if rows[i][j]})
        assert sc.rank == rank
        assert tuple(sc.surviving()) == proj.indices


@st.composite
def coker_inputs(draw):
    """Sparse columns with negative and non-integral entries, a zero
    column and repeats, in random order; test vectors; permutations."""
    n = draw(st.integers(1, 7))
    entry = st.fractions(-4, 4, max_denominator=5)
    column = st.dictionaries(st.integers(0, n - 1), entry, max_size=n)
    cols = draw(st.lists(column, max_size=8))
    if cols:
        cols += draw(st.lists(st.sampled_from(cols), max_size=3))
    cols.append({})
    order = draw(st.permutations(range(len(cols))))
    vecs = draw(st.lists(column, min_size=1, max_size=3))
    perms = draw(st.lists(st.permutations(range(n)), max_size=2))
    return n, [cols[i] for i in order], vecs, perms


def _assert_same_coker(fast, slow, vecs):
    assert fast.rank == slow.rank
    assert tuple(fast.surviving()) == tuple(slow.surviving())
    assert normalized_pivots(fast) == normalized_pivots(slow)
    for r, col in fast.pivots.items():
        # canonical integer pivots: primitive, positive at the bottom-most
        # row, zero at every other pivot row
        assert all(type(v) is int for v in col.values())
        assert max(col) == r and col[r] > 0
        assert math.gcd(*col.values()) == 1
        assert not any(q in col for q in fast.pivots if q != r)
    for vec in vecs:
        assert fast.reduce(vec) == slow.reduce(vec)
        got = fast.project(vec)
        assert got == slow.project(vec)
        assert all(type(v) is Fraction for v in got)


@given(coker_inputs())
@settings(max_examples=200, deadline=None)
def test_integer_coker_matches_fraction_oracle(data):
    n, cols, vecs, perms = data
    fast, slow = StreamCoker(n), FractionCoker(n)
    for col in cols:
        assert fast.offer(col) == slow.offer(col)
    _assert_same_coker(fast, slow, vecs)
    actions = [lambda c, perm=perm: {perm[k]: v for k, v in c.items()}
               for perm in perms]
    fast.close_under(cols, actions)
    slow.close_under(cols, actions)
    _assert_same_coker(fast, slow, vecs)


_OPTIMIZED_CHECKS = """
import sys
from repstab import intmat, linalg, monoidal, stability, towers
from repstab.errors import InvariantViolation
from repstab.families import all_abelian
from repstab.groups import group, cyclic
from repstab.presentations import free_object

def raises(fn):
    try:
        fn()
    except InvariantViolation:
        return 1
    raise SystemExit(f"{fn} passed a broken invariant")

if sys.flags.optimize != 1:
    raise SystemExit("not running under -O")
count = raises(lambda: intmat.inverse_mod([[2]], 4))
rref_kernel = linalg.rref_kernel
linalg.rref_kernel = lambda m: (rref_kernel(m)[0], list(range(m.cols)))
count += raises(lambda: linalg.snf_reduce([[1, 0], [0, 1]]))
linalg.rref_kernel = rref_kernel
vhom = next(v for v in monoidal.enumerate_vhom(
    cyclic(2, 1), cyclic(2, 2), all_abelian(2)) if not v.spread.is_trivial())
monoidal.quotient = lambda g, s: (cyclic(2, 5), None)
count += raises(lambda: monoidal._spread_section(vhom))
# C4xC2 is no tower group: Epi(C4xC2, C2) has two orbits for one generator
x = free_object(all_abelian(2), cyclic(2, 1))
count += raises(lambda: towers._Stage(x, group(2, [2, 1])))
# nor is it a scan member: one pullback cannot stand for the others
count += raises(lambda: stability._scan_pullback(group(2, [2, 1]),
                                                 cyclic(2, 1)))
print(count)
"""


def test_verification_checks_survive_optimize(subprocess_env):
    run = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                         env=subprocess_env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["5"]
