import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repstab.linalg import (QMatrix, FinitePosetDiagram, space,
                            colimit_of_diagram, StreamCoker, sparse_kernel)

from oracles import (FractionCoker, dense_columns, dense_rank,
                     normalized_pivots, rref_kernel_fraction)


def _qmatrix(rows, ncols):
    """The QMatrix of a dense integer matrix given by its rows."""
    return QMatrix(len(rows), ncols, tuple(
        {i: row[j] for i, row in enumerate(rows) if row[j]}
        for j in range(ncols)))


def _identity(n):
    return QMatrix(n, n, tuple({i: 1} for i in range(n)))


def _dense(n, m):
    return st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                    min_size=n, max_size=n)


small = st.integers(1, 5).flatmap(
    lambda n: st.integers(0, 5).flatmap(lambda m: _dense(n, m)))


@given(small, st.data())
@settings(max_examples=120, deadline=None)
def test_rank_nullity_and_projection(rows, data):
    n, m = len(rows), len(rows[0])
    mat = _qmatrix(rows, m)
    rank = dense_rank(rows)
    assert mat.rank() == rank
    assert mat.is_invertible() == (n == m == rank)
    # apply and @ against dense integer products
    vec = data.draw(st.dictionaries(st.integers(0, max(m - 1, 0)),
                                    st.integers(-3, 3), max_size=m))
    image = [sum(row[j] * c for j, c in vec.items()) for row in rows]
    assert mat.apply(vec) == {i: v for i, v in enumerate(image) if v}
    k = data.draw(st.integers(0, 4))
    other = data.draw(_dense(m, k))
    prod = [[sum(rows[i][t] * other[t][j] for t in range(m))
             for j in range(k)] for i in range(n)]
    got = mat @ _qmatrix(other, k)
    assert got == _qmatrix(prod, k)
    assert dense_columns(got) == [tuple(row[j] for row in prod)
                                  for j in range(k)]
    with pytest.raises(ValueError):
        mat @ _identity(m + 1)
    # the RREF kernel: annihilated, cols - rank vectors, and vector j is
    # the delta at free column j on the free columns; exactly the vectors
    # of the dense Fraction RREF
    kern, free = sparse_kernel(mat)
    assert ([tuple(vec.get(j, 0) for j in range(m)) for vec in kern],
            free) == rref_kernel_fraction(rows, m)
    assert len(kern) == len(free) == m - rank
    for j, vec in enumerate(kern):
        assert mat.apply(vec) == {}
        assert [vec.get(c, 0) for c in free] == [int(t == j)
                                                 for t in range(len(free))]
    # the cokernel projection kills the columns and is the identity on
    # the surviving basis
    coker = StreamCoker(n)
    for col in mat.columns:
        coker.offer(col)
    assert coker.rank == rank and len(coker.surviving()) == n - rank
    assert all(coker.project(col) == {} for col in mat.columns)
    for pos, r in enumerate(coker.surviving()):
        assert coker.project({r: 1}) == {pos: 1}


def test_sparse_kernel_without_constraints():
    # no rows, or only empty rows: every column is free
    units = [{j: 1} for j in range(3)]
    assert sparse_kernel(QMatrix(0, 3, ({}, {}, {}))) == (units, [0, 1, 2])
    assert sparse_kernel(QMatrix(2, 3, ({}, {}, {}))) == (units, [0, 1, 2])
    assert sparse_kernel(QMatrix(1, 0, ())) == ([], [])
    # one row x0 + 2 x2 = 0: columns 1 and 2 are free
    assert sparse_kernel(QMatrix(1, 3, ({0: 1}, {}, {0: 2}))) == (
        [{1: 1}, {2: 1, 0: -2}], [1, 2])


def test_first_independent_labels_convention():
    # span {(1,1)}: the first coordinate class survives, and e_1 = -e_0
    coker = StreamCoker(2)
    coker.offer({0: 1, 1: 1})
    assert coker.surviving() == (0,)
    assert coker.project({1: 1}) == {0: -1}


def test_colimit_examples():
    v = space(["v"])
    w = space(["w"])
    c, _maps = colimit_of_diagram(FinitePosetDiagram((v,), ()))
    assert c.dim == 1
    d = FinitePosetDiagram((v, w), ((0, 1, _identity(1)),))
    assert d.validate()
    c2, maps = colimit_of_diagram(d)
    assert c2.dim == 1
    assert all(m.rank() == 1 for m in maps)
    c3, _ = colimit_of_diagram(
        FinitePosetDiagram((v, w), ((0, 1, QMatrix(1, 1, ({},))),)))
    assert c3.dim == 1


def test_colimit_terminal_node_isomorphisms():
    # chain of isomorphisms collapses onto one copy
    nodes = tuple(space([f"x{i}"]) for i in range(3))
    arrows = ((0, 1, _identity(1)), (1, 2, _identity(1)),
              (0, 2, _identity(1)))
    d = FinitePosetDiagram(nodes, arrows)
    d.validate()
    c, maps = colimit_of_diagram(d)
    assert c.dim == 1
    assert all(m.rank() == 1 for m in maps)


def test_diagram_validation_catches_bad_composites():
    nodes = (space(["a"]), space(["b"]), space(["c"]))
    bad = ((0, 1, _identity(1)), (1, 2, _identity(1)),
           (0, 2, QMatrix(1, 1, ({},))))
    with pytest.raises(ValueError):
        FinitePosetDiagram(nodes, bad).validate()


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
        assert all(type(v) is Fraction for v in got.values())


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
from repstab import intmat, monoidal, stability, towers
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
    assert run.stdout.split() == ["4"]
