"""Exact rational linear algebra for evaluating functor presentations.

Everything is exact over Q; no floats anywhere.  Every rank, kernel and
cokernel runs on one fraction-free echelon, `StreamCoker`: it keeps
primitive integer pivots and builds Fractions only in the coordinates
that `reduce`, `project` and `sparse_kernel` return.  Vectors are sparse
dicts index -> value throughout; dense `QMatrix`es hold structure maps
and diagram arrows, and `rref_kernel` is a dense view of `sparse_kernel`.
The cokernel convention is fixed once: the surviving basis of target/im(M)
is the first maximal independent subset of the ambient basis in label
order.  Pivot columns therefore always carry their pivot at the *largest*
involved row, which makes the greedy-from-the-front quotient basis drop
out of the echelon form (cross-checked against a brute-force greedy
oracle in the tests).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantViolation

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BasedSpace:
    """A finite dimensional Q-vector space with a labeled basis."""

    dim: int
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise ValueError("label count must match dimension")
        if len(set(self.labels)) != self.dim:
            raise ValueError("labels must be distinct")


def space(labels):
    labels = tuple(labels)
    return BasedSpace(len(labels), labels)


@dataclass(frozen=True)
class QMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of Fraction

    @classmethod
    def from_rows(cls, rows):
        ent = tuple(tuple(Fraction(v) for v in row) for row in rows)
        r = len(ent)
        c = len(ent[0]) if ent else 0
        if any(len(row) != c for row in ent):
            raise ValueError("ragged rows")
        return cls(r, c, ent)

    @classmethod
    def zeros(cls, r, c):
        return cls(r, c, tuple(tuple(Fraction(0) for _ in range(c))
                               for _ in range(r)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(Fraction(1 if i == j else 0)
                                     for j in range(n)) for i in range(n)))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum((self.entries[i][k] * other.entries[k][j]
                                for k in range(self.cols)), Fraction(0)))
            out.append(tuple(row))
        return QMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec):
        return tuple(sum((row[j] * vec[j] for j in range(self.cols)),
                         Fraction(0)) for row in self.entries)

    def apply_sparse(self, col):
        """Image of a sparse column (dict index -> value), kept sparse."""
        out = {}
        for r, row in enumerate(self.entries):
            v = sum((row[c] * val for c, val in col.items()), Fraction(0))
            if v:
                out[r] = v
        return out

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def rank(self):
        return span_rank(self.cols, self.entries)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


def sparse_kernel(rows, n):
    """Kernel basis of the matrix with sparse rows (dicts column -> value)
    and n columns, in free-variable normal form.

    Returns (kernel, free): `free` lists the non-pivot columns of the
    reduced row echelon form, and kernel vector j is the sparse dict of
    the unique kernel vector that is 1 at free[j] and 0 at the other free
    columns.  The rows go into a `StreamCoker` with column j at position
    n - 1 - j, so its bottom-most pivots are the leftmost echelon pivots
    and each pivot is an integer multiple of a reduced echelon row.
    """
    coker = StreamCoker(n)
    for row in rows:
        coker.offer({n - 1 - j: v for j, v in row.items()})
    free = [j for j in range(n) if n - 1 - j not in coker.pivots]
    kernel = {f: {f: Fraction(1)} for f in free}
    for prow, piv in coker.pivots.items():
        lead = piv[prow]
        for r, v in piv.items():
            if r != prow:
                kernel[n - 1 - r][n - 1 - prow] = Fraction(-v, lead)
    return [kernel[f] for f in free], free


def rref_kernel(mat):
    """Kernel basis of a QMatrix in free-variable normal form, as dense
    tuples; see `sparse_kernel`."""
    kernel, free = sparse_kernel(
        [{j: v for j, v in enumerate(row) if v} for row in mat.entries],
        mat.cols)
    return [tuple(vec.get(j, _ZERO) for j in range(mat.cols))
            for vec in kernel], free


class StreamCoker:
    """Incremental column echelon with bottom-most pivots, over the integers.

    Feed sparse columns (dicts row -> int or Fraction); afterwards
    `surviving` lists the ambient rows whose classes form the canonical
    cokernel basis and `project` maps any vector to its coordinates on them.
    Each pivot is a primitive integer column: positive at its own row, zero
    at every other pivot row, entries with gcd 1.  That is the unique
    integer multiple of the normalized echelon column, so `pivots` depends
    only on the span.  Offered columns are cleared of denominators once and
    reduced by cross-multiplication (Bareiss, Math. Comp. 22, 1968).
    """

    def __init__(self, nrows):
        self.nrows = nrows
        self.pivots = {}  # pivot row -> primitive integer sparse column
        self._surviving = None

    def offer(self, col):
        """Insert a column; returns True if it increased the rank."""
        c, _den = self._reduce(col)
        if not c:
            return False
        prow = max(c)
        c = _primitive(c, prow)
        for r, other in list(self.pivots.items()):
            if prow in other:
                _eliminate(other, c, prow)
                self.pivots[r] = _primitive(other, r)
        self.pivots[prow] = c
        self._surviving = None
        return True

    def close_under(self, frontier, actions):
        """Grow the span until every action maps it into itself.

        `frontier` holds columns already in the span; each action maps a
        sparse column to a sparse column.  Every column that raises the
        rank is queued and its images offered in turn, so afterwards the
        span is spanned by columns whose images all lie in it: it is
        closed under the actions, and under the finite group they
        generate.
        """
        frontier = list(frontier)
        while frontier and self.rank < self.nrows:
            col = frontier.pop()
            for act in actions:
                img = act(col)
                if self.offer(img):
                    frontier.append(img)

    @property
    def rank(self):
        return len(self.pivots)

    def surviving(self):
        if self._surviving is None:
            self._surviving = tuple(r for r in range(self.nrows)
                                    if r not in self.pivots)
        return self._surviving

    def _reduce(self, vec):
        """(c, den): the canonical representative of the class of `vec`
        is c / den, with c an integer sparse column free of pivot rows."""
        den = lcm(*(v.denominator for v in vec.values()))
        c = {r: v.numerator * (den // v.denominator)
             for r, v in vec.items() if v}
        for r in [r for r in c if r in self.pivots]:
            den *= _eliminate(c, self.pivots[r], r)
        return c, den

    def reduce(self, vec):
        """Canonical representative of the class of `vec` (sparse dict)."""
        c, den = self._reduce(vec)
        return {r: Fraction(v, den) for r, v in c.items()}

    def project(self, vec):
        """Coordinates of the class of `vec` on the surviving basis."""
        c, den = self._reduce(vec)
        return tuple(Fraction(c[r], den) if r in c else _ZERO
                     for r in self.surviving())


def _eliminate(c, piv, r):
    """Replace c by a * c - b * piv in place, for the least a > 0 that
    cancels row r; returns a."""
    g = gcd(piv[r], c[r])
    a, b = piv[r] // g, c[r] // g
    if a != 1:
        for rr in c:
            c[rr] *= a
    for rr, v in piv.items():
        nv = c.get(rr, 0) - b * v
        if nv:
            c[rr] = nv
        else:
            del c[rr]
    return a


def _primitive(c, prow):
    """The column c divided by the gcd of its entries, signed so that its
    entry at prow is positive."""
    g = gcd(*c.values())
    if c[prow] < 0:
        g = -g
    return c if g == 1 else {r: v // g for r, v in c.items()}


@dataclass(frozen=True)
class CokernelProjection:
    """Projection onto the canonical cokernel basis.

    `indices` are the surviving ambient basis positions, `matrix` sends an
    ambient vector to its cokernel coordinates.
    """

    indices: tuple
    matrix: QMatrix


def snf_reduce(m):
    """Rank, kernel basis, and cokernel projection of a rational matrix.

    The kernel basis is in the column coordinates of `m`; the cokernel
    projection uses the first-independent-rows convention described in the
    module docstring.
    """
    if not isinstance(m, QMatrix):
        m = QMatrix.from_rows(m)
    coker = StreamCoker(m.rows)
    kernel, free = rref_kernel(m)
    rank = m.cols - len(free)
    for j in range(m.cols):
        coker.offer({i: m.entries[i][j] for i in range(m.rows)
                     if m.entries[i][j]})
    surv = coker.surviving()
    cols = [coker.project({amb: 1}) for amb in range(m.rows)]
    proj = CokernelProjection(surv, QMatrix(len(surv), m.rows,
                                            tuple(zip(*cols))))
    if rank != coker.rank:
        raise InvariantViolation(
            f"row rank {rank} disagrees with column rank {coker.rank}")
    return rank, kernel, proj


@dataclass(frozen=True)
class FinitePosetDiagram:
    """Finitely many based spaces with compatible arrows between them."""

    nodes: tuple                 # BasedSpace per node
    arrows: tuple                # (src index, dst index, QMatrix)

    def validate(self):
        """Check arrow compatibility on composable chains in the diagram."""
        by_pair = {}
        for s, t, mat in self.arrows:
            if mat.rows != self.nodes[t].dim or mat.cols != self.nodes[s].dim:
                raise ValueError(f"arrow {s}->{t} has wrong shape")
            by_pair[(s, t)] = mat
        for (a, b), m1 in by_pair.items():
            for (b2, c), m2 in by_pair.items():
                if b2 == b and (a, c) in by_pair:
                    if (m2 @ m1).entries != by_pair[(a, c)].entries:
                        raise ValueError(
                            f"arrows {a}->{b}->{c} do not compose to {a}->{c}")
        return True


def colimit_of_diagram(diagram, validate=False):
    """Colimit of based spaces via the standard difference-map cokernel.

    Returns (colimit space, per-node structure maps into the colimit).
    """
    if validate:
        diagram.validate()
    offsets = []
    total = 0
    labels = []
    for idx, node in enumerate(diagram.nodes):
        offsets.append(total)
        total += node.dim
        labels.extend((idx, lab) for lab in node.labels)
    coker = StreamCoker(total)
    for s, t, mat in diagram.arrows:
        for j in range(diagram.nodes[s].dim):
            col = {offsets[s] + j: 1}
            for i in range(mat.rows):
                v = mat.entries[i][j]
                if v:
                    col[offsets[t] + i] = col.get(offsets[t] + i, 0) - v
            coker.offer(col)
    surv = coker.surviving()
    out_space = BasedSpace(len(surv), tuple(labels[r] for r in surv))
    structure = []
    for idx, node in enumerate(diagram.nodes):
        cols = [coker.project({offsets[idx] + j: 1})
                for j in range(node.dim)]
        structure.append(QMatrix(len(surv), node.dim, tuple(
            tuple(c[k] for c in cols) for k in range(len(surv)))))
    return out_space, structure


def coinvariants(v, action):
    """Quotient of `v` by the span of (g - id) over the given generators."""
    coker = StreamCoker(v.dim)
    for mat in action:
        for j in range(v.dim):
            coker.offer({i: mat.entries[i][j] - (i == j)
                         for i in range(v.dim)})
    surv = coker.surviving()
    return BasedSpace(len(surv), tuple(v.labels[r] for r in surv))


def span_rank(dim, vectors):
    """Rank of a list of vectors (tuples/dicts) in Q^dim."""
    coker = StreamCoker(dim)
    for vec in vectors:
        coker.offer(vec if isinstance(vec, dict) else dict(enumerate(vec)))
    return coker.rank
