"""Exact rational linear algebra for evaluating functor presentations.

Everything is over Q with fractions.Fraction; no floats anywhere.  The
cokernel convention is fixed once: the surviving basis of target/im(M) is
the first maximal independent subset of the ambient basis in label order.
Pivot columns therefore always carry their pivot at the *largest* involved
row, which makes the greedy-from-the-front quotient basis drop out of the
echelon form (cross-checked against a brute-force greedy oracle in the
tests).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation


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

    def __add__(self, other):
        return QMatrix.from_rows(
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return QMatrix.from_rows(
            [[a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)])

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
        return len(_rref([list(r) for r in self.entries])[1])

    def is_zero(self):
        return all(v == 0 for row in self.entries for v in row)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


def _rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rref_kernel(mat):
    """Kernel basis of a QMatrix in free-variable normal form.

    Returns (kernel, free): `free` lists the non-pivot columns, and kernel
    vector j is the unique one that is 1 at free[j] and 0 at the other
    free columns.
    """
    rref_rows, pivots = _rref([list(r) for r in mat.entries])
    free = [j for j in range(mat.cols) if j not in pivots]
    kernel = []
    for fj in free:
        vec = [Fraction(0)] * mat.cols
        vec[fj] = Fraction(1)
        for i, pj in enumerate(pivots):
            vec[pj] = -rref_rows[i][fj]
        kernel.append(tuple(vec))
    return kernel, free


class StreamCoker:
    """Incremental column echelon with bottom-most pivots.

    Feed sparse columns (dicts row -> Fraction); afterwards `surviving`
    lists the ambient rows whose classes form the canonical cokernel
    basis and `project` maps any vector to its coordinates on them.
    """

    def __init__(self, nrows):
        self.nrows = nrows
        self.pivots = {}  # pivot row -> sparse column, normalized

    def offer(self, col):
        """Insert a column; returns True if it increased the rank."""
        c = self.reduce(col)
        if not c:
            return False
        prow = max(c)
        inv = 1 / c[prow]
        c = {r: v * inv for r, v in c.items()}
        for other in self.pivots.values():
            f = other.get(prow)
            if f:
                for rr, v in c.items():
                    if rr == prow:
                        other.pop(prow, None)
                    else:
                        nv = other.get(rr, Fraction(0)) - f * v
                        if nv:
                            other[rr] = nv
                        else:
                            other.pop(rr, None)
        self.pivots[prow] = c
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
        return [r for r in range(self.nrows) if r not in self.pivots]

    def reduce(self, vec):
        """Canonical representative of the class of `vec` (sparse dict)."""
        c = dict(vec)
        for r in [r for r in c if r in self.pivots]:
            f = c.pop(r)
            if f:
                for rr, v in self.pivots[r].items():
                    if rr != r:
                        nv = c.get(rr, Fraction(0)) - f * v
                        if nv:
                            c[rr] = nv
                        else:
                            c.pop(rr, None)
        return {r: v for r, v in c.items() if v}

    def project(self, vec):
        """Coordinates of the class of `vec` on the surviving basis."""
        red = self.reduce(vec)
        return tuple(red.get(r, Fraction(0)) for r in self.surviving())


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
    proj_rows = []
    for r in surv:
        proj_rows.append([Fraction(0)] * m.rows)
    for amb in range(m.rows):
        coords = coker.project({amb: Fraction(1)})
        for k in range(len(surv)):
            proj_rows[k][amb] = coords[k]
    proj = CokernelProjection(tuple(surv),
                              QMatrix.from_rows(proj_rows) if surv
                              else QMatrix.zeros(0, m.rows))
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
            col = {offsets[s] + j: Fraction(1)}
            for i in range(mat.rows):
                v = mat.entries[i][j]
                if v:
                    col[offsets[t] + i] = col.get(offsets[t] + i,
                                                  Fraction(0)) - v
            coker.offer({k: v for k, v in col.items() if v})
    surv = coker.surviving()
    out_space = BasedSpace(len(surv), tuple(labels[r] for r in surv))
    structure = []
    for idx, node in enumerate(diagram.nodes):
        cols = []
        for j in range(node.dim):
            cols.append(coker.project({offsets[idx] + j: Fraction(1)}))
        rows = [tuple(cols[j][k] for j in range(node.dim))
                for k in range(len(surv))]
        structure.append(QMatrix(len(surv), node.dim, tuple(rows)))
    return out_space, structure


def coinvariants(v, action):
    """Quotient of `v` by the span of (g - id) over the given generators."""
    return coinvariants_data(v, action)[0]


def coinvariants_data(v, action):
    """Like coinvariants but also returns the StreamCoker for projections."""
    coker = StreamCoker(v.dim)
    for mat in action:
        for j in range(v.dim):
            col = {}
            for i in range(v.dim):
                val = mat.entries[i][j] - (1 if i == j else 0)
                if val:
                    col[i] = Fraction(val)
            if col:
                coker.offer(col)
    surv = coker.surviving()
    return BasedSpace(len(surv), tuple(v.labels[r] for r in surv)), coker


def span_rank(dim, vectors):
    """Rank of a list of vectors (tuples/dicts) in Q^dim."""
    coker = StreamCoker(dim)
    n = 0
    for vec in vectors:
        if isinstance(vec, dict):
            col = {i: Fraction(v) for i, v in vec.items() if v}
        else:
            col = {i: Fraction(v) for i, v in enumerate(vec) if v}
        if coker.offer(col):
            n += 1
    return n
