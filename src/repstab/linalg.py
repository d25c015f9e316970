"""Exact rational linear algebra for evaluating functor presentations.

Everything is exact over Q; no floats anywhere.  A vector is a sparse
dict index -> value, and a linear map is a `QMatrix`: its sparse image
columns, one such dict per source basis vector, which is the form
`StreamCoker.offer` takes and `StreamCoker.project` returns.  Every rank,
kernel and cokernel runs on that one fraction-free echelon: it keeps
primitive integer pivots and builds Fractions only in the coordinates
that `reduce`, `project` and `sparse_kernel` return.
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
    """A linear map Q^cols -> Q^rows, stored as its image columns:
    columns[j] is the image of basis vector j, a sparse dict row -> value
    with no zero entries."""

    rows: int
    cols: int
    columns: tuple

    def apply(self, vec):
        """Image of a sparse vector (dict index -> value), kept sparse."""
        out = {}
        for j, c in vec.items():
            for r, v in self.columns[j].items():
                out[r] = out.get(r, 0) + c * v
        return {r: v for r, v in out.items() if v}

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        return QMatrix(self.rows, other.cols,
                       tuple(map(self.apply, other.columns)))

    def rank(self):
        return span_rank(self.rows, self.columns)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


def sparse_kernel(mat):
    """Kernel basis of a QMatrix in free-variable normal form.

    Returns (kernel, free): `free` lists the non-pivot columns of the
    reduced row echelon form, and kernel vector j is the sparse dict of
    the unique kernel vector that is 1 at free[j] and 0 at the other free
    columns.  The rows of `mat`, gathered from its columns, go into a
    `StreamCoker` with column j at position n - 1 - j, so its bottom-most
    pivots are the leftmost echelon pivots and each pivot is an integer
    multiple of a reduced echelon row.
    """
    n = mat.cols
    rows = {}
    for j, col in enumerate(mat.columns):
        for i, v in col.items():
            rows.setdefault(i, {})[n - 1 - j] = v
    coker = StreamCoker(n)
    for row in rows.values():
        coker.offer(row)
    free = [j for j in range(n) if n - 1 - j not in coker.pivots]
    kernel = {f: {f: Fraction(1)} for f in free}
    for prow, piv in coker.pivots.items():
        lead = piv[prow]
        for r, v in piv.items():
            if r != prow:
                kernel[n - 1 - r][n - 1 - prow] = Fraction(-v, lead)
    return [kernel[f] for f in free], free


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
        self._position = None

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
        self._position = None
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

    def _positions(self):
        """Each surviving row -> its coordinate on the cokernel basis."""
        if self._position is None:
            self._position = {r: k for k, r in enumerate(
                r for r in range(self.nrows) if r not in self.pivots)}
        return self._position

    def surviving(self):
        return tuple(self._positions())

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
        """Coordinates of the class of `vec` on the surviving basis, as a
        sparse dict; the reduced column has no pivot rows left."""
        c, den = self._reduce(vec)
        pos = self._positions()
        return {pos[r]: Fraction(v, den) for r, v in c.items()}


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
                    if m2 @ m1 != by_pair[(a, c)]:
                        raise ValueError(
                            f"arrows {a}->{b}->{c} do not compose to {a}->{c}")
        return True


def colimit_of_diagram(diagram):
    """Colimit of based spaces via the standard difference-map cokernel.

    Returns (colimit space, per-node structure maps into the colimit).
    """
    offsets = []
    total = 0
    labels = []
    for idx, node in enumerate(diagram.nodes):
        offsets.append(total)
        total += node.dim
        labels.extend((idx, lab) for lab in node.labels)
    coker = StreamCoker(total)
    for s, t, mat in diagram.arrows:
        for j, img in enumerate(mat.columns):
            col = {offsets[t] + i: -v for i, v in img.items()}
            col[offsets[s] + j] = col.get(offsets[s] + j, 0) + 1
            coker.offer(col)
    surv = coker.surviving()
    out_space = BasedSpace(len(surv), tuple(labels[r] for r in surv))
    structure = [QMatrix(len(surv), node.dim, tuple(
        coker.project({offsets[idx] + j: 1}) for j in range(node.dim)))
        for idx, node in enumerate(diagram.nodes)]
    return out_space, structure


def span_rank(dim, vectors):
    """Rank of a list of sparse vectors (dicts index -> value) in Q^dim."""
    coker = StreamCoker(dim)
    for vec in vectors:
        coker.offer(vec)
    return coker.rank
