"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the production code paths: matrices
are filtered by elementwise arithmetic, subgroups by closure of generated
subsets, and evaluation by dense row reduction.
"""

from fractions import Fraction
from itertools import product


def all_matrices(t, g):
    """Every well-defined matrix t -> g, by raw modular arithmetic."""
    p = g.p if g.exponents else t.p
    mu, lam = g.exponents, t.exponents
    slots = [(i, j) for i in range(len(mu)) for j in range(len(lam))]
    ranges = [range(p ** mu[i]) for (i, j) in slots]
    for flat in product(*ranges):
        mat = [[0] * len(lam) for _ in range(len(mu))]
        ok = True
        for (pos, (i, j)) in enumerate(slots):
            mat[i][j] = flat[pos]
            # killing p^lam_j times a generator must give zero
            if (flat[pos] * p ** lam[j]) % (p ** mu[i]):
                ok = False
                break
        if ok:
            yield mat


def apply_mat(mat, x, mods):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) % m
                 for row, m in zip(mat, mods))


def is_onto_bruteforce(mat, t, g):
    """Surjectivity by walking the whole image."""
    mods = g.moduli()
    image = {apply_mat(mat, x, mods) for x in t.elements()}
    return len(image) == g.order


def count_epis_bruteforce(t, g):
    if g.is_trivial():
        return 1
    return sum(1 for m in all_matrices(t, g) if is_onto_bruteforce(m, t, g))


def _pivot(row):
    for j, v in enumerate(row):
        if v:
            return j
    return len(row)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_row_form_oracle(rows, ncols):
    """Row Hermite form of the lattice spanned by `rows`, over Z, with the
    extended gcd: the form the modular `intmat.hermite_row_form` must
    reproduce once the relation rows are appended.

    Returns the nonzero rows in echelon order: pivots strictly move right,
    pivot entries are positive, entries above a pivot are reduced into
    [0, pivot).
    """
    basis = []  # kept in echelon order with distinct pivots
    for vec in rows:
        vec = list(vec)
        i = 0
        while True:
            p = _pivot(vec)
            if p == ncols:
                break
            # locate basis row with this pivot, or the insertion point
            while i < len(basis) and _pivot(basis[i]) < p:
                i += 1
            if i < len(basis) and _pivot(basis[i]) == p:
                brow = basis[i]
                if vec[p] % brow[p] == 0:
                    q = vec[p] // brow[p]
                    for j in range(p, ncols):
                        vec[j] -= q * brow[j]
                else:
                    g, x, y = _xgcd(brow[p], vec[p])
                    q1, q2 = brow[p] // g, vec[p] // g
                    new = [x * brow[j] + y * vec[j] for j in range(ncols)]
                    vec = [q1 * vec[j] - q2 * brow[j] for j in range(ncols)]
                    basis[i] = new
            else:
                basis.insert(i, vec)
                break
        # inserted rows may break echelon order below the insertion point;
        # the loop above always leaves pivots distinct, so just resort
        basis.sort(key=_pivot)
    # normalize signs and reduce entries above each pivot; within a row the
    # reductions must run left to right so later pivot columns stay clean
    for i, row in enumerate(basis):
        p = _pivot(row)
        if row[p] < 0:
            basis[i] = [-v for v in row]
    for k in range(len(basis)):
        for i in range(k + 1, len(basis)):
            p = _pivot(basis[i])
            q = basis[k][p] // basis[i][p]
            if q:
                for j in range(p, ncols):
                    basis[k][j] -= q * basis[i][j]
    return [list(r) for r in basis]


def subgroups_bruteforce(g):
    """All subgroups as frozensets, by closing generated subsets."""
    mods = g.moduli()
    elements = g.elements()

    def close(gens):
        seen = {tuple(0 for _ in mods)}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, h, mods))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    found = {close(())}
    frontier = [close(())]
    while frontier:
        s = frontier.pop()
        for x in elements:
            if x in s:
                continue
            t = close(tuple(s) + (x,))
            if t not in found:
                found.add(t)
                frontier.append(t)
    return found


def coordinates_bruteforce(s, x):
    """Coefficients c with x = sum c_k g_k over the generator data of s,
    found by searching every coefficient tuple; None if x is not in s."""
    gens, orders = s._generator_data()
    mods = s.ambient.moduli()
    want = tuple(v % m for v, m in zip(x, mods))
    for coeffs in product(*[range(d) for d in orders]):
        got = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % m
                    for i, m in enumerate(mods))
        if got == want:
            return coeffs
    return None


def coset_min_bruteforce(s, x):
    """The least element of the coset x + s, over all elements of s."""
    mods = s.ambient.moduli()
    return min(tuple((v + e) % m for v, e, m in zip(x, el, mods))
               for el in s.elements())


def _rref(rows):
    """Dense reduced row echelon form over Fractions, independently of
    the library; returns (rows, pivot column list)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
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
    return mat, pivots


def dense_rank(rows):
    """Rank of a dense rational matrix by row reduction."""
    return len(_rref(rows)[1])


def dense_columns(mat):
    """The columns of a QMatrix as dense Fraction tuples."""
    return [tuple(Fraction(col.get(r, 0)) for r in range(mat.rows))
            for col in mat.columns]


def rref_kernel_fraction(rows, ncols):
    """Kernel basis of the dense matrix `rows` with `ncols` columns in
    free-variable normal form, read off the dense Fraction RREF:
    (kernel tuples, free columns)."""
    rref_rows, pivots = _rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    kernel = []
    for fj in free:
        vec = [Fraction(0)] * ncols
        vec[fj] = Fraction(1)
        for i, pj in enumerate(pivots):
            vec[pj] = -rref_rows[i][fj]
        kernel.append(tuple(vec))
    return kernel, free


def dense_evaluate_dim(x, t):
    """dim X(t) by materializing the full relation matrix and row
    reducing it densely."""
    from repstab.groups import enumerate_epis
    labels = []
    for i, g in enumerate(x.generators):
        for u in enumerate_epis(t, g):
            labels.append((i, u))
    index = {lab: k for k, lab in enumerate(labels)}
    cols = []
    for j, h in enumerate(x.rel_sources):
        for beta in enumerate_epis(t, h):
            col = [Fraction(0)] * len(labels)
            for i, entry in enumerate(x.columns[j]):
                if entry is None:
                    continue
                for mor, coeff in entry.terms:
                    col[index[(i, mor @ beta)]] += coeff
            cols.append(col)
    if not cols:
        return len(labels)
    rows = [[cols[j][i] for j in range(len(cols))]
            for i in range(len(labels))]
    return len(labels) - dense_rank(rows)


def count_surjective_fp_matrices(p, m, n):
    """Number of n x m matrices over F_p of rank n, visiting each one.

    Depth-first over rows: a prefix of independent rows is only extended by
    a row outside its span, so every leaf at depth n is one surjective
    matrix F_p^m -> F_p^n, and the leaves are counted one at a time.
    Vectors are coded as base-p integers with table arithmetic.
    """
    if n == 0:
        return 1
    q = p ** m
    digits = [[(a // p ** i) % p for i in range(m)] for a in range(q)]

    def code(vec):
        return sum(d * p ** i for i, d in enumerate(vec))

    add = [[code([(x + y) % p for x, y in zip(digits[a], digits[b])])
            for b in range(q)] for a in range(q)]
    mul = [[code([(c * x) % p for x in digits[a]]) for a in range(q)]
           for c in range(p)]

    def walk(depth, span):
        if depth == n - 1:
            leaves = 0
            for v in range(q):
                if v not in span:
                    leaves += 1
            return leaves
        total = 0
        for v in range(q):
            if v in span:
                continue
            line = [mul[c][v] for c in range(p)]
            total += walk(depth + 1, {add[s][w] for s in span for w in line})
        return total

    return walk(0, {0})


class FractionCoker:
    """Incremental column echelon with bottom-most pivots, over Fraction.

    The rational elimination `repstab.linalg.StreamCoker` replaced by
    integer pivots, kept as its oracle: pivots are normalized to 1.

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
        """Coordinates of the class of `vec` on the surviving basis, as a
        sparse dict."""
        red = self.reduce(vec)
        return {k: red[r] for k, r in enumerate(self.surviving())
                if r in red}


def normalized_pivots(coker):
    """The pivot columns of a StreamCoker or FractionCoker, each scaled to
    1 at its pivot row: equal exactly when the two spans are equal."""
    return {r: {rr: Fraction(v) / col[r] for rr, v in col.items()}
            for r, col in coker.pivots.items()}


def relation_span_bruteforce(x, t):
    """The relation span of x at t, one surjection at a time.

    Offers the relation column of every surjection t -> h for every
    relation source h, with no use of the automorphism action, and returns
    the resulting FractionCoker.
    """
    from repstab.groups import enumerate_epis
    labels = [(i, u) for i, g in enumerate(x.generators)
              for u in enumerate_epis(t, g)]
    index = {lab: k for k, lab in enumerate(labels)}
    coker = FractionCoker(len(labels))
    for h, entries in zip(x.rel_sources, x.columns):
        for beta in enumerate_epis(t, h):
            col = {}
            for i, entry in enumerate(entries):
                for mor, coeff in (entry.terms if entry is not None else ()):
                    k = index[(i, mor @ beta)]
                    col[k] = col.get(k, Fraction(0)) + coeff
            coker.offer({k: v for k, v in col.items() if v})
    return coker


def simple_presentation_bruteforce(family, g, scale):
    """The simple object at g presented up to `scale` without orbits: a
    relation psi - id for every automorphism psi of g and one relation
    source per surjection t -> g from every larger t up to the scale."""
    from repstab.groups import enumerate_epis, identity_morphism
    from repstab.presentations import MorphismCombination, PresentedObject
    ident = identity_morphism(g)
    sources, columns = [], []
    for psi in enumerate_epis(g, g):
        if psi != ident:
            sources.append(g)
            columns.append((MorphismCombination.make(
                g, g, [(psi, 1), (ident, -1)]),))
    for t in family.members(max_order=scale):
        if t.order > g.order:
            for alpha in enumerate_epis(t, g):
                sources.append(t)
                columns.append((MorphismCombination.make(t, g, [(alpha, 1)]),))
    return PresentedObject(family, (g,), sources, columns, scale)


def first_noninjective_bruteforce(x, a, b):
    """The first surjection b -> a whose pullback X(a) -> X(b) has a
    kernel, walking every surjection and ranking each structure map
    densely; None when all pullbacks are injective."""
    from repstab.groups import enumerate_epis
    from repstab.presentations import structure_map
    for alpha in enumerate_epis(b, a):
        mat = structure_map(x, alpha)
        if dense_rank(dense_columns(mat)) < mat.cols:
            return alpha
    return None


def jointly_surjective_bruteforce(x, a, b):
    """Whether the images of all pullbacks X(a) -> X(b) span X(b), by a
    dense rank of every column of every structure map."""
    from repstab.groups import enumerate_epis
    from repstab.presentations import evaluate_dim, structure_map
    cols = []
    for alpha in enumerate_epis(b, a):
        cols.extend(dense_columns(structure_map(x, alpha)))
    return dense_rank(cols) == evaluate_dim(x, b)


def compose_bruteforce(a, b, mods):
    """The matrix of a o b (b applied first), rows reduced by `mods`, the
    moduli of the target of a."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % m
                       for j in range(len(b[0]) if b else 0))
                 for i, m in enumerate(mods))


def orbits_bruteforce(g, points, act):
    """Orbits of the full automorphism group of g on `points`.

    The orbit of a point is its image under every element of
    `automorphisms(g)`, so no generating set and no union-find is
    involved; act(point, matrix) is the action.  Returns the partition as
    a set of frozensets.
    """
    from repstab.groups import automorphisms
    auts = [a.matrix for a in automorphisms(g)]
    seen, orbits = set(), set()
    for x in points:
        if x not in seen:
            orbit = frozenset(act(x, a) for a in auts)
            seen |= orbit
            orbits.add(orbit)
    return orbits


def coinvariant_stages_bruteforce(x, tower, max_stage):
    """Stage dims and connecting-map ranks of a colimit tower, by
    evaluating X at every stage.

    Stage i is X(G_i) modulo B_i, the span of the columns of M_psi - I
    over the automorphism generators psi of G_i, ranked densely.  The map
    from stage i to stage i+1 has rank rank(eps^* X(G_i) + B_{i+1}) -
    rank(B_{i+1}), with eps the tower projection.  Returns (dims, ranks).
    """
    from repstab.groups import automorphism_generators
    from repstab.presentations import evaluate_dim, structure_map

    dims, ranks = [], []
    for i in range(max_stage + 1):
        g = tower.group(i)
        n = evaluate_dim(x, g)
        moved = []
        for psi in automorphism_generators(g):
            m = dense_columns(structure_map(x, psi))
            moved.extend([m[c][r] - (r == c) for r in range(n)]
                         for c in range(n))
        b = dense_rank(moved)
        dims.append(n - b)
        if i:
            eps = structure_map(x, tower.projection(i - 1))
            pulled = [list(c) for c in dense_columns(eps)]
            ranks.append(dense_rank(moved + pulled) - b)
    return dims, ranks


def mat_mul(a, b):
    """Product of two integer matrices given as row lists."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def image_subgroup(f, s):
    """Image f(S) of a subgroup of the source of f, generated by the
    images of its generators."""
    from repstab.subgroups import subgroup_from_generators
    return subgroup_from_generators(f.target, [f(v) for v in s.generators])


def preimage(f, s):
    """Preimage of a subgroup of the target under a morphism: the x with
    f(x) = y for some y in s, read off one integer kernel."""
    from repstab.errors import NotASubgroup
    from repstab.intmat import integer_kernel
    from repstab.subgroups import subgroup_from_lattice_rows
    if s.ambient != f.target:
        raise NotASubgroup("subgroup not inside the morphism target")
    r, t = f.source.rank, f.target.rank
    mat = [[f.matrix[i][j] for j in range(r)]
           + [-s.basis[k][i] for k in range(t)]
           for i in range(t)]
    rows = [k[:r] for k in integer_kernel(mat, r + t)]
    return subgroup_from_lattice_rows(f.source, rows)


def sum_with(s, other):
    """The subgroup generated by two subgroups of one ambient group."""
    from repstab.errors import NotASubgroup
    from repstab.subgroups import subgroup_from_lattice_rows
    if other.ambient != s.ambient:
        raise NotASubgroup("ambient groups differ")
    return subgroup_from_lattice_rows(
        s.ambient, [list(r) for r in s.basis] + [list(r) for r in other.basis])


def intersection_order(s, other):
    """|s meet other| via |s||other| / |s + other|."""
    return s.order * other.order // sum_with(s, other).order


def generic_subgroups_bruteforce(g):
    """Every subgroup of g, unsorted: each known subgroup S is extended by
    every element x with p x in S and x not in S, one Hermite form per
    element."""
    from repstab.subgroups import (subgroup_from_lattice_rows,
                                   trivial_subgroup)
    p = g.p
    mods = g.moduli()
    bottom = trivial_subgroup(g)
    seen = {bottom.basis: bottom}
    frontier = [bottom]
    while frontier:
        new = []
        for s in frontier:
            for x in g.elements():
                px = tuple((p * v) % m for v, m in zip(x, mods))
                if not s.contains_element(px) or s.contains_element(x):
                    continue
                t = subgroup_from_lattice_rows(
                    g, [list(row) for row in s.basis] + [list(x)])
                if t.basis not in seen:
                    seen[t.basis] = t
                    new.append(t)
        frontier = new
    return list(seen.values())


def vhom_list_bruteforce(g, h, family):
    """Virtual homs (A, A') from g to h, sorted: every A' <= A embedded in
    g x h, kept when its meet with 1 x h is trivial and A/A' is in the
    family."""
    from repstab import monoidal
    from repstab.subgroups import enumerate_subgroups, quotient
    prod = monoidal.Product.of(g, h)
    right = prod.factor_subgroup(1)
    out = []
    for w in monoidal._wide_list(g, h):
        a = w.embedded
        for t in enumerate_subgroups(a.isomorphism_type):
            aprime = monoidal._embed(a, t)
            if intersection_order(aprime, right) != 1:
                continue
            spread = quotient(a.isomorphism_type,
                              monoidal._inner(a, aprime))[0]
            if not family.contains(spread):
                continue
            out.append(monoidal.VirtualHom(g, h, w, aprime, spread))
    out.sort(key=lambda v: v.sort_key())
    return out


def times_identity(phi, g):
    """(phi x 1): T' x g -> T x g as a morphism, column by column from the
    images of the unit vectors."""
    from repstab.groups import make_morphism
    from repstab.monoidal import Product
    src, dst = Product.of(phi.source, g), Product.of(phi.target, g)
    n = src.group.rank
    cols = []
    for k in range(n):
        s, x = src.split(tuple(1 if i == k else 0 for i in range(n)))
        cols.append(dst.embed(phi(s), x))
    return make_morphism(src.group, dst.group,
                         [[c[i] for c in cols]
                          for i in range(dst.group.rank)])


def is_pushforward_bruteforce(phi_x_1, wp, w, lamp, lam):
    """(phi x 1)(W') == W and lam' == lam o (phi x 1), element by element."""
    a_up, a_dn = wp.embedded, w.embedded
    pairs = [(v, phi_x_1(v)) for v in a_up.elements()]
    if {img for _v, img in pairs} != set(a_dn.elements()):
        return False
    return all(lamp(a_up.abstract_coordinates(v))
               == lam(a_dn.abstract_coordinates(img)) for v, img in pairs)


def enumerate_morphisms(x, y):
    """All labeled surjections y -> x, over every value list."""
    from repstab.wqo import DagSurjection
    out = []
    for values in product(range(x.size), repeat=y.size):
        if len(set(values)) == x.size:
            d = DagSurjection(y, x, values)
            if d.is_valid():
                out.append(d)
    return out


def fraction_to_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def morphism_to_json(f):
    from repstab.serialize import group_to_json
    return {"source": group_to_json(f.source),
            "target": group_to_json(f.target),
            "matrix": [list(row) for row in f.matrix]}


def presentation_to_json(x):
    """The documented object format of a PresentedObject, the input that
    `serialize.presentation_from_json` reads."""
    from repstab.serialize import group_to_json, family_to_json
    cols = []
    for col in x.columns:
        entries = []
        for entry in col:
            if entry is None or not entry.terms:
                entries.append({"terms": []})
            else:
                entries.append({"terms": [
                    {"matrix": morphism_to_json(mor),
                     "coeff": fraction_to_str(c)}
                    for mor, c in entry.terms]})
        cols.append(entries)
    out = {"family": family_to_json(x.family),
           "generators": [group_to_json(g) for g in x.generators],
           "relation_sources": [group_to_json(h) for h in x.rel_sources],
           "relations": cols}
    if x.scale is not None:
        out["scale"] = x.scale
    return out
