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


def dense_rank(rows):
    """Row reduce a dense rational matrix, independently of the library."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


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


def relation_span_bruteforce(x, t):
    """The relation span of x at t, one surjection at a time.

    Offers the relation column of every surjection t -> h for every
    relation source h, with no use of the automorphism action, and returns
    the resulting StreamCoker.
    """
    from repstab.groups import enumerate_epis
    from repstab.linalg import StreamCoker
    labels = [(i, u) for i, g in enumerate(x.generators)
              for u in enumerate_epis(t, g)]
    index = {lab: k for k, lab in enumerate(labels)}
    coker = StreamCoker(len(labels))
    for h, entries in zip(x.rel_sources, x.columns):
        for beta in enumerate_epis(t, h):
            col = {}
            for i, entry in enumerate(entries):
                for mor, coeff in (entry.terms if entry is not None else ()):
                    k = index[(i, mor @ beta)]
                    col[k] = col.get(k, Fraction(0)) + coeff
            coker.offer({k: v for k, v in col.items() if v})
    return coker


def first_noninjective_bruteforce(x, a, b):
    """The first surjection b -> a whose pullback X(a) -> X(b) has a
    kernel, walking every surjection and ranking each structure map
    densely; None when all pullbacks are injective."""
    from repstab.groups import enumerate_epis
    from repstab.presentations import structure_map
    for alpha in enumerate_epis(b, a):
        mat = structure_map(x, alpha)
        if dense_rank(mat.entries) < mat.cols:
            return alpha
    return None


def jointly_surjective_bruteforce(x, a, b):
    """Whether the images of all pullbacks X(a) -> X(b) span X(b), by a
    dense rank of every column of every structure map."""
    from repstab.groups import enumerate_epis
    from repstab.presentations import evaluate_dim, structure_map
    cols = []
    for alpha in enumerate_epis(b, a):
        mat = structure_map(x, alpha)
        cols.extend(mat.column(j) for j in range(mat.cols))
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
            m = structure_map(x, psi)
            moved.extend([m.entries[r][c] - (r == c) for r in range(n)]
                         for c in range(n))
        b = dense_rank(moved)
        dims.append(n - b)
        if i:
            eps = structure_map(x, tower.projection(i - 1))
            pulled = [list(eps.column(c)) for c in range(eps.cols)]
            ranks.append(dense_rank(moved + pulled) - b)
    return dims, ranks
