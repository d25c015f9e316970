"""Ordered labeled sets, min-section-monotone surjections, and framings.

The objects here are finite nonempty totally ordered sets with natural
number labels; morphisms are surjections whose minimum-preimage section is
monotone and which never increase labels.  Their well-quasi-order theory
(through the invariant triple alpha/beta/gamma and Higman's lemma) and the
factorization of group framings through finitely many tautological ones
are the combinatorial inputs to the noetherianity results; everything is
exposed as finite, checkable constructions.
"""

from dataclasses import dataclass
from itertools import permutations

from . import config
from .errors import (NotSurjective, ShapeMismatch, InvalidFraming,
                     LawViolation)
from .groups import GroupType, _rank_mod_p
from .subgroups import _p_val


@dataclass(frozen=True)
class OrderedLabeledSet:
    """Elements 0..size-1 in their natural order, with labels in N."""

    labels: tuple

    def __post_init__(self):
        lab = tuple(int(v) for v in self.labels)
        if not lab:
            raise ValueError("ordered labeled sets are nonempty")
        if any(v < 0 for v in lab):
            raise ValueError("labels are natural numbers")
        object.__setattr__(self, "labels", lab)

    @property
    def size(self):
        return len(self.labels)

    def __repr__(self):
        return f"OLS{self.labels}"


def ols(*labels):
    return OrderedLabeledSet(tuple(labels))


@dataclass(frozen=True)
class DagSurjection:
    """A surjection of underlying ordered sets, stored with its direction.

    `values[y]` is the image in `codomain` of element y of `domain`; as a
    categorical morphism between labeled sets it points codomain-ward
    (the map never increases labels toward the codomain).
    """

    domain: OrderedLabeledSet
    codomain: OrderedLabeledSet
    values: tuple

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if len(vals) != self.domain.size:
            raise ShapeMismatch("value list must cover the domain")
        if set(vals) != set(range(self.codomain.size)):
            raise NotSurjective("underlying map must be surjective")
        object.__setattr__(self, "values", vals)

    def section(self):
        """The minimum-preimage section of the underlying surjection."""
        return dagger_map(self.values, self.codomain.size)

    def is_valid(self):
        sec = self.section()
        if any(sec[y] > sec[y + 1] for y in range(len(sec) - 1)):
            return False
        return all(self.codomain.labels[self.values[y]]
                   <= self.domain.labels[y]
                   for y in range(self.domain.size))


def dagger_map(values, target_size):
    """y -> min preimage, for a surjection given as a value list."""
    sec = [None] * target_size
    for x, y in enumerate(values):
        if sec[y] is None:
            sec[y] = x
    return tuple(sec)


def dagger(values, target_size=None):
    """The minimum-preimage section with a monotonicity verdict.

    Checks the section laws: the surjection composed with its section is
    the identity and the section composed back never moves elements up;
    a failure raises LawViolation.
    """
    values = tuple(values)
    if target_size is None:
        target_size = max(values) + 1 if values else 0
    if set(values) != set(range(target_size)):
        raise NotSurjective("value list must be onto the target range")
    sec = dagger_map(values, target_size)
    if not all(values[sec[y]] == y for y in range(target_size)):
        raise LawViolation("the section is not a right inverse")
    if not all(sec[values[x]] <= x for x in range(len(values))):
        raise LawViolation("the section is not the minimum preimage")
    monotone = all(sec[y] < sec[y + 1] for y in range(target_size - 1))
    return sec, monotone


def compose_check(phi, psi):
    """Verify the section of a composite is the composite of sections.

    phi: X -> Y and psi: Y -> Z as value lists, both min-section
    monotone.  Returns True; LawViolation means the law failed.
    """
    nz = max(psi) + 1
    ny = max(phi) + 1
    secphi, m1 = dagger(phi, ny)
    secpsi, m2 = dagger(psi, nz)
    if not (m1 and m2):
        raise NotSurjective("composition law needs monotone sections")
    comp = tuple(psi[phi[x]] for x in range(len(phi)))
    seccomp, m3 = dagger(comp, nz)
    expected = tuple(secphi[secpsi[z]] for z in range(nz))
    if seccomp != expected or not m3:
        raise LawViolation("section composition law failed")
    return True


def lex_compare(phi, psi):
    """Lexicographic comparison of two surjections with common shape.

    Returns -1, 0, or 1; precomposition with a min-section-monotone map
    preserves the order (checked exhaustively in the tests).
    """
    phi, psi = tuple(phi), tuple(psi)
    if len(phi) != len(psi):
        raise ShapeMismatch("hom-set comparison needs a common source")
    for a, b in zip(phi, psi):
        if a != b:
            return -1 if a < b else 1
    return 0


# ---------------------------------------------------------------------------
# good pair search


def _leq_product(a, b):
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def ldag_invariants(x):
    """The invariant triple (alpha, beta, gamma) of an ordered labeled set.

    alpha is the first label, beta the minimum label, gamma the word over
    the remaining elements whose letters pair each label with the minimum
    among the earlier ones.
    """
    lab = x.labels
    alpha = lab[0]
    beta = min(lab)
    gamma = []
    running = lab[0]
    for v in lab[1:]:
        gamma.append((v, running))
        running = min(running, v)
    return alpha, beta, tuple(gamma)


def _triple_leq(x, y):
    ax, bx, gx = ldag_invariants(x)
    ay, by, gy = ldag_invariants(y)
    return (ax <= ay and bx <= by
            and _word_embedding(gx, gy) is not None)


def find_good_pair(seq, order="product"):
    """First (i, j) with i < j and seq[i] <= seq[j], or None.

    Comparators: "product" on integer tuples, "words" for the embedding
    order on words over integer tuples, "ldag" for the invariant-triple
    order on ordered labeled sets.
    """
    if order == "product":
        leq = _leq_product
    elif order == "words":
        def leq(u, w):
            return _word_embedding(u, w) is not None
    elif order == "ldag":
        leq = _triple_leq
    else:
        raise ValueError(f"unknown order {order!r}")
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if leq(seq[i], seq[j]):
                return (i, j)
    return None


# ---------------------------------------------------------------------------
# the comonotone construction


def ldag_construct_morphism(x, y):
    """A labeled surjection y -> x whenever the invariant triples compare.

    Returns None when alpha/beta/gamma do not compare; otherwise builds
    the morphism by embedding the tail of x into the tail of y and routing
    the leftovers to witnesses supplied by the invariants.  The output
    always satisfies the morphism laws.
    """
    ax, bx, gx = ldag_invariants(x)
    ay, by, gy = ldag_invariants(y)
    if not (ax <= ay and bx <= by):
        return None
    emb = _word_embedding(gx, gy)
    if emb is None:
        return None
    # psi: elements of x -> elements of y (strictly increasing on tails)
    psi = [0] * x.size
    for tail_pos, target_tail in enumerate(emb):
        psi[tail_pos + 1] = target_tail + 1
    values = [None] * y.size
    for xe in range(x.size):
        values[psi[xe]] = xe
    image = sorted(psi)
    beta_witness = min(range(x.size), key=lambda e: (x.labels[e], e))
    for ye in range(y.size):
        if values[ye] is not None:
            continue
        if ye > max(image):
            values[ye] = beta_witness
            continue
        xprime = min(xe for xe in range(x.size) if psi[xe] > ye)
        # earlier element of x carrying the prefix-minimum label
        need = ldag_invariants(x)[2][xprime - 1][1] if xprime >= 1 else bx
        cand = min(e for e in range(xprime) if x.labels[e] == need)
        values[ye] = cand
    mor = DagSurjection(y, x, tuple(values))
    if not mor.is_valid():
        raise LawViolation("constructed morphism violates the laws")
    return mor


def _word_embedding(u, w):
    """Embedding order on words: a strictly increasing map with
    componentwise domination, as index list into w; None if impossible.
    Greedy matching is complete here."""
    out = []
    pos = 0
    for x in u:
        while pos < len(w) and not _leq_product(x, w[pos]):
            pos += 1
        if pos == len(w):
            return None
        out.append(pos)
        pos += 1
    return out


def _surjections(m, k):
    """All surjective value lists [m] -> [k], any order."""
    if k > m:
        return
    from itertools import product as iproduct
    for values in iproduct(range(k), repeat=m):
        if len(set(values)) == k:
            yield values


def _law_check_count(size, cap):
    """sum_{m=1..size} (sum_{k=1..m} k^m + m!): the value lists that
    `_surjections(m, k)` walks for every k <= m, and the permutations of
    each [m]; the summing stops at the first partial sum above `cap`."""
    total, fact = 0, 1
    for m in range(1, size + 1):
        fact *= m
        total += fact + sum(k ** m for k in range(1, m + 1))
        if total > cap:
            break
    return total


# ---------------------------------------------------------------------------
# framings


@dataclass(frozen=True)
class Framing:
    """A labeled ordered set mapping onto a generating list of a group.

    assignment[e] is the element of the target hit by position e; its
    order exponent never exceeds the label, and the image generates.
    """

    domain: OrderedLabeledSet
    target: GroupType
    assignment: tuple

    def __post_init__(self):
        if len(self.assignment) != self.domain.size:
            raise InvalidFraming("assignment must cover the domain")
        if any(len(elt) != self.target.rank for elt in self.assignment):
            raise InvalidFraming("elements must have one coordinate per "
                                 "cyclic factor of the target")
        for e, elt in enumerate(self.assignment):
            if element_exponent(self.target, elt) > self.domain.labels[e]:
                raise InvalidFraming(
                    f"element at position {e} has too large an order")
        if not _generates(self.target, self.assignment):
            raise InvalidFraming("assignment must generate the target")


def element_exponent(g, elt):
    """eta: the exponent of the order of an element.

    A coordinate x in Z/p^l has order p^(l - v_p(x)); the element's order
    is the largest over its nonzero coordinates.
    """
    p = g.p
    return max((ex - _p_val(v % p ** ex, p)
                for v, ex in zip(elt, g.exponents) if v % p ** ex), default=0)


def _generates(g, elements):
    """Burnside: elements generate g iff they span the Frattini quotient."""
    return _rank_mod_p(elements, g.p) == g.rank


def _ordered_subset_count(n, cap):
    """sum_{k=1..n} n!/(n-k)!, the number of nonempty ordered subsets of n
    points; the summing stops at the first partial sum above `cap`, so a
    refusal costs a handful of terms however large n is."""
    total, term = 0, 1
    for k in range(n):
        term *= n - k
        total += term
        if total > cap:
            break
    return total


def tautological_framings(a, omega=None, limit=None):
    """All framings by ordered generating subsets with their own orders.

    The label of a position is the exponent of its element, so the data
    is determined by the ordered subset; this is the finite weakly initial
    family that every framing factors through.  `omega` restricts the
    allowed label values.  The candidates are the nonempty ordered subsets
    of the elements, and their count is guarded, not the group order.
    """
    bound = config.MAX_EPI_CANDIDATES if limit is None else limit
    config.check_candidates(_ordered_subset_count(a.order, bound), limit,
                            what="tautological framings")
    elements = a.elements()
    out = []
    for subset_order in range(1, len(elements) + 1):
        for perm in permutations(elements, subset_order):
            if not _generates(a, perm):
                continue
            labels = tuple(element_exponent(a, e) for e in perm)
            if omega is not None and not set(labels) <= set(omega):
                continue
            out.append(Framing(OrderedLabeledSet(labels), a, tuple(perm)))
    return out


def is_tautological(f):
    if len(set(f.assignment)) != len(f.assignment):
        return False
    return all(f.domain.labels[e] == element_exponent(f.target,
                                                      f.assignment[e])
               for e in range(f.domain.size))


def factor_framing(f):
    """Factor a framing through a tautological one.

    The image subset is ordered by first occurrence and labeled by the
    element orders; the returned surjection composed with the tautological
    framing reproduces the input.
    """
    seen = {}
    order = []
    for e, elt in enumerate(f.assignment):
        if elt not in seen:
            seen[elt] = len(order)
            order.append(elt)
    labels = tuple(element_exponent(f.target, elt) for elt in order)
    taut = Framing(OrderedLabeledSet(labels), f.target, tuple(order))
    values = tuple(seen[elt] for elt in f.assignment)
    mor = DagSurjection(f.domain, taut.domain, values)
    if not mor.is_valid():
        raise InvalidFraming("factorization produced an invalid morphism")
    for e in range(f.domain.size):
        if taut.assignment[mor.values[e]] != f.assignment[e]:
            raise InvalidFraming("factorization does not reproduce input")
    return mor, taut
