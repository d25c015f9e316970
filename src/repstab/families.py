"""Families of finite abelian p-groups and their closure properties.

A family is a membership predicate on isomorphism types together with four
derived flags that the tensor/hom and truncation machinery consults:
widely_closed, multiplicative, subgroup_closed, downward_closed.  All
supported families contain the trivial group.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParseError
from .groups import GroupType, _is_prime, trivial_group

KINDS = ("Zpinf", "Zpn", "Cpinf", "Cpn", "Fpn", "Ep", "TruncatedLeq")

# Largest exponent sum (log_p of the order) a group spec may describe.  A
# spec like C2^<huge> would otherwise build its exponent list, and every
# later p ** order, before any scale guard could refuse it; no computation
# here reaches orders near p^4096.
_MAX_SPEC_LOG_ORDER = 4096


@dataclass(frozen=True)
class Family:
    kind: str
    p: int
    n: int = None
    base: "Family" = None
    bound: int = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.kind in ("Zpn", "Cpn", "Fpn") and (self.n is None
                                                   or self.n < 1):
            raise ValueError(f"{self.kind} needs an exponent parameter n >= 1")
        if self.kind == "TruncatedLeq" and (self.base is None or not self.bound):
            raise ValueError("TruncatedLeq needs base family and order bound")

    # ---- closure flags -------------------------------------------------
    @property
    def widely_closed(self):
        if self.kind in ("Zpinf", "Zpn", "Ep"):
            return True
        if self.kind in ("Cpinf", "Cpn"):
            return True   # global families are convex, hence widely closed
        if self.kind == "Fpn":
            return self.n == 1
        return self.base.widely_closed  # truncation keeps wide closure

    @property
    def multiplicative(self):
        if self.kind in ("Zpinf", "Zpn", "Ep"):
            return True
        if self.kind == "Fpn":
            return True
        return False  # cyclic families and truncations are not

    @property
    def subgroup_closed(self):
        if self.kind in ("Zpinf", "Zpn", "Ep", "Cpinf", "Cpn"):
            return True
        if self.kind == "Fpn":
            return self.n == 1
        return self.base.subgroup_closed

    @property
    def downward_closed(self):
        if self.kind in ("Zpinf", "Zpn", "Ep", "Cpinf", "Cpn"):
            return True
        if self.kind == "Fpn":
            return self.n == 1
        return self.base.downward_closed

    @property
    def expansive(self):
        """Whether ranks grow without bound above every member."""
        if self.kind in ("Zpinf", "Zpn", "Ep", "Fpn"):
            return True
        return False

    # ---- membership and iteration --------------------------------------
    def contains(self, g):
        if g.is_trivial():
            return True
        if g.p != self.p:
            return False
        lam = g.exponents
        if self.kind == "Zpinf":
            return True
        if self.kind == "Zpn":
            return lam[0] <= self.n
        if self.kind == "Cpinf":
            return len(lam) <= 1
        if self.kind == "Cpn":
            return len(lam) <= 1 and lam[0] <= self.n
        if self.kind == "Fpn":
            return all(e == self.n for e in lam)
        if self.kind == "Ep":
            return all(e == 1 for e in lam)
        return g.order <= self.bound and self.base.contains(g)

    def members(self, max_order):
        """All member types of order <= max_order, canonically sorted."""
        out = [GroupType(self.p, ())]
        k = 1
        while self.p ** k <= max_order:
            for lam in _partitions(k):
                g = GroupType(self.p, lam)
                if self.contains(g):
                    out.append(g)
            k += 1
        out.sort(key=lambda g: g.sort_key())
        return out

    def key(self):
        if self.kind == "TruncatedLeq":
            return f"{self.base.key()}-le{self.bound}"
        n = f",{self.n}" if self.n else ""
        return f"{self.kind}:{self.p}{n}"

    def __repr__(self):
        return f"Family({self.key()})"


@lru_cache(maxsize=None)
def _partitions(total):
    """Partitions of `total` as non-increasing tuples."""
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return tuple(rec(total, total))


def family_contains(family, g):
    return family.contains(g)


def all_abelian(p):
    return Family("Zpinf", p)


def exponent_bounded(p, n):
    return Family("Zpn", p, n)


def cyclic_family(p, n=None):
    return Family("Cpn", p, n) if n else Family("Cpinf", p)


def free_modules(p, n):
    return Family("Fpn", p, n)


def elementary(p):
    return Family("Ep", p)


def truncated(base, bound):
    return Family("TruncatedLeq", base.p, base=base, bound=bound)


def parse_family_spec(text):
    """Parse CLI family specs.

    Accepted forms: Z2inf, Z3inf, Zpinf:p, Zpn:p,n, Cpinf:p, Cpn:p,n,
    Fpn:p,n, Ep:p, and the shorthands F<q> / E<p> / Z<q> with q = p^n.
    """
    try:
        return _family_from_spec(text)
    except ValueError as exc:
        raise ParseError(f"bad family spec {text!r}: {exc}") from exc


def _family_from_spec(text):
    t = text.strip()
    if t in ("Z2inf", "Z3inf"):
        return all_abelian(int(t[1]))
    if ":" in t:
        head, _, args = t.partition(":")
        try:
            parts = [int(a) for a in args.split(",") if a]
        except ValueError as exc:
            raise ParseError(f"bad family parameters in {text!r}") from exc
        if head == "Zpinf" and len(parts) == 1:
            return all_abelian(parts[0])
        if head == "Zpn" and len(parts) == 2:
            return exponent_bounded(*parts)
        if head == "Cpinf" and len(parts) == 1:
            return cyclic_family(parts[0])
        if head == "Cpn" and len(parts) == 2:
            return cyclic_family(*parts)
        if head == "Fpn" and len(parts) == 2:
            return free_modules(*parts)
        if head == "Ep" and len(parts) == 1:
            return elementary(parts[0])
        raise ParseError(f"unknown family spec {text!r}")
    for prefix, maker in (("F", free_modules), ("Z", exponent_bounded)):
        if t.startswith(prefix) and t[1:].isdigit():
            return maker(*_prime_power_or_raise(int(t[1:]), text, 1))
    if t.startswith("E") and t[1:].isdigit():
        return elementary(int(t[1:]))
    raise ParseError(f"unknown family spec {text!r}")


def parse_group_spec(text):
    """Parse "C8", "C2^3", "C4xC2", or "p=2;lambda=[2,1]" into a group.

    Factors of a product must share the prime; composite cyclic orders are
    rejected with the offending position.
    """
    t = text.strip()
    if not t:
        raise ParseError("empty group spec", 0)
    if t.startswith("p="):
        return _parse_long_form(t)
    exps = []
    prime = None
    pos = 0
    for factor in t.split("x"):
        factor = factor.strip()
        if not factor.startswith("C") and factor != "1":
            raise ParseError(f"expected C<order> in {text!r}", pos)
        if factor == "1" or factor == "C1":
            pos += len(factor) + 1
            continue
        body, _, mult = factor[1:].partition("^")
        try:
            order = int(body)
            mult = int(mult) if mult else 1
        except ValueError:
            raise ParseError(f"bad factor {factor!r} in {text!r}", pos)
        p, e = _prime_power_or_raise(order, text, pos)
        if prime is None:
            prime = p
        elif prime != p:
            raise ParseError(
                f"mixed primes {prime} and {p} in {text!r}", pos)
        _check_log_order(sum(exps) + e * mult, text, pos)
        exps.extend([e] * mult)
        pos += len(factor) + 1
    if prime is None:
        return trivial_group()
    return GroupType(prime, tuple(sorted(exps, reverse=True)))


def _prime_power_or_raise(order, text, pos):
    """(p, e) with order = p^e, e >= 1; ParseError otherwise.

    The largest e with an exact integer e-th root gives the one base that
    is not itself a perfect power, so only that base is tested for
    primality.
    """
    if order < 2:
        raise ParseError(f"factor order {order} too small in {text!r}", pos)
    for e in range(order.bit_length() - 1, 0, -1):
        p = _iroot(order, e)
        if p ** e == order:
            if _is_prime(p):
                return p, e
            break
    raise ParseError(f"{order} is not a prime power in {text!r}", pos)


def _iroot(n, e):
    """floor(n ** (1/e)) in integers, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _parse_long_form(t):
    try:
        parts = dict(kv.split("=", 1) for kv in t.split(";"))
        p = int(parts["p"])
        lam = parts["lambda"].strip()
        if not (lam.startswith("[") and lam.endswith("]")):
            raise ValueError
        inner = lam[1:-1].strip()
        exps = tuple(int(v) for v in inner.split(",")) if inner else ()
        g = GroupType(p, tuple(sorted(exps, reverse=True)))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad long-form group spec {t!r}") from exc
    _check_log_order(sum(g.exponents), t, 0)
    return g


def _check_log_order(total, text, pos):
    if total > _MAX_SPEC_LOG_ORDER:
        raise ParseError(f"exponent sum {total} exceeds "
                         f"{_MAX_SPEC_LOG_ORDER} in {text!r}", pos)
