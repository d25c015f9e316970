from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repstab.groups import group, cyclic, trivial_group
from repstab.families import (Family, all_abelian, exponent_bounded,
                              cyclic_family, free_modules, elementary,
                              truncated, family_contains, parse_family_spec,
                              parse_group_spec)
from repstab.errors import ParseError, ScaleExceeded


def test_membership():
    c2inf = cyclic_family(2)
    assert family_contains(c2inf, cyclic(2, 2))
    assert not family_contains(c2inf, group(2, [1, 1]))
    f4 = free_modules(2, 2)
    assert not family_contains(f4, group(2, [2, 1]))
    assert family_contains(f4, group(2, [2, 2]))
    assert family_contains(f4, trivial_group(2))
    e2 = elementary(2)
    assert family_contains(e2, group(2, [1, 1, 1]))
    assert not family_contains(e2, cyclic(2, 2))
    z4 = exponent_bounded(2, 2)
    assert family_contains(z4, group(2, [2, 2, 1]))
    assert not family_contains(z4, cyclic(2, 3))


def test_trivial_group_in_every_family():
    for fam in [all_abelian(2), exponent_bounded(2, 2), cyclic_family(3),
                free_modules(2, 2), elementary(5),
                truncated(all_abelian(2), 4)]:
        assert family_contains(fam, trivial_group(2))


def test_flags():
    assert all_abelian(2).widely_closed
    assert all_abelian(2).multiplicative
    assert cyclic_family(2).widely_closed       # global families are convex
    assert not cyclic_family(2).multiplicative
    assert not free_modules(2, 2).widely_closed  # fails for exponent 4
    assert free_modules(2, 1).widely_closed      # same as elementary
    assert elementary(3).subgroup_closed
    tr = truncated(all_abelian(2), 8)
    assert tr.widely_closed and not tr.multiplicative


def test_members():
    z2 = all_abelian(2)
    keys = [g.key() for g in z2.members(8)]
    assert keys == ["p2-l", "p2-l1", "p2-l1.1", "p2-l2", "p2-l1.1.1",
                    "p2-l2.1", "p2-l3"]
    assert [g.key() for g in cyclic_family(2).members(8)] == \
        ["p2-l", "p2-l1", "p2-l2", "p2-l3"]
    assert [g.key() for g in free_modules(2, 2).members(100)] == \
        ["p2-l", "p2-l2", "p2-l2.2", "p2-l2.2.2"]


def test_parse_specs():
    assert parse_family_spec("Z2inf").key() == "Zpinf:2"
    assert parse_family_spec("Zpn:2,3").key() == "Zpn:2,3"
    assert parse_family_spec("Cpinf:3").key() == "Cpinf:3"
    assert parse_family_spec("F9").key() == "Fpn:3,2"
    assert parse_family_spec("E2").key() == "Ep:2"
    with pytest.raises(ParseError):
        parse_family_spec("F6")
    with pytest.raises(ParseError):
        parse_family_spec("weird")


def test_large_prime_power_factor_parses():
    # the base 1000003 has no small factor; only it is tested for primality
    assert parse_group_spec(f"C{1000003 ** 5}") == group(1000003, [5])
    assert parse_family_spec(f"F{1000003 ** 5}").key() == "Fpn:1000003,5"
    with pytest.raises(ParseError):
        parse_group_spec(f"C{1000003 ** 2 * 1000033}")


@pytest.mark.parametrize("spec", ["F0", "F1", "Z0", "Z1"])
def test_degenerate_prime_power_shorthands_raise(spec):
    with pytest.raises(ParseError):
        parse_family_spec(spec)


@pytest.mark.parametrize("spec", ["Zpinf:4", "E4", "E1", "Ep:6", "Cpn:9,2",
                                  "Zpn:2,0", "Zpn:2,-1", "Cpn:3,-2",
                                  "Fpn:2,-1"])
def test_bad_family_parameters_raise(spec):
    with pytest.raises(ParseError):
        parse_family_spec(spec)


def test_family_requires_prime():
    with pytest.raises(ValueError):
        Family("Zpinf", 4)
    with pytest.raises(ValueError):
        elementary(1)


def test_huge_multiplicities_raise_at_once():
    # the exponent list and p ** order would be built before any guard
    for spec in ("C2^99999999999", "C4^2049", "p=2;lambda=[99999999999]",
                 "p=3;lambda=[4000,97]"):
        with pytest.raises(ParseError):
            parse_group_spec(spec)
    assert parse_group_spec("C2^4096").order == 2 ** 4096


# tokens of the group and family grammars, plus raw characters from them
_SPEC_TOKENS = ("C", "x", "^", "p=", ";", "lambda=", "[", "]", ",", " ",
                ":", "-", "0", "1", "2", "3", "4", "8", "9", "27", "6",
                "99999999999", "Z", "F", "E", "inf", "Zpinf", "Zpn",
                "Cpinf", "Cpn", "Fpn", "Ep", "Z2inf", "Z3inf")
_small = st.integers(-3, 9)
_numbers = st.one_of(_small, st.integers(-3, 10 ** 12))
spec_texts = st.one_of(
    st.lists(st.sampled_from(_SPEC_TOKENS), max_size=10).map("".join),
    st.text(alphabet="Cxp=;lambd[],0123456789^-: ZFEinf", max_size=24),
    # the grammars themselves with numbers far outside their ranges
    st.builds("C{}^{}xC{}".format, _numbers, _numbers, _numbers),
    st.builds(lambda p, lam: f"p={p};lambda=[{','.join(map(str, lam))}]",
              _numbers, st.lists(_numbers, max_size=4)),
    st.builds("{}:{},{}".format, st.sampled_from(
        ["Zpinf", "Zpn", "Cpinf", "Cpn", "Fpn", "Ep"]), _numbers, _numbers),
    st.builds("{}:{},{}".format, st.sampled_from(["Zpn", "Cpn", "Fpn"]),
              st.sampled_from([2, 3, 5]), _small),
    st.builds("{}{}".format, st.sampled_from("FZE"), _numbers))


@given(spec_texts)
@settings(max_examples=500, deadline=timedelta(seconds=2))
def test_spec_parsers_return_or_raise_parse_error(text):
    for parse in (parse_group_spec, parse_family_spec):
        try:
            got = parse(text)
        except ParseError:
            continue
        except ScaleExceeded as exc:
            # primes above the exact Miller-Rabin range are refused
            assert "primality" in str(exc)
            continue
        if parse is parse_family_spec:
            assert got.n is None or got.n >= 1, got
