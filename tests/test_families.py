import pytest

from repstab.groups import group, cyclic, trivial_group
from repstab.families import (Family, all_abelian, exponent_bounded,
                              cyclic_family, free_modules, elementary,
                              truncated, family_contains, parse_family_spec,
                              parse_group_spec)
from repstab.errors import ParseError


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
                                  "Zpn:2,0"])
def test_bad_family_parameters_raise(spec):
    with pytest.raises(ParseError):
        parse_family_spec(spec)


def test_family_requires_prime():
    with pytest.raises(ValueError):
        Family("Zpinf", 4)
    with pytest.raises(ValueError):
        elementary(1)
