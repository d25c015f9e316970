import json
from fractions import Fraction

import pytest

from repstab.groups import group, cyclic, make_morphism
from repstab.families import all_abelian, cyclic_family, truncated
from repstab.presentations import torsion_example_a, torsion_example_b, \
    free_object, evaluate_dim, builtin_to_presentation, BuiltinObject
from repstab import serialize
from repstab.errors import ParseError

from oracles import fraction_to_str, morphism_to_json, presentation_to_json


def test_group_roundtrip():
    g = group(2, [2, 1])
    blob = serialize.group_to_json(g)
    assert blob == {"p": 2, "lambda": [2, 1]}
    assert serialize.group_from_json(blob) == g
    assert serialize.group_from_json(json.loads(json.dumps(blob))) == g


def test_morphism_roundtrip():
    f = make_morphism(group(2, [2, 1]), cyclic(2, 1), [[1, 1]])
    blob = morphism_to_json(f)
    back = serialize.morphism_from_json(blob)
    assert back == f


def test_family_roundtrip():
    for fam in [all_abelian(3), cyclic_family(2),
                truncated(all_abelian(2), 8)]:
        assert serialize.family_from_json(
            serialize.family_to_json(fam)) == fam


def test_fraction_strings():
    assert fraction_to_str(Fraction(-3, 6)) == "-1/2"
    assert serialize.fraction_from_str("7/2") == Fraction(7, 2)
    assert serialize.fraction_from_str("5") == 5
    with pytest.raises(ParseError):
        serialize.fraction_from_str("x/y")


def test_presentation_roundtrip():
    for x in [torsion_example_a(3), torsion_example_b(),
              free_object(all_abelian(2), cyclic(2, 2)),
              builtin_to_presentation(BuiltinObject(
                  "s_triv", all_abelian(2), group=cyclic(2, 1)), 8)]:
        blob = presentation_to_json(x)
        back = serialize.presentation_from_json(
            json.loads(json.dumps(blob)))
        assert back == x and back.scale == x.scale
        for g in x.family.members(8):
            assert evaluate_dim(back, g) == evaluate_dim(x, g)
        # byte-stable double serialization
        assert serialize.dumps(presentation_to_json(back)) == \
            serialize.dumps(blob)


def test_decomposition_json():
    from repstab.monoidal import tensor_decompose
    fam = all_abelian(2)
    summands = tensor_decompose(cyclic(2, 1), cyclic(2, 2), fam)
    blob = serialize.decomposition_to_json(summands, fam)
    assert blob["summands"] == [
        {"group": {"p": 2, "lambda": [2]}, "multiplicity": 1},
        {"group": {"p": 2, "lambda": [2, 1]}, "multiplicity": 1},
    ]


def test_stability_csv_schema():
    table = {"p2-l1": {"dim": 2, "torsion_dim": 1, "flags": ""},
             "p2-l": {"dim": 0}}
    text = serialize.stability_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "group_key,dim,torsion_dim,tau_iso_n,flags"
    assert lines[1].startswith("p2-l,0")
    assert "p2-l1,2,1" in lines[2]
