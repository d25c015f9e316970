import json
import subprocess
import sys

import pytest

from repstab.groups import cyclic, trivial_group
from repstab.families import all_abelian, cyclic_family, truncated
from repstab.presentations import (free_object, evaluate_dim,
                                   builtin_to_presentation, BuiltinObject,
                                   torsion_example_a)
from repstab.resolutions import resolution
from repstab.errors import DepthExceeded

C2 = cyclic(2, 1)
C4 = cyclic(2, 2)


def _counit_dims(levels, x, bound):
    """Evaluate the level-0 cover and compare against x."""
    fam = truncated(x.family, bound) if x.family.kind != "TruncatedLeq" \
        else x.family
    from repstab.groups import count_epis
    out = {}
    for g in fam.members(bound):
        out[g] = sum(count_epis(g, t) for t in levels[0].generators)
    return out


def test_coinduced_minimal_resolution():
    c2inf = cyclic_family(2)
    t1 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=trivial_group(2)), 8)
    levels = resolution(t1, 8, 5, minimal=True)
    assert [[g.key() for g in lv.generators] for lv in levels] == \
        [["p2-l"], ["p2-l1"]]
    # no isomorphism components anywhere
    for lv in levels[1:]:
        for col in lv.differential:
            for entry in col:
                if entry is None:
                    continue
                for mor, _c in entry.terms:
                    assert mor.source.order > mor.target.order


def test_generator_resolves_in_degree_zero():
    e = free_object(all_abelian(2), C4)
    levels = resolution(e, 8, 4, minimal=True)
    assert len(levels) == 1
    assert [g.key() for g in levels[0].generators] == ["p2-l2"]


def test_counit_covers_values():
    c2inf = cyclic_family(2)
    t1 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=trivial_group(2)), 8)
    levels = resolution(t1, 8, 5, minimal=True)
    cover = _counit_dims(levels, t1, 8)
    for g, d in cover.items():
        assert d >= evaluate_dim(t1, g)


def test_base_grows_when_the_bottom_is_rigid():
    # the cover is an isomorphism at the base order when the value there
    # carries no automorphism twist, and the base then climbs; with plain
    # representable covers this holds at small bounds where each level
    # bottoms out on a rigid value
    c2inf = cyclic_family(2)
    t1 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=trivial_group(2)), 8)
    for bound, minimal in ((2, False), (8, True)):
        levels = resolution(t1, bound, 5, minimal=minimal)
        bases = [min(g.order for g in lv.generators) for lv in levels]
        assert bases[0] == 1
        for k in range(1, len(bases)):
            assert bases[k] >= bases[0] + k


def test_depth_guard():
    c2inf = cyclic_family(2)
    t1 = builtin_to_presentation(
        BuiltinObject("t_triv", c2inf, group=trivial_group(2)), 8)
    with pytest.raises(DepthExceeded):
        resolution(t1, 8, 0, minimal=True)


def test_twisted_residues_are_rejected_not_faked():
    # with plain representable covers a minimal resolution of an object
    # whose residues carry automorphism twists cannot exist; the library
    # refuses rather than emitting a resolution with isomorphism
    # components
    x = torsion_example_a(3)
    with pytest.raises(DepthExceeded):
        resolution(x, 27, 6, minimal=True)


# the child runs one CLI command under a 1.5 GB address-space limit
_LIMITED_CLI = """
import resource, sys
cap = 1536 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import repstab.cli
sys.exit(repstab.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("obj,bound", [
    ("unit", 4), ("t(1)", 8), ("unit", 64), ("misc-a(2)", 64),
    ("misc-b", 64), ("misc-a(3)", 81)])
def test_non_minimal_resolution_is_bounded(obj, bound, tmp_path,
                                           subprocess_env):
    # the counit's entry count grows geometrically with the level here;
    # it is refused before the matrix is built, instead of running for
    # minutes while memory grows past the limit.  The levels below the
    # refused one pass the guard and are kernels of counits with up to
    # 2^16 entries, which stay sparse: a dense kernel basis of a
    # 1 x 22905 counit would not fit under the limit
    run = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "resolve", "--object", obj,
         "--bound", str(bound), "--cache", str(tmp_path)],
        env=subprocess_env, capture_output=True, text=True, timeout=20)
    assert run.returncode == 1 and run.stdout == ""
    assert json.loads(run.stderr)["error"] == "scale-exceeded"
