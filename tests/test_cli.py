import json
import shlex
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import repstab

from repstab.cli import main, parse_object_spec
from repstab.families import parse_group_spec
from repstab.groups import group, cyclic, trivial_group
from repstab.errors import CacheCorrupt, ParseError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_group_spec():
    assert repstab.parse_group_spec is parse_group_spec
    assert parse_group_spec("C4xC2") == group(2, [2, 1])
    assert parse_group_spec("p=3;lambda=[1,1]") == group(3, [1, 1])
    assert parse_group_spec("C2^3") == group(2, [1, 1, 1])
    assert parse_group_spec("C8") == cyclic(2, 3)
    assert parse_group_spec("C1") == trivial_group(2)
    with pytest.raises(ParseError):
        parse_group_spec("C6")
    with pytest.raises(ParseError):
        parse_group_spec("C4xC3")
    try:
        parse_group_spec("C6")
    except ParseError as exc:
        assert exc.position is not None


def test_object_fixtures():
    x = parse_object_spec("misc-a(3)")
    assert x.generators[0] == cyclic(3, 1)
    y = parse_object_spec("misc-b")
    assert y.family.p == 2
    e = parse_object_spec("e(C4)")
    assert e.generators == (cyclic(2, 2),)
    t = parse_object_spec("t(1)")
    assert t.family.kind == "Cpinf"


_FIXTURE_NAMES = ("misc-a", "misc-b", "unit", "e", "s", "c", "t")


def _is_small_prime(text):
    n = int(text)
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


# fixture names with arguments outside their grammar: misc-a takes a
# prime, misc-b and unit take none, e/s/c/t take a group spec in parens
bad_fixture_args = st.one_of(
    st.text(alphabet="0146-ax ", min_size=1, max_size=4).filter(
        lambda a: not (a.strip().isdigit() and _is_small_prime(a)))
    .map(lambda a: f"misc-a({a})"),
    st.tuples(st.sampled_from(["misc-b", "unit"]),
              st.text(alphabet="()C2", min_size=1, max_size=4))
    .map("(".join),
    st.tuples(st.sampled_from("esct"),
              st.text(alphabet="abqxyz-^", min_size=1, max_size=5))
    .map(lambda na: f"{na[0]}({na[1]})"),
    st.sampled_from(["misc-a(3", "e(C2", "t(1", "s(C2))", "e", "t"]))


@given(st.text(alphabet="misc-abunetx()C2^013;=p[]", max_size=16))
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_object_spec_names_outside_grammar_raise(text):
    assume(text.strip().partition("(")[0] not in _FIXTURE_NAMES)
    with pytest.raises(ParseError):
        parse_object_spec(text)


@given(bad_fixture_args)
@settings(max_examples=200, deadline=timedelta(seconds=2))
def test_object_spec_bad_fixture_arguments_raise(text):
    with pytest.raises(ParseError):
        parse_object_spec(text)


def test_decompose_tensor_command(tmp_path, capsys):
    code, out, _ = run_cli(["decompose-tensor", "--g", "C2", "--h", "C4",
                            "--family", "Z2inf",
                            "--cache", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["summands"] == [
        {"group": {"p": 2, "lambda": [2]}, "multiplicity": 1},
        {"group": {"p": 2, "lambda": [2, 1]}, "multiplicity": 1},
    ]


def test_warm_cache_identical_bytes(tmp_path, capsys):
    args = ["decompose-hom", "--g", "C2", "--h", "C2", "--family", "Z2inf",
            "--cache", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(["cache-info", "--cache", str(tmp_path)],
                             capsys)
    assert code3 == 0
    info = json.loads(out3)
    assert len(info["entries"]) == 1
    assert info["entries"][0]["key"].startswith("decompose-hom:v1:")


def test_corrupt_cache_recomputed(tmp_path, capsys):
    args = ["decompose-tensor", "--g", "C2", "--h", "C2",
            "--family", "Z2inf", "--cache", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    for path in tmp_path.glob("*.json"):
        path.write_text("{ not json")
    with pytest.warns(Warning):
        code2, out2, _ = run_cli(args, capsys)
    assert code2 == 0 and out1 == out2


def test_cache_entry_not_an_object_recomputed(tmp_path, capsys):
    args = ["decompose-tensor", "--g", "C2", "--h", "C4",
            "--family", "Z2inf", "--cache", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    for path in tmp_path.glob("*.json"):
        path.write_text("[1,2]")
    code, out, _ = run_cli(["cache-info", "--cache", str(tmp_path)], capsys)
    assert code == 0
    assert [e["key"] for e in json.loads(out)["entries"]] == ["<corrupt>"]
    with pytest.warns(CacheCorrupt):
        code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0 and out1 == out2


def test_undecodable_cache_file_listed_corrupt(tmp_path, capsys):
    (tmp_path / "junk.json").write_bytes(b"\xff\xfe{\x80}")
    code, out, err = run_cli(["cache-info", "--cache", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["entries"] == [{"key": "<corrupt>", "bytes": 5}]


def test_cache_key_carries_package_version(tmp_path, capsys, monkeypatch):
    import repstab.cache
    args = ["decompose-hom", "--g", "C2", "--h", "C4", "--family", "Z2inf",
            "--cache", str(tmp_path)]
    monkeypatch.setattr(repstab.cache, "__version__", "0.0.0")
    code1, out1, _ = run_cli(args, capsys)
    monkeypatch.undo()
    code2, out2, _ = run_cli(args, capsys)   # a miss: recomputed, written
    assert code1 == code2 == 0 and out1 == out2
    code, out, _ = run_cli(["cache-info", "--cache", str(tmp_path)], capsys)
    keys = sorted(e["key"] for e in json.loads(out)["entries"])
    assert [k.split(":")[:3] for k in keys] == [
        ["decompose-hom", "v1", "0.0.0"],
        ["decompose-hom", "v1", repstab.__version__]]


def test_eval_command(capsys, tmp_path):
    code, out, _ = run_cli(["eval", "--object", "misc-b", "--group",
                            "C2^3", "--cache", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_torsion_command(capsys, tmp_path):
    code, out, _ = run_cli(["torsion", "--object", "misc-a(3)", "--group",
                            "C9", "--tower", "F9", "--max-stage", "3",
                            "--cache", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob == {"exhausted": True, "torsion_dim": 1}


def test_stability_scan_csv(capsys, tmp_path):
    code, out, _ = run_cli(["stability-scan", "--object", "misc-a(3)",
                            "--restrict", "E3", "--max-rank", "3",
                            "--format", "csv", "--cache", str(tmp_path)],
                           capsys)
    assert code == 0
    assert out.splitlines()[0] == "group_key,dim,torsion_dim,tau_iso_n,flags"


def test_omega_command(capsys, tmp_path):
    code, out, _ = run_cli(["omega", "--object", "e(C2)", "--n", "2",
                            "--family", "E2", "--max-rank", "3",
                            "--cache", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 2 and len(blob["samples"]) == 4


def test_wqo_check_command(capsys):
    code, out, _ = run_cli(["wqo-check", "--size", "4"], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


def test_resolve_command(capsys, tmp_path):
    code, out, _ = run_cli(["resolve", "--object", "t(1)", "--bound", "8",
                            "--depth", "5", "--minimal",
                            "--cache", str(tmp_path)], capsys)
    assert code == 0
    blob = json.loads(out)
    assert [lv["generators"] for lv in blob["levels"]] == \
        [["p2-l"], ["p2-l1"]]


def test_framing_factor_command(capsys):
    code, out, _ = run_cli(["framing-factor", "--target", "C2",
                            "--labels", "1,1", "--assign", "1;0"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["tautological"]["is_tautological"]


def test_usage_and_input_errors(capsys, tmp_path):
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 1
    code2, _, err = run_cli(["eval", "--object", "misc-b", "--group", "C6",
                             "--cache", str(tmp_path)], capsys)
    assert code2 == 1
    assert "parse-error" in err


@pytest.mark.parametrize("argv", [
    ["torsion", "--object", "misc-a(3)", "--group", "C3", "--tower", "E3",
     "--max-stage", "-1"],
    ["stability-scan", "--object", "misc-a(3)", "--restrict", "E3",
     "--max-rank", "-1"],
    ["omega", "--object", "e(C2)", "--n", "2", "--family", "E2",
     "--max-rank", "-1"],
    ["wqo-check", "--size", "0"],
    ["tau-scan", "--object", "misc-b", "--bound", "0"],
    ["resolve", "--object", "t(1)", "--bound", "0"],
    ["omega", "--object", "e(C2)", "--n", "0", "--family", "E2"],
    ["wqo-check", "--size", "two"],
], ids=["torsion", "stability-scan", "omega", "wqo-check", "tau-scan",
        "resolve", "omega-n", "not-an-integer"])
def test_vacuous_counts_are_usage_errors(argv, capsys, tmp_path):
    # a count that leaves nothing to compute is refused, not answered
    # with an empty table, a vacuous verdict or a traceback
    code, out, err = run_cli([*argv, "--cache", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert "must be at least" in err or "invalid count value" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(["decompose-tensor", "--g", "C2", "--h", "C2",
                            "--family", "Z2inf", "--cache", str(tmp_path),
                            "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["summands"]


def test_env_var_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPSTAB_CACHE", str(tmp_path / "envcache"))
    code, out, _ = run_cli(["decompose-tensor", "--g", "C2", "--h", "C2",
                            "--family", "Z2inf"], capsys)
    assert code == 0
    assert (tmp_path / "envcache").exists()


@pytest.mark.parametrize("spec", ["Zpinf:4", "E4"])
def test_non_prime_family_rejected(spec, capsys, tmp_path):
    code, out, err = run_cli(["decompose-tensor", "--g", "C2", "--h", "C2",
                              "--family", spec, "--cache", str(tmp_path)],
                             capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parse-error"


def test_wqo_check_reports_broken_sections(monkeypatch, capsys):
    import repstab.wqo as wqo
    monkeypatch.setattr(wqo, "dagger_map",
                        lambda values, k: tuple(range(k))[::-1])
    code, out, _ = run_cli(["wqo-check", "--size", "3"], capsys)
    blob = json.loads(out)
    assert code == 2 and not blob["ok"] and blob["failures"]


def test_no_numpy_and_quiet_module_entry(tmp_path, subprocess_env):
    # counting never reaches for numpy, and `python -m repstab.cli` runs
    # without any warning on stderr
    env = subprocess_env
    probe = ("import sys, repstab\n"
             "from repstab.groups import group, count_epis\n"
             "for p, m, n in ((2, 5, 4), (3, 4, 3), (5, 3, 2), (5, 3, 3)):\n"
             "    assert count_epis(group(p, [1] * m), group(p, [1] * n))\n"
             "assert 'numpy' not in sys.modules\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    run = subprocess.run([sys.executable, "-W", "error", "-m", "repstab.cli",
                          "cache-info", "--cache", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == ""


# the child runs one command and reports, on its last stderr line, every
# repstab module the command loaded
_LOADED_PROBE = """
import json, sys
import repstab.cli
repstab.cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repstab")
print(json.dumps(loaded), file=sys.stderr)
"""

_FRONT = {"repstab", "repstab.cli", "repstab.errors", "repstab.serialize"}
# what parsing a group spec loads, and a family spec on top of it
_GROUPS = {"config", "groups", "intmat"}
_SPECS = _GROUPS | {"families"}


def _loaded_by(argv, env):
    run = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stderr.splitlines()[-1]))


def test_import_repstab_loads_no_submodule(subprocess_env):
    probe = ("import sys, repstab\n"
             "print(sorted(m for m in sys.modules if m.startswith('repstab')))")
    run = subprocess.run([sys.executable, "-c", probe], env=subprocess_env,
                         capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.strip() == "['repstab']"


@pytest.mark.parametrize("argv, extra", [
    (["cache-info"], {"cache"}),
    (["wqo-check", "--size", "1"], _GROUPS | {"subgroups", "wqo"}),
    (["eval", "--object", "misc-b", "--group", "C2^2"],
     _SPECS | {"linalg", "presentations", "subgroups"}),
    (["framing-factor", "--target", "C2", "--labels", "1,1",
      "--assign", "1;0"], _SPECS | {"subgroups", "wqo"}),
    (["tau-scan", "--object", "misc-b", "--bound", "4"],
     _SPECS | {"linalg", "presentations", "stability", "subgroups",
               "towers"}),
], ids=["cache-info", "wqo-check", "eval", "framing-factor", "tau-scan"])
def test_commands_load_only_their_layers(argv, extra, tmp_path,
                                         subprocess_env):
    loaded = _loaded_by([*argv, "--cache", str(tmp_path)], subprocess_env)
    assert loaded == _FRONT | {f"repstab.{m}" for m in extra}


@pytest.mark.parametrize("command", ["decompose-tensor", "decompose-hom"])
def test_cache_hit_skips_compute_layer(command, tmp_path, subprocess_env):
    argv = [command, "--g", "C2", "--h", "C4", "--family", "Z2inf",
            "--cache", str(tmp_path)]
    warm = _FRONT | {f"repstab.{m}" for m in _SPECS | {"cache"}}
    cold = _loaded_by(argv, subprocess_env)
    assert cold == warm | {"repstab.monoidal", "repstab.subgroups"}
    assert _loaded_by(argv, subprocess_env) == warm


def _object_files(tmp_path):
    from repstab.presentations import torsion_example_b
    from repstab.serialize import presentation_to_json
    good = presentation_to_json(torsion_example_b())
    no_gens = {k: v for k, v in good.items() if k != "generators"}
    extra_col = dict(good, relations=good["relations"] * 2)
    long_col = dict(good, relations=[c + c for c in good["relations"]])
    files = {"missing": tmp_path / "missing.json"}
    for name, blob in (("good", good), ("no-key", no_gens),
                       ("extra-column", extra_col), ("long-column", long_col)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(blob))
    files["malformed"] = tmp_path / "malformed.json"
    files["malformed"].write_text('{"family": ')
    return files


@pytest.mark.parametrize("case", ["missing", "malformed", "no-key",
                                  "extra-column", "long-column"])
def test_bad_object_file_is_parse_error(case, tmp_path, capsys):
    files = _object_files(tmp_path)
    code, out, _ = run_cli(["eval", "--object", str(files["good"]),
                            "--group", "C2^2", "--cache", str(tmp_path)],
                           capsys)
    assert code == 0 and json.loads(out)["dim"] == 2
    code, out, err = run_cli(["eval", "--object", str(files[case]),
                              "--group", "C2^2", "--cache", str(tmp_path)],
                             capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parse-error"


@pytest.mark.parametrize("argv, error", [
    (["eval", "--object", "misc-b", "--group", "C2305843009213693951"],
     "not-in-family"),
    (["decompose-tensor", "--g", "C2", "--h", "C2",
      "--family", "Zpinf:2305843009213693951"], None),
    (["decompose-tensor", "--g", "C2", "--h", "C2",
      "--family", f"Zpinf:{2 ** 89 - 1}"], "scale-exceeded")])
def test_large_primes_answer_promptly(argv, error, tmp_path, subprocess_env):
    # 2^61 - 1 is decided exactly; 2^89 - 1 lies beyond the exact
    # primality bound and is refused with a typed error
    run = subprocess.run([sys.executable, "-m", "repstab.cli", *argv,
                          "--cache", str(tmp_path)], env=subprocess_env,
                         capture_output=True, text=True, timeout=5)
    assert "Traceback" not in run.stderr
    if error is None:
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)
    else:
        assert run.returncode == 1 and run.stdout == ""
        assert json.loads(run.stderr)["error"] == error


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text().splitlines()
            if line.startswith("repstab ")]


def test_readme_commands_run(tmp_path, subprocess_env):
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        run = subprocess.run([sys.executable, "-m", "repstab.cli", *argv,
                              "--cache", str(tmp_path)],
                             env=subprocess_env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, (argv, run.stderr)
        assert run.stdout.strip(), argv
