"""Smoke test of the benchmark: tiny quotas, every workload, both modes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
(it is outside the default test path, since it starts the benchmark as a
subprocess and takes a minute or two).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layers each workload must reach (the table at the end of NOTES.md)
LAYERS_REACHED = {
    "cli-desk": ("cli", "serialize", "cache", "resolutions"),
    "group-census": ("groups", "subgroups", "intmat", "monoidal", "wqo"),
    "functor-scan": ("groups", "linalg", "presentations", "towers",
                     "stability"),
}


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(LAYERS_REACHED))
def test_end_to_end_metrics_printed(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(LAYERS_REACHED))
def test_traced_run_reaches_its_layers(workload):
    result = _run(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for layer in LAYERS_REACHED[workload]:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer
