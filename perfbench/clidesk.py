"""cli-desk: README-grammar commands, each a fresh `python -m repstab.cli`.

Pass 1 starts from an empty cache directory, so the decompose commands
miss and write; later passes read the filled cache.  Every stdout is
compared with goldens recorded at the seed commit over the whole grid
below; cache-info is instead checked against the decompose commands run
so far, since its listing grows during pass 1.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import memos
from jobs import Job, Kind, expect_equal

CHILD_TIMEOUT_S = 120

_GROUPS = ("C2", "C4", "C2^2", "C8", "C4xC2", "C2^3")
_ORDER = {"C2": 2, "C4": 4, "C2^2": 4, "C8": 8, "C4xC2": 8, "C2^3": 8}


def grid():
    """{kind: [argv, ...]}: the finite input space, cheapest first.

    Left out: `stability-scan` (it belongs to functor-scan), the README
    `omega --object 'e(C8)' --family E2` (exits 1 at the seed: C8 is not
    in E2; e(C2^3) is used instead), family specs F1, Z1 and F0 (they hang
    at the seed), non-minimal resolutions above bound 2 (t(1) at bound 4
    exits 1; at 8, and `unit` at 4, they run for minutes while memory
    grows past 2.8 GB), hom pairs of two order-8 groups (up to 28 s) and
    the C3^3 torsion row (39 s).  The slowest commands of the README
    grammar (tau-scan of misc-b at 16: 0.9 s; omega of e(C2^3) to rank
    5 and 6: 0.45-0.6 s) are left out too: a thin tail of slow children
    would put p90 in the gap between them and the 0.2 s bulk.
    """
    pairs = [(g, h) for g in _GROUPS for h in _GROUPS]
    tensor = [["decompose-tensor", "--g", g, "--h", h, "--family", fam]
              for fam in ("Z2inf", "Cpinf:2") for g, h in pairs
              if _ORDER[g] * _ORDER[h] <= 32]
    hom = [["decompose-hom", "--g", g, "--h", h, "--family", fam]
           for fam in ("Z2inf", "Zpn:2,3") for g, h in pairs
           if _ORDER[g] * _ORDER[h] <= 16]
    evals = [["eval", "--object", obj, "--group", grp]
             for obj, grps in (("misc-b", ("C2", "C2^2", "C4xC2", "C2^3")),
                               ("misc-a(3)", ("C3", "C9", "C3^2", "C9xC3")),
                               ("misc-a(2)", ("C2", "C4", "C2^2")),
                               ("e(C2^2)", ("C2^2", "C4xC2", "C2^3")),
                               ("s(C2)", ("C2", "C4")),
                               ("c(C4)", ("C4", "C8")))
             for grp in grps]
    torsion = [["torsion", "--object", "misc-a(3)", "--group", grp,
                "--tower", tower, "--max-stage", str(stage)]
               for grp, tower in (("C3", "E3"), ("C9", "F9"), ("C3", "F9"))
               for stage in (2, 3)]
    tau = [["tau-scan", "--object", obj, "--bound", str(bound)]
           for obj, bound in (("misc-b", 4), ("misc-b", 8), ("e(C2)", 8),
                              ("misc-a(3)", 9), ("misc-a(3)", 27))]
    omega = [["omega", "--object", obj, "--n", str(n), "--family", fam,
              "--max-rank", str(rank)]
             for obj, n, fam, rank in (("e(C2)", 2, "E2", 6),
                                       ("e(C3)", 3, "E3", 4),
                                       ("e(C2^2)", 4, "E2", 4),
                                       ("e(C2^2)", 4, "E2", 5),
                                       ("e(C2^3)", 8, "E2", 4))]
    resolve = [["resolve", "--object", obj, "--bound", str(bound)] + flags
               for obj, bound, flags in (
                   ("t(1)", 2, []), ("e(C2)", 2, []),
                   ("t(1)", 4, ["--minimal"]), ("t(1)", 8, ["--minimal"]),
                   ("e(C2)", 4, ["--minimal"]), ("c(C2)", 4, ["--minimal"]))]
    wqo = [["wqo-check", "--size", str(n)] for n in (1, 2, 3, 4, 5)]
    framing = [["framing-factor", "--target", target, "--labels", labels,
                "--assign", assign]
               for target, labels, assign in (
                   ("C2", "1,1", "1;0"), ("C2", "1", "1"),
                   ("C4", "2,2", "1;3"), ("C4", "2,1", "1;2"),
                   ("C2^2", "1,1", "1,0;0,1"), ("C2^2", "1,1,1", "1,0;0,1;1,1"),
                   ("C3", "1,1", "1;2"), ("C5", "1", "2"))]
    return {"decompose-tensor": tensor, "decompose-hom": hom, "eval": evals,
            "torsion": torsion, "tau-scan": tau, "omega": omega,
            "resolve": resolve, "wqo-check": wqo,
            "framing-factor": framing}


QUOTAS = {"decompose-tensor": 25, "decompose-hom": 25, "eval": 14,
          "torsion": 6, "tau-scan": 5, "omega": 5, "resolve": 5,
          "wqo-check": 5, "framing-factor": 6, "cache-info": 4}


def golden_key(argv):
    return " ".join(argv)


class Runner:
    """Starts one CLI child at a time and waits for it; in traced runs the
    child goes through cli_bootstrap.py and its spans are merged."""

    def __init__(self, root, work, tracer=None):
        self.root = root
        self.cache_dir = work / "cache"
        self.stderr_path = work / "child.stderr"
        self.span_path = work / "child.spans"
        self.tracer = tracer
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("REPSTAB_CACHE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.written = set()     # decompose argv keys run so far
        self.child_memos = None
        self.import_ns = 0
        self.process_ns = 0

    def call(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "repstab.cli"]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name(
                "cli_bootstrap.py")), str(self.span_path)]
        cmd += [*argv, "--cache", str(self.cache_dir)]
        self.span_path.unlink(missing_ok=True)
        t0 = time.perf_counter_ns()
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            try:
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        code = proc.returncode
        self.process_ns += time.perf_counter_ns() - t0
        if self.tracer is not None and self.span_path.exists():
            extra = self.tracer.merge(self.span_path, self.tracer.stack[-1])
            self.import_ns += extra["import_ns"]
            self.child_memos = (extra["memos"] if self.child_memos is None
                                else memos.add(self.child_memos,
                                               extra["memos"]))
        if argv[0].startswith("decompose") and code == 0:
            self.written.add(golden_key(argv))
        return code, out


def _command_job(runner, golden, argv):
    key = golden_key(argv)

    def run():
        return runner.call(argv)

    def check(got):
        code, out = got
        want = golden.get(key)
        if want is None:
            return f"no golden for {key!r}"
        return expect_equal((code, hashlib.sha256(out).hexdigest()),
                            (want["code"], want["sha256"]),
                            f"exit code and stdout of {key!r}")

    return Job(argv[0], key, run, check)


def _cache_info_job(runner, k):
    def run():
        code, out = runner.call(["cache-info"])
        return code, out, frozenset(runner.written)

    def check(got):
        code, out, written = got
        if code != 0:
            return f"cache-info exited {code}"
        blob = json.loads(out)
        if blob["directory"] != str(runner.cache_dir):
            return f"cache-info lists directory {blob['directory']!r}"
        listed = sorted(e["key"].split(":", 1)[0] for e in blob["entries"]
                        if e["bytes"] > 0)
        want = sorted(w.split(" ", 1)[0] for w in written)
        return expect_equal(listed, want, "cache-info entries by command")

    return Job("cache-info", f"cache-info#{k}", run, check, varies=True)


def kinds(runner, golden):
    out = []
    for kind, argvs in grid().items():
        pool = [_command_job(runner, golden, argv) for argv in argvs]
        out.append(Kind(kind, QUOTAS[kind], pool))
    info = [_cache_info_job(runner, k) for k in range(QUOTAS["cache-info"])]
    out.append(Kind("cache-info", len(info), info))
    return out
