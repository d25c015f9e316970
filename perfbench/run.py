"""repstab benchmark: one seeded workload, a cold pass and warm passes.

Usage (from the repository root):
    python3 perfbench/run.py --workload {cli-desk,group-census,functor-scan}
                             --seed N --seconds S --trace {0,1} [--smoke]

One process drives the load, one job at a time (closed loop, one
client); cli-desk's jobs are CLI children started and awaited in turn.
Pass 1 is cold: fresh process memos, empty disk cache.  Warm passes then
rerun the same job list on the same objects and cache until the next one
would end after --seconds (always at least one).  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 the passes run
under the span tracer (one cold, one warm) and it carries the per-layer
metrics.  Outputs are checked after the passes; any failed check makes
`correct` false and the exit code 1.  See perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter_ns()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-desk", "group-census", "functor-scan")
SETUP_PROBES = 6

END_TO_END = (("setup_s", "s"), ("cold_wall_s", "s"), ("warm_wall_s", "s"),
              ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    import memos
    import tracer
    names = []
    for layer in tracer.LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.errors"]
    names += ["bench.self_s", "groups.epis_yielded", "stability.epis_tested",
              "linalg.offer_useful_ratio", "presentations.eval_memo_hit_ratio",
              "cache.hit_ratio", "cache.put_bytes", "cli.import_s",
              "cli.process_s"]
    names += sorted(set(tracer.INCLUSIVE.values()))
    names += list(tracer.COUNTED.values())
    names += memos.metric_names()
    names += ["trace.cold_wall_s", "trace.overhead_s", "trace.spans"]
    return {name: _unit(name) for name in names}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": [round(v, 2) for v in os.getloadavg()]}


def src_dir():
    src = ROOT / "src"
    if not (src / "repstab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repstab sources under {src}")
    return src


def work_dir(workload):
    path = ROOT / ".perfbench_work" / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def build(workload, seed, smoke, tracer=None):
    """Set-up: import repstab, build fixtures and the seeded job list.
    For cli-desk this also creates the empty cache directory."""
    sys.path.insert(0, str(src_dir()))
    sys.path.insert(0, str(HERE))
    import repstab  # noqa: F401  (the import is part of set-up)
    import jobs
    with open(HERE / "goldens.json") as fh:
        goldens = json.load(fh)
    runner = None
    if workload == "cli-desk":
        import clidesk
        work = work_dir(workload)
        runner = clidesk.Runner(ROOT, work, tracer)
        shutil.rmtree(runner.cache_dir, ignore_errors=True)
        runner.cache_dir.mkdir()
        kinds = clidesk.kinds(runner, goldens["cli"])
    elif workload == "group-census":
        import census
        kinds = census.kinds()
    else:
        import functors
        kinds = functors.kinds(goldens["inproc"])
    return jobs.draw(kinds, seed, smoke), runner


def setup_probe_times(args):
    """Set-up time of fresh processes: each probe child runs `build`."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload,
               str(args.seed)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, check=True)
        out.append(int(done.stdout.split()[-1]) / 1e9)
    return out


def run_pass(jobs, tracer=None):
    """Run every job once; returns (wall ns, latencies ns, outputs, errors)."""
    lat, outs, errs = [], [], []
    t0 = time.perf_counter_ns()
    for job in jobs:
        root = tracer.begin_job(job.jid) if tracer else None
        s = time.perf_counter_ns()
        try:
            out, err = job.run(), None
        except Exception as exc:   # a failed job is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        e = time.perf_counter_ns()
        if tracer:
            tracer.end_job(root)
        lat.append(e - s)
        outs.append(out)
        errs.append(err)
    return time.perf_counter_ns() - t0, lat, outs, errs


def check_passes(jobs, passes):
    """Failure messages, one per failed (job, pass)."""
    failures = []
    _, _, cold_out, cold_err = passes[0]
    for k, job in enumerate(jobs):
        for n, (_, _, outs, errs) in enumerate(passes):
            where = f"pass {n + 1} job {job.jid} [{job.kind}] {job.label}"
            if errs[k]:
                failures.append(f"{where}: {errs[k]}")
                continue
            if n and not job.varies:
                if cold_err[k] is None and outs[k] != cold_out[k]:
                    failures.append(f"{where}: output differs from pass 1")
                continue
            try:
                msg = job.check(outs[k])
            except Exception as exc:   # an unverifiable output is a failure
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                failures.append(f"{where}: {msg}")
    return failures


def measure(args, jobs, tracer=None):
    """Cold pass, then warm passes within --seconds (one when tracing)."""
    import memos
    passes, snaps = [], []
    t0 = time.perf_counter_ns()
    while True:
        passes.append(run_pass(jobs, tracer))
        snaps.append(memos.snapshot())
        if len(passes) < 2:
            continue
        elapsed = time.perf_counter_ns() - t0
        if tracer or elapsed + passes[-1][0] > args.seconds * 1e9:
            return passes, snaps


def hd_quantile(values, q, steps=16):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) mass of their
    slice of [0, 1].  Unlike a single order statistic it does not jump
    when noise swaps two jobs on either side of a gap in the latencies."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        mids = ((i * steps + k + 0.5) * h for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x)
                                    + (b - 1) * math.log1p(-x))
                           for x in mids))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(setup_times, passes, peak_rss_kb):
    cold_lat = [v / 1e6 for v in passes[0][1]]
    return {
        "setup_s": statistics.median(setup_times),
        "cold_wall_s": passes[0][0] / 1e9,
        # the mean, not the median: a shared host can flip between a fast
        # and a slow clock within seconds, and a median of a few passes
        # then jumps from one mode to the other from run to run
        "warm_wall_s": statistics.fmean(p[0] for p in passes[1:]) / 1e9,
        "job_p50_ms": hd_quantile(cold_lat, 0.5),
        "job_p90_ms": hd_quantile(cold_lat, 0.9),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def kind_totals(jobs, passes):
    """{kind: (jobs, pass-1 seconds, pass-2 seconds)}."""
    out = {}
    for k, job in enumerate(jobs):
        n, cold, warm = out.get(job.kind, (0, 0.0, 0.0))
        out[job.kind] = (n + 1, cold + passes[0][1][k] / 1e9,
                         warm + passes[1][1][k] / 1e9)
    return out


def reference_cold_wall(args):
    """Untraced cold wall time of the same workload and seed, from a
    child run that installs no wrappers."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: untraced reference run failed\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"]["cold_wall_s"]["value"]


def traced_metrics(tracer, runner, passes, snaps, ref_cold):
    import memos
    out = tracer.layer_report()
    snap = snaps[-1]
    if runner is not None:
        snap = runner.child_memos or snap
        out["cli.import_s"] = runner.import_ns / 1e9
        out["cli.process_s"] = runner.process_ns / 1e9
    else:
        out["cli.import_s"] = out["cli.process_s"] = 0.0
    out.update(memos.metrics(snap))
    out["trace.cold_wall_s"] = passes[0][0] / 1e9
    out["trace.overhead_s"] = passes[0][0] / 1e9 - ref_cold
    out["trace.spans"] = len(tracer.spans["name"])
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="one job per kind; for the smoke test only")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src_dir()
    before = machine()
    ref_cold = reference_cold_wall(args) if args.trace else None
    pre_probes = time.perf_counter_ns() - T_START
    probes = [] if args.trace else setup_probe_times(args)
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer()
    t_setup = time.perf_counter_ns()
    jobs, runner = build(args.workload, args.seed, args.smoke, tracer)
    # the main process's own set-up: its start to the first job, less the
    # time spent waiting for the probe children
    own = (pre_probes + time.perf_counter_ns() - t_setup) / 1e9
    if tracer:
        tracer.install()
    passes, snaps = measure(args, jobs, tracer)
    failures = check_passes(jobs, passes)
    problems = list(failures)
    if tracer:
        bad = tracer.check_self_sums()
        if bad:
            problems.append(f"tracer: self times do not sum to the root "
                            f"span in jobs "
                            f"{[tracer.root_jobs[i] for i in bad[:10]]}")
        metrics = traced_metrics(tracer, runner, passes, snaps,
                                 ref_cold)
        tracer.dump(work_dir(args.workload) / "trace.json",
                    {"jobs": [[j.jid, j.kind, j.label] for j in jobs]})
        units = per_layer_units()
    else:
        # cli-desk: the largest child (CLI jobs and set-up probes alike)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if runner else
                                 resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(probes + [own], passes, rss)
        units = dict(END_TO_END)
    if runner is not None:
        shutil.rmtree(runner.cache_dir, ignore_errors=True)
    attempted = len(jobs) * len(passes)
    after = machine()

    print(f"machine before: {json.dumps(before)}")
    print(f"machine after:  {json.dumps(after)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs x {len(passes)} passes "
          f"(cold {passes[0][0] / 1e9:.3f} s, warm "
          f"{', '.join(f'{p[0] / 1e9:.3f}' for p in passes[1:])} s); "
          f"percentiles over {len(passes[0][1])} pass-1 jobs")
    for kind, (n, cold, warm) in kind_totals(jobs, passes).items():
        print(f"  kind {kind:16s} {n:4d} jobs  cold {cold:8.3f} s  "
              f"warm {warm:8.3f} s")
    slowest = sorted(range(len(jobs)), key=lambda k: -passes[0][1][k])[:8]
    for k in slowest:
        print(f"  slow {passes[0][1][k] / 1e6:10.1f} ms  [{jobs[k].kind}] "
              f"{jobs[k].label}")
    print(f"failed_frac {len(failures) / attempted:.6f} ratio "
          f"({len(failures)} of {attempted})")
    for n in sorted({0, len(snaps) - 1}):
        print(f"memo entries after pass {n + 1}: " + " ".join(
            f"{name}={row['entries']}" for name, row in snaps[n].items()))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    for msg in problems[:20]:
        print(f"FAIL {msg}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
