"""Record perfbench/goldens.json from the current sources.

Usage (from the repository root): python3 perfbench/record_goldens.py

Runs every command of the cli-desk grid once, each in an empty cache
directory, and stores its exit code and the SHA-256 of its stdout; runs
the functor-scan scans and central-stability rows that no acceptance
criterion pins down and stores their reports.  The checked-in file was
recorded at the seed commit; re-record only when the grid changes, and
only from sources whose outputs are known to be right.
"""

import hashlib
import json
import shutil
import sys
import time

import run


def main():
    sys.path.insert(0, str(run.src_dir()))
    sys.path.insert(0, str(run.HERE))
    import clidesk
    import functors
    work = run.work_dir("record")
    runner = clidesk.Runner(run.ROOT, work)
    cli = {}
    for argvs in clidesk.grid().values():
        for argv in argvs:
            shutil.rmtree(runner.cache_dir, ignore_errors=True)
            t0 = time.perf_counter()
            code, out = runner.call(argv)
            key = clidesk.golden_key(argv)
            cli[key] = {"code": code,
                        "sha256": hashlib.sha256(out).hexdigest()}
            print(f"{time.perf_counter() - t0:7.3f} s  exit {code}  {key}",
                  flush=True)
    shutil.rmtree(work, ignore_errors=True)
    inproc = {}
    for kind in functors.kinds({}):
        if kind.name not in ("scan", "csd"):
            continue
        for job in kind.pool:
            t0 = time.perf_counter()
            inproc[f"{kind.name}:{job.label}"] = job.run()
            print(f"{time.perf_counter() - t0:7.3f} s  {kind.name} {job.label}",
                  flush=True)
    with open(run.HERE / "goldens.json", "w") as fh:
        json.dump({"cli": cli, "inproc": inproc}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
