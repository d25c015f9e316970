"""Traced stand-in for `python -m repstab.cli`.

Usage: cli_bootstrap.py SPAN_FILE ARGV...

Imports repstab (timed as the span `cli.import`), installs the same
wrappers as the in-process traced runs, calls `repstab.cli.main(ARGV)`,
and writes its spans, counters and a memo census to SPAN_FILE.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    import memos
    from tracer import Tracer
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    import repstab.cli
    t1 = time.perf_counter_ns()
    tracer.add_span("cli.import", t0, t1)
    tracer.install()
    code = repstab.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(span_file, {"import_ns": t1 - t0,
                            "memos": memos.snapshot()})
    return code


if __name__ == "__main__":
    sys.exit(main())
