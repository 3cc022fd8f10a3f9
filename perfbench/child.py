"""One roncoalg CLI call in a fresh interpreter, timed from the inside.

Usage: python3 child.py REPORT TRACE SRC -- ARGV...

Imports `roncoalg.cli` from SRC, notes the monotonic time at which it is
ready (the parent subtracts its spawn time to get the set-up cost), then
times `cli.main(ARGV)` alone.  Stdout belongs to the CLI call.  With TRACE
"1" the spans of `spans.Tracer` are installed before `main` runs.  The exit
code is main's; REPORT receives the timings, the peak RSS and, when
traced, the spans, counters and cache statistics as JSON.
"""

import sys
import time


def run() -> int:
    report_path, traced, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    import roncoalg.cli

    ready = time.monotonic()
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = roncoalg.cli.main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()

    import json
    import resource

    report = {
        "ready": ready,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report.update(names=tracer.names, spans=tracer.spans, counters=tracer.counters,
                      caches=spans.cache_counters())
    with open(report_path, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(run())
