"""Run one sheltersim CLI command in this fresh interpreter and report on it.

    python3 perfbench/client.py REPORT.json [--trace WORKER_DIR] -- CLI_ARGS...

Run from the root of a sheltersim checkout. The import of ``sheltersim.cli``
is timed before anything else is imported, so it is the set-up a user of the
command pays. ``cli.main`` is then called in-process and timed. The report
holds both times, the exit code, and the maximum RSS of this process and of
its pool workers. With ``--trace`` the modules are patched by ``tracer``
first, pool workers leave their data in WORKER_DIR, and the report also
holds the merged tracer data.
"""

import sys
import time


def main() -> int:
    sep = sys.argv.index("--")
    opts, cli_argv = sys.argv[1:sep], sys.argv[sep + 1:]
    report_path = opts[0]
    sys.path.insert(0, "src")

    start = time.perf_counter()
    import sheltersim.cli as cli
    setup_s = time.perf_counter() - start

    import json
    import os
    import resource

    tracer = None
    if len(opts) == 3 and opts[1] == "--trace":
        import tracer as tracing
        tracer = tracing.Tracer(worker_dir=opts[2])
        tracing.install(tracer)

    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    main_s = time.perf_counter() - start

    report = {
        "setup_s": setup_s,
        "main_s": main_s,
        "exit_code": code,
        "sheltersim_file": os.path.abspath(cli.__file__),
        "maxrss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }
    if tracer is not None:
        report["trace"] = tracing.collect_workers(tracer.worker_dir, tracer.snapshot())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
