"""Kivati repository benchmark.

    python3 perfbench/run.py --workload {apps,bugs,journal,serve} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a repository checkout and imports the code under
``src/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics from a traced run and writes its spans as Chrome-trace JSON to
``.perfbench/trace-<workload>-<seed>.json``.  Problems behind failed
operations go to standard error.

``--digests`` instead prints the per-input run digests of ``apps`` or
``bugs`` for ``--seed`` (``reference.json`` holds them for seed 0).

See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("apps", "bugs", "journal", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="print per-input run digests and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.digests and args.workload not in ("apps", "bugs"):
        parser.error("--digests applies to apps and bugs")
    return args


def stop_children():
    """Stop every process the run started and wait until each has ended.

    ``serve`` starts spawn workers, and with them multiprocessing's
    resource tracker, which by default exits only after it sees this
    process close its pipe, i.e. after the benchmark has exited.  So run
    multiprocessing's exit hooks now (join the workers, release the
    queues' semaphores) and then stop the tracker and reap it."""
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    util._exit_function()
    resource_tracker._resource_tracker._stop()


def main(argv=None):
    # SIGTERM unwinds like an exception, so the daemons and workers of
    # a run that is cut short are stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(parse_args(argv))
    finally:
        stop_children()


def run(args):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro package under %s; run from a "
              "repository checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # spawned service workers import repro too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import workloads

    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        if args.digests:
            print(json.dumps(workloads.run_digests(args.workload, args.seed,
                                                   workdir),
                             sort_keys=True, indent=1))
            return 0
        workload = workloads.WORKLOADS[args.workload]
        outcome, tracer = workload(args.seed, args.seconds, bool(args.trace),
                                   workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.chrome_trace(os.path.join(
            OUT, "trace-%s-%d.json" % (args.workload, args.seed)))
    for problem in outcome.problems:
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = outcome.metrics(names)
    for name, value in sorted(outcome.values.items()):
        print("%-34s %16.6g" % (name, value), file=sys.stderr)
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
