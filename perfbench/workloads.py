"""The four benchmark workloads: ``apps``, ``bugs``, ``journal``, ``serve``.

Each workload is a function ``(seed, seconds, trace, workdir) ->
Outcome``.  Inputs come from ``seed`` alone; the timed part runs whole
passes over those inputs until ``seconds`` of wall time have gone by.
README.md in this directory gives the reason for each workload and the
layer -> end-to-end predictions the per-layer metrics are there to test.
"""

import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import threading
import time

from layers import (HOOKS, Tracer, install_check, install_run,
                    install_service, install_setup)

from repro.bench.checkerbench import synthesize_journal
from repro.bench.scale import bench_config, corpus_config
from repro.bench.servicebench import MICRO_SOURCE, micro_spec, response_digest
from repro.core.config import Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.fleet import worker as fleet_worker
from repro.fleet.jobs import digest_of
from repro.journal.checker import check_journal
from repro.journal.format import JournalWriter, segment_paths
from repro.journal.recorder import JournalRecorder
from repro.obs import ObsPlane
from repro.pressure.policy import PressurePolicy
from repro.service.client import ServiceClient, wait_for_socket
from repro.service.daemon import KivatiDaemon, ServicePolicy
from repro.workloads.bugs import BUGS
from repro.workloads.catalog import APP_NAMES, build_app

#: set-ups before the timed part (apps and bugs add one per pass, so the
#: samples spread over the run like the work); ``setup_s`` is the median
SETUP_REPEATS = 3
#: timed passes per run at least, so that every input has a median of two
#: or more timings even where one pass outlasts --seconds (bugs)
MIN_PASSES = 2
#: apps: model sizes.  workload_suite(scale=0.1) for the first four;
#: SPEC OMP gets one round of a shorter kernel so that no model runs
#: much longer than the others and every model repeats several times
#: within a run (the estimator takes a per-model median)
APP_SIZES = {"NSS": {"iters": 2}, "VLC": {"frames": 7},
             "Webstone": {"requests": 3}, "TPC-W": {"txns": 4},
             "SPEC OMP": {"rounds": 1, "kernel": 20}}
#: journal: frames in the synthetic journal, and the bugs whose recorded
#: journals are checked beside it
SYNTH_EVENTS = 50_000
JOURNAL_BUGS = ("19938", "329072")
#: serve: warm workers and closed-loop clients (= nproc of a 2-CPU host)
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_SESSIONS = 4

#: seed whose apps/bugs run digests are committed in reference.json
REFERENCE_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: batch latency is reported per this much work: simulated instructions
#: (apps, bugs) and journal events (journal)
INSTR_UNIT = 100_000
EVENT_UNIT = 10_000

#: the KivatiStats fields reported as kernel.* counts
KERNEL_COUNTS = ("traps", "undos", "suspensions", "pauses", "violations")


# ----------------------------------------------------------------------
# metric names (BENCHMARK.json lists the same names; test_perfbench.py
# keeps the two in step)
# ----------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("minic.parse_s", "s"),
    ("analysis.annotate_s", "s"),
    ("compiler.compile_s", "s"),
    ("machine.vanilla_instr_per_s", "1/s"),
    ("machine.instrs", "count"),
    ("machine.sim_time_ns", "ns"),
    ("runtime.hook_s", "s"),
    ("runtime.hook_share", "ratio"),
) + tuple(("runtime.%s_s" % h, "s") for h in HOOKS) \
  + tuple(("runtime.%s_calls" % h, "count") for h in HOOKS) + (
    ("runtime.host_overhead_ratio", "ratio"),
    ("runtime.protected_s", "s"),
    ("runtime.vanilla_s", "s"),
    ("kernel.crossings", "count"),
) + tuple(("kernel.%s" % k, "count") for k in KERNEL_COUNTS) + (
    ("journal.emit_s", "s"),
    ("journal.events", "count"),
    ("journal.bytes", "bytes"),
    ("journal.read_s", "s"),
    ("checker.feed_s", "s"),
    ("checker.events", "count"),
    ("checker.verdicts", "count"),
    ("checker.read_feed_share", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.off_s", "s"),
    ("obs.on_s", "s"),
    ("fleet.inline_job_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.verifications", "count"),
    ("service.verifications_shed", "count"),
    ("service.retries", "count"),
    ("service.requests_failed", "count"),
    ("service.verified_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
)


class Outcome:
    """What one workload run reports: operation counts, the problems
    behind any failed operation, and metric values by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.values = {}

    def op(self, problems):
        """Count one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def metrics(self, names):
        units = dict(END_TO_END + PER_LAYER)
        return {name: {"value": self.values.get(name, 0), "unit": units[name]}
                for name, _ in names}


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def work_rate(work, times):
    """Work per second from per-input work and repeated timings:
    ``sum(work) / sum(median time)``.  The per-input median keeps a
    pass that ran during a burst of host noise from moving the result."""
    return (sum(work.values())
            / sum(statistics.median(times[key]) for key in work))


def paired_ratio(pairs):
    """Median of per-pair ``b / a`` ratios: each pair ran back to back
    (order alternating), so host drift cancels instead of biasing a side."""
    return statistics.median(b / a for a, b in pairs)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_build(build):
    """One set-up on the CPU clock; returns (seconds, result)."""
    gc.collect()   # start each set-up from the same collector state
    started = time.process_time()
    result = build()
    return time.process_time() - started, result


def timed_setups(build):
    """SETUP_REPEATS set-ups; returns (their CPU seconds, last result)."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, result = timed_build(build)
        times.append(elapsed)
    return times, result


def end_to_end(outcome, setup_s, rate, p50_ms, p95_ms):
    outcome.values.update({
        "setup_s": setup_s,
        "work_per_s": rate,
        "latency_p50_ms": p50_ms,
        "latency_p95_ms": p95_ms,
        "peak_rss_mb": peak_rss_mb(),
    })


def batch_end_to_end(outcome, setup_s, work, times, unit):
    """End-to-end metrics of a batch workload from per-input work and
    repeated per-input timings.  The inputs differ in size and their
    sizes move with the seed, so latency is host ms per ``unit`` of
    work: percentiles over the inputs' median times so normalized."""
    latencies = [statistics.median(times[key]) * 1000.0 * unit / work[key]
                 for key in work]
    end_to_end(outcome, setup_s, work_rate(work, times),
               percentile(latencies, 0.50), percentile(latencies, 0.95))


def traced_setup(outcome, build):
    """One set-up with minic/analysis/compiler wrapped; its self times
    become the set-up layer metrics."""
    tracer = Tracer()
    with tracer.installed(install_setup):
        with tracer.span("setup"):
            result = build()
    outcome.values["minic.parse_s"] = tracer.seconds("minic.parse")
    outcome.values["analysis.annotate_s"] = tracer.seconds(
        "analysis.annotate")
    outcome.values["compiler.compile_s"] = tracer.seconds("compiler.compile")
    return tracer, result


def run_digest(report, drop=()):
    """Digest of one protected run: violation multiset, output, final
    simulated time, instruction count and every KivatiStats field."""
    stats = report.stats.as_dict()
    for name in drop:
        stats.pop(name)
    payload = {
        "violations": sorted(
            [str(v) for v in (r.ar_id, r.local_tid, r.remote_tid,
                              r.first_kind, r.remote_kind, r.second_kind,
                              bool(r.prevented))]
            for r in report.violations),
        "output": list(report.result.output),
        "time_ns": report.result.time_ns,
        "instr_count": report.result.instr_count,
        "stats": stats,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def sim_seeds(seed, names):
    """One simulation seed per named input, derived from the run seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(1 << 30) for name in names}


def reference_for(workload, seed):
    """The committed per-input digests for ``workload``, or None when
    ``seed`` is not the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_PATH) as f:
        return json.load(f)[workload]


def clear_journal(path):
    for segment in segment_paths(path):
        os.unlink(segment)


def run_counts(reports):
    """machine.* and kernel.* counts summed over ``reports``."""
    counts = {"machine.instrs": 0, "machine.sim_time_ns": 0,
              "kernel.crossings": 0}
    counts.update(("kernel.%s" % k, 0) for k in KERNEL_COUNTS)
    for report in reports:
        counts["machine.instrs"] += report.result.instr_count
        counts["machine.sim_time_ns"] += report.result.time_ns
        counts["kernel.crossings"] += report.stats.crossings()
        for k in KERNEL_COUNTS:
            counts["kernel.%s" % k] += getattr(report.stats, k)
    return counts


# ----------------------------------------------------------------------
# apps and bugs: protected runs of compiled programs
# ----------------------------------------------------------------------

class ProgramSuite:
    """The programs of one interpreter workload and how each is run.

    ``record`` puts every protected run on an on-disk journal (the
    ``bugs`` write path); otherwise runs are unjournaled and correctness
    is checked on one extra journaled run per program, outside timing.
    """

    def __init__(self, name, sources, config, workdir, record,
                 validators=None, obs_pairs=False):
        self.name = name
        self.sources = sources          # {input name: mini-C source}
        self.config = config            # sim seed -> KivatiConfig
        self.workdir = workdir
        self.record = record
        self.validators = validators or {}
        self.obs_pairs = obs_pairs      # measure obs.overhead_ratio

    def build(self):
        return {n: ProtectedProgram(src) for n, src in self.sources.items()}

    def journal_path(self, name):
        return os.path.join(self.workdir, "%s.journal" % name)

    def run(self, program, name, sim_seed, obs=None, record=None):
        """One protected run; returns (report, cpu seconds, recorder)."""
        config = self.config(sim_seed)
        if obs is not None:
            config = config.copy(obs=obs)
        recorder = None
        if record is None:
            record = self.record
        if record:
            path = self.journal_path(name)
            clear_journal(path)
        started = time.process_time()
        if record:
            recorder = JournalRecorder(writer=JournalWriter(path))
            config = config.copy(journal=recorder)
        report = program.run(config)
        return report, time.process_time() - started, recorder

    def run_vanilla(self, program, sim_seed):
        config = self.config(sim_seed)
        started = time.process_time()
        result = program.run_vanilla(num_cores=config.num_cores,
                                     costs=config.costs, seed=sim_seed)
        return result, time.process_time() - started

    def check(self, program, name, sim_seed, report, seen, reference):
        """Problems with one protected run.

        Every pass must give the digest of the first; with a committed
        reference (the default seed) the digest must equal it, and
        otherwise the offline checker must agree with the online
        verdicts on the run's journal."""
        problems = []
        digest = run_digest(report)
        validate = self.validators.get(name)
        if validate is not None and not validate(report.result.output):
            problems.append("%s/%s: wrong output %r"
                            % (self.name, name, report.result.output))
        first = name not in seen
        if seen.setdefault(name, digest) != digest:
            problems.append("%s/%s: digest changed between passes"
                            % (self.name, name))
        if reference is not None:
            if reference.get(name) != digest:
                problems.append("%s/%s: digest %s is not the reference %s"
                                % (self.name, name, digest[:12],
                                   str(reference.get(name))[:12]))
        elif first:
            problems.extend(self.check_journal(program, name, sim_seed,
                                               report))
        return problems

    def check_journal(self, program, name, sim_seed, report):
        problems = []
        if not self.record:
            # journal one more run; journaling may change nothing but
            # the journal frame counter
            journaled, _, _ = self.run(program, name, sim_seed, record=True)
            if (run_digest(journaled, drop=("journal_frames",))
                    != run_digest(report, drop=("journal_frames",))):
                problems.append("%s/%s: journaling changed the run"
                                % (self.name, name))
        result = check_journal(self.journal_path(name))
        if not result.agrees:
            problems.append("%s/%s: offline checker disagrees with the "
                            "online verdicts (%s)"
                            % (self.name, name, result.status))
        return problems


def apps_suite(workdir):
    """The five Table-2 models, prevention mode, OPTIMIZED, 2 cores."""
    models = [build_app(name, **APP_SIZES[name]) for name in APP_NAMES]
    return ProgramSuite(
        "apps", {w.name: w.source for w in models},
        lambda s: bench_config(mode=Mode.PREVENTION, opt=OptLevel.OPTIMIZED,
                               num_cores=2, seed=s),
        workdir, record=False,
        validators={w.name: w.check_output for w in models},
        obs_pairs=True)


def bugs_suite(workdir):
    """The 11-bug corpus in bug-finding mode, journaled to disk."""
    return ProgramSuite(
        "bugs", {b: BUGS[b].source for b in sorted(BUGS)},
        lambda s: corpus_config(Mode.BUG_FINDING, pause_ms=20, seed=s),
        workdir, record=True)


def run_programs(suite, seed, seconds, trace, reference):
    outcome = Outcome()
    seeds = sim_seeds(seed, sorted(suite.sources))
    if trace:
        tracer, programs = traced_setup(outcome, suite.build)
        traced_programs(suite, programs, seeds, seconds, tracer, outcome,
                        reference)
        return outcome, tracer
    setup_times, programs = timed_setups(suite.build)
    instrs = {}
    times = {}
    seen = {}
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for name in sorted(programs):
            report, elapsed, _ = suite.run(programs[name], name, seeds[name])
            instrs[name] = report.result.instr_count
            times.setdefault(name, []).append(elapsed)
            outcome.op(suite.check(programs[name], name, seeds[name],
                                   report, seen, reference))
        setup_times.append(timed_build(suite.build)[0])
        passes += 1
    batch_end_to_end(outcome, statistics.median(setup_times), instrs, times,
                     INSTR_UNIT)
    return outcome, None


def traced_programs(suite, programs, seeds, seconds, tracer, outcome,
                    reference):
    """The per-layer run of apps/bugs.

    Untraced rounds pair each protected run with a vanilla run (and, on
    apps, an obs-on run) back to back, alternating the order; then the
    same protected runs repeat with the runtime hooks and the journal
    write path wrapped.  Both halves must report identical counts."""
    names = sorted(programs)
    vanilla_pairs = []
    obs_pairs = []
    vanilla_instrs = 0
    vanilla_cpu = 0.0
    untraced = []
    untraced_cpu = 0.0
    seen = {}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for i, name in enumerate(names):
            program, sim_seed = programs[name], seeds[name]
            order = ["vanilla", "protected"]
            if suite.obs_pairs:
                order.append("obs")
            if (i + rounds) % 2:
                order.reverse()
            cpu = {}
            for side in order:
                if side == "vanilla":
                    result, cpu[side] = suite.run_vanilla(program, sim_seed)
                    vanilla_instrs += result.instr_count
                    vanilla_cpu += cpu[side]
                elif side == "obs":
                    _, cpu[side], _ = suite.run(program, name, sim_seed,
                                                obs=ObsPlane())
                else:
                    report, cpu[side], _ = suite.run(program, name, sim_seed)
                    untraced.append(report)
                    untraced_cpu += cpu[side]
                    outcome.op(suite.check(program, name, sim_seed, report,
                                           seen, reference))
            vanilla_pairs.append((cpu["vanilla"], cpu["protected"]))
            if suite.obs_pairs:
                obs_pairs.append((cpu["protected"], cpu["obs"]))
        rounds += 1

    traced = []
    traced_cpu = 0.0
    emitted = 0
    journal_bytes = 0
    with tracer.installed(install_run):
        for r in range(rounds):
            for name in names:
                with tracer.span("run.protected", run_id="%s-%d" % (name, r),
                                 program=name):
                    report, elapsed, recorder = suite.run(
                        programs[name], name, seeds[name])
                traced.append(report)
                traced_cpu += elapsed
                if recorder is not None:
                    emitted += len(recorder.events)
                    journal_bytes += os.path.getsize(suite.journal_path(name))

    # the digest covers instr_count, time_ns and every KivatiStats
    # field, so equal digests mean the machine.* and kernel.* counts
    # are identical traced and untraced
    for before, after in zip(untraced, traced):
        outcome.op([] if run_digest(before) == run_digest(after) else
                   ["%s: a traced run differs from its untraced twin"
                    % suite.name])
    totals = tracer.totals()
    run_s = tracer.span_seconds("run.protected")
    hook_s = 0.0
    for hook in HOOKS:
        seconds_, calls = totals.get("runtime." + hook, (0.0, 0))
        outcome.values["runtime.%s_s" % hook] = seconds_
        outcome.values["runtime.%s_calls" % hook] = calls
        hook_s += seconds_
    outcome.values.update(run_counts(traced))
    outcome.values.update({
        "machine.vanilla_instr_per_s": vanilla_instrs / vanilla_cpu,
        "runtime.hook_s": hook_s,
        "runtime.hook_share": hook_s / run_s,
        "runtime.host_overhead_ratio": paired_ratio(vanilla_pairs),
        "runtime.protected_s": sum(p for _, p in vanilla_pairs),
        "runtime.vanilla_s": sum(v for v, _ in vanilla_pairs),
        "journal.emit_s": tracer.seconds("journal.emit"),
        "journal.events": emitted,
        "journal.bytes": journal_bytes,
        "trace.untraced_s": untraced_cpu,
        "trace.traced_s": traced_cpu,
        "trace.overhead_ratio": traced_cpu / untraced_cpu,
    })
    if obs_pairs:
        outcome.values.update({
            "obs.overhead_ratio": paired_ratio(obs_pairs),
            "obs.off_s": sum(off for off, _ in obs_pairs),
            "obs.on_s": sum(on for _, on in obs_pairs),
        })


# ----------------------------------------------------------------------
# journal: offline triage of journals made in set-up
# ----------------------------------------------------------------------

def journal_inputs(seed, workdir):
    """A synthetic journal whose verdicts are known by construction,
    plus real journals recorded from the bug corpus; returns
    ``[(path, expected verdicts or None)]``."""
    synth = os.path.join(workdir, "synthetic.journal")
    expected, _ = synthesize_journal(synth, SYNTH_EVENTS, seed=seed)
    journals = [(synth, expected)]
    seeds = sim_seeds(seed, JOURNAL_BUGS)
    for bug in JOURNAL_BUGS:
        path = os.path.join(workdir, "bug-%s.journal" % bug)
        clear_journal(path)
        config = corpus_config(Mode.BUG_FINDING, pause_ms=20, seed=seeds[bug])
        recorder = JournalRecorder(writer=JournalWriter(path))
        ProtectedProgram(BUGS[bug].source).run(config.copy(journal=recorder))
        journals.append((path, None))
    return journals


def check_one(path, expected):
    """One timed ``check_journal``; returns (result, cpu s, problems)."""
    started = time.process_time()
    result = check_journal(path)
    elapsed = time.process_time() - started
    problems = []
    if result.status != "pass":
        problems.append("journal %s: status %s" % (os.path.basename(path),
                                                    result.status))
    if expected is not None and result.verdicts != expected:
        problems.append("journal %s: verdicts differ from the expected "
                        "multiset (%d found, %d expected)"
                        % (os.path.basename(path), len(result.verdicts),
                           len(expected)))
    return result, elapsed, problems


def run_journal(seed, seconds, trace, workdir):
    outcome = Outcome()
    tracer = None

    def build():
        return journal_inputs(seed, workdir)

    if trace:
        tracer, journals = traced_setup(outcome, build)
    else:
        setup_times, journals = timed_setups(build)

    def check_rounds(rounds=None, deadline=None, span=False):
        events = {}
        times = {}
        verdicts = 0
        cpu = 0.0
        done = 0
        while (done < rounds if rounds is not None
               else done < MIN_PASSES or time.perf_counter() < deadline):
            for path, expected in journals:
                if span:
                    with tracer.span("check_journal", run_id=done,
                                     journal=os.path.basename(path)):
                        result, elapsed, problems = check_one(path, expected)
                else:
                    result, elapsed, problems = check_one(path, expected)
                outcome.op(problems)
                events[path] = result.events_checked
                times.setdefault(path, []).append(elapsed)
                verdicts += len(result.verdicts)
                cpu += elapsed
            done += 1
        return done, events, times, verdicts, cpu

    deadline = time.perf_counter() + seconds
    rounds, events, times, _, cpu = check_rounds(deadline=deadline)
    if not trace:
        batch_end_to_end(outcome, statistics.median(setup_times), events,
                         times, EVENT_UNIT)
        return outcome, None
    with tracer.installed(install_check):
        _, traced_events, _, verdicts, traced_cpu = check_rounds(
            rounds=rounds, span=True)
    read_s = tracer.seconds("journal.read")
    feed_s = tracer.seconds("checker.feed")
    outcome.values.update({
        "journal.read_s": read_s,
        "checker.feed_s": feed_s,
        "checker.events": sum(traced_events.values()) * rounds,
        "checker.verdicts": verdicts,
        "checker.read_feed_share":
            (read_s + feed_s) / tracer.span_seconds("check_journal"),
        "trace.untraced_s": cpu,
        "trace.traced_s": traced_cpu,
        "trace.overhead_ratio": traced_cpu / cpu,
    })
    return outcome, tracer


# ----------------------------------------------------------------------
# serve: the warm-pool daemon under a closed loop of clients
# ----------------------------------------------------------------------

def serve_config():
    return bench_config(mode=Mode.PREVENTION)


def start_daemon(workdir, tag):
    """Start a daemon with warm spawn workers and verification on, and
    answer one priming job through it; returns the daemon."""
    socket_path = os.path.join(workdir, "%s.sock" % tag)
    if len(socket_path) > 100:   # AF_UNIX path limit; cwd is the checkout
        socket_path = os.path.relpath(socket_path)
    journal_root = os.path.join(workdir, "serve-%s" % tag)
    os.makedirs(journal_root, exist_ok=True)
    policy = ServicePolicy(
        workers=SERVE_WORKERS, start_method="spawn", verify=True,
        verify_backend="checker",
        warm_sources=[MICRO_SOURCE], retry_backoff_s=0.02,
        default_deadline_s=120.0, poll_s=0.005,
        pressure=PressurePolicy(suspended_watermark=2))
    daemon = KivatiDaemon(socket_path, policy, journal_root=journal_root)
    daemon.start()
    try:
        wait_for_socket(socket_path, timeout=60.0)
        with ServiceClient(socket_path, timeout=120.0) as client:
            response = client.submit(micro_spec(serve_config(), "prime", 1))
        if not response.get("ok"):
            raise RuntimeError("priming job failed: %s" % response)
    except BaseException:
        stop_daemon(daemon)
        raise
    return daemon


def stop_daemon(daemon):
    daemon.initiate_drain("perfbench done")
    if not daemon.wait_drained(timeout=120.0):
        raise RuntimeError("daemon did not drain within 120 s")


def closed_loop(socket_path, first_seed, seconds, tag):
    """SERVE_CLIENTS threads, one connection each, each sending its next
    micro job only when the last one was answered, for ``seconds``.
    Returns ``([(spec, response, latency s)], wall s)``."""
    config = serve_config()
    records = []
    deadline = time.perf_counter() + seconds

    def client_main(index):
        with ServiceClient(socket_path, timeout=120.0) as client:
            n = 0
            while time.perf_counter() < deadline:
                spec = micro_spec(config, "%s-%d-%d" % (tag, index, n),
                                  first_seed + SERVE_CLIENTS * n + index)
                started = time.perf_counter()
                try:
                    response = client.submit(spec, deadline_s=60.0)
                except Exception as exc:  # a lost request, counted failed
                    response = {"ok": False, "error": {
                        "kind": "lost", "message": repr(exc)}}
                records.append((spec, response,
                                time.perf_counter() - started))
                n += 1

    threads = [threading.Thread(target=client_main, args=(i,))
               for i in range(SERVE_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def check_responses(records, inline_dir, outcome):
    """Each answered job must be digest-equal to the same spec run
    inline through ``fleet.worker.execute_job``."""
    for spec, response, _ in records:
        problems = []
        if not response.get("ok"):
            problems.append("serve %s: %s" % (spec.job_id,
                                               response.get("error")))
        else:
            result = fleet_worker.execute_job(spec.as_dict(),
                                              journal_dir=inline_dir)
            inline = digest_of({k: result[k] for k in
                                ("job_id", "kind", "ok", "payload")})
            if response_digest(response) != inline:
                problems.append("serve %s: response differs from the "
                                "inline run" % spec.job_id)
        outcome.op(problems)


def run_serve(seed, seconds, trace, workdir):
    outcome = Outcome()
    first_seed = sim_seeds(seed, ["serve"])["serve"]
    inline_dir = os.path.join(workdir, "inline")
    os.makedirs(inline_dir)
    if trace:
        return serve_traced(outcome, first_seed, seconds, workdir,
                            inline_dir)
    # Each session starts a daemon (one set-up sample), loads it for a
    # share of the run and drains it.  Service throughput on a shared
    # host drifts within a run, so throughput and p50 are medians over
    # the sessions; p95 pools all requests to keep ten or more samples
    # beyond it.
    setup_times = []
    rates = []
    p50s = []
    records = []
    for session in range(SERVE_SESSIONS):
        started = time.perf_counter()
        daemon = start_daemon(workdir, "s%d" % session)
        setup_times.append(time.perf_counter() - started)
        try:
            part, wall = closed_loop(
                daemon.socket_path, first_seed + session * 1_000_000,
                seconds / SERVE_SESSIONS, "s%d" % session)
        finally:
            stop_daemon(daemon)
        rates.append(sum(1 for _, r, _ in part if r.get("ok")) / wall)
        p50s.append(percentile([lat for _, _, lat in part], 0.50))
        records.extend(part)
    check_responses(records, inline_dir, outcome)
    end_to_end(outcome, statistics.median(setup_times),
               statistics.median(rates), statistics.median(p50s) * 1000.0,
               percentile([lat for _, _, lat in records], 0.95) * 1000.0)
    outcome.values["serve.requests"] = len(records)
    return outcome, None


def serve_traced(outcome, first_seed, seconds, workdir, inline_dir):
    """The per-layer run of serve: one daemon, loaded in four phases
    (untraced, traced, traced, untraced, so that drift over the run
    hits both sides alike), then every answered job re-run inline."""
    tracer, daemon = traced_setup(
        outcome, lambda: start_daemon(workdir, "traced"))
    records = []
    traced_records = []
    try:
        before = daemon.stats.as_dict()
        for phase, traced in enumerate((False, True, True, False)):
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracer.installed(install_service))
                part, _ = closed_loop(daemon.socket_path,
                                      first_seed + phase * 1_000_000,
                                      seconds / 4.0, "phase%d" % phase)
            (traced_records if traced else records).extend(part)
    finally:
        stop_daemon(daemon)
    after = daemon.stats.as_dict()
    with tracer.installed(install_service):
        check_responses(records + traced_records, inline_dir, outcome)
    inline_ms = statistics.median(
        (s[3] - s[2]) * 1000.0 for s in tracer.spans
        if s[1] == "fleet.execute_job")
    untraced_mean = statistics.mean(latency for _, _, latency in records)
    traced_mean = statistics.mean(
        latency for _, _, latency in traced_records)
    p50 = percentile([latency for _, _, latency in records], 0.50)
    delta = {k: after[k] - before[k] for k in after}
    outcome.values.update({
        "fleet.inline_job_ms": inline_ms,
        "service.overhead_ms": p50 * 1000.0 - inline_ms,
        "service.verifications": delta["verifications"],
        "service.verifications_shed": delta["verifications_shed"],
        "service.retries": delta["retries"],
        "service.requests_failed": delta["requests_failed"],
        "service.verified_frac":
            delta["verifications"] / max(1, delta["requests_completed"]),
        "trace.untraced_s": untraced_mean,
        "trace.traced_s": traced_mean,
        "trace.overhead_ratio": traced_mean / untraced_mean,
    })
    return outcome, tracer


# ----------------------------------------------------------------------

def run_apps(seed, seconds, trace, workdir):
    return run_programs(apps_suite(workdir), seed, seconds, trace,
                        reference_for("apps", seed))


def run_bugs(seed, seconds, trace, workdir):
    return run_programs(bugs_suite(workdir), seed, seconds, trace,
                        reference_for("bugs", seed))


WORKLOADS = {"apps": run_apps, "bugs": run_bugs, "journal": run_journal,
             "serve": run_serve}


def run_digests(workload, seed, workdir):
    """Digest of each apps/bugs input's protected run at ``seed`` (one
    untimed pass); reference.json holds these for REFERENCE_SEED."""
    suite = {"apps": apps_suite, "bugs": bugs_suite}[workload](workdir)
    seeds = sim_seeds(seed, sorted(suite.sources))
    return {name: run_digest(suite.run(program, name, seeds[name])[0])
            for name, program in sorted(suite.build().items())}
