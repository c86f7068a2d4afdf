"""Shared measurement pass for the performance tables.

Tables 3, 4, 5, 7 and 8 all derive from the same set of runs (five
applications × four optimization levels × two modes, plus vanilla), so
they are measured once and cached.
"""

from repro.bench.scale import bench_config
from repro.core.config import Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.workloads.catalog import workload_suite

OPT_LEVELS = (OptLevel.BASE, OptLevel.NULL_SYSCALL, OptLevel.SYNCVARS,
              OptLevel.OPTIMIZED)
MODES = (Mode.PREVENTION, Mode.BUG_FINDING)


class AppMeasurement:
    """All measurements for one application."""

    def __init__(self, workload, protected, vanilla, reports):
        self.workload = workload
        self.protected = protected
        self.vanilla = vanilla
        #: (OptLevel, Mode) -> RunReport
        self.reports = reports

    @property
    def name(self):
        return self.workload.name

    def overhead(self, opt, mode=Mode.PREVENTION):
        report = self.reports[(opt, mode)]
        return report.time_ns / self.vanilla.time_ns - 1.0

    def report(self, opt, mode=Mode.PREVENTION):
        return self.reports[(opt, mode)]


class SuiteResults:
    def __init__(self, apps, scale, seed):
        self.apps = apps  # name -> AppMeasurement
        self.scale = scale
        self.seed = seed

    def __iter__(self):
        return iter(self.apps.values())

    def __getitem__(self, name):
        return self.apps[name]

    def geometric_mean_overhead(self, opt, mode=Mode.PREVENTION):
        """Geometric mean of per-app overheads, floored at 1% — a
        near-zero app (VLC's sleep-dominated pipeline) would otherwise
        dominate the log average."""
        import math

        logs = []
        for app in self:
            oh = max(0.01, app.overhead(opt, mode))
            logs.append(math.log(oh))
        return math.exp(sum(logs) / len(logs))

    def arithmetic_mean_overhead(self, opt, mode=Mode.PREVENTION):
        values = [app.overhead(opt, mode) for app in self]
        return sum(values) / len(values)


_CACHE = {}


def run_suite(scale=0.6, seed=3, levels=OPT_LEVELS, modes=MODES,
              use_cache=True, jobs=1):
    """Run the full measurement pass; cached on (scale, seed).

    ``jobs`` > 1 fans the per-application passes out over a fleet worker
    pool (one ``suite`` job per application); the default of 1 keeps the
    classic in-process loop, so existing callers are byte-identical.
    Every run is a deterministic simulation keyed by (config, seed), so
    the fanned-out results equal the serial ones — asserted in tests,
    not assumed.
    """
    key = (scale, seed, tuple(levels), tuple(modes))
    if use_cache and key in _CACHE:
        return _CACHE[key]

    if jobs > 1:
        results = _run_suite_fleet(scale, seed, levels, modes, jobs)
    else:
        apps = {}
        for workload in workload_suite(scale=scale):
            pp = ProtectedProgram(workload.source)
            vanilla = pp.run_vanilla(seed=seed)
            assert workload.check_output(vanilla.output), (
                "vanilla run of %s produced wrong output" % workload.name)
            reports = {}
            for opt in levels:
                for mode in modes:
                    config = bench_config(mode=mode, opt=opt)
                    report = pp.run(config, seed=seed)
                    reports[(opt, mode)] = report
            apps[workload.name] = AppMeasurement(workload, pp, vanilla,
                                                 reports)
        results = SuiteResults(apps, scale, seed)
    if use_cache:
        _CACHE[key] = results
    return results


def _run_suite_fleet(scale, seed, levels, modes, jobs):
    """Fan the measurement pass out: one fleet ``suite`` job per app.

    Workers ship live report objects back (pickled over the result
    queue); the parent compiles each program once more to keep
    ``AppMeasurement.protected`` usable by table code that re-runs it.
    """
    from repro.fleet.jobs import JobSpec
    from repro.fleet.supervisor import FleetPolicy, FleetSupervisor

    workloads = {w.name: w for w in workload_suite(scale=scale)}
    config = bench_config()
    specs = [
        JobSpec.for_config(
            "suite-%s-s%d" % (name.replace(" ", ""), seed), "suite",
            workload.source, config, seed=seed,
            params={"workload": name, "scale": scale,
                    "levels": [opt.value for opt in levels],
                    "modes": [mode.value for mode in modes]})
        for name, workload in workloads.items()
    ]
    supervisor = FleetSupervisor(
        workers=jobs,
        policy=FleetPolicy(verify=False, collect_journals=False))
    fleet_result = supervisor.run_jobs(specs)
    failed = [r for r in fleet_result.results.values() if not r.ok]
    if failed:
        raise RuntimeError("suite fleet pass failed: %s"
                           % "; ".join("%s (%s)" % (r.job_id, r.error)
                                       for r in failed))
    apps = {}
    for result in fleet_result.results.values():
        payload = result.payload
        name = payload["workload"]
        reports = {(OptLevel(level_value), Mode(mode_value)): report
                   for (level_value, mode_value), report
                   in payload["reports"].items()}
        apps[name] = AppMeasurement(workloads[name],
                                    ProtectedProgram(workloads[name].source),
                                    payload["vanilla"], reports)
    apps = {name: apps[name] for name in workloads if name in apps}
    return SuiteResults(apps, scale, seed)
