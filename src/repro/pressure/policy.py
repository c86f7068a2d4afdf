"""Tunable knobs of the overload control plane.

All thresholds are expressed in simulated nanoseconds; benchmark configs
(repro.bench.scale) divide the OS-scale constants by SCALE the same way
they scale the suspension timeout, so a policy built for a real 10 ms
timeout works unchanged at bench scale once its *_ns fields are scaled.
"""

from repro.errors import ConfigError


class PressurePolicy:
    """Configuration of :class:`repro.pressure.plane.PressurePlane`.

    Component switches:

    - ``arbiter``: slot-pressure arbitration — on slot exhaustion a
      violation-history-weighted, LRU-tiebroken arbiter may preempt a
      quieter slot instead of failing the new AR open.
    - ``quarantine``: ARs that repeatedly trip the circuit breaker or
      blow the suspension timeout are quarantined into sampled
      monitoring (1-in-N entries, N adapted by AIMD) instead of running
      permanently fail-open.
    - ``admission``: begin_atomic sheds *monitoring* (never correctness)
      while the suspended-thread count or the measured scheduler latency
      sits above its watermark.
    - ``adaptive_timeout``: the suspension timeout stretches with
      measured scheduler latency so overloaded schedulers do not convert
      every suspension into a spurious timeout.
    """

    __slots__ = (
        "arbiter",
        "quarantine",
        "quarantine_after_trips",
        "sample_initial_n",
        "sample_max_n",
        "release_streak",
        "admission",
        "suspended_watermark",
        "latency_watermark_ns",
        "adaptive_timeout",
        "latency_ref_ns",
        "timeout_max_scale",
        "leak_age_ns",
        "leak_scan_ns",
        "max_history",
    )

    def __init__(self, arbiter=True, quarantine=True,
                 quarantine_after_trips=2, sample_initial_n=4,
                 sample_max_n=64, release_streak=3, admission=True,
                 suspended_watermark=8, latency_watermark_ns=1_000_000,
                 adaptive_timeout=True, latency_ref_ns=20_000,
                 timeout_max_scale=8, leak_age_ns=1_000_000,
                 leak_scan_ns=250_000, max_history=256):
        if quarantine_after_trips < 1:
            raise ConfigError("quarantine_after_trips must be >= 1")
        if not (1 <= sample_initial_n <= sample_max_n):
            raise ConfigError("need 1 <= sample_initial_n <= sample_max_n")
        if release_streak < 1:
            raise ConfigError("release_streak must be >= 1")
        if suspended_watermark < 1:
            raise ConfigError("suspended_watermark must be >= 1")
        if latency_watermark_ns < 1 or latency_ref_ns < 1:
            raise ConfigError("latency watermarks must be positive")
        if timeout_max_scale < 1:
            raise ConfigError("timeout_max_scale must be >= 1")
        if leak_age_ns < 1 or leak_scan_ns < 1:
            raise ConfigError("leak thresholds must be positive")
        if max_history < 1:
            raise ConfigError("max_history must be >= 1")
        self.arbiter = arbiter
        self.quarantine = quarantine
        self.quarantine_after_trips = quarantine_after_trips
        self.sample_initial_n = sample_initial_n
        self.sample_max_n = sample_max_n
        self.release_streak = release_streak
        self.admission = admission
        self.suspended_watermark = suspended_watermark
        self.latency_watermark_ns = latency_watermark_ns
        self.adaptive_timeout = adaptive_timeout
        self.latency_ref_ns = latency_ref_ns
        self.timeout_max_scale = timeout_max_scale
        self.leak_age_ns = leak_age_ns
        self.leak_scan_ns = leak_scan_ns
        self.max_history = max_history

    def copy(self, **overrides):
        kwargs = {name: getattr(self, name) for name in self.__slots__}
        kwargs.update(overrides)
        return PressurePolicy(**kwargs)

    def fleet_watermarks(self, workers):
        """Queue-depth watermarks for fleet-level backpressure
        (repro.fleet.supervisor, repro.service.daemon), derived from the
        same signal this policy uses in-process: ``suspended_watermark``
        is "how much queued-behind-the-plane work is tolerable per
        execution unit".

        Returns ``(shed_depth, reject_depth)`` in pending jobs: at
        ``shed_depth`` both shed *monitoring* (per-job replay
        verification) first; only at ``reject_depth`` does the daemon
        refuse new submissions — the same monitoring-before-correctness
        ordering as in-process admission control.
        """
        per_worker = max(1, self.suspended_watermark)
        shed = per_worker * max(1, workers)
        return shed, 4 * shed

    def __repr__(self):
        on = [n for n in ("arbiter", "quarantine", "admission",
                          "adaptive_timeout") if getattr(self, n)]
        return "PressurePolicy(%s)" % ", ".join(on)
