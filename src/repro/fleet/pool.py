"""The worker pool shared by fleet batches and the detection service.

A :class:`WarmPool` owns N worker processes running
:func:`repro.fleet.worker.worker_main`, one job outstanding per worker.
Two clients drive it: :class:`repro.fleet.supervisor.FleetSupervisor`
starts a pool per batch and stops it when the batch is done, and the
long-lived :class:`repro.service.daemon.KivatiDaemon` keeps one *warm*
for its whole life. At spawn each worker pre-imports the whole detection
stack (paid once, off the request path) and pre-compiles the configured
``warm_sources``, so a request's latency is the simulation itself, not
interpreter + import + compile.

The pool's robustness duties are mechanical and local:

- **liveness bookkeeping** — every message a worker emits (claim, done,
  idle heartbeat) refreshes ``last_seen``, ``rss_kb`` and
  ``jobs_served`` on its handle;
- **health recycling** — an *idle* worker whose RSS crossed the ceiling
  or that served its jobs cap is retired gracefully (shutdown sentinel,
  bounded join, SIGTERM fallback) and replaced; a *stuck or dead* worker
  is recycled forcibly (SIGTERM first — the worker's handler closes its
  journal frame-clean — then SIGKILL after a grace period);
- **spawn hygiene** — replacement workers get fresh ids, their own
  journal dirs, and the same warm set.

What the pool deliberately does not know: deadlines, retries, poison
accounting, admission — those belong to its clients.
"""

import os
import queue as queue_mod
import time

from repro.errors import ConfigError
from repro.fleet.worker import worker_main

#: grace period for a worker to exit after the shutdown sentinel, and
#: again after SIGTERM, before the pool escalates
JOIN_TIMEOUT_S = 5.0


class PoolPolicy:
    """Knobs for worker lifecycle and warmth."""

    __slots__ = ("workers", "start_method", "heartbeat_s", "rss_limit_kb",
                 "max_jobs_per_worker", "collect_journals", "warm_sources")

    def __init__(self, workers=2, start_method="spawn", heartbeat_s=1.0,
                 rss_limit_kb=None, max_jobs_per_worker=None,
                 collect_journals=True, warm_sources=()):
        if workers < 1:
            raise ConfigError("worker pool needs at least 1 worker")
        if start_method not in ("spawn", "fork", "forkserver"):
            raise ConfigError("unknown start method %r" % (start_method,))
        if rss_limit_kb is not None and rss_limit_kb < 1:
            raise ConfigError("rss_limit_kb must be positive")
        if max_jobs_per_worker is not None and max_jobs_per_worker < 1:
            raise ConfigError("max_jobs_per_worker must be >= 1")
        self.workers = workers
        self.start_method = start_method
        self.heartbeat_s = heartbeat_s
        self.rss_limit_kb = rss_limit_kb
        self.max_jobs_per_worker = max_jobs_per_worker
        self.collect_journals = collect_journals
        self.warm_sources = tuple(warm_sources)


class WarmWorker:
    """Pool-side handle for one worker process."""

    __slots__ = ("worker_id", "process", "job_queue", "journal_dir",
                 "inflight", "dispatched_at", "last_seen", "jobs_served",
                 "rss_kb")

    def __init__(self, worker_id, process, job_queue, journal_dir):
        self.worker_id = worker_id
        self.process = process
        self.job_queue = job_queue
        self.journal_dir = journal_dir
        self.inflight = None          # opaque request object or None
        self.dispatched_at = None
        self.last_seen = time.perf_counter()
        self.jobs_served = 0
        self.rss_kb = 0

    @property
    def idle(self):
        return self.inflight is None

    def heartbeat_age(self):
        return time.perf_counter() - self.last_seen

    def describe(self):
        return ("%s pid=%s %s jobs=%d rss=%dKiB hb=%.1fs ago"
                % (self.worker_id, self.process.pid,
                   "idle" if self.idle else "busy", self.jobs_served,
                   self.rss_kb, self.heartbeat_age()))


class WarmPool:
    """N workers behind per-worker dispatch queues and one shared result
    queue; see the module docstring for the division of labor."""

    def __init__(self, policy, journal_root):
        self.policy = policy
        self.journal_root = journal_root
        self.workers = {}
        self._ctx = None
        self.result_queue = None
        self._next_id = 0
        self.workers_spawned = 0
        self.workers_recycled = 0
        self.started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        import multiprocessing as mp

        self._ctx = mp.get_context(self.policy.start_method)
        self.result_queue = self._ctx.Queue()
        for _ in range(self.policy.workers):
            self.spawn_worker()
        self.started = True

    def spawn_worker(self):
        worker_id = "w%d" % self._next_id
        self._next_id += 1
        journal_dir = None
        if self.policy.collect_journals:
            journal_dir = os.path.join(self.journal_root, worker_id)
            os.makedirs(journal_dir, exist_ok=True)
        job_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, job_queue, self.result_queue, journal_dir,
                  self.policy.heartbeat_s),
            daemon=True)
        process.start()
        worker = WarmWorker(worker_id, process, job_queue, journal_dir)
        self.workers[worker_id] = worker
        self.workers_spawned += 1
        if self.policy.warm_sources:
            job_queue.put({"op": "warm",
                           "sources": list(self.policy.warm_sources)})
        return worker

    def retire(self, worker, force=False):
        """Stop one worker: graceful sentinel for an idle worker, SIGTERM
        (journal closed frame-clean by the worker's handler) for a stuck
        one, SIGKILL only if it ignores both."""
        self.workers.pop(worker.worker_id, None)
        if not force and worker.process.is_alive():
            worker.job_queue.put(None)
        self._reap(worker, graceful=not force)

    def _reap(self, worker, graceful):
        process = worker.process
        if graceful:
            process.join(timeout=JOIN_TIMEOUT_S)
        if process.is_alive():
            process.terminate()
            process.join(timeout=JOIN_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)
        worker.job_queue.close()

    def recycle(self, worker, force=False):
        """Retire ``worker`` and spawn its warm replacement."""
        self.retire(worker, force=force)
        self.workers_recycled += 1
        return self.spawn_worker()

    def stop(self):
        """Drain-order shutdown: sentinel every worker at once, then a
        bounded join each, escalating to SIGTERM/SIGKILL for stragglers."""
        workers = list(self.workers.values())
        self.workers.clear()
        for worker in workers:
            if worker.process.is_alive():
                worker.job_queue.put(None)
        for worker in workers:
            self._reap(worker, graceful=True)
        if self.result_queue is not None:
            self.result_queue.cancel_join_thread()
        self.started = False

    # ------------------------------------------------------------------
    # dispatch and message pump
    # ------------------------------------------------------------------

    def idle_workers(self):
        return [w for w in self.workers.values()
                if w.idle and w.process.is_alive()]

    def dispatch(self, worker, spec_dict, request):
        worker.inflight = request
        worker.dispatched_at = time.perf_counter()
        worker.job_queue.put(spec_dict)

    def poll(self, timeout):
        """Pump one message off the result queue; returns
        ``(tag, worker, body)`` or ``(None, None, None)`` on timeout.
        Messages from already-replaced workers resolve to worker=None
        and must be ignored by the caller."""
        try:
            tag, worker_id, body = self.result_queue.get(timeout=timeout)
        except queue_mod.Empty:
            return None, None, None
        worker = self.workers.get(worker_id)
        if worker is not None:
            worker.last_seen = time.perf_counter()
            if isinstance(body, dict):
                worker.rss_kb = body.get("rss_kb", worker.rss_kb)
                worker.jobs_served = body.get("jobs_served",
                                              worker.jobs_served)
        return tag, worker, body

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def dead_workers(self):
        """Workers whose process exited (crash drill, poison, OOM-kill);
        their in-flight request — if any — needs the client's handling."""
        return [w for w in self.workers.values()
                if not w.process.is_alive()]

    def unhealthy_idle_workers(self):
        """Idle workers due for recycling: RSS over the ceiling or jobs
        cap reached. Busy workers are never health-recycled — deadlines
        own the stuck case."""
        due = []
        for worker in self.workers.values():
            if not worker.idle or not worker.process.is_alive():
                continue
            if (self.policy.rss_limit_kb is not None
                    and worker.rss_kb > self.policy.rss_limit_kb):
                due.append((worker, "rss %dKiB > limit %dKiB"
                            % (worker.rss_kb, self.policy.rss_limit_kb)))
            elif (self.policy.max_jobs_per_worker is not None
                  and worker.jobs_served >= self.policy.max_jobs_per_worker):
                due.append((worker, "served %d jobs >= cap %d"
                            % (worker.jobs_served,
                               self.policy.max_jobs_per_worker)))
        return due

    def describe(self):
        lines = ["pool: %d worker(s), %d spawned, %d recycled"
                 % (len(self.workers), self.workers_spawned,
                    self.workers_recycled)]
        for worker in self.workers.values():
            lines.append("  " + worker.describe())
        return "\n".join(lines)


__all__ = ["JOIN_TIMEOUT_S", "PoolPolicy", "WarmPool", "WarmWorker"]
