"""WarmPool tests: the one worker pool fleet batches and the service
both run on — dispatch, dead-worker detection, forced recycle, and a
shutdown that leaves no child process behind.

Workers use the ``fork`` start method to keep the pool cheap for tier-1;
the CI fleet and service smokes cover ``spawn``.
"""

import multiprocessing
import time

import pytest

from repro.bench.scale import bench_config
from repro.bench.servicebench import micro_spec
from repro.core.config import Mode
from repro.errors import ConfigError
from repro.fleet.pool import PoolPolicy, WarmPool
from repro.fleet.worker import CRASH_EXIT_STATUS, TERM_EXIT_STATUS

CONFIG = bench_config(mode=Mode.PREVENTION)


@pytest.fixture()
def pool(tmp_path):
    pool = WarmPool(PoolPolicy(workers=1, start_method="fork",
                               heartbeat_s=0.2), str(tmp_path))
    pool.start()
    yield pool
    pool.stop()


def _pump_until(pool, tag_wanted, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        tag, worker, body = pool.poll(0.1)
        if tag == tag_wanted:
            return worker, body
    raise AssertionError("no %r message within %.0fs" % (tag_wanted,
                                                         timeout))


def test_dispatch_then_poll_returns_done_for_that_job(pool):
    (worker,) = pool.idle_workers()
    spec = micro_spec(CONFIG, "pool-done", 3)
    pool.dispatch(worker, spec.as_dict(), "request-token")
    assert not worker.idle and worker.inflight == "request-token"
    done_worker, body = _pump_until(pool, "done")
    assert done_worker is worker
    assert body["job_id"] == "pool-done"
    assert body["ok"] is True
    assert body["journal_path"].startswith(worker.journal_dir)
    assert worker.jobs_served == 1


def test_crash_drill_job_lands_in_dead_workers(pool):
    (worker,) = pool.idle_workers()
    spec = micro_spec(CONFIG, "pool-crash", 3)
    spec.params["crash"] = {"at_frame": 5, "torn": 1}
    pool.dispatch(worker, spec.as_dict(), "doomed")
    deadline = time.monotonic() + 60.0
    while not pool.dead_workers() and time.monotonic() < deadline:
        pool.poll(0.1)
    assert pool.dead_workers() == [worker]
    assert worker.process.exitcode == CRASH_EXIT_STATUS
    assert worker.inflight == "doomed"  # the client decides what to do
    assert pool.idle_workers() == []


def test_forced_recycle_spawns_fresh_worker(pool):
    (old,) = pool.idle_workers()
    spec = micro_spec(CONFIG, "pool-stuck", 3)
    spec.params["stall_s"] = 60.0
    pool.dispatch(old, spec.as_dict(), "stuck")
    _pump_until(pool, "claim")
    new = pool.recycle(old, force=True)
    assert new.worker_id != old.worker_id
    assert old.worker_id not in pool.workers
    assert not old.process.is_alive()
    assert old.process.exitcode == TERM_EXIT_STATUS  # managed SIGTERM
    assert pool.workers_spawned == 2
    assert pool.workers_recycled == 1
    assert pool.idle_workers() == [new]


def test_stop_leaves_no_child_process(tmp_path):
    pool = WarmPool(PoolPolicy(workers=2, start_method="fork"),
                    str(tmp_path))
    pool.start()
    processes = [w.process for w in pool.workers.values()]
    worker = pool.idle_workers()[0]
    pool.dispatch(worker, micro_spec(CONFIG, "pool-stop", 3).as_dict(), 1)
    _pump_until(pool, "done")
    pool.stop()
    assert pool.workers == {}
    assert not any(p.is_alive() for p in processes)
    assert multiprocessing.active_children() == []


def test_policy_validates_worker_count_and_start_method():
    with pytest.raises(ConfigError):
        PoolPolicy(workers=0)
    with pytest.raises(ConfigError):
        PoolPolicy(start_method="teleport")
