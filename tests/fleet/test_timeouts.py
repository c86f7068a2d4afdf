"""FleetSupervisor timeout-path tests: a live-but-stuck worker (fresh
process, claimed the job, never reports) must be detected by the
per-job timeout, terminated via the managed-kill path, and its job
retried — journaled as a ``timeout`` recovery, with the batch's final
answers digest-equal to a serial run."""

import pytest

from repro.bench.scale import bench_config
from repro.bench.servicebench import micro_spec
from repro.core.config import Mode
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor
from repro.fleet.worker import TERM_EXIT_STATUS

CONFIG = bench_config(mode=Mode.PREVENTION)


def _batch(stuck_job="stuck"):
    specs = [micro_spec(CONFIG, "plain-%d" % i, 20 + i) for i in range(3)]
    stuck = micro_spec(CONFIG, stuck_job, 30)
    stuck.params["stall_s"] = 60.0  # far beyond the timeout
    return specs + [stuck]


@pytest.fixture(scope="module")
def timed_out_result(tmp_path_factory):
    supervisor = FleetSupervisor(
        workers=2,
        policy=FleetPolicy(start_method="fork", verify=False,
                           job_timeout_s=1.0, max_retries=2),
        journal_root=str(tmp_path_factory.mktemp("fleet-timeout")))
    return supervisor.run_jobs(_batch())


def test_stuck_worker_detected_and_job_retried(timed_out_result):
    result = timed_out_result
    assert result.ok
    assert len(result.results) == 4
    assert all(r.ok for r in result.results.values())
    assert result.stats.workers_timed_out >= 1
    stuck = result.results["stuck"]
    assert stuck.attempt >= 1, "stuck job was not retried"


def test_timeout_recovery_is_journaled(timed_out_result):
    recoveries = [r for r in timed_out_result.recoveries
                  if r.reason == "timeout"]
    assert recoveries, "no timeout recovery recorded"
    recovery = recoveries[0]
    assert recovery.job_id == "stuck"
    assert recovery.action == "retried"
    # the managed kill exited through the SIGTERM handler
    assert recovery.exitcode == TERM_EXIT_STATUS
    assert recovery.torn is False


def test_timed_out_batch_matches_serial_answers(timed_out_result,
                                                tmp_path):
    inline = FleetSupervisor(
        workers=0, policy=FleetPolicy(verify=False),
        journal_root=str(tmp_path)).run_jobs(
            [s.without_crash_drill() for s in _batch()])
    assert inline.ok
    assert (sorted(r.digest() for r in inline.results.values())
            == sorted(r.digest()
                      for r in timed_out_result.results.values()))


def test_repeatedly_stuck_job_fails_after_bounded_retries(tmp_path):
    """With retries exhausted the job is recorded as failed — accounted
    for, never lost and never hanging the batch. (Retry normally strips
    the stall drill; max_retries=0 forces the exhausted path.)"""
    stuck = micro_spec(CONFIG, "forever", 31)
    stuck.params["stall_s"] = 60.0
    supervisor = FleetSupervisor(
        workers=1,
        policy=FleetPolicy(start_method="fork", verify=False,
                           job_timeout_s=0.8, max_retries=0),
        journal_root=str(tmp_path))
    result = supervisor.run_jobs([stuck])
    assert not result.ok
    job = result.results["forever"]
    assert job.ok is False
    assert "timeout" in job.error
    assert result.recoveries[0].action == "failed"
