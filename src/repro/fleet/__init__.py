"""Fleet execution plane: multi-process sharded Kivati runs.

The paper assumes fleet-style operation — whitelists "learned over
training runs" and re-read periodically (§6) — and every run in this
repo (bug corpus, chaos sweeps, training, soak, the nine tables) is one
deterministic simulated execution, i.e. an embarrassingly shardable job.
``repro.fleet`` turns the single-process sessions into a sharded
service:

- :mod:`repro.fleet.jobs` — serializable :class:`JobSpec`/:class:`JobResult`
  wire format (config snapshots ride the journal's snapshot codec);
- :mod:`repro.fleet.worker` — spawn-safe worker loop with a per-process
  compiled-program cache and per-job on-disk journals, plus the one
  torn-journal salvage and the one journal verification both pool
  clients call;
- :mod:`repro.fleet.pool` — :class:`WarmPool`, the one worker pool:
  spawn, one-job dispatch, dead-worker detection, recycle (SIGTERM then
  SIGKILL) and shutdown, shared by fleet batches and
  :mod:`repro.service`;
- :mod:`repro.fleet.supervisor` — runs a batch on a short-lived pool:
  crash and timeout handling, bounded retry, verification shedding at
  the :class:`repro.pressure.PressurePolicy` shed watermark;
- :mod:`repro.fleet.merge` — deterministic result aggregation (keyed by
  job id, independent of completion order);
- :mod:`repro.fleet.shard` — federated whitelist training: per-shard
  observations with a frozen per-round whitelist, merged into a
  whitelist provably equal to serial training on the same seeds.
"""

from repro.fleet.binning import (BinnedRounds, bin_jobs_by_conflict,
                                 job_conflict_weight, run_binned_rounds,
                                 violation_history)
from repro.fleet.jobs import JobSpec, JobResult, app_run_jobs, detect_jobs
from repro.fleet.merge import FleetAggregate, aggregate_results
from repro.fleet.pool import PoolPolicy, WarmPool
from repro.fleet.shard import (FederatedTrainingResult, federated_train,
                               partition_round_robin)
from repro.fleet.supervisor import (FleetPolicy, FleetRecovery, FleetResult,
                                    FleetStats, FleetSupervisor)

__all__ = [
    "BinnedRounds",
    "FederatedTrainingResult",
    "FleetAggregate",
    "FleetPolicy",
    "FleetRecovery",
    "FleetResult",
    "FleetStats",
    "FleetSupervisor",
    "JobResult",
    "JobSpec",
    "PoolPolicy",
    "WarmPool",
    "aggregate_results",
    "app_run_jobs",
    "bin_jobs_by_conflict",
    "detect_jobs",
    "job_conflict_weight",
    "federated_train",
    "partition_round_robin",
    "run_binned_rounds",
    "violation_history",
]
