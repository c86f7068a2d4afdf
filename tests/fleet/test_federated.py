"""Federated training == serial training, for any shard count.

The equivalence is by construction (round-frozen whitelists make each
observation a pure function of (seed, whitelist); union is associative
and commutative) — these tests check the construction held up in code.
"""

import pytest

from repro.bench.scale import bench_config
from repro.core.config import Mode
from repro.core.session import ProtectedProgram
from repro.core.training import train, train_rounds
from repro.errors import ConfigError
from repro.fleet.shard import federated_train, partition_round_robin
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor
from repro.runtime.whitelist import read_whitelist_ids
from repro.workloads.apps.tpcw import build_tpcw

ROUNDS = [[100, 101, 102, 103], [104, 105, 106, 107], [108, 109]]


@pytest.fixture(scope="module")
def workload():
    return build_tpcw(txns=12)


@pytest.fixture(scope="module")
def config():
    return bench_config(Mode.BUG_FINDING, pause_probability=0.15)


@pytest.fixture(scope="module")
def serial(workload, config):
    return train_rounds(ProtectedProgram(workload.source), config, ROUNDS)


def _inline_supervisor(tmp_path):
    return FleetSupervisor(
        workers=0,
        policy=FleetPolicy(verify=False, collect_journals=False),
        journal_root=str(tmp_path))


def test_partition_round_robin():
    assert partition_round_robin([1, 2, 3, 4, 5], 2) == [[1, 3, 5], [2, 4]]
    assert partition_round_robin([], 3) == [[], [], []]
    assert partition_round_robin([1], 4) == [[1], [], [], []]
    with pytest.raises(ConfigError):
        partition_round_robin([1], 0)


def test_train_delegates_to_singleton_rounds(workload, config):
    pp = ProtectedProgram(workload.source)
    classic = train(pp, config, iterations=4, seed_base=100)
    rounds = train_rounds(pp, config, [[100], [101], [102], [103]])
    assert classic.whitelist == rounds.whitelist
    assert classic.iterations == rounds.iterations


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_federated_equals_serial(workload, config, serial, shards,
                                 tmp_path):
    fed = federated_train(_inline_supervisor(tmp_path), workload.source,
                          config, ROUNDS, shards=shards)
    assert fed.whitelist == serial.whitelist
    assert fed.iterations == serial.iterations
    assert fed.result.converged_after == serial.converged_after


def test_shard_files_merge_to_final_whitelist(workload, config, serial,
                                              tmp_path):
    shard_dir = str(tmp_path / "shards")
    fed = federated_train(_inline_supervisor(tmp_path), workload.source,
                          config, ROUNDS, shards=2, shard_dir=shard_dir)
    merged = fed.shard_files[-1]
    assert merged.endswith("merged.whitelist")
    ids, malformed, ok = read_whitelist_ids(merged)
    assert ok and malformed == 0
    assert ids == set(serial.whitelist)
    # the per-shard files partition the observations (union, not copies)
    union = set()
    for path in fed.shard_files[:-1]:
        shard_ids, _, shard_ok = read_whitelist_ids(path)
        assert shard_ok
        union |= shard_ids
    assert union == set(serial.whitelist)


def test_federated_through_real_worker_pool(workload, config, serial,
                                            tmp_path):
    supervisor = FleetSupervisor(
        workers=2,
        policy=FleetPolicy(verify=False, collect_journals=False,
                           start_method="fork"),
        journal_root=str(tmp_path))
    fed = federated_train(supervisor, workload.source, config, ROUNDS,
                          shards=2)
    assert fed.whitelist == serial.whitelist
    assert fed.iterations == serial.iterations
