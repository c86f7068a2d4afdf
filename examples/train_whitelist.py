"""Whitelist training: turn benign violations into a deployable whitelist.

Section 4.2 / Figure 7: Kivati cannot statically tell benign atomicity
violations from buggy ones, so production deployments train a whitelist —
run the workload, mark every violated AR that is not a real bug as
benign, repeat until no new false positives appear. The whitelist file is
shipped to customers and re-read periodically by the runtime.

The last section trains *federated*: each round's seeds are split across
two worker processes, the per-shard observations are merged, and the
result is asserted equal to serial training — the fleet's core
equivalence guarantee, live.

Usage::

    python examples/train_whitelist.py
"""

import os
import tempfile

from repro.bench.scale import bench_config
from repro.core.config import Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.core.training import train, train_rounds
from repro.fleet import FleetSupervisor, federated_train
from repro.fleet.supervisor import FleetPolicy
from repro.runtime.whitelist import Whitelist, read_whitelist_ids
from repro.workloads.apps.tpcw import build_tpcw


def main():
    workload = build_tpcw(txns=24)
    pp = ProtectedProgram(workload.source)
    print("TPC-W model: %d ARs, %d on synchronization variables"
          % (pp.num_ars, len(pp.sync_ar_ids)))

    print("\n=== training (prevention mode vs bug-finding mode) ===")
    prev = train(pp, bench_config(Mode.PREVENTION, OptLevel.OPTIMIZED),
                 iterations=8)
    bug = train(pp, bench_config(Mode.BUG_FINDING, OptLevel.OPTIMIZED,
                                 pause_probability=0.15),
                iterations=8)
    print("new false positives per iteration (Figure 7):")
    print("  prevention:  %s" % prev.iterations)
    print("  bug-finding: %s" % bug.iterations)
    print("bug-finding flushed out %d benign ARs vs %d in prevention mode"
          % (len(bug.whitelist), len(prev.whitelist)))

    trained = set(prev.whitelist) | set(bug.whitelist)
    path = os.path.join(tempfile.mkdtemp(prefix="kivati-"), "whitelist.txt")
    Whitelist.write_file(path, trained,
                         comment="trained on the TPC-W model")
    print("\nwhitelist written to %s (%d entries)" % (path, len(trained)))

    print("\n=== deploying the whitelist ===")
    before = pp.run(bench_config(Mode.PREVENTION, OptLevel.OPTIMIZED),
                    seed=999)
    after = pp.run(bench_config(Mode.PREVENTION, OptLevel.OPTIMIZED,
                                whitelist_path=path), seed=999)
    print("false positives: %d -> %d"
          % (len(before.violated_ars()), len(after.violated_ars())))
    print("kernel crossings: %d -> %d"
          % (before.stats.crossings(), after.stats.crossings()))
    print("run time: %.3f ms -> %.3f ms"
          % (before.time_ns / 1e6, after.time_ns / 1e6))

    print("\n=== federated training across 2 worker processes ===")
    config = bench_config(Mode.BUG_FINDING, OptLevel.OPTIMIZED,
                          pause_probability=0.15)
    seed_rounds = [[100 + r * 4 + i for i in range(4)] for r in range(3)]
    shard_dir = tempfile.mkdtemp(prefix="kivati-shards-")
    supervisor = FleetSupervisor(
        workers=2,
        policy=FleetPolicy(verify=False, collect_journals=False,
                           start_method="fork"))
    fed = federated_train(supervisor, workload.source, config, seed_rounds,
                          shards=2, shard_dir=shard_dir)
    print(fed.describe())
    serial = train_rounds(pp, config, seed_rounds)
    assert fed.whitelist == serial.whitelist, "federated != serial"
    assert fed.iterations == serial.iterations, "per-round FP series differ"
    print("federated whitelist == serial training "
          "(%d ARs, rounds %s)" % (len(fed.whitelist), fed.iterations))
    merged_ids, _, ok = read_whitelist_ids(
        os.path.join(shard_dir, "merged.whitelist"))
    assert ok and merged_ids == set(serial.whitelist)
    print("merged shard files reproduce it too: %s"
          % os.path.join(shard_dir, "merged.whitelist"))


if __name__ == "__main__":
    main()
