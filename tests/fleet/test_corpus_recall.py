"""Acceptance: the full 11-bug corpus detects through the fleet path.

Same protocol and seed stride as ``repro.workloads.driver.detect_bug``
(the Table 6 campaign), but every campaign is a self-contained fleet
job — specs carry the bug source and victim variables, so this also
proves detect jobs survive the process boundary."""

import pytest

from repro.bench.scale import corpus_config
from repro.fleet.jobs import detect_jobs
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor
from repro.workloads.bugs import BUGS


@pytest.mark.slow
def test_fleet_detects_all_corpus_bugs(tmp_path):
    specs = detect_jobs(corpus_config())
    assert len(specs) == len(BUGS) == 11
    supervisor = FleetSupervisor(
        workers=0,
        policy=FleetPolicy(verify=False, collect_journals=False),
        journal_root=str(tmp_path))
    result = supervisor.run_jobs(specs)
    assert result.ok
    aggregate = result.aggregate()
    missed = sorted(payload["bug_id"]
                    for payload in aggregate.detections.values()
                    if not payload["detected"])
    assert not missed, "fleet missed corpus bugs: %s" % missed
    assert len(aggregate.detections) == 11
    # prevention mode stops most detected interleavings mid-flight;
    # "eventually prevented" (Table 6) is a multi-run claim, so only the
    # common case is asserted here
    prevented = sum(1 for payload in aggregate.detections.values()
                    if payload["prevented"])
    assert prevented >= len(aggregate.detections) // 2, (
        "prevention collapsed through the fleet path: %d/11" % prevented)
