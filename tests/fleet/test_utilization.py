"""Worker-utilization surfacing (obs satellite): usage rows, timeline,
and the invariant that scheduling metadata never touches the digest."""

from repro.bench.scale import corpus_config
from repro.fleet import (FleetPolicy, FleetSupervisor, aggregate_results,
                         app_run_jobs)
from repro.fleet.merge import worker_utilization
from repro.obs.spans import fleet_trace_events, validate_chrome_trace


def _specs(scale=0.05):
    return app_run_jobs(corpus_config(), seeds=(0,), scale=scale,
                        prefix="util")[:3]


def _inline_run(specs):
    policy = FleetPolicy(verify=False)
    return FleetSupervisor(workers=0, policy=policy).run_jobs(specs)


def test_worker_utilization_math():
    usage = {"w0": {"jobs": 3, "attempts": 4, "claims": 4, "busy_s": 2.0},
             "w1": {"jobs": 1, "attempts": 1, "claims": 1, "busy_s": 0.5}}
    util = worker_utilization(usage, elapsed_s=4.0)
    assert util["w0"]["busy_frac"] == 0.5
    assert util["w1"]["busy_frac"] == 0.125
    assert util["w0"]["attempts"] == 4
    assert worker_utilization({}, 0.0) == {}
    assert worker_utilization(usage, 0.0)["w0"]["busy_frac"] == 0.0


def test_inline_run_collects_usage_and_timeline():
    result = _inline_run(_specs())
    assert set(result.worker_usage) == {"inline"}
    row = result.worker_usage["inline"]
    assert row["jobs"] == len(result.results)
    assert row["attempts"] >= row["jobs"]
    assert row["busy_s"] > 0
    assert len(result.timeline) >= len(result.results)
    for entry in result.timeline:
        assert entry["end_s"] >= entry["start_s"]
        assert entry["status"] in ("ok", "failed", "crash")
    util = result.utilization()
    assert 0.0 < util["inline"]["busy_frac"] <= 1.0
    assert "busy" in result.describe()


def test_aggregate_summary_shows_utilization_but_digest_ignores_it():
    result = _inline_run(_specs())
    with_util = result.aggregate()
    without_util = aggregate_results(result.results)
    assert "utilization[" in with_util.summary()
    assert "utilization[" not in without_util.summary()
    assert with_util.digest() == without_util.digest()


def test_timeline_feeds_the_fleet_trace_exporter():
    result = _inline_run(_specs())
    events = fleet_trace_events(result.timeline)
    assert validate_chrome_trace({"traceEvents": events}) == []
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == len(result.timeline)
