"""Tests of the benchmark harness.

    python -m pytest perfbench/test_perfbench.py

The hash-seed test is the gate every refactor of ``src/`` must keep:
one ``bugs`` pass gives the same per-bug run digests under two
PYTHONHASHSEED values, and those digests are the committed reference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from layers import Tracer  # noqa: E402


def _digests(workload, hash_seed, seed=0):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--digests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(out.stdout)


def test_bugs_digests_independent_of_hash_seed():
    first = _digests("bugs", "0")
    second = _digests("bugs", "12345")
    assert first == second
    with open(os.path.join(HERE, "reference.json")) as f:
        assert first == json.load(f)["bugs"]


def test_apps_digests_match_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        assert _digests("apps", "0") == json.load(f)["apps"]


def test_benchmark_json_matches_harness():
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(workloads.PER_LAYER)


class _Layer:
    def outer(self, n):
        total = 0
        for _ in range(n):
            total += self.inner()
        return total

    def inner(self):
        return sum(range(2000))


def test_tracer_charges_self_time_and_unwraps():
    tracer = Tracer()
    original_outer = _Layer.__dict__["outer"]

    def install(t):
        t.wrap(_Layer, "outer", "layer.outer", as_span=True)
        t.wrap(_Layer, "inner", "layer.inner")

    with tracer.installed(install):
        assert _Layer().outer(50) == 50 * sum(range(2000))
    assert _Layer.__dict__["outer"] is original_outer
    totals = tracer.totals()
    assert totals["layer.inner"][1] == 50
    assert totals["layer.outer"][1] == 1
    # self times partition the outer span
    span_s = tracer.span_seconds("layer.outer")
    self_sum = totals["layer.inner"][0] + totals["layer.outer"][0]
    assert abs(span_s - self_sum) < 1e-9
    assert totals["layer.inner"][0] > totals["layer.outer"][0]


def test_stop_children_reaps_workers_and_resource_tracker():
    # a spawn worker and a queue start multiprocessing's resource
    # tracker; after stop_children neither may still exist, not even as
    # a zombie waiting for the benchmark to exit
    script = """
import multiprocessing, os, sys, time
sys.path.insert(0, %r)
import run
from multiprocessing import resource_tracker
ctx = multiprocessing.get_context("spawn")
queue = ctx.Queue()
worker = ctx.Process(target=time.sleep, args=(60,), daemon=True)
worker.start()
tracker = resource_tracker._resource_tracker._pid
assert tracker is not None
run.stop_children()
for pid in (worker.pid, tracker):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        continue
    sys.exit("process %%d still exists" %% pid)
print("ok")
""" % HERE
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
