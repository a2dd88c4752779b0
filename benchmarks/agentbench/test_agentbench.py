"""Tier-1 coverage for agentbench: every workload and every named metric, in
``--smoke`` mode (about a second per run on tiny populations).

The runs go through ``run.py`` in a subprocess with every ``REPRO_*``
variable removed, so this file behaves the same under CI's env-flag legs.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def run_bench(*args: str, **extra_env: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, env=env,
        timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("agentbench") / "result.json"
    done = run_bench("--smoke", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        document = json.load(handle)
    assert len(document["runs"]) == 1
    return document["runs"][0]


def test_every_workload_reports_every_named_metric(smoke_run):
    assert set(smoke_run["workloads"]) == set(spec.workload_names())
    for name, entry in smoke_run["workloads"].items():
        untraced, traced = entry["untraced"], entry["traced"]
        for metric in spec.end_to_end_for(name):
            value = untraced["end_to_end"][metric.name]
            assert math.isfinite(value) and value > 0, (name, metric.name, value)
        for metric in spec.PER_LAYER:
            assert math.isfinite(traced["per_layer"][metric.name]), (name, metric.name)
        for metric in spec.WORKLOAD_LAYER.get(name, ()):
            assert metric.name in untraced["workload_layer"], (name, metric.name)
        for section in (untraced, traced):
            assert section["failed_share"] == 0, (name, section["failures"])
            assert section["invalid"] == [], (name, section["invalid"])
        assert "tracing_overhead" in entry
    assert smoke_run["summary"]["correct"] is True
    assert list(smoke_run["summary"])[-1] == "claim"
    assert smoke_run["summary"]["claim"] is None
    assert smoke_run["host"]["nproc"] >= 1 and smoke_run["host"]["python"]


def test_traced_run_writes_spans_and_layer_self_times(smoke_run):
    for name, entry in smoke_run["workloads"].items():
        traced = entry["traced"]
        with open(traced["trace_file"]) as handle:
            trace = json.load(handle)
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"probe", "submit", "done", "result", "sql.parse", "engine.row"} <= names
        assert all(event["ph"] == "X" for event in trace["traceEvents"])
        serving = "shard+core" if name == "tenant_sharded" else "core"
        for layer in ("plan", serving):  # engine is absent when history answers
            assert traced["self_times"]["as_served"][layer]["self_s"] >= 0, (name, layer)
        for layer in ("sql", "plan", "engine", "shard", "memstore", "semantic"):
            assert traced["self_times"]["flat_walk"][layer]["spans"] > 0, (name, layer)
        assert trace["metadata"]["self_times"] == traced["self_times"]


def test_single_run_ends_with_the_contract_line():
    done = run_bench("--smoke", "--workload", "scan_distinct", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in spec.END_TO_END}
    assert line["metrics"]["setup_s"]["unit"] == "s"


def test_same_seed_same_probe_streams_other_seed_other_streams():
    for name, cls in workloads.WORKLOAD_CLASSES.items():
        digests = [
            workloads.stream_digest(cls(seed, smoke=True).streams(), 40)
            for seed in (3, 3, 4)
        ]
        assert digests[0] == digests[1], name
        assert digests[0] != digests[2], name


def test_refuses_to_run_with_a_repro_variable_set():
    done = run_bench("--smoke", "--workload", "swarm_arc", REPRO_ENGINE="columnar")
    assert done.returncode != 0
    assert "REPRO_ENGINE" in done.stderr
    assert "correct" not in done.stdout


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for workload in spec.WORKLOADS:
        assert name_ok.match(workload.name) and len(workload.why) <= 200
        assert "\n" not in workload.why
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert name_ok.match(metric.name) and unit_ok.match(metric.unit), metric
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)


def _runs(probes_per_s: list[float]) -> list[dict]:
    return [
        {"workloads": {"swarm_arc": {"untraced": {
            "failed_share": 0.0,
            "end_to_end": {"probes_per_s": value, "probe_p50_ms": 50.0,
                           "probe_p95_ms": 60.0, "setup_s": 0.03},
        }}}}
        for value in probes_per_s
    ]


def test_compare_separates_breach_unresolved_and_within_bound():
    steady = _runs([500.0, 502.0, 498.0, 501.0])
    lines, breaches = compare.compare(steady, _runs([350.0, 351.0, 349.0, 352.0]))
    assert breaches == 1 and "BREACH" in lines[1]
    lines, breaches = compare.compare(steady, _runs([330.0, 700.0, 480.0, 505.0]))
    assert breaches == 0 and "unresolved" in lines[1]
    lines, breaches = compare.compare(steady, steady)
    assert breaches == 0 and all("within bound" in line for line in lines[1:])
