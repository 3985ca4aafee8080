"""Self-test of the benchmark: ``python -m pytest perfbench -q`` from the repository root.

Covers the pieces a wrong number would come from (self time, the tail
percentile, the staged ``run()`` mirror) and one short end-to-end run per
mode, including the determinism record and the refusal to run without sources.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import flows  # noqa: E402
import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner") as inner:
            inner.name = "renamed"
            with tracer.span("leaf"):
                sum(range(10000))
    times = tracer.self_times()
    outer, renamed, leaf = tracer.spans
    assert renamed.parent == 0 and leaf.parent == 1
    assert times["outer"] == pytest.approx(
        (outer.end - outer.start) - (renamed.end - renamed.start))
    assert times["renamed"] == pytest.approx((renamed.end - renamed.start) - (leaf.end - leaf.start))
    assert sum(times.values()) == pytest.approx(outer.end - outer.start)


def test_tail_keeps_ten_samples_beyond():
    assert bench.tail(list(range(1, 101))) == (90, 90, 10)
    assert bench.tail(list(range(24))) == (58, 13, 10)
    percentile, value, beyond = bench.tail([1.0] * 5)
    assert beyond == 0 and value == 1.0


def test_spec_p50_weighs_each_spec_median_by_its_samples():
    samples = [("a", False, 1.0), ("a", False, 9.0), ("a", False, 2.0),
               ("b", False, 8.0), ("b", True, 0.5), ("b", True, 0.5)]
    expected = (2.0 ** 3 * 8.0 * 0.5 ** 2) ** (1 / 6)
    assert bench.spec_p50(samples) == pytest.approx(expected)


def test_workload_names_and_seeded_specs():
    assert bench.WORKLOAD_NAMES == tuple(flows.WORKLOADS)
    for workload in flows.WORKLOADS.values():
        first = workload.specs(random.Random(7))
        assert first == workload.specs(random.Random(7))
        assert len({spec.spec_hash() for spec in first}) == len(first)
        cycle = workload.cycle(first, random.Random(3))
        assert {spec.spec_hash() for spec in cycle} == {spec.spec_hash() for spec in first}


def test_sweep_stream_repeats_a_third():
    workload = flows.WORKLOADS["sweep-cached"]
    specs = workload.specs(random.Random(1))
    stream = workload.cycle(specs, random.Random(2))
    assert len(stream) == len(specs) + len(specs) // 2


@pytest.mark.parametrize("name, params, collective, algorithm", [
    ("mesh_2d", {"rows": 3, "cols": 3}, "all_reduce", "tacos"),
    ("switch_2d", {"first_size": 2, "second_size": 2}, "all_reduce", "tacos"),
    ("mesh_2d", {"rows": 2, "cols": 3}, "all_to_all", "tacos"),
    ("ring", {"num_npus": 6}, "all_reduce", "ring"),
    ("ring", {"num_npus": 6}, "all_reduce", "ideal"),
])
def test_staged_run_equals_run(tmp_path, name, params, collective, algorithm):
    spec = flows.make_spec(name, params, collective, 1e6, algorithm)
    expected = flows.run(spec)
    tracer = Tracer()
    cache = flows.ResultCache(tmp_path)
    staged, built = flows.staged_run(spec, cache, tracer)
    assert flows._outcome(staged) == flows._outcome(expected)
    assert (built is not None) == (algorithm == "tacos")
    assert tracer.counts["api.cache.misses"] == 1
    hit, _ = flows.staged_run(spec, cache, tracer)
    assert hit.cached and flows._outcome(hit) == flows._outcome(expected)
    outcomes = flows.Outcomes()
    outcomes.add(spec, expected, None, staged=False)
    record = outcomes.gate([spec])
    assert not outcomes.problems and record[0]["collective_time"] == expected.collective_time


def test_teardown_stops_every_helper_process():
    from multiprocessing import resource_tracker

    flows.resolve_backend("pool").warm(1)
    ref = flows.broadcast.publish(b"perfbench teardown")
    tracker = resource_tracker._resource_tracker
    started = tracker._pid
    flows.teardown()
    assert flows.resolve_backend("pool").pool_widths() == []
    assert flows.broadcast.published_segments() == 0
    assert tracker._pid is None
    if ref.segment is not None:  # a segment starts the tracker, which must have ended
        with pytest.raises(ChildProcessError):
            os.waitpid(started, os.WNOHANG)


def _bench(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(tmp_path), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_end_to_end_run_is_correct_and_deterministic(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "search-pool", "--seconds", "0.1", "--seed", "5", "--trace", "0"]
    first = _bench(tmp_path / "a", *args)
    second = _bench(tmp_path / "b", *args)
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= flows.WORKLOADS["search-pool"].min_passes * 4
        assert set(result["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}
    records = [
        json.loads((tmp_path / side / "search-pool-seed5-trace0.json").read_text())
        for side in ("a", "b")
    ]
    assert records[0]["determinism"] == records[1]["determinism"]
    assert all(entry["table_sha256"] for entry in records[0]["determinism"])
    assert records[0]["host"]["seed"] == 5 and records[0]["host"]["nproc"] >= 1

    traced = _bench(tmp_path / "c", "--workload", "deploy-export", "--seconds", "0.1",
                    "--seed", "5", "--trace", "1")
    assert traced["correct"]
    assert set(traced["metrics"]) == {metric["name"] for metric in spec["per_layer"]}
    assert traced["metrics"]["export.msccl_xml_s"]["value"] > 0
    assert traced["metrics"]["api.broadcast.live_segments"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
