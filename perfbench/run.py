#!/usr/bin/env python3
"""Commit-vs-commit benchmark of the TACOS reproduction (see README.md here).

    python3 perfbench/run.py --workload paper-synth --seed 1 --seconds 6 --trace 0

Run from the root of a source checkout: the ``repro`` package is imported from
``src/``.  One client runs a closed loop: the next spec is submitted only
after the previous one returns.  The seed generates the specs and nothing
else.  ``--trace 0`` prints the end-to-end metrics, measured in PARTS fresh
interpreters one after another; ``--trace 1`` prints the per-layer ones from
a traced pass interleaved with an untraced pass over the same specs.  The
last stdout line is the JSON result; the full record (host envelope,
determinism digests, spans) is written under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NULL_TRACER, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-synth", "deploy-export", "sweep-cached", "search-pool")

#: Untraced runs measure in this many fresh interpreters, one after another,
#: each for an equal share of the time.  A process keeps one speed for its
#: life and the next can be 25% faster or slower on a shared host; pooling
#: samples from several processes averages that out.  Each process also
#: times its own set-up, so setup_s is their median.
PARTS = 3

#: A latency tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

#: Per-spec self time of these spans is reported as ``<span>_s``.
LAYER_SPANS = (
    "topology.build", "topology.derived", "collectives.build",
    "core.synthesizer.synthesize", "baselines.schedule", "baselines.taccl_like",
    "analysis.ideal", "simulator.adapt", "simulator.run", "analysis.utilization",
    "core.verification.verify", "export.msccl_xml", "export.algorithm_json",
    "api.cache.get_hit", "api.cache.get_miss", "api.cache.put",
    "api.cache.put_algorithm", "api.cache.load_algorithm",
)
#: Counters reported per spec attempted in the traced pass, with their units.
PER_SPEC_COUNTS = {
    "core.synthesizer.rounds": "count", "core.synthesizer.transfers": "count",
    "search.full_trials": "count", "search.floor_skipped": "count",
    "simulator.messages": "count", "api.cache.hits": "count", "api.cache.misses": "count",
    "export.msccl_xml_bytes": "bytes", "export.algorithm_json_bytes": "bytes",
}


def timed_setup(workload_name: str, work_root: Path, tracer):
    """Import, registry population, fresh cache, pool cold start, warm-up spec."""
    started = time.perf_counter()
    import flows  # imports repro, which populates its registries

    session = flows.Session(flows.WORKLOADS[workload_name], work_root, tracer)
    return session, time.perf_counter() - started


class Pass:
    """Latency samples and wall time of one kind of pass (traced or untraced)."""

    def __init__(self) -> None:
        self.samples = []  # (spec label, served from cache, seconds)
        self.wall = 0.0
        self.disk_bytes = []
        self.live_segments = 0

    @property
    def latencies(self) -> list:
        return [sample[2] for sample in self.samples]


def run_pass(session, stream, tracer, record: Pass, outcomes) -> None:
    """One closed-loop pass over ``stream``; results are checked after it ends."""
    import flows
    from repro.api import broadcast

    done = []
    started = time.perf_counter()
    cache = session.fresh_cache() if session.workload.cache else None
    for spec in stream:
        tracer.spec = len(record.samples) + len(done)
        began = time.perf_counter()
        try:
            with tracer.span("spec"):
                result, algorithm = session.flow(spec, cache, tracer)
        except Exception as exc:  # a failing spec is counted; the loop goes on
            traceback.print_exc(file=sys.stderr)
            outcomes.fail(spec, f"{type(exc).__name__}: {exc}", attempted=True)
            continue
        latency = time.perf_counter() - began
        done.append((spec, result, algorithm, latency, broadcast.published_segments()))
    record.wall += time.perf_counter() - started
    for spec, result, algorithm, latency, live in done:
        record.samples.append((flows.spec_label(spec), result.cached, latency))
        record.live_segments = max(record.live_segments, live)
        outcomes.add(spec, result, algorithm, staged=tracer.enabled, live_segments=live)
    if cache is not None:
        record.disk_bytes.append(flows.disk_bytes(cache))
        flows.drop_cache(cache)


def order_rng(seed: int, part: int) -> random.Random:
    """The pass-order stream of one measuring process (the specs come from ``seed`` alone)."""
    return random.Random(f"{seed}/{part}")


def measure_part(args) -> dict:
    """Body of one measuring process: set up, run passes for its share, report."""
    session, setup_s = timed_setup(args.workload, args.work_root, NULL_TRACER)
    import flows

    distinct = session.workload.specs(random.Random(args.seed))
    rng = order_rng(args.seed, args.part)
    outcomes = flows.Outcomes()
    record = Pass()
    share = args.seconds / PARTS
    passes = 0
    # The processes' shares of the workload's minimum sum to it; each makes one pass at least.
    min_passes = max(1, (session.workload.min_passes + PARTS - 1 - args.part) // PARTS)
    try:
        # Whole passes, as many as come nearest to this process's share of the time.
        while passes < min_passes or record.wall * (2 * passes + 1) / (2 * passes) < share:
            run_pass(session, session.workload.cycle(distinct, rng), NULL_TRACER, record, outcomes)
            passes += 1
    finally:
        session.close()
    return {
        "setup_s": setup_s,
        "wall": record.wall,
        "samples": record.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": outcomes.to_json(),
    }


def spawn_part(args, part: int) -> dict:
    """Run one measuring process; stop it, and wait for it, on every way out.

    It stops on SIGTERM through its own teardown, which ends its pool workers
    and resource tracker too.  Only if that hangs is it killed.
    """
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(args.out),
         "--part", str(part)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process {part} exited with {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def tail(latencies):
    """``(percentile, value, samples beyond)`` for the highest whole percentile
    (nearest rank) that leaves at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = math.ceil(percentile * count / 100)
        if rank >= 1 and count - rank >= TAIL_BEYOND:
            return percentile, ordered[rank - 1], count - rank
    return 100, ordered[-1], 0


def spec_p50(samples) -> float:
    """Each spec's median latency, geometric mean over the run's samples.

    Cache hits and misses of one spec are separate groups.  A median taken
    over all samples at once sits on the boundary between two specs' groups
    and jumps with the slightest shift; per-spec medians do not.
    """
    groups = {}
    for label, cached, latency in samples:
        groups.setdefault((label, cached), []).append(latency)
    logs = [math.log(statistics.median(group)) * len(group) for group in groups.values()]
    return math.exp(sum(logs) / len(samples))


def end_to_end(parts: list, outcomes) -> tuple:
    import flows

    samples = [sample for part in parts for sample in part["samples"]]
    latencies = [sample[2] for sample in samples]
    results = list(outcomes.first.values())
    setups = [part["setup_s"] for part in parts]
    percentile, tail_value, beyond = tail(latencies)
    metrics = {
        "specs_per_s": (len(latencies) / sum(part["wall"] for part in parts), "1/s"),
        "spec_latency_p50_s": (spec_p50(samples), "s"),
        "spec_latency_tail_s": (tail_value, "s"),
        "bandwidth_geomean_gbps": (flows.geomean([r.bandwidth_gbps for r in results]), "GB/s"),
        "peak_rss_mb": (statistics.median(part["peak_rss_mb"] for part in parts), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    details = {
        "spec_latency_tail_percentile": percentile,
        "spec_latency_tail_beyond": beyond,
        "spec_latency_samples": len(latencies),
        "spec_latency_pooled_median_s": statistics.median(latencies),
        "collective_time_geomean_us": flows.geomean([r.collective_time * 1e6 for r in results]),
        "failed_fraction": outcomes.failed / max(1, len(outcomes.attempts)),
        "setup_samples_s": setups,
        "latency_samples": samples,
    }
    return metrics, details


def per_layer(traced: Pass, untraced: Pass, tracer: Tracer) -> dict:
    specs = max(1, len(traced.samples))
    self_times = tracer.self_times()
    metrics = {f"{name}_s": (self_times.get(name, 0.0) / specs, "s") for name in LAYER_SPANS}
    metrics["api.runner.self_s"] = (self_times.get("spec", 0.0) / specs, "s")
    metrics["api.parallel.pool_start_s"] = (self_times.get("api.parallel.pool_start", 0.0), "s")
    for name, unit in PER_SPEC_COUNTS.items():
        metrics[name] = (tracer.counts.get(name, 0) / specs, unit)
    synth_s = self_times.get("core.synthesizer.synthesize", 0.0)
    trial_s = tracer.samples.get("core.synthesizer.trial_s")
    trials = tracer.counts.get("search.trials", 0)
    metrics.update({
        "core.synthesizer.trial_s_p50": (statistics.median(trial_s) if trial_s else 0.0, "s"),
        "core.matching.transfers_per_s": (
            tracer.counts.get("core.synthesizer.transfers", 0) / synth_s if synth_s else 0.0, "1/s"),
        "search.pruned_fraction": (
            (trials - tracer.counts.get("search.full_trials", 0)) / trials if trials else 0.0,
            "fraction"),
        "api.broadcast.live_segments": (max(traced.live_segments, untraced.live_segments), "count"),
        "core.verification.failures": (tracer.counts.get("core.verification.failures", 0), "count"),
        "api.cache.disk_bytes": (statistics.mean(traced.disk_bytes) if traced.disk_bytes else 0.0,
                                 "bytes"),
        "trace.overhead_s": ((sum(traced.latencies) - sum(untraced.latencies)) / specs, "s"),
    })
    return metrics


def accounting(traced: Pass, untraced: Pass, tracer: Tracer) -> dict:
    """Layer self time against the untraced latency, per spec.

    The traced flow's spans tile its latency, so the self times of the
    layers plus ``api.runner.self_s`` (flow code between layer calls) sum to
    the traced latency, which is the untraced latency plus the overhead.
    """
    specs = max(1, len(traced.samples))
    self_times = tracer.self_times()
    layers = sum(self_times.get(name, 0.0) for name in LAYER_SPANS) / specs
    untraced_s = sum(untraced.latencies) / max(1, len(untraced.samples))
    return {
        "untraced_latency_mean_s": untraced_s,
        "traced_latency_mean_s": sum(traced.latencies) / specs,
        "layer_self_sum_s": layers,
        "layer_share_of_untraced": layers / untraced_s if untraced_s else 0.0,
    }


def traced_run(args, outcomes) -> tuple:
    """Alternate untraced and traced passes over the same stream in this process,
    as many of each as half the workload's minimum passes at least."""
    tracer = Tracer()
    session, _ = timed_setup(args.workload, args.work_root, tracer)
    distinct = session.workload.specs(random.Random(args.seed))
    rng = order_rng(args.seed, 0)
    untraced, traced = Pass(), Pass()
    pairs = 0
    try:
        while pairs < math.ceil(session.workload.min_passes / 2) or (
                untraced.wall + traced.wall < args.seconds):
            stream = session.workload.cycle(distinct, rng)
            run_pass(session, stream, NULL_TRACER, untraced, outcomes)
            run_pass(session, stream, tracer, traced, outcomes)
            pairs += 1
        determinism = outcomes.gate(distinct)
    finally:
        session.close()
    metrics = per_layer(traced, untraced, tracer)
    return metrics, accounting(traced, untraced, tracer), determinism, tracer.to_json()


def untraced_run(args, outcomes) -> tuple:
    """Measure in PARTS fresh processes, then check every result here."""
    parts = [spawn_part(args, part) for part in range(PARTS)]
    import flows

    for part in parts:
        outcomes.merge(part["outcomes"])
    try:
        determinism = outcomes.gate(flows.WORKLOADS[args.workload].specs(random.Random(args.seed)))
    finally:
        flows.teardown()
    metrics, details = end_to_end(parts, outcomes)
    return metrics, details, determinism, []


def host_envelope(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba_importable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def benchmark(args) -> int:
    import flows
    from repro.api import broadcast, resolve_backend

    outcomes = flows.Outcomes()
    run_kind = traced_run if args.trace else untraced_run
    metrics, details, determinism, spans = run_kind(args, outcomes)
    leaked = broadcast.published_segments() + len(resolve_backend("pool").pool_widths())
    if leaked:
        outcomes.problems["teardown"] = f"{leaked} segments or pools left after teardown"
    if not outcomes.first:
        outcomes.problems["progress"] = "no spec completed"

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_envelope(args.seed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": details,
        "attempted": len(outcomes.attempts),
        "failed": outcomes.failed,
        "problems": sorted(outcomes.problems.values()),
        "determinism": determinism,
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    for name, value in details.items():
        if name != "latency_samples":
            print(f"  {name:<34} {value}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("envelope " + json.dumps(record["host"]))
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(record, spans=spans), indent=1))
    print(f"record {path}")
    print(json.dumps({
        "correct": not outcomes.problems,
        "attempted": max(1, len(outcomes.attempts)),
        "failed": outcomes.failed,
        "metrics": record["metrics"],
    }))
    return 0


def stop_on_signal(signum, frame):
    """Turn SIGTERM into an exit that runs every ``finally`` and so the teardown."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                        help="directory for run records and scratch caches")
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, stop_on_signal)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args.out = args.out.resolve()
    args.work_root = args.out / "work"
    args.work_root.mkdir(parents=True, exist_ok=True)

    try:
        if args.part is not None:
            print(json.dumps(measure_part(args)))
            return 0
        return benchmark(args)
    finally:
        if "flows" in sys.modules:  # imported during set-up, which is timed
            sys.modules["flows"].teardown()


if __name__ == "__main__":
    sys.exit(main())
