"""Workloads, the user flows they time, and the checks on every output.

Everything here drives ``repro`` through its public functions only.  A flow
is one spec's user-visible work: ``run(spec)`` for the synthesis workloads,
``run`` plus reload, verify and export for ``deploy-export``.  With tracing
on, :func:`staged_run` replaces ``run()`` by the same public layer functions
``run()`` calls, in ``run()``'s order, each inside a span; its result must
equal ``run()``'s, which :class:`Outcomes` checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.ideal import (
    ideal_all_gather_time,
    ideal_all_reduce_time,
    ideal_reduce_scatter_time,
)
from repro.api import (
    ALGORITHMS,
    AlgorithmSpec,
    CollectiveSpec,
    ResultCache,
    RunResult,
    RunSpec,
    TopologySpec,
    build_algorithm_artifact,
    build_collective,
    build_topology,
    resolve_backend,
    run,
)
from repro.api import broadcast
from repro.api.parallel import shutdown_pools
from repro.collectives import AllReduce
from repro.core import verify_algorithm
from repro.errors import ReproError
from repro.export.algorithm_json import algorithm_to_dict
from repro.export.msccl_xml import algorithm_to_msccl_xml
from repro.simulator import (
    CongestionAwareSimulator,
    algorithm_to_flat_workload,
    schedule_to_flat_workload,
)
from repro.topology.link import GIGABYTE

from spans import NULL_TRACER

MB = 1e6

#: Trial workers for the pool search: two, never more than the CPUs.
POOL_WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))

#: Span (layer) that builds each algorithm; anything unlisted is a schedule baseline.
ALGORITHM_LAYER = {
    "tacos": "core.synthesizer.synthesize",
    "taccl_like": "baselines.taccl_like",
    "ideal": "analysis.ideal",
}

#: The analytic bound each collective's result must not beat (independent of synthesis).
IDEAL_BOUNDS = {
    "AllReduce": ideal_all_reduce_time,
    "AllGather": ideal_all_gather_time,
    "ReduceScatter": ideal_reduce_scatter_time,
}


class CheckFailed(ReproError):
    """An output failed the benchmark's correctness gate."""


def make_spec(topology: str, params: dict, collective: str, size: float,
              algorithm: str = "tacos", **algorithm_params) -> RunSpec:
    return RunSpec(
        topology=TopologySpec(name=topology, params=params),
        collective=CollectiveSpec(name=collective, collective_size=size),
        algorithm=AlgorithmSpec(name=algorithm, params=algorithm_params),
    )


def spec_label(spec: RunSpec) -> str:
    params = ",".join(str(value) for value in spec.topology.params.values())
    return (f"{spec.algorithm.name} {spec.collective.name} {spec.topology.name}:{params} "
            f"{spec.collective.collective_size / MB:g}MB")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _trial_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 20)


def _paper_synth(rng: random.Random) -> List[RunSpec]:
    return [
        make_spec(name, params, "all_reduce", 64 * MB,
                  seed=_trial_seed(rng), trials=1, execution="serial")
        for name, params in (
            ("mesh_2d", {"rows": 8, "cols": 8}),
            ("mesh_2d", {"rows": 12, "cols": 12}),
            ("hypercube_3d", {"x": 4, "y": 4, "z": 4}),
            ("rfs_3d", {"ring_size": 4, "fc_size": 4, "switch_size": 8}),
        )
    ]


def _deploy_export(rng: random.Random) -> List[RunSpec]:
    return [
        make_spec(name, params, collective, 16 * MB, seed=_trial_seed(rng))
        for name, params, collective in (
            ("mesh_2d", {"rows": 8, "cols": 8}, "all_gather"),
            ("hypercube_3d", {"x": 4, "y": 4, "z": 4}, "reduce_scatter"),
            ("mesh_2d", {"rows": 6, "cols": 6}, "all_to_all"),
            ("switch_2d", {"first_size": 4, "second_size": 8}, "all_reduce"),
        )
    ]


def _sweep_cached(rng: random.Random) -> List[RunSpec]:
    # taccl_like keeps its default seed, so the specs that set the latency
    # tail run the same restart search whatever the workload seed.
    specs = []
    for name in ("mesh_2d", "torus_2d"):
        for size in (1 * MB, 64 * MB):
            algorithms = [(algorithm, {}) for algorithm in ("ring", "direct", "rhd", "dbt", "multitree")]
            algorithms += [
                ("themis", {"dims": [8, 8]}),
                ("taccl_like", {}),
                ("ideal", {}),
                ("tacos", {"trials": 1, "seed": _trial_seed(rng)}),
            ]
            specs += [
                make_spec(name, {"rows": 8, "cols": 8}, "all_reduce", size, algorithm, **params)
                for algorithm, params in algorithms
            ]
    return specs


def _search_pool(rng: random.Random) -> List[RunSpec]:
    # The base trial seed stays at its default: how many of the 16 trials a
    # search prunes depends on it (torus 6x6 takes 0.06 s to 0.23 s across
    # seeds), so every workload seed gets the same search work.
    search = dict(trials=16, incumbent_pruning=True, floor_termination=True,
                  execution="pool", trial_workers=POOL_WORKERS)
    return [
        make_spec(name, params, collective, size, **search)
        for name, params, collective, size in (
            ("mesh_2d", {"rows": 6, "cols": 6}, "all_gather", 2 * MB),
            ("mesh_2d", {"rows": 8, "cols": 8}, "all_reduce", 64 * MB),
            ("torus_2d", {"rows": 6, "cols": 6}, "all_reduce", 64 * MB),
            ("hypercube_3d", {"x": 3, "y": 3, "z": 3}, "all_reduce", 64 * MB),
        )
    ]


def _shuffled(specs: List[RunSpec], rng: random.Random) -> List[RunSpec]:
    order = list(specs)
    rng.shuffle(order)
    return order


def _shuffled_with_repeats(specs: List[RunSpec], rng: random.Random) -> List[RunSpec]:
    """A shuffled pass where a third of the stream repeats an earlier spec."""
    order = _shuffled(specs, rng)
    for _ in range(len(specs) // 2):
        first = rng.randrange(len(order))
        order.insert(rng.randint(first + 1, len(order)), order[first])
    return order


@dataclass(frozen=True)
class Workload:
    """A named spec stream: ``specs(rng)`` are the distinct specs, ``cycle``
    orders one pass over them; each pass gets a fresh cache when ``cache``.

    ``min_passes`` is how many passes an untraced run makes at least.  With
    four distinct specs of different latency, the latency tail (ten samples
    beyond it) lies among the slowest spec's samples only when that spec has
    more than ten; with fewer it jumps to the next spec's samples.
    """

    name: str
    specs: Callable[[random.Random], List[RunSpec]]
    warmup: RunSpec
    cycle: Callable[[List[RunSpec], random.Random], List[RunSpec]] = _shuffled
    min_passes: int = 11
    cache: bool = False
    pool: bool = False
    export: bool = False


_SMALL = ("mesh_2d", {"rows": 4, "cols": 4})

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-synth", _paper_synth,
            warmup=make_spec(*_SMALL, "all_reduce", MB, trials=1, execution="serial"),
        ),
        Workload(
            "deploy-export", _deploy_export,
            warmup=make_spec(*_SMALL, "all_gather", MB), cache=True, export=True,
        ),
        Workload(
            "sweep-cached", _sweep_cached, warmup=make_spec(*_SMALL, "all_reduce", MB),
            # The four taccl_like specs are the slowest; from three passes on
            # they have more than ten samples, so the tail lies among them.
            # Six passes did not steady it: it tracks the host's speed.
            cycle=_shuffled_with_repeats, min_passes=3, cache=True,
        ),
        Workload(
            "search-pool", _search_pool,
            warmup=make_spec(*_SMALL, "all_reduce", MB, trials=4, incumbent_pruning=True,
                             floor_termination=True, execution="pool",
                             trial_workers=POOL_WORKERS),
            pool=True,
        ),
    )
}


# ----------------------------------------------------------------------
# The staged run(): run()'s public layer calls, each inside a span
# ----------------------------------------------------------------------
def warm_derived(topology, pattern, spec: RunSpec) -> None:
    """Build the derived topology structures TACOS synthesis reads from ``topology``.

    Reducing patterns other than All-Reduce are synthesized on the reversed
    topology, so nothing here is read by them.  All-Reduce's All-Gather phase
    and every non-reducing pattern read the adjacency lists, the hop table
    when some NPU's postcondition is not every chunk (the forwarding pass),
    and the cheaper-link regions on heterogeneous topologies (the default
    synthesis config, which every workload uses).
    """
    if isinstance(pattern, AllReduce):
        pattern = pattern.all_gather_phase()
    elif pattern.requires_reduction:
        return
    post = pattern.postcondition()
    every = pattern.all_chunks()
    if any(post.get(npu, frozenset()) != every for npu in range(pattern.num_npus)):
        topology.hop_distances()
    if not topology.is_homogeneous():
        topology.cheaper_reachability_regions(
            pattern.chunk_size(spec.collective.collective_size)
        )
    topology.in_adjacency()
    topology.out_adjacency()


def staged_run(spec: RunSpec, cache: Optional[ResultCache], tracer):
    """``run(spec, cache=cache)`` rebuilt from the layers it calls; returns
    ``(result, algorithm)``, the algorithm ``None`` on a cache hit or baseline."""
    if cache is not None:
        with tracer.span("api.cache.get") as span:
            hit = cache.get(spec)
        if hit is not None:
            span.name = "api.cache.get_hit"
            tracer.count("api.cache.hits")
            return hit, None
        span.name = "api.cache.get_miss"
        tracer.count("api.cache.misses")

    with tracer.span("topology.build"):
        topology = build_topology(spec.topology)
    with tracer.span("collectives.build"):
        pattern = build_collective(spec.collective, topology.num_npus)
        pattern.precondition()
        pattern.postcondition()
    canonical = ALGORITHMS.canonical_name(spec.algorithm.name)
    size = spec.collective.collective_size
    layer = ALGORITHM_LAYER.get(canonical, "baselines.schedule")
    if layer == "core.synthesizer.synthesize":
        with tracer.span("topology.derived"):
            warm_derived(topology, pattern, spec)
    with tracer.span(layer):
        artifact = build_algorithm_artifact(spec.algorithm, topology, pattern, size)
    algorithm = artifact.algorithm
    if algorithm is not None:
        tracer.count("core.synthesizer.rounds", artifact.extras.get("rounds", 0.0))
        tracer.count("core.synthesizer.transfers", algorithm.num_transfers)
    for trial in artifact.trial_stats or ():
        tracer.sample("core.synthesizer.trial_s", trial["wall_seconds"])
        tracer.count("search.trials")
        pruned_at = trial.get("pruned_at_round")
        tracer.count("search.full_trials", pruned_at is None)
        tracer.count("search.floor_skipped", pruned_at == 0)

    extras = dict(artifact.extras)
    if artifact.collective_time is not None:
        collective_time = artifact.collective_time
    else:
        payload = algorithm if algorithm is not None else artifact.schedule
        with tracer.span("simulator.adapt"):
            if algorithm is not None:
                workload = algorithm_to_flat_workload(algorithm)
            else:
                workload = schedule_to_flat_workload(artifact.schedule)
        tracer.count("simulator.messages", workload.num_messages)
        with tracer.span("simulator.run"):
            simulator = CongestionAwareSimulator(
                topology, routing_message_size=spec.simulation.routing_message_size
            )
            simulated = simulator.run_flat(
                workload.sources, workload.dests, workload.size,
                workload.dep_indptr, workload.dep_indices,
                collective_size=payload.collective_size,
            )
        with tracer.span("analysis.utilization"):
            extras["avg_link_utilization"] = simulated.average_link_utilization()
        collective_time = simulated.completion_time

    bandwidth = size / collective_time / GIGABYTE if collective_time > 0 else float("inf")
    result = RunResult(
        spec=spec,
        algorithm=canonical,
        topology=topology.name,
        collective=pattern.name,
        num_npus=topology.num_npus,
        collective_size=size,
        collective_time=collective_time,
        bandwidth_gbps=bandwidth,
        synthesis_seconds=artifact.synthesis_seconds,
        extras=extras,
        trial_stats=artifact.trial_stats,
    )
    if cache is not None:
        with tracer.span("api.cache.put"):
            cache.put(result)
        if algorithm is not None:
            with tracer.span("api.cache.put_algorithm"):
                cache.put_algorithm(spec, algorithm)
    return result, algorithm


def execute(spec: RunSpec, cache: Optional[ResultCache], tracer):
    """One ``run()``: the real front door untraced, the staged mirror traced."""
    if tracer.enabled:
        return staged_run(spec, cache, tracer)
    return run(spec, cache=cache), None


def deploy(spec: RunSpec, cache: ResultCache, tracer):
    """Ship an algorithm: run it, reload its columns, verify, export MSCCL XML and JSON."""
    result, _ = execute(spec, cache, tracer)
    with tracer.span("api.cache.load_algorithm"):
        algorithm = cache.load_algorithm(spec)
    if algorithm is None:
        raise CheckFailed("no algorithm columns in the cache after run()")
    with tracer.span("topology.build"):
        topology = build_topology(spec.topology)
    with tracer.span("collectives.build"):
        pattern = build_collective(spec.collective, topology.num_npus)
    try:
        with tracer.span("core.verification.verify"):
            if verify_algorithm(algorithm, topology, pattern) is not True:
                raise CheckFailed("reloaded algorithm failed verify_algorithm")
    except ReproError:
        tracer.count("core.verification.failures")
        raise
    with tracer.span("export.msccl_xml"):
        xml = algorithm_to_msccl_xml(algorithm)
    with tracer.span("export.algorithm_json"):
        document = json.dumps(algorithm_to_dict(algorithm))
    tracer.count("export.msccl_xml_bytes", len(xml))
    tracer.count("export.algorithm_json_bytes", len(document))
    return result, algorithm


def user_flow(workload: Workload) -> Callable:
    return deploy if workload.export else execute


# ----------------------------------------------------------------------
# Session: set-up, per-pass caches, teardown
# ----------------------------------------------------------------------
class Session:
    """Set-up for one workload: a fresh cache directory, the warm pool when the
    workload searches on it, and one warm-up spec through the user flow."""

    def __init__(self, workload: Workload, work_root: Path, tracer) -> None:
        self.workload = workload
        self.flow = user_flow(workload)
        self.work_dir = Path(tempfile.mkdtemp(prefix="session-", dir=work_root))
        cache = self.fresh_cache() if workload.cache else None
        if workload.pool:
            with tracer.span("api.parallel.pool_start"):
                resolve_backend("pool").warm(POOL_WORKERS)
        self.flow(workload.warmup, cache, NULL_TRACER)

    def fresh_cache(self) -> ResultCache:
        return ResultCache(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))

    def close(self) -> None:
        """Stop the helper processes, unlink broadcast segments, delete the caches."""
        teardown()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def teardown() -> None:
    """Stop every process this one started and wait for each to end.

    The pool workers go first: they hold the resource tracker's pipe open.
    The tracker, which the first shared-memory segment starts, otherwise
    outlives the process by design.
    """
    shutdown_pools(wait=True)
    broadcast.shutdown()
    resource_tracker._resource_tracker._stop()


def disk_bytes(cache: ResultCache) -> int:
    return sum(path.stat().st_size for path in cache.directory.rglob("*") if path.is_file())


def drop_cache(cache: ResultCache) -> None:
    shutil.rmtree(cache.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Correctness gate and determinism record
# ----------------------------------------------------------------------
def _outcome(result: RunResult) -> tuple:
    """The deterministic part of a result (wall-clock fields excluded)."""
    return (
        result.algorithm, result.topology, result.collective, result.num_npus,
        result.collective_size, result.collective_time, result.bandwidth_gbps,
        tuple(sorted(result.extras.items())),
    )


class Outcomes:
    """Every result per distinct spec, checked against the first one seen.

    A spec fails when any flow of it raised, when two of its results differ
    (untraced ``run()`` against the staged run, a cache hit against the miss
    that stored it), when its algorithm fails ``verify_algorithm``, when its
    time beats the analytic ideal bound, or when a broadcast segment outlives
    it.  ``failed`` counts the attempts of failed specs.
    """

    def __init__(self) -> None:
        self.first: Dict[str, RunResult] = {}
        self.algorithms: Dict[str, object] = {}
        self.staged: set = set()
        self.problems: Dict[str, str] = {}
        self.attempts: List[str] = []

    def add(self, spec: RunSpec, result: RunResult, algorithm, *, staged: bool,
            live_segments: int = 0, measured: bool = True) -> None:
        key = spec.spec_hash()
        if measured:
            self.attempts.append(key)
        first = self.first.setdefault(key, result)
        if _outcome(result) != _outcome(first):
            self.fail(spec, "result differs from the first result for this spec")
        if algorithm is not None:
            self.algorithms.setdefault(key, algorithm)
        if staged:
            self.staged.add(key)
        if live_segments:
            self.fail(spec, f"{live_segments} broadcast segments live after the spec")

    def fail(self, spec: RunSpec, reason: str, *, attempted: bool = False) -> None:
        key = spec.spec_hash()
        if attempted:
            self.attempts.append(key)
        self.problems.setdefault(key, f"{spec_label(spec)}: {reason}")

    @property
    def failed(self) -> int:
        return sum(1 for key in self.attempts if key in self.problems)

    def to_json(self) -> dict:
        """What a measuring process hands to the gate: attempts, problems, first results."""
        return {
            "attempts": self.attempts,
            "problems": self.problems,
            "first": {key: result.to_dict() for key, result in self.first.items()},
        }

    def merge(self, document: dict) -> None:
        """Fold in another process's outcomes; its first results must equal ours."""
        self.attempts.extend(document["attempts"])
        for key, reason in document["problems"].items():
            self.problems.setdefault(key, reason)
        for data in document["first"].values():
            result = RunResult.from_dict(data)
            self.add(result.spec, result, None, staged=False, measured=False)

    def gate(self, specs: List[RunSpec]) -> List[dict]:
        """Check every distinct spec; return its determinism record.

        A synthesized spec never run through :func:`staged_run` is run through
        it now, untraced and uncached: ``run()`` does not return the algorithm
        that must be verified.  Baseline results are compared with the staged
        pipeline in traced runs only.
        """
        record = []
        for spec in specs:
            key = spec.spec_hash()
            if key not in self.first:
                continue
            synthesized = ALGORITHMS.canonical_name(spec.algorithm.name) == "tacos"
            try:
                if synthesized and key not in self.staged:
                    result, algorithm = staged_run(spec, None, NULL_TRACER)
                    self.add(spec, result, algorithm, staged=True,
                             live_segments=broadcast.published_segments(), measured=False)
                self._check(spec, self.first[key], self.algorithms.get(key))
            except ReproError as exc:
                self.fail(spec, f"{type(exc).__name__}: {exc}")
            algorithm = self.algorithms.get(key)
            record.append({
                "spec": spec_label(spec),
                "spec_hash": key,
                "table_sha256": (hashlib.sha256(algorithm.table.to_bytes()).hexdigest()
                                 if algorithm is not None else None),
                "collective_time": self.first[key].collective_time,
            })
        return record

    def _check(self, spec: RunSpec, result: RunResult, algorithm) -> None:
        topology = build_topology(spec.topology)
        pattern = build_collective(spec.collective, topology.num_npus)
        if algorithm is not None and verify_algorithm(algorithm, topology, pattern) is not True:
            raise CheckFailed("algorithm failed verify_algorithm")
        bound = IDEAL_BOUNDS.get(pattern.name)
        if bound is not None:
            ideal = bound(topology, spec.collective.collective_size)
            if not result.collective_time >= ideal * (1 - 1e-9):
                raise CheckFailed(
                    f"collective time {result.collective_time!r} beats the ideal bound {ideal!r}"
                )


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))
