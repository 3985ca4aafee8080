"""Golden winners of the trial pipeline, pinned across every execution tier.

The values below were recorded while the synthesizer still carried two trial
pipelines (a uniform one and a pruning/stats one).  Merging them into one
path must not move a single byte: per case, the SHA-256 of the winner's
``table.to_bytes()``, the winning trial's ``rounds``, the trial count, and
``trial_stats`` minus ``wall_seconds`` are checked against the table on
serial, thread, process and pool execution, with plain, stats-collecting and
pruning-plus-floor configs, on the flat and the native engine.

All-to-All is left out on the heterogeneous DGX-1, where forwarding stalls
(see ``TestKnownForwardingStall`` in ``tests/core/test_synthesizer.py``).
"""

import hashlib

import pytest

from repro.api.parallel import shutdown_pools
from repro.collectives import AllGather, AllReduce, AllToAll
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.core.synthesizer import FLAT_ENGINE, NATIVE_ENGINE
from repro.topology import build_2d_switch, build_dgx1, build_mesh, build_ring

TOPOLOGIES = {
    "mesh3x3": lambda: build_mesh((3, 3)),
    "ring5": lambda: build_ring(5),
    "switch2d": lambda: build_2d_switch(2, 4),
    "dgx1h": lambda: build_dgx1(heterogeneous=True),
}
PATTERNS = {"all_gather": AllGather, "all_reduce": AllReduce, "all_to_all": AllToAll}
CASES = [
    (topology, pattern)
    for topology in TOPOLOGIES
    for pattern in PATTERNS
    if (topology, pattern) != ("dgx1h", "all_to_all")
]
EXECUTIONS = ("serial", "thread", "process", "pool")
CONFIGS = {
    "plain": {},
    "stats": {"collect_trial_stats": True},
    "prune": {"incumbent_pruning": True, "floor_termination": True},
}
SEED = 3
SIZE = 1e6

#: ``(topology, pattern, trials) -> (rounds, sha256 of table.to_bytes())``.
#: The winner does not depend on the execution backend or the config.
WINNERS = {
    ("mesh3x3", "all_gather", 1): (5, "0e5c81ff1d39abd0b3b74f565e41524f2ed754e35c1b75f050de8a8e520772fd"),
    ("mesh3x3", "all_gather", 4): (4, "40ca84426839e1dc00d7f34a85d0e5500109313177e0a7796a33b5f274e26796"),
    ("mesh3x3", "all_reduce", 1): (10, "30892421b90f9360e30977af679b0d5dde07d909d2d4bf1e6a65af17b2023639"),
    ("mesh3x3", "all_reduce", 4): (8, "661defe41ebb0d349f4da36b94860b6e39e5e3efa3a31cb3e87f06e277b7192e"),
    ("mesh3x3", "all_to_all", 1): (9, "9e351085d8925eb0a6d7003c485a307f3d37226f5f74d32d2d4058718dba796f"),
    ("mesh3x3", "all_to_all", 4): (9, "9e351085d8925eb0a6d7003c485a307f3d37226f5f74d32d2d4058718dba796f"),
    ("ring5", "all_gather", 1): (2, "9982b1180908b7fde986a1aa711d81fcfca2e4701c37587acdae5974d791ea89"),
    ("ring5", "all_gather", 4): (2, "9982b1180908b7fde986a1aa711d81fcfca2e4701c37587acdae5974d791ea89"),
    ("ring5", "all_reduce", 1): (4, "c4d9635f1716120aececebc7f66d6208ad4a8ce4bdae4075e5e6e69932318b77"),
    ("ring5", "all_reduce", 4): (4, "c4d9635f1716120aececebc7f66d6208ad4a8ce4bdae4075e5e6e69932318b77"),
    ("ring5", "all_to_all", 1): (3, "4c9b09fefbc9a1c4004b95f815fc9761337b7eef95a1635a42623de41f967013"),
    ("ring5", "all_to_all", 4): (3, "4c9b09fefbc9a1c4004b95f815fc9761337b7eef95a1635a42623de41f967013"),
    ("switch2d", "all_gather", 1): (7, "38b89930baa0a85ca029a918e0a3615666ab4385ac39e4c2c9ba8830190d386c"),
    ("switch2d", "all_gather", 4): (7, "38b89930baa0a85ca029a918e0a3615666ab4385ac39e4c2c9ba8830190d386c"),
    ("switch2d", "all_reduce", 1): (14, "eabcf0f6caaea0c60ce49f6ff9a812b148021257c4895205787ecdf712886d0f"),
    ("switch2d", "all_reduce", 4): (14, "eabcf0f6caaea0c60ce49f6ff9a812b148021257c4895205787ecdf712886d0f"),
    ("switch2d", "all_to_all", 1): (25, "cff237dd3038a9fba06d96946f5a2c9e2c9b6fe17ccd60320cee4961ebd404dd"),
    ("switch2d", "all_to_all", 4): (25, "cff237dd3038a9fba06d96946f5a2c9e2c9b6fe17ccd60320cee4961ebd404dd"),
    ("dgx1h", "all_gather", 1): (8, "5d2865f0901fa0c364a1b8b2e272bcd891557dea02d74eee91b39dba28458b27"),
    ("dgx1h", "all_gather", 4): (7, "4098790f1be6bb8224cf42aaa9de72ee77a69b875536a26d8445a62b91e10cbf"),
    ("dgx1h", "all_reduce", 1): (16, "0085fd34d8cd04307bdae2146b19760092ee77652bbaa7906a3bac0467070dfc"),
    ("dgx1h", "all_reduce", 4): (14, "b244a01dcdebf635850cd49eeef7e2699a3b6c58b5bca67cec7613391ec8ce69"),
}

#: ``(topology, pattern, trials, config, mode) -> trial_stats`` rows of
#: ``(seed, rounds, collective_time, pruned_at_round, phase)``; ``mode`` is
#: ``serial`` or ``parallel`` (thread, process and pool share one row set).
TRIAL_STATS = {
    ("mesh3x3", "all_gather", 1, "stats", "serial"): (
        (3, 5, 1.361111111111111e-05, None, None),
    ),
    ("mesh3x3", "all_gather", 1, "prune", "serial"): (
        (3, 5, 1.361111111111111e-05, None, None),
    ),
    ("mesh3x3", "all_gather", 1, "stats", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, None),
    ),
    ("mesh3x3", "all_gather", 1, "prune", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, None),
    ),
    ("mesh3x3", "all_gather", 4, "stats", "serial"): (
        (3, 5, 1.361111111111111e-05, None, None),
        (4, 4, 1.0888888888888888e-05, None, None),
        (5, 4, 1.0888888888888888e-05, None, None),
        (6, 4, 1.0888888888888888e-05, None, None),
    ),
    ("mesh3x3", "all_gather", 4, "prune", "serial"): (
        (3, 5, 1.361111111111111e-05, None, None),
        (4, 4, 1.0888888888888888e-05, None, None),
        (5, 0, None, 0, None),
        (6, 0, None, 0, None),
    ),
    ("mesh3x3", "all_gather", 4, "stats", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, None),
        (4, 4, 1.0888888888888888e-05, None, None),
        (5, 4, 1.0888888888888888e-05, None, None),
        (6, 4, 1.0888888888888888e-05, None, None),
    ),
    ("mesh3x3", "all_gather", 4, "prune", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, None),
        (4, 4, 1.0888888888888888e-05, None, None),
        (5, 4, 1.0888888888888888e-05, None, None),
        (6, 4, 1.0888888888888888e-05, None, None),
    ),
    ("mesh3x3", "all_reduce", 1, "stats", "serial"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
    ),
    ("mesh3x3", "all_reduce", 1, "prune", "serial"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
    ),
    ("mesh3x3", "all_reduce", 1, "stats", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
    ),
    ("mesh3x3", "all_reduce", 1, "prune", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
    ),
    ("mesh3x3", "all_reduce", 4, "stats", "serial"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (4, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (5, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (6, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
        (4, 4, 1.0888888888888888e-05, None, "all_gather"),
        (5, 4, 1.0888888888888888e-05, None, "all_gather"),
        (6, 4, 1.0888888888888888e-05, None, "all_gather"),
    ),
    ("mesh3x3", "all_reduce", 4, "prune", "serial"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (4, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (5, 0, None, 0, "reduce_scatter"),
        (6, 0, None, 0, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
        (4, 4, 1.0888888888888888e-05, None, "all_gather"),
        (5, 0, None, 0, "all_gather"),
        (6, 0, None, 0, "all_gather"),
    ),
    ("mesh3x3", "all_reduce", 4, "stats", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (4, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (5, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (6, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
        (4, 4, 1.0888888888888888e-05, None, "all_gather"),
        (5, 4, 1.0888888888888888e-05, None, "all_gather"),
        (6, 4, 1.0888888888888888e-05, None, "all_gather"),
    ),
    ("mesh3x3", "all_reduce", 4, "prune", "parallel"): (
        (3, 5, 1.361111111111111e-05, None, "reduce_scatter"),
        (4, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (5, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (6, 4, 1.0888888888888888e-05, None, "reduce_scatter"),
        (3, 5, 1.361111111111111e-05, None, "all_gather"),
        (4, 4, 1.0888888888888888e-05, None, "all_gather"),
        (5, 4, 1.0888888888888888e-05, None, "all_gather"),
        (6, 4, 1.0888888888888888e-05, None, "all_gather"),
    ),
    ("mesh3x3", "all_to_all", 1, "stats", "serial"): (
        (3, 9, 2.45e-05, None, None),
    ),
    ("mesh3x3", "all_to_all", 1, "prune", "serial"): (
        (3, 9, 2.45e-05, None, None),
    ),
    ("mesh3x3", "all_to_all", 1, "stats", "parallel"): (
        (3, 9, 2.45e-05, None, None),
    ),
    ("mesh3x3", "all_to_all", 1, "prune", "parallel"): (
        (3, 9, 2.45e-05, None, None),
    ),
    ("mesh3x3", "all_to_all", 4, "stats", "serial"): (
        (3, 9, 2.45e-05, None, None),
        (4, 10, 2.7222222222222223e-05, None, None),
        (5, 10, 2.7222222222222223e-05, None, None),
        (6, 9, 2.45e-05, None, None),
    ),
    ("mesh3x3", "all_to_all", 4, "prune", "serial"): (
        (3, 9, 2.45e-05, None, None),
        (4, 10, 2.7222222222222223e-05, None, None),
        (5, 10, 2.7222222222222223e-05, None, None),
        (6, 9, 2.45e-05, None, None),
    ),
    ("mesh3x3", "all_to_all", 4, "stats", "parallel"): (
        (3, 9, 2.45e-05, None, None),
        (4, 10, 2.7222222222222223e-05, None, None),
        (5, 10, 2.7222222222222223e-05, None, None),
        (6, 9, 2.45e-05, None, None),
    ),
    ("mesh3x3", "all_to_all", 4, "prune", "parallel"): (
        (3, 9, 2.45e-05, None, None),
        (4, 10, 2.7222222222222223e-05, None, None),
        (5, 10, 2.7222222222222223e-05, None, None),
        (6, 9, 2.45e-05, None, None),
    ),
    ("ring5", "all_gather", 1, "stats", "serial"): (
        (3, 2, 9e-06, None, None),
    ),
    ("ring5", "all_gather", 1, "prune", "serial"): (
        (3, 2, 9e-06, None, None),
    ),
    ("ring5", "all_gather", 1, "stats", "parallel"): (
        (3, 2, 9e-06, None, None),
    ),
    ("ring5", "all_gather", 1, "prune", "parallel"): (
        (3, 2, 9e-06, None, None),
    ),
    ("ring5", "all_gather", 4, "stats", "serial"): (
        (3, 2, 9e-06, None, None),
        (4, 2, 9e-06, None, None),
        (5, 2, 9e-06, None, None),
        (6, 2, 9e-06, None, None),
    ),
    ("ring5", "all_gather", 4, "prune", "serial"): (
        (3, 2, 9e-06, None, None),
        (4, 0, None, 0, None),
        (5, 0, None, 0, None),
        (6, 0, None, 0, None),
    ),
    ("ring5", "all_gather", 4, "stats", "parallel"): (
        (3, 2, 9e-06, None, None),
        (4, 2, 9e-06, None, None),
        (5, 2, 9e-06, None, None),
        (6, 2, 9e-06, None, None),
    ),
    ("ring5", "all_gather", 4, "prune", "parallel"): (
        (3, 2, 9e-06, None, None),
        (4, 2, 9e-06, None, None),
        (5, 2, 9e-06, None, None),
        (6, 2, 9e-06, None, None),
    ),
    ("ring5", "all_reduce", 1, "stats", "serial"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
    ),
    ("ring5", "all_reduce", 1, "prune", "serial"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
    ),
    ("ring5", "all_reduce", 1, "stats", "parallel"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
    ),
    ("ring5", "all_reduce", 1, "prune", "parallel"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
    ),
    ("ring5", "all_reduce", 4, "stats", "serial"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (4, 2, 9e-06, None, "reduce_scatter"),
        (5, 2, 9e-06, None, "reduce_scatter"),
        (6, 2, 9e-06, None, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
        (4, 2, 9e-06, None, "all_gather"),
        (5, 2, 9e-06, None, "all_gather"),
        (6, 2, 9e-06, None, "all_gather"),
    ),
    ("ring5", "all_reduce", 4, "prune", "serial"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (4, 0, None, 0, "reduce_scatter"),
        (5, 0, None, 0, "reduce_scatter"),
        (6, 0, None, 0, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
        (4, 0, None, 0, "all_gather"),
        (5, 0, None, 0, "all_gather"),
        (6, 0, None, 0, "all_gather"),
    ),
    ("ring5", "all_reduce", 4, "stats", "parallel"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (4, 2, 9e-06, None, "reduce_scatter"),
        (5, 2, 9e-06, None, "reduce_scatter"),
        (6, 2, 9e-06, None, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
        (4, 2, 9e-06, None, "all_gather"),
        (5, 2, 9e-06, None, "all_gather"),
        (6, 2, 9e-06, None, "all_gather"),
    ),
    ("ring5", "all_reduce", 4, "prune", "parallel"): (
        (3, 2, 9e-06, None, "reduce_scatter"),
        (4, 2, 9e-06, None, "reduce_scatter"),
        (5, 2, 9e-06, None, "reduce_scatter"),
        (6, 2, 9e-06, None, "reduce_scatter"),
        (3, 2, 9e-06, None, "all_gather"),
        (4, 2, 9e-06, None, "all_gather"),
        (5, 2, 9e-06, None, "all_gather"),
        (6, 2, 9e-06, None, "all_gather"),
    ),
    ("ring5", "all_to_all", 1, "stats", "serial"): (
        (3, 3, 1.35e-05, None, None),
    ),
    ("ring5", "all_to_all", 1, "prune", "serial"): (
        (3, 3, 1.35e-05, None, None),
    ),
    ("ring5", "all_to_all", 1, "stats", "parallel"): (
        (3, 3, 1.35e-05, None, None),
    ),
    ("ring5", "all_to_all", 1, "prune", "parallel"): (
        (3, 3, 1.35e-05, None, None),
    ),
    ("ring5", "all_to_all", 4, "stats", "serial"): (
        (3, 3, 1.35e-05, None, None),
        (4, 3, 1.35e-05, None, None),
        (5, 3, 1.35e-05, None, None),
        (6, 3, 1.35e-05, None, None),
    ),
    ("ring5", "all_to_all", 4, "prune", "serial"): (
        (3, 3, 1.35e-05, None, None),
        (4, 0, None, 0, None),
        (5, 0, None, 0, None),
        (6, 0, None, 0, None),
    ),
    ("ring5", "all_to_all", 4, "stats", "parallel"): (
        (3, 3, 1.35e-05, None, None),
        (4, 3, 1.35e-05, None, None),
        (5, 3, 1.35e-05, None, None),
        (6, 3, 1.35e-05, None, None),
    ),
    ("ring5", "all_to_all", 4, "prune", "parallel"): (
        (3, 3, 1.35e-05, None, None),
        (4, 3, 1.35e-05, None, None),
        (5, 3, 1.35e-05, None, None),
        (6, 3, 1.35e-05, None, None),
    ),
    ("switch2d", "all_gather", 1, "stats", "serial"): (
        (3, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_gather", 1, "prune", "serial"): (
        (3, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_gather", 1, "stats", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_gather", 1, "prune", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_gather", 4, "stats", "serial"): (
        (3, 7, 1.741666666666667e-05, None, None),
        (4, 7, 1.741666666666667e-05, None, None),
        (5, 7, 1.741666666666667e-05, None, None),
        (6, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_gather", 4, "prune", "serial"): (
        (3, 7, 1.741666666666667e-05, None, None),
        (4, 7, 1.741666666666667e-05, None, None),
        (5, 7, 1.741666666666667e-05, None, None),
        (6, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_gather", 4, "stats", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, None),
        (4, 7, 1.741666666666667e-05, None, None),
        (5, 7, 1.741666666666667e-05, None, None),
        (6, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_gather", 4, "prune", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, None),
        (4, 7, 1.741666666666667e-05, None, None),
        (5, 7, 1.741666666666667e-05, None, None),
        (6, 7, 1.741666666666667e-05, None, None),
    ),
    ("switch2d", "all_reduce", 1, "stats", "serial"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_reduce", 1, "prune", "serial"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_reduce", 1, "stats", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_reduce", 1, "prune", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_reduce", 4, "stats", "serial"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (4, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (5, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (6, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
        (4, 7, 1.741666666666667e-05, None, "all_gather"),
        (5, 7, 1.741666666666667e-05, None, "all_gather"),
        (6, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_reduce", 4, "prune", "serial"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (4, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (5, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (6, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
        (4, 7, 1.741666666666667e-05, None, "all_gather"),
        (5, 7, 1.741666666666667e-05, None, "all_gather"),
        (6, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_reduce", 4, "stats", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (4, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (5, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (6, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
        (4, 7, 1.741666666666667e-05, None, "all_gather"),
        (5, 7, 1.741666666666667e-05, None, "all_gather"),
        (6, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_reduce", 4, "prune", "parallel"): (
        (3, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (4, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (5, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (6, 7, 1.741666666666667e-05, None, "reduce_scatter"),
        (3, 7, 1.741666666666667e-05, None, "all_gather"),
        (4, 7, 1.741666666666667e-05, None, "all_gather"),
        (5, 7, 1.741666666666667e-05, None, "all_gather"),
        (6, 7, 1.741666666666667e-05, None, "all_gather"),
    ),
    ("switch2d", "all_to_all", 1, "stats", "serial"): (
        (3, 25, 7.241666666666665e-05, None, None),
    ),
    ("switch2d", "all_to_all", 1, "prune", "serial"): (
        (3, 25, 7.241666666666665e-05, None, None),
    ),
    ("switch2d", "all_to_all", 1, "stats", "parallel"): (
        (3, 25, 7.241666666666665e-05, None, None),
    ),
    ("switch2d", "all_to_all", 1, "prune", "parallel"): (
        (3, 25, 7.241666666666665e-05, None, None),
    ),
    ("switch2d", "all_to_all", 4, "stats", "serial"): (
        (3, 25, 7.241666666666665e-05, None, None),
        (4, 26, 8.249999999999999e-05, None, None),
        (5, 27, 7.699999999999999e-05, None, None),
        (6, 29, 7.333333333333332e-05, None, None),
    ),
    ("switch2d", "all_to_all", 4, "prune", "serial"): (
        (3, 25, 7.241666666666665e-05, None, None),
        (4, 25, None, 25, None),
        (5, 27, 7.699999999999999e-05, None, None),
        (6, 29, 7.333333333333332e-05, None, None),
    ),
    ("switch2d", "all_to_all", 4, "stats", "parallel"): (
        (3, 25, 7.241666666666665e-05, None, None),
        (4, 26, 8.249999999999999e-05, None, None),
        (5, 27, 7.699999999999999e-05, None, None),
        (6, 29, 7.333333333333332e-05, None, None),
    ),
    ("switch2d", "all_to_all", 4, "prune", "parallel"): (
        (3, 25, 7.241666666666665e-05, None, None),
        (4, 26, 8.249999999999999e-05, None, None),
        (5, 27, 7.699999999999999e-05, None, None),
        (6, 29, 7.333333333333332e-05, None, None),
    ),
    ("dgx1h", "all_gather", 1, "stats", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, None),
    ),
    ("dgx1h", "all_gather", 1, "prune", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, None),
    ),
    ("dgx1h", "all_gather", 1, "stats", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, None),
    ),
    ("dgx1h", "all_gather", 1, "prune", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, None),
    ),
    ("dgx1h", "all_gather", 4, "stats", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, None),
        (4, 9, 1.75e-05, None, None),
        (5, 8, 1.4999999999999999e-05, None, None),
        (6, 7, 1.45e-05, None, None),
    ),
    ("dgx1h", "all_gather", 4, "prune", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, None),
        (4, 9, 1.75e-05, None, None),
        (5, 8, 1.4999999999999999e-05, None, None),
        (6, 7, 1.45e-05, None, None),
    ),
    ("dgx1h", "all_gather", 4, "stats", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, None),
        (4, 9, 1.75e-05, None, None),
        (5, 8, 1.4999999999999999e-05, None, None),
        (6, 7, 1.45e-05, None, None),
    ),
    ("dgx1h", "all_gather", 4, "prune", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, None),
        (4, 9, 1.75e-05, None, None),
        (5, 8, 1.4999999999999999e-05, None, None),
        (6, 7, 1.45e-05, None, None),
    ),
    ("dgx1h", "all_reduce", 1, "stats", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
    ),
    ("dgx1h", "all_reduce", 1, "prune", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
    ),
    ("dgx1h", "all_reduce", 1, "stats", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
    ),
    ("dgx1h", "all_reduce", 1, "prune", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
    ),
    ("dgx1h", "all_reduce", 4, "stats", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (4, 9, 1.75e-05, None, "reduce_scatter"),
        (5, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (6, 7, 1.45e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
        (4, 9, 1.75e-05, None, "all_gather"),
        (5, 8, 1.4999999999999999e-05, None, "all_gather"),
        (6, 7, 1.45e-05, None, "all_gather"),
    ),
    ("dgx1h", "all_reduce", 4, "prune", "serial"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (4, 9, 1.75e-05, None, "reduce_scatter"),
        (5, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (6, 7, 1.45e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
        (4, 9, 1.75e-05, None, "all_gather"),
        (5, 8, 1.4999999999999999e-05, None, "all_gather"),
        (6, 7, 1.45e-05, None, "all_gather"),
    ),
    ("dgx1h", "all_reduce", 4, "stats", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (4, 9, 1.75e-05, None, "reduce_scatter"),
        (5, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (6, 7, 1.45e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
        (4, 9, 1.75e-05, None, "all_gather"),
        (5, 8, 1.4999999999999999e-05, None, "all_gather"),
        (6, 7, 1.45e-05, None, "all_gather"),
    ),
    ("dgx1h", "all_reduce", 4, "prune", "parallel"): (
        (3, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (4, 9, 1.75e-05, None, "reduce_scatter"),
        (5, 8, 1.4999999999999999e-05, None, "reduce_scatter"),
        (6, 7, 1.45e-05, None, "reduce_scatter"),
        (3, 8, 1.4999999999999999e-05, None, "all_gather"),
        (4, 9, 1.75e-05, None, "all_gather"),
        (5, 8, 1.4999999999999999e-05, None, "all_gather"),
        (6, 7, 1.45e-05, None, "all_gather"),
    ),
}


@pytest.fixture(scope="module", autouse=True)
def _stop_pools():
    yield
    shutdown_pools()


def _stats_rows(result):
    if result.trial_stats is None:
        return None
    return tuple(
        (
            stats["seed"],
            stats["rounds"],
            stats["collective_time"],
            stats["pruned_at_round"],
            stats.get("phase"),
        )
        for stats in result.trial_stats
    )


@pytest.mark.backend_equivalence
@pytest.mark.native_equivalence
@pytest.mark.parametrize("engine", [FLAT_ENGINE, NATIVE_ENGINE], ids=lambda e: e.name)
@pytest.mark.parametrize("topology_name,pattern_name", CASES)
def test_winner_and_stats_match_golden(engine, topology_name, pattern_name):
    for trials in (1, 4):
        expected_rounds, expected_sha = WINNERS[(topology_name, pattern_name, trials)]
        for execution in EXECUTIONS:
            mode = "serial" if execution == "serial" else "parallel"
            for config_name, overrides in CONFIGS.items():
                case = f"{trials} trials, {execution}, {config_name}"
                topology = TOPOLOGIES[topology_name]()
                config = SynthesisConfig(
                    seed=SEED, trials=trials, execution=execution, trial_workers=2, **overrides
                )
                result = TacosSynthesizer(config, engine=engine).synthesize_with_stats(
                    topology, PATTERNS[pattern_name](topology.num_npus), SIZE
                )
                digest = hashlib.sha256(result.algorithm.table.to_bytes()).hexdigest()
                assert digest == expected_sha, case
                assert (result.rounds, result.trials) == (expected_rounds, trials), case
                expected_stats = TRIAL_STATS.get(
                    (topology_name, pattern_name, trials, config_name, mode)
                )
                assert _stats_rows(result) == expected_stats, case
