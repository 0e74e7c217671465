"""Merged-registry equivalence for multi-run telemetry.

``repro metrics --runs K --jobs J`` merges per-worker registry
snapshots in seed order; these tests pin the two properties that make
the merged report trustworthy: merge arithmetic (counters add,
histogram observations concatenate) and fold determinism (the merged
snapshot is identical at any job count).
"""

import pytest

from repro.cli import _metrics_task
from repro.obs.runner import merge_registries
from repro.parallel import run_supervised


def _payload(seed):
    return {
        "algorithm": "cas",
        "n": 5,
        "f": 1,
        "value_bits": 6,
        "writers": 2,
        "readers": 2,
        "ops": 4,
        "read_fraction": 0.5,
        "seed": seed,
    }


@pytest.fixture(scope="module")
def per_run():
    return [_metrics_task(_payload(seed)) for seed in (0, 1, 2)]


class TestMergeArithmetic:
    def test_counters_add(self, per_run):
        merged = merge_registries(r["registry"] for r in per_run)
        snapshots = [r["registry"].snapshot() for r in per_run]
        merged_counters = merged.snapshot()["counters"]
        for name in merged_counters:
            assert merged_counters[name] == sum(
                s["counters"].get(name, 0) for s in snapshots
            ), name
        assert merged_counters["sim.messages_sent"] > 0

    def test_histogram_counts_add(self, per_run):
        merged = merge_registries(r["registry"] for r in per_run)
        snapshots = [r["registry"].snapshot() for r in per_run]
        for name, h in merged.snapshot()["histograms"].items():
            assert h["count"] == sum(
                s["histograms"].get(name, {}).get("count", 0) for s in snapshots
            ), name


class TestFoldDeterminism:
    def test_parallel_fold_matches_serial(self):
        payloads = [_payload(seed) for seed in range(4)]
        serial = run_supervised(_metrics_task, payloads, jobs=1)
        parallel = run_supervised(_metrics_task, payloads, jobs=2)

        assert [r["seed"] for r in parallel] == [r["seed"] for r in serial]
        assert [r["steps"] for r in parallel] == [r["steps"] for r in serial]

        merged_serial = merge_registries(r["registry"] for r in serial)
        merged_parallel = merge_registries(r["registry"] for r in parallel)
        assert merged_parallel.snapshot() == merged_serial.snapshot()
