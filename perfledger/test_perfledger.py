"""Self-tests of the benchmark: ``python3 -m pytest perfledger -q``.

They check the metric names against BENCHMARK.json, the self-time
arithmetic on a synthetic span tree, that tracing leaves no wrapper
behind, a smoke size of every workload, and the command's output
contract (including its refusal to run without the sources).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

from metrics import END_TO_END, NAME_RE, PER_LAYER, UNIT_RE  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import (  # noqa: E402
    ChaosPoolWorkload,
    ChaosWorkload,
    ProofWorkload,
    WORKLOADS,
)


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    for name, (unit, better, *_rest) in {**END_TO_END, **PER_LAYER}.items():
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), (name, unit)
        assert better in ("lower", "higher"), name
    for name in WORKLOADS:
        assert NAME_RE.match(name), name


def test_benchmark_json_matches_the_metric_table():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.enter("root", new_group=True)  # 0 .. 10
    a = tracer.enter("a")  # 1 .. 4
    tracer.leave(a)
    b = tracer.enter("b")  # 5 .. 9
    c = tracer.enter("c")  # 6 .. 7
    tracer.leave(c)
    tracer.leave(b)
    tracer.leave(root)
    assert tracer.self_s("root") == 10.0 - 3.0 - 4.0
    assert tracer.self_s("a") == 3.0
    assert tracer.self_s("b") == 4.0 - 1.0
    assert tracer.self_s("c") == 1.0
    assert tracer.total_s("root") == 10.0
    # Records carry name, start, end, parent index and the shared group.
    assert tracer.spans == [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 5.0, 9.0, 0, 1],
        ["c", 6.0, 7.0, 2, 1],
    ]


def test_kept_spans_are_capped_but_aggregates_are_not():
    tracer = Tracer(keep=2)
    for _ in range(5):
        tracer.leave(tracer.enter("x"))
    assert tracer.calls("x") == 5
    assert len(tracer.spans) == 2 and tracer.dropped == 3


def test_install_wraps_by_name_imports_and_restore_undoes_everything():
    import repro.consistency.atomicity as atomicity
    import repro.faults.campaign as campaign
    import repro.sim.network as network

    before = (atomicity.check_atomicity, campaign.check_atomicity, network.World.step)
    patches = install(Tracer())
    # The name campaign.py imported is wrapped too, not just the original.
    assert campaign.check_atomicity is not before[1]
    assert campaign.check_atomicity.__wrapped__ is before[1]
    assert network.World.__dict__["step"] is not before[2]
    patches.restore()
    assert (atomicity.check_atomicity, campaign.check_atomicity, network.World.step) == before


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def test_chaos_smoke(scratch):
    workload = ChaosWorkload(seed=3, scratch=scratch)
    workload.prepare()
    result = workload.run_campaign_pass([3], num_ops=2)
    assert result.failed == 0, result.problems
    assert result.runs == 30 and len(result.gaps_ms) == 30
    again = workload.run_campaign_pass([3], num_ops=2)
    assert (again.digest, again.work_steps) == (result.digest, result.work_steps)


def test_proof_smoke(scratch):
    workload = ProofWorkload(seed=3, scratch=scratch)
    workload.prepare()
    result = workload.run_pass(0)
    assert result.failed == 0, result.problems
    assert result.work_runs == 672 + 1200
    assert result.replay_runs == result.work_runs


def test_chaos_pool_smoke(scratch):
    workload = ChaosPoolWorkload(seed=3, scratch=scratch)
    workload.seeds_per_pass = workload.seed_lists = 1
    try:
        workload.prepare()
        result = workload.run_pass(0)
    finally:
        workload.close()
    assert result.failed == 0, result.problems
    assert result.runs == result.replay_runs == 30
    assert workload.cache_bytes > 0 and workload.journal_bytes > 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfledger/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_contract_last():
    done = _run(ROOT, "--workload", "chaos", "--seed", "2", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)


def test_command_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfledger", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "chaos", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
