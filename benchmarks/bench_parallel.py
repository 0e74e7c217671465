"""E17 — Parallel engine: byte-determinism plus a realistic speedup record.

The workload is a real chaos campaign of several hundred runs (three
algorithms, the full ten-shape fault grid, seven seeds) — large enough
that the spawn-per-call engine this bench retired was measurably
*slower* than serial (BENCH_parallel.json recorded speedup 0.538).

Four measurements land in ``BENCH_parallel.json``:

* **jobs-scaling curve** — campaign wall clock at jobs ∈ {1, 2, 4, 8},
  with the headline ``speedup`` = serial / best parallel.  On a
  multi-CPU host this exceeds 1 (the perf guard demands > 1.5 at ≥ 4
  CPUs); on a 1-CPU container it records the engine's overhead bound
  instead — beating serial there is physically impossible.
* **chunk ablation** — the same campaign at jobs=4 with chunk ∈
  {1, 8, auto}, showing what chunked dispatch buys over per-task IPC.
* **engine comparison** — the identical campaign pushed through the
  *legacy* spawn-a-``Pool``-per-call engine (reimplemented here,
  verbatim) vs the persistent pool at jobs=4, timed in
  ``ENGINE_PAIRS`` interleaved pairs that alternate which engine runs
  first.  The headline ``speedup`` is the median of the per-pair
  legacy/pooled ratios: both halves of a pair see the same host load,
  so one noisy moment moves one pair, not the verdict.  This is the
  before/after ratio the perf guard pins, machine-independent in the
  same way BENCH_core's factors are.
* **dispatch microbench** — hundreds of trivial tasks, legacy vs
  persistent+chunked, isolating pure dispatch cost from simulation.

Byte-identity is asserted at every measured job count and chunk size,
and a warm-cache pass must execute zero simulator runs while
reproducing the identical report — the two hard invariants.

``python -m benchmarks.bench_parallel`` rewrites the record (the
committed ``campaign_scale`` section from ``make campaign-scale`` is
preserved); ``benchmarks.perf_guard`` gates on a fresh run.
"""

import json
import multiprocessing
import os
import platform
import statistics
import tempfile
import time

import repro.faults.campaign as campaign_mod
from repro.faults.campaign import run_campaign
from repro.parallel import RunCache, resolve_jobs, shutdown_pool
from repro.parallel.pool import _pool_context, get_pool
from repro.parallel.supervisor import run_supervised

from benchmarks.common import RESULTS_DIR, write_perf_record

#: The realistic workload: 3 algorithms x 10 fault shapes x 7 seeds =
#: 210 runs — the scale at which dispatch cost decided the old engine's
#: fate.  Cache always disabled so every pass really executes.
PARAMS = dict(
    algorithms=("abd", "cas", "casgc"),
    n=5,
    f=1,
    value_bits=6,
    seeds=list(range(7)),
    num_ops=4,
)

#: Job counts of the scaling curve (1 is the serial reference).
JOBS_CURVE = (1, 2, 4, 8)

#: Chunk sizes of the ablation (0 = auto), all at jobs=4.
CHUNK_ABLATION = (1, 8, 0)

#: Task count of the pure-dispatch microbench.
DISPATCH_TASKS = 400

#: Interleaved legacy/pooled pairs of the engine comparison (odd, so
#: the median is one pair's ratio).
ENGINE_PAIRS = 5


# -- the legacy engine, kept verbatim for the before/after ratio -------------


def _legacy_call_indexed(item):
    """Worker-side shim of the retired engine: one task per IPC round."""
    fn, index, payload = item
    return index, fn(payload)


def _legacy_engine(fn, payloads, jobs=None, on_result=None, chunk=None):
    """The retired spawn-a-``Pool``-per-call engine (measurement only).

    Fresh pool per invocation, one full payload pickled per task, no
    chunking — exactly the implementation BENCH_parallel.json's 0.538
    record measured.  ``chunk`` is accepted (and ignored) so this can
    stand in for the new engine at any call site.
    """
    payloads = list(payloads)
    if not payloads:
        return []
    workers = min(resolve_jobs(jobs), len(payloads))
    if workers <= 1:
        results = []
        for index, payload in enumerate(payloads):
            result = fn(payload)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results
    pool = _pool_context().Pool(processes=workers)
    slots = [None] * len(payloads)
    completed = {}
    next_emit = 0
    try:
        tasks = [(fn, index, payload) for index, payload in enumerate(payloads)]
        for index, result in pool.imap_unordered(_legacy_call_indexed, tasks):
            slots[index] = result
            completed[index] = True
            while on_result is not None and next_emit in completed:
                on_result(next_emit, slots[next_emit])
                next_emit += 1
    finally:
        pool.close()
        pool.join()
    return slots


def _dispatch_task(payload: dict) -> int:
    """A near-free task: measures dispatch cost, not compute."""
    return payload["i"]


# -- measurement helpers -----------------------------------------------------


def _timed_campaign(**kwargs):
    start = time.perf_counter()
    report = run_campaign(**kwargs)
    return report, time.perf_counter() - start


def _legacy_run_supervised(
    fn, payloads, jobs=None, chunk=None, on_result=None, on_complete=None,
    **_ignored,
):
    """Legacy engine behind the supervisor's signature (measurement only)."""

    def emit(index, result):
        if on_complete is not None:
            on_complete(index, result)
        if on_result is not None:
            on_result(index, result)

    return _legacy_engine(fn, payloads, jobs=jobs, on_result=emit)


def _timed_legacy_campaign(**kwargs):
    """The same campaign routed through the legacy engine."""
    original = campaign_mod.run_supervised
    campaign_mod.run_supervised = _legacy_run_supervised
    try:
        return _timed_campaign(**kwargs)
    finally:
        campaign_mod.run_supervised = original


def _engine_pairs(text_serial: str):
    """Legacy vs pooled campaign walls at jobs=4, in interleaved pairs.

    Pair ``i`` runs the legacy engine first when ``i`` is even and the
    pooled engine first otherwise, so neither engine systematically
    inherits a warmer or colder host.  Returns the pair rows and
    whether every report matched the serial one byte for byte.
    """
    runners = {"legacy": _timed_legacy_campaign, "pooled": _timed_campaign}
    pairs = []
    identical = True
    for index in range(ENGINE_PAIRS):
        order = ("legacy", "pooled") if index % 2 == 0 else ("pooled", "legacy")
        walls = {}
        for engine in order:
            report, walls[engine] = runners[engine](jobs=4, **PARAMS)
            identical &= report.format() == text_serial
        pairs.append(
            {
                "first": order[0],
                "legacy_wall_seconds": round(walls["legacy"], 4),
                "pooled_wall_seconds": round(walls["pooled"], 4),
                "speedup": round(walls["legacy"] / max(walls["pooled"], 1e-9), 3),
            }
        )
    return pairs, identical


def _dispatch_payloads():
    # Campaign-sized payload dicts, so both engines pay realistic
    # per-task pickling; the pooled engine ships them in chunks.
    context = {f"param_{k}": k * 1.5 for k in range(40)}
    return [dict(context, i=i) for i in range(DISPATCH_TASKS)]


def run_parallel_bench() -> dict:
    """Execute every measurement; return the BENCH_parallel record."""
    serial, serial_wall = _timed_campaign(jobs=1, **PARAMS)
    text_serial = serial.format()
    json_serial = json.dumps(serial.to_json_dict(), sort_keys=True)

    # Warm the persistent pool before timing it, so pool creation (paid
    # once per process, amortized across every later call) is not
    # charged to the first measured campaign, and run one untimed
    # campaign on it so worker warm-up (imports, first-run caches) is
    # not charged to the first points of the jobs-scaling curve.
    get_pool(max(JOBS_CURVE))
    warmup, _ = _timed_campaign(jobs=max(JOBS_CURVE), **PARAMS)

    byte_identical = warmup.format() == text_serial
    jobs_scaling = [
        {"jobs": 1, "wall_seconds": round(serial_wall, 4), "speedup": 1.0}
    ]
    walls = {1: serial_wall}
    for jobs in JOBS_CURVE[1:]:
        report, wall = _timed_campaign(jobs=jobs, **PARAMS)
        byte_identical &= report.format() == text_serial
        byte_identical &= (
            json.dumps(report.to_json_dict(), sort_keys=True) == json_serial
        )
        walls[jobs] = wall
        jobs_scaling.append(
            {
                "jobs": jobs,
                "wall_seconds": round(wall, 4),
                "speedup": round(serial_wall / max(wall, 1e-9), 3),
            }
        )
    best_jobs = min(walls, key=lambda j: walls[j] if j > 1 else float("inf"))
    parallel_wall = walls[best_jobs]

    chunk_ablation = []
    for chunk in CHUNK_ABLATION:
        report, wall = _timed_campaign(jobs=4, chunk=chunk, **PARAMS)
        byte_identical &= report.format() == text_serial
        chunk_ablation.append(
            {
                "chunk": "auto" if chunk == 0 else chunk,
                "jobs": 4,
                "wall_seconds": round(wall, 4),
            }
        )

    engine_pairs, engine_identical = _engine_pairs(text_serial)
    byte_identical &= engine_identical

    # Pure dispatch: the persistent pool is warm, the legacy engine
    # spawns per call — both run the identical trivial task list.
    payloads = _dispatch_payloads()
    expected = list(range(DISPATCH_TASKS))
    start = time.perf_counter()
    legacy_results = _legacy_engine(_dispatch_task, payloads, jobs=4)
    dispatch_legacy = time.perf_counter() - start
    start = time.perf_counter()
    pooled_results = run_supervised(_dispatch_task, payloads, jobs=4)
    dispatch_pooled = time.perf_counter() - start
    byte_identical &= legacy_results == expected and pooled_results == expected

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = RunCache(cache_dir)
        first, _ = _timed_campaign(jobs=1, cache=cache, **PARAMS)
        warm = RunCache(cache_dir)
        warm_report, warm_wall = _timed_campaign(jobs=1, cache=warm, **PARAMS)
        warm_zero_runs = warm.hits == len(first.results) and warm.stores == 0
        byte_identical &= warm_report.format() == text_serial

    record = {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "params": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in PARAMS.items()},
        "runs": len(serial.results),
        "serial_wall_seconds": round(serial_wall, 4),
        "parallel_wall_seconds": round(parallel_wall, 4),
        "speedup": round(serial_wall / max(parallel_wall, 1e-9), 3),
        "jobs_scaling": jobs_scaling,
        "chunk_ablation": chunk_ablation,
        "engine": {
            "jobs": 4,
            "legacy_wall_seconds": statistics.median(
                p["legacy_wall_seconds"] for p in engine_pairs
            ),
            "pooled_wall_seconds": statistics.median(
                p["pooled_wall_seconds"] for p in engine_pairs
            ),
            "speedup": statistics.median(p["speedup"] for p in engine_pairs),
            "pairs": engine_pairs,
        },
        "dispatch": {
            "tasks": DISPATCH_TASKS,
            "legacy_wall_seconds": round(dispatch_legacy, 4),
            "pooled_wall_seconds": round(dispatch_pooled, 4),
            "speedup": round(dispatch_legacy / max(dispatch_pooled, 1e-9), 3),
        },
        "warm_cache_wall_seconds": round(warm_wall, 4),
        "warm_cache_zero_runs": warm_zero_runs,
        "byte_identical": bool(byte_identical),
    }
    return record


def write_parallel_record(record: dict) -> str:
    """Persist the record, preserving a committed campaign_scale section."""
    path = os.path.join(RESULTS_DIR, "BENCH_parallel.json")
    try:
        with open(path) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = {}
    if "campaign_scale" in previous and "campaign_scale" not in record:
        record = dict(record, campaign_scale=previous["campaign_scale"])
    return write_perf_record("parallel", record)


def bench_parallel_campaign(benchmark):
    record = benchmark.pedantic(run_parallel_bench, rounds=1, iterations=1)
    assert record["byte_identical"]  # byte-identical at any jobs and chunk
    assert record["warm_cache_zero_runs"]  # warm cache = zero simulator work
    write_parallel_record(record)


def main() -> int:
    record = run_parallel_bench()
    path = write_parallel_record(record)
    print(json.dumps(record, sort_keys=True, indent=2))
    print(f"\nrecord written to {path}")
    shutdown_pool()
    return 0 if record["byte_identical"] and record["warm_cache_zero_runs"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
