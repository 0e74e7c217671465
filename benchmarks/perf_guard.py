"""Perf-regression guard over the core hot paths and the parallel engine.

**Core gate.**  Reruns :func:`benchmarks.bench_core.run_core_bench`
and compares its *speedup factors* against the committed baseline
record (``benchmarks/results/BENCH_core.json``); the checker factor is
the median of interleaved monolithic/decomposed pairs.  Speedups are
before/after ratios measured on the same machine in the same process,
so they are robust to host speed differences where absolute throughput
numbers are not — and they collapse immediately if a hot-path
optimisation is broken (e.g. a fork falling back to ``copy.deepcopy``).
A fresh factor more than ``THRESHOLD`` (30%) below its baseline is a
regression: ``main`` exits non-zero and the tier-2 test
(``tests/perf/test_core_regression.py``) fails.  Refresh the baseline
with ``make bench-core`` after an intentional performance change.

The core gate additionally budgets the *tracing-disabled* overhead on
the fork and exploration micro-benchmarks at <3%
(``TRACING_THRESHOLD``): the falsy ``NO_OP`` hook guards must keep an
uninstrumented run essentially free, baseline or not — this check is
an absolute in-process ratio, so it needs no committed reference.

**Parallel gate.**  Reruns the realistic campaign workload of
:func:`benchmarks.bench_parallel.run_parallel_bench` and enforces,
with no committed baseline needed (every factor is an in-process
before/after or serial/parallel ratio):

* byte-identity at every measured job count and chunk size, and zero
  simulator runs on a warm cache — the two hard invariants;
* dispatch speedup (persistent+chunked vs the retired spawn-per-call
  engine, trivial tasks) above ``DISPATCH_FLOOR``;
* engine speedup (same realistic campaign, both engines, jobs=4) above
  ``ENGINE_FLOOR``, decided on the median of the per-pair ratios of
  interleaved legacy/pooled pairs (alternating which runs first);
* serial-vs-parallel speedup tiered by the host's CPU count:
  > 1.5 with ≥ 4 CPUs, > 1.0 with ≥ 2, and — on a single-CPU host,
  where beating serial is physically impossible — an overhead bound
  of ``SINGLE_CPU_FLOOR`` (the retired engine scored 0.538 there).

On any parallel failure the guard prints the full jobs-scaling table,
every engine pair and the machine facts (CPU count, Python version),
so a regression is diagnosable from CI logs alone.  The tier-2 test
(``tests/perf/test_parallel_regression.py``) runs the same gate.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

from benchmarks.common import RESULTS_DIR

#: Maximum tolerated relative drop of a speedup factor vs the baseline.
THRESHOLD = 0.30

#: Record sections whose ``speedup`` entry is guarded.
GUARDED_SECTIONS = ("fork", "enabled_channels", "exploration", "checker")

#: Maximum tolerated tracing-disabled overhead (absolute ratio).
TRACING_THRESHOLD = 0.03

#: ``tracing``-section entries held to TRACING_THRESHOLD.
TRACING_OVERHEADS = ("fork_disabled_overhead", "explore_disabled_overhead")

BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_core.json")

#: Parallel gate: minimum dispatch speedup of the persistent+chunked
#: engine over the retired spawn-per-call engine on trivial tasks
#: (measured ~8x on a 1-CPU container; 1.5 is collapse detection).
DISPATCH_FLOOR = 1.5

#: Parallel gate: minimum speedup of the realistic campaign through
#: the new engine vs the legacy engine at the same job count.
ENGINE_FLOOR = 1.0

#: Parallel gate: serial-vs-parallel floors by CPU count.  With one
#: CPU, parallel cannot beat serial; the floor is an overhead bound
#: (the retired engine scored 0.538 — 86% overhead — on that host).
MULTI_CPU_FLOOR = 1.0
QUAD_CPU_FLOOR = 1.5
SINGLE_CPU_FLOOR = 0.75


def load_baseline(path: str = BASELINE_PATH) -> Dict[str, dict]:
    """The committed BENCH_core.json record."""
    with open(path) as fh:
        return json.load(fh)


def compare_records(
    baseline: Dict[str, dict],
    fresh: Dict[str, dict],
    threshold: float = THRESHOLD,
) -> List[str]:
    """Regression messages (empty when every guarded factor holds up)."""
    failures = []
    for section in GUARDED_SECTIONS:
        base = baseline[section]["speedup"]
        now = fresh[section]["speedup"]
        if now < base * (1.0 - threshold):
            pairs = fresh[section].get("pair_speedups")
            failures.append(
                f"{section}: speedup {now}x fell more than "
                f"{threshold:.0%} below baseline {base}x"
                + (f" (median of pairs {pairs})" if pairs else "")
            )
    failures.extend(tracing_failures(fresh))
    return failures


def tracing_failures(
    fresh: Dict[str, dict], threshold: float = TRACING_THRESHOLD
) -> List[str]:
    """Budget violations of the tracing-off overhead (empty when held)."""
    section = fresh.get("tracing", {})
    failures = []
    for key in TRACING_OVERHEADS:
        value = section.get(key)
        if value is None:
            failures.append(f"tracing: {key} missing from the fresh record")
        elif value > threshold:
            failures.append(
                f"tracing: {key} {value:.1%} exceeds the "
                f"{threshold:.0%} tracing-off budget"
            )
    return failures


def jobs_scaling_table(record: Dict[str, dict]) -> str:
    """The jobs-scaling curve as an aligned table (printed on failure)."""
    lines = [
        f"jobs-scaling on {record.get('cpus', '?')} CPU(s), "
        f"Python {record.get('python', '?')}, "
        f"{record.get('runs', '?')} runs "
        f"(serial {record.get('serial_wall_seconds', '?')}s):",
        "  jobs  wall(s)   speedup",
    ]
    for row in record.get("jobs_scaling", []):
        lines.append(
            f"  {row['jobs']:>4}  {row['wall_seconds']:<8}  {row['speedup']}"
        )
    for row in record.get("chunk_ablation", []):
        lines.append(
            f"  chunk={row['chunk']} (jobs={row['jobs']}): "
            f"{row['wall_seconds']}s"
        )
    engine = record.get("engine", {})
    dispatch = record.get("dispatch", {})
    if engine:
        lines.append(
            f"  engine (legacy vs pooled, jobs={engine.get('jobs')}): "
            f"{engine.get('legacy_wall_seconds')}s -> "
            f"{engine.get('pooled_wall_seconds')}s "
            f"({engine.get('speedup')}x, median of "
            f"{len(engine.get('pairs', []))} pairs)"
        )
        for index, pair in enumerate(engine.get("pairs", [])):
            lines.append(
                f"    pair {index} ({pair['first']} first): "
                f"{pair['legacy_wall_seconds']}s -> "
                f"{pair['pooled_wall_seconds']}s ({pair['speedup']}x)"
            )
    if dispatch:
        lines.append(
            f"  dispatch ({dispatch.get('tasks')} trivial tasks): "
            f"{dispatch.get('legacy_wall_seconds')}s -> "
            f"{dispatch.get('pooled_wall_seconds')}s "
            f"({dispatch.get('speedup')}x)"
        )
    return "\n".join(lines)


def parallel_failures(record: Dict[str, dict]) -> List[str]:
    """Parallel-gate violations (empty when the engine holds up)."""
    failures = []
    if not record.get("byte_identical"):
        failures.append(
            "parallel: output is not byte-identical across job counts/chunks"
        )
    if not record.get("warm_cache_zero_runs"):
        failures.append(
            "parallel: warm cache executed simulator runs (must be zero)"
        )
    dispatch = record.get("dispatch", {}).get("speedup", 0.0)
    if dispatch < DISPATCH_FLOOR:
        failures.append(
            f"parallel: dispatch speedup {dispatch}x below the "
            f"{DISPATCH_FLOOR}x floor (persistent pool + chunking broken?)"
        )
    engine = record.get("engine", {}).get("speedup", 0.0)
    if engine <= ENGINE_FLOOR:
        pairs = ", ".join(
            str(p["speedup"]) for p in record.get("engine", {}).get("pairs", [])
        )
        failures.append(
            f"parallel: engine speedup {engine}x (median of pairs [{pairs}], "
            f"{record.get('cpus', '?')} CPU(s), Python "
            f"{record.get('python', '?')}) not above {ENGINE_FLOOR}x — "
            "the persistent pool no longer beats the spawn-per-call engine"
        )
    cpus = record.get("cpus", 1)
    speedup = record.get("speedup", 0.0)
    if cpus >= 4 and speedup <= QUAD_CPU_FLOOR:
        failures.append(
            f"parallel: speedup {speedup}x not above {QUAD_CPU_FLOOR}x "
            f"with {cpus} CPUs"
        )
    elif cpus >= 2 and speedup <= MULTI_CPU_FLOOR:
        failures.append(
            f"parallel: speedup {speedup}x not above {MULTI_CPU_FLOOR}x "
            f"with {cpus} CPUs"
        )
    elif cpus < 2 and speedup < SINGLE_CPU_FLOOR:
        failures.append(
            f"parallel: speedup {speedup}x below the {SINGLE_CPU_FLOOR}x "
            "single-CPU overhead bound"
        )
    return failures


def resilience_failures(record: Dict[str, dict]) -> List[str]:
    """Resume-gate violations (empty when checkpoint/resume holds)."""
    failures = []
    if record.get("error"):
        failures.append(f"resilience: {record['error']}")
    if not record.get("byte_identical"):
        failures.append(
            "resilience: resumed campaign report is not byte-identical "
            "to the uninterrupted reference"
        )
    if record.get("killed_midway") and not record.get("loaded"):
        failures.append(
            "resilience: the resumed campaign loaded zero journal entries "
            "after a mid-flight kill"
        )
    return failures


def run_resilience_guard(verbose: bool = True) -> List[str]:
    """Run the resume smoke and gate it; returns failure messages."""
    from benchmarks.resume_smoke import run_resume_smoke

    record = run_resume_smoke(verbose=verbose)
    if verbose:
        print(
            f"  resilience: {record['loaded']}/{record['total_runs']} runs "
            f"resumed from the journal, report "
            f"{'byte-identical' if record['byte_identical'] else 'DIVERGED'}"
        )
    failures = resilience_failures(record)
    if failures:
        # The engine counters say *how* the resumed campaign degraded
        # (timeouts/retries/quarantines/serial fallbacks) — print them
        # so the failure is diagnosable from CI logs alone.
        print(
            f"resilience record: loaded={record.get('loaded')} "
            f"of {record.get('total_runs')} "
            f"(attempts={record.get('attempts')}, "
            f"resume_exit={record.get('resume_exit')}); "
            f"engine counters: {record.get('runtime')}",
            file=sys.stderr,
        )
    return failures


def run_parallel_guard(verbose: bool = True) -> List[str]:
    """Run the parallel bench and gate it; returns failure messages."""
    from benchmarks.bench_parallel import run_parallel_bench

    record = run_parallel_bench()
    if verbose:
        print(
            f"  parallel: speedup {record['speedup']}x on "
            f"{record['cpus']} CPU(s), engine "
            f"{record['engine']['speedup']}x, dispatch "
            f"{record['dispatch']['speedup']}x"
        )
    failures = parallel_failures(record)
    if failures:
        print(jobs_scaling_table(record), file=sys.stderr)
    return failures


def main() -> int:
    from benchmarks.bench_core import run_core_bench

    baseline = load_baseline()
    fresh = run_core_bench()
    for section in GUARDED_SECTIONS:
        print(
            f"  {section}: baseline {baseline[section]['speedup']}x, "
            f"fresh {fresh[section]['speedup']}x"
        )
    for key in TRACING_OVERHEADS:
        print(f"  tracing: {key} {fresh['tracing'][key]:.2%}")
    failures = compare_records(baseline, fresh)
    failures.extend(run_parallel_guard())
    failures.extend(run_resilience_guard())
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    print(
        "perf guard: core speedups, the tracing-off budget, the "
        "parallel-engine gates, and the resume-resilience gate all hold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
