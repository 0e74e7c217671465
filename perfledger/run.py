"""Benchmark entry point: one workload, timed or traced.

Run from the repository root::

    python3 perfledger/run.py --workload chaos --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the separate traced run and reports the per-layer
metrics.  Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result -- machine facts, every sample and,
for a traced run, the spans -- is written under ``.bench_out/``.
METRICS.md maps every metric to its unit, direction and the workloads
it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Environment variables that would silently change what a workload
#: measures (job count, chunking, timeouts, cache keys).  Every
#: workload passes its own values explicitly instead.
PINNED_ENV = ("REPRO_JOBS", "REPRO_CHUNK", "REPRO_TASK_TIMEOUT", "REPRO_CODE_FINGERPRINT")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
SPAN_LAYERS = tuple(name[: -len(".calls")] for name in PER_LAYER if name.endswith(".calls"))


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summary(values: Sequence[float]) -> dict:
    """Median and quartiles of a sample, with the sample itself."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "samples": values}


# -- set-up and machine facts ------------------------------------------------------


def time_setup(workload, jobs: int) -> List[float]:
    """Set-up times of fresh interpreters (import, first build, pool),
    in reference seconds."""
    from speed import REFERENCE_MS, kernel_ms

    times = []
    for _ in range(SETUP_SAMPLES):
        before = kernel_ms()
        done = subprocess.run(
            [sys.executable, "-c", workload.setup_code, str(SRC), str(jobs)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        scale = REFERENCE_MS / ((before + kernel_ms()) / 2.0)
        times.append(float(done.stdout.split()[-1]) * scale)
    return times


def machine_facts(jobs: int) -> dict:
    sha = "unavailable"
    try:
        # The ceiling keeps git from finding a repository above a
        # checkout that is not one itself.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=str(ROOT), env=env, timeout=10,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    from repro.parallel.fingerprint import code_fingerprint

    return {
        "nproc": jobs,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "code_fingerprint": code_fingerprint(),
    }


# -- the timed run ---------------------------------------------------------------


def timed_run(workload, seconds: float, jobs: int) -> dict:
    """Closed-loop passes until ``seconds`` elapse; tracing off."""
    setup_times = time_setup(workload, jobs)
    workload.prepare()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(len(passes)))
    gaps = [g for p in passes for g in p.gaps_ms]
    samples = {
        "setup_s": summary(setup_times),
        "runs_per_s": summary([p.runs / p.seconds for p in passes]),
        "run_ms": summary(gaps),
        "replay_runs_per_s": summary([p.replay_runs / p.replay_seconds for p in passes]),
        "proof_s": summary([p.seconds for p in passes]),
        "wall_pass_s": summary([p.wall_seconds for p in passes]),
        "speed_factor": summary(workload.clock.factors),
    }
    metrics = {
        "setup_s": samples["setup_s"]["median"],
        "runs_per_s": samples["runs_per_s"]["median"],
        "run_ms_p50": percentile(gaps, 50),
        "run_ms_p99": percentile(gaps, 99),
        "replay_runs_per_s": samples["replay_runs_per_s"]["median"],
        "proof_s": samples["proof_s"]["median"],
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    return {"passes": passes, "metrics": metrics, "samples": samples, "checks": []}


# -- the traced run --------------------------------------------------------------


def layer_metrics(tracer, units: int, workload, results) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, per traced unit."""
    m: Dict[str, float] = {}
    for name in SPAN_LAYERS:
        m[f"{name}.calls"] = tracer.calls(name) / units
        m[f"{name}.self_s"] = tracer.self_s(name) / units
    for name in ("faults.driver", "verification.explore", "campaign.report", "parallel.supervise"):
        m[f"{name}.self_s"] = tracer.self_s(name) / units
    m["sim.messages"] = tracer.counts["sim.messages"] / units
    steps = tracer.calls("sim.step")
    m["faults.allows_per_step"] = tracer.calls("faults.allows") / steps if steps else 0.0
    # Parent time inside run_supervised blocked on workers (outside its
    # callbacks, its in-process runs and its own bookkeeping).
    m["parallel.wait_s"] = tracer.total_s("parallel.wait") / units
    gets = tracer.calls("parallel.cache.get")
    m["parallel.cache.hit_ratio"] = tracer.counts["parallel.cache.hits"] / gets if gets else 0.0
    m["parallel.cache.bytes"] = getattr(workload, "cache_bytes", 0)
    m["parallel.journal.bytes"] = getattr(workload, "journal_bytes", 0)
    runtime = getattr(workload, "runtime", {})
    for key in ("retries", "timeouts", "fallbacks", "quarantined"):
        m[f"parallel.{key}"] = runtime.get(f"parallel.{key}", 0)

    runs = sum(r.work_runs for r in results)
    work_steps = sum(r.work_steps for r in results)
    proof = workload.name == "proof"
    states = work_steps if proof else 0
    m["verification.states"] = states / units
    m["verification.executions"] = (runs if proof else 0) / units
    m["verification.forks_per_state"] = tracer.calls("sim.fork") / states if states else 0.0
    m["work.runs"] = runs / units
    m["work.steps"] = work_steps / units
    m["work.steps_per_run"] = work_steps / runs if runs else 0.0
    return m


def cross_checks(tracer, workload, results) -> List[Tuple[str, bool]]:
    """Traced counts against counts the program reports on its own."""
    checks = []
    if workload.name == "chaos":
        steps = sum(r.work_steps for r in results)
        traced = tracer.counts["sim.step.delivered"] + tracer.counts["sim.actions"]
        checks.append((
            f"summed ChaosRunResult.steps {steps} == delivering sim.step calls "
            f"+ invoke/crash/recover actions {traced}",
            steps == traced,
        ))
        runs = sum(r.work_runs for r in results)
        for name in ("faults.driver", "registers.build", "consistency.check"):
            checks.append((
                f"{name} traced once per run: {tracer.calls(name)} for {runs} runs",
                tracer.calls(name) == runs,
            ))
    if workload.name == "proof":
        states = sum(r.work_steps for r in results)
        seen = len(tracer.states)
        checks.append((
            f"ExplorationResult.states_visited {states} == {seen} distinct "
            "explorer states seen through the traced digest",
            states == seen,
        ))
    return checks


def traced_run(workload, seconds: float) -> dict:
    """Interleaved untraced and traced units until ``seconds`` elapse."""
    from tracer import Tracer, install

    # Traced figures need no speed scaling; this keeps the calibration
    # kernel out of the spans.
    workload.clock.interval = float("inf")
    workload.prepare()
    tracer = Tracer()
    untraced_s: List[float] = []
    traced_s: List[float] = []
    results = []
    checks: List[Tuple[str, bool]] = []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results.append(workload.trace_unit())
        untraced_s.append(time.perf_counter() - t0)
        tracer.states.clear()  # the explorer's states, one traced unit at a time
        patches = install(tracer)
        try:
            t0 = time.perf_counter()
            traced = workload.trace_unit()
            traced_s.append(time.perf_counter() - t0)
        finally:
            patches.restore()
        results.append(traced)
        if workload.name == "proof":
            checks.extend(cross_checks(tracer, workload, [traced]))
    traced_results = results[1::2]
    units = len(traced_results)
    if workload.name != "proof":
        checks.extend(cross_checks(tracer, workload, traced_results))
    metrics = layer_metrics(tracer, units, workload, traced_results)
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0

    extra = {"missing_targets": patches.missing}
    if workload.name == "chaos":
        grid_tracer = Tracer(keep=0)
        patches = install(grid_tracer)
        try:
            grid = workload.roadmap_grid()
        finally:
            patches.restore()
        results.append(grid)
        checks.extend(cross_checks(grid_tracer, workload, [grid]))
        calls = grid_tracer.calls("sim.step")
        extra["roadmap_grid"] = {
            "runs": grid.work_runs,
            "allows_calls": grid_tracer.calls("faults.allows"),
            "step_calls": calls,
            "allows_per_step": grid_tracer.calls("faults.allows") / calls if calls else 0.0,
            "reference": "363977 / 26553 = 13.708 (ROADMAP.md, 210-run grid)",
        }
    return {
        "passes": results, "metrics": metrics, "checks": checks, "tracer": tracer,
        "units": units, "untraced_s": summary(untraced_s),
        "traced_s": summary(traced_s), "extra": extra,
    }


# -- main ------------------------------------------------------------------------


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv or None)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, nproc

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    jobs = nproc()
    workload = WORKLOADS[args.workload](args.seed, str(scratch))
    try:
        if args.trace:
            run = traced_run(workload, args.seconds)
        else:
            run = timed_run(workload, args.seconds, jobs)
    finally:
        workload.close()

    passes, checks = run["passes"], run["checks"]
    problems = [p for r in passes for p in r.problems]
    problems += [f"cross-check: {desc}" for desc, ok in checks if not ok]
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + sum(1 for _, ok in checks if not ok)
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": run["metrics"][name], "unit": table[name][0]} for name in table}
    facts = machine_facts(jobs)
    first = passes[0]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {facts['nproc']}  python {facts['python']}  git {facts['git_sha'][:12]}")
    print(f"output digest {first.digest}  work.runs {first.work_runs}  "
          f"work.steps {first.work_steps}  (first pass; {len(passes)} passes)")
    if args.trace:
        print(f"traced units {run['units']}  tracing overhead {run['metrics']['trace.overhead']:.1%} "
              f"(median unit {run['untraced_s']['median']:.3f} s untraced, "
              f"{run['traced_s']['median']:.3f} s traced)")
        for name in PER_LAYER:
            print(f"  {name:34s} {run['metrics'][name]:.6g} {PER_LAYER[name][0]}")
        for desc, ok in checks:
            print(f"check {'ok' if ok else 'FAILED'}: {desc}")
        if "roadmap_grid" in run["extra"]:
            print(f"roadmap grid: {json.dumps(run['extra']['roadmap_grid'])}")
        if run["extra"]["missing_targets"]:
            print(f"not traced (absent from the code): {', '.join(run['extra']['missing_targets'])}")
    else:
        samples = run["samples"]
        for name in END_TO_END:
            sample = samples.get("run_ms" if name.startswith("run_ms") else name)
            spread = (f"  (n={sample['n']} median {sample['median']:.6g} "
                      f"q1 {sample['q1']:.6g} q3 {sample['q3']:.6g})") if sample else ""
            print(f"  {name:18s} {run['metrics'][name]:.6g} {END_TO_END[name][0]}{spread}")
    print(f"error_rate {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"FAILED: {problem}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "metrics": metrics,
        "error_rate": failed / attempted, "attempted": attempted, "failed": failed,
        "problems": problems, "checks": checks,
        "digests": sorted({p.digest for p in passes}),
        "work": {"runs": first.work_runs, "steps": first.work_steps},
    }
    if args.trace:
        record.update(units=run["units"], untraced_s=run["untraced_s"],
                      traced_s=run["traced_s"], extra=run["extra"])
        run["tracer"].dump(str(OUT / f"spans-{tag}.json"), {"workload": args.workload})
    else:
        record["samples"] = run["samples"]
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
