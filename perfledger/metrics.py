"""Every metric the benchmark reports: unit, direction and prediction.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names in BENCHMARK.json (the self-tests compare the two).  Each layer
metric names the end-to-end metric and workload it should move and the
workloads where it should stay flat; METRICS.md renders the same map.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "runs_per_s": ("runs/s", "higher", 0.2),
    "run_ms_p50": ("ms", "lower", 0.15),
    "run_ms_p99": ("ms", "lower", 0.25),
    "replay_runs_per_s": ("runs/s", "higher", 0.25),
    "proof_s": ("s", "lower", 0.2),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

_CALLS_SELF = {
    # layer span: (moves, stays flat on)
    "sim.step": ("runs_per_s, run_ms_p50 on chaos", "proof"),
    "sim.enabled": ("runs_per_s, run_ms_p50 on chaos", "proof"),
    "sim.select": ("runs_per_s, run_ms_p50 on chaos", "proof"),
    "sim.deliver": ("runs_per_s on chaos; proof_s on proof", "chaos-pool parent"),
    "sim.fork": ("proof_s on proof", "chaos"),
    "sim.digest": ("proof_s on proof", "chaos"),
    "faults.allows": ("runs_per_s, run_ms_p99 on chaos", "proof"),
    "faults.fate": ("runs_per_s, run_ms_p99 on chaos", "proof"),
    "faults.watchdog": ("runs_per_s, run_ms_p99 on chaos", "proof"),
    "registers.handler": ("runs_per_s on chaos; proof_s on proof", "chaos-pool parent"),
    "registers.build": ("runs_per_s on chaos-pool; setup_s", "proof"),
    "coding.encode": ("runs_per_s on chaos (CAS/CASGC); proof_s on proof (coded-swmr)", "chaos-pool parent"),
    "coding.decode": ("runs_per_s on chaos (CAS/CASGC); proof_s on proof (coded-swmr)", "chaos-pool parent"),
    "consistency.check": ("proof_s on proof; run_ms_p99 on chaos", "chaos-pool parent"),
    "lowerbound.construct": ("proof_s on proof", "chaos, chaos-pool"),
    "lowerbound.critical": ("proof_s on proof", "chaos, chaos-pool"),
    "lowerbound.probe": ("proof_s on proof", "chaos, chaos-pool"),
    "campaign.encode": ("runs_per_s on chaos-pool (worker side: see chaos)", "proof"),
    "campaign.decode": ("runs_per_s, replay_runs_per_s on chaos-pool", "proof"),
    "campaign.key": ("runs_per_s, replay_runs_per_s on chaos-pool", "proof"),
    "parallel.codec": ("runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.cache.get": ("replay_runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.cache.put": ("runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.journal.record": ("runs_per_s on chaos-pool", "chaos, proof"),
}

#: name -> (unit, better, moves, stays flat on)
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {}
for _layer, (_moves, _flat) in _CALLS_SELF.items():
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower", _moves, _flat)
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower", _moves, _flat)
PER_LAYER.update({
    "sim.messages": ("count", "lower", "runs_per_s on chaos; proof_s on proof", "chaos-pool parent"),
    "faults.allows_per_step": ("calls/step", "lower", "runs_per_s on chaos", "proof"),
    "faults.driver.self_s": ("s", "lower", "runs_per_s, run_ms_p99 on chaos", "proof"),
    "verification.states": ("count", "lower", "proof_s on proof", "chaos, chaos-pool"),
    "verification.executions": ("count", "lower", "proof_s on proof", "chaos, chaos-pool"),
    "verification.forks_per_state": ("forks/state", "lower", "proof_s on proof", "chaos, chaos-pool"),
    "verification.explore.self_s": ("s", "lower", "proof_s on proof", "chaos, chaos-pool"),
    "campaign.report.self_s": ("s", "lower", "runs_per_s, replay_runs_per_s on chaos-pool", "proof"),
    "parallel.supervise.self_s": ("s", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.wait_s": ("s", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.cache.hit_ratio": ("ratio", "higher", "replay_runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.cache.bytes": ("bytes", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.journal.bytes": ("bytes", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.retries": ("count", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.timeouts": ("count", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.fallbacks": ("count", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "parallel.quarantined": ("count", "lower", "runs_per_s on chaos-pool", "chaos, proof"),
    "work.runs": ("runs", "higher", "nothing: fixed work per traced unit", "every workload"),
    "work.steps": ("steps", "lower", "every time metric: more work", "every workload"),
    "work.steps_per_run": ("steps/run", "lower", "every time metric: more work", "every workload"),
    "trace.overhead": ("ratio", "lower", "nothing: traced / untraced time - 1", "every workload"),
})
