"""Engine runtime counters: making degradation and recovery observable.

The parallel engine degrades gracefully by design — a sandbox that
forbids worker pools falls back to in-process serial execution, a hung
run is killed and retried, a poison run is quarantined.  Each of those
events increments one counter of :data:`ENGINE_STATS`, a process-wide
:class:`repro.obs.registry.MetricsRegistry`:

* ``parallel.timeouts`` — task executions killed at the per-run
  wall-clock timeout (one increment per killed slot, including every
  retry that timed out again);
* ``parallel.retries`` — slots re-queued for another attempt after a
  timeout;
* ``parallel.quarantined`` — slots that exhausted ``--max-retries``
  and were recorded with a ``quarantined`` verdict instead of a result;
* ``parallel.fallbacks`` — times the engine abandoned the worker pool
  and completed work serially in-process (pool creation refused, or
  a pool that kept dying).

:func:`repro.faults.campaign.run_campaign` reads the counters around a
campaign and publishes the difference as the report's ``runtime``
section (the ``runtime`` key of ``repro chaos --json`` and the
``engine:`` footer line of the text report).  On a healthy engine
every counter is zero, so the byte-determinism contract is untouched;
when the engine degrades, the bytes *should* differ — that is the
observability.  Counters are only incremented from the supervising
process, never from workers.

:func:`warn_once` is the stderr half: each degradation category warns
exactly once per process, so a 10,000-run campaign with a dead sandbox
prints one line, not ten thousand.
"""

from __future__ import annotations

import sys
from typing import Dict, Set

from repro.obs.registry import MetricsRegistry

#: Counter names, in the order reports print them.
COUNTER_NAMES = (
    "parallel.timeouts",
    "parallel.retries",
    "parallel.quarantined",
    "parallel.fallbacks",
)

#: The process-wide ledger every engine component writes to.
ENGINE_STATS = MetricsRegistry()
for _name in COUNTER_NAMES:
    ENGINE_STATS.counter(_name)


def engine_counters(
    registry: MetricsRegistry = ENGINE_STATS,
) -> Dict[str, int]:
    """The four engine counter values of ``registry``, all names present."""
    return {name: registry.counter(name).value for name in COUNTER_NAMES}


#: Keys that have already warned this process (see :func:`warn_once`).
_WARNED: Set[str] = set()


def warn_once(key: str, message: str) -> None:
    """Print ``message`` to stderr the first time ``key`` is seen.

    Degradation is per-event in the counters but per-category on
    stderr: the human needs to learn *that* the engine degraded, the
    counters say *how often*.
    """
    if key in _WARNED:
        return
    _WARNED.add(key)
    print(f"warning: {message}", file=sys.stderr)


def reset_warnings() -> None:
    """Forget warn-once history (test isolation hook)."""
    _WARNED.clear()
