"""The dispatch engine: supervised, task-ordered fan-out over the pool.

:func:`run_supervised` is the one way this repository fans independent
runs out — campaigns, sweeps, the empirical Figure 1, shrinker rounds,
metrics batches and trace captures all call it.  Its contract is
*byte-determinism*: for any task list, the result list (and every
``on_result`` callback) is identical whether the tasks ran serially,
on 2 workers or on 16, at any chunk size — worker completion order
never leaks into output order.  That holds because

* tasks are dispatched in chunks with their index attached,
* results are slotted back by that index, and
* ``on_result`` fires only for the contiguous completed prefix, i.e.
  in task order.

Chunks ship as ``(fn, [(index, payload), ...])``; pickle's memo shares
sub-objects common to a chunk's payloads.  Task functions must be
module-level (picklable by reference) and payloads picklable plain
data.  With one worker and no timeout everything runs in-process: no
pool, no fork, no pickling.

On top of the contract the engine survives misbehaving work:

* **Per-run wall-clock timeouts.**  Each dispatch chunk carries a
  deadline of ``task_timeout`` seconds per task (plus a fixed grace).
  A chunk past its deadline means a hung worker: the pool is torn
  down (killing the stragglers), the chunk's unfinished slots are
  charged one failure each, and the pool is rebuilt.
* **Dead-worker recovery.**  A worker killed mid-task (SIGKILL, the
  OOM killer, ``os._exit``) never reports back, and
  ``multiprocessing.Pool`` silently replaces it.  The engine records
  the worker pid set whenever it builds or rebuilds the pool and
  treats a changed set as a broken pool: the pool is rebuilt and the
  lost slots re-queued uncharged.  The check runs on every completion
  and at least once a second, so a dead worker is noticed with
  timeouts disabled too.
* **Bounded retry with deterministic backoff.**  A timed-out slot is
  re-queued as a *singleton* chunk (so a poison run can no longer take
  innocent neighbours down with it) after ``backoff_base * 2**(k-1)``
  seconds for its ``k``-th failure.  Retry counts affect wall clock
  only — a retried task re-executes the same pure function on the same
  payload, so result bytes are unchanged by construction.
* **Poison-run quarantine.**  A slot that has timed out ``max_retries``
  times stops being retried: the ``quarantine`` factory supplies its
  result value (the campaign records a ``quarantined`` verdict) and
  the batch *continues* — one infinite loop no longer wedges a
  10,000-run campaign.
* **Cancellation.**  ``on_result`` may return a truthy value to stop
  the batch (the campaign's ``--fail-fast``): dispatch stops and the
  pool is terminated, cancelling in-flight work.

Completion is reported twice, deliberately: ``on_complete(index,
result)`` fires the moment a slot fills, in *completion* order — the
campaign journal's hook, so a crash loses at most the in-flight chunks
— while ``on_result`` keeps the strict task-order contract progress
output and fail-fast depend on.

If a pool cannot be created (or keeps dying beyond
``_POOL_REBUILD_LIMIT``), the remaining slots run serially in-process
— counted in ``parallel.fallbacks`` and warned once on stderr, with
timeouts unenforced (a single process cannot interrupt itself
mid-simulation).  A task function that raises is a task bug, not a
pool failure: the exception propagates.

The timeout resolves like every other engine knob: explicit argument,
else ``REPRO_TASK_TIMEOUT``, else disabled; malformed or non-positive
values disable it rather than erroring.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.parallel.pool import (
    UNSET,
    get_pool,
    resolve_chunk,
    resolve_jobs,
    shutdown_pool,
)
from repro.parallel.stats import ENGINE_STATS, warn_once

#: Environment variable consulted when no explicit timeout is given.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Default failure budget: a run may time out this many times before
#: it is quarantined (first execution + one retry under the default).
DEFAULT_MAX_RETRIES = 2

#: First-retry backoff; the k-th failure waits ``base * 2**(k-1)``.
BACKOFF_BASE = 0.05

#: Backoff ceiling — retries are about letting a wedged host recover,
#: not about sleeping through the campaign.
BACKOFF_CAP = 2.0

#: Fixed per-chunk slack on top of ``timeout * len(chunk)``: IPC and
#: unpickling cost must never be charged to the first task.
_TIMEOUT_GRACE = 0.25

#: How many times a broken pool is rebuilt before the supervisor gives
#: up on parallelism and finishes serially.
_POOL_REBUILD_LIMIT = 3

#: Upper bound on one wait when nothing has a nearer deadline, so dead
#: workers are noticed even with timeouts disabled.
_LIVENESS_POLL = 1.0


def _run_chunk(chunk):
    """Worker-side shim: run one chunk of indexed tasks.

    ``chunk`` is ``(fn, [(index, payload), ...])``; returns ``[(index,
    result), ...]`` so the parent can slot results back in task order
    no matter which worker (or chunk) finished first.
    """
    fn, items = chunk
    return [(index, fn(payload)) for index, payload in items]


def _worker_pids(pool) -> frozenset:
    """Pids of ``pool``'s worker processes (empty for pool stand-ins)."""
    return frozenset(p.pid for p in getattr(pool, "_pool", None) or ())


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the per-run timeout: arg > ``REPRO_TASK_TIMEOUT`` > off.

    ``None``, ``0``, negative, or malformed values — from either
    source — disable the timeout (the historical behavior).  Returns
    the timeout in (float) seconds, or ``None`` when disabled.
    """
    if timeout is None:
        raw = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
        try:
            timeout = float(raw) if raw else None
        except ValueError:
            timeout = None
    if timeout is None or timeout <= 0:
        return None
    return float(timeout)


def backoff_delay(
    failures: int, base: float = BACKOFF_BASE, cap: float = BACKOFF_CAP
) -> float:
    """Deterministic exponential backoff for the k-th failure."""
    return min(cap, base * (2 ** max(0, failures - 1)))


class _WorkChunk:
    """One dispatchable group of task positions (retries are size 1)."""

    __slots__ = ("positions", "not_before")

    def __init__(self, positions: List[int], not_before: float = 0.0) -> None:
        self.positions = positions
        self.not_before = not_before


class _Flight:
    """One chunk in flight on the pool, with its wall-clock deadline."""

    __slots__ = ("positions", "deadline")

    def __init__(self, positions: List[int], deadline: Optional[float]) -> None:
        self.positions = positions
        self.deadline = deadline


def run_supervised(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    on_result: Optional[Callable[[int, Any], Optional[bool]]] = None,
    on_complete: Optional[Callable[[int, Any], None]] = None,
    quarantine: Optional[Callable[[int, Any, int], Any]] = None,
    stats: MetricsRegistry = ENGINE_STATS,
    backoff_base: float = BACKOFF_BASE,
) -> List[Any]:
    """Run ``fn`` over ``payloads`` under supervision; see module doc.

    Returns the slot list in payload order.  Slots are ``UNSET`` only
    when the batch was cancelled (``on_result`` returned truthy) before
    they completed — an uncancelled batch always fills every slot, by
    execution, retry, or quarantine.

    ``quarantine(index, payload, failures)`` supplies the result value
    of a slot that exhausted its failure budget; with no factory given
    a quarantined slot raises :class:`TimeoutError` instead (plain
    batches have no way to represent a missing result).

    ``task_timeout`` follows :func:`resolve_task_timeout`; when it is
    active the pool is used even at one worker, because an in-process
    run cannot be interrupted.  ``on_result`` returning truthy stops
    the batch and terminates the pool, cancelling in-flight work.
    """
    payloads = list(payloads)
    slots: List[Any] = [UNSET] * len(payloads)
    if not payloads:
        return slots
    timeout = resolve_task_timeout(task_timeout)
    retry_budget = max(1, max_retries)
    workers = min(resolve_jobs(jobs), len(payloads))

    next_emit = 0
    stop = False

    def emit_ready_prefix() -> None:
        """Fire ``on_result`` for the contiguous done prefix, in order."""
        nonlocal next_emit, stop
        while not stop and next_emit < len(slots) and slots[next_emit] is not UNSET:
            index = next_emit
            next_emit += 1
            if on_result is not None and on_result(index, slots[index]):
                stop = True

    def run_serially(enforce_note: bool = False) -> None:
        """Fill every remaining slot in-process (the degraded path)."""
        if enforce_note and timeout is not None:
            warn_once(
                "supervisor-serial-timeout",
                "repro.parallel: running serially in-process; the "
                f"--task-timeout of {timeout:g}s cannot be enforced",
            )
        for index in range(len(payloads)):
            if stop:
                return
            if slots[index] is not UNSET:
                emit_ready_prefix()
                continue
            value = fn(payloads[index])
            slots[index] = value
            if on_complete is not None:
                on_complete(index, value)
            emit_ready_prefix()

    if workers <= 1 and timeout is None:
        run_serially()
        return slots

    try:
        pool = get_pool(workers)
    except (OSError, PermissionError, ValueError):
        pool = None
    if pool is None:
        stats.inc("parallel.fallbacks")
        warn_once(
            "supervisor-pool-create",
            "repro.parallel: worker pool unavailable in this environment; "
            "running serially in-process",
        )
        run_serially(enforce_note=True)
        return slots

    pids = _worker_pids(pool)
    chunk_size = resolve_chunk(chunk, len(payloads), workers)

    ready: deque = deque(
        _WorkChunk(list(range(start, min(start + chunk_size, len(payloads)))))
        for start in range(0, len(payloads), chunk_size)
    )
    delayed: List[_WorkChunk] = []  # retries waiting out their backoff
    failures: dict = {}  # position -> timeout count
    in_flight: List[_Flight] = []
    done: deque = deque()  # (flight, [(position, result), ...])
    errors: deque = deque()  # task exceptions (task bugs propagate)
    wake = threading.Event()
    filled = 0
    rebuilds = 0
    # At most one in-flight chunk per worker: a queued-but-unstarted
    # chunk would share its deadline with whatever is hogging the
    # workers, and a single poison run could then time out (and
    # eventually quarantine) innocent chunks that never got to run.
    # Capped this way, every in-flight chunk is actually executing —
    # or about to be picked up by a free worker — so a deadline charge
    # means the chunk itself misbehaved.
    max_inflight = workers

    def submit(work: _WorkChunk, now: float) -> None:
        item = (fn, [(pos, payloads[pos]) for pos in work.positions])
        deadline = (
            None
            if timeout is None
            else now + timeout * len(work.positions) + _TIMEOUT_GRACE
        )
        flight = _Flight(work.positions, deadline)

        def _on_done(rows, _flight=flight):
            done.append((_flight, rows))
            wake.set()

        def _on_error(exc, _flight=flight):
            errors.append(exc)
            wake.set()

        pool.apply_async(
            _run_chunk, (item,), callback=_on_done, error_callback=_on_error
        )
        in_flight.append(flight)

    def drain_done() -> bool:
        """Move finished chunks into slots; True when anything landed."""
        nonlocal filled
        landed = False
        while done:
            flight, rows = done.popleft()
            if flight in in_flight:
                in_flight.remove(flight)
            for position, value in rows:
                if slots[position] is UNSET:
                    slots[position] = value
                    filled += 1
                    failures.pop(position, None)
                    if on_complete is not None:
                        on_complete(position, value)
                    landed = True
        return landed

    def settle_or_requeue(position: int, charged: bool, now: float) -> None:
        """A lost slot: retry it, or quarantine it once over budget."""
        nonlocal filled
        if not charged:
            # The pool died around it; the slot itself is blameless.
            ready.append(_WorkChunk([position]))
            return
        stats.inc("parallel.timeouts")
        failures[position] = failures.get(position, 0) + 1
        if failures[position] < retry_budget:
            stats.inc("parallel.retries")
            delayed.append(
                _WorkChunk(
                    [position],
                    now + backoff_delay(failures[position], backoff_base),
                )
            )
            return
        stats.inc("parallel.quarantined")
        if quarantine is None:
            raise TimeoutError(
                f"task {position} exceeded the {timeout:g}s timeout "
                f"{failures[position]} time(s) and no quarantine factory "
                "was given"
            )
        value = quarantine(position, payloads[position], failures[position])
        slots[position] = value
        filled += 1
        if on_complete is not None:
            on_complete(position, value)

    def pool_broken() -> bool:
        """A worker died: the pool replaced it, or has yet to."""
        procs = getattr(pool, "_pool", None) or ()
        return _worker_pids(pool) != pids or any(
            not p.is_alive() for p in procs
        )

    try:
        while filled < len(payloads) and not stop:
            now = time.monotonic()
            # Backed-off retries whose moment has come rejoin the queue.
            due = [w for w in delayed if w.not_before <= now]
            if due:
                delayed[:] = [w for w in delayed if w.not_before > now]
                ready.extend(due)
            while ready and len(in_flight) < max_inflight and pool is not None:
                submit(ready.popleft(), now)

            # Sleep until the next interesting moment: a completion
            # callback, the nearest deadline/backoff, or the liveness
            # poll (so a silently dead worker is still noticed).
            horizon = now + _LIVENESS_POLL
            for flight in in_flight:
                if flight.deadline is not None:
                    horizon = min(horizon, flight.deadline)
            for work in delayed:
                horizon = min(horizon, work.not_before)
            wait = max(0.0, horizon - now)
            if not done and not errors and wait > 0:
                wake.wait(timeout=wait)
            wake.clear()

            if drain_done():
                emit_ready_prefix()
                if stop:
                    break
            if errors:
                exc = errors.popleft()
                shutdown_pool()
                raise exc

            now = time.monotonic()
            expired = [
                flight
                for flight in in_flight
                if flight.deadline is not None and now >= flight.deadline
            ]
            if expired or (in_flight and pool_broken()):
                # Give completions racing the axe one last chance.
                if drain_done():
                    emit_ready_prefix()
                    if stop:
                        break
                    now = time.monotonic()
                    expired = [
                        flight
                        for flight in in_flight
                        if flight.deadline is not None
                        and now >= flight.deadline
                    ]
                    if not expired and not (in_flight and pool_broken()):
                        continue
                # Hung or dead workers can only be stopped by killing
                # the whole pool; every in-flight chunk loses its work.
                shutdown_pool()
                rebuilds += 1
                lost = list(in_flight)
                in_flight.clear()
                charged = {
                    pos for flight in expired for pos in flight.positions
                }
                for flight in lost:
                    for position in flight.positions:
                        if slots[position] is UNSET:
                            settle_or_requeue(
                                position, position in charged, now
                            )
                emit_ready_prefix()
                if stop:
                    break
                if filled >= len(payloads):
                    break
                if rebuilds > _POOL_REBUILD_LIMIT:
                    pool = None
                else:
                    try:
                        pool = get_pool(workers)
                        pids = _worker_pids(pool)
                    except (OSError, PermissionError, ValueError):
                        pool = None
                if pool is None:
                    stats.inc("parallel.fallbacks")
                    warn_once(
                        "supervisor-pool-lost",
                        "repro.parallel: worker pool kept failing; "
                        "finishing the batch serially in-process",
                    )
                    # Drop queued work back into slots-by-index order.
                    ready.clear()
                    delayed.clear()
                    run_serially(enforce_note=True)
                    return slots
    except KeyboardInterrupt:
        # Flush what already completed (so journals see it), then kill
        # the workers and let the caller decide what "partial" means.
        drain_done()
        shutdown_pool()
        raise

    if stop:
        # Cancellation: in-flight work is abandoned with the pool.
        shutdown_pool()
    return slots
