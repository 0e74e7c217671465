"""Persistent worker pool and job/chunk resolution.

This module owns the pool's lifecycle and the two sizing knobs; the
dispatch loop that feeds it is
:func:`repro.parallel.supervisor.run_supervised`.

* **One pool per process.**  :func:`get_pool` creates the pool on
  first use (``fork`` start method where available, so workers inherit
  the loaded interpreter) and every later batch reuses it — CLI verb,
  campaign, shrinker round, metrics batch, trace capture.  It grows
  (by recreation) when a batch asks for more workers than it has, and
  is torn down at interpreter exit or explicitly via
  :func:`shutdown_pool`.  The spawn-a-``Pool``-per-call predecessor
  paid interpreter start and import cost on every call and recorded a
  parallel "speedup" of 0.538 — slower than serial.
* **Job count** (:func:`resolve_jobs`): an explicit ``jobs`` argument
  wins; otherwise ``REPRO_JOBS``; otherwise 1 (serial, in-process —
  no pool, no fork, no pickling).  ``jobs <= 0`` — from either source —
  means "one worker per CPU".  A malformed ``REPRO_JOBS`` is ignored.
* **Chunk size** (:func:`resolve_chunk`): tasks cross the IPC boundary
  in chunks (``REPRO_CHUNK`` / ``--chunk``; auto-sized to ~4 chunks
  per worker), so a 600-task campaign costs tens of round trips, not
  600.  Chunking changes IPC cost only, never output.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Optional, Tuple

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable consulted when no explicit chunk size is given.
CHUNK_ENV = "REPRO_CHUNK"

#: Auto-chunking aims for this many chunks per worker: small enough to
#: amortize IPC, large enough that one slow chunk cannot idle the rest
#: of the pool for long.
_CHUNKS_PER_WORKER = 4

#: Auto-chunk ceiling: beyond this, bigger chunks stop amortizing IPC
#: and only add result latency.
_MAX_AUTO_CHUNK = 64

#: Distinct-from-anything marker for "this slot has no result yet".
#: ``None`` (or any falsy value) is a legitimate task result, so slot
#: bookkeeping must never use it as the emptiness test.
UNSET = object()


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a job count: explicit arg > ``REPRO_JOBS`` env > 1.

    Non-positive values — whether passed explicitly (``--jobs 0``) or
    via ``REPRO_JOBS=0`` / a negative ``REPRO_JOBS`` — mean "one worker
    per CPU"; both sources resolve through the same rule, so the env
    var and the flag can never disagree about what ``0`` means.  A
    malformed ``REPRO_JOBS`` is ignored rather than fatal — the CLI
    should never crash because of a stray environment variable.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_chunk(
    chunk: Optional[int] = None, tasks: int = 0, workers: int = 1
) -> int:
    """Resolve a dispatch chunk size: arg > ``REPRO_CHUNK`` env > auto.

    Non-positive values (either source) select auto-sizing:
    ``ceil(tasks / (workers * 4))`` capped at 64 — about four chunks
    per worker, so stragglers rebalance while IPC stays amortized.  A
    malformed ``REPRO_CHUNK`` falls back to auto.
    """
    if chunk is None:
        raw = os.environ.get(CHUNK_ENV, "").strip()
        try:
            chunk = int(raw) if raw else 0
        except ValueError:
            chunk = 0
    if chunk <= 0:
        target = max(1, workers) * _CHUNKS_PER_WORKER
        chunk = min(_MAX_AUTO_CHUNK, -(-max(0, tasks) // target) or 1)
    return max(1, int(chunk))


def _pool_context():
    """Prefer ``fork`` (cheap, inherits sys.path) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: The process-wide persistent pool: ``(pool, workers)`` or ``None``.
_POOL: Optional[Tuple[object, int]] = None


def get_pool(workers: int):
    """The persistent pool, created on first use and reused after.

    A pool at least ``workers`` wide is returned; asking for more
    workers than the current pool has replaces it with a wider one
    (the old workers are torn down first).  Raises whatever the host's
    ``multiprocessing`` raises when pools are unavailable — callers
    degrade to serial.
    """
    global _POOL
    if _POOL is not None and _POOL[1] >= workers:
        return _POOL[0]
    if _POOL is not None:
        shutdown_pool()
    pool = _pool_context().Pool(processes=workers)
    _POOL = (pool, workers)
    return pool


def pool_workers() -> int:
    """Width of the live persistent pool (0 when none exists)."""
    return 0 if _POOL is None else _POOL[1]


def shutdown_pool() -> None:
    """Tear the persistent pool down (idempotent; re-created on use).

    Registered via ``atexit`` so interpreter shutdown never hangs on
    live workers; also the escape hatch for tests that need a fresh
    pool (e.g. after monkeypatching module state workers must see).
    """
    global _POOL
    if _POOL is None:
        return
    pool, _ = _POOL
    _POOL = None
    try:
        pool.terminate()
        pool.join()
    except Exception:  # pragma: no cover - teardown is best-effort
        pass


atexit.register(shutdown_pool)
