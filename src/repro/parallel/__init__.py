"""Parallel execution engine with deterministic result merging.

Every heavy workload in this repository — chaos campaigns, theorem
benches, parameter sweeps — is a collection of *independent* seeded
runs: each run is a pure function of ``(algorithm, N, f, |V|, seed,
fault config)``.  This package exploits that with one dispatch engine
and the storage around it:

* :mod:`repro.parallel.supervisor` — :func:`run_supervised`, the only
  dispatch engine: indexed tasks fanned out in chunks, results slotted
  back **in task order**, so a 4-worker report is byte-identical to
  the serial one; plus per-run timeouts (``REPRO_TASK_TIMEOUT``),
  dead-worker recovery, bounded retry with deterministic backoff,
  poison-run quarantine and fail-fast cancellation.
* :mod:`repro.parallel.pool` — the **persistent** ``multiprocessing``
  worker pool (created once per process, reused by every batch) and
  the ``--jobs``/``--chunk`` resolution rules.  ``--jobs 1`` (the
  default) runs in-process with no pool at all.
* :mod:`repro.parallel.cache` — a content-addressed run cache under
  ``benchmarks/.cache/``: the key hashes the task parameters, the seed,
  and a fingerprint of the ``src/repro`` source tree
  (:mod:`repro.parallel.fingerprint`), so results survive re-runs but
  never survive a code change.
* :mod:`repro.parallel.journal` — the crash-safe campaign journal
  (``repro.journal/1``) under ``benchmarks/.journal/``: an append-only
  record of completed runs, so ``repro chaos --resume`` continues a
  killed campaign byte-identically.
* :mod:`repro.parallel.stats` — the engine counters
  (``parallel.timeouts/retries/quarantined/fallbacks``, held in a
  process-wide ``MetricsRegistry``) plus the warn-once stderr channel,
  so degradation is observable instead of silent.

See ``docs/parallelism.md`` for the determinism contract, the pool
lifecycle, chunk sizing, the cache key design, and the resilience
semantics.
"""

from repro.parallel.cache import DEFAULT_CACHE_DIR, RunCache
from repro.parallel.fingerprint import FINGERPRINT_ENV, code_fingerprint
from repro.parallel.journal import (
    DEFAULT_JOURNAL_DIR,
    JOURNAL_SCHEMA,
    CampaignJournal,
)
from repro.parallel.pool import (
    CHUNK_ENV,
    JOBS_ENV,
    UNSET,
    pool_workers,
    resolve_chunk,
    resolve_jobs,
    shutdown_pool,
)
from repro.parallel.stats import ENGINE_STATS, engine_counters, warn_once
from repro.parallel.supervisor import (
    DEFAULT_MAX_RETRIES,
    TASK_TIMEOUT_ENV,
    resolve_task_timeout,
    run_supervised,
)

__all__ = [
    "CHUNK_ENV",
    "CampaignJournal",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_JOURNAL_DIR",
    "DEFAULT_MAX_RETRIES",
    "ENGINE_STATS",
    "FINGERPRINT_ENV",
    "JOBS_ENV",
    "JOURNAL_SCHEMA",
    "RunCache",
    "TASK_TIMEOUT_ENV",
    "UNSET",
    "code_fingerprint",
    "engine_counters",
    "pool_workers",
    "resolve_chunk",
    "resolve_jobs",
    "resolve_task_timeout",
    "run_supervised",
    "shutdown_pool",
    "warn_once",
]
