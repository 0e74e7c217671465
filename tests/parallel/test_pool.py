"""The engine's byte-determinism contract: task order in, task order out.

Also the persistence contract (one pool per process, reused across
``run_supervised`` batches, grown by recreation) and the degradation
contract (sandboxed semaphores fall back to in-process serial
execution with identical output; a worker that dies mid-task is
replaced without losing or duplicating results).
"""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import repro.parallel.pool as pool_mod
import repro.parallel.supervisor as sup_mod
from repro.parallel import (
    CHUNK_ENV,
    JOBS_ENV,
    UNSET,
    engine_counters,
    pool_workers,
    resolve_chunk,
    resolve_jobs,
    run_supervised,
    shutdown_pool,
)
from repro.parallel.stats import reset_warnings

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def square(x):
    return x * x


def describe(payload):
    return {"name": payload["name"], "value": payload["value"] + 1}


def falsy_result(payload):
    """Legitimate falsy results: None, 0, "", [] — all valid slot values."""
    return [None, 0, "", []][payload % 4]


def exit_once(payload):
    """Kills its worker on the first execution of value 7 (marker file
    absent), as SIGKILL or the OOM killer would; succeeds after.

    The death comes late, after every other chunk has landed, so no
    completion wakes the engine before ``multiprocessing.Pool`` has
    quietly respawned the worker.
    """
    marker = payload["marker"]
    if payload["value"] == 7 and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(0.3)
        os._exit(1)
    return payload["value"] * payload["value"]


CALLS = []


def record_call(payload):
    """In-process call counter (only meaningful under a fake pool)."""
    CALLS.append(payload)
    return None


class _InProcessPool:
    """A fake pool running chunks in-process — call counts are visible."""

    def apply_async(self, fn, args, callback=None, error_callback=None):
        try:
            result = fn(*args)
        except Exception as exc:
            error_callback(exc)
        else:
            callback(result)


class _Worker:
    def __init__(self, pid):
        self.pid = pid

    def is_alive(self):
        return True


class _DeadWorkerPool:
    """A fake pool whose worker has been replaced whenever it is looked
    at: submitted chunks never come back, as with a worker killed
    mid-task that ``multiprocessing.Pool`` silently respawned."""

    def __init__(self):
        self._pids = itertools.count()

    @property
    def _pool(self):
        return [_Worker(next(self._pids))]

    def apply_async(self, fn, args, callback=None, error_callback=None):
        pass


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert resolve_jobs() == 1

    def test_nonpositive_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        cpus = os.cpu_count() or 1
        assert resolve_jobs(0) == cpus
        assert resolve_jobs(-4) == cpus

    def test_env_zero_matches_flag_zero(self, monkeypatch):
        # REPRO_JOBS=0 and --jobs 0 must mean the same thing: per-CPU.
        monkeypatch.setenv(JOBS_ENV, "0")
        assert resolve_jobs() == resolve_jobs(0)

    def test_env_negative_means_cpu_count(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-2")
        assert resolve_jobs() == (os.cpu_count() or 1)


class TestResolveChunk:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "9")
        assert resolve_chunk(5, tasks=100, workers=4) == 5

    def test_env_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "9")
        assert resolve_chunk(tasks=100, workers=4) == 9

    def test_auto_targets_four_chunks_per_worker(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        # ceil(600 / (4 workers * 4)) = 38
        assert resolve_chunk(tasks=600, workers=4) == 38

    def test_auto_capped(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert resolve_chunk(tasks=100_000, workers=1) == 64

    def test_auto_floor_is_one(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert resolve_chunk(tasks=0, workers=8) == 1
        assert resolve_chunk(tasks=3, workers=8) == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert resolve_chunk(0, tasks=600, workers=4) == 38

    def test_malformed_env_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "many")
        assert resolve_chunk(tasks=600, workers=4) == 38


class TestRunTasks:
    """Task-ordered dispatch through the one engine, ``run_supervised``."""

    def test_empty(self):
        assert run_supervised(square, []) == []

    def test_serial_preserves_order(self):
        assert run_supervised(square, [3, 1, 2], jobs=1) == [9, 1, 4]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        payloads = [{"name": f"t{i}", "value": i} for i in range(9)]
        serial = run_supervised(describe, payloads, jobs=1)
        parallel = run_supervised(describe, payloads, jobs=jobs)
        assert parallel == serial

    @pytest.mark.parametrize("chunk", [1, 2, 5, 0])
    def test_chunk_size_never_affects_output(self, chunk):
        payloads = [{"name": f"t{i}", "value": i} for i in range(9)]
        serial = run_supervised(describe, payloads, jobs=1)
        assert run_supervised(describe, payloads, jobs=3, chunk=chunk) == serial

    def test_on_result_fires_in_task_order_serial(self):
        seen = []
        run_supervised(
            square, [5, 4, 3], jobs=1, on_result=lambda i, r: seen.append((i, r))
        )
        assert seen == [(0, 25), (1, 16), (2, 9)]

    def test_on_result_fires_in_task_order_parallel(self):
        seen = []
        results = run_supervised(
            square, list(range(12)), jobs=3, on_result=lambda i, r: seen.append((i, r))
        )
        assert results == [i * i for i in range(12)]
        # Completion order may be anything; emission order may not.
        assert seen == [(i, i * i) for i in range(12)]

    def test_on_result_strict_order_across_chunk_boundaries(self):
        # chunk=2 over 11 tasks: chunks complete out of order on 3
        # workers, but emission must still be the contiguous prefix.
        seen = []
        results = run_supervised(
            square,
            list(range(11)),
            jobs=3,
            chunk=2,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert results == [i * i for i in range(11)]
        assert seen == [(i, i * i) for i in range(11)]

    def test_single_task_runs_in_process(self):
        # workers = min(jobs, len(payloads)) == 1 -> serial path.
        assert run_supervised(square, [6], jobs=8) == [36]

    def test_falsy_results_are_real_results(self):
        # Regression: slot bookkeeping must use the UNSET sentinel, not
        # None/falsiness — None, 0, "", [] are legitimate results.
        expected = [falsy_result(i) for i in range(8)]
        assert run_supervised(falsy_result, list(range(8)), jobs=1) == expected
        assert (
            run_supervised(falsy_result, list(range(8)), jobs=3, chunk=2)
            == expected
        )

    def test_none_results_not_reexecuted(self, monkeypatch):
        # With None-as-sentinel, the serial fallback would re-run every
        # task whose (legitimate) result was None.  Count calls under an
        # in-process fake pool to prove each task ran exactly once.
        shutdown_pool()
        monkeypatch.setattr(sup_mod, "get_pool", lambda workers: _InProcessPool())
        CALLS.clear()
        results = run_supervised(record_call, list(range(6)), jobs=2, chunk=2)
        assert results == [None] * 6
        assert len(CALLS) == 6

    def test_unset_sentinel_is_private(self):
        assert UNSET is not None
        assert bool(UNSET)  # a plain object() is truthy, never falsy


class TestPersistentPool:
    def test_pool_reused_across_calls(self):
        shutdown_pool()
        assert pool_workers() == 0
        run_supervised(square, list(range(8)), jobs=2)
        first = pool_mod._POOL
        assert first is not None and pool_workers() >= 2
        run_supervised(square, list(range(8)), jobs=2)
        assert pool_mod._POOL is not None
        assert pool_mod._POOL[0] is first[0]  # same pool object, reused

    def test_pool_grows_by_recreation(self):
        shutdown_pool()
        run_supervised(square, list(range(8)), jobs=2)
        narrow = pool_mod._POOL
        run_supervised(square, list(range(8)), jobs=4)
        assert pool_workers() >= 4
        assert pool_mod._POOL[0] is not narrow[0]
        # A later narrower request reuses the wide pool, no shrink.
        run_supervised(square, list(range(8)), jobs=2)
        assert pool_workers() >= 4

    def test_shutdown_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        assert pool_workers() == 0


class TestDegradation:
    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        # The persistent pool may be live from an earlier test; drop it
        # so the monkeypatched context is what get_pool actually hits.
        shutdown_pool()

        class Exploding:
            def Pool(self, processes):
                raise OSError("no semaphores here")

        monkeypatch.setattr(pool_mod, "_pool_context", lambda: Exploding())
        seen = []
        results = run_supervised(
            square, [2, 3], jobs=2, on_result=lambda i, r: seen.append(i)
        )
        assert results == [4, 9]
        assert seen == [0, 1]

    def test_worker_death_recovers_with_timeouts_disabled(self, tmp_path):
        # A worker dies mid-task (os._exit) during a batch with no
        # timeout.  The pool respawns the worker but the chunk never
        # reports back; the engine must notice from the changed worker
        # set, rebuild, re-run the lost slots and return every result
        # in order.  Run in a subprocess with a wall-clock bound, so an
        # engine that misses the death fails here instead of hanging.
        script = (
            "import json\n"
            "from repro.parallel import engine_counters, run_supervised\n"
            "from tests.parallel.test_pool import exit_once\n"
            f"payloads = [{{'marker': {str(tmp_path / 'died')!r}, "
            "'value': v} for v in range(8)]\n"
            "seen = []\n"
            "results = run_supervised(exit_once, payloads, jobs=2, chunk=2,\n"
            "    task_timeout=None, on_result=lambda i, r: seen.append(i))\n"
            "print(json.dumps([results, seen, engine_counters()]))\n"
        )
        env = dict(os.environ)
        env.pop("REPRO_TASK_TIMEOUT", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                cwd=REPO_ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("the engine hung on a dead worker")
        assert proc.returncode == 0, proc.stderr
        results, seen, counters = json.loads(proc.stdout)
        assert results == [v * v for v in range(8)]
        assert seen == list(range(8))
        assert (tmp_path / "died").exists()  # the worker really died
        assert counters["parallel.fallbacks"] == 0  # rebuilt, not serial

    def test_task_exception_propagates(self, monkeypatch):
        # A task that raises is a task bug, not a pool failure: the
        # engine re-raises it instead of swallowing it.
        shutdown_pool()
        monkeypatch.setattr(sup_mod, "get_pool", lambda workers: _InProcessPool())

        def boom(payload):
            raise ValueError(f"task {payload} is broken")

        with pytest.raises(ValueError, match="task 0 is broken"):
            run_supervised(boom, list(range(4)), jobs=2)


class TestFallbackObservability:
    """Degradation is counted and warned, never silent
    (``parallel.fallbacks`` feeds the campaign report's ``runtime``
    section)."""

    def test_pool_create_failure_counts_and_warns_once(
        self, monkeypatch, capsys
    ):
        shutdown_pool()
        reset_warnings()

        class Exploding:
            def Pool(self, processes):
                raise OSError("no semaphores here")

        monkeypatch.setattr(pool_mod, "_pool_context", lambda: Exploding())
        before = engine_counters()["parallel.fallbacks"]
        assert run_supervised(square, [2, 3], jobs=2) == [4, 9]
        assert engine_counters()["parallel.fallbacks"] == before + 1
        err = capsys.readouterr().err
        assert err.count("worker pool unavailable") == 1
        # The same category warns once per process, however often the
        # engine falls back; the counter keeps counting.
        assert run_supervised(square, [4, 5], jobs=2) == [16, 25]
        assert engine_counters()["parallel.fallbacks"] == before + 2
        assert "worker pool unavailable" not in capsys.readouterr().err
        reset_warnings()

    def test_pool_death_counts_fallback(self, monkeypatch, capsys):
        # Every rebuilt pool loses its worker again: past the rebuild
        # limit the engine finishes serially, counted and warned.
        shutdown_pool()
        reset_warnings()
        monkeypatch.setattr(
            sup_mod, "get_pool", lambda workers: _DeadWorkerPool()
        )
        monkeypatch.setattr(sup_mod, "_LIVENESS_POLL", 0.01)
        before = engine_counters()["parallel.fallbacks"]
        assert run_supervised(square, list(range(6)), jobs=2, chunk=2) == [
            i * i for i in range(6)
        ]
        assert engine_counters()["parallel.fallbacks"] == before + 1
        assert "kept failing" in capsys.readouterr().err
        reset_warnings()
