"""Determinism guard: serial and pooled triage agree byte-for-byte.

Replaying a bundle in-process, through the worker pool, and shrinking
at different ``jobs`` counts must all produce identical artifacts — the
shrinker evaluates every candidate of a round and picks the
lowest-index success precisely so the answer cannot depend on worker
scheduling.
"""

from __future__ import annotations

import json

import pytest

from repro.parallel.fingerprint import FINGERPRINT_ENV
from repro.parallel.supervisor import run_supervised
from repro.triage.replay import (
    _replay_task,
    replay_task_payload,
)
from repro.triage.shrink import shrink_bundle

from tests.triage.helpers import DEMO_CONFIG, failure_bundle


@pytest.fixture(autouse=True)
def _pinned_fingerprint(monkeypatch):
    # Subprocess workers recompute the fingerprint from the tree; pin it
    # through the environment so every execution path agrees on keys.
    monkeypatch.setenv(FINGERPRINT_ENV, "pinned-for-determinism")


def test_replay_identical_in_process_and_through_pool():
    bundle = failure_bundle(DEMO_CONFIG)
    payload = replay_task_payload(bundle)
    serial = _replay_task(payload)
    (pooled,) = run_supervised(_replay_task, [payload], jobs=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        pooled, sort_keys=True
    )


def test_shrink_identical_at_any_jobs_count():
    bundle = failure_bundle(DEMO_CONFIG)
    serial = shrink_bundle(bundle, jobs=1)
    pooled = shrink_bundle(bundle, jobs=2)
    assert json.dumps(
        serial.minimized.to_json_dict(), sort_keys=True
    ) == json.dumps(pooled.minimized.to_json_dict(), sort_keys=True)
    assert serial.rounds == pooled.rounds
    assert serial.candidates == pooled.candidates
    assert serial.accepted == pooled.accepted
    assert serial.log == pooled.log
