"""Byte-identity guard for the simulator hot path.

Pins the sha256 of a small campaign's ``repro.chaos/1`` JSON bytes.
Every schedule decision (enabled-set order, partition gate, round-robin
selection, adversary RNG draws) feeds these bytes, so a hot-path change
that silently reorders a schedule fails here instead of shifting every
report.  A deliberate behaviour change must update the digests and say
why.
"""

import hashlib
import json

import pytest

from repro.faults.campaign import run_campaign

#: (byzantine, runs, sha256 of json.dumps(to_json_dict(), sort_keys=True))
#: for the default grid (ABD/CAS/CASGC, n=5, f=1) at seeds 0-1, 4 ops.
PINNED = [
    (0, 60, "dd774064d0fa446c75754a5ffa353263a215485d3a0a8703560893df1052e10d"),
    (1, 102, "9c12e9e7a1e874cc77060add6e30bef7dc9c11f04fdfc9ade729cdab301d5d78"),
]


@pytest.mark.parametrize(
    "byzantine, runs, digest", PINNED, ids=["honest", "byzantine-1"]
)
def test_campaign_report_bytes_are_pinned(byzantine, runs, digest):
    report = run_campaign(seeds=(0, 1), num_ops=4, jobs=1, byzantine=byzantine)
    data = json.dumps(report.to_json_dict(), sort_keys=True).encode("utf-8")
    assert len(report.results) == runs
    assert hashlib.sha256(data).hexdigest() == digest
