"""CLI surface of the triage subsystem: ``repro replay`` / ``repro
shrink`` / ``repro chaos --fail-fast/--triage`` and the exit-code
contract (0 pass, 1 liveness-only failures, 2 safety violation,
3 usage error)."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

import repro.faults.campaign as campaign_module
from repro.cli import build_parser, main
from repro.triage.bundle import ReproBundle

from tests.triage.helpers import DEMO_CONFIG, RIGGED_CONFIG, failure_bundle


def test_triage_commands_parse():
    parser = build_parser()
    for argv in (
        ["replay", "bundle.json"],
        ["replay", "bundle.json", "--no-cache"],
        ["shrink", "bundle.json", "--out", "min.json", "--log", "s.log"],
        ["shrink", "bundle.json", "--jobs", "2", "--cache-dir", "/tmp/c"],
        ["chaos", "--fail-fast"],
        ["chaos", "--triage", "--triage-shrink", "--triage-dir", "t"],
        ["explore", "--bundle", "ce.json"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


@pytest.mark.parametrize(
    "argv",
    [
        ["--seeds", "0"],
        ["--ops", "0"],
        ["--n", "3", "--f", "2"],
        ["--byzantine", "3"],
        ["--n", "4", "--f", "0"],
    ],
    ids=["zero-seeds", "zero-ops", "no-majority", "byzantine-over-budget",
         "lossy-without-crash-budget"],
)
def test_chaos_bad_parameters_are_usage_errors(argv, capsys, tmp_path):
    code = main(
        ["chaos", "--seeds", "1", "--no-cache", "--out", "", *argv,
         "--json", str(tmp_path / "report.json")]
    )
    out = capsys.readouterr().out
    assert code == 3
    assert out.startswith("error: ") and out.count("\n") == 1


def test_replay_verb_matches_and_mismatches(capsys, tmp_path):
    bundle = failure_bundle(DEMO_CONFIG)
    path = tmp_path / "demo.json"
    bundle.write(str(path))
    assert main(["replay", str(path), "--no-cache"]) == 0
    assert "match" in capsys.readouterr().out

    lying = replace(bundle, expected=replace(bundle.expected, safety_ok=False))
    lying.write(str(path))
    assert main(["replay", str(path), "--no-cache"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_shrink_verb_writes_minimized_bundle_and_log(capsys, tmp_path):
    bundle = failure_bundle(DEMO_CONFIG)
    path = tmp_path / "demo.json"
    log = tmp_path / "demo.shrink.log"
    bundle.write(str(path))
    assert main([
        "shrink", str(path), "--log", str(log),
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    out = capsys.readouterr().out
    assert "shrunk" in out
    minimized_path = str(path)[: -len(".json")] + ".min.json"
    assert f"minimized bundle written to {minimized_path}" in out
    minimized = ReproBundle.load(minimized_path)
    assert minimized.event_count() <= 1
    assert "shrunk" in log.read_text()


@pytest.fixture
def _failing_campaign(monkeypatch):
    """Make the campaign generate exactly one known-failing config."""

    def rig(config):
        monkeypatch.setattr(
            campaign_module,
            "generate_fault_configs",
            lambda f, seeds, byzantine=0: [config],
        )

    return rig


def test_chaos_liveness_failure_exit_json_and_triage(
    capsys, tmp_path, _failing_campaign
):
    _failing_campaign(DEMO_CONFIG)
    json_path = tmp_path / "chaos.json"
    triage_dir = tmp_path / "triage"
    code = main([
        "chaos", "--algorithms", "abd", "-n", "5", "-f", "1",
        "--seeds", "1", "--ops", "10", "--max-ticks", "4000",
        "--out", "", "--json", str(json_path),
        "--triage", "--triage-dir", str(triage_dir),
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 1  # liveness-only failure

    # S1: the JSON report carries a structured failures list with the
    # seed, the full fault config, and the diagnosis summary.
    doc = json.loads(json_path.read_text())
    assert doc["passed"] is False
    (failure,) = doc["failures"]
    assert failure["algorithm"] == "abd"
    assert failure["seed"] == 0
    assert failure["fault_config"]["partition_at"] == 40
    assert failure["verdict"] == "partition-isolated"
    assert failure["safety_ok"] is True
    assert "partition" in failure["diagnosis_summary"]

    # The failure was auto-bundled into the triage directory.
    out = capsys.readouterr().out
    assert "triage bundle written to" in out
    (bundle_file,) = sorted(os.listdir(triage_dir))
    bundle = ReproBundle.load(str(triage_dir / bundle_file))
    assert bundle.fault_config == DEMO_CONFIG
    assert bundle.expected.signature() == ("stall", "partition-isolated")


def test_chaos_safety_failure_outranks_and_fail_fast_stops(
    capsys, tmp_path, _failing_campaign
):
    _failing_campaign(RIGGED_CONFIG)
    code = main([
        "chaos", "--algorithms", "abd", "cas", "-n", "5", "-f", "1",
        "--seeds", "1", "--ops", "10", "--max-ticks", "4000",
        "--out", "", "--fail-fast",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 2  # safety violation outranks everything
    out = capsys.readouterr().out
    # Fail-fast: the abd run fails first, so cas never executes — the
    # report holds exactly one row and the cache saw exactly one miss.
    assert "runs: 1 total" in out
    assert "VIOLATED" in out
    assert "      cas" not in out  # no cas row was ever run
