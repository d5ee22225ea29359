"""The lint must run clean on the real ``src/`` tree, and the CLI must
behave as CI invokes it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import ROUTING_FINGERPRINTS, default_rules, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
CLI = REPO_ROOT / "tools" / "repro_lint.py"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(CLI), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


class TestSelfCheck:
    def test_real_source_tree_is_clean(self) -> None:
        report = run_lint([SRC], default_rules())
        assert report.findings == [], "\n" + "\n".join(
            f.render() for f in report.findings
        )

    def test_every_real_waiver_states_a_reason(self) -> None:
        report = run_lint([SRC], default_rules())
        assert report.waived, "expected the known transport waivers to appear"
        assert all(f.waiver_reason for f in report.waived)

    def test_recorded_fingerprint_matches_current_routing_module(self) -> None:
        from repro.analysis import compute_routing_fingerprint

        version, fingerprint = compute_routing_fingerprint()
        assert version in ROUTING_FINGERPRINTS
        assert ROUTING_FINGERPRINTS[version] == fingerprint


class TestCli:
    def test_cli_exits_zero_and_emits_json_on_clean_tree(self) -> None:
        result = run_cli("--format=json", "src/")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["summary"]["findings"] == 0
        assert payload["summary"]["waived"] >= 2
        assert payload["files_checked"] > 50

    def test_cli_exits_nonzero_on_violations(self) -> None:
        result = run_cli("tests/analysis/fixtures/violations")
        assert result.returncode == 1
        assert "error[" in result.stdout

    def test_cli_lists_rules(self) -> None:
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in (
            "determinism",
            "pickle-ban",
            "error-swallowing",
            "iter-order",
            "state-dict",
            "env-config",
            "routing-fingerprint",
        ):
            assert rule_id in result.stdout

    def test_cli_prints_recordable_fingerprint(self) -> None:
        from repro.analysis import compute_routing_fingerprint

        result = run_cli("--print-routing-fingerprint")
        assert result.returncode == 0
        assert "sha256:" in result.stdout
        # The CLI prints the *current* module's (version, fingerprint) pair,
        # which must be the latest recorded entry.
        version, fingerprint = compute_routing_fingerprint()
        assert version == max(ROUTING_FINGERPRINTS)
        assert str(version) in result.stdout
        assert fingerprint in result.stdout

    def test_cli_import_check_passes_on_registry(self) -> None:
        result = run_cli("--import-check", "--format=json", "src/repro/analysis")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["summary"]["findings"] == 0
