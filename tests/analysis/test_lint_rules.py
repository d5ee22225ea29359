"""Per-rule fixture tests: every rule fires on its seeded violation and
stays quiet on the conforming fixtures."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import default_rules, run_lint

FIXTURES = Path(__file__).parent / "fixtures"
VIOLATIONS = FIXTURES / "violations"
CLEAN = FIXTURES / "clean"
WAIVERS = FIXTURES / "waivers"


def lint(path: Path):
    return run_lint([path], default_rules())


def findings_by_rule(report) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for finding in report.findings:
        grouped.setdefault(finding.rule, []).append(finding)
    return grouped


class TestSeededViolations:
    def test_determinism_rule_fires_on_every_seeded_pattern(self) -> None:
        report = lint(VIOLATIONS / "repro" / "core" / "det_violation.py")
        messages = [f.message for f in report.findings]
        assert all(f.rule == "determinism" for f in report.findings)
        assert any("'random' module" in m for m in messages)
        assert any("np.random.seed" in m for m in messages)
        assert any("np.random.rand" in m for m in messages)
        assert any("random.random()" in m for m in messages)
        assert sum("unseeded default_rng" in m for m in messages) == 2
        assert any("time.time()" in m for m in messages)
        assert any("datetime.now()" in m for m in messages)
        assert any("uuid.uuid4()" in m for m in messages)
        assert all(f.severity == "error" for f in report.findings)
        assert all(f.hint for f in report.findings)

    def test_determinism_rule_flags_every_ambient_clock_variant(self) -> None:
        report = lint(VIOLATIONS / "repro" / "service" / "replication_clock.py")
        messages = [f.message for f in report.findings]
        assert all(f.rule == "determinism" for f in report.findings)
        assert any("call to time.monotonic()" in m for m in messages)
        assert any("call to time.monotonic_ns()" in m for m in messages)
        assert any("call to time.time_ns()" in m for m in messages)
        assert any("import of time.monotonic " in m for m in messages)
        assert any("import of time.time_ns " in m for m in messages)
        assert all("injectable" in f.hint for f in report.findings)

    def test_pickle_ban_fires_on_import_and_allow_pickle(self) -> None:
        report = lint(VIOLATIONS / "repro" / "service" / "wal_pickle.py")
        grouped = findings_by_rule(report)
        messages = [f.message for f in grouped.pop("pickle-ban")]
        assert not grouped
        assert any("import of 'pickle'" in m for m in messages)
        assert any("allow_pickle=True" in m for m in messages)

    def test_error_swallowing_fires_on_broad_and_bare_except(self) -> None:
        report = lint(VIOLATIONS / "repro" / "engine" / "transport_loop.py")
        grouped = findings_by_rule(report)
        labels = [f.message for f in grouped.pop("error-swallowing")]
        assert not grouped
        assert any("except Exception" in m for m in labels)
        assert any("bare except:" in m for m in labels)
        assert any("WorkerCrashError" in f.hint for f in report.findings)

    def test_iter_order_fires_on_each_set_iteration_shape(self) -> None:
        report = lint(VIOLATIONS / "repro" / "core" / "set_iter.py")
        assert all(f.rule == "iter-order" for f in report.findings)
        assert len(report.findings) == 4  # literal, set() call, comp, .union()

    def test_state_dict_rule_flags_unserialized_attribute(self) -> None:
        report = lint(VIOLATIONS / "repro" / "core" / "incomplete_sampler.py")
        grouped = findings_by_rule(report)
        [finding] = grouped.pop("state-dict")
        assert not grouped
        assert "_running_total" in finding.message
        assert "LeakySampler" in finding.message

    def test_pure_read_rule_flags_drains_creation_and_draws(self) -> None:
        report = lint(VIOLATIONS / "repro" / "service" / "impure_reads.py")
        grouped = findings_by_rule(report)
        messages = [f.message for f in grouped.pop("pure-read")]
        assert not grouped
        assert any("stats()" in m and "drain()" in m for m in messages)
        assert any("_get_or_create_shard" in m for m in messages)
        assert any("shard_samples()" in m and "_sync()" in m for m in messages)
        assert any("draws randomness" in m and "snapshot()" in m for m in messages)
        assert all("consistent cut" in f.hint for f in report.findings)

    def test_routing_fingerprint_fails_without_version_bump(self) -> None:
        report = lint(VIOLATIONS / "repro" / "service" / "routing.py")
        grouped = findings_by_rule(report)
        [finding] = grouped.pop("routing-fingerprint")
        assert not grouped
        assert "ROUTING_VERSION is still 1" in finding.message
        assert "bump ROUTING_VERSION" in finding.hint

    def test_env_config_flags_environment_reads_and_imports(self) -> None:
        report = lint(VIOLATIONS / "repro" / "service" / "env_switch.py")
        grouped = findings_by_rule(report)
        messages = [f.message for f in grouped.pop("env-config")]
        assert not grouped
        assert sum("read of os.environ" in m for m in messages) == 2  # alias too
        assert any("read of os.getenv" in m for m in messages)
        assert any("import of os.getenv" in m for m in messages)
        assert all("constructor argument" in f.hint for f in report.findings)

    def test_whole_violation_tree_fails_lint(self) -> None:
        report = lint(VIOLATIONS)
        assert report.exit_code == 1
        assert {f.rule for f in report.findings} == {
            "determinism",
            "pickle-ban",
            "error-swallowing",
            "iter-order",
            "state-dict",
            "pure-read",
            "env-config",
            "routing-fingerprint",
        }


class TestCleanFixtures:
    def test_clean_tree_produces_no_findings(self) -> None:
        report = lint(CLEAN)
        assert report.findings == []
        assert report.exit_code == 0
        assert report.files_checked == 7

    def test_scoping_files_outside_repro_are_ignored(self, tmp_path) -> None:
        rogue = tmp_path / "rogue.py"
        rogue.write_text("import random\nx = random.random()\n")
        report = run_lint([rogue], default_rules())
        assert report.findings == []


class TestWaivers:
    def test_reasoned_waiver_suppresses_and_is_reported(self) -> None:
        report = lint(WAIVERS)
        assert [f.rule for f in report.findings] == ["waiver"]
        assert "no reason" in report.findings[0].message
        [waived] = report.waived
        assert waived.rule == "determinism"
        assert waived.waived
        assert "reason recorded" in waived.waiver_reason

    def test_waiver_entries_survive_json_round_trip(self) -> None:
        payload = lint(WAIVERS).to_dict()
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["waived"] == 1
        assert payload["waived"][0]["waived"] is True
        assert payload["waived"][0]["waiver_reason"]


class TestRuleSelection:
    def test_rule_filter_limits_to_requested_rule(self) -> None:
        report = run_lint([VIOLATIONS], default_rules(), rule_ids=["pickle-ban"])
        assert report.findings
        assert {f.rule for f in report.findings} == {"pickle-ban"}

    def test_unknown_rule_id_is_rejected(self) -> None:
        try:
            run_lint([VIOLATIONS], default_rules(), rule_ids=["no-such-rule"])
        except ValueError as error:
            assert "no-such-rule" in str(error)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
