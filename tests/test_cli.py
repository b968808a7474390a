"""Command-line interface tests (fast, small networks)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ["--trials", "1", "--max-sources", "50"]


def assert_usage_error(capsys, argv, needle: str) -> None:
    """``argv`` fails with exit code 2, nothing on stdout, and exactly one
    stderr line that starts ``repro: error:`` and contains ``needle``."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("repro: error:") and needle in lines[0]


class TestAnalyze:
    def test_basic_output(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "analyze", "--graph-size", "300", "--cluster-size", "10"
        )
        assert code == 0
        assert "super-peer (individual)" in out
        assert "aggregate (all nodes)" in out
        assert "results per query" in out

    def test_strong_flag(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "analyze", "--graph-size", "200",
            "--cluster-size", "10", "--strong", "--ttl", "1",
        )
        assert code == 0
        assert "strong graph" in out

    def test_redundancy_flag(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "analyze", "--graph-size", "200",
            "--cluster-size", "10", "--redundancy",
        )
        assert code == 0
        assert "redundant" in out


class TestSweep:
    def test_cluster_size_sweep(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "sweep", "--graph-size", "300",
            "--param", "cluster_size", "--values", "1,10,30",
        )
        assert code == 0
        assert "cluster_size" in out
        assert out.count("\n") >= 5  # header + rule + 3 rows

    def test_ttl_sweep(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "sweep", "--graph-size", "300",
            "--param", "ttl", "--values", "1,3",
        )
        assert code == 0

    def test_unknown_param_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, *SMALL, "sweep", "--graph-size", "200",
                    "--param", "bogus", "--values", "1")

    def test_parallel_jobs_match_serial(self, capsys):
        argv = [*SMALL, "sweep", "--graph-size", "300",
                "--param", "cluster_size", "--values", "5,10,20"]
        code, serial_out = run_cli(capsys, *argv)
        assert code == 0
        code, parallel_out = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0
        # Identical data rows: jobs only moves work, never changes it.
        assert [ln for ln in serial_out.splitlines() if ln][-3:] == \
            [ln for ln in parallel_out.splitlines() if ln][-3:]

    def test_manifest_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.manifest.json"
        code, out = run_cli(
            capsys, *SMALL, "sweep", "--graph-size", "200",
            "--param", "cluster_size", "--values", "5,10",
            "--manifest-out", str(path),
        )
        assert code == 0
        assert f"sweep manifest -> {path}" in out
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["name"] == "sweep"
        assert any("cluster_size=5" in phase for phase in manifest["phases"])

    def test_param_without_values_rejected(self, capsys):
        with pytest.raises(SystemExit, match="--values"):
            run_cli(capsys, *SMALL, "sweep", "--param", "cluster_size")

    def test_no_grid_rejected(self, capsys):
        with pytest.raises(SystemExit, match="nothing to sweep"):
            run_cli(capsys, *SMALL, "sweep", "--graph-size", "200")


class TestConfigFile:
    def config_path(self, tmp_path, payload) -> str:
        import json

        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_analyze_reads_config_file(self, capsys, tmp_path):
        path = self.config_path(tmp_path, {
            "graph_type": "strong", "graph_size": 200,
            "cluster_size": 10, "ttl": 1,
        })
        code, out = run_cli(capsys, *SMALL, "analyze", "--config", path)
        assert code == 0
        assert "strong graph, 200 peers" in out

    def test_flags_override_config_file(self, capsys, tmp_path):
        path = self.config_path(tmp_path, {"graph_size": 5000, "ttl": 3})
        code, out = run_cli(
            capsys, *SMALL, "analyze", "--config", path,
            "--graph-size", "200",
        )
        assert code == 0
        assert "200 peers" in out
        assert "TTL 3" in out

    def test_sweep_file_declares_grid(self, capsys, tmp_path):
        path = self.config_path(tmp_path, {
            "base": {"graph_size": 300, "ttl": 3},
            "grid": {"cluster_size": [5, 10, 20]},
        })
        code, out = run_cli(capsys, *SMALL, "sweep", "--config", path)
        assert code == 0
        assert "sweep of cluster_size" in out
        assert out.count("\n") >= 5  # header + rule + 3 rows

    def test_unknown_field_in_config_file(self, capsys, tmp_path):
        path = self.config_path(tmp_path, {"graph_sizee": 100})
        assert_usage_error(capsys, [*SMALL, "analyze", "--config", path],
                           "unknown configuration fields")

    def test_ttl_from_flag_file_or_overlay_default(self, tmp_path):
        """A TTL comes from ``--ttl``, else the file, else the overlay:
        1 on a strong overlay (the paper's Figs. 4-6), 7 on a power-law."""
        from repro.cli import _config_from_args

        def ttl(*argv):
            return _config_from_args(build_parser().parse_args(["analyze", *argv])).ttl

        assert ttl("--strong", "--ttl", "4") == 4
        path = self.config_path(tmp_path, {"graph_type": "strong", "ttl": 3})
        assert ttl("--config", path) == 3
        assert ttl("--strong", "--config", path) == 3
        assert ttl("--strong") == 1
        path = self.config_path(tmp_path, {"graph_type": "strong"})
        assert ttl("--config", path) == 1
        assert ttl() == 7

    def test_missing_config_file(self, capsys):
        with pytest.raises(SystemExit, match="cannot read config file"):
            run_cli(capsys, *SMALL, "analyze", "--config", "/no/such/file.json")


class TestDesign:
    def test_feasible_design_exit_zero(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "design", "--users", "600", "--reach", "200",
        )
        assert code == 0
        assert "FEASIBLE" in out

    def test_infeasible_design_exit_one(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "design", "--users", "400", "--reach", "300",
            "--max-in", "1", "--max-out", "1", "--max-proc", "1",
        )
        assert code == 1
        assert "INFEASIBLE" in out


class TestCapacity:
    def test_reports_cluster_size(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "capacity", "--graph-size", "300", "--strong",
            "--ttl", "1", "--max-in", "1e6", "--max-out", "1e6",
            "--max-proc", "5e7",
        )
        assert code == 0
        assert "largest supportable cluster size" in out
        assert "binding resource" in out

    def test_impossible_budget(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "capacity", "--graph-size", "200", "--strong",
            "--ttl", "1", "--max-in", "1", "--max-out", "1", "--max-proc", "1",
        )
        assert code == 1


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "simulate", "--graph-size", "200",
            "--cluster-size", "10", "--duration", "400",
        )
        assert code == 0
        assert "simulated 400s" in out
        assert "queries" in out


class TestResilience:
    def test_runs_and_reports(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "resilience", "--graph-size", "200",
            "--cluster-size", "10", "--redundancy", "--duration", "300",
            "--loss", "0.02",
        )
        assert code == 0
        assert "fault plan: loss=0.02/hop" in out
        assert "query success rate" in out
        assert "super-peer (degraded)" in out
        assert "load inflation" in out

    def test_crash_model_can_be_disabled(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "resilience", "--graph-size", "200",
            "--cluster-size", "10", "--duration", "200",
            "--loss", "0.05", "--recovery", "0", "--max-retries", "0",
        )
        assert code == 0
        plan_line = next(line for line in out.splitlines()
                         if line.startswith("fault plan:"))
        assert "crash" not in plan_line
        assert "retry" not in plan_line
        assert "query success rate" in out


class TestProfile:
    def test_attribution_tables(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "--seed", "1", "profile", "--graph-size", "200",
            "--cluster-size", "10", "--redundancy",
        )
        assert code == 0
        assert "aggregate" in out
        assert "load by action class" in out
        assert "top 10 super-peers by per-partner bandwidth" in out
        assert "response" in out  # the dominant action class shows up

    def test_simulate_adds_timeline(self, capsys):
        code, out = run_cli(
            capsys, *SMALL, "--seed", "1", "profile", "--graph-size", "200",
            "--cluster-size", "10", "--simulate", "120",
        )
        assert code == 0
        assert "query timeline" in out
        assert "completion rate" in out
        assert "mean flood fan-out" in out

    def test_json_and_prom_exports(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "profile.json"
        prom_path = tmp_path / "profile.prom"
        code, _ = run_cli(
            capsys, *SMALL, "--seed", "1", "--metrics", "profile",
            "--graph-size", "200", "--cluster-size", "10",
            "--json", str(json_path), "--prom", str(prom_path),
        )
        assert code == 0
        bundle = json.loads(json_path.read_text(encoding="utf-8"))
        assert bundle["schema"] == 1
        assert "attribution" in bundle and "metrics" in bundle
        assert "# TYPE" in prom_path.read_text(encoding="utf-8")


class TestCrawl:
    def test_summary_table(self, capsys):
        code, out = run_cli(capsys, "crawl", "--graph-size", "1000")
        assert code == 0
        assert "avg_outdegree" in out
        assert "power-law exponent" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_max_sources_is_one_line_usage_error(capsys, value):
    code = main(["--max-sources", value, "analyze", "--graph-size", "200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "--max-sources" in lines[0] and value in lines[0]


@pytest.mark.parametrize("argv, flag", [
    (["--trials", "0", "analyze"], "--trials"),
    (["--trials", "-2", "simulate"], "--trials"),
    (["simulate", "--duration", "-5"], "--duration"),
    (["simulate", "--duration", "0"], "--duration"),
    (["resilience", "--duration", "-1"], "--duration"),
    (["chaos", "--duration", "-1"], "--duration"),
    (["chaos", "--duration", "nan"], "--duration"),
    (["design-risk", "--duration", "0"], "--duration"),
])
def test_nonpositive_trials_and_duration_are_one_line_usage_errors(capsys, argv, flag):
    assert_usage_error(capsys, argv, flag)


@pytest.mark.parametrize("flags, field", [
    (["--graph-size", "-5"], "graph_size"),
    (["--graph-size", "0"], "graph_size"),
    (["--cluster-size", "0"], "cluster_size"),
    (["--graph-size", "5", "--cluster-size", "10"], "cluster_size"),
    (["--cases", "-1"], "cases"),
])
def test_invalid_chaos_specs_are_one_line_usage_errors(capsys, flags, field):
    assert_usage_error(capsys, ["chaos", *flags], field)


def test_empty_chaos_campaign_is_legal(capsys):
    code, out = run_cli(capsys, "chaos", "--cases", "0", "--graph-size", "100")
    assert code == 0
    assert out


@pytest.mark.parametrize("flags, field", [
    (["--loss", "1.0"], "message_loss"),
    (["--loss", "-0.1"], "message_loss"),
    (["--slow-fraction", "1.5"], "fraction"),
    (["--max-retries", "1", "--timeout", "0"], "timeout"),
])
def test_out_of_range_fault_flags_are_one_line_usage_errors(capsys, flags, field):
    assert_usage_error(capsys, ["resilience", "--graph-size", "200", *flags],
                       field)


@pytest.mark.parametrize("argv, field", [
    # Configuration (analyze, simulate, sweep, resilience, ...)
    (["analyze", "--graph-size", "100", "--cluster-size", "0"],
     "cluster_size"),
    # FaultPlan
    (["resilience", "--graph-size", "100", "--loss", "1.0"], "message_loss"),
    # DetectorSpec
    (["resilience", "--graph-size", "100", "--recover", "--heartbeat", "0"],
     "heartbeat_interval"),
    # RecoveryPolicy
    (["resilience", "--graph-size", "100", "--recover",
      "--promotion-time", "-1"], "promotion_time"),
    # ChaosSpec
    (["chaos", "--cases", "-1"], "cases"),
    # RiskSpec
    (["design-risk", "--users", "100", "--reach", "50", "--alpha", "1.5"],
     "alpha"),
    # DesignConstraints, from both design commands
    (["design", "--users", "100", "--reach", "50",
      "--max-connections", "-3"], "max_connections"),
    (["design-risk", "--users", "100", "--reach", "50",
      "--max-connections", "-3"], "max_connections"),
])
def test_every_validated_spec_fails_at_the_cli_boundary(capsys, argv, field):
    assert_usage_error(capsys, argv, field)


class TestResilienceRecover:
    def test_recover_flag_prints_recovery_rows(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "resilience", "--graph-size", "200",
            "--cluster-size", "10", "--redundancy", "--duration", "300",
            "--loss", "0.02", "--recover", "--timeout-beats", "2",
        )
        assert code == 0
        assert "recovery: detect(" in out
        assert "failures detected" in out
        assert "partner promotions" in out
        assert "permanently orphaned clients" in out

    def test_repair_top_prints_hotspots(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "resilience", "--graph-size", "200",
            "--cluster-size", "10", "--redundancy", "--duration", "300",
            "--loss", "0.02", "--recover", "--timeout-beats", "2",
            "--repair-top", "3",
        )
        assert code == 0
        assert "load by action class" in out
        assert "repair" in out

    def test_repair_top_without_recover_explains(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "resilience", "--graph-size", "200",
            "--cluster-size", "10", "--duration", "200", "--loss", "0.02",
            "--max-retries", "0", "--recovery", "0", "--repair-top", "3",
        )
        assert code == 0
        assert "no repair attribution" in out

    def test_no_recover_omits_recovery_rows(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "resilience", "--graph-size", "200",
            "--cluster-size", "10", "--redundancy", "--duration", "200",
            "--loss", "0.02",
        )
        assert code == 0
        assert "failures detected" not in out


class TestCampaignSurface:
    """The shared --executor/--jobs/--jobdir/--journal/--progress parent."""

    SWEEP = [*SMALL, "sweep", "--graph-size", "300",
             "--param", "cluster_size", "--values", "5,10"]

    def data_rows(self, out: str) -> list[str]:
        return [ln for ln in out.splitlines() if ln][-2:]

    def test_executor_flag_on_all_campaign_commands(self):
        parser = build_parser()
        for argv in (["sweep", "--executor", "thread"],
                     ["chaos", "--executor", "thread"],
                     ["resilience", "--executor", "thread"]):
            args = parser.parse_args(argv)
            assert args.executor == "thread"
            assert args.jobs is None
            assert hasattr(args, "jobdir")
            assert hasattr(args, "journal")
            assert hasattr(args, "progress")

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--executor", "mainframe"])

    def test_jobs_implies_process(self, capsys):
        """--jobs N without --executor dispatches on the process backend
        (visible via the table's jobs note) and changes nothing."""
        code, serial_out = run_cli(capsys, *self.SWEEP)
        assert code == 0
        assert "jobs=" not in serial_out
        code, jobs_out = run_cli(capsys, *self.SWEEP, "--jobs", "2")
        assert code == 0
        assert "jobs=2" in jobs_out
        assert self.data_rows(serial_out) == self.data_rows(jobs_out)

    def test_explicit_executor_matches_serial(self, capsys):
        code, serial_out = run_cli(capsys, *self.SWEEP, "--executor", "serial")
        assert code == 0
        code, thread_out = run_cli(capsys, *self.SWEEP,
                                   "--executor", "thread", "--jobs", "2")
        assert code == 0
        assert self.data_rows(serial_out) == self.data_rows(thread_out)

    def test_results_out_identical_across_executors(self, capsys, tmp_path):
        a, b = tmp_path / "serial.json", tmp_path / "thread.json"
        code, _ = run_cli(capsys, *self.SWEEP, "--results-out", str(a))
        assert code == 0
        code, _ = run_cli(capsys, *self.SWEEP, "--executor", "thread",
                          "--jobs", "2", "--results-out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

        import json

        payload = json.loads(a.read_text())
        assert [p["overrides"]["cluster_size"] for p in payload["points"]] \
            == [5, 10]
        assert all("mean" in m and "half_width" in m
                   for p in payload["points"]
                   for m in p["metrics"].values())

    def test_journal_written(self, capsys, tmp_path):
        import json

        journal = tmp_path / "sweep.jsonl"
        code, _ = run_cli(capsys, *self.SWEEP, "--journal", str(journal))
        assert code == 0
        records = [json.loads(ln) for ln in journal.read_text().splitlines()]
        assert records[0]["record"] == "campaign"
        assert records[0]["extra"]["executor"] == "serial"
        assert records[-1]["record"] == "campaign-end"

    def test_resilience_replicates(self, capsys):
        code, out = run_cli(
            capsys, "--seed", "1", "resilience", "--graph-size", "200",
            "--cluster-size", "10", "--duration", "150", "--loss", "0.02",
            "--replicates", "2",
        )
        assert code == 0
        assert "replicates: 2" in out
        assert "query success rate" in out

    def test_tracer_incompatible_with_replicates(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="single run"):
            run_cli(capsys, "--trace-out", str(tmp_path / "t.jsonl"),
                    "resilience", "--graph-size", "200", "--duration", "100",
                    "--replicates", "2")


class TestWorkerCommand:
    def test_exits_zero_on_stop_sentinel(self, capsys, tmp_path):
        (tmp_path / "stop").write_text("")
        code, _ = run_cli(capsys, "worker", str(tmp_path))
        assert code == 0

    def test_startup_timeout_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="job.json"):
            run_cli(capsys, "worker", str(tmp_path),
                    "--startup-timeout", "0")

    def test_max_idle_exits_a_stranded_worker(self, capsys, tmp_path):
        """--max-idle lets a worker give up on a job directory that
        never grows claimable tasks."""
        import json

        jobdir = tmp_path / "job"
        for sub in ("tasks", "claims", "results"):
            (jobdir / sub).mkdir(parents=True)
        (jobdir / "job.json").write_text(json.dumps(
            {"fn": "math:sqrt", "total": 1, "lease": 5.0}
        ))
        code, _ = run_cli(capsys, "worker", str(jobdir),
                          "--max-idle", "0.1")
        assert code == 0

    def test_drains_a_jobfile_campaign(self, capsys, tmp_path):
        """End-to-end: a --jobs 0 jobfile sweep drained by an in-process
        worker thread (the CLI equivalent of a second host)."""
        import threading

        from repro.exec.jobfile import run_worker

        jobdir = tmp_path / "job"
        drained = {}
        thread = threading.Thread(
            target=lambda: drained.update(n=run_worker(jobdir, poll=0.02)))
        thread.start()
        try:
            code, out = run_cli(
                capsys, *SMALL, "sweep", "--graph-size", "300",
                "--param", "cluster_size", "--values", "5,10",
                "--executor", "jobfile", "--jobs", "0",
                "--jobdir", str(jobdir),
            )
        finally:
            thread.join(timeout=60.0)
        assert code == 0
        assert drained["n"] == 2
        assert "sweep of cluster_size" in out


class TestDesignRisk:
    ARGS = [
        "--trials", "1", "--max-sources", "60", "design-risk",
        "--users", "120", "--reach", "60",
        "--max-in", "200000", "--max-out", "200000",
        "--max-proc", "20000000", "--max-connections", "80",
        "--cutoff", "0.05", "--availability-target", "0.9",
        "--duration", "60", "--mean-recovery", "30",
        "--max-candidates", "2",
    ]

    def test_feasible_run_writes_ranked_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "ranked.json"
        code, out = run_cli(capsys, *self.ARGS, "--out", str(out_path))
        assert code == 0
        assert "FEASIBLE" in out
        assert "chosen" in out
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "design-risk"
        assert payload["feasible"] is True
        assert payload["chosen"] is not None
        assert payload["designs"]

    def test_spec_file_supplies_both_sections(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "constraints": {
                "num_users": 120, "desired_reach_peers": 60,
                "max_incoming_bps": 200_000.0,
                "max_outgoing_bps": 200_000.0,
                "max_processing_hz": 20_000_000.0,
                "max_connections": 80,
            },
            "risk": {
                "cutoff": 0.05, "availability_target": 0.9,
                "duration": 60.0, "mean_recovery": 30.0,
                "max_candidates": 2,
            },
        }))
        code, out = run_cli(
            capsys, "--trials", "1", "--max-sources", "60",
            "design-risk", "--spec", str(spec_path),
        )
        assert code == 0
        assert "FEASIBLE" in out

    def test_missing_users_is_usage_error(self, capsys):
        assert_usage_error(capsys, ["design-risk", "--reach", "60"],
                           "--users")

    def test_unknown_risk_key_is_usage_error(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "constraints": {"num_users": 120, "desired_reach_peers": 60},
            "risk": {"cutof": 0.1},
        }))
        assert_usage_error(capsys, ["design-risk", "--spec", str(spec_path)],
                           "unknown RiskSpec key")

    def test_unknown_section_is_usage_error(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"constraint": {}}))
        assert_usage_error(capsys, ["design-risk", "--spec", str(spec_path)],
                           "unknown section")


class TestChaos:
    def test_passing_batch_exits_zero(self, capsys, tmp_path):
        report_path = tmp_path / "chaos.json"
        manifest_path = tmp_path / "chaos.manifest.json"
        code, out = run_cli(
            capsys, "--seed", "100", "chaos", "--cases", "2",
            "--duration", "150", "--graph-size", "150",
            "--report", str(report_path),
            "--manifest-out", str(manifest_path),
        )
        assert code == 0
        assert "chaos verdict: all invariants held" in out
        assert report_path.exists() and manifest_path.exists()

        import json

        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert len(payload["cases"]) == 2

    def test_violations_exit_one(self, capsys, monkeypatch):
        # Force a violation through the invariant checker to prove the
        # exit code actually wires through.
        from repro.sim import chaos as chaos_mod

        real = chaos_mod.check_invariants

        def broken(report, instance, policy):
            return real(report, instance, policy) + ["forced violation"]

        monkeypatch.setattr(chaos_mod, "check_invariants", broken)
        code, out = run_cli(
            capsys, "--seed", "100", "chaos", "--cases", "1",
            "--duration", "120", "--graph-size", "150", "--no-replay",
        )
        assert code == 1
        assert "forced violation" in out
        assert "violated invariants" in out
