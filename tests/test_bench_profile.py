"""Tests for the cProfile hotspot report (``python -m repro bench profile``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.profiling import profile_workload
from repro.cli import main as cli_main


class TestProfile:
    def test_profile_section_aggregates_subsystems(self):
        profile = profile_workload(num_transactions=60, top=10, warmup=False)
        assert profile["workload"] == "growth_stress"
        subsystems = {row["subsystem"] for row in profile["subsystems"]}
        # The layers the optimisation pass targets must be visible.
        assert {"rocq", "sim", "overlay"} <= subsystems
        assert profile["top_functions"]
        assert sum(row["share"] for row in profile["subsystems"]) == pytest.approx(
            1.0, abs=0.02
        )


class TestCli:
    def test_profile_writes_the_json_report(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        argv = ["bench", "profile", "--transactions", "60", "--top", "5"]
        exit_code = cli_main([*argv, "--out", str(out), "--json"])
        assert exit_code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["benchmark"] == "profile"
        assert report["num_transactions"] == 60
        assert len(report["top_functions"]) == 5
        # --json prints the same document that was written.
        assert json.loads(capsys.readouterr().out) == report

    def test_bare_bench_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["bench"])
        assert excinfo.value.code == 2
        assert "profile" in capsys.readouterr().err
