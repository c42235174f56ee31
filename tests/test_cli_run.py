"""Slow-path CLI tests: the deployment and report commands."""

import re

import pytest

from repro.cli import main


class TestCliDeployment:
    def test_run_command_end_to_end(self, capsys):
        """`python -m repro run` trains offline and deploys."""
        code = main([
            "run", "--dataset", "1", "--mode", "full",
            "--budget", "2.0", "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "humans detected" in out
        assert "energy" in out
        assert "cameras/round" in out

    def test_run_perf_report(self, capsys):
        """`--perf-report` prints one row per timed phase plus the
        calibration-cache counters."""
        code = main([
            "run", "--dataset", "1", "--mode", "full",
            "--start", "1000", "--end", "1300", "--perf-report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # A row names its phase as a whitespace- or ';'-separated token
        # (a span path such as ``run;round;assessment`` counts).
        tokens = [set(re.split(r"[;\s]+", line)) for line in out.splitlines()]
        for phase in (
            "offline_training",
            "assessment",
            "selection",
            "detection",
            "reid_grouping",
        ):
            assert any(phase in row for row in tokens), (phase, out)
        assert "calibration cache:" in out

    def test_fig3_command(self, capsys, runner1, dataset2):
        code = main(["fig3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive" in out


class TestCliCheckpoint:
    BASE = [
        "run", "--dataset", "1", "--mode", "full", "--seed", "7",
        "--start", "1000", "--end", "1300",
        "--recalibration-interval", "100",
    ]

    def test_run_checkpoint_crash_and_resume(self, capsys, tmp_path):
        """Kill at a round boundary (exit 3), resume bit-identically."""
        reference = tmp_path / "reference.json"
        resumed = tmp_path / "resumed.json"
        ckpt = tmp_path / "ckpt"

        code = main(self.BASE + ["--result-out", str(reference)])
        assert code == 0

        code = main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--crash-after", "0",
        ])
        assert code == 3
        assert "interrupted" in capsys.readouterr().out
        assert list(ckpt.glob("*.json")), "no checkpoint written"

        code = main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--resume",
            "--result-out", str(resumed),
        ])
        assert code == 0
        assert reference.read_bytes() == resumed.read_bytes()

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--resume"])
