"""Tests for the ``repro stats`` CLI and the ``--telemetry`` flag.

Exercises the snapshot commands the ``bench-smoke`` CI job runs: dump
a snapshot and diff it against a baseline (informational; the gate is
``repro query regressions``, tested in ``tests/test_cli_query.py``).
"""

import json

import pytest

from repro.cli import main
from repro.obs import Registry, make_snapshot, write_snapshot


@pytest.fixture()
def snapshots(tmp_path):
    """(baseline, same, slower) snapshot files on disk."""

    def snap(path, cells_per_sec):
        reg = Registry()
        reg.counter("runtime.executor.cells").add(12)
        reg.gauge("runtime.executor.cells_per_sec").set(cells_per_sec)
        reg.timer("runtime.executor.batch").observe(1.0)
        return write_snapshot(make_snapshot(reg), path)

    return (
        snap(tmp_path / "baseline.json", 10.0),
        snap(tmp_path / "same.json", 10.0),
        snap(tmp_path / "slower.json", 7.0),
    )


class TestStatsDump:
    def test_dump_renders_metrics(self, snapshots, capsys):
        baseline, _, _ = snapshots
        assert main(["stats", "dump", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "schema: repro.obs/1" in out
        assert "runtime.executor.cells_per_sec" in out

    def test_dump_json_round_trips(self, snapshots, capsys):
        baseline, _, _ = snapshots
        assert main(["stats", "dump", str(baseline), "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["gauges"]["runtime.executor.cells_per_sec"]["value"] == 10.0

    def test_dump_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["stats", "dump", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dump_rejects_schema_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.obs/1"}))
        assert main(["stats", "dump", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestStatsDiff:
    def test_diff_without_gate_always_exits_zero(self, snapshots, capsys):
        baseline, _, slower = snapshots
        assert main(["stats", "diff", str(baseline), str(slower)]) == 0
        out = capsys.readouterr().out
        assert "runtime.executor.cells_per_sec" in out

    def test_changed_only_hides_identical_rows(self, snapshots, capsys):
        baseline, same, _ = snapshots
        assert (
            main(["stats", "diff", str(baseline), str(same), "--changed-only"]) == 0
        )
        out = capsys.readouterr().out
        assert "runtime.executor.cells" not in out


class TestTelemetryFlag:
    def test_experiment_writes_schema_valid_snapshot(self, tmp_path, capsys):
        from repro.obs import load_snapshot

        out = tmp_path / "run.json"
        rc = main(
            [
                "table5",
                "--no-cache",
                "--telemetry",
                str(out),
            ]
        )
        assert rc == 0
        snap = load_snapshot(out)
        assert snap["meta"]["experiments"] == "table5"
        capsys.readouterr()
