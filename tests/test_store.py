"""Tests for repro.store: schema, ingest, queries, auto-ingest hooks.

The store's contract is threefold: numbers survive the round trip
(manifest / snapshot / journal in, identical numbers out), ingest is
idempotent (content-addressed run keys), and a future schema version
is refused rather than silently misread.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro import obs
from repro.errors import StoreError
from repro.obs import Registry
from repro.obs.snapshot import make_snapshot
from repro.obs.tracing import make_trace
from repro.runtime import ManifestEntry, NullCache, RunManifest, Runtime, SimTask
from repro.store import (
    HEADLINE_METRIC,
    STORE_SCHEMA,
    ExperimentStore,
    cell_outcomes,
    cells_per_sec,
    ingest_file,
    ingest_job,
    ingest_manifest,
    ingest_paths,
    ingest_snapshot,
    ingest_trace,
    metric_values,
    open_db,
    regressions,
    runs_overview,
    stall_shares,
)

# ------------------------------------------------------------ test sources


def bench_snapshot(rev: str, cps: float, created: float,
                   cells: int = 10) -> dict:
    """A synthetic ``repro.obs/1`` snapshot with a known headline."""
    reg = Registry()
    reg.counter("runtime.executor.cells").add(cells)
    reg.counter("runtime.executor.cells_simulated").add(cells)
    reg.timer("runtime.executor.batch").observe(cells / cps)
    reg.gauge(HEADLINE_METRIC).set(cps)
    snap = make_snapshot(reg, meta={"rev": rev})
    snap["created_unix"] = created
    return snap


def manifest(rev: str = "r1", created: float = 100.0) -> RunManifest:
    entries = [
        ManifestEntry(hash=f"h{i}", workload="spmv", input_id=f"M{i}",
                      scale="small", variants=["base", "tmu"],
                      cached=(i == 0), wall_time=0.5, attempts=1)
        for i in range(3)
    ]
    entries.append(ManifestEntry(
        hash="h9", workload="spkadd", input_id="T1", scale="small",
        variants=["tmu"], cached=False, wall_time=2.0, attempts=2,
        error="boom"))
    return RunManifest(jobs=2, mode="process-pool", created_at=created,
                       wall_time=4.0, entries=entries, rev=rev)


def job_record(created: float = 200.0) -> tuple[dict, list[dict]]:
    job = {
        "schema": "repro.serve/1",
        "id": "j" * 64, "state": "done", "client": "test",
        "created_at": created, "started_at": created + 1,
        "finished_at": created + 5,
        "total": 2, "cached": 0, "simulated": 2, "failed": 0,
        "cells": ["a" * 64, "b" * 64],
        "sweep": {"workloads": ["spmv"]},
    }
    events = [
        {"kind": "cell", "task_hash": "a" * 64,
         "label": "spmv/M1@small", "state": "simulated",
         "elapsed": 1.5, "attempt": 1},
        {"kind": "cell", "task_hash": "b" * 64,
         "label": "spmv/M2@small", "state": "simulated",
         "elapsed": 2.5, "attempt": 1},
        {"kind": "job", "event": "done"},
    ]
    return job, events


def layer_trace(rev: str = "r1", stalls: int = 20) -> dict:
    with obs.trace_capture() as tr:
        tr.span("tmu.tg.layer0", "layer_summary", 0, 100, {
            "layer": 0, "lanes": 4, "activations": 1,
            "iterations": 50, "merge_steps": 100,
            "stall_advances": stalls})
        tr.span("tmu.engine", "run", 0, 100, {
            "iterations": 50, "records": 10, "memory_lines": 5})
        trace = make_trace(tr, meta={"rev": rev, "workloads": "spmv"})
    return trace


@pytest.fixture
def store(tmp_path):
    with ExperimentStore(tmp_path / "db.sqlite") as db:
        yield db


# ----------------------------------------------------------------- schema


class TestSchema:
    def test_fresh_store_is_created_and_reopens(self, tmp_path):
        path = tmp_path / "db.sqlite"
        with ExperimentStore(path) as db:
            assert db.schema == STORE_SCHEMA
            assert db.counts()["runs"] == 0
        with ExperimentStore(path) as db:   # reopen: same schema, no-op
            assert db.counts()["runs"] == 0

    def test_future_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "db.sqlite"
        ExperimentStore(path).close()
        con = sqlite3.connect(path)
        con.execute("UPDATE store_meta SET value = 'repro.store/2' "
                    "WHERE key = 'schema'")
        con.commit()
        con.close()
        with pytest.raises(StoreError, match="repro.store/2"):
            open_db(path)

    def test_non_database_file_is_refused(self, tmp_path):
        path = tmp_path / "not-a-db.sqlite"
        path.write_text("this is not sqlite", encoding="utf-8")
        with pytest.raises(StoreError):
            ExperimentStore(path)

    def test_unknown_run_kind_rejected(self, store):
        with pytest.raises(StoreError, match="unknown run kind"):
            store.add_run(run_key="k", kind="nope", rev=None,
                          created_unix=None, source=None)

    def test_closed_store_raises(self, tmp_path):
        db = ExperimentStore(tmp_path / "db.sqlite")
        db.close()
        with pytest.raises(StoreError, match="closed"):
            db.runs()


# ------------------------------------------------------------- round trips


class TestManifestRoundTrip:
    def test_numbers_survive(self, store, tmp_path):
        m = manifest()
        path = m.write(tmp_path / "manifest.json")
        summary = ingest_manifest(store, path)
        assert summary["created"] and summary["rev"] == "r1"
        (stats,) = store.sql("SELECT * FROM run_stats")
        assert stats["cells"] == m.total == 4
        assert stats["cached"] == m.cache_hits == 1
        assert stats["simulated"] == m.simulated == 2
        assert stats["failed"] == len(m.failures) == 1
        assert stats["wall_time"] == m.wall_time
        assert stats["cells_per_sec"] == pytest.approx(
            m.simulated / m.wall_time)
        cells = store.sql("SELECT * FROM cells ORDER BY task_hash")
        assert len(cells) == 4
        by_hash = {c["task_hash"]: c for c in cells}
        assert by_hash["h0"]["cached"] == 1
        assert by_hash["h9"]["error"] == "boom"
        assert by_hash["h9"]["attempts"] == 2
        assert by_hash["h1"]["variants"] == "base,tmu"

    def test_double_ingest_is_a_noop(self, store, tmp_path):
        path = manifest().write(tmp_path / "manifest.json")
        first = ingest_manifest(store, path)
        before = store.counts()
        again = ingest_manifest(store, path)
        assert again["created"] is False
        assert again["run_id"] == first["run_id"]
        assert store.counts() == before


class TestSnapshotRoundTrip:
    def test_numbers_survive(self, store):
        snap = bench_snapshot("r1", cps=20.0, created=50.0)
        summary = ingest_snapshot(store, snap)
        assert summary["created"] and summary["kind"] == "snapshot"
        (stats,) = store.sql("SELECT * FROM run_stats")
        assert stats["cells"] == 10
        assert stats["simulated"] == 10
        assert stats["cells_per_sec"] == pytest.approx(20.0)
        values = metric_values(store, HEADLINE_METRIC)
        assert [v["value"] for v in values] == [pytest.approx(20.0)]

    def test_bench_filename_sets_the_kind(self, store, tmp_path):
        path = tmp_path / "BENCH_r1.json"
        path.write_text(json.dumps(bench_snapshot("r1", 20.0, 50.0)),
                        encoding="utf-8")
        assert ingest_snapshot(store, path)["kind"] == "bench"

    def test_invalid_snapshot_is_refused(self, store):
        with pytest.raises(Exception):
            ingest_snapshot(store, {"schema": "repro.obs/999"})

    def test_double_ingest_is_a_noop(self, store):
        snap = bench_snapshot("r1", cps=20.0, created=50.0)
        ingest_snapshot(store, snap)
        before = store.counts()
        assert ingest_snapshot(store, snap)["created"] is False
        assert store.counts() == before


class TestJobRoundTrip:
    def test_numbers_survive(self, store):
        job, events = job_record()
        summary = ingest_job(store, job, events=events)
        assert summary["created"] and summary["kind"] == "serve-job"
        (stats,) = store.sql("SELECT * FROM run_stats")
        assert stats["cells"] == 2 and stats["simulated"] == 2
        assert stats["wall_time"] == pytest.approx(4.0)
        assert stats["cells_per_sec"] == pytest.approx(0.5)
        cells = store.sql("SELECT * FROM cells ORDER BY task_hash")
        assert [c["workload"] for c in cells] == ["spmv", "spmv"]
        assert [c["input_id"] for c in cells] == ["M1", "M2"]
        assert cells[0]["wall_time"] == pytest.approx(1.5)

    def test_journal_file_reads_sibling_events(self, store, tmp_path):
        job, events = job_record()
        (tmp_path / "job.json").write_text(json.dumps(job),
                                           encoding="utf-8")
        (tmp_path / "job.events.jsonl").write_text(
            "\n".join(json.dumps(e) for e in events) + "\n{torn",
            encoding="utf-8")
        ingest_job(store, tmp_path / "job.json")
        assert store.counts()["cells"] == 2

    def test_double_ingest_is_a_noop(self, store):
        job, events = job_record()
        ingest_job(store, job, events=events)
        before = store.counts()
        assert ingest_job(store, job, events=events)["created"] is False
        assert store.counts() == before


class TestTraceRoundTrip:
    def test_layer_summaries_survive(self, store):
        ingest_trace(store, layer_trace(stalls=25))
        rows, _ = stall_shares(store, by="layer")
        (layer0,) = [r for r in rows if r["layer"] == "tmu.tg.layer0"]
        assert layer0["merge_steps"] == 100
        assert layer0["stalls"] == 25
        assert layer0["stall_share"] == pytest.approx(0.25)

    def test_stalls_group_by_rev_and_workload(self, store):
        ingest_trace(store, layer_trace(rev="r1", stalls=10))
        ingest_trace(store, layer_trace(rev="r2", stalls=30))
        by_rev, _ = stall_shares(store, by="rev")
        assert {r["rev"]: r["stalls"] for r in by_rev} == \
            {"r1": 10, "r2": 30}
        by_wl, _ = stall_shares(store, by="workload")
        (row,) = by_wl
        assert row["workload"] == "spmv" and row["stalls"] == 40


# ---------------------------------------------------------------- sniffing


class TestIngestFiles:
    def test_sniffer_routes_every_shape(self, store, tmp_path):
        manifest().write(tmp_path / "manifest.json")
        (tmp_path / "BENCH_r2.json").write_text(
            json.dumps(bench_snapshot("r2", 15.0, 60.0)),
            encoding="utf-8")
        (tmp_path / "trace.json").write_text(
            json.dumps(layer_trace()), encoding="utf-8")
        job, events = job_record()
        (tmp_path / "job.json").write_text(json.dumps(job),
                                           encoding="utf-8")
        kinds = {ingest_file(store, tmp_path / n)["kind"]
                 for n in ("manifest.json", "BENCH_r2.json",
                           "trace.json", "job.json")}
        assert kinds == {"manifest", "bench", "trace", "serve-job"}

    def test_unrecognized_file_raises(self, store, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}', encoding="utf-8")
        with pytest.raises(StoreError, match="unrecognized"):
            ingest_file(store, path)

    def test_directory_walk_skips_what_it_cannot_read(
            self, store, tmp_path):
        manifest().write(tmp_path / "manifest.json")
        (tmp_path / "junk.json").write_text("[1, 2]", encoding="utf-8")
        (tmp_path / "bad-schema.json").write_text(
            '{"schema": "repro.obs/999"}', encoding="utf-8")
        results = ingest_paths(store, [tmp_path])
        assert [r["kind"] for r in results] == ["manifest"]


# ------------------------------------------------------------------ queries


class TestQueries:
    def _trajectory(self, store):
        ingest_snapshot(store, bench_snapshot("r1", 6.0, 100.0))
        ingest_snapshot(store, bench_snapshot("r2", 15.0, 200.0))
        ingest_snapshot(store, bench_snapshot("r2", 16.0, 300.0))

    def test_cells_per_sec_by_rev(self, store):
        self._trajectory(store)
        rows, columns = cells_per_sec(store, by="rev")
        assert columns == ["rev", "runs", "latest", "best"]
        assert [r["rev"] for r in rows] == ["r1", "r2"]
        assert rows[1]["runs"] == 2
        assert rows[1]["latest"] == pytest.approx(16.0)
        assert rows[1]["best"] == pytest.approx(16.0)

    def test_headline_unifies_snapshots_and_manifests(
            self, store, tmp_path):
        ingest_snapshot(store, bench_snapshot("r1", 6.0, 100.0))
        ingest_manifest(store, manifest(rev="r2", created=200.0))
        values = metric_values(store, HEADLINE_METRIC)
        assert [v["kind"] for v in values] == ["snapshot", "manifest"]
        assert values[1]["value"] == pytest.approx(0.5)

    def test_runs_overview_lists_everything(self, store, tmp_path):
        self._trajectory(store)
        ingest_trace(store, layer_trace())
        rows, _ = runs_overview(store)
        assert len(rows) == 4
        assert [r["kind"] for r in rows].count("snapshot") == 3

    def test_cell_outcomes_filter(self, store, tmp_path):
        ingest_manifest(store, manifest())
        rows, _ = cell_outcomes(store)
        assert {r["workload"] for r in rows} == {"spmv", "spkadd"}
        rows, _ = cell_outcomes(store, "spkadd")
        (row,) = rows
        assert row["failed"] == 1

    def test_regression_gate_trips_on_degraded_latest(self, store):
        self._trajectory(store)
        ingest_snapshot(store, bench_snapshot("r3", 3.0, 400.0))
        rows, _, ok = regressions(store, bound=0.2)
        assert ok is False
        assert rows[0]["status"] == "baseline"
        assert rows[-1]["status"] == "REGRESSION"
        assert rows[-1]["change"] == pytest.approx(-0.5)

    def test_regression_gate_passes_within_bound(self, store):
        self._trajectory(store)
        _, _, ok = regressions(store, bound=0.2)
        assert ok is True

    def test_regression_baseline_by_rev_and_best(self, store):
        self._trajectory(store)
        ingest_snapshot(store, bench_snapshot("r3", 10.0, 400.0))
        # explicit rev: newest r2 run (16.0); latest (10.0) is -37.5%
        rows, _, ok = regressions(store, baseline="r2", bound=0.2)
        assert ok is False
        assert rows[-1]["change"] == pytest.approx(-0.375)
        # r1's 6.0 as baseline: 10.0 is an improvement
        _, _, ok = regressions(store, baseline="r1", bound=0.2)
        assert ok is True
        # 'best' picks the 16.0 run regardless of rev
        rows, _, ok = regressions(store, baseline="best", bound=0.2)
        assert ok is False

    def test_regression_lower_is_better_flips_direction(self, store):
        self._trajectory(store)
        # 6.0 -> 16.0 is a gain for a rate but a regression for a cost
        rows, _, ok = regressions(store, bound=0.2, lower_is_better=True)
        assert ok is False
        assert rows[-1]["status"] == "REGRESSION"
        assert rows[-1]["change"] == pytest.approx(1.6667)

    def test_regression_on_a_missing_metric_raises(self, store):
        self._trajectory(store)
        with pytest.raises(StoreError, match="carries 'nonexistent'"):
            regressions(store, metric="nonexistent")

    def test_regression_unknown_rev_raises(self, store):
        self._trajectory(store)
        with pytest.raises(StoreError, match="no run with rev"):
            regressions(store, baseline="nope")

    def test_empty_store_raises(self, store):
        with pytest.raises(StoreError, match="no run"):
            regressions(store)


# -------------------------------------------------------------------- hooks


class TestAutoIngestHooks:
    def test_runtime_ingests_every_batch(self, tmp_path):
        db_path = tmp_path / "db.sqlite"
        rt = Runtime(jobs=1, cache=NullCache(), store=str(db_path))
        rt.run_cells([SimTask("spmv", "M1")])
        with ExperimentStore(db_path) as db:
            runs = db.runs()
            assert [r["kind"] for r in runs] == ["manifest"]
            (stats,) = db.sql("SELECT * FROM run_stats")
            assert stats["cells"] == 1 and stats["failed"] == 0

    def test_runtime_without_store_writes_nothing(self, tmp_path):
        rt = Runtime(jobs=1, cache=NullCache())
        rt.run_cells([SimTask("spmv", "M1")])
        assert not list(tmp_path.glob("*.sqlite"))

    def test_scheduler_ingests_finished_jobs(self, tmp_path):
        from repro.serve import JobQueue, JobStore, Scheduler, Submission

        db_path = tmp_path / "db.sqlite"

        class FakeRuntime:
            def run(self, tasks):
                from repro.runtime import (
                    RunManifest,
                    RunReport,
                    TaskOutcome,
                )
                outcomes = [TaskOutcome(task=t, record={"fake": True},
                                        cached=False, wall_time=0.0,
                                        attempts=1) for t in tasks]
                return RunReport(outcomes=outcomes,
                                 manifest=RunManifest(jobs=1,
                                                      mode="serial"))

        sched = Scheduler(JobStore(tmp_path / "jobs"), JobQueue(),
                          runtime_factory=lambda progress: FakeRuntime(),
                          store_path=str(db_path))
        sched.start()
        try:
            job, _ = sched.submit(Submission.from_dict(
                {"sweep": {"workloads": ["spmv"], "inputs": ["M1"]}}))
            import time
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if sched.store.get(job.id).state.terminal:
                    break
                time.sleep(0.02)
        finally:
            sched.stop()
        with ExperimentStore(db_path) as db:
            kinds = [r["kind"] for r in db.runs()]
            assert "serve-job" in kinds
