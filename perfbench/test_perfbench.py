"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They need no timed run: metric names, the artifact comparison, the
self-time arithmetic, the worker spill and the removal of the tracing
wrappers are each checked on small inputs.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

RESULTS = REPO / "benchmarks" / "results"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------ metric names


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _ in run.END_TO_END] + [n for n, _, _ in report.PER_LAYER]
    names += list(run.WORKLOADS)
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    end_to_end = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    assert end_to_end == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert per_layer == report.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_has_a_computation():
    summary = report.summarize([{"pid": 1, "spans": []}], root_pid=1)
    computed = set(report.layer_metrics(summary, 1.0))
    declared = {n for n, _, _ in report.PER_LAYER}
    # the overhead needs untraced passes too, so run.py adds it
    assert declared - computed == {"obs.trace_overhead_pct"}
    assert computed <= declared


# ------------------------------------------------------------ artifacts


def _golden() -> dict[str, str]:
    # the CLI writes each artifact as its text plus a newline
    return {
        name: (RESULTS / filename).read_text(encoding="utf-8")[:-1]
        for name, filename in run.ARTIFACTS.items()
    }


def test_reference_artifacts_match_themselves():
    assert run.artifact_mismatches(_golden(), RESULTS) == []


@pytest.mark.parametrize("name", sorted(run.ARTIFACTS))
def test_one_byte_change_is_caught(name):
    rendered = _golden()
    text = rendered[name]
    middle = len(text) // 2
    swapped = "#" if text[middle] != "#" else "%"
    rendered[name] = text[:middle] + swapped + text[middle + 1 :]
    assert run.artifact_mismatches(rendered, RESULTS) == [name]


def test_missing_artifact_is_a_failure():
    rendered = _golden()
    del rendered["fig10"]
    assert run.artifact_mismatches(rendered, RESULTS) == ["fig10"]


# ------------------------------------------------------------ host times


def test_a_uniformly_slower_host_reports_the_same_times():
    def one_pass(slowdown):
        result = {"spawn_ns": 0, "ready_ns": int(0.2e9 * slowdown)}
        wall = 1.5 * slowdown
        return run.Pass(wall, wall, 60.0, result, 0, scale=1 / slowdown)

    quiet = run.end_to_end([one_pass(1.0)], [], None)
    busy = run.end_to_end([one_pass(1.7)], [], None)
    for name in ("wall_s", "cpu_s", "setup_s"):
        assert busy[name] == pytest.approx(quiet[name])
    assert busy["unscaled_wall_s"] == pytest.approx([1.5 * 1.7])


# ------------------------------------------------------------ self time


def _span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, None, attrs]


def test_self_time_of_a_nested_tree():
    # root 0..100 with children 10..30 and 40..90; the second child
    # has a grandchild 50..60 and the first a zero-length one.
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 30, 0),
        _span("b", 40, 90, 0),
        _span("c", 50, 60, 2),
        _span("d", 20, 20, 1),
    ]
    assert spans.self_times(tree) == [30, 20, 40, 10, 0]
    # self times of one process add up to the root's duration
    assert sum(spans.self_times(tree)) == 100


def test_overlapping_children_count_once():
    assert spans.covered_ns(0, 100, [(10, 50), (40, 60), (90, 120)]) == 60


def test_summary_counts_root_process_only_for_coverage():
    batch = {"jobs": 2, "cells": 3, "cached": 1}
    root = [_span("eval.render", 0, 100), _span("runtime.executor", 10, 90, 0, batch)]
    worker = [
        _span("runtime.task.evaluate", 20, 60),
        _span("eval.run_workload", 25, 55, 0, {"memo_hit": True}),
        _span("runtime.task.evaluate", 60, 80),
        _span("eval.run_workload", 61, 79, 2, {"memo_hit": False}),
    ]
    processes = [{"pid": 1, "spans": root}, {"pid": 2, "spans": worker}]
    summary = report.summarize(processes, root_pid=1)
    assert summary["root_self_ns"] == 100
    assert summary["evaluate_memo_hits"] == 1
    m = report.layer_metrics(summary, 100e-9)
    assert m["runtime.executor.cells"] == 3
    assert m["runtime.executor.cells_cached"] == 1
    assert m["runtime.executor.cells_simulated"] == 1
    assert m["eval.run_workload.memo_hits"] == 1
    assert m["runtime.executor.pool_util"] == pytest.approx(60 / (2 * 80))
    assert m["trace.coverage_pct"] == pytest.approx(100.0)


def test_forked_worker_spills_its_own_spans(tmp_path):
    rec = spans.Recorder(tmp_path)
    outer = rec.open("runtime.executor")
    pid = os.fork()
    if pid == 0:  # the worker: inherits the open parent span
        try:
            with rec.span("runtime.task.evaluate", tag="cell"):
                pass
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    rec.close(outer)
    procs = rec.collect()
    assert [p["pid"] for p in procs] == [os.getpid(), pid]
    assert [s[spans.NAME] for s in procs[0]["spans"]] == ["runtime.executor"]
    worker = [(s[spans.NAME], s[spans.PARENT], s[spans.TAG]) for s in procs[1]["spans"]]
    assert worker == [("runtime.task.evaluate", -1, "cell")]


# ------------------------------------------------------------ wrappers


def installed_wrappers() -> list[str]:
    """Every tracing wrapper reachable from a loaded ``repro`` module
    or class."""
    found = []
    for mod in spans.repro_modules():
        for attr, value in list(vars(mod).items()):
            if getattr(value, spans.WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{attr}.{meth}"
                    for meth, fn in vars(value).items()
                    if getattr(fn, spans.WRAPPED_MARK, False)
                ]
    return found


def test_wrappers_are_fully_removed():
    import repro.cli  # noqa: F401  (loads every module a pass uses)
    import repro.tmu  # noqa: F401

    assert installed_wrappers() == []
    installed = spans.install(spans.Recorder())
    assert installed.missing == []
    assert installed_wrappers()
    originals = list(installed.undo)
    installed.remove()
    assert installed_wrappers() == []
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original


def test_traced_calls_return_the_same_answer():
    import repro.eval.workloads as workloads
    from repro.generators.suite import load_matrix

    plain = load_matrix("M5", "small")
    rec = spans.Recorder()
    installed = spans.install(rec)
    try:
        traced = workloads.load_matrix("M5", "small")
    finally:
        installed.remove()
    assert traced is plain
    assert [s[spans.NAME] for s in rec.spans] == ["generators"]
