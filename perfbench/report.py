"""Per-layer numbers from a traced pass, and the table that shows them.

    python3 perfbench/report.py [WORKLOAD]

prints the per-layer table of the last traced run of WORKLOAD (every
workload traced so far when omitted): each layer's calls and self time
per pass, its share of the traced pass's wall time, and the end-to-end
metric a change to that layer should move.  ``run.py --trace 1``
prints the same table before its result line.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from pathlib import Path

from spans import ATTRS, END, NAME, PARENT, START, self_times

#: where run.py keeps the last traced run of each workload.
TRACE_FILE = ".perfbench/trace-{workload}.json"

#: every layer a span can name, with the end-to-end metric (and
#: workload) a change to that layer should move.  Shares are those of
#: a cProfile of cold ``repro all`` at the rev the benchmark was made.
LAYERS = {
    "bench.setup": "setup_s everywhere (interpreter, imports, configure)",
    "generators": "wall_s on warm-rerun (~28%); ~2% on cold-serial",
    "kernels.characterize": "wall_s, cpu_s on cold-serial (26%), fill-jobs2",
    "programs.timing_model": "wall_s on cold-serial (14%)",
    "programs.build": "wall_s on engine-validate",
    "sim.memsys.walk": "wall_s on cold-serial (23%, stack distance excluded)",
    "sim.stackdist": "wall_s on cold-serial (30%)",
    "sim.memsys.walk_cache.lookup": "wall_s on fill-jobs2 and cold-serial",
    "sim.memsys.walk_cache.put": "wall_s on fill-jobs2 (digests, disk writes)",
    "sim.core": "none: <1% everywhere, the predicted no-move",
    "eval.run_workload": "wall_s on cold-serial (memo bookkeeping)",
    "eval.render": "wall_s on warm-rerun (figure assembly)",
    "runtime.executor": "wall_s on fill-jobs2 (pool wait)",
    "runtime.task.evaluate": "wall_s on cold-serial (record building)",
    "runtime.task.hash": "wall_s on warm-rerun",
    "runtime.cache.get": "wall_s on warm-rerun",
    "runtime.cache.put": "wall_s on fill-jobs2",
    "runtime.manifest.write": "wall_s on warm-rerun (~17%)",
    "tmu.engine.spmv": "wall_s on engine-validate (lockstep gather)",
    "tmu.engine.spkadd": "wall_s on engine-validate (disjunctive merge)",
    "bench.check": "none: the benchmark's own output checks",
    "pass.exit": "wall_s everywhere (span write-out, interpreter exit)",
}

#: the per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER = [
    ("generators.calls", "count", "lower"),
    ("generators.self_s", "s", "lower"),
    ("kernels.characterize.calls", "count", "lower"),
    ("kernels.characterize.self_s", "s", "lower"),
    ("programs.timing_model.calls", "count", "lower"),
    ("programs.timing_model.self_s", "s", "lower"),
    ("programs.build.self_s", "s", "lower"),
    ("sim.memsys.walk.calls", "count", "lower"),
    ("sim.memsys.walk.self_s", "s", "lower"),
    ("sim.stackdist.calls", "count", "lower"),
    ("sim.stackdist.self_s", "s", "lower"),
    ("sim.stackdist.lines", "count", "lower"),
    ("sim.memsys.walk_cache.lookup_s", "s", "lower"),
    ("sim.memsys.walk_cache.put_s", "s", "lower"),
    ("sim.memsys.walk_cache.hit_ratio", "ratio", "higher"),
    ("sim.core.calls", "count", "lower"),
    ("sim.core.self_s", "s", "lower"),
    ("eval.run_workload.calls", "count", "lower"),
    ("eval.run_workload.memo_hits", "count", "higher"),
    ("eval.render.self_s", "s", "lower"),
    ("runtime.executor.cells", "count", "lower"),
    ("runtime.executor.cells_simulated", "count", "lower"),
    ("runtime.executor.cells_cached", "count", "higher"),
    ("runtime.executor.pool_util", "ratio", "higher"),
    ("runtime.executor.wait_s", "s", "lower"),
    ("runtime.task.hash_s", "s", "lower"),
    ("runtime.cache.get_s", "s", "lower"),
    ("runtime.cache.put_s", "s", "lower"),
    ("runtime.cache.hit_ratio", "ratio", "higher"),
    ("runtime.manifest.write_s", "s", "lower"),
    ("tmu.engine.spmv.self_s", "s", "lower"),
    ("tmu.engine.spkadd.self_s", "s", "lower"),
    ("tmu.engine.iterations", "count", "lower"),
    ("tmu.engine.merge_steps", "count", "lower"),
    ("tmu.engine.outq_records", "count", "lower"),
    ("tmu.engine.iters_per_s", "1/s", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
]

#: per-layer metrics that count work; they must repeat exactly.
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def _memo_hit_in_cell(span: list, spans: list[list]) -> bool:
    """A ``run_workload`` memo hit made for a cell evaluation."""
    if span[NAME] != "eval.run_workload" or not span[ATTRS]:
        return False
    parent = span[PARENT]
    in_cell = parent >= 0 and spans[parent][NAME] == "runtime.task.evaluate"
    return in_cell and bool(span[ATTRS].get("memo_hit"))


def summarize(processes: list[dict], root_pid: int) -> dict:
    """Fold one traced pass's spans into per-layer totals.

    Returns ``{"layers": {name: {calls, self_ns, dur_ns, attrs}},
    "root_self_ns": ..., "evaluate_memo_hits": ...}``; ``root_self_ns``
    is the time the pass's own process spent inside any span, which
    is what the coverage check compares with wall time (workers run
    beside the parent, so their time is not added to it)."""
    layers: dict[str, dict] = {}
    root_self = 0
    evaluate_memo_hits = 0
    for proc in processes:
        spans = proc["spans"]
        for span, own in zip(spans, self_times(spans)):
            entry = layers.setdefault(
                span[NAME], {"calls": 0, "self_ns": 0, "dur_ns": 0, "attrs": Counter()}
            )
            dur = span[END] - span[START]
            entry["calls"] += 1
            entry["self_ns"] += own
            entry["dur_ns"] += dur
            attrs = span[ATTRS] or {}
            for key, value in attrs.items():
                entry["attrs"][key] += int(value)
            if "jobs" in attrs:
                # worker capacity the batch had: jobs x batch wall
                entry["attrs"]["jobs_x_ns"] += attrs["jobs"] * dur
            if proc["pid"] == root_pid:
                root_self += own
            evaluate_memo_hits += _memo_hit_in_cell(span, spans)
    return {
        "layers": layers,
        "root_self_ns": root_self,
        "evaluate_memo_hits": evaluate_memo_hits,
    }


def layer_metrics(summary: dict, wall_s: float) -> dict[str, float]:
    """The :data:`PER_LAYER` metrics of one traced pass (all but the
    overhead, which needs the untraced passes too)."""
    layers = summary["layers"]

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    def attr(name, key):
        return layers[name]["attrs"].get(key, 0) if name in layers else 0

    def secs(name, field="self_ns"):
        return layers[name][field] / 1e9 if name in layers else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    engines = [n for n in layers if n.startswith("tmu.engine.")]
    iterations = sum(attr(n, "iterations") for n in engines)
    engine_s = sum(secs(n, "dur_ns") for n in engines)
    cells = attr("runtime.executor", "cells")
    cached = attr("runtime.executor", "cached")
    lookup = "sim.memsys.walk_cache.lookup"
    return {
        "generators.calls": calls("generators"),
        "generators.self_s": secs("generators"),
        "kernels.characterize.calls": calls("kernels.characterize"),
        "kernels.characterize.self_s": secs("kernels.characterize"),
        "programs.timing_model.calls": calls("programs.timing_model"),
        "programs.timing_model.self_s": secs("programs.timing_model"),
        "programs.build.self_s": secs("programs.build"),
        "sim.memsys.walk.calls": calls("sim.memsys.walk"),
        "sim.memsys.walk.self_s": secs("sim.memsys.walk"),
        "sim.stackdist.calls": calls("sim.stackdist"),
        "sim.stackdist.self_s": secs("sim.stackdist"),
        "sim.stackdist.lines": attr("sim.stackdist", "lines"),
        "sim.memsys.walk_cache.lookup_s": secs(lookup),
        "sim.memsys.walk_cache.put_s": secs("sim.memsys.walk_cache.put"),
        "sim.memsys.walk_cache.hit_ratio": ratio(attr(lookup, "hit"), calls(lookup)),
        "sim.core.calls": calls("sim.core"),
        "sim.core.self_s": secs("sim.core"),
        "eval.run_workload.calls": calls("eval.run_workload"),
        "eval.run_workload.memo_hits": attr("eval.run_workload", "memo_hit"),
        "eval.render.self_s": secs("eval.render"),
        "runtime.executor.cells": cells,
        # cells the executor evaluated, less those run_workload's memo served
        "runtime.executor.cells_simulated": (
            cells - cached - summary["evaluate_memo_hits"]
        ),
        "runtime.executor.cells_cached": cached,
        "runtime.executor.pool_util": ratio(
            secs("runtime.task.evaluate", "dur_ns"),
            attr("runtime.executor", "jobs_x_ns") / 1e9,
        ),
        "runtime.executor.wait_s": secs("runtime.executor"),
        "runtime.task.hash_s": secs("runtime.task.hash"),
        "runtime.cache.get_s": secs("runtime.cache.get"),
        "runtime.cache.put_s": secs("runtime.cache.put"),
        "runtime.cache.hit_ratio": ratio(
            attr("runtime.cache.get", "hits"), attr("runtime.cache.get", "lookups")
        ),
        "runtime.manifest.write_s": secs("runtime.manifest.write"),
        "tmu.engine.spmv.self_s": secs("tmu.engine.spmv"),
        "tmu.engine.spkadd.self_s": secs("tmu.engine.spkadd"),
        "tmu.engine.iterations": iterations,
        "tmu.engine.merge_steps": sum(attr(n, "merge_steps") for n in engines),
        "tmu.engine.outq_records": sum(attr(n, "outq_records") for n in engines),
        "tmu.engine.iters_per_s": ratio(iterations, engine_s),
        "trace.coverage_pct": ratio(100.0 * summary["root_self_ns"] / 1e9, wall_s),
    }


def _layer_order(name: str) -> tuple:
    order = list(LAYERS)
    return (order.index(name) if name in LAYERS else len(order), name)


def render_table(summaries: list[dict], walls: list[float]) -> str:
    """The per-layer table over one or more traced passes: calls per
    pass, median self time per pass, its share of the median traced
    wall time, and the metric the layer should move."""
    wall = statistics.median(walls)
    names = sorted({n for s in summaries for n in s["layers"]}, key=_layer_order)
    rows = []
    for name in names:
        entries = [s["layers"].get(name) for s in summaries]
        calls = entries[0]["calls"] if entries[0] else 0
        self_s = statistics.median(e["self_ns"] / 1e9 if e else 0.0 for e in entries)
        share = f"{100 * self_s / wall:.1f}%"
        rows.append((name, str(calls), f"{self_s:.4f}", share, LAYERS.get(name, "")))
    root = statistics.median(s["root_self_ns"] / 1e9 for s in summaries)
    rest = max(wall - root, 0.0)
    rows.append(
        (
            "(not in a span, this process)",
            "",
            f"{rest:.4f}",
            f"{100 * rest / wall:.1f}%",
            "wrapper install, printing, glue between layers",
        )
    )
    head = ("layer", "calls", "self_s", "of wall", "should move")
    widths = [max(len(r[i]) for r in rows + [head]) for i in range(4)]
    title = f"per-layer self time over {len(summaries)} traced pass(es), "
    title += f"traced wall_s {wall:.4f} (median); worker processes count "
    title += "their own time, so shares can sum past 100% with --jobs > 1"
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(head, widths + [0]))]
    for row in rows:
        cells = [c.rjust(w) for c, w in zip(row[1:4], widths[1:])]
        lines.append("  ".join([row[0].ljust(widths[0]), *cells, row[4]]))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    saved_runs = sorted(Path(".perfbench").glob("trace-*.json"))
    workloads = argv or [p.stem.removeprefix("trace-") for p in saved_runs]
    if not workloads:
        print("no traced run yet: run perfbench/run.py --trace 1", file=sys.stderr)
        return 2
    for workload in workloads:
        path = Path(TRACE_FILE.format(workload=workload))
        if not path.exists():
            print(f"no traced run of {workload} at {path}", file=sys.stderr)
            return 2
        saved = json.loads(path.read_text(encoding="utf-8"))
        meta = saved["meta"]
        print(f"== {workload} ({meta['rev']}, seed {meta['seed']})")
        print(render_table(saved["summaries"], saved["walls"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
