"""In-memory span recording around the public entry points of each layer.

The benchmark never edits program code.  A traced pass installs
wrappers from this file around the functions and methods named in
:data:`TARGETS`, runs the workload, and removes them again.  Each span
records its layer name, start and end (``time.monotonic_ns``, which is
one clock for every process on the host), the span that caused it, the
cell hash or program it belongs to, and a few per-call attributes
(memo hit, lines walked, engine counts).

Pool workers are forked after the wrappers are installed, so they
inherit them.  A worker drops the buffers it inherited on its first
span, and appends its own spans to ``spans-<pid>.jsonl`` in the spill
directory each time a cell evaluation finishes; the pass merges those
files with its own spans when it ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: marker set on every wrapper, so a leftover one can be found.
WRAPPED_MARK = "__perfbench_wrapped__"

#: span fields, in the order a span list stores them.
NAME, START, END, PARENT, TAG, ATTRS = range(6)


class Recorder:
    """Spans of one process, kept in memory until the pass ends."""

    def __init__(self, spill_dir: str | os.PathLike | None = None) -> None:
        self.root_pid = self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tag: str | None = None
        self.spill_dir = None if spill_dir is None else Path(spill_dir)

    def _adopt(self) -> None:
        # A forked worker starts with a copy of the parent's buffers;
        # those spans belong to the parent, which writes them itself.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []

    def open(self, name: str, tag: str | None = None) -> int:
        self._adopt()
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        tag = self.tag if tag is None else tag
        self.spans.append([name, time.monotonic_ns(), 0, parent, tag, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.monotonic_ns()
        if attrs:
            span[ATTRS] = attrs
        self.stack.pop()
        in_worker = self.pid != self.root_pid
        if in_worker and not self.stack and span[NAME] == "runtime.task.evaluate":
            self.spill()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a top-level span measured elsewhere (set-up)."""
        self.spans.append([name, start_ns, end_ns, -1, None, None])

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        idx = self.open(name, tag)
        try:
            yield
        finally:
            self.close(idx)

    def spill(self) -> None:
        """Append this worker's finished spans to its spill file."""
        if self.spill_dir is None or not self.spans:
            return
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": self.pid, "spans": self.spans}) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """Every process's spans as ``[{"pid", "spans"}]``: this
        process first, then the workers' spill files."""
        out = [{"pid": self.root_pid, "spans": self.spans}]
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                with path.open(encoding="utf-8") as fh:
                    out.extend(json.loads(line) for line in fh)
        return out


# ------------------------------------------------------------ wrappers

#: (layer, module, attribute).  A function is wrapped in every
#: ``repro`` module that binds it, so call sites that imported it by
#: name see the wrapper too; a method is wrapped on its class.  A ``*``
#: in the attribute takes every matching name the module binds
#: (``characterize_*`` as the workload registry binds them).
TARGETS = [
    ("generators", "repro.generators.suite", "load_matrix"),
    ("generators", "repro.generators.suite", "load_tensor"),
    ("kernels.characterize", "repro.eval.workloads", "characterize_*"),
    ("programs.timing_model", "repro.eval.workloads", "*_timing_model"),
    ("programs.build", "repro.programs", "build_*_program"),
    ("sim.memsys.walk", "repro.sim.memsys", "MemoryHierarchy.profile"),
    ("sim.memsys.walk", "repro.sim.memsys", "llc_only_profile"),
    ("sim.stackdist", "repro.sim.stackdist", "hit_mask"),
    ("sim.core", "repro.sim.core", "IntervalCoreModel.run"),
    ("eval.run_workload", "repro.eval.workloads", "run_workload"),
    ("runtime.executor", "repro.runtime.executor", "Runtime.run"),
    ("runtime.task.evaluate", "repro.runtime.task", "SimTask.evaluate"),
    ("runtime.task.hash", "repro.runtime.task", "SimTask.content_hash"),
    ("runtime.cache.get", "repro.runtime.cache", "ResultCache.get_many"),
    ("runtime.cache.put", "repro.runtime.cache", "ResultCache.put"),
    ("sim.memsys.walk_cache.lookup", "repro.sim.memsys", "WalkCache.lookup"),
    ("sim.memsys.walk_cache.put", "repro.sim.memsys", "WalkCache.put"),
    ("runtime.manifest.write", "repro.runtime.manifest", "RunManifest.write"),
    ("tmu.engine", "repro.tmu.engine", "TmuEngine.run"),
]


def _lines_attrs(mask, args):
    return {"lines": int(len(args[0]))}


def _hit_attrs(found, args):
    return {"hit": found is not None}


def _report_attrs(report, args):
    cached = sum(1 for o in report.outcomes if o.cached)
    return {"jobs": args[0].jobs, "cells": len(report.outcomes), "cached": cached}


def _get_many_attrs(found, args):
    hits = sum(1 for r in found.values() if r is not None)
    return {"lookups": len(found), "hits": hits}


def _engine_attrs(stats, args):
    return {
        "iterations": int(sum(stats.layer_iterations)),
        "merge_steps": int(sum(stats.layer_merge_steps)),
        "outq_records": int(stats.outq_records),
    }


#: layer -> attributes of a finished call, from its result and arguments.
CALL_ATTRS = {
    "sim.stackdist": _lines_attrs,
    "sim.memsys.walk_cache.lookup": _hit_attrs,
    "runtime.executor": _report_attrs,
    "runtime.cache.get": _get_many_attrs,
    "tmu.engine": _engine_attrs,
}


def _wrap(fn, rec: Recorder, layer: str):
    """``fn`` inside a span of ``layer``.  A cell evaluation tags its
    subtree with the cell's hash; an engine run is named after its
    program (``tmu.engine.spmv``)."""
    attrs = CALL_ATTRS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = layer
        if layer == "tmu.engine":
            name = f"tmu.engine.{args[0].program.name}"
        outer_tag = rec.tag
        if layer == "runtime.task.evaluate":
            rec.tag = args[0].content_hash()
        idx = rec.open(name)
        finished = False
        try:
            result = fn(*args, **kwargs)
            finished = True
            return result
        finally:
            found = attrs(result, args) if finished and attrs else None
            rec.close(idx, found)
            rec.tag = outer_tag

    setattr(wrapper, WRAPPED_MARK, True)
    for extra in ("cache_info", "cache_clear"):
        if hasattr(fn, extra):
            setattr(wrapper, extra, getattr(fn, extra))
    return wrapper


def _run_workload_wrapper(fn, rec: Recorder):
    """``run_workload`` is an ``lru_cache``: a call whose hit count
    rises was served from the memo, not simulated."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hits = fn.cache_info().hits
        idx = rec.open("eval.run_workload")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx, {"memo_hit": fn.cache_info().hits > hits})

    setattr(wrapper, WRAPPED_MARK, True)
    wrapper.cache_info = fn.cache_info
    wrapper.cache_clear = fn.cache_clear
    return wrapper


def _matching(module, pattern: str) -> list[str]:
    if "*" not in pattern:
        return [pattern] if hasattr(module, pattern.split(".")[0]) else []
    head, tail = pattern.split("*")
    return sorted(
        name
        for name, value in vars(module).items()
        if name.startswith(head) and name.endswith(tail) and callable(value)
    )


def repro_modules() -> list:
    """Every loaded module of the ``repro`` package."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


class Installed:
    """The wrappers a traced pass installed, and how to remove them."""

    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)


def install(rec: Recorder) -> Installed:
    """Wrap every entry point in :data:`TARGETS` that this tree has.
    Targets a tree lacks are listed in ``missing`` and not traced."""
    done = Installed()
    for layer, modname, pattern in TARGETS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            module = None
        names = [] if module is None else _matching(module, pattern)
        if not names:
            done.missing.append(f"{modname}.{pattern}")
        for attr_path in names:
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner).get(meth)
                if original is None:
                    done.missing.append(f"{modname}.{attr_path}")
                    continue
                done.undo.append((owner, meth, original))
                setattr(owner, meth, _wrap(original, rec, layer))
                continue
            original = getattr(module, attr_path)
            if attr_path == "run_workload":
                wrapper = _run_workload_wrapper(original, rec)
            else:
                wrapper = _wrap(original, rec, layer)
            for mod in repro_modules():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        done.undo.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
    return done


# ------------------------------------------------------------ arithmetic


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end]`` that the union of ``intervals``
    covers (children that overlap count once)."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span of one process, in ns: its duration
    minus the part of it that its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_ns(span[START], span[END], children[i])
        for i, span in enumerate(spans)
    ]
