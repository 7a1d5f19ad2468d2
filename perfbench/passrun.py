"""One pass of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per pass and times it from outside.
The pass writes a JSON result to ``--out``: the rendered artifacts (or
the engine's counts), the moment set-up finished, and with ``--trace``
the spans of every process in the pass.

    python3 perfbench/passrun.py eval --out R.json --seed 1 --no-cache \
        --walk-cache off
    python3 perfbench/passrun.py eval --out R.json --seed 1 --jobs 2 \
        --cache-dir DIR
    python3 perfbench/passrun.py engine --out R.json --seed 1
    python3 perfbench/passrun.py model --out R.json
    python3 perfbench/passrun.py engine --out R.json --setup-only

``PERFBENCH_SPAWN_NS`` holds the ``time.monotonic_ns()`` at which the
parent started this process, so set-up time includes interpreter
start.  ``eval`` runs every figure driver of ``repro all``, in an order
drawn from the seed; ``engine`` runs the functional TMU engine on the
SpMV and SpKAdd programs and compares its counts with the timing
models'; ``model`` gives the timing models' speedups on those same
programs; ``--setup-only`` stops once set-up is done.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

SPAWN_NS = int(os.environ.get("PERFBENCH_SPAWN_NS", time.monotonic_ns()))

#: suite matrices the engine workload runs.  M2's, M3's and M4's SpMV
#: programs take 2, 5 and 11 s on the default engine and would dominate
#: a pass; without them a pass takes ~2.5 s, so a 25 s run has up to ten.
ENGINE_MATRICES = ("M1", "M5", "M6")

#: modules each mode imports before configuring, as ``python -m repro``
#: imports the whole CLI before it configures the runtime.
IMPORTS = {
    "eval": ["repro.cli"],
    "engine": ["repro.generators.suite", "repro.programs", "repro.tmu"],
    "model": ["repro.eval.experiments"],
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("mode", choices=sorted(IMPORTS))
    p.add_argument("--setup-only", action="store_true", help="stop after set-up")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--walk-cache", default="auto")
    p.add_argument("--trace", metavar="DIR", help="record spans; workers spill here")
    return p.parse_args(argv)


def _span(rec, name: str, tag: str):
    return nullcontext() if rec is None else rec.span(name, tag)


def _eval_pass(args, rec, result) -> None:
    from repro import cli, runtime
    from repro.eval import experiments as ex

    # `repro all` with the CLI's own drivers, in an order drawn from the
    # seed (the CLI always runs them sorted)
    names = sorted(cli._COMMANDS)
    random.Random(args.seed).shuffle(names)
    result["order"] = names
    rendered = {}
    for name in names:
        with _span(rec, "eval.render", name):
            if name == "fig10":
                # the CLI's fig10 command, keeping the data for the
                # speedup metrics
                data = ex.fig10_speedups("small")
                text = ex.render_fig10(data)
                result["fig10"] = {
                    "per_workload": data["per_workload"],
                    "geomeans": data["geomeans"],
                    "paper": ex.PAPER_GEOMEANS,
                }
            else:
                text = cli._COMMANDS[name]("small", None)
        print(text)
        print()
        rendered[name] = text
    result["rendered"] = rendered
    manifest = cli._combined_manifest(runtime.active_runtime())
    result["cells"] = manifest.total
    result["cells_failed"] = len(manifest.failures)
    print(manifest.summary(), file=sys.stderr)
    if not args.no_cache:
        stamp = f"run-{int(time.time() * 1000)}-{os.getpid()}.json"
        manifest.write(Path(args.cache_dir) / "manifests" / stamp)


def _csr_matvec(a, b):
    rows = np.repeat(np.arange(a.num_rows), np.diff(a.ptrs))
    return np.bincount(rows, weights=a.vals * b[a.idxs], minlength=a.num_rows)


def _close(x, y) -> bool:
    return bool(np.allclose(x, y, rtol=1e-12, atol=0.0))


def _same_csr(x, y) -> bool:
    same_shape = x.shape == y.shape and np.array_equal(x.ptrs, y.ptrs)
    return same_shape and np.array_equal(x.idxs, y.idxs) and _close(x.vals, y.vals)


def _engine_pass(args, rec, result) -> None:
    import repro.generators.suite as suite
    import repro.programs as programs
    from repro.config import default_machine
    from repro.kernels import split_rows_cyclic
    from repro.kernels.spkadd import spkadd
    from repro.tmu import TmuEngine

    machine = default_machine()
    lanes = machine.core.vector_bits // 64
    rng = np.random.default_rng(args.seed)
    checks = []
    for mid in ENGINE_MATRICES:
        a = suite.load_matrix(mid, "small")
        b = rng.random(a.num_cols)
        built = programs.build_spmv_program(a, b, lanes=lanes)
        stats = TmuEngine(built.program).run(built.handlers)
        model = programs.spmv_timing_model(a, machine)
        with _span(rec, "bench.check", mid):
            iterations = list(stats.layer_iterations)
            counts_match = iterations == list(model.layer_elements)
            counts_match &= stats.outq_records == model.outq_records
            checks.append(
                {
                    "program": f"spmv/{mid}",
                    "iterations": iterations,
                    "outq_records": int(stats.outq_records),
                    "counts_match": counts_match,
                    "result_match": _close(built.result(), _csr_matvec(a, b)),
                }
            )

        parts = split_rows_cyclic(a, 8)
        built = programs.build_spkadd_program(parts)
        stats = TmuEngine(built.program).run(built.handlers)
        model = programs.spkadd_timing_model(parts, machine)
        with _span(rec, "bench.check", mid):
            iterations = list(stats.layer_iterations)
            merge_steps = int(sum(stats.layer_merge_steps))
            counts_match = iterations == list(model.layer_elements)
            counts_match &= merge_steps == model.merge_steps
            counts_match &= stats.outq_records == model.outq_records
            checks.append(
                {
                    "program": f"spkadd/{mid}",
                    "iterations": iterations,
                    "merge_steps": merge_steps,
                    "outq_records": int(stats.outq_records),
                    "counts_match": counts_match,
                    "result_match": _same_csr(built.result(), spkadd(parts)),
                }
            )
    result["engine"] = checks


def _model_pass(args, rec, result) -> None:
    """The timing models' TMU speedups on the engine workload's
    (kernel, matrix) pairs, in the shape fig10 gives them."""
    from repro.config import experiment_machine
    from repro.eval.experiments import PAPER_GEOMEANS
    from repro.eval.workloads import run_workload
    from repro.types import geomean

    machine = experiment_machine("small")
    per = {
        w: {m: run_workload(w, m, machine, "small").speedup for m in ENGINE_MATRICES}
        for w in ("spmv", "spkadd")
    }
    geomeans = {w: geomean(v.values()) for w, v in per.items()}
    result["fig10"] = {
        "per_workload": per,
        "geomeans": geomeans,
        "paper": PAPER_GEOMEANS,
    }


PASSES = {"eval": _eval_pass, "engine": _engine_pass, "model": _model_pass}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    for module in IMPORTS[args.mode]:
        importlib.import_module(module)
    from repro import runtime

    runtime.configure(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=lambda msg: print(msg, file=sys.stderr),
        walk_cache=args.walk_cache,
    )
    ready_ns = time.monotonic_ns()
    result = {
        "mode": args.mode,
        "pid": os.getpid(),
        "spawn_ns": SPAWN_NS,
        "ready_ns": ready_ns,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    # An untraced pass is its own process and never imports the
    # wrappers, so it runs the program's code exactly as a user would.
    rec = installed = None
    if args.trace is not None:
        import spans

        rec = spans.Recorder(args.trace)
        rec.add("bench.setup", SPAWN_NS, ready_ns)
        installed = spans.install(rec)
        result["missing"] = installed.missing
    try:
        if not args.setup_only:
            PASSES[args.mode](args, rec, result)
    finally:
        if installed is not None:
            installed.remove()
    result["end_ns"] = time.monotonic_ns()
    if rec is not None:
        result["processes"] = rec.collect()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
