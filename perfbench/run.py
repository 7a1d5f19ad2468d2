#!/usr/bin/env python3
"""The repository's benchmark: the figure pipeline and the TMU engine,
timed end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload cold-serial --seed 1 \
        --seconds 25 --trace 0

Run it from the repository root.  Every pass is a fresh interpreter
(``perfbench/passrun.py``) started and timed from here, one at a time,
with at most two pool workers.  Passes repeat for about ``--seconds``
(at least two of them; the run stops at the pass boundary nearest to
it), then set-up alone is probed a few more times.  Each pass's
outputs are checked: every rendered artifact against
``benchmarks/results/``, every engine program's counts against its
timing model.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over passes;
host times rescaled by a reference job timed between passes);
``--trace 1`` alternates untraced and traced passes, prints the
per-layer table (see ``perfbench/report.py``) and reports the
per-layer metrics.  A failed check makes the exit code 1; a tree
without ``src/repro`` makes it 2.  Scratch files live in
``.perfbench/``.  Each workload's reason is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import passrun
import report

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
RESULTS = ROOT / "benchmarks" / "results"

#: workload -> how its passes run.  ``fresh_cache`` empties the cache
#: dir before every pass; ``fill`` fills it once, untimed, before the
#: first.
WORKLOADS = {
    "cold-serial": {
        "mode": "eval",
        "temperature": "cold",
        "args": ["--no-cache", "--walk-cache", "off"],
    },
    "fill-jobs2": {
        "mode": "eval",
        "temperature": "filling",
        "args": ["--jobs", "2"],
        "fresh_cache": True,
    },
    "warm-rerun": {"mode": "eval", "temperature": "warm", "args": [], "fill": True},
    "engine-validate": {"mode": "engine", "temperature": "none", "args": []},
}

#: CLI artifact -> its committed reference output.
ARTIFACTS = {
    "area": "area.txt",
    "fig03": "fig03_motivation.txt",
    "fig10": "fig10_speedups.txt",
    "fig11": "fig11_breakdown.txt",
    "fig12": "fig12_roofline.txt",
    "fig13": "fig13_read_to_write.txt",
    "fig14": "fig14_sensitivity.txt",
    "fig15": "fig15_sota.txt",
    "table5": "table5_parameters.txt",
    "table6": "table6_inputs.txt",
}

#: programs an engine pass runs: SpMV and SpKAdd on each matrix.
ENGINE_PROGRAMS = 2 * len(passrun.ENGINE_MATRICES)

#: the end-to-end metrics: (name, unit).
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("speedup_geomean", "x"),
    ("speedup_err_pct", "%"),
]

#: the reference job: a fixed pure-Python loop that runs no repro code,
#: timed before and after every pass on each CPU the pass runs on.  On
#: a shared host a busy neighbour slows a CPU by up to 1.8x (seen on a
#: 2-vCPU cloud VM, each vCPU on its own), for seconds to minutes at a
#: time; a pass and the reference around it slow down together, so a
#: pass's host times are scaled by REFERENCE_S over the reference's
#: time around it: seconds on a host that runs the reference in
#: REFERENCE_S, as a quiet one of those VMs does.  A serial pass is
#: kept on one CPU so that the reference measures the CPU it ran on.
REFERENCE_LOOPS = 1_000_000
REFERENCE_S = 0.06

MIN_PASSES = 2
SETUP_PROBES = 6
PASS_TIMEOUT_S = 120


def artifact_mismatches(rendered: dict[str, str], results: Path = RESULTS) -> list:
    """Artifacts whose rendering is not byte-identical to the committed
    reference (the CLI writes each as its text plus a newline)."""
    bad = []
    for name, filename in ARTIFACTS.items():
        text = rendered.get(name)
        path = results / filename
        if text is None or not path.is_file():
            bad.append(name)
        elif (text + "\n").encode("utf-8") != path.read_bytes():
            bad.append(name)
    return bad


def speedup_metrics(fig10: dict) -> tuple[float, float]:
    """Geomean TMU speedup over every cell, and the mean |sim/paper - 1|
    of the per-workload geomeans, in percent."""
    cells = [v for per in fig10["per_workload"].values() for v in per.values()]
    geo = math.exp(sum(math.log(v) for v in cells) / len(cells))
    errs = [abs(g / fig10["paper"][w] - 1) for w, g in fig10["geomeans"].items()]
    return geo, 100.0 * sum(errs) / len(errs)


def reference_s(cpus: list[int]) -> float:
    """Mean host time the reference job takes now on each of ``cpus``;
    leaves this process allowed on all of them."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * 3 % 7
        times.append(time.perf_counter() - start)
    os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _git(*args: str) -> subprocess.CompletedProcess:
    # never look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    cmd = ["git", *args]
    return subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
    )


def tree_rev() -> str:
    """The git rev (``-dirty`` with local changes) when the tree is a
    git checkout, else a digest of ``src/``."""
    try:
        top = _git("rev-parse", "--show-toplevel")
        if top.returncode == 0 and Path(top.stdout.strip()) == ROOT:
            rev = _git("rev-parse", "--short", "HEAD").stdout.strip()
            dirty = _git("status", "--porcelain", "--untracked-files=no").stdout
            return rev + ("-dirty" if dirty.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


@dataclass
class Pass:
    """One finished pass: host costs measured from outside, plus the
    result the pass wrote (``None`` when it failed)."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    result: dict | None
    end_ns: int
    #: REFERENCE_S over the reference's mean time before and after
    scale: float

    @property
    def setup_s(self) -> float:
        return (self.result["ready_ns"] - self.result["spawn_ns"]) / 1e9


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Bench:
    """The passes of one run of one workload, and their checks."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.cache = work / "cache"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: the last reference time, taken after the previous pass
        self.reference: float | None = None
        #: counts that differed between traced passes (reported, not a
        #: failure: which pool worker memoizes what is the scheduler's)
        self.unsteady: list[str] = []
        (work / "tmp").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(work / "tmp")
        # no hidden BLAS worker threads beside the <= 2 pool workers
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        # the CPUs a pass runs on (it inherits this process's affinity):
        # one per pool worker, one for a serial pass
        args = self.spec["args"]
        jobs = int(args[args.index("--jobs") + 1]) if "--jobs" in args else 1
        self.cpus = sorted(os.sched_getaffinity(0))[:jobs]
        os.sched_setaffinity(0, self.cpus)

    # ---------------------------------------------------------- passes

    def run_pass(self, mode: str, args: list[str], trace: bool = False) -> Pass:
        self.count += 1
        before = self.reference
        if before is None:
            before = reference_s(self.cpus)
        stem = self.work / f"pass-{self.count}"
        out = stem.with_suffix(".json")
        cmd = [sys.executable, str(HERE / "passrun.py"), mode, "--out", str(out)]
        cmd += ["--seed", str(self.seed), *args]
        if trace:
            spill = self.work / f"spill-{self.count}"
            spill.mkdir()
            cmd += ["--trace", str(spill)]
        stdout = stem.with_suffix(".stdout")
        stderr = stem.with_suffix(".stderr")
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            start = time.monotonic_ns()
            env = dict(self.env, PERFBENCH_SPAWN_NS=str(start))
            proc = subprocess.Popen(
                cmd,
                cwd=self.work,
                env=env,
                stdout=so,
                stderr=se,
                start_new_session=True,
            )
            killer = threading.Timer(PASS_TIMEOUT_S, _kill_group, (proc.pid,))
            killer.start()
            try:
                # wait4's usage covers the pass and the pool workers it
                # reaped: CPU time summed, max RSS over all of them
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing of the pass may outlive it
        result = None
        if proc.returncode == 0 and out.is_file():
            result = json.loads(out.read_text(encoding="utf-8"))
        else:
            tail = stderr.read_text(errors="replace")[-2000:]
            self.problems.append(f"{mode} pass exited {proc.returncode}: {tail}")
        cpu_s = usage.ru_utime + usage.ru_stime
        self.reference = reference_s(self.cpus)
        scale = REFERENCE_S / ((before + self.reference) / 2)
        rss_mb = usage.ru_maxrss / 1024.0
        return Pass((end - start) / 1e9, cpu_s, rss_mb, result, end, scale)

    def pass_args(self) -> list[str]:
        args = list(self.spec["args"])
        if self.spec["mode"] == "eval" and "--no-cache" not in args:
            args += ["--cache-dir", str(self.cache)]
        return args

    def timed_pass(self, trace: bool = False) -> Pass:
        if self.spec.get("fresh_cache"):
            shutil.rmtree(self.cache, ignore_errors=True)
        done = self.run_pass(self.spec["mode"], self.pass_args(), trace)
        self.check(done)
        return done

    def fill(self) -> None:
        """The untimed fill a warm workload reads from."""
        done = self.run_pass("eval", ["--jobs", "2", "--cache-dir", str(self.cache)])
        self.check(done)

    def probe(self) -> Pass:
        done = self.run_pass(self.spec["mode"], self.pass_args() + ["--setup-only"])
        if done.result is None:
            self.attempted += 1
            self.failed += 1
        return done

    # ---------------------------------------------------------- checks

    def check(self, done: Pass) -> None:
        """Count the pass's operations and those whose output is wrong."""
        if self.spec["mode"] == "eval":
            self._check_eval(done.result)
            return
        checks = [] if done.result is None else done.result["engine"]
        ok = [c for c in checks if c["counts_match"] and c["result_match"]]
        bad = [c["program"] for c in checks if c not in ok]
        self.attempted += ENGINE_PROGRAMS
        self.failed += ENGINE_PROGRAMS - len(ok)
        if bad:
            self.problems.append(f"engine disagrees with its model: {bad}")

    def _check_eval(self, result: dict | None) -> None:
        if result is None:
            self.attempted += len(ARTIFACTS)
            self.failed += len(ARTIFACTS)
            return
        bad = artifact_mismatches(result["rendered"])
        self.attempted += result["cells"] + len(ARTIFACTS)
        self.failed += result["cells_failed"] + len(bad)
        if bad:
            self.problems.append(f"artifacts differ from benchmarks/results: {bad}")
        if result["cells_failed"]:
            self.problems.append(f"{result['cells_failed']} cells failed")

    def compare(self, first: Pass, other: Pass) -> None:
        """Outputs of two passes must be identical (a traced pass
        against an untraced one, or any pass against the first)."""
        if first.result is None or other.result is None:
            return
        if self.spec["mode"] == "eval":
            a, b = first.result["rendered"], other.result["rendered"]
            diff = [n for n in ARTIFACTS if a.get(n) != b.get(n)]
            self.attempted += len(ARTIFACTS)
        else:
            a, b = first.result["engine"], other.result["engine"]
            diff = [x["program"] for x, y in zip(a, b) if x != y]
            diff += ["missing"] * abs(len(a) - len(b))
            self.attempted += ENGINE_PROGRAMS
        self.failed += len(diff)
        if diff:
            self.problems.append(f"outputs differ between passes: {diff}")


def measure(bench: Bench, seconds: float, trace: bool):
    """Run passes for ``seconds``: plain passes, or with ``trace``
    untraced/traced pairs.  Returns (untraced, traced) pass lists."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.monotonic()
    while True:
        done = bench.timed_pass()
        if untraced:
            bench.compare(untraced[0], done)
        untraced.append(done)
        if trace:
            traced_pass = bench.timed_pass(trace=True)
            bench.compare(done, traced_pass)
            traced.append(traced_pass)
        # stop at whichever pass boundary lies nearest to ``seconds``
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if trace else MIN_PASSES)
        if enough and elapsed + elapsed / len(untraced) / 2 >= seconds:
            return untraced, traced


def end_to_end(passes: list[Pass], probes: list[Pass], fig10: dict | None) -> dict:
    ok = [p for p in passes if p.result is not None]
    ready = [p for p in ok + probes if p.result is not None]
    values = {
        "wall_s": [p.wall_s * p.scale for p in ok],
        "cpu_s": [p.cpu_s * p.scale for p in ok],
        "setup_s": [p.setup_s * p.scale for p in ready],
        "peak_rss_mb": [p.rss_mb for p in ok],
        # what the host times were before scaling, and the scales
        "unscaled_wall_s": [p.wall_s for p in ok],
        "unscaled_setup_s": [p.setup_s for p in ready],
        "scale": [p.scale for p in ok],
    }
    if fig10 is not None:
        geo, err = speedup_metrics(fig10)
        values["speedup_geomean"] = [geo]
        values["speedup_err_pct"] = [err]
    return values


def per_layer(bench: Bench, untraced: list[Pass], traced: list[Pass]):
    """Per-layer metrics over the traced passes: times are medians,
    counts must repeat exactly; the overhead compares the traced and
    untraced wall times."""
    ok = [p for p in traced if p.result is not None]
    if not ok:
        bench.problems.append("no traced pass finished")
        return {}, [], []
    for p in ok:
        # from the pass's last timestamp to its reaping, seen from here
        exit_span = ["pass.exit", p.result["end_ns"], p.end_ns, -1, None, None]
        p.result["processes"][0]["spans"].append(exit_span)
    summaries = [report.summarize(p.result["processes"], p.result["pid"]) for p in ok]
    per_pass = [report.layer_metrics(s, p.wall_s) for s, p in zip(summaries, ok)]
    plain = statistics.median(p.wall_s for p in untraced if p.result is not None)
    overhead = 100.0 * (statistics.median(p.wall_s for p in ok) - plain) / plain
    metrics = {}
    for name, unit, _ in report.PER_LAYER:
        if name == "obs.trace_overhead_pct":
            value = overhead
        elif name in report.COUNTS:
            series = [m[name] for m in per_pass]
            if len(set(series)) > 1:
                bench.unsteady.append(f"{name} {series}")
            value = series[0]
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, summaries, [p.wall_s for p in ok]


def _trace_report(bench, workload, meta, untraced, traced) -> dict:
    metrics, summaries, walls = per_layer(bench, untraced, traced)
    meta["counts_repeat"] = not bench.unsteady
    # entry points this tree lacks are not traced; say which
    meta["not_traced"] = next((p.result["missing"] for p in traced if p.result), [])
    if summaries:
        saved = {"meta": meta, "summaries": summaries, "walls": walls}
        trace_file = Path(report.TRACE_FILE.format(workload=workload))
        trace_file.write_text(json.dumps(saved), encoding="utf-8")
        print(report.render_table(summaries, walls))
    return metrics


def _end_to_end_report(bench, raw: dict) -> dict:
    metrics = {}
    for name, unit in END_TO_END:
        if not raw.get(name):
            bench.problems.append(f"no value for {name}")
            continue
        q1, med, q3 = quartiles(raw[name])
        metrics[name] = {"value": med, "unit": unit}
        n = len(raw[name])
        print(f"{name:16s} {med:12.6g} {unit:3s}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not RESULTS.is_dir():
        print(f"perfbench: no repro source tree in {ROOT}", file=sys.stderr)
        return 2

    work = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        bench.probe()  # untimed: compiles the bytecode once
        if bench.spec.get("fill"):
            bench.fill()
        untraced, traced = measure(bench, args.seconds, bool(args.trace))
        probes = [bench.probe() for _ in range(SETUP_PROBES)]
        model = None
        if bench.spec["mode"] == "engine" and not args.trace:
            model = bench.run_pass("model", [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = next((p.result for p in untraced if p.result), None) or {}
    meta = {
        "workload": args.workload,
        "rev": tree_rev(),
        "temperature": bench.spec["temperature"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setup_probes": len(probes),
        "nproc": os.cpu_count(),
        "cpus": bench.cpus,
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "order": first.get("order"),
    }
    raw = {}
    if args.trace:
        metrics = _trace_report(bench, args.workload, meta, untraced, traced)
    else:
        fig10 = first.get("fig10")
        if model is not None:
            fig10 = model.result["fig10"] if model.result else None
        raw = end_to_end(untraced, probes, fig10)
        metrics = _end_to_end_report(bench, raw)
        if raw["scale"]:
            # how much slower than REFERENCE_S the host ran the reference
            slowdown = statistics.median(1 / x for x in raw["scale"])
            meta["host_slowdown"] = slowdown
            print(f"host slowdown {slowdown:.4g}x (reference time / REFERENCE_S)")
    fail_frac = bench.failed / max(bench.attempted, 1)
    ops = f"({bench.failed} of {bench.attempted} operations)"
    print(f"{'fail_frac':16s} {fail_frac:12.6g} -    {ops}")

    for target in meta.get("not_traced", []):
        print(f"perfbench: no entry point {target} to trace", file=sys.stderr)
    for name in bench.unsteady:
        print(f"perfbench: count differs across traced passes: {name}", file=sys.stderr)
    for problem in dict.fromkeys(bench.problems):
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = bench.failed == 0 and not bench.problems
    record = {
        "meta": meta,
        "raw": raw,
        "metrics": metrics,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"meta": meta}))
    attempted = max(bench.attempted, 1)
    result = {"correct": correct, "attempted": attempted, "failed": bench.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
