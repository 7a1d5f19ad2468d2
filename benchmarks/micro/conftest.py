"""Micro-benchmark harness: per-component speedup gates.

Unlike the figure-level benchmarks one directory up, these tests time
*individual hot paths* (today the stack-distance hit classification
against the reference cache) and gate the fast-path/reference-path **ratio** against
``benchmarks/baselines/micro.json``.  Ratios compare two in-process
code paths under identical load, so they are machine-independent in a
way absolute timings are not — a noisy container slows both sides.

Run with::

    pytest benchmarks/micro/

Wall-clock ``pytest-benchmark`` timings ride along when the plugin is
installed (they are informational, never gated).  Set
``REPRO_BENCH_SNAPSHOT=0`` to keep a micro-only run from appending a
``BENCH_<rev>.json`` perf snapshot (the parent conftest's session
telemetry also covers this directory).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

BASELINES = Path(__file__).resolve().parent.parent / "baselines" / \
    "micro.json"


@pytest.fixture(scope="session")
def micro_baselines() -> dict:
    return json.loads(BASELINES.read_text())


@pytest.fixture(scope="session")
def best_of():
    """min-of-reps timer: the minimum over repetitions estimates the
    noise-free cost, which keeps ratio gates stable on shared runners."""

    def _best(f, reps: int = 3) -> float:
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            f()
            out.append(time.perf_counter() - t0)
        return min(out)

    return _best
