"""Stack-distance microbench: offline hit_mask vs the reference Cache.

Gates the whole-stream stack-distance pass (the hierarchy walk's only
classifier) against driving the same streams through the golden
reference ``Cache.lookup_lines`` on an LLC-sized geometry
(Graviton3-class: 32768 sets x 16 ways).  The mix mirrors
marshaled-session traffic — sequential operand/output scans, strided
traversals, irregular reuse, and a uniform scatter.  The reference is a
per-access Python loop, so the streams are kept at 200k accesses to
bound the gate's wall time.  Equivalence is pinned by
``tests/test_stackdist_equiv.py``; here only the speed ratio is gated.
"""

from __future__ import annotations

import numpy as np

from repro.config import CacheConfig
from repro.sim import stackdist
from repro.sim.cache import Cache

SETS, WAYS = 32768, 16
N = 200_000


def _streams() -> list[np.ndarray]:
    rng = np.random.default_rng(29)
    capacity = SETS * WAYS
    return [
        np.arange(N),                                   # sequential scan
        np.arange(N) * 3 + 10_000_000,                  # strided scan
        rng.integers(0, capacity // 2, N),              # reuse-heavy
        rng.integers(0, 4 * capacity, N),               # uniform scatter
    ]


def test_stackdist_vs_reference_cache(best_of, micro_baselines):
    cfg = CacheConfig(SETS * WAYS * 64, WAYS, 1, 4)
    streams = _streams()

    def run_reference() -> None:
        for lines in streams:
            Cache(cfg).lookup_lines(lines)

    def run_stackdist() -> None:
        for lines in streams:
            stackdist.hit_mask(lines, SETS, WAYS)

    stateful = best_of(run_reference)
    offline = best_of(run_stackdist)
    ratio = stateful / offline
    floor = micro_baselines["stackdist_lookup_min_ratio"]
    assert ratio >= floor, (
        f"stack-distance hit_mask speedup regressed: {ratio:.2f}x < "
        f"{floor}x vs the reference Cache")
