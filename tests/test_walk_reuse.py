"""Per-level reuse inside the walk cache.

At ``--scale small`` the A64FX-like, Graviton3-like and Table 5
hierarchies scale to one 4-set x 4-way L1, so a stream set walked
under all three classifies its L1 once and replays it twice from the
walk cache's recorded hit bits.  These tests hold the replayed walks
to cold ones (and, under the rotating ``REPRO_FUZZ_SEED``, to the
reference ``Cache``), check that ``WalkCache.clear()`` drops the
records, and that records die with their address arrays.  They also
pin the read-only address arrays every identity shortcut relies on.
"""

import gc
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro import obs
from repro.config import (
    a64fx_like,
    default_machine,
    experiment_machine,
    graviton3_like,
)
from repro.sim import memsys, stackdist
from repro.sim.memsys import MemoryHierarchy, WalkCache, walk_cache
from repro.sim.trace import AccessStream, KernelTrace
from tests.test_stackdist_equiv import FUZZ_SEED, reference_walk  # noqa: F401

#: the three Fig. 3 / Fig. 10 hosts, cache-scaled as the figures run them
HOSTS = [
    experiment_machine("small", host())
    for host in (a64fx_like, graviton3_like, default_machine)
]


@pytest.fixture(autouse=True)
def _isolated_walk_cache():
    """Each test gets a cleared process cache with no disk tier."""
    wc = walk_cache()
    saved_store, saved_capacity = wc.store, wc.capacity
    wc.clear()
    wc.store = None
    wc.levels_reused = 0
    try:
        yield wc
    finally:
        wc.clear()
        wc.store = saved_store
        wc.capacity = saved_capacity


@pytest.fixture
def hit_mask_calls(monkeypatch):
    """Lengths of the line streams ``stackdist.hit_mask`` classifies."""
    calls = []
    original = stackdist.hit_mask

    def counted(lines, num_sets, ways):
        calls.append(len(lines))
        return original(lines, num_sets, ways)

    monkeypatch.setattr(stackdist, "hit_mask", counted)
    return calls


def _trace(rng, n: int = 6000) -> KernelTrace:
    """A gather, a scan and a write stream over a small working set."""
    return KernelTrace(
        name="reuse",
        streams=[
            AccessStream(rng.integers(0, 1 << 12, n) * 8, 8, label="gather"),
            AccessStream(np.arange(n) * 8, 8, label="scan"),
            AccessStream(
                rng.integers(0, 1 << 10, n // 2) * 8,
                8,
                kind="write",
                label="out",
                dependent=True,
            ),
        ],
    )


def _walk(machine, trace: KernelTrace) -> dict:
    """Every observable of one hierarchy walk."""
    h = MemoryHierarchy(machine)
    with obs.capture() as registry:
        profile = h.profile(trace)
    counters = registry.as_dict().get("counters", {})
    return {
        "profiles": [asdict(sp) for sp in profile.streams],
        "stats": [(lv.stats.accesses, lv.stats.hits) for lv in h.levels],
        "telemetry": {
            k: v for k, v in counters.items() if k.startswith("sim.cache.")
        },
    }


def _cold(machine, trace: KernelTrace) -> dict:
    walk_cache().clear()
    return _walk(machine, trace)


def test_hosts_share_one_scaled_l1():
    l1s = {(m.l1d.num_sets, m.l1d.ways, m.l1d.line_bytes) for m in HOSTS}
    assert l1s == {(4, 4, 64)}
    # ... behind different latencies, so whole-walk keys differ
    assert len({m.l1d.latency for m in HOSTS}) == 3


def test_shared_l1_is_classified_once(hit_mask_calls):
    trace = _trace(np.random.default_rng(1))
    cold = [_cold(m, trace) for m in HOSTS]
    walk_cache().clear()
    hit_mask_calls.clear()
    warm = [_walk(m, trace) for m in HOSTS]
    assert warm == cold
    # three levels for the first host, L2 + LLC for the other two
    assert len(hit_mask_calls) == 3 + 2 + 2
    assert walk_cache().levels_reused == 2


def test_reuse_is_counted_under_walk_cache_telemetry():
    trace = _trace(np.random.default_rng(5))
    with obs.capture() as registry:
        for m in HOSTS:
            MemoryHierarchy(m).profile(trace)
    counters = json.loads(json.dumps(registry.as_dict()))["counters"]
    l1_lines = counters["sim.cache.l1.accesses"] // len(HOSTS)
    assert counters["sim.memsys.walk_cache.levels_reused"] == 2
    assert counters["sim.memsys.walk_cache.lines_reused"] == 2 * l1_lines


def test_llc_only_walks_reuse_a_shared_llc(hit_mask_calls):
    streams = _trace(np.random.default_rng(2)).streams
    a, b = HOSTS[0], HOSTS[2]  # same scaled LLC geometry, other latency
    assert (a.llc.num_sets, a.llc.ways) == (b.llc.num_sets, b.llc.ways)
    assert a.llc.latency != b.llc.latency
    cold = [asdict(sp) for sp in memsys.llc_only_profile(b, streams).streams]
    walk_cache().clear()
    memsys.llc_only_profile(a, streams)
    hit_mask_calls.clear()
    warm = [asdict(sp) for sp in memsys.llc_only_profile(b, streams).streams]
    assert warm == cold
    assert hit_mask_calls == []


def test_clear_makes_every_level_classify_again(hit_mask_calls):
    trace = _trace(np.random.default_rng(3))
    for m in HOSTS:
        _walk(m, trace)
    walk_cache().clear()
    hit_mask_calls.clear()
    reused = walk_cache().levels_reused
    _walk(HOSTS[1], trace)
    assert len(hit_mask_calls) == 3
    assert walk_cache().levels_reused == reused


def test_records_die_with_their_arrays(monkeypatch):
    """Fresh stream sets that take freed arrays' ids must never be
    served the freed arrays' levels: each set's first walk reuses
    nothing, its second reuses exactly the shared L1, and both match a
    walk through an empty cache."""
    wc = walk_cache()
    wc.capacity = 1  # whole-walk entries must not keep old arrays alive
    rng = np.random.default_rng(4)
    seen_ids, recycled = set(), 0
    for i in range(40):
        trace = _trace(rng, n=500)
        ids = {id(s.addresses) for s in trace.streams}
        recycled += len(ids & seen_ids)
        seen_ids |= ids
        expected = []
        for m in HOSTS[:2]:
            with monkeypatch.context() as mp:
                mp.setattr(memsys, "_WALK_CACHE", WalkCache())
                expected.append(_walk(m, trace))
        assert [_walk(m, trace) for m in HOSTS[:2]] == expected
        assert wc.levels_reused == i + 1
        del trace
        gc.collect()
    assert recycled, "no id was recycled; the loop proves nothing"


def test_fuzzed_reuse_matches_the_reference_cache(reference_walk):  # noqa: F811
    """Randomized stream sets walked under two hierarchies sharing an
    L1, with the reference ``Cache`` classifying every level: the
    replayed L1 of the second walk must leave every observable equal to
    a cold stack-distance walk."""
    rng = np.random.default_rng(FUZZ_SEED ^ 0x1E7E1)
    traces = []
    for _rep in range(6):
        streams = []
        for i in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 3000))
            streams.append(
                AccessStream(
                    rng.integers(0, 1 << int(rng.integers(8, 16)), n) * 8,
                    8,
                    kind="write" if rng.random() < 0.25 else "read",
                    label=f"s{i}",
                    dependent=bool(rng.random() < 0.5),
                )
            )
        traces.append(KernelTrace(name="fuzz", streams=streams))
    pair = HOSTS[1], HOSTS[2]
    cold = [[_cold(m, t) for m in pair] for t in traces]
    calls = reference_walk()
    walk_cache().clear()
    reused = [[_walk(m, t) for m in pair] for t in traces]
    assert calls, "the walk never reached stackdist.hit_mask"
    assert walk_cache().levels_reused == len(traces)
    assert reused == cold


class TestReadOnlyStreams:
    """A stream's address array cannot change after construction, so a
    walk-cache hit by identity (or a digest memoized by identity) can
    never be stale."""

    def _profile(self, stream: AccessStream) -> list[dict]:
        trace = KernelTrace(name="t", streams=[stream])
        profile = MemoryHierarchy(default_machine()).profile(trace)
        return [asdict(sp) for sp in profile.streams]

    def test_an_owned_array_is_frozen_in_place(self):
        n = 4096
        addrs = np.arange(n, dtype=np.int64) * 64
        stream = AccessStream(addrs, 8)
        assert stream.addresses is addrs
        assert not addrs.flags.writeable
        with pytest.raises(ValueError):
            addrs[1:-1] = 64

    def test_mutating_the_base_of_a_view_cannot_serve_a_stale_walk(self):
        """The reproducer: walk 4,096 distinct lines, then set every
        entry the walk-cache fingerprint does not sample to one line.
        Before streams were read-only, the memory tier served the old
        walk (0 L1 hits, 4,096 memory lines) for the mutated array."""
        n = 4096
        base = np.arange(n, dtype=np.int64) * 64
        stream = AccessStream(base[:], 8)  # a view of writable memory
        assert stream.addresses is not base
        before = self._profile(stream)
        assert before[0]["l1_hits"] == 0 and before[0]["mem_accesses"] == n
        unsampled = np.ones(n, dtype=bool)
        unsampled[:: n >> 4] = False
        unsampled[-1] = False
        base[unsampled] = 64
        cached = self._profile(stream)
        walk_cache().clear()
        assert cached == self._profile(stream) == before  # it kept its copy
        mutated = self._profile(AccessStream(base, 8))[0]
        assert (mutated["l1_hits"], mutated["mem_accesses"]) == (15, 18)

    def test_a_read_only_view_of_read_only_memory_is_kept(self):
        base = np.arange(64, dtype=np.int64)
        base.flags.writeable = False
        view = base[8:]
        assert AccessStream(view, 8).addresses is view

    def test_reassigned_addresses_are_frozen_too(self):
        stream = AccessStream(np.arange(4), 8)
        stream.addresses = np.arange(8)
        assert not stream.addresses.flags.writeable
