"""Memory hierarchy composition and access profiling.

:class:`MemoryHierarchy` feeds a kernel's address streams through the
L1D → L2 → LLC chain and produces an :class:`AccessProfile`: per-level
hit counts, off-chip bytes, and the average load-to-use latency — the
inputs of the interval core model and the roofline analysis.

Modeling notes (vs. gem5):

* Streams are filtered per level; one level's misses are replayed into
  the next, which is exact for an exclusive-of-nothing composition and
  a good approximation of the paper's mostly-exclusive LLC.
* Every walk starts the hierarchy cold and sees each level's whole
  line stream at once, so one stateless stack-distance pass per level
  (:mod:`repro.sim.stackdist`) classifies it exactly.  One batched
  :func:`walk` serves the L1 → L2 → LLC profile and the TMU's
  LLC-only view alike, traced or not.
* Each piece of a walk is done once per session: a stream's line
  sequence is prepared once per address array, and a level an earlier
  walk of the same streams classified behind the same upper levels is
  replayed from its recorded hit bits (:class:`WalkCache`).
* Long streams are optionally *window-sampled*: a prefix window of each
  stream is simulated and the hit rates extrapolated.  Sampling is off
  by default at the suite's default scale.
* Hardware prefetchers (L1 stride / L2 best-offset) are modeled as a
  coverage factor on sequential streams, computed from each stream's
  measured sequentiality.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .. import obs
from ..config import CacheConfig, MachineConfig
from ..memo import identity_memo
from . import stackdist
from .cache import CacheStats, _CacheTelemetry, dedup_consecutive, \
    settle_lookup, to_lines
from .trace import AccessStream, KernelTrace


@dataclass
class StreamProfile:
    """Per-stream outcome of the hierarchy walk."""

    label: str
    kind: str
    dependent: bool
    gather: bool = False
    accesses: int = 0
    bytes: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    mem_accesses: int = 0
    prefetch_coverage: float = 0.0


@dataclass
class AccessProfile:
    """Aggregate memory behaviour of one kernel run on one core."""

    streams: list[StreamProfile] = field(default_factory=list)
    line_bytes: int = 64

    @property
    def loads(self) -> int:
        return sum(s.accesses for s in self.streams if s.kind == "read")

    def total(self, attr: str, kind: str | None = None) -> int:
        return sum(getattr(s, attr) for s in self.streams
                   if kind is None or s.kind == kind)

    @property
    def mem_lines(self) -> int:
        return self.total("mem_accesses")

    @property
    def mem_bytes(self) -> int:
        """Off-chip traffic (cache-line granular)."""
        return self.mem_lines * self.line_bytes

    def average_load_latency(self, machine: MachineConfig) -> float:
        """Mean load-to-use latency in cycles, weighted by access counts
        (reads only), after prefetch coverage."""
        l1 = machine.l1d.latency
        l2 = machine.l2.latency
        llc = machine.llc.latency + machine.noc.average_latency() / 2
        mem = machine.memory_latency_cycles()
        total_lat = 0.0
        total_cnt = 0
        for s in self.streams:
            if s.kind != "read" or s.accesses == 0:
                continue
            covered = s.prefetch_coverage
            # Prefetched lines are served at ~L2 latency.
            miss_lat = covered * l2 + (1 - covered) * mem
            llc_lat = covered * l2 + (1 - covered) * llc
            total_lat += (
                s.l1_hits * l1
                + s.l2_hits * l2
                + s.llc_hits * llc_lat
                + s.mem_accesses * miss_lat
            )
            total_cnt += s.accesses
        return total_lat / total_cnt if total_cnt else 0.0


#: Schema tag of serialized walk records.  Bump whenever the walk's
#: observable outcome for a given (geometry, stream content) pair can
#: change — a stale on-disk record must miss, never poison a result.
WALK_SCHEMA = "repro.walk/1"


def _stream_fingerprint(s: AccessStream) -> tuple:
    a = s.addresses
    n = a.size
    return (s.label, s.kind, s.dependent, s.gather, int(s.bytes), n,
            int(a[0]) if n else 0, int(a[-1]) if n else 0,
            int(a[:: max(1, n >> 4)].sum()) if n else 0)


def _streams_equal(stored: list[np.ndarray],
                   streams: list[AccessStream]) -> bool:
    return len(stored) == len(streams) and all(
        a is s.addresses or np.array_equal(a, s.addresses)
        for a, s in zip(stored, streams))


@identity_memo
def _array_digest(a: np.ndarray) -> str:
    """sha256 over one array's dtype and bytes, memoized by identity.

    The same address arrays are digested for the hierarchy walk, the
    LLC-only walk, and again on the post-miss ``put`` — hashing each
    one once turns the sha256 over multi-million-entry streams from the
    dominant disk-tier cost into a per-session constant.  A stream's
    address array is read-only (:class:`AccessStream` makes it so), so
    identity implies unchanged content.
    """
    c = a if a.flags.c_contiguous else np.ascontiguousarray(a)
    h = hashlib.sha256()
    h.update(str(c.dtype).encode())
    h.update(c.data)
    return h.hexdigest()


def _walk_digest(key: tuple, streams: list[AccessStream]) -> str:
    """Content address of one walk: sha256 over the cache geometry /
    sampling key and the full stream contents (dtype + raw bytes,
    folded in as per-array content digests)."""
    h = hashlib.sha256()
    h.update(repr((WALK_SCHEMA, key)).encode())
    for s in streams:
        h.update(_array_digest(s.addresses).encode())
    return h.hexdigest()


def _encode_walk(value) -> dict:
    """Walk value -> JSON-able payload for the disk tier."""
    profiles, levels = value
    return {"schema": WALK_SCHEMA,
            "profiles": [dict(vars(sp)) for sp in profiles],
            "levels": [[int(a), int(hits)] for a, hits in levels]}


def _decode_walk(payload: dict):
    """Disk payload -> walk value, or None when unusable."""
    if not isinstance(payload, dict) or payload.get(
            "schema") != WALK_SCHEMA:
        return None
    try:
        profiles = [StreamProfile(**p) for p in payload["profiles"]]
        levels = [(int(a), int(hits)) for a, hits in payload["levels"]]
    except (KeyError, TypeError, ValueError):
        return None
    return profiles, levels


class WalkCache:
    """Two-tier memo of hierarchy walks, plus per-level reuse.

    Architecture sweeps re-profile identical (geometry, stream content)
    pairs — core-side variants leave the cache hierarchy untouched —
    and the walk is a pure function of both, so its result can be
    reused freely:

    * **memory tier**: an in-process LRU over cheap fingerprint keys;
      every hit is *verified* against the stored address arrays with
      ``array_equal``, so a fingerprint collision can never change
      results.  At capacity the least-recently-used entry is evicted
      (an eviction only costs a recompute, never correctness).
    * **disk tier** (optional, installed by the runtime beside the
      result cache): records keyed by a sha256 over the geometry key
      and the full stream bytes, shared across ProcessPool workers,
      server jobs and sessions.  A disk hit is promoted into the
      memory tier.

    Replaying a cached walk reproduces the walk's observable side
    effects (per-level counters and stats) exactly, keeping telemetry
    identical to an unmemoized run.

    Below whole walks, the memory tier also keeps each level a walk
    classified: its hit bits (``np.packbits``) and access count, per
    stream set and *geometry prefix* (the sets × ways of that level and
    of every level above it).  A level's input is the misses of the
    levels above it, so a walk whose L1 (or L1 + L2) matches an earlier
    walk of the same streams — the Fig. 3 hosts and the Table 5
    machine share one scaled L1 — replays those levels and classifies
    only the ones below.  The records are keyed by the identity of the
    (read-only) address arrays and die with them.

    Lookup/store/reuse traffic is published under
    ``sim.memsys.walk_cache.*`` when telemetry is enabled.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, list] = OrderedDict()
        self._lock = threading.Lock()
        self.store = None  # disk tier (duck-typed: load/save)
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.levels_reused = 0
        # per stream set (identity of its address arrays): (prep key,
        # geometry prefix) -> (packed hit bits, accesses)
        self._level_tables = identity_memo(lambda *arrays: {})

    # ------------------------------------------------------------ telemetry

    def _tele(self, counter: str, n: int = 1) -> None:
        if obs.enabled():
            view = obs.active().prefixed("sim.memsys.walk_cache")
            view.counter(counter).add(n)
            lookups = self.hits + self.disk_hits + self.misses
            if lookups and counter in ("mem_hits", "disk_hits", "misses"):
                view.gauge("hit_rate").set(
                    (self.hits + self.disk_hits) / lookups)

    # ------------------------------------------------------------- lookups

    def lookup(self, key: tuple, streams: list[AccessStream]):
        """The cached walk for ``key``/``streams``, or None.  Checks
        the memory tier (verified), then the disk tier (content-
        addressed, so trusted by construction)."""
        with self._lock:
            entries = self._entries.get(key)
            if entries is not None:
                self._entries.move_to_end(key)
                entries = list(entries)
        if entries is not None:
            for stored, value in entries:
                if _streams_equal(stored, streams):
                    self.hits += 1
                    self._tele("mem_hits")
                    return value
        if self.store is not None:
            payload, nbytes = self.store.load(_walk_digest(key, streams))
            if payload is not None:
                value = _decode_walk(payload)
                if value is not None:
                    self.disk_hits += 1
                    self._tele("disk_hits")
                    self._tele("disk_bytes_read", nbytes)
                    self._install(key, streams, value)
                    return value
        self.misses += 1
        self._tele("misses")
        return None

    def put(self, key: tuple, streams: list[AccessStream], value) -> None:
        self._install(key, streams, value)
        self._tele("stores")
        if self.store is not None:
            nbytes = self.store.save(_walk_digest(key, streams),
                                     _encode_walk(value))
            self._tele("disk_bytes_written", nbytes)

    def _install(self, key: tuple, streams: list[AccessStream],
                 value) -> None:
        arrays = [s.addresses for s in streams]
        with self._lock:
            evicted = 0
            while len(self._entries) >= self.capacity and self._entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._entries.setdefault(key, []).append((arrays, value))
            self._entries.move_to_end(key)
        if evicted:
            self.evictions += evicted
            self._tele("evictions", evicted)

    # ------------------------------------------------------ level reuse

    def recorded_levels(self, arrays: tuple, prep: tuple,
                        geoms: list[tuple]) -> list[tuple]:
        """``(packed hit bits, accesses)`` of each level of the
        longest prefix of ``geoms`` an earlier walk of ``arrays``
        (prepared as ``prep``) classified, L1 first."""
        table = self._level_tables(*arrays)
        found = []
        for depth in range(1, len(geoms) + 1):
            record = table.get((prep, tuple(geoms[:depth])))
            if record is None:
                break
            found.append(record)
        if found:
            self.levels_reused += len(found)
            self._tele("levels_reused", len(found))
            self._tele("lines_reused", sum(r[1] for r in found))
        return found

    def record_level(self, arrays: tuple, prep: tuple,
                     geoms: list[tuple], hits: np.ndarray) -> None:
        """Keep the hit mask of the last level of ``geoms``."""
        self._level_tables(*arrays)[prep, tuple(geoms)] = (
            np.packbits(hits), hits.size)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self._level_tables.cache_clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_WALK_CACHE = WalkCache()


def walk_cache() -> WalkCache:
    """The process-wide walk cache (memory tier always on)."""
    return _WALK_CACHE


def configure_walk_store(store) -> None:
    """Install (or remove, with ``None``) the on-disk walk tier.  The
    runtime wires this to a ``walks/`` directory beside the result
    cache — in the driver process and in every ProcessPool worker."""
    _WALK_CACHE.store = store


class PreparedLines:
    """One stream's line sequence after dedup and window sampling
    (read-only), its pre-sampling size, the extrapolation factor and,
    on first use, its sequentiality."""

    __slots__ = ("lines", "total", "scale", "_sequentiality")

    def __init__(self, lines: np.ndarray, total: int, scale: float) -> None:
        lines.flags.writeable = False
        self.lines = lines
        self.total = total
        self.scale = scale
        self._sequentiality = None

    def sequentiality(self) -> float:
        if self._sequentiality is None:
            self._sequentiality = sequentiality(self.lines)
        return self._sequentiality


@identity_memo
def _prepared(addresses: np.ndarray) -> dict:
    """Per address array: (line size, sample window) -> its
    :class:`PreparedLines`.  Weakly held: it dies with the array."""
    return {}


def prepare_lines(stream: AccessStream, line_bytes: int,
                  sample_window: int | None) -> PreparedLines:
    """One stream's prepared line sequence — the shared prep step of
    the hierarchy walk and the LLC-only walk, done once per (address
    array, line size, window): machine variants walk the same
    read-only arrays."""
    table = _prepared(stream.addresses)
    prepared = table.get((line_bytes, sample_window))
    if prepared is None:
        lines = dedup_consecutive(to_lines(stream.addresses, line_bytes))
        total = lines.size
        scale = 1.0
        if sample_window and total > sample_window:
            # a copy, so the unsampled lines are not kept alive
            lines = lines[:sample_window].copy()
            scale = total / lines.size
        prepared = table[line_bytes, sample_window] = PreparedLines(
            lines, total, scale)
    return prepared


def sequentiality(lines: np.ndarray) -> float:
    """Fraction of accesses whose line is within +-2 lines of the
    previous access — the streams a stride/best-offset prefetcher
    covers."""
    if lines.size < 2:
        return 0.0
    deltas = np.abs(np.diff(lines))
    return float(np.mean(deltas <= 2))


@dataclass
class CacheLevel:
    """One level of a hierarchy walk: geometry, telemetry name and
    running :class:`CacheStats`.  A level holds no tag state — every
    walk starts it cold and classifies its whole line stream in one
    stateless :func:`repro.sim.stackdist.hit_mask` pass."""

    config: CacheConfig
    name: str
    stats: CacheStats = field(default_factory=CacheStats)
    _tele: _CacheTelemetry = field(default_factory=_CacheTelemetry,
                                   repr=False, compare=False)


#: the StreamProfile hit field of each level, L1 first; a walk over
#: fewer levels takes the last fields (the LLC-only view fills
#: ``llc_hits`` alone).
_HIT_FIELDS = ("l1_hits", "l2_hits", "llc_hits")


def _classify(levels: list[CacheLevel], streams: list[AccessStream],
              sample_window: int | None,
              prefetch: bool) -> list[StreamProfile]:
    """The batched walk: each stream's prepared lines are concatenated
    in declaration order; each level classifies the misses of the level
    before it in one stateless stack-distance pass, and hits are
    attributed back to streams by segment.  Exact: a level's state
    depends only on the lookups it serves, in the order it serves them
    — which is also why a level an earlier walk of the same streams
    classified behind the same upper levels can be replayed from its
    recorded hit bits.  Every level's outcome is folded into its stats
    and ``sim.cache.<name>.*`` telemetry, replayed or not."""
    line_bytes = levels[0].config.line_bytes
    prepared = [prepare_lines(s, line_bytes, sample_window)
                for s in streams]
    # Misses keep their order, so each stream's lines stay one
    # contiguous segment of every level's input: per-stream counts are
    # segment counts.
    sizes = [p.lines.size for p in prepared]
    lines = (np.concatenate([p.lines for p in prepared])
             if streams else np.zeros(0, dtype=np.int64))
    arrays = tuple(s.addresses for s in streams)
    prep = (line_bytes, sample_window)
    geoms = [(lv.config.num_sets, lv.config.ways) for lv in levels]
    recorded = _WALK_CACHE.recorded_levels(arrays, prep, geoms)
    level_hits = []
    for depth, level in enumerate(levels):
        if depth < len(recorded):
            packed, accesses = recorded[depth]
            hit = np.unpackbits(packed, count=accesses).view(bool)
        else:
            hit = (stackdist.hit_mask(lines, *geoms[depth]) if lines.size
                   else np.zeros(0, dtype=bool))
            _WALK_CACHE.record_level(arrays, prep, geoms[:depth + 1], hit)
        bounds = list(accumulate(sizes, initial=0))
        hits = [int(np.count_nonzero(hit[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])]
        if lines.size:
            settle_lookup(level, lines.size, sum(hits))
        level_hits.append(hits)
        sizes = [size - h for size, h in zip(sizes, hits)]
        if depth + 1 < len(levels):
            lines = lines[~hit]
    fields = _HIT_FIELDS[-len(levels):]

    profiles = []
    for i, (stream, p) in enumerate(zip(streams, prepared)):
        # Stride/best-offset prefetchers cover sequential streams, but
        # imperfectly: late prefetches and stream restarts leave about
        # a quarter of the latency exposed.
        coverage = (p.sequentiality() * 0.75
                    if prefetch and not stream.dependent else 0.0)
        profiles.append(StreamProfile(
            label=stream.label,
            kind=stream.kind,
            dependent=stream.dependent,
            gather=stream.gather,
            accesses=int(p.total * p.scale),
            bytes=int(stream.bytes),
            mem_accesses=int(sizes[i] * p.scale),
            prefetch_coverage=coverage,
            **{f: int(h[i] * p.scale) for f, h in zip(fields, level_hits)},
        ))
    return profiles


def walk(levels: list[CacheLevel], streams: list[AccessStream], *,
         sample_window: int | None = None,
         prefetch: bool = False) -> list[StreamProfile]:
    """Walk ``streams`` through cold ``levels`` (L1 first), through
    the walk cache.

    The walk is a pure function of the level geometries and the
    stream contents, so a cached walk is reused as is; replaying it
    folds the stored per-level counts into the levels' stats and
    telemetry, leaving both identical to a computed walk."""
    geom = tuple((lv.name, lv.config.size_bytes, lv.config.line_bytes,
                  lv.config.ways, lv.config.latency, lv.config.mshrs)
                 for lv in levels)
    key = (geom, sample_window, prefetch,
           tuple(_stream_fingerprint(s) for s in streams))
    value = _WALK_CACHE.lookup(key, streams)
    if value is not None:
        stored, counts = value
        for level, (accesses, hits) in zip(levels, counts):
            if accesses:
                settle_lookup(level, accesses, hits)
        return [replace(sp) for sp in stored]
    profiles = _classify(levels, streams, sample_window, prefetch)
    _WALK_CACHE.put(key, streams,
                    ([replace(sp) for sp in profiles],
                     [(lv.stats.accesses, lv.stats.hits) for lv in levels]))
    return profiles


class MemoryHierarchy:
    """L1D → L2 → LLC slice chain for one core."""

    def __init__(self, machine: MachineConfig, *,
                 sample_window: int | None = None,
                 model_prefetchers: bool = True) -> None:
        self.machine = machine
        self.sample_window = sample_window
        self.model_prefetchers = model_prefetchers
        self.l1 = CacheLevel(machine.l1d, "l1")
        self.l2 = CacheLevel(machine.l2, "l2")
        # The LLC is shared; with all cores running the same kernel on
        # disjoint row ranges, contention is symmetric, so one core sees
        # the full LLC for its share of the data.
        self.llc = CacheLevel(machine.llc, "llc")

    @property
    def levels(self) -> list[CacheLevel]:
        return [self.l1, self.l2, self.llc]

    def reset(self) -> None:
        for level in self.levels:
            level.stats = CacheStats()

    def profile(self, trace: KernelTrace) -> AccessProfile:
        """Walk all streams of a kernel trace (in declaration order)."""
        self.reset()
        profile = AccessProfile(line_bytes=self.machine.l1d.line_bytes)
        with obs.timer("sim.memsys.profile"):
            profile.streams.extend(walk(
                self.levels, trace.streams,
                sample_window=self.sample_window,
                prefetch=self.model_prefetchers))
        tracer = obs.tracer()
        if tracer.enabled:
            # per-stream spans in program order, from the walk's own
            # attribution — tracing never changes which code computes
            for sp in profile.streams:
                start = tracer.alloc(sp.accesses)
                tracer.span("sim.memsys", sp.label or "stream", start,
                            sp.accesses, {
                                "accesses": sp.accesses,
                                "l1_hits": sp.l1_hits,
                                "mem_lines": sp.mem_accesses,
                            })
        if obs.enabled():
            view = obs.active().prefixed("sim.memsys")
            view.counter("profiles").add()
            view.counter("streams").add(len(profile.streams))
            view.counter("mem_lines").add(profile.mem_lines)
            for level in self.levels:
                view.gauge(f"{level.name}.hit_rate").set(
                    level.stats.hit_rate)
        return profile


def llc_only_profile(machine: MachineConfig, streams: list[AccessStream],
                     *, sample_window: int | None = None) -> AccessProfile:
    """Profile streams against the LLC alone — the TMU's view of the
    hierarchy (it reads directly from the LLC, Section 5.6)."""
    profile = AccessProfile(line_bytes=machine.llc.line_bytes)
    profile.streams.extend(walk([CacheLevel(machine.llc, "tmu_llc")],
                                streams, sample_window=sample_window))
    return profile
