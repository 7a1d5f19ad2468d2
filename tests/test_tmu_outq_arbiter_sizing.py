"""outQ, memory arbiter and queue sizing tests (Sections 5.3-5.5)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TMUConfigError
from repro.obs import Tracer
from repro.tmu.arbiter import LINE_BYTES, MemoryArbiter
from repro.tmu.outq import MaskValue, OutQueue, OutQueueRecord
from repro.tmu.sizing import MIN_ENTRIES, size_queues
from repro.tmu.streams import MemoryArray
from repro.tmu.tu import PrimitiveKind, TraversalUnit


class TestOutQueue:
    def test_record_sizing(self):
        rec = OutQueueRecord("ri", ((1.0, 2.0), 3.0, MaskValue(0b11)),
                             0b11, 1)
        # header 4 + vec 16 + scalar 8 + mask 2
        assert rec.nbytes() == 30

    def test_chunk_accounting(self):
        q = OutQueue(chunk_bytes=64)
        rec = OutQueueRecord("ri", ((1.0,) * 7,), 0, 0)  # 4 + 56 = 60 B
        q.push(rec)
        assert q.chunks_completed == 0
        q.push(rec)
        assert q.chunks_completed == 1
        assert q.num_chunks == 2  # one full + one partial

    def test_drain(self):
        q = OutQueue()
        q.push(OutQueueRecord("a", (), 0, 0))
        assert len(q.drain()) == 1
        assert q.num_records == 0

    def test_chunk_must_fit_a_record(self):
        with pytest.raises(TMUConfigError):
            OutQueue(chunk_bytes=4)


class TestArbiter:
    def _tu_with_streams(self, layer, lane):
        tu = TraversalUnit(layer, lane, PrimitiveKind.DENSE, beg=0,
                           end=8)
        arr = MemoryArray(np.arange(8.0), base_address=(lane + 1) << 30,
                          elem_bytes=8, name=f"a{layer}{lane}")
        return tu, tu.add_mem_stream(arr), arr

    def test_consecutive_same_line_coalesces(self):
        arb = MemoryArbiter()
        tu, stream, arr = self._tu_with_streams(0, 0)
        # 8 elements x 8 B = one cache line
        arb.record_touches(tu, stream, [arr.address_of(i) for i in range(8)])
        assert arb.total_touches == 8
        assert arb.total_line_requests == 1
        assert arb.total_bytes() == 64

    def test_line_revisits_are_new_requests(self):
        arb = MemoryArbiter()
        tu, stream, arr = self._tu_with_streams(0, 0)
        arb.record_touches(tu, stream, [arr.address_of(0), 1 << 31,
                                        arr.address_of(0)])
        assert arb.total_line_requests == 3

    def test_priority_order(self):
        """Leftmost layers first, lanes round-robin, config order."""
        arb = MemoryArbiter()
        tu1, s1, a1 = self._tu_with_streams(1, 0)
        tu0, s0, a0 = self._tu_with_streams(0, 0)
        arb.record_touches(tu1, s1, [a1.address_of(0)])
        arb.record_touches(tu0, s0, [a0.address_of(0)])
        order = arb.priority_order()
        assert order[0].layer == 0
        assert order[1].layer == 1

    def test_access_streams_export(self):
        arb = MemoryArbiter()
        tu, stream, arr = self._tu_with_streams(0, 0)
        arb.record_touches(tu, stream, [arr.address_of(0)])
        exported = arb.access_streams()
        assert len(exported) == 1
        assert exported[0].elem_bytes == 64
        assert exported[0].kind == "read"


def _per_address_reference(batches):
    """The arbiter's contract written out one touch at a time: a touch
    opens a line request when its line differs from the previous touch
    of the same stream, batch boundaries notwithstanding."""
    touches, lines, last = 0, [], -1
    for batch in batches:
        for address in batch:
            touches += 1
            line = address // LINE_BYTES
            if line != last:
                lines.append(line)
                last = line
    return touches, lines, last


# addresses over a few lines, so runs, revisits and cross-batch
# carry-over of the last line are all common; batch sizes straddle the
# vectorized (n >= 32) and looped sides of StreamRequestLog.record_batch
_BATCHES = st.lists(
    st.lists(st.integers(0, 6 * LINE_BYTES - 1), max_size=80),
    max_size=6)


class TestRecordTouchesParity:
    @given(_BATCHES)
    @example([[0] * 40, [8] * 40])      # long batch continuing a line
    @example([[0] * 40, [8, 64, 0]])    # short batch after a long one
    @example([[64, 0], [0] * 33 + [64] * 2])  # revisit, then long
    @settings(max_examples=150, deadline=None)
    def test_batches_match_per_address_loop(self, batches):
        tu = TraversalUnit(0, 0, PrimitiveKind.DENSE, beg=0, end=8)
        arr = MemoryArray(np.zeros(8), 0, 8, "a")
        stream = tu.add_mem_stream(arr)
        arb = MemoryArbiter()
        arb.register(tu, stream)
        arb.tracer = Tracer()
        for batch in batches:
            arb.record_touches(tu, stream, batch)
        touches, lines, last = _per_address_reference(batches)
        (log,) = arb.priority_order()
        assert log.touches == touches
        assert log.lines == lines
        assert log.last_line == last
        # one grant instant per new line request
        grants = [e for e in arb.tracer.events if e[4] == "grant"]
        assert len(grants) == len(lines)


class TestSizing:
    def test_rightmost_layers_get_deeper_queues(self):
        sizing = size_queues([2, 3], [100.0, 10000.0], 2048)
        assert sizing.entries(1) > sizing.entries(0)
        assert sizing.per_lane_bytes_used <= 2048

    def test_minimum_entries_guaranteed(self):
        sizing = size_queues([2, 2], [1.0, 1e9], 2048)
        assert sizing.entries(0) >= MIN_ENTRIES

    def test_storage_overflow_rejected(self):
        with pytest.raises(TMUConfigError):
            size_queues([8, 8], [1.0, 1.0], 100)

    def test_zero_volume_falls_back_to_even_split(self):
        sizing = size_queues([2, 2], [0.0, 0.0], 2048)
        assert sizing.entries(0) == sizing.entries(1)

    def test_utilization_bounded(self):
        sizing = size_queues([3, 4], [10.0, 80.0], 2048)
        assert 0.5 < sizing.utilization <= 1.0

    def test_alignment_validation(self):
        with pytest.raises(TMUConfigError):
            size_queues([2], [1.0, 2.0], 2048)
