"""Work a sweep shares between cells: identity-memoized operands and
streams, TMU-only cells, and the vectorized SpAdd merge count."""

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import WorkloadError
from repro.eval import workloads as wl
from repro.formats.csr import CsrMatrix
from repro.kernels.spadd import characterize_spadd
from repro.kernels.spmspm import (
    _symbolic_counts_fast,
    characterize_spmspm,
    spmspm_symbolic,
)
from repro.memo import identity_memo
from repro.programs import spmspm_timing_model
from repro.runtime import SimTask
from repro.runtime.cache import ResultCache
from repro.runtime.task import run_from_record
from repro.sim.memsys import MemoryHierarchy


def csr_from_cells(shape, cells) -> CsrMatrix:
    """A CSR matrix holding a 1.0 at every (row, col) of ``cells``."""
    rows, cols = shape
    flat = np.array(sorted(r * cols + c for r, c in cells), dtype=np.int64)
    counts = np.bincount(flat // max(cols, 1), minlength=rows)
    ptrs = np.concatenate(([0], np.cumsum(counts)))
    return CsrMatrix(shape, ptrs, flat % max(cols, 1), np.ones(flat.size))


def fresh_matrix(rng, n: int = 64, nnz: int = 256) -> CsrMatrix:
    """A random ``n x n`` matrix with exactly ``nnz`` non-zeros."""
    flat = np.sort(rng.choice(n * n, size=nnz, replace=False))
    ptrs = np.concatenate(([0], np.cumsum(np.bincount(flat // n, minlength=n))))
    return CsrMatrix((n, n), ptrs, flat % n, rng.random(nnz))


class TestIdentityMemo:
    def test_hits_by_identity_not_equality(self):
        calls = []
        square = identity_memo(lambda x: calls.append(x) or x * x)
        a, b = np.arange(4), np.arange(4)
        assert square(a) is square(a)
        square(b)
        assert len(calls) == 2

    def test_entry_dies_with_its_operand(self):
        calls = []
        total = identity_memo(lambda x, y: calls.append(1) or x.sum() + y.sum())
        for _ in range(20):
            x, y = np.arange(8), np.arange(3)
            total(x, y)
            del x, y
            gc.collect()
        assert len(calls) == 20

    def test_fresh_operands_never_see_a_freed_operands_result(self):
        # Freeing both operands before building the next pair lets the
        # fresh ones take the freed ids; with the same nnz, a memo
        # keyed on (id, nnz) served them the old counts.
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = fresh_matrix(rng)
            b = a.transpose()
            np.testing.assert_array_equal(
                _symbolic_counts_fast(a, b), spmspm_symbolic(a, b)
            )
            del b, a


class TestSharedStreams:
    def test_machine_variants_share_read_only_arrays(self, small_machine):
        a = fresh_matrix(np.random.default_rng(1))
        b = a.transpose()
        wide = small_machine.with_core(vector_bits=512)
        narrow = small_machine.with_core(vector_bits=128)
        for build in (
            lambda m: characterize_spmspm(a, b, m).streams,
            lambda m: spmspm_timing_model(a, b, m).tmu_streams,
            lambda m: spmspm_timing_model(a, b, m).core_trace.streams,
        ):
            first, second = build(wide), build(narrow)
            assert first is not second
            assert len(first) == len(second) > 0
            for s, t in zip(first, second):
                assert s.addresses is t.addresses
                assert not s.addresses.flags.writeable
            first.append(first[0])
            assert len(build(wide)) == len(second)

    def test_counts_still_follow_the_machine(self, small_machine):
        a = fresh_matrix(np.random.default_rng(2))
        b = a.transpose()
        wide = characterize_spmspm(a, b, small_machine.with_core(vector_bits=512))
        narrow = characterize_spmspm(a, b, small_machine.with_core(vector_bits=128))
        assert narrow.vector_ops > wide.vector_ops


def merge_counts_per_row(a: CsrMatrix, b: CsrMatrix) -> tuple[int, int]:
    """Golden reference: merge steps and two-hit steps, row by row."""
    steps = both = 0
    for i in range(a.num_rows):
        ia = a.idxs[a.ptrs[i] : a.ptrs[i + 1]]
        ib = b.idxs[b.ptrs[i] : b.ptrs[i + 1]]
        inter = np.intersect1d(ia, ib, assume_unique=True).size
        steps += ia.size + ib.size - inter
        both += inter
    return steps, both


@st.composite
def matrix_pairs(draw):
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(1, 7))
    cell = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, cols - 1))
    cells = st.sets(cell, max_size=rows * cols) if rows else st.just(set())
    return (
        csr_from_cells((rows, cols), draw(cells)),
        csr_from_cells((rows, cols), draw(cells)),
    )


class TestSpaddMergeCount:
    @given(pair=matrix_pairs())
    @example(pair=(csr_from_cells((0, 3), []), csr_from_cells((0, 3), [])))
    @example(pair=(csr_from_cells((4, 4), []), csr_from_cells((4, 4), [])))
    @example(pair=(csr_from_cells((4, 4), [(2, 1)]), csr_from_cells((4, 4), [])))
    @example(
        pair=(csr_from_cells((4, 4), [(2, 1)]), csr_from_cells((4, 4), [(2, 1)]))
    )
    @example(
        pair=(
            csr_from_cells((5, 3), [(0, 0), (0, 2), (4, 1)]),
            csr_from_cells((5, 3), [(0, 2), (3, 0), (4, 1)]),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_row_loop(self, pair, small_machine):
        a, b = pair
        steps, both = merge_counts_per_row(a, b)
        trace = characterize_spadd(a, b, small_machine)
        assert trace.flops == float(both)
        assert trace.datadep_branches == 2 * steps
        assert trace.scalar_ops == 7 * steps + 5 * a.num_rows
        z_idxs = next(s for s in trace.streams if s.label == "Z idxs")
        assert z_idxs.count == steps

    def test_rejects_mismatched_shapes(self, small_machine):
        with pytest.raises(WorkloadError):
            characterize_spadd(
                csr_from_cells((3, 4), []), csr_from_cells((4, 3), []), small_machine
            )


class TestTmuOnlyCells:
    def test_tmu_cell_skips_the_baseline(self, small_machine, monkeypatch):
        calls = {"characterize": 0, "profile": 0}
        spec = wl.WORKLOADS["spmspm"]
        profile = MemoryHierarchy.profile

        def counted_baseline(data, machine):
            calls["characterize"] += 1
            return spec.baseline(data, machine)

        def counted_profile(self, trace):
            calls["profile"] += 1
            return profile(self, trace)

        monkeypatch.setitem(
            wl.WORKLOADS, "spmspm", replace(spec, baseline=counted_baseline)
        )
        monkeypatch.setattr(MemoryHierarchy, "profile", counted_profile)
        run_cell = wl.run_workload.__wrapped__
        tmu_only = run_cell("spmspm", "M2", small_machine, variants=("tmu",))
        assert calls == {"characterize": 0, "profile": 0}
        assert tmu_only.baseline is None
        both = run_cell("spmspm", "M2", small_machine)
        assert calls == {"characterize": 1, "profile": 1}
        assert tmu_only.tmu == both.tmu

    def test_tmu_record_round_trips(self, tmp_path):
        task = SimTask("spmspm", "M2", variants=("tmu",))
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, task.evaluate())
        record = cache.get(task)
        assert set(record["results"]) == {"tmu"}
        run = run_from_record(record)
        direct = wl.run_workload(
            "spmspm", "M2", task.resolved_machine(), variants=("tmu",)
        )
        assert run.baseline is None
        assert run.tmu == direct.tmu

    @pytest.mark.parametrize("missing", ["baseline", "tmu"])
    def test_speedup_needs_both_sides(self, missing):
        full = wl.run_workload("spmv", "M6", SimTask("spmv", "M6").resolved_machine())
        run = replace(full, **{missing: None})
        with pytest.raises(WorkloadError):
            run.speedup
