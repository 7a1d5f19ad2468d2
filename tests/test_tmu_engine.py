"""Engine semantics tests: ordering, hierarchy and env resolution, plus
``_builders()``, one small program per Table 4 kernel, shared with the
tracing-parity tests."""

import numpy as np
import pytest

from repro.errors import TMUConfigError, TMURuntimeError
from repro.fibers.fiber import Fiber
from repro.formats.convert import coo_to_csf
from repro.generators import uniform_random_matrix, uniform_random_tensor
from repro.kernels import split_rows_cyclic
from repro.kernels.triangle import lower_triangle
from repro.programs import (
    build_mttkrp_program,
    build_spkadd_program,
    build_spmm_program,
    build_spmspm_program,
    build_spmspv_program,
    build_spmv_program,
    build_sptc_program,
    build_spttm_program,
    build_spttv_program,
    build_triangle_program,
)
from repro.tmu import Event, LayerMode, Program, TmuEngine
from repro.tmu.program import ScalarOperand


def two_layer_program(rows=3, cols_per_row=2):
    """A program traversing a tiny dense matrix row by row."""
    prog = Program("nest", lanes=1)
    n = rows * cols_per_row
    data = prog.place_array(np.arange(float(n)), 8, "data")
    ptrs = prog.place_array(
        np.arange(rows + 1, dtype=np.int64) * cols_per_row, 4, "ptrs")

    l0 = prog.add_layer(LayerMode.SINGLE)
    row = l0.dns_fbrt(beg=0, end=rows)
    beg = row.add_mem_stream(ptrs, name="beg")
    end = row.add_mem_stream(ptrs, offset=1, name="end")
    l0.add_callback(Event.GBEG, "outer_beg", [])
    l0.add_callback(Event.GITE, "outer_ite", [])
    l0.add_callback(Event.GEND, "outer_end", [])

    l1 = prog.add_layer(LayerMode.SINGLE)
    col = l1.rng_fbrt(beg=beg, end=end)
    val = col.add_mem_stream(data, name="val")
    l1.add_callback(Event.GITE, "inner_ite", [l1.vec_operand([val])])
    l1.add_callback(Event.GEND, "inner_end", [])
    return prog


class TestOrdering:
    def test_loop_nest_order(self):
        """Callbacks fire exactly as the equivalent nested loop would
        (outQ serialization across TGs, Section 5.3)."""
        prog = two_layer_program(rows=2, cols_per_row=2)
        order = []
        engine = TmuEngine(prog)
        engine.run(lambda rec: order.append(rec.callback_id))
        assert order == [
            "outer_beg",
            "outer_ite", "inner_ite", "inner_ite", "inner_end",
            "outer_ite", "inner_ite", "inner_ite", "inner_end",
            "outer_end",
        ]

    def test_operand_values_in_order(self):
        prog = two_layer_program(rows=3, cols_per_row=2)
        seen = []
        engine = TmuEngine(prog)
        engine.run({"inner_ite": lambda r: seen.append(r.operands[0][0])})
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stats_layers(self):
        prog = two_layer_program(rows=3, cols_per_row=2)
        stats = TmuEngine(prog).run()
        assert stats.layer_iterations == [3, 6]
        assert stats.layer_activations == [1, 3]


class TestEnvResolution:
    def test_grandparent_stream_visible_at_leaf(self):
        """A layer-0 stream is resolvable as a scalar operand at layer
        2 (the fwd semantics)."""
        prog = Program("deep", lanes=1, max_layers=3)
        ids = prog.place_array(np.array([7.0, 8.0]), 8, "ids")
        ptr = prog.place_array(np.array([0, 1, 2]), 4, "ptr")

        l0 = prog.add_layer(LayerMode.SINGLE)
        root = l0.dns_fbrt(beg=0, end=2)
        label = root.add_mem_stream(ids, name="label")
        b0 = root.add_mem_stream(ptr, name="b0")
        e0 = root.add_mem_stream(ptr, offset=1, name="e0")

        l1 = prog.add_layer(LayerMode.SINGLE)
        mid = l1.rng_fbrt(beg=b0, end=e0)
        b1 = mid.add_mem_stream(ptr, name="b1")
        e1 = mid.add_mem_stream(ptr, offset=1, name="e1")

        l2 = prog.add_layer(LayerMode.SINGLE)
        leaf = l2.rng_fbrt(beg=b1, end=e1)
        leaf.add_mem_stream(ids, name="junk")
        l2.add_callback(Event.GITE, "leaf", [ScalarOperand(label)])

        seen = []
        TmuEngine(prog).run({"leaf": lambda r: seen.append(
            r.operands[0])})
        assert 7.0 in seen or 8.0 in seen

    def test_missing_operand_raises(self):
        prog = Program("broken", lanes=1)
        prog.place_array(np.zeros(4), 8, "a")
        l0 = prog.add_layer(LayerMode.SINGLE)
        l0.dns_fbrt(beg=0, end=2)
        stray_prog = Program("other", lanes=1)
        stray_arr = stray_prog.place_array(np.zeros(4), 8, "b")
        stray_l0 = stray_prog.add_layer(LayerMode.SINGLE)
        stray_tu = stray_l0.dns_fbrt(beg=0, end=2)
        stray = stray_tu.add_mem_stream(stray_arr, name="stray")
        l0.add_callback(Event.GEND, "cb", [ScalarOperand(stray)])
        with pytest.raises(TMURuntimeError):
            TmuEngine(prog).run()


class TestHierarchicalPredicates:
    def test_merge_mask_gates_child_lanes(self):
        """DCSR-style hierarchy: the row-level DisjMrg predicate selects
        which lanes' column fibers merge below (Section 4.2)."""
        prog = Program("hier", lanes=2)
        # lane 0 has rows {0, 1}; lane 1 has rows {1}
        r0 = prog.place_array(np.array([0, 1]), 4, "rows0")
        r1 = prog.place_array(np.array([1]), 4, "rows1")
        p0 = prog.place_array(np.array([0, 1, 2]), 4, "p0")
        p1 = prog.place_array(np.array([0, 1]), 4, "p1")
        c0 = prog.place_array(np.array([5, 6]), 4, "c0")
        c1 = prog.place_array(np.array([5]), 4, "c1")

        l0 = prog.add_layer(LayerMode.DISJ_MRG)
        tu0 = l0.dns_fbrt(beg=0, end=2)
        k0 = tu0.add_mem_stream(r0, name="ridx0")
        b0 = tu0.add_mem_stream(p0, name="b0")
        e0 = tu0.add_mem_stream(p0, offset=1, name="e0")
        tu0.set_merge_key(k0)
        tu1 = l0.dns_fbrt(beg=0, end=1)
        k1 = tu1.add_mem_stream(r1, name="ridx1")
        b1 = tu1.add_mem_stream(p1, name="b1")
        e1 = tu1.add_mem_stream(p1, offset=1, name="e1")
        tu1.set_merge_key(k1)

        l1 = prog.add_layer(LayerMode.DISJ_MRG)
        ca = l1.rng_fbrt(beg=b0, end=e0)
        ka = ca.add_mem_stream(c0, name="col0")
        ca.set_merge_key(ka)
        cb = l1.rng_fbrt(beg=b1, end=e1)
        kb = cb.add_mem_stream(c1, name="col1")
        cb.set_merge_key(kb)
        l1.add_callback(Event.GITE, "point",
                        [l1.mask_operand(), l1.index_operand()])

        points = []
        TmuEngine(prog).run({"point": lambda r: points.append(
            (int(r.operands[0]), int(r.operands[1])))})
        # row 0: only lane 0 active -> (mask=01, col 5)
        # row 1: both lanes active; lane 0 holds col {6}, lane 1 {5}
        assert points == [(0b01, 5), (0b10, 5), (0b01, 6)]


class TestRuntimeGuards:
    def test_layer_overflow_at_engine(self):
        prog = two_layer_program()
        from repro.config import TMUConfig

        with pytest.raises(TMUConfigError):
            TmuEngine(prog, TMUConfig(layers=1))


# ------------------------------------------------ Table 4 kernel programs


def _builders():
    rng = np.random.default_rng(31)
    matrix = uniform_random_matrix(30, 30, 4, seed=13)
    vector = rng.random(matrix.num_cols)
    sv_idx = np.sort(rng.choice(matrix.num_cols, 7, replace=False))
    csf = coo_to_csf(uniform_random_tensor((9, 8, 7), 100, seed=6))
    return {
        "spmv": lambda: build_spmv_program(matrix, vector, lanes=2),
        "spmspv": lambda: build_spmspv_program(matrix, Fiber(sv_idx, rng.random(7))),
        "spmm": lambda: build_spmm_program(
            matrix, rng.random((matrix.num_cols, 5)), lanes=2
        ),
        "spmspm": lambda: build_spmspm_program(matrix, matrix.transpose(), lanes=2),
        "spkadd": lambda: build_spkadd_program(split_rows_cyclic(matrix, 4)),
        "triangle": lambda: build_triangle_program(
            lower_triangle(uniform_random_matrix(40, 40, 5, seed=21))
        ),
        "mttkrp": lambda: build_mttkrp_program(
            uniform_random_tensor((10, 8, 6), 120, seed=5),
            rng.random((8, 4)),
            rng.random((6, 4)),
        ),
        "spttv": lambda: build_spttv_program(csf, rng.random(7)),
        "spttm": lambda: build_spttm_program(csf, rng.random((7, 3))),
        "sptc": lambda: build_sptc_program(
            coo_to_csf(uniform_random_tensor((8, 7, 6), 90, seed=7)),
            coo_to_csf(uniform_random_tensor((6, 7, 9), 90, seed=8)),
        ),
    }

