"""Lowering: partitioning, op emission, reuse flags, hints, and the
bulk lowering held equal to the per-iteration reference."""

import pytest

from lowering_reference import reference_lower_program
from repro.config import DEFAULT_CONFIG, NdcComponentMask, NdcLocation
from repro.core.algorithm1 import OffloadPlan
from repro.core.ir import (
    AddressSpaceAllocator,
    Array,
    ComputeSpec,
    LoopNest,
    OpaqueRef,
    Program,
    Statement,
    ref,
)
from repro.core.lowering import _partition, lower_program, pc_of
from repro.isa import OpKind
from repro.workloads import kernels as K
from repro.workloads import tracegen
from repro.workloads.kernels import SidCounter
from repro.workloads.suite import ALL_BENCHMARK_NAMES, build_benchmark

VARIANTS = ("original", "alg1", "alg2", "layout_alg1", "coda")


def simple_program(n=100, elem=8):
    alloc = AddressSpaceAllocator(base=1 << 22)
    A = alloc.allocate("A", (n,), elem)
    B = alloc.allocate("B", (n,), elem)
    C = alloc.allocate("C", (n,), elem)
    st = Statement(0, compute=ComputeSpec(
        x=ref(A, (1, 0)), y=ref(B, (1, 0)), dest=ref(C, (1, 0)),
    ), work=2)
    return Program("p", (LoopNest("n", (0,), (n - 1,), (st,)),))


class TestPartition:
    def test_covers_range_disjointly(self):
        blocks = _partition(0, 99, 7)
        covered = []
        for lo, hi in blocks:
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(100))

    def test_remainder_spread(self):
        blocks = _partition(0, 10, 4)
        sizes = [hi - lo + 1 for lo, hi in blocks]
        assert sorted(sizes) == [2, 3, 3, 3]

    def test_more_cores_than_iterations(self):
        blocks = _partition(0, 2, 5)
        nonempty = [b for b in blocks if b[0] <= b[1]]
        assert len(nonempty) == 3


class TestLowerProgram:
    def test_ops_distributed_across_cores(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG)
        assert len(tr) == 25
        busy = [s for s in tr if s]
        assert len(busy) == 25

    def test_op_mix(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG)
        kinds = {op.kind for s in tr for op in s}
        assert kinds == {OpKind.WORK, OpKind.COMPUTE}

    def test_total_compute_count(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG)
        n = sum(1 for s in tr for op in s if op.kind == OpKind.COMPUTE)
        assert n == 100

    def test_fewer_cores_option(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG, cores=4)
        assert len(tr) == 4

    def test_too_many_cores_rejected(self):
        with pytest.raises(ValueError):
            lower_program(simple_program(10), DEFAULT_CONFIG, cores=26)

    def test_deterministic(self):
        a = lower_program(simple_program(64), DEFAULT_CONFIG)
        b = lower_program(simple_program(64), DEFAULT_CONFIG)
        assert a == b

    def test_plan_emits_pre_compute(self):
        prog = simple_program(64)
        sid0 = prog.nests[0].body[0].sid
        plans = {sid0: OffloadPlan(
            sid=sid0, mask=NdcComponentMask.MEMCTRL,
            primary=NdcLocation.MEMCTRL, timeout=99, use_route_hints=False,
            feasible_fraction=1.0,
        )}
        tr = lower_program(prog, DEFAULT_CONFIG, plans)
        ops = [op for s in tr for op in s if op.is_ndc_candidate()]
        assert all(op.kind == OpKind.PRE_COMPUTE for op in ops)
        assert all(op.timeout == 99 for op in ops)
        assert all(op.mask == NdcComponentMask.MEMCTRL for op in ops)

    def test_route_hints_attached_for_network_plans(self):
        alloc = AddressSpaceAllocator(base=1 << 22)
        sid = SidCounter()
        nest = K.stream_pair(alloc, sid, "s", 200, elem=256)
        prog = Program("p", (nest,))
        csid = next(st.sid for st in nest.body if st.compute is not None)
        plans = {csid: network_plan(csid)}
        tr = assert_matches_reference(prog, DEFAULT_CONFIG, plans)
        hints = [op.route_hint for s in tr for op in s
                 if op.kind == OpKind.PRE_COMPUTE]
        assert any(h is not None for h in hints)
        assert any(h is None for h in hints)

    def test_transformed_nest_changes_order_not_content(self):
        prog = simple_program(64)
        nest = prog.nests[0]
        # A reversal is legal for this dependence-free nest.
        t_prog = prog.replace_nest(nest, nest.with_transform(((-1,),)))
        a = lower_program(prog, DEFAULT_CONFIG, cores=1)
        b = lower_program(t_prog, DEFAULT_CONFIG, cores=1)
        assert a != b
        assert sorted(op.addr for op in a[0]) == sorted(op.addr for op in b[0])


#: byte-addressed memory: ``at(a)`` is a reference to address ``a``
MEM = Array("mem", (1 << 16,), base=0, element_size=1)


def at(addr):
    return ref(MEM, (0, addr))


def one_core_ops(cfg, *body):
    """The op stream of a one-iteration nest of ``body`` on one core."""
    prog = Program("p", (LoopNest("n", (0,), (0,), body),))
    return lower_program(prog, cfg, cores=1)[0]


def compute_at(sid, x, y, dest=None):
    return Statement(sid, compute=ComputeSpec(
        x=at(x), y=at(y), dest=None if dest is None else at(dest),
    ))


class TestAnnotateReuse:
    def test_line_reuse_by_later_load(self, cfg):
        out = one_core_ops(cfg, compute_at(0, 0x1000, 0x2000),
                           Statement(1, reads=(at(0x1000),)))
        assert out[0].x_reused and not out[0].y_reused

    def test_spatial_neighbour_counts(self, cfg):
        out = one_core_ops(cfg, compute_at(0, 0x1000, 0x2000),
                           Statement(1, reads=(at(0x1010),)))  # same 64B line
        assert out[0].x_reused

    def test_no_future_touch(self, cfg):
        out = one_core_ops(cfg, Statement(0, reads=(at(0x1000),)),
                           compute_at(1, 0x1000, 0x2000))
        assert not out[1].x_reused and not out[1].y_reused

    def test_dest_touch_counts(self, cfg):
        out = one_core_ops(cfg, compute_at(0, 0x1000, 0x2000),
                           compute_at(1, 0x3000, 0x4000, dest=0x2000))
        assert out[0].y_reused

    def test_order_preserved(self, cfg):
        out = one_core_ops(cfg, Statement(0, reads=(at(0x0),)),
                           Statement(1, writes=(at(0x40),)),
                           compute_at(2, 0x80, 0xC0))
        assert [o.kind for o in out] == [
            OpKind.LOAD, OpKind.STORE, OpKind.COMPUTE
        ]

    def test_own_dest_is_not_later(self, cfg):
        out = one_core_ops(cfg, compute_at(0, 0x1000, 0x2000, dest=0x1008))
        assert not out[0].x_reused and not out[0].y_reused


def assert_matches_reference(program, cfg, plans=None, cores=None):
    got = lower_program(program, cfg, plans, cores)
    assert got == reference_lower_program(program, cfg, plans, cores)
    return got


def lowering_args(monkeypatch, name, variant, scale):
    """The arguments ``compiled_trace`` hands ``lower_program``."""
    seen = []
    monkeypatch.setattr(tracegen, "lower_program",
                        lambda *args: seen.append(args) or ())
    tracegen.clear_cache()
    tracegen.compiled_trace(name, variant, scale, DEFAULT_CONFIG)
    return seen[0]


def network_plan(sid):
    return OffloadPlan(
        sid=sid, mask=NdcComponentMask.NETWORK, primary=NdcLocation.NETWORK,
        timeout=16, use_route_hints=True, feasible_fraction=1.0,
    )


def grid_program(n0=6, n1=5, transform=None, shifts=()):
    """A two-deep nest over rank-2 arrays, with plain reads and writes,
    negative coefficients and offsets, and a compute."""
    alloc = AddressSpaceAllocator(base=1 << 22)
    A = alloc.allocate("A", (n0, n1), 8)
    B = alloc.allocate("B", (n0 + 2, n1), 16)
    C = alloc.allocate("C", (n1, n0), 8)
    body = (
        Statement(0, reads=(ref(A, (1, 0, 0), (0, 1, 0)),), work=1),
        Statement(1, compute=ComputeSpec(
            x=ref(A, (1, 0, 0), (0, -1, 3)), y=ref(B, (-1, 0, 1), (0, 1, -2)),
            dest=ref(C, (0, 1, 0), (1, 0, 0)),
        ), work=3),
        Statement(2, writes=(ref(B, (1, 0, 2), (0, 1, 0)),
                             ref(A, (2, 0, -1), (0, 1, 1)))),
    )
    nest = LoopNest("g", (0, 0), (n0 - 1, n1 - 1), body,
                    transform=transform, stmt_shifts=shifts)
    return Program("g", (nest,))


class TestBulkMatchesReference:
    """``lower_program`` returns exactly the per-iteration lowering."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
    def test_benchmark(self, monkeypatch, name, variant):
        assert_matches_reference(*lowering_args(monkeypatch, name, variant, 0.1))

    @pytest.mark.slow
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
    def test_benchmark_at_scale(self, monkeypatch, name, variant):
        assert_matches_reference(*lowering_args(monkeypatch, name, variant, 0.4))

    def test_fewer_outer_iterations_than_cores(self, cfg):
        tr = assert_matches_reference(grid_program(n0=3), cfg)
        assert sum(1 for s in tr if s) == 3

    @pytest.mark.parametrize("cores", [1, 4, 7])
    def test_fewer_cores_than_the_mesh(self, cfg, cores):
        tr = assert_matches_reference(grid_program(n0=11), cfg, cores=cores)
        assert len(tr) == cores

    @pytest.mark.parametrize("transform", [
        ((0, 1), (1, 0)), ((1, 0), (1, 1)), ((-1, 0), (0, -1)),
    ], ids=["interchange", "skew", "reversal"])
    def test_transformed_nest(self, cfg, transform):
        assert_matches_reference(grid_program(transform=transform), cfg)
        assert_matches_reference(grid_program(transform=transform), cfg,
                                 cores=4)

    @pytest.mark.parametrize("shifts", [
        ((1, (1, 0)),),
        ((1, (-2, 1)), (2, (0, -1))),
        ((0, (1,)),),          # shorter than the depth
        ((1, (1, -1, 5)),),    # longer than the depth
    ], ids=["outer", "both", "short-delta", "long-delta"])
    def test_shifted_statements(self, cfg, shifts):
        prog = grid_program(shifts=shifts, transform=((0, 1), (1, 0)))
        tr = assert_matches_reference(prog, cfg, cores=4)
        shifted = {pc_of(sid, slot) for sid, _ in shifts
                   for slot in range(16)}
        n_shifted = sum(1 for s in tr for op in s if op.pc in shifted)
        assert n_shifted > 0
        # Every statement of grid_program lowers to two ops per instance.
        iterations = prog.nests[0].iterations
        assert n_shifted < 2 * iterations * len(shifts), (
            "some shifted instances fall outside the space"
        )

    def test_opaque_operands(self, cfg):
        alloc = AddressSpaceAllocator(base=1 << 22)
        sid = SidCounter()
        V = alloc.allocate("V", (7,), 8)

        def resolver(it):
            # A resolver sees the iteration as a tuple of Python ints.
            assert type(it) is tuple and all(type(v) is int for v in it)
            return ((3 * it[0] + it[-1]) % 7,)

        gather = Statement(sid(), reads=(OpaqueRef(V, resolver),), work=1)
        prog = Program("o", (
            K.spmv_csr(alloc, sid, "s", 40),
            K.pairwise_opaque(alloc, sid, "p", 30, 3, seed=1),
            LoopNest("g", (0, 0), (9, 2), (gather,),
                     stmt_shifts=((gather.sid, (1, 0)),)),
        ))
        assert_matches_reference(prog, cfg, cores=5)

    def test_dest_shares_a_line_with_an_operand(self, cfg):
        alloc = AddressSpaceAllocator(base=1 << 22)
        A = alloc.allocate("A", (64,), 8)
        B = alloc.allocate("B", (64,), 8)
        st = Statement(0, compute=ComputeSpec(
            x=ref(A, (2, 0)), y=ref(B, (1, 0)), dest=ref(A, (2, 1)),
        ))
        prog = Program("p", (LoopNest("n", (0,), (31,), (st,)),))
        tr = assert_matches_reference(prog, cfg, cores=2)
        flags = [(op.x_reused, op.y_reused) for s in tr for op in s]
        assert (True, True) in flags and (False, False) in flags


class TestSharedWork:
    def test_one_object_per_statement_work_op(self, cfg):
        prog = build_benchmark("md", 0.1)
        tr = lower_program(prog, cfg)
        work_ids = {}
        for s in tr:
            for op in s:
                if op.kind == OpKind.WORK:
                    work_ids.setdefault(op.pc, set()).add(id(op))
        assert work_ids
        assert all(len(ids) == 1 for ids in work_ids.values())
        non_work = sum(1 for s in tr for op in s if op.kind != OpKind.WORK)
        with_work = sum(1 for _, st in prog.statements() if st.work > 0)
        assert len({id(op) for s in tr for op in s}) == non_work + with_work


class TestPcEncoding:
    def test_compute_slot(self):
        assert pc_of(3) == 3 * 16 + 15

    def test_read_slots_distinct(self):
        assert pc_of(3, 0) != pc_of(3, 1) != pc_of(4, 0)
