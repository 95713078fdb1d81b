"""Loop-nest IR: arrays, references, statements, nests, allocation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import OpClass
from repro.core.ir import (
    AddressSpaceAllocator,
    Array,
    ArrayRef,
    ComputeSpec,
    LoopNest,
    OpaqueRef,
    Program,
    Statement,
    ref,
)


@pytest.fixture
def A():
    return Array("A", (8, 10), base=1 << 20)


class TestArray:
    def test_row_major_addressing(self, A):
        assert A.address((0, 0)) == A.base
        assert A.address((0, 1)) == A.base + 8
        assert A.address((1, 0)) == A.base + 10 * 8

    def test_element_size(self):
        X = Array("X", (4,), base=0, element_size=64)
        assert X.address((1,)) == 64
        assert X.size_bytes == 256

    def test_subscript_wraps(self, A):
        assert A.address((0, 10)) == A.address((0, 0))

    def test_rank_mismatch(self, A):
        with pytest.raises(ValueError):
            A.address((1,))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Array("Z", (0,), base=0)


class TestArrayRef:
    def test_affine_subscripts(self, A):
        r = ref(A, (1, 0, 0), (0, 1, -1))  # A[i, j-1]
        assert r.subscripts((3, 4)) == (3, 3)
        assert r.address((3, 4)) == A.address((3, 3))

    def test_uniform_detection(self, A):
        a = ref(A, (1, 0, 0), (0, 1, 0))
        b = ref(A, (1, 0, 1), (0, 1, 2))
        c = ref(A, (0, 1, 0), (1, 0, 0))  # transposed access matrix
        assert a.is_uniform_with(b)
        assert not a.is_uniform_with(c)

    def test_rank_validation(self, A):
        with pytest.raises(ValueError):
            ArrayRef(A, ((1, 0),), (0,))  # rank-1 F for rank-2 array

    def test_repr_readable(self, A):
        r = ref(A, (1, 0, 0), (0, 1, -1))
        s = repr(r)
        assert "A[" in s and "i0" in s

    def test_opaque_ref_resolution(self, A):
        o = OpaqueRef(A, lambda it: (it[0] % 8, 0), tag="t")
        assert o.address((9,)) == A.address((1, 0))

    def test_opaque_bulk_addresses_resolve_per_point(self, A):
        o = OpaqueRef(A, lambda it: (it[0] % 8, it[1]), tag="t")
        pts = np.array([[9, 2], [-1, 0]], dtype=np.int64)
        assert o.addresses(pts) == [A.address((1, 2)), A.address((7, 0))]

    def test_bulk_addresses_refuse_an_extent_past_int64(self):
        huge = Array("huge", (4,), base=(1 << 63) - 16, element_size=8)
        with pytest.raises(ValueError, match="huge"):
            ref(huge, (1, 0)).addresses(np.zeros((1, 1), dtype=np.int64))

    def test_bulk_addresses_refuse_subscripts_past_int64(self):
        X = Array("X", (7,), base=0)
        r = ref(X, (1 << 62, 0))
        with pytest.raises(ValueError, match="X"):
            r.addresses(np.array([[4]], dtype=np.int64))
        # The per-point address, in Python ints, does not wrap.
        assert r.address((4,)) == (1 << 64) % 7 * 8


@st.composite
def refs_and_points(draw):
    """An affine reference of rank 1-3 and iteration points whose depth
    may be below, at or above the length of its subscript rows."""
    rank = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 12), min_size=rank, max_size=rank))
    array = Array("X", tuple(shape), base=draw(st.integers(0, 1 << 40)),
                  element_size=draw(st.sampled_from([1, 4, 8, 16, 64])))
    row_len = draw(st.integers(0, 4))
    coeffs = st.lists(st.integers(-6, 6), min_size=row_len, max_size=row_len)
    F = [draw(coeffs) for _ in range(rank)]
    f = draw(st.lists(st.integers(-50, 50), min_size=rank, max_size=rank))
    depth = draw(st.integers(1, 3))
    point = st.lists(st.integers(-40, 40), min_size=depth, max_size=depth)
    points = draw(st.lists(point, min_size=1, max_size=30))
    return ArrayRef(array, F, f), np.array(points, dtype=np.int64)


@given(refs_and_points())
@settings(max_examples=300, deadline=None)
def test_bulk_addresses_equal_per_point_addresses(case):
    r, points = case
    got = r.addresses(points)
    assert got == [r.address(tuple(p)) for p in points.tolist()]
    assert all(type(a) is int for a in got)


class TestStatement:
    def test_compute_operands_are_reads(self, A):
        spec = ComputeSpec(
            x=ref(A, (1, 0, 0), (0, 1, 0)), y=ref(A, (1, 0, 0), (0, 1, 1)),
            op=OpClass.ADD, dest=ref(A, (1, 0, 0), (0, 1, 2)),
        )
        st = Statement(0, compute=spec)
        assert len(st.all_reads()) == 2
        assert len(st.all_writes()) == 1

    def test_plain_statement(self, A):
        st = Statement(1, reads=(ref(A, (1, 0, 0), (0, 1, 0)),), work=3)
        assert st.all_writes() == ()
        assert st.work == 3


class TestLoopNest:
    def make(self, A, lower=(0, 0), upper=(3, 4)):
        st = Statement(0, reads=(ref(A, (1, 0, 0), (0, 1, 0)),))
        return LoopNest("n", lower, upper, (st,))

    def test_trip_counts_and_iterations(self, A):
        n = self.make(A)
        assert n.trip_counts == (4, 5)
        assert n.iterations == 20

    def test_iter_space_row_major(self, A):
        n = self.make(A, (0, 0), (1, 1))
        assert list(n.iter_space()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty_space_rejected(self, A):
        with pytest.raises(ValueError):
            self.make(A, (0, 5), (3, 4))

    def test_identity_schedule(self, A):
        n = self.make(A, (0, 0), (1, 2))
        assert n.scheduled_iterations() == list(n.iter_space())

    def test_interchange_schedule(self, A):
        n = self.make(A, (0, 0), (1, 1)).with_transform(((0, 1), (1, 0)))
        assert n.scheduled_iterations() == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_reversal_schedule(self, A):
        n = self.make(A, (0, 0), (1, 1)).with_transform(((-1, 0), (0, 1)))
        # Outer loop runs backwards.
        assert n.scheduled_iterations() == [(1, 0), (1, 1), (0, 0), (0, 1)]

    def test_arrays_discovered(self, A):
        n = self.make(A)
        assert [a.name for a in n.arrays()] == ["A"]


class TestProgram:
    def test_duplicate_sids_rejected(self, A):
        st = Statement(0, reads=(ref(A, (1, 0, 0), (0, 1, 0)),))
        n1 = LoopNest("a", (0,), (1,), (Statement(1, work=1),))
        n2 = LoopNest("b", (0,), (1,), (Statement(1, work=1),))
        with pytest.raises(ValueError):
            Program("p", (n1, n2))

    def test_computes_iterator(self, A):
        spec = ComputeSpec(
            x=ref(A, (1, 0, 0), (0, 1, 0)), y=ref(A, (1, 0, 0), (0, 1, 1))
        )
        n = LoopNest("a", (0,), (1,), (
            Statement(0, work=1), Statement(1, compute=spec),
        ))
        p = Program("p", (n,))
        assert [st.sid for _, st in p.computes()] == [1]

    def test_replace_nest(self, A):
        n = LoopNest("a", (0,), (1,), (Statement(0, work=1),))
        p = Program("p", (n,))
        n2 = n.with_transform(((1,),))
        p2 = p.replace_nest(n, n2)
        assert p2.nests[0].transform is not None
        assert p.nests[0].transform is None


class TestAllocator:
    def test_page_aligned_non_overlapping(self):
        alloc = AddressSpaceAllocator(base=1 << 22)
        a = alloc.allocate("a", (100,))
        b = alloc.allocate("b", (100,))
        assert a.base % 4096 == 0 and b.base % 4096 == 0
        assert b.base >= a.base + a.size_bytes

    def test_pad_to_congruence(self):
        alloc = AddressSpaceAllocator(base=1 << 22)
        a = alloc.allocate("a", (10,))
        alloc.pad_to_congruence(a.base, 4)
        b = alloc.allocate("b", (10,))
        assert (b.base // 4096 - a.base // 4096) % 16 == 4

    def test_congruence_zero_same_bank(self, cfg):
        alloc = AddressSpaceAllocator(base=1 << 22)
        a = alloc.allocate("a", (10,))
        alloc.pad_to_congruence(a.base, 0)
        b = alloc.allocate("b", (10,))
        assert cfg.memory_controller(a.base) == cfg.memory_controller(b.base)
        assert cfg.dram_bank(a.base) == cfg.dram_bank(b.base)
