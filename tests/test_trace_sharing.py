"""One op object per equal instruction across a benchmark's traces.

``compiled_trace`` swaps each op of a newly lowered trace for the equal
op that a live sibling (a cached trace of the same benchmark and scale)
already holds, and ``lower_program`` holds one int object per address
value of a trace.  Sharing must be exact.  These tests pin that:

* every shared trace equals its own unshared lowering and the
  per-iteration reference lowering;
* a later sibling adds no op object for a value an earlier one holds;
* every op keeps its field types (``True == 1`` and an ``IntFlag``
  equals its int, so a wrongly typed field could pass for an equal op);
* the order in which siblings are lowered moves nothing;
* ops stay picklable, alone and inside a trace.
"""

import dataclasses
import pickle

import pytest

from lowering_reference import reference_lower_program
from repro.arch.simulator import simulate
from repro.config import DEFAULT_CONFIG, NdcComponentMask, OpClass
from repro.core.lowering import lower_program
from repro.isa import OpKind, TraceOp
from repro.runtime.keys import digest_of
from repro.schemes import build_scheme
from repro.workloads import tracegen
from repro.workloads.tracegen import compiled_trace

SCALE = 0.1
BENCHMARKS = ("fft", "swim", "md", "spmv.csr", "mix.md.spmv")
VARIANTS = ("original", "alg1", "alg2", "coda")


@pytest.fixture(scope="module")
def family():
    """``(benchmark, variant) -> (trace, lowering input)``, lowered in
    that order into a cleared cache, so every earlier compilation is a
    live sibling of each later one."""
    tracegen.clear_cache()
    for name in BENCHMARKS:
        for variant in VARIANTS:
            compiled_trace(name, variant, SCALE)
    out = {
        key[:2]: (trace, lowering)
        for key, (trace, _, lowering) in tracegen._cache.items()
    }
    tracegen.clear_cache()
    assert len(out) == len(BENCHMARKS) * len(VARIANTS)
    return out


def _ops(trace):
    return [op for stream in trace for op in stream]


def _lower(lowering, lower=lower_program):
    cfg, cores, program, plans = lowering
    return lower(program, cfg, dict(plans), cores)


class TestSharedTracesAreExact:
    def test_equal_to_their_own_lowering(self, family):
        for key, (trace, lowering) in family.items():
            assert trace == _lower(lowering), key

    def test_equal_to_the_reference_lowering(self, family):
        for key, (trace, lowering) in family.items():
            assert trace == _lower(lowering, reference_lower_program), key

    def test_every_op_keeps_its_field_types(self, family):
        seen = set()
        for trace, _ in family.values():
            for op in _ops(trace):
                if id(op) in seen:
                    continue
                seen.add(id(op))
                assert type(op.kind) is OpKind
                assert type(op.op) is OpClass
                assert type(op.mask) is NdcComponentMask
                assert type(op.x_reused) is bool
                assert type(op.y_reused) is bool
                assert op.pred_reuse is None or type(op.pred_reuse) is bool
                for value in (op.pc, op.addr, op.addr2, op.cost, op.timeout):
                    assert type(value) is int
                assert op.dest is None or type(op.dest) is int


class TestOneObjectPerOp:
    def test_a_later_sibling_adds_no_object_for_a_held_op(self, family):
        """Across one benchmark's traces, every op value keeps the
        objects of the first trace that held it."""
        by_bench = {}
        for (name, _), (trace, _) in family.items():
            by_bench.setdefault(name, {})[id(trace)] = trace
        for name, traces in by_bench.items():
            first = {}  # op -> ids of its objects in the first holder
            shared = 0
            for trace in traces.values():
                held = {}
                for op in _ops(trace):
                    held.setdefault(op, set()).add(id(op))
                for op, ids in held.items():
                    if op in first:
                        assert ids <= first[op], (name, op)
                        shared += 1
                    else:
                        first[op] = ids
            assert shared, name

    def test_one_int_object_per_address_value_in_a_lowering(self, family):
        """Checked on ``lower_program``'s output: a trace that took ops
        from a sibling holds the sibling's ints in those ops."""
        for key, (_, lowering) in family.items():
            ints = {}
            for op in _ops(_lower(lowering)):
                if op.kind is OpKind.WORK:
                    continue
                for value in (op.addr, op.addr2, op.dest):
                    if value is not None:
                        assert ints.setdefault(value, value) is value, key


@pytest.mark.parametrize("name", ("fft", "mix.md.spmv"))
def test_lowering_order_moves_nothing(name):
    """``alg2`` lowered before ``original`` holds its own ops; lowered
    after, it holds ``original``'s.  The traces and results agree."""
    def lowered(*order):
        tracegen.clear_cache()
        return {v: compiled_trace(name, v, SCALE)[0] for v in order}

    first = lowered("alg2", "original")
    after = lowered("original", "alg2")
    assert first == after
    shared = {id(op) for op in _ops(after["original"])}
    assert any(id(op) in shared for op in _ops(after["alg2"]))
    digests = [
        digest_of(simulate(
            run["alg2"], DEFAULT_CONFIG, build_scheme("algorithm-2").build()
        ).stats)
        for run in (first, after)
    ]
    assert digests[0] == digests[1]


class TestSlottedOps:
    def test_no_instance_dict(self):
        assert not hasattr(TraceOp(OpKind.LOAD, 0, 64), "__dict__")

    def test_replace_and_hash(self):
        op = TraceOp(OpKind.COMPUTE, 31, 64, 128, dest=192)
        moved = dataclasses.replace(op, addr=256)
        assert moved.addr == 256 and moved.addr2 == 128
        assert dataclasses.replace(moved, addr=64) == op
        assert hash(dataclasses.replace(moved, addr=64)) == hash(op)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.addr = 0

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, family, protocol):
        trace, _ = family[("mix.md.spmv", "alg2")]
        for op in _ops(trace):
            if op.kind is OpKind.PRE_COMPUTE:
                assert pickle.loads(pickle.dumps(op, protocol)) == op
                break
        else:
            pytest.fail("no PRE_COMPUTE op")
        assert pickle.loads(pickle.dumps(trace, protocol)) == trace
