#!/usr/bin/env python
"""Quickstart: author a loop nest, compile it for NDC, simulate it.

Builds the paper's running example — a two-operand computation whose
operands can meet near data — runs it conventionally and under the two
compiler algorithms, and prints what the compiler decided and what it
bought.

Run:  python examples/quickstart.py
"""

from repro import (
    Algorithm1,
    Algorithm2,
    CompilerDirected,
    DEFAULT_CONFIG,
    OracleScheme,
    improvement_percent,
    lower_program,
    simulate,
)
from repro.core.ir import (
    AddressSpaceAllocator,
    ComputeSpec,
    LoopNest,
    Program,
    Statement,
    ref,
)


def build_program() -> Program:
    """``C[i] = A[i] + B[i]`` over 256-byte records, with A and B laid
    out so equal offsets share a DRAM bank — the in-memory-compute
    sweet spot."""
    alloc = AddressSpaceAllocator(base=1 << 22)
    n = 2000
    A = alloc.allocate("A", (n,), element_size=256)
    alloc.pad_to_congruence(A.base, 0)   # same controller, same bank
    B = alloc.allocate("B", (n,), element_size=256)
    C = alloc.allocate("C", (n,), element_size=256)
    stmt = Statement(
        0,
        compute=ComputeSpec(
            x=ref(A, (1, 0)), y=ref(B, (1, 0)), dest=ref(C, (1, 0))
        ),
        work=2,
    )
    return Program("quickstart", (LoopNest("axpy", (0,), (n - 1,), (stmt,)),))


def main() -> None:
    cfg = DEFAULT_CONFIG
    program = build_program()

    # 1. The baseline: conventional execution on the 5x5 manycore.
    base = simulate(lower_program(program, cfg), cfg)
    print(f"baseline: {base.cycles} cycles "
          f"(L1 miss rate {base.stats.l1_miss_rate:.0%})")

    # 2. The oracle upper bound on the same trace.
    oracle = simulate(lower_program(program, cfg), cfg, OracleScheme())
    breakdown = {
        loc.short_name: f"{pct:.0f}%"
        for loc, pct in oracle.stats.ndc.breakdown_percent().items()
        if pct > 0
    }
    print(f"oracle:   {oracle.cycles} cycles "
          f"({improvement_percent(base.cycles, oracle.cycles):+.1f}%), "
          f"NDC breakdown {breakdown}")

    # 3. Compile with Algorithm 1 and Algorithm 2.
    for Pass in (Algorithm1, Algorithm2):
        compiled, plans, report = Pass(cfg).run(program)
        trace = lower_program(compiled, cfg, plans)
        res = simulate(trace, cfg, CompilerDirected())
        decisions = ", ".join(
            "sid{}:{}".format(
                d.sid,
                d.location.short_name if d.location is not None else d.reason,
            )
            for d in report.decisions
        )
        print(f"{Pass.__name__}: {res.cycles} cycles "
              f"({improvement_percent(base.cycles, res.cycles):+.1f}%), "
              f"decisions [{decisions}], "
              f"{res.stats.ndc.total_performed} computes ran near data")

    # 4. For the built-in benchmark suite, the stable facade does all
    #    of the above in one call (cached, calibrated per scale):
    #        from repro import api
    #        api.simulate("fft", "algorithm-1", scale=0.25)
    #        api.lineup(scale=0.25)                  # the Fig. 4 table
    #        api.sweep({"benchmarks": ["fft"]})      # a managed campaign
    #        api.characterize("spmv.csr")            # bottleneck class
    #        api.bench(smoke=True)                   # simulator perf
    #    Every verb takes the same perf knob (never affects results):
    #        profile="optimized" | "reference"
    #    and the CLI subcommands are thin shells over these verbs.
    from repro import api

    res = api.simulate("fft", "algorithm-1", scale=0.1, cache=False)
    print(f"api.simulate('fft', 'algorithm-1'): {res.cycles} cycles")
    prof = api.characterize("fft", scale=0.1, cache=False)
    print(f"api.characterize('fft'): bottleneck {prof.bottleneck_class}")


if __name__ == "__main__":
    main()
