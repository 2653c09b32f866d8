"""Micro-benchmarks of the simulation substrate itself: engine message
throughput and signature-compression speed. These set the cost context
for the evaluation campaign (all figure benches share one ~2-minute
campaign thanks to these rates)."""

from __future__ import annotations

import sys

import pytest

from opcount import count_instructions

from repro.cluster import paper_testbed
from repro.core.compress import compress_trace
from repro.sim import Compute, Program, Recv, Send, run_program
from repro.trace import trace_program
from repro.workloads import get_program


def pingpong_program(n_msgs: int) -> Program:
    def gen(rank, size):
        for _ in range(n_msgs):
            if rank % 2 == 0:
                yield Send(dest=rank ^ 1, nbytes=2048, tag=1)
                yield Recv(source=rank ^ 1, tag=2)
            else:
                yield Recv(source=rank ^ 1, tag=1)
                yield Send(dest=rank ^ 1, nbytes=2048, tag=2)
            yield Compute(1e-5)

    return Program("pp", 4, gen)


def test_engine_message_throughput(benchmark):
    cluster = paper_testbed()
    prog = pingpong_program(5000)
    result = benchmark.pedantic(
        lambda: run_program(prog, cluster), rounds=3, iterations=1
    )
    assert result.n_messages == 20_000
    rate = result.n_messages / benchmark.stats["mean"]
    print(f"\nengine throughput: {rate:,.0f} simulated messages/s")
    assert rate > 2_000  # generous floor; typical is >20k/s


#: Ceiling on bytecode instructions per engine event for the pingpong
#: program below, per interpreter minor version: the count after the
#: fluid solver's one-task/one-resource fills and the hook-free
#: dispatch, plus 5%. The counts are deterministic for a bytecode
#: version, so this gate does not see the box's wall-clock noise.
#: Measured: 3.11 692.0, 3.12 647.6 instructions per event (the
#: engine before them: 888.7 and 821.1).
ENGINE_OPCODES_PER_EVENT = {(3, 11): 726.6, (3, 12): 680.0}


def test_engine_opcodes_per_event():
    """Deterministic engine-cost gate: interpreter instructions per
    engine event on the pingpong program stay under the pinned
    ceiling."""
    ceiling = ENGINE_OPCODES_PER_EVENT.get(sys.version_info[:2])
    if ceiling is None:
        pytest.skip(f"no ceiling pinned for Python {sys.version_info[:2]}")
    cluster = paper_testbed()
    program = pingpong_program(500)
    run_program(program, cluster)  # warm lazy imports/caches
    ops, result = count_instructions(lambda: run_program(program, cluster))
    per_event = ops / result.n_events
    print(f"\nengine cost: {ops:,} instructions for {result.n_events:,} "
          f"events = {per_event:.1f}/event (ceiling {ceiling})")
    assert result.n_events == 8_000
    assert per_event <= ceiling, (
        f"{per_event:.1f} instructions per engine event (ceiling {ceiling})"
    )


def test_compression_throughput_lu(benchmark):
    """Compress the call-heaviest trace of the suite (LU.S: ~20k comm
    events) — clustering + loop folding end to end through the
    threshold sweep."""
    cluster = paper_testbed()
    trace, _ = trace_program(get_program("lu", "S", 4), cluster)
    sig = benchmark(compress_trace, trace, 2.0)
    events_per_s = sig.trace_events / benchmark.stats["mean"]
    print(f"\ncompression: {sig.trace_events} events at "
          f"{events_per_s:,.0f} events/s, ratio {sig.compression_ratio:.0f}x")
    assert sig.compression_ratio > 10
