"""Micro-benchmarks of the simulation substrate itself: engine message
throughput and signature-compression speed. These set the cost context
for the evaluation campaign (all figure benches share one ~2-minute
campaign thanks to these rates)."""

from __future__ import annotations

import sys
import time

import pytest

from repro.cluster import paper_testbed
from repro.core.compress import CompressionOptions, compress_trace
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


def _count_instructions(fn) -> int:
    """Bytecode instructions executed by ``fn()``. Counted with
    ``sys.settrace`` opcode events, as ``bench_obs_overhead`` does, on
    interpreters before 3.12; from 3.12 on with ``sys.monitoring``
    INSTRUCTION events, which count the same instructions (some 3.12
    releases emit no settrace opcode events at all)."""
    count = 0
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is None:
        def tracer(frame, event, arg):
            nonlocal count
            frame.f_trace_opcodes = True
            if event == "opcode":
                count += 1
            return tracer

        prev = sys.gettrace()
        sys.settrace(tracer)
        try:
            fn()
        finally:
            sys.settrace(prev)
        return count

    tool = monitoring.PROFILER_ID
    if monitoring.get_tool(tool) is not None:
        pytest.skip("the sys.monitoring profiler slot is taken")
    here = sys._getframe().f_code

    def on_instruction(code, offset):
        nonlocal count
        if code is not here:
            count += 1

    monitoring.use_tool_id(tool, "engine-cost-gate")
    try:
        monitoring.register_callback(
            tool, monitoring.events.INSTRUCTION, on_instruction
        )
        monitoring.set_events(tool, monitoring.events.INSTRUCTION)
        try:
            fn()
        finally:
            monitoring.set_events(tool, 0)
    finally:
        monitoring.free_tool_id(tool)
    return count


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
    results = []
    ops = _count_instructions(
        lambda: results.append(run_program(program, cluster))
    )
    (result,) = results
    per_event = ops / result.n_events
    print(f"\nengine cost: {ops:,} instructions for {result.n_events:,} "
          f"events = {per_event:.1f}/event (ceiling {ceiling})")
    assert result.n_events == 8_000
    assert per_event <= ceiling, (
        f"{per_event:.1f} instructions per engine event (ceiling {ceiling})"
    )


def test_compression_throughput_lu(benchmark):
    """Compress the call-heaviest trace of the suite (LU.S: ~20k comm
    events) — clustering + loop folding end to end, through the default
    dendrogram search, with the legacy linear sweep timed alongside so
    the construction speedup stays visible in CI logs."""
    cluster = paper_testbed()
    trace, _ = trace_program(get_program("lu", "S", 4), cluster)
    sig = benchmark(compress_trace, trace, 2.0)
    events_per_s = sig.trace_events / benchmark.stats["mean"]
    print(f"\ncompression: {sig.trace_events} events at "
          f"{events_per_s:,.0f} events/s, ratio {sig.compression_ratio:.0f}x")

    # Cold full-sweep construction (unreachable Q): dendrogram search
    # vs. the paper-literal linear sweep, best of 3.
    timings = {}
    for mode in ("linear", "dendrogram"):
        options = CompressionOptions(search=mode)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            compress_trace(trace, 1e9, options)
            best = min(best, time.perf_counter() - t0)
        timings[mode] = best
    speedup = timings["linear"] / timings["dendrogram"]
    print(
        f"cold sweep: legacy {sig.trace_events / timings['linear']:,.0f} "
        f"events/s, dendrogram "
        f"{sig.trace_events / timings['dendrogram']:,.0f} events/s "
        f"({speedup:.1f}x)"
    )
    assert sig.compression_ratio > 10
    assert speedup > 2.0  # generous floor; typical is ~8x on LU.S
