"""Overhead budget of the observability layer (``repro.obs``).

The metrics registry is designed to be free when disabled: every
instrumentation site hoists a single ``enabled`` bool at construction
time and the default registry is the shared ``NULL_REGISTRY``.  This
bench pins two budgets against the same ping-pong workload as
``bench_engine_micro``:

* **disabled** — an explicitly installed disabled registry must cost
  (essentially) nothing versus the default null registry: < 1%.
* **enabled**  — full counter/histogram recording across the engine,
  matcher, and fluid allocator must stay under 5%.

Methodology: the budgets are asserted on *executed bytecode
instructions* (counted by ``opcount.count_instructions``), not wall or CPU
time.  On the shared boxes this suite runs on, repeated timings of
bit-identical runs disagree by up to ±10% (scheduler preemption,
frequency scaling, cache pollution from neighbours), which cannot
resolve a 1% budget; opcode counts are exact, deterministic, and a
faithful proxy for the cost of pure-Python instrumentation (plain
attribute increments on the hot path — cheap opcodes — are if
anything *over*-weighted, making the assertion conservative).  A
direct CPU-time A/B is still printed for reference, labelled noisy.
"""

from __future__ import annotations

import time

from opcount import count_instructions

from repro.cluster import paper_testbed
from repro.obs import MetricsRegistry, set_metrics
from repro.sim import Compute, Program, Recv, Send, run_program

N_MSGS = 150


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


def _count_opcodes(program, cluster, registry) -> int:
    """Bytecode instructions executed by one run under ``registry``."""
    prev_reg = set_metrics(registry)
    try:
        count, result = count_instructions(
            lambda: run_program(program, cluster)
        )
    finally:
        set_metrics(prev_reg)
    assert result.n_messages == 4 * N_MSGS
    return count


def _cpu_seconds(program, cluster, registry) -> float:
    prev = set_metrics(registry)
    try:
        t0 = time.process_time()
        run_program(program, cluster)
        return time.process_time() - t0
    finally:
        set_metrics(prev)


def test_metrics_overhead_budget():
    cluster = paper_testbed()
    program = pingpong_program(N_MSGS)
    run_program(program, cluster)  # warm lazy imports/caches

    base_ops = _count_opcodes(program, cluster, None)
    disabled_ops = _count_opcodes(
        program, cluster, MetricsRegistry(enabled=False)
    )
    enabled_ops = _count_opcodes(
        program, cluster, MetricsRegistry(enabled=True)
    )

    overhead_disabled = disabled_ops / base_ops - 1.0
    overhead_enabled = enabled_ops / base_ops - 1.0

    # Informational direct timing (noisy on shared hardware).
    base_t = min(_cpu_seconds(program, cluster, None) for _ in range(3))
    en_t = min(
        _cpu_seconds(program, cluster, MetricsRegistry(enabled=True))
        for _ in range(3)
    )
    print(
        f"\nbaseline {base_ops:,} opcodes | "
        f"disabled {overhead_disabled:+.3%} | "
        f"enabled {overhead_enabled:+.3%} | "
        f"direct CPU-time A/B (noisy): {en_t / base_t - 1:+.2%} "
        f"of {base_t * 1e3:.1f} ms"
    )

    # The disabled registry takes the identical code path as the null
    # default; anything here means instrumentation leaked into the
    # disabled mode.
    assert overhead_disabled < 0.01, (
        f"disabled metrics cost {overhead_disabled:.2%} (budget < 1%)"
    )
    assert overhead_enabled < 0.05, (
        f"enabled metrics cost {overhead_enabled:.2%} (budget < 5%)"
    )
