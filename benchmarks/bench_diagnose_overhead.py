"""Overhead budget of the diagnosis hook (``repro.diagnose``).

:class:`DiagnosisCollector` subclasses the timeline recorder and adds
wait-state classification (pending-edge scans on blocking calls), a
dependency-edge log fed by the engine's ``on_edge`` emission, and a
collective-alignment pass at finalize.  All of that must stay cheap
enough to leave on during campaigns, so this bench pins the
*incremental* cost of diagnosis over plain timeline recording at
< 5% on the same ping-pong workload as ``bench_obs_overhead``.

Methodology matches ``bench_obs_overhead``: budgets are asserted on
executed bytecode instructions (``opcount.count_instructions``),
which are exact and deterministic where wall/CPU timings on shared
hardware are not; a direct CPU-time A/B is printed for reference
only.  The bench also re-asserts the zero-perturbation contract: the
hooked runs must produce a ``RunResult`` equal to the bare run.
"""

from __future__ import annotations

import time

from opcount import count_instructions

from repro.cluster import paper_testbed
from repro.diagnose import DiagnosisCollector
from repro.obs import TimelineRecorder
from repro.sim import Compute, Program, Recv, Send, run_program

N_MSGS = 150

_DIAG = object()  # sentinel: build a DiagnosisCollector per run


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


def _make_hook(kind):
    if kind is None:
        return None
    if kind is _DIAG:
        return DiagnosisCollector()
    return TimelineRecorder()


def _count_opcodes(program, cluster, kind):
    """Bytecode instructions executed by one run under the hook."""
    hook = _make_hook(kind)
    count, result = count_instructions(
        lambda: run_program(program, cluster, hook=hook)
    )
    assert result.n_messages == 4 * N_MSGS
    return count, result


def _cpu_seconds(program, cluster, kind) -> float:
    hook = _make_hook(kind)
    t0 = time.process_time()
    run_program(program, cluster, hook=hook)
    return time.process_time() - t0


def test_diagnosis_overhead_budget():
    cluster = paper_testbed()
    program = pingpong_program(N_MSGS)
    bare = run_program(program, cluster)  # warm lazy imports/caches

    base_ops, base_res = _count_opcodes(program, cluster, None)
    timeline_ops, tl_res = _count_opcodes(program, cluster, TimelineRecorder)
    diag_ops, diag_res = _count_opcodes(program, cluster, _DIAG)

    # Zero-perturbation contract: hooks observe, they never steer.
    assert tl_res == bare and diag_res == bare and base_res == bare

    over_timeline = timeline_ops / base_ops - 1.0
    over_diag = diag_ops / base_ops - 1.0
    incremental = diag_ops / timeline_ops - 1.0

    # Informational direct timing (noisy on shared hardware).
    base_t = min(_cpu_seconds(program, cluster, None) for _ in range(3))
    diag_t = min(_cpu_seconds(program, cluster, _DIAG) for _ in range(3))
    print(
        f"\nbaseline {base_ops:,} opcodes | "
        f"timeline {over_timeline:+.3%} | "
        f"diagnosis {over_diag:+.3%} | "
        f"incremental over timeline {incremental:+.3%} | "
        f"direct CPU-time A/B (noisy): {diag_t / base_t - 1:+.2%} "
        f"of {base_t * 1e3:.1f} ms"
    )

    assert incremental < 0.05, (
        f"diagnosis adds {incremental:.2%} over timeline recording "
        f"(budget < 5%)"
    )
