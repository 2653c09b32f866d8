"""Overhead budget of the fault-injection layer (``repro.faults``).

Fault support must be free when unused: the engine only constructs a
:class:`~repro.faults.inject.FaultInjector` when the scenario carries
a non-empty plan, and the per-message drop check is gated behind a
single pre-resolved bool. This bench pins three budgets against the
same ping-pong workload as ``bench_obs_overhead``:

* **no plan** — a scenario with ``fault_plan=None`` must cost exactly
  nothing versus the dedicated baseline (identical code path), and
  the run must be *bit-identical*;
* **empty plan** — ``FaultPlan()`` attached to the scenario skips
  injector construction entirely: < 0.5% and bit-identical results;
* **armed but idle** — a plan whose windows all start after the run
  ends pays only the arm-time timer pushes: < 2%.

Methodology: budgets are asserted on *executed bytecode instructions*
(``opcount.count_instructions``), not wall or CPU time — repeated
timings of bit-identical runs on shared boxes disagree by more than
the budgets being asserted, while opcode counts are exact and
deterministic. See ``bench_obs_overhead`` for the full rationale.
"""

from __future__ import annotations

from opcount import count_instructions

from repro.cluster import Scenario, paper_testbed
from repro.faults import FaultPlan, LinkDegrade, NodeSlowdown, RankStall
from repro.sim import Compute, Program, Recv, Send, run_program

N_MSGS = 150

#: Far beyond the ~20 simulated milliseconds the workload lasts.
FAR_FUTURE = 1e6


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


def idle_plan() -> FaultPlan:
    """Events armed as timers but scheduled after the run finishes."""
    return FaultPlan(
        name="idle",
        events=(
            RankStall(rank=0, t_start=FAR_FUTURE, duration=1.0),
            NodeSlowdown(node=1, t_start=FAR_FUTURE, duration=1.0, factor=0.5),
            LinkDegrade(node=2, t_start=FAR_FUTURE, duration=1.0, factor=0.5),
        ),
    )


def _count_opcodes(program, cluster, scenario) -> tuple[int, object]:
    """(bytecode instructions, RunResult) of one run under ``scenario``."""
    if scenario is None:
        count, result = count_instructions(
            lambda: run_program(program, cluster)
        )
    else:
        count, result = count_instructions(
            lambda: run_program(program, cluster, scenario)
        )
    assert result.n_messages == 4 * N_MSGS
    return count, result


def test_fault_overhead_budget():
    cluster = paper_testbed()
    program = pingpong_program(N_MSGS)
    run_program(program, cluster)  # warm lazy imports/caches
    # Warm the injector import path so the armed run isn't charged for
    # the one-time lazy `import repro.faults.inject`.
    run_program(
        program, cluster, Scenario(name="warm", fault_plan=idle_plan())
    )

    base_ops, base = _count_opcodes(program, cluster, None)
    noplan_ops, noplan = _count_opcodes(
        program, cluster, Scenario(name="noplan")
    )
    empty_ops, empty = _count_opcodes(
        program, cluster, Scenario(name="empty", fault_plan=FaultPlan())
    )
    armed_ops, armed = _count_opcodes(
        program, cluster, Scenario(name="idle", fault_plan=idle_plan())
    )

    overhead_noplan = noplan_ops / base_ops - 1.0
    overhead_empty = empty_ops / base_ops - 1.0
    overhead_armed = armed_ops / base_ops - 1.0
    print(
        f"\nbaseline {base_ops:,} opcodes | "
        f"no plan {overhead_noplan:+.3%} | "
        f"empty plan {overhead_empty:+.3%} | "
        f"armed idle {overhead_armed:+.3%}"
    )

    # Fault-free runs are not merely cheap — they are the same run.
    for other in (noplan, empty, armed):
        assert other.finish_times == base.finish_times
        assert other.n_messages == base.n_messages
    assert noplan.n_events == base.n_events
    assert empty.n_events == base.n_events

    assert overhead_noplan < 0.005, (
        f"plan-less scenario cost {overhead_noplan:.3%} (budget < 0.5%)"
    )
    assert overhead_empty < 0.005, (
        f"empty plan cost {overhead_empty:.3%} (budget < 0.5%)"
    )
    assert overhead_armed < 0.02, (
        f"armed idle plan cost {overhead_armed:.3%} (budget < 2%)"
    )
