"""Deterministic cost counter shared by the benchmark gates.

The overhead budgets (``bench_obs_overhead``, ``bench_fault_overhead``,
``bench_diagnose_overhead``, ``bench_trace_overhead``) and the engine
cost ceiling (``bench_engine_micro``) are asserted on executed bytecode
instructions, not on wall or CPU time: repeated timings of
bit-identical runs on shared hardware disagree by up to ±10%, while
instruction counts are exact for a given bytecode version.
"""

from __future__ import annotations

import sys

import pytest


def count_instructions(fn):
    """Run ``fn()``; return (bytecode instructions it executed, its
    value).

    Counted with ``sys.settrace`` opcode events on interpreters before
    3.12, and from 3.12 on with ``sys.monitoring`` INSTRUCTION events,
    which count the same instructions (some 3.12 releases emit no
    settrace opcode events at all). Fails when it counts nothing, so a
    counter that sees no events cannot turn a budget ratio into a
    division by zero or a vacuous pass.
    """
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
            value = fn()
        finally:
            sys.settrace(prev)
    else:
        tool = monitoring.PROFILER_ID
        if monitoring.get_tool(tool) is not None:
            pytest.skip("the sys.monitoring profiler slot is taken")
        here = sys._getframe().f_code

        def on_instruction(code, offset):
            nonlocal count
            if code is not here:
                count += 1

        monitoring.use_tool_id(tool, "benchmark-opcount")
        try:
            monitoring.register_callback(
                tool, monitoring.events.INSTRUCTION, on_instruction
            )
            monitoring.set_events(tool, monitoring.events.INSTRUCTION)
            try:
                value = fn()
            finally:
                monitoring.set_events(tool, 0)
        finally:
            monitoring.free_tool_id(tool)
    if count == 0:
        raise AssertionError(
            "counted 0 bytecode instructions: this interpreter emits no "
            "events to the instruction counter"
        )
    return count, value
