"""Trace-compression driver tests (threshold search, Q = K/2 rule)."""

from __future__ import annotations

import pytest

from repro.cluster import paper_testbed
from repro.core.compress import CompressionOptions, compress_trace
from repro.core.events import trace_to_streams
from repro.errors import SignatureError
from repro.sim import Compute, Program, Send, Recv, Allreduce
from repro.trace import trace_program
from repro.trace.records import Trace, TraceRecord
from repro.workloads.synthetic import bsp_allreduce


def varying_size_trace(sizes):
    """A 1-rank trace of sends whose sizes vary across iterations."""
    trace = Trace(program_name="var", scenario_name="d", nranks=1)
    t = 0.0
    recs = []
    for s in sizes:
        recs.append(
            TraceRecord("MPI_Send", {"peer": 1, "bytes": s, "tag": 0},
                        t + 0.01, t + 0.011)
        )
        t += 0.011
    trace.records[0] = recs
    trace.finish_times = [t]
    return trace


class TestThresholdSearch:
    def test_threshold_zero_when_trivially_compressible(self, cluster):
        trace, _ = trace_program(bsp_allreduce(supersteps=30), cluster)
        sig = compress_trace(trace, target_ratio=5.0)
        assert sig.threshold == 0.0
        assert sig.compression_ratio >= 5.0

    def test_threshold_rises_for_varying_sizes(self):
        # Sizes within 5% of 10000: need threshold ~0.05 to merge.
        sizes = [10_000, 9_800, 10_100, 9_900, 10_050, 9_950] * 5
        trace = varying_size_trace(sizes)
        sig = compress_trace(trace, target_ratio=10.0)
        assert 0.0 < sig.threshold <= 0.25
        assert sig.compression_ratio >= 10.0

    def test_threshold_capped(self):
        # Wildly different sizes: compression target unreachable.
        sizes = [10 ** (i % 7) for i in range(20)]
        trace = varying_size_trace(sizes)
        options = CompressionOptions(max_threshold=0.2, patience=100)
        sig = compress_trace(trace, target_ratio=1000.0, options=options)
        assert sig.threshold <= 0.2

    def test_patience_stops_fruitless_search(self):
        sizes = [100, 200] * 10  # merge at t=0.5, unreachable below cap
        trace = varying_size_trace(sizes)
        options = CompressionOptions(
            threshold_step=0.01, patience=3, max_threshold=0.25
        )
        sig = compress_trace(trace, target_ratio=1e9, options=options)
        # Stopped early: ratio frozen after a few stale steps.
        assert sig.threshold < 0.25

    def test_invalid_target_rejected(self):
        trace = varying_size_trace([1, 2, 3])
        with pytest.raises(SignatureError):
            compress_trace(trace, target_ratio=0.5)

    def test_nan_target_rejected(self):
        """``ratio >= nan`` is never true: a NaN target must fail, not
        sweep until patience stops it."""
        trace = varying_size_trace([1, 2, 3])
        with pytest.raises(SignatureError):
            compress_trace(trace, target_ratio=float("nan"))

    def test_empty_trace_rejected(self, cluster):
        def gen(rank, size):
            yield Compute(0.01)

        trace, _ = trace_program(Program("nocomm", 2, gen), cluster)
        with pytest.raises(SignatureError):
            compress_trace(trace, target_ratio=1.0)


class TestCoordinatedCollectives:
    def test_is_like_pattern_stays_aligned(self, cluster):
        """Collectives with per-rank-varying payloads must get the same
        symbols on every rank (the IS alltoallv case)."""
        from repro.workloads import get_program

        trace, _ = trace_program(get_program("is", "S", 4), cluster)
        sig = compress_trace(trace, target_ratio=4.0)
        # All ranks compress to the same loop structure.
        shapes = set()
        for rank_sig in sig.ranks:
            loops = tuple(
                (loop.count, len(loop.body))
                for loop, _ in rank_sig.iter_loops()
            )
            shapes.add(loops)
        assert len(shapes) == 1

    def test_reported_ratio_reflects_leaves(self, cg_s_trace):
        trace, _ = cg_s_trace
        sig = compress_trace(trace, target_ratio=2.0)
        total_events = sum(
            len(s.events) for s in trace_to_streams(trace)
        )
        assert sig.trace_events == total_events
        assert sig.compression_ratio == pytest.approx(
            total_events / sig.n_leaves()
        )

    def test_signature_time_matches_trace(self, cg_s_trace):
        """The signature's per-rank time reconstructs the traced
        elapsed time (averaging preserves totals)."""
        trace, result = cg_s_trace
        sig = compress_trace(trace, target_ratio=2.0)
        for rank_sig in sig.ranks:
            assert rank_sig.total_time() == pytest.approx(
                trace.finish_times[rank_sig.rank], rel=0.01
            )
