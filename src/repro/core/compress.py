"""Trace-to-signature compression with iterative threshold search
(paper §3.2).

"Initially the similarity threshold is set to 0 and the clustering and
compression procedure is applied. If the degree of compression is less
than the desired ratio Q, the similarity threshold is increased
gradually until the desired compression of Q (or higher) is achieved."
The driver uses Q = K/2 (the paper's empirical rule) via
:func:`repro.core.construct.build_skeleton`, and enforces an upper
bound on the threshold so that very different events are never merged
(the paper observes every NAS case resolves below 0.20).

The sweep is paper-literal: every step re-clusters and re-folds the
full trace. On the NAS traces it reaches Q within one or two steps, so
memoizing the steps would not pay (see docs/SCALING.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.core.clustering import ClusterSpace
from repro.core.distance import DimensionScales
from repro.core.events import ExecEvent, trace_to_streams
from repro.core.loopfind import (
    DEFAULT_MAX_PERIOD,
    DEFAULT_WORK_BUDGET,
    fold_symbols,
)
from repro.core.signature import RankSignature, Signature
from repro.errors import SignatureError
from repro.obs.metrics import get_metrics
from repro.trace.records import Trace

#: Collective calls are globally ordered across ranks, so their
#: clustering is *coordinated*: the i-th collective occurrence gets the
#: same symbol on every rank (clustered once on the cross-rank mean
#: payload). Without this, per-rank first-fit clustering of slightly
#: varying payloads (e.g. IS's alltoallv totals) can fold ranks into
#: incompatible loop structures whose skeletons could not communicate.
_COLLECTIVE_CALLS = frozenset({
    "MPI_Barrier", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce",
    "MPI_Allgather", "MPI_Alltoall", "MPI_Alltoallv", "MPI_Gather",
    "MPI_Scatter", "MPI_Reduce_scatter", "MPI_Scan",
})

#: Shared collective symbols live in their own namespace, above any
#: per-rank point-to-point symbol.
_COLL_SYMBOL_BASE = 1 << 40


@dataclass(frozen=True)
class CompressionOptions:
    """Knobs of the threshold search and loop folding."""

    threshold_step: float = 0.01
    #: Where the threshold search starts (0 = only identical events
    #: cluster). Raised by the alignment-repair loop in construct.
    start_threshold: float = 0.0
    #: Upper bound so that "very different execution events are not
    #: combined" (§3.2; the paper saw < 0.20 suffice across the suite).
    max_threshold: float = 0.25
    #: Stop raising the threshold after this many consecutive steps
    #: with no compression improvement.
    patience: int = 10
    max_period: int = DEFAULT_MAX_PERIOD
    work_budget: int = DEFAULT_WORK_BUDGET


def _collective_reps(streams) -> list[ExecEvent] | None:
    """Cross-rank mean-payload representatives of the global collective
    sequence (threshold-independent), or ``None`` when the ranks'
    collective sequences disagree (not an SPMD collective pattern —
    fall back to per-rank clustering)."""
    seqs = [
        [ev for ev in stream.events if ev.call in _COLLECTIVE_CALLS]
        for stream in streams
    ]
    ncoll = len(seqs[0])
    if any(len(q) != ncoll for q in seqs):
        return None
    for j in range(ncoll):
        first = seqs[0][j]
        for q in seqs[1:]:
            if q[j].call != first.call or q[j].peer != first.peer:
                return None
    nranks = len(seqs)
    reps: list[ExecEvent] = []
    for j in range(ncoll):
        mean_bytes = sum(q[j].nbytes for q in seqs) / nranks
        reps.append(dc_replace(seqs[0][j], nbytes=mean_bytes))
    return reps


def _shared_collective_symbols(
    reps: list[ExecEvent] | None, threshold: float, scales: DimensionScales
) -> list[int] | None:
    """Coordinated symbols for the global collective sequence.

    Returns one symbol per collective occurrence of ``reps`` (same for
    all ranks), or ``None`` when there are no representatives (see
    :func:`_collective_reps`)."""
    if reps is None:
        return None
    space = ClusterSpace(threshold=threshold, scales=scales)
    return [_COLL_SYMBOL_BASE + space.assign(rep) for rep in reps]


def _compress_at(
    streams,
    scales: DimensionScales,
    coll_reps: list[ExecEvent] | None,
    threshold: float,
    options: CompressionOptions,
) -> tuple[list[RankSignature], float, int]:
    """Cluster + fold every rank at one threshold; return signatures,
    the aggregate compression ratio (trace length / signature length,
    in events), and the trace length itself."""
    coll_symbols = _shared_collective_symbols(coll_reps, threshold, scales)
    rank_sigs: list[RankSignature] = []
    total_events = 0
    total_leaves = 0
    for stream in streams:
        space = ClusterSpace(threshold=threshold, scales=scales)
        symbols: list[int] = []
        coll_idx = 0
        for ev in stream.events:
            if coll_symbols is not None and ev.call in _COLLECTIVE_CALLS:
                symbols.append(coll_symbols[coll_idx])
                coll_idx += 1
            else:
                symbols.append(space.assign(ev))
        nodes = fold_symbols(
            symbols,
            stream.events,
            max_period=options.max_period,
            work_budget=options.work_budget,
        )
        sig = RankSignature(rank=stream.rank, nodes=nodes, tail_gap=stream.tail_gap)
        rank_sigs.append(sig)
        total_events += len(stream.events)
        total_leaves += sig.n_leaves()
    if total_events == 0:
        raise SignatureError("trace contains no communication events")
    ratio = total_events / max(1, total_leaves)
    return rank_sigs, ratio, total_events


@dataclass
class _SearchResult:
    """Outcome of one threshold search."""

    rank_sigs: list[RankSignature]
    ratio: float
    threshold: float
    #: Threshold steps examined (one cluster+fold pass each).
    iterations: int
    total_events: int


def _search(
    streams, scales, target_ratio: float, options: CompressionOptions
) -> _SearchResult:
    """The paper's fixed-increment sweep: cluster and fold the whole
    trace at each threshold step until the ratio reaches the target,
    the threshold reaches its cap, or ``patience`` steps pass with no
    improvement. Returns the best signature seen."""
    coll_reps = _collective_reps(streams)
    threshold = options.start_threshold
    best: tuple[list[RankSignature], float, float] | None = None
    total_events = 0
    stale = 0
    iterations = 0
    while True:
        iterations += 1
        rank_sigs, ratio, total_events = _compress_at(
            streams, scales, coll_reps, threshold, options
        )
        if best is None or ratio > best[1]:
            best = (rank_sigs, ratio, threshold)
            stale = 0
        else:
            stale += 1
        if ratio >= target_ratio:
            break
        if threshold >= options.max_threshold - 1e-12:
            break
        if stale >= options.patience:
            break
        threshold = min(
            options.max_threshold, threshold + options.threshold_step
        )
    rank_sigs, ratio, threshold = best
    return _SearchResult(
        rank_sigs=rank_sigs,
        ratio=ratio,
        threshold=threshold,
        iterations=iterations,
        total_events=total_events,
    )


def compress_trace(
    trace: Trace,
    target_ratio: float = 1.0,
    options: CompressionOptions | None = None,
) -> Signature:
    """Compress ``trace`` into an execution signature.

    The similarity threshold starts at 0 and rises in
    ``options.threshold_step`` increments until the compression ratio
    reaches ``target_ratio`` or the threshold cap is hit (whichever
    comes first). With ``target_ratio`` <= the ratio achieved at
    threshold 0 (e.g. 1.0), only identical events are ever clustered.
    """
    options = options or CompressionOptions()
    # Written so that NaN fails too: ``ratio >= nan`` is never true, so
    # a NaN target would silently run the sweep until patience.
    if not target_ratio >= 1.0:
        raise SignatureError("target compression ratio must be >= 1")
    metrics = get_metrics()
    streams = trace_to_streams(trace)
    all_events = (ev for s in streams for ev in s.events)
    scales = DimensionScales.from_events(all_events)

    with metrics.timer("construct.compress", "trace -> signature wall time"):
        res = _search(streams, scales, target_ratio, options)

    if metrics.enabled:
        metrics.counter(
            "construct.threshold_iterations",
            "threshold-search steps across all compressions",
        ).inc(res.iterations)
        metrics.counter(
            "construct.compressions", "compress_trace invocations"
        ).inc()
        metrics.gauge(
            "construct.last_threshold", "threshold chosen by the last search"
        ).set(res.threshold)
        metrics.gauge(
            "construct.last_compression_ratio",
            "compression ratio achieved by the last search",
        ).set(res.ratio)
    return Signature(
        program_name=trace.program_name,
        nranks=trace.nranks,
        ranks=res.rank_sigs,
        threshold=res.threshold,
        compression_ratio=res.ratio,
        trace_events=res.total_events,
    )
