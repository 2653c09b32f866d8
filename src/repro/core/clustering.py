"""Threshold clustering of execution events into symbols (paper §3.2).

The trace becomes "a string of symbols where substantially similar
execution events are placed in one cluster and assigned the same
symbol". Events only ever merge within the same hard key (MPI
primitive, peer, tag — blocking and non-blocking calls are distinct
primitives and are never grouped). Within a key, an event joins the
first existing cluster whose running-mean centroid is within the
similarity threshold; a threshold of 0 clusters only identical events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.distance import (
    DimensionScales,
    dissimilarity,
    event_scales,
    event_vector,
    scalar_dissimilarity,
)
from repro.core.events import ExecEvent, RankStream
from repro.obs.metrics import get_metrics


@dataclass
class Cluster:
    """A group of substantially similar events."""

    symbol: int
    key: tuple
    centroid: tuple[float, ...]
    count: int = 0

    def absorb(self, vec: tuple[float, ...]) -> None:
        """Update the running-mean centroid with one more member."""
        n = self.count
        self.centroid = tuple(
            (c * n + v) / (n + 1) for c, v in zip(self.centroid, vec)
        )
        self.count = n + 1


@dataclass
class ClusterSpace:
    """Clustering state and result for one rank stream."""

    threshold: float
    scales: DimensionScales
    clusters: list[Cluster] = field(default_factory=list)
    _by_key: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        metrics = get_metrics()
        self._m_enabled = metrics.enabled
        if self._m_enabled:
            self._m_merges = metrics.counter(
                "construct.cluster_merges",
                "events absorbed into an existing cluster",
            )
            self._m_created = metrics.counter(
                "construct.clusters_created", "new clusters opened"
            )
        self._scale_vec = event_scales(self.scales)

    def assign(self, ev: ExecEvent) -> int:
        """Return the symbol for ``ev``, creating a cluster if needed."""
        key = ev.key()
        vec = event_vector(ev)
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = []
            self._by_key[key] = bucket
        scalar = len(vec) == 1
        threshold = self.threshold
        for cluster in bucket:
            if scalar:
                d = scalar_dissimilarity(
                    vec[0], cluster.centroid[0], self._scale_vec[0]
                )
            else:
                d = dissimilarity(vec, cluster.centroid, self._scale_vec)
            if d <= threshold:
                cluster.absorb(vec)
                if self._m_enabled:
                    self._m_merges.inc()
                return cluster.symbol
        cluster = Cluster(symbol=len(self.clusters), key=key, centroid=vec, count=1)
        self.clusters.append(cluster)
        bucket.append(cluster)
        if self._m_enabled:
            self._m_created.inc()
        return cluster.symbol

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def cluster_stream(
    stream: RankStream,
    threshold: float,
    scales: DimensionScales | None = None,
) -> tuple[list[int], ClusterSpace]:
    """Cluster one rank's events; return (symbol string, space).

    ``scales`` defaults to per-stream maxima; the compression driver
    passes trace-wide scales so the threshold means the same thing on
    every rank.
    """
    if threshold < 0:
        raise ValueError("similarity threshold must be >= 0")
    if scales is None:
        scales = DimensionScales.from_events(stream.events)
    space = ClusterSpace(threshold=threshold, scales=scales)
    symbols = [space.assign(ev) for ev in stream.events]
    return symbols, space
