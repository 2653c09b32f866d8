"""Clustering tests, including the paper's own grouping example."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import cluster_stream
from repro.core.distance import DimensionScales
from repro.core.events import ExecEvent, RankStream


def send(nbytes, peer=3, tag=0, gap=0.0):
    return ExecEvent("MPI_Send", peer, tag, float(nbytes), 1e-4, gap)


def stream_of(*events):
    return RankStream(rank=0, events=list(events))


class TestThresholdZero:
    def test_identical_events_share_symbol(self):
        symbols, space = cluster_stream(stream_of(send(100), send(100)), 0.0)
        assert symbols[0] == symbols[1]
        assert space.n_clusters == 1

    def test_different_sizes_split(self):
        symbols, space = cluster_stream(stream_of(send(100), send(101)), 0.0)
        assert symbols[0] != symbols[1]
        assert space.n_clusters == 2


class TestPaperExample:
    def test_similar_sends_merge_into_average(self):
        """§3.2: Send(3, 2000) + Send(3, 1800) -> Send(3, 1900)."""
        events = stream_of(send(2000), send(1800))
        symbols, space = cluster_stream(events, threshold=0.15)
        assert symbols[0] == symbols[1]
        cluster = space.clusters[0]
        assert cluster.centroid[0] == pytest.approx(1900.0)
        assert cluster.count == 2

    def test_different_primitives_never_merge(self):
        ev_send = send(1000)
        ev_isend = ExecEvent("MPI_Isend", 3, 0, 1000.0, 1e-4, 0.0)
        symbols, _ = cluster_stream(stream_of(ev_send, ev_isend), 1.0)
        assert symbols[0] != symbols[1]

    def test_different_peers_never_merge(self):
        symbols, _ = cluster_stream(
            stream_of(send(1000, peer=1), send(1000, peer=2)), 1.0
        )
        assert symbols[0] != symbols[1]

    def test_different_tags_never_merge(self):
        symbols, _ = cluster_stream(
            stream_of(send(1000, tag=1), send(1000, tag=2)), 1.0
        )
        assert symbols[0] != symbols[1]


class TestThresholdSemantics:
    def test_threshold_is_max_size_difference_fraction(self):
        """With scale = max size 1000: a 10% difference merges at
        t=0.1 but not at t=0.09."""
        events = stream_of(send(1000), send(900))
        sym_lo, _ = cluster_stream(events, threshold=0.09)
        sym_hi, _ = cluster_stream(events, threshold=0.101)
        assert sym_lo[0] != sym_lo[1]
        assert sym_hi[0] == sym_hi[1]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            cluster_stream(stream_of(send(1)), -0.1)

    def test_explicit_scales_override(self):
        events = stream_of(send(1000), send(900))
        scales = DimensionScales(nbytes=10_000, duration=1.0)
        symbols, _ = cluster_stream(events, threshold=0.02, scales=scales)
        # |1000-900|/10000 = 0.01 <= 0.02 -> merged.
        assert symbols[0] == symbols[1]


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                   max_size=40),
    threshold=st.floats(min_value=0.0, max_value=1.0),
)
def test_clustering_invariants(sizes, threshold):
    events = stream_of(*[send(s) for s in sizes])
    symbols, space = cluster_stream(events, threshold)
    # One symbol per event; symbols index real clusters.
    assert len(symbols) == len(sizes)
    assert set(symbols) <= set(range(space.n_clusters))
    # Cluster member counts add up.
    assert sum(c.count for c in space.clusters) == len(sizes)
    # Threshold 0: clusters are exact-value groups.
    if threshold == 0.0:
        by_symbol = {}
        for sym, size in zip(symbols, sizes):
            by_symbol.setdefault(sym, set()).add(size)
        for members in by_symbol.values():
            assert len(members) == 1
