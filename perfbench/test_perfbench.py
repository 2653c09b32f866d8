"""Self-tests of the benchmark's own rules.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

They need neither the program nor a server: the load generator is
exercised against a scripted local echo server.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import Request, run_open_loop  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    beyond,
    checked_percentile,
    due_latency,
    idle_time,
    percentile,
    reconcile,
    send_lag,
    tail_percentile,
)


# -- percentile rule ---------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, p", [(1000, 99.0), (999, 90.0), (100, 90.0),
                                  (99, 50.0), (20, 50.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    assert beyond(n, p) >= MIN_BEYOND


def test_p99_of_1000_has_exactly_ten_beyond():
    values = list(range(1000))
    p99 = checked_percentile(values, 99)
    assert sum(1 for v in values if v > p99) == 10


def test_unsupported_percentile_is_refused():
    with pytest.raises(ValueError):
        checked_percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        tail_percentile(19)


# -- open-loop latency -------------------------------------------------


def test_latency_counts_from_due_not_from_send():
    # Due at 1.000, sent 30 ms late, answered 5 ms after sending: the
    # user waited 35 ms, and the generator was 30 ms late.
    assert due_latency(1.000, 1.035) == pytest.approx(0.035)
    assert send_lag(1.000, 1.030) == pytest.approx(0.030)
    assert send_lag(1.000, 0.999) == 0.0


class _StallingServer:
    """Echo server on localhost that stalls once, before its first reply."""

    def __init__(self, stall: float):
        self.stall = stall
        self.port = None
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self._loop = asyncio.new_event_loop()
        stalled = [False]

        async def on_conn(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not stalled[0]:
                    stalled[0] = True
                    await asyncio.sleep(self.stall)
                req = json.loads(line)
                writer.write(json.dumps(
                    {"id": req["id"], "ok": True, "code": 200, "result": {}}
                ).encode() + b"\n")
                await writer.drain()
            writer.close()

        async def main():
            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            async with server:
                await server.serve_forever()

        try:
            self._loop.run_until_complete(main())
        except RuntimeError:
            pass  # loop stopped by close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(5)
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5)
        assert not self._thread.is_alive()


def test_generator_charges_a_stall_to_requests_queued_behind_it():
    stall = 0.15
    reqs = [Request(i * 0.01, "warm", "ping", {}) for i in range(10)]
    with _StallingServer(stall) as server:
        outs = run_open_loop("127.0.0.1", server.port, reqs, nconn=1)
    assert all(o.code == 200 for o in outs)
    # The generator kept its schedule: requests left on time even
    # though replies were held up.
    assert max(send_lag(o.due, o.sent) for o in outs) < 0.05
    # Request i waited for the stall minus its own offset: latency is
    # measured from the due time, so the whole queue pays.
    for i, o in enumerate(outs):
        assert due_latency(o.due, o.done) >= stall - reqs[i].due - 0.005


def test_generator_uses_at_most_nproc_connections(monkeypatch):
    import loadgen

    opened = []
    real = asyncio.open_connection

    async def counting(*args, **kwargs):
        opened.append(args)
        return await real(*args, **kwargs)

    monkeypatch.setattr(loadgen.asyncio, "open_connection", counting)
    monkeypatch.setattr(loadgen.os, "cpu_count", lambda: 2)
    reqs = [Request(0.0, "warm", "ping", {}) for _ in range(4)]
    with _StallingServer(0.0) as server:
        run_open_loop("127.0.0.1", server.port, reqs, nconn=8)
    assert len(opened) == 2


# -- reconciliation ------------------------------------------------------


def test_reconcile_returns_the_unattributed_rest():
    parts = {"sim": 20.0, "trace": 3.0, "build": 0.5, "idle": 6.0}
    other = reconcile(30.0, parts)
    assert other == pytest.approx(0.5)
    assert math.fsum(parts.values()) + other == pytest.approx(30.0)


def test_idle_time_is_the_uncovered_part_of_the_window():
    busy = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]  # overlap, then a gap
    assert idle_time(busy, 0.0, 10.0) == pytest.approx(1.0 + 2.0 + 3.0)
    # Spans sticking out of the window are clipped to it.
    assert idle_time([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(7.0)
    assert idle_time([], 0.0, 10.0) == 10.0


def test_campaign_accounting_adds_up():
    # Two workers, a 10 s window: busy spans + idle = 2 x window when
    # the spans do not overlap on a worker, so "other" is zero.
    w0 = [(0.5, 4.0), (4.1, 9.5)]
    w1 = [(0.6, 9.9)]
    busy = sum(b - a for a, b in w0 + w1)
    idle = idle_time(w0, 0.0, 10.0) + idle_time(w1, 0.0, 10.0)
    assert reconcile(20.0, {"busy": busy, "idle": idle}) == pytest.approx(0.0)

