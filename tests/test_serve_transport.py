"""Transport + pool layer: backpressure, deadlines, drain, isolation.

The server runs in a background thread on an OS-assigned port; the
real :class:`ServiceClient` drives it over TCP, so the full wire
protocol is exercised. Worker-pool tests monkeypatch
``repro.predict.online.compute_prediction`` *before* constructing the
pool — workers are forked and inherit the patch — which is how hung
and crashing workers are produced deterministically.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.errors import (
    RemoteComputeError,
    ServeError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.obs.metrics import enabled_metrics
from repro.parallel.supervisor import SupervisorConfig
from repro.serve import (
    PredictionServer,
    PredictionService,
    ServiceClient,
    WorkerPool,
)

CG_S = {"bench": "cg", "klass": "S", "nprocs": 4, "target": 0.05}


class ServerThread:
    """Run a PredictionServer's asyncio loop in a daemon thread."""

    def __init__(self, service: PredictionService, **kwargs):
        self.server = PredictionServer(service, port=0, **kwargs)
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._ready.wait(10), "server did not come up"
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(15)

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, timeout: float = 30.0) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=timeout)


@pytest.fixture
def service(tmp_path):
    return PredictionService(cache_dir=str(tmp_path / "store"))


class TestWireProtocol:
    def test_verbs_over_tcp(self, service):
        with ServerThread(service) as st:
            client = st.client()
            assert client.call("ping")["result"] == {"pong": True}
            pub = client.call("publish", {"alias": "cg.s4", **CG_S})
            assert pub["ok"] and pub["code"] == 200
            pred = client.call(
                "predict", {"alias": "cg.s4", "scenario": "cpu-one-node"}
            )
            assert pred["ok"]
            assert pred["result"]["predicted_seconds"] > 0
            assert client.call("healthz")["result"]["status"] == "ok"

    def test_request_id_is_echoed(self, service):
        with ServerThread(service) as st:
            reply = st.client().call("ping", request_id="req-42")
            assert reply["id"] == "req-42"

    def test_malformed_line_yields_400_not_disconnect(self, service):
        with ServerThread(service) as st:
            with socket.create_connection(("127.0.0.1", st.port), 10) as s:
                s.sendall(b"this is not json\n")
                fh = s.makefile("rb")
                bad = json.loads(fh.readline())
                assert bad["code"] == 400 and not bad["ok"]
                # The connection survives for the next request.
                s.sendall(b'{"verb": "ping"}\n')
                ok = json.loads(fh.readline())
                assert ok["ok"]

    def test_oversized_line_gets_413_then_close(self, service):
        """A line past MAX_LINE_BYTES is answered, counted and logged,
        and its connection closed; fresh connections are unaffected."""
        import io

        from repro.obs.log import set_log_stream

        log = io.StringIO()
        previous = set_log_stream(log)
        try:
            with enabled_metrics() as m, ServerThread(service) as st:
                with socket.create_connection(("127.0.0.1", st.port), 10) as s:
                    pad = b"x" * (70 * 1024)
                    s.sendall(b'{"verb": "ping", "pad": "' + pad + b'"}\n')
                    fh = s.makefile("rb")
                    reply = json.loads(fh.readline())
                    assert fh.readline() == b""  # closed after the reply
                assert reply["code"] == 413 and not reply["ok"]
                assert reply["error"]["type"] == "RequestTooLarge"
                assert st.client().call("ping")["ok"]
                snap = m.snapshot()
        finally:
            set_log_stream(previous)
        assert snap["serve.rejected"]["labels"] == {"reason=too_large": 1.0}
        events = [json.loads(line) for line in log.getvalue().splitlines()]
        assert any(
            e["event"] == "rejected" and e["reason"] == "too_large"
            for e in events
        )

    def test_multi_megabyte_line_still_gets_413(self, service):
        """Far past the stream buffer, the line's tail is drained before
        the close, so the reply is not lost to a connection reset."""
        with ServerThread(service) as st:
            with socket.create_connection(("127.0.0.1", st.port), 10) as s:
                s.sendall(b'{"verb": "ping", "pad": "'
                          + b"x" * (4 << 20) + b'"}\n')
                fh = s.makefile("rb")
                reply = json.loads(fh.readline())
                assert fh.readline() == b""
            assert reply["code"] == 413
            assert st.client().call("ping")["ok"]

    def test_unreachable_service_raises_serve_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServeError, match="cannot reach"):
            ServiceClient(port=free_port, timeout=2).call("ping")


class TestBackpressure:
    def test_saturation_sheds_load_with_explicit_503(self, service):
        """The acceptance property: a full admission queue answers
        *immediately* with an explicit overload reply instead of
        queueing without bound."""
        release = threading.Event()

        def blocked_compute(params, cache, cluster, bundles=None):
            assert release.wait(30)
            return {"value": params["env_seed"]}

        service._compute = blocked_compute
        replies, lock = [], threading.Lock()

        def one_call(port, seed):
            t0 = time.monotonic()
            reply = ServiceClient(port=port, timeout=60).call(
                "predict", {**CG_S, "scenario": "cpu-one-node",
                            "env_seed": seed}
            )
            with lock:
                replies.append((reply, time.monotonic() - t0))

        with enabled_metrics() as m:
            with ServerThread(
                service, max_pending=1, max_concurrency=1
            ) as st:
                threads = [
                    threading.Thread(target=one_call, args=(st.port, i))
                    for i in range(4)
                ]
                for t in threads:
                    t.start()
                # All but the one admitted request are refused fast,
                # while the admitted one is still blocked in compute.
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    with lock:
                        if len(replies) >= 3:
                            break
                    time.sleep(0.01)
                with lock:
                    shed = [r for r, _ in replies if r["code"] == 503]
                    assert len(shed) == 3, replies
                    assert all(
                        r["error"]["type"] == "Overloaded" for r in shed
                    )
                    assert all(dt < 5.0 for _, dt in replies)
                release.set()
                for t in threads:
                    t.join(30)
            with lock:
                served = [r for r, _ in replies if r["ok"]]
            assert len(served) == 1
            assert m.counter("serve.overload").value == 3

    def test_deadline_exceeded_yields_504(self, service):
        def slow_compute(params, cache, cluster, bundles=None):
            time.sleep(2.0)
            return {"value": 1}

        service._compute = slow_compute
        with ServerThread(service) as st:
            t0 = time.monotonic()
            reply = st.client().call(
                "predict",
                {**CG_S, "scenario": "cpu-one-node"},
                deadline_ms=100,
            )
            assert reply["code"] == 504
            assert reply["error"]["type"] == "DeadlineExceeded"
            assert time.monotonic() - t0 < 1.5

    def test_cheap_verbs_bypass_admission(self, service):
        """healthz must answer even when the queue is saturated."""
        release = threading.Event()
        service._compute = lambda *a, **k: release.wait(30) and {}
        with ServerThread(service, max_pending=1, max_concurrency=1) as st:
            blocked = threading.Thread(
                target=lambda: st.client(timeout=60).call(
                    "predict", {**CG_S, "scenario": "cpu-one-node"}
                )
            )
            blocked.start()
            try:
                assert st.client(timeout=5).call("healthz")["ok"]
                assert st.client(timeout=5).call("ping")["ok"]
            finally:
                release.set()
                blocked.join(30)


class TestDrain:
    def test_drain_refuses_new_connections(self, service):
        st = ServerThread(service)
        with st:
            port = st.port
            assert st.client().call("ping")["ok"]
        with pytest.raises(ServeError):
            ServiceClient(port=port, timeout=2).call("ping")

    def test_drain_with_idle_connection_is_quiet(self, service):
        """Drain closes an idle connection (``Server.wait_closed`` waits
        for every connection since Python 3.12) and its handler, parked
        in ``readline``, ends cleanly: the client sees EOF and the
        loop's exception handler is never called."""
        reported = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx))
            server = PredictionServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"verb": "ping"}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            # The client keeps the connection open and idle.
            await asyncio.wait_for(server.drain(), timeout=10)
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()

        asyncio.run(main())
        assert reported == []


def _hang_on_marker(params, cache, cluster, bundle_cache=None):
    if params.get("env_seed") == 777:
        time.sleep(60)
    return {"value": int(params.get("env_seed", 0))}


def _crash_worker(params, cache, cluster, bundle_cache=None):
    os._exit(3)


def _timed_compute(params, cache, cluster, bundle_cache=None):
    # Each call appends "<env_seed> <start> <end>" (wall clock, shared
    # across processes) to the file the request names.
    t0 = time.time()
    time.sleep(0.3)
    with open(params["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{params['env_seed']} {t0!r} {time.time()!r}\n")
    return {"value": params["env_seed"]}


def _typed_failure(params, cache, cluster, bundle_cache=None):
    # OSError is retryable, so the worker-side resilient_call exhausts
    # its attempts and annotates the final exception with the count.
    raise OSError("skeleton refused to congeal")


class TestWorkerPool:
    def test_cold_compute_in_pool_matches_inline(self, tmp_path):
        """The same store, the same floats: a pool-computed prediction
        is identical to one computed in-process, and its artifacts
        warm the shared store."""
        from repro.predict.online import normalize_request
        from repro.store import canonical_json

        cache_dir = str(tmp_path / "store")
        req = normalize_request(
            "cg", "S", 4, target=0.05, scenario="cpu-one-node"
        )
        pool = WorkerPool(cache_dir=cache_dir, workers=1)
        try:
            pooled = pool.submit(req)
        finally:
            pool.close()
        inline_service = PredictionService(cache_dir=cache_dir)
        inline = inline_service.handle(
            "predict", {**CG_S, "scenario": "cpu-one-node"}
        )
        assert canonical_json(pooled) == canonical_json(inline["result"])

    def test_hung_worker_is_cancelled_and_respawned(
        self, tmp_path, monkeypatch
    ):
        import repro.predict.online as online

        monkeypatch.setattr(online, "compute_prediction", _hang_on_marker)
        pool = WorkerPool(
            cache_dir=str(tmp_path),
            workers=1,
            supervisor=SupervisorConfig(
                task_timeout=0.6,
                grace_seconds=0.2,
                heartbeat_interval=0.1,
            ),
        )
        try:
            with pytest.raises(TaskTimeoutError, match="hung"):
                pool.submit({"env_seed": 777})
            assert pool.supervisor.n_timeouts == 1
            # The respawned worker (which inherited the patch) still
            # serves non-marker requests.
            assert pool.submit({"env_seed": 5}) == {"value": 5}
            assert pool.stats()["alive"] == 1
        finally:
            pool.close()

    def test_worker_killed_mid_send_does_not_wedge_the_pool(
        self, tmp_path, monkeypatch
    ):
        """Kill hung workers whose heartbeat thread sends almost without
        pause: a kill landing mid-send must not block the results of
        the workers that replace them."""
        import repro.predict.online as online

        monkeypatch.setattr(online, "compute_prediction", _hang_on_marker)
        pool = WorkerPool(
            cache_dir=str(tmp_path),
            workers=1,
            supervisor=SupervisorConfig(
                task_timeout=0.3,
                grace_seconds=0.1,
                heartbeat_interval=1e-5,
            ),
        )
        try:
            for round_ in range(5):
                with pytest.raises(TaskTimeoutError):
                    pool.submit({"env_seed": 777})
                got = {}
                waiter = threading.Thread(
                    target=lambda: got.update(
                        value=pool.submit({"env_seed": round_})
                    ),
                    daemon=True,
                )
                waiter.start()
                waiter.join(15)  # pool.close() releases it on failure
                assert got.get("value") == {"value": round_}, round_
        finally:
            pool.close()

    def test_backlog_runs_in_submission_order_without_a_poll_tick(
        self, tmp_path, monkeypatch
    ):
        """One worker, three submissions: the parent's backlog runs
        them in submission order, each starting as soon as the one
        before it finishes."""
        import repro.predict.online as online

        monkeypatch.setattr(online, "compute_prediction", _timed_compute)
        log = tmp_path / "calls.log"
        pool = WorkerPool(cache_dir=str(tmp_path), workers=1)
        results = {}

        def call(i):
            results[i] = pool.submit({"env_seed": i, "log": str(log)})

        threads = []
        try:
            for i in range(3):
                threads.append(
                    threading.Thread(target=call, args=(i,), daemon=True)
                )
                threads[-1].start()
                time.sleep(0.05)  # fixes the submission order
            for thread in threads:
                thread.join(15)
        finally:
            pool.close()
        assert results == {i: {"value": i} for i in range(3)}
        calls = [line.split() for line in log.read_text().splitlines()]
        assert [int(c[0]) for c in calls] == [0, 1, 2]
        for before, after in zip(calls, calls[1:]):
            assert float(after[1]) - float(before[2]) < 0.05

    def test_dead_worker_raises_crash_error_and_respawns(
        self, tmp_path, monkeypatch
    ):
        import repro.predict.online as online

        monkeypatch.setattr(online, "compute_prediction", _crash_worker)
        pool = WorkerPool(cache_dir=str(tmp_path), workers=1)
        try:
            with pytest.raises(WorkerCrashError):
                pool.submit({"env_seed": 1})
            deadline = time.monotonic() + 10
            while pool.stats()["alive"] < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.stats()["alive"] == 1
            assert pool.stats()["crashes"] >= 1
        finally:
            pool.close()

    def test_worker_failure_carries_type_and_attempts(
        self, tmp_path, monkeypatch
    ):
        """A worker-side exception comes back as RemoteComputeError
        with the original class name and retry count, and the service
        renders it as a 500 with a campaign-style failure record."""
        import repro.predict.online as online

        from repro.faults.resilience import RetryPolicy

        monkeypatch.setattr(online, "compute_prediction", _typed_failure)
        pool = WorkerPool(
            cache_dir=str(tmp_path),
            workers=1,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        service = PredictionService(cache_dir=str(tmp_path), pool=pool)
        try:
            with pytest.raises(RemoteComputeError) as exc_info:
                pool.submit({"env_seed": 1})
            assert exc_info.value.error_type == "OSError"
            assert exc_info.value.attempts == 2

            reply = service.handle(
                "predict", {**CG_S, "scenario": "cpu-one-node"}
            )
            assert reply["code"] == 500
            assert reply["error"]["type"] == "OSError"
            assert reply["error"]["attempts"] == 2
            assert "after 2 attempt(s)" in reply["failure_record"]
        finally:
            service.close()

    def test_healthz_reports_pool_state(self, tmp_path):
        pool = WorkerPool(cache_dir=str(tmp_path), workers=2)
        service = PredictionService(cache_dir=str(tmp_path), pool=pool)
        try:
            health = service.handle("healthz")["result"]
            assert health["pool"]["alive"] == 2
            assert health["status"] == "ok"
        finally:
            service.close()
