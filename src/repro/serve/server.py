"""Newline-delimited JSON-over-TCP transport with backpressure.

Protocol (see ``docs/SERVING.md``): one request per line,
``{"id"?, "verb", "params"?, "deadline_ms"?}``; one reply per line,
``{"id", "ok", "code", "result" | "error" [, "failure_record"]}``.
Replies may arrive out of request order on a pipelined connection —
the echoed ``id`` is the correlation key. Codes follow HTTP idiom:
200 success, 400 bad request, 413 request line longer than
:data:`MAX_LINE_BYTES` (the connection is then closed), 500 compute
failure, 503 overload or draining, 504 deadline exceeded.

Backpressure is explicit, not emergent: heavy verbs (``predict``,
``publish``) pass through a **bounded admission count** —
``max_pending`` requests admitted (queued + running) — and anything
beyond that is *immediately* refused with a 503 ``Overloaded`` reply
(``serve.overload``), so saturation shows up as cheap explicit sheds
instead of unbounded latency growth. Admitted work runs on a
``max_concurrency``-thread executor with a per-request deadline
(``deadline_ms``, default ``default_deadline``) enforced by
``asyncio.wait_for`` → 504. Cheap verbs (``ping``, ``healthz``,
``metricz``, ``resolve``, ``list``) bypass admission so operability
endpoints stay responsive under overload.

SIGTERM/SIGINT triggers a graceful drain: stop accepting connections,
refuse new heavy work with 503 ``Draining``, wait up to
``drain_grace`` seconds for in-flight requests, then exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from typing import Optional

from repro.obs.log import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import TraceContext, get_tracer
from repro.serve.service import PredictionService
from repro.store.store import canonical_json

__all__ = ["PredictionServer", "CHEAP_VERBS", "MAX_LINE_BYTES"]

#: Verbs answered inline, outside the admission queue.
CHEAP_VERBS = frozenset(
    ("ping", "healthz", "metricz", "tracez", "slowz", "resolve", "list")
)

#: Longest request line read (asyncio's default stream limit); a longer
#: one gets a 413 ``RequestTooLarge`` reply and the connection closes.
MAX_LINE_BYTES = 2**16

#: Seconds the rest of an oversized line is read and dropped after the
#: 413 reply, so the close sends FIN rather than RST (unread input would
#: make the kernel reset the connection and could lose the reply).
_DISCARD_SECONDS = 2.0

_log = get_logger("serve.server")


class PredictionServer:
    """Asyncio front end over a :class:`PredictionService`."""

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 16,
        max_concurrency: int = 2,
        default_deadline: float = 120.0,
        drain_grace: float = 10.0,
        access_log: bool = False,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = int(max_pending)
        self.max_concurrency = int(max_concurrency)
        self.default_deadline = float(default_deadline)
        self.drain_grace = float(drain_grace)
        self.access_log = bool(access_log)
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = None
        self._pending = 0
        self._draining = False
        self._inflight: set = set()
        #: Open connections: handler task -> its stream writer.
        self._connections: dict = {}
        self.n_overloads = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="serve-exec",
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Stop accepting, let in-flight work finish, shut down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._inflight:
            await asyncio.wait(
                self._inflight, timeout=self.drain_grace
            )
        await self._close_connections()
        if self._server is not None:
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        self.service.close()
        # Final flight-recorder dump: what the server saw last, kept
        # for post-mortems after the process is gone.
        tracer = get_tracer()
        if tracer.enabled:
            tracer.recorder.record_event("drain")
            tracer.recorder.maybe_dump("drain")

    async def _close_connections(self) -> None:
        """End every open connection and its handler.

        An idle client never hangs up by itself, and since Python 3.12
        ``Server.wait_closed`` waits for every connection to go. Closing
        flushes replies already written; a peer that stops reading is
        cut off after ``drain_grace``.
        """
        if not self._connections:
            return
        for writer in self._connections.values():
            writer.close()
        _, stuck = await asyncio.wait(
            list(self._connections), timeout=self.drain_grace
        )
        for task in stuck:
            self._connections[task].transport.abort()
        if stuck:
            await asyncio.wait(stuck)

    def run(self, ready_stream=None) -> None:
        """Serve until SIGTERM/SIGINT, then drain; blocks the caller.

        Prints exactly ``serving on HOST:PORT`` to ``ready_stream``
        (default stdout) once accepting — scripts and CI parse it.
        """
        asyncio.run(self._main(ready_stream or sys.stdout))

    async def _main(self, ready_stream) -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platform without support
        await self.start()
        # Exact line contract: scripts and CI parse this from stdout.
        print(f"serving on {self.host}:{self.port}",
              file=ready_stream, flush=True)
        _log.info("serving", host=self.host, port=self.port,
                  max_pending=self.max_pending,
                  max_concurrency=self.max_concurrency)
        await stop.wait()
        _log.info("drain", "draining ...")
        await self.drain()
        # "drained, bye" stays greppable in stderr (CI asserts a clean
        # drain by finding it).
        _log.info("drained", "drained, bye")

    # -- connection handling ---------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        me = asyncio.current_task()
        self._connections[me] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran MAX_LINE_BYTES; asyncio dropped
                    # what it had buffered of it. Answer, then close.
                    await self._reject_too_large(reader, writer)
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(stripped, writer)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            # Cancellation (loop shutdown) ends the handler quietly too.
            pass
        finally:
            self._connections.pop(me, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                # Loop shutdown cancels idle connection handlers mid
                # wait_closed; there is nothing left to clean up.
                pass

    async def _reject_too_large(self, reader, writer) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            c = metrics.counter(
                "serve.rejected", "request lines refused unparsed"
            )
            c.inc()
            c.labels(reason="too_large").inc()
        _log.warning("rejected", reason="too_large", limit=MAX_LINE_BYTES,
                     peer=writer.get_extra_info("peername"))
        await self._reply(writer, {
            "id": None, "ok": False, "code": 413,
            "error": {"type": "RequestTooLarge",
                      "message": f"request line exceeds {MAX_LINE_BYTES} "
                                 f"bytes",
                      "attempts": 1},
        })
        # Half-close so the client sees the reply then EOF, and drop
        # the line's remaining input until the client hangs up.
        try:
            if writer.can_write_eof():
                writer.write_eof()
            await asyncio.wait_for(_discard(reader), _DISCARD_SECONDS)
        except (asyncio.TimeoutError, OSError):
            pass

    async def _serve_line(self, raw: bytes, writer) -> None:
        t0 = time.perf_counter()
        try:
            request = json.loads(raw.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            await self._reply(writer, {
                "id": None, "ok": False, "code": 400,
                "error": {"type": "BadRequest",
                          "message": f"invalid request line: {exc}",
                          "attempts": 1},
            })
            return
        verb = str(request.get("verb", ""))
        tracer = get_tracer()
        # The wire "trace" field is the client's context; a traced
        # request gets its spans echoed back in the reply. Manual
        # (non-ambient) span: interleaved requests share this thread.
        wire_ctx = (
            TraceContext.from_dict(request.get("trace"))
            if tracer.enabled and request.get("trace") is not None
            else None
        )
        traced = wire_ctx is not None
        span = tracer.start_span(
            "server.request", parent=wire_ctx, component="server",
            attrs={"verb": verb},
        )
        reply = await self._process(request, span.context)
        if tracer.enabled and span.context is not None:
            span.set_attr("code", reply.get("code"))
            span.finish("ok" if reply.get("ok") else "error")
            if not reply.get("ok") and reply.get("code", 0) >= 500:
                # The service's own dump ran before our span closed;
                # re-dump so the file links server → service → worker.
                tracer.recorder.maybe_dump("error_reply")
            if traced:
                reply["trace"] = {
                    "trace_id": span.context.trace_id,
                    "spans": tracer.recorder.trace_spans(
                        span.context.trace_id
                    ),
                }
        reply["id"] = request.get("id")
        if self.access_log:
            _log.info(
                "access",
                verb=verb,
                code=reply.get("code"),
                ok=bool(reply.get("ok")),
                seconds=round(time.perf_counter() - t0, 6),
                id=request.get("id"),
                **(
                    {"trace_id": span.context.trace_id}
                    if span.context is not None
                    else {}
                ),
            )
        await self._reply(writer, reply)

    async def _process(self, request: dict, ctx=None) -> dict:
        verb = str(request.get("verb", ""))
        params = request.get("params") or {}
        if verb in CHEAP_VERBS:
            return self.service.handle(verb, params, ctx)
        if self._draining:
            return self._refusal("Draining", "server is draining")
        if self._pending >= self.max_pending:
            self.n_overloads += 1
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "serve.overload", "requests shed at admission"
                ).inc()
            return self._refusal(
                "Overloaded",
                f"admission queue full ({self.max_pending} pending); "
                f"retry later",
            )
        deadline = self.default_deadline
        if request.get("deadline_ms") is not None:
            deadline = max(0.001, float(request["deadline_ms"]) / 1000.0)
        loop = asyncio.get_running_loop()
        self._pending += 1
        self._set_depth()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(
                    self._executor, self.service.handle, verb, params, ctx
                ),
                timeout=deadline,
            )
        except asyncio.TimeoutError:
            # The executor thread keeps running (its artifacts still
            # land in the store); only the *reply* gives up.
            return {
                "ok": False, "code": 504,
                "error": {"type": "DeadlineExceeded",
                          "message": f"request exceeded {deadline:g}s "
                                     f"deadline",
                          "attempts": 1},
            }
        finally:
            self._pending -= 1
            self._set_depth()

    @staticmethod
    def _refusal(kind: str, message: str) -> dict:
        return {
            "ok": False, "code": 503,
            "error": {"type": kind, "message": message, "attempts": 1},
        }

    def _set_depth(self) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge(
                "serve.queue_depth", "admitted heavy requests"
            ).set(self._pending)

    @staticmethod
    async def _reply(writer, reply: dict) -> None:
        try:
            writer.write(canonical_json(reply).encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionResetError, OSError):
            pass


async def _discard(reader) -> None:
    while await reader.read(MAX_LINE_BYTES):
        pass
