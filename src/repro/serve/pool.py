"""Process pool for cold predictions, supervised against hangs.

Cold requests run real simulations; running them in the serving
process would couple request latency to simulation time and let one
pathological run (an NFS stall inside the store, a runaway workload)
wedge the whole service. The pool keeps compute in child processes
and re-uses the campaign machinery for safety:

* each worker pushes monotonic **heartbeats** through its own result
  pipe from a daemon thread (it survives a hung main thread). The pipe
  is the worker's alone: a worker killed halfway through a send can
  only cut its own channel, where a shared queue's write lock would
  stay held by the dead process and block every other worker;
* the parent-side collector drives the same
  :class:`~repro.parallel.supervisor.Supervisor` the campaign
  scheduler uses — per-task soft/hard deadlines plus heartbeat-stall
  detection — and cancels offenders with SIGTERM → SIGKILL
  escalation, respawning a fresh worker;
* a worker-side failure is shipped back as ``(type, message,
  attempts)`` — the ``attempts`` annotation from
  :func:`~repro.faults.resilience.resilient_call` — and re-raised in
  the parent as :class:`~repro.errors.RemoteComputeError`, so the
  service's error reply carries the true worker-side cause and retry
  count.

Workers write into the same artifact store as the parent (atomic
writes make concurrent producers benign), so a cold computation warms
the cache for every later request.

Tests monkeypatch :func:`repro.predict.online.compute_prediction`
*before* constructing the pool: workers are forked, so they inherit
the patched module attribute — that is how the hung-worker paths are
exercised without a genuinely slow simulation.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import wait
from typing import Optional

from repro.errors import (
    RemoteComputeError,
    ServeError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.faults.resilience import RetryPolicy, resilient_call
from repro.obs.log import get_logger
from repro.obs.tracing import TraceContext, get_tracer
from repro.parallel.supervisor import Supervisor, SupervisorConfig

__all__ = ["WorkerPool"]

_log = get_logger("serve.pool")


def _shipped_spans(tracer, span) -> list:
    """The completed spans of this task's trace, for the result
    envelope (the parent adopts them into its flight recorder)."""
    if not tracer.enabled or span.context is None:
        return []
    return tracer.recorder.trace_spans(span.context.trace_id)


def _worker_main(
    worker_id: int,
    cache_dir: Optional[str],
    tasks,
    results,
    heartbeat_interval: float,
    retry_policy: RetryPolicy,
) -> None:
    """Worker loop: pull a request, compute, ship the payload back.

    ``results`` is the write end of this worker's result pipe.
    ``ok``/``err`` payloads are envelopes carrying the worker-side
    spans of the task's trace alongside the result; the ``start`` ack
    carries the opened span's identity so the parent can synthesize a
    closed span if this process hangs or dies mid-task.
    """
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:  # the heartbeat thread shares the pipe
            results.send(message)

    if heartbeat_interval > 0:

        def _beat() -> None:
            try:
                while True:
                    send(("beat", worker_id, None, None))
                    time.sleep(heartbeat_interval)
            except OSError:
                return  # the pool closed its end

        threading.Thread(target=_beat, daemon=True).start()

    from repro.cluster.topology import paper_testbed
    from repro.predict import online
    from repro.store.memo import PipelineCache
    from repro.store.store import ArtifactStore

    cluster = paper_testbed()
    cache = PipelineCache(ArtifactStore(cache_dir), cluster)
    while True:
        item = tasks.get()
        if item is None:
            return
        task_id, params, ctx = item
        # Workers are forked, so they inherit the parent's tracer (and
        # any monkeypatched compute_prediction — see the module note).
        tracer = get_tracer()
        scope = tracer.span(
            "worker.compute",
            parent=TraceContext.from_dict(ctx) if ctx else None,
            component="worker",
            attrs={"worker_id": worker_id, "task_id": task_id},
        )
        span = scope.__enter__()
        start_info = None
        if span.context is not None:
            start_info = {
                "name": "worker.compute",
                "trace_id": span.context.trace_id,
                "span_id": span.context.span_id,
                "parent_id": span.context.parent_id,
                "ts": span.ts,
                "worker_id": worker_id,
            }
        send(("start", worker_id, task_id, start_info))
        try:
            # Resolved through the module so a patch installed in the
            # parent before fork takes effect here too.
            value, _ = resilient_call(
                lambda: online.compute_prediction(params, cache, cluster),
                retry_policy,
            )
            scope.__exit__(None, None, None)
            send((
                "ok",
                worker_id,
                task_id,
                {"payload": value, "spans": _shipped_spans(tracer, span)},
            ))
        except BaseException as exc:  # ship, never kill the loop
            scope.__exit__(type(exc), exc, exc.__traceback__)
            send((
                "err",
                worker_id,
                task_id,
                {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "attempts": int(getattr(exc, "attempts", 1)),
                    "spans": _shipped_spans(tracer, span),
                },
            ))


class WorkerPool:
    """Forked prediction workers with supervision and respawn.

    :meth:`submit` blocks until the prediction payload is back (the
    service calls it from its executor threads), raising
    :class:`RemoteComputeError`, :class:`TaskTimeoutError`, or
    :class:`WorkerCrashError` on the corresponding failure.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        supervisor: Optional[SupervisorConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if workers < 1:
            raise ServeError("worker pool needs at least 1 worker")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._cache_dir = cache_dir
        self._retry_policy = retry_policy or RetryPolicy()
        self._config = supervisor or SupervisorConfig(task_timeout=120.0)
        self.supervisor = Supervisor(self._config)
        self._tasks = self._ctx.Queue()
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        #: worker id -> read end of its result pipe.
        self._pipes: dict = {}
        self._futures: dict[int, Future] = {}
        #: worker id -> task id it is currently running.
        self._running: dict[int, int] = {}
        #: task id -> params, until a worker reports it started. A
        #: worker can die between dequeueing a task and flushing its
        #: "start" notification (the queue feeder thread dies with the
        #: process), leaving the task unattributable; these are
        #: resubmitted on such a death. Duplicate execution is benign:
        #: compute is idempotent against the content-addressed store.
        self._unstarted: dict[int, tuple] = {}
        self._requeued: dict[int, int] = {}
        #: worker id -> span-start info from its "start" ack, so a
        #: hung or dead worker still contributes a (synthesized)
        #: closed span to the flight recorder.
        self._span_starts: dict[int, dict] = {}
        self._max_requeues = 1
        self._lock = threading.Lock()
        self._next_task = 0
        self._next_worker = 0
        self._closed = False
        self.n_crashes = 0
        for _ in range(workers):
            self._spawn()
        self._collector = threading.Thread(
            target=self._collect, name="serve-pool-collector", daemon=True
        )
        self._collector.start()

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self) -> None:
        worker_id = self._next_worker
        self._next_worker += 1
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._cache_dir,
                self._tasks,
                writer,
                self._config.heartbeat_interval,
                self._retry_policy,
            ),
            daemon=True,
            name=f"serve-worker-{worker_id}",
        )
        proc.start()
        # Only the worker holds the write end, so its death reads as EOF.
        writer.close()
        self._procs[worker_id] = proc
        self._pipes[worker_id] = reader
        _log.info("worker_spawn", worker_id=worker_id, pid=proc.pid)

    def _drop_pipe(self, worker_id: int) -> None:
        conn = self._pipes.pop(worker_id, None)
        if conn is not None:
            conn.close()

    def _kill(self, worker_id: int) -> None:
        proc = self._procs.pop(worker_id, None)
        if proc is None:
            return
        proc.terminate()
        proc.join(self._config.grace_seconds)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)

    # -- submission ------------------------------------------------------

    def submit(self, params: dict, ctx: Optional[dict] = None) -> dict:
        """Run one normalized request in a worker; block for the result.

        ``ctx`` is an optional trace-context dict (the service passes
        its span's); the worker parents its ``worker.compute`` span to
        it, joining the trace across the fork boundary.
        """
        if self._closed:
            raise ServeError("worker pool is closed")
        with self._lock:
            task_id = self._next_task
            self._next_task += 1
            fut: Future = Future()
            self._futures[task_id] = fut
            self._unstarted[task_id] = (dict(params), ctx)
        self._tasks.put((task_id, dict(params), ctx))
        return fut.result()

    # -- parent-side collection ------------------------------------------

    def _collect(self) -> None:
        while not self._closed:
            by_conn = {conn: wid for wid, conn in self._pipes.items()}
            ready = wait(list(by_conn), timeout=0.2)
            if not ready:
                self._reap()
                self._enforce()
                continue
            for conn in ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker is gone and its pipe fully read; stop
                    # waiting on it. _reap accounts for the death.
                    self._drop_pipe(by_conn[conn])
                    continue
                self._handle(*message)
            self._enforce()

    def _handle(self, kind: str, wid: int, task_id, payload) -> None:
        if kind == "beat":
            self.supervisor.heartbeat(wid)
        elif kind == "start":
            self.supervisor.task_started(wid, str(task_id))
            with self._lock:
                self._running[wid] = task_id
                self._unstarted.pop(task_id, None)
                if payload:
                    self._span_starts[wid] = payload
        elif kind in ("ok", "err"):
            _, started_at = self.supervisor._tasks.get(
                wid, (None, None)
            )
            self.supervisor.task_finished(wid)
            if started_at is not None:
                self.supervisor.observe_wall(
                    time.monotonic() - started_at
                )
            with self._lock:
                self._running.pop(wid, None)
                self._unstarted.pop(task_id, None)
                self._requeued.pop(task_id, None)
                self._span_starts.pop(wid, None)
                fut = self._futures.pop(task_id, None)
            # Adopt the worker's completed spans before resolving
            # the future, so the service span that wakes up sees a
            # complete trace in the flight recorder.
            tracer = get_tracer()
            if (
                tracer.enabled
                and isinstance(payload, dict)
                and payload.get("spans")
            ):
                tracer.recorder.record_remote(payload["spans"])
            if fut is None:
                return
            if kind == "ok":
                fut.set_result(payload["payload"])
            else:
                fut.set_exception(
                    RemoteComputeError(
                        payload["message"],
                        error_type=payload["type"],
                        attempts=payload["attempts"],
                    )
                )

    def _synthesize_span(self, wid: int, status: str, reason: str) -> None:
        """A worker that hangs or dies cannot close its own span —
        close it here from the "start" ack, record it, and dump the
        flight recorder. Runs *before* the task's future is failed so
        the waiting service span sees the worker span in the ring."""
        tracer = get_tracer()
        with self._lock:
            info = self._span_starts.pop(wid, None)
        if not tracer.enabled or not info:
            return
        ts = float(info.get("ts", time.time()))
        tracer.recorder.record({
            "name": info.get("name", "worker.compute"),
            "trace_id": info.get("trace_id"),
            "span_id": info.get("span_id"),
            "parent_id": info.get("parent_id"),
            "component": "worker",
            "ts": ts,
            "dur": max(0.0, time.time() - ts),
            "status": status,
            "attrs": {
                "worker_id": wid,
                "synthesized": True,
                "reason": reason,
            },
        })
        tracer.recorder.record_event(
            f"worker_{status}",
            worker_id=wid,
            trace_id=info.get("trace_id"),
            reason=reason,
        )
        tracer.recorder.maybe_dump(f"worker_{status}")

    def _enforce(self) -> None:
        """Cancel overdue workers; fail their futures; respawn."""
        for wid, key, runtime, reason in self.supervisor.overdue():
            why = f"{reason} after {runtime:.1f}s"
            _log.warning(
                "worker_timeout",
                f"prediction task hung in worker {wid} ({why})",
                worker_id=wid,
            )
            self._synthesize_span(wid, "timeout", why)
            self._fail_worker_task(
                wid,
                TaskTimeoutError(
                    f"prediction task hung in worker {wid} "
                    f"({reason} after {runtime:.1f}s); worker cancelled"
                ),
            )
            self._kill(wid)
            self._drop_pipe(wid)
            if not self._closed:
                self._spawn()

    def _reap(self) -> None:
        """Detect workers that died while holding a task."""
        if self._closed:
            return
        dead = [
            wid for wid, proc in list(self._procs.items())
            if not proc.is_alive()
        ]
        for wid in dead:
            self._procs.pop(wid, None)
            self._drain_pipe(wid)
            self.n_crashes += 1
            self.supervisor.task_finished(wid)
            with self._lock:
                had_task = wid in self._running
            _log.warning(
                "worker_crash",
                f"serve worker {wid} died"
                + (" while computing a prediction" if had_task else ""),
                worker_id=wid,
            )
            if had_task:
                self._synthesize_span(wid, "crashed", "worker died")
                self._fail_worker_task(
                    wid,
                    WorkerCrashError(
                        f"serve worker {wid} died while computing "
                        f"a prediction"
                    ),
                )
            else:
                self._requeue_unstarted()
            if not self._closed:
                self._spawn()

    def _drain_pipe(self, wid: int) -> None:
        """Handle what a dead worker sent before dying, then drop its
        pipe (a send cut short by the death reads as EOF)."""
        conn = self._pipes.get(wid)
        try:
            while conn is not None and conn.poll():
                self._handle(*conn.recv())
        except (EOFError, OSError):
            pass
        self._drop_pipe(wid)

    def _requeue_unstarted(self) -> None:
        """A worker died without an attributable task: anything not yet
        visibly started may have gone down with it. Resubmit those
        tasks — at most :attr:`_max_requeues` times each, so a
        deterministic crasher surfaces as :class:`WorkerCrashError`
        instead of a crash/respawn loop."""
        with self._lock:
            items = list(self._unstarted.items())
        for task_id, (params, ctx) in items:
            if self._requeued.get(task_id, 0) >= self._max_requeues:
                with self._lock:
                    self._unstarted.pop(task_id, None)
                    self._requeued.pop(task_id, None)
                    fut = self._futures.pop(task_id, None)
                if fut is not None and not fut.done():
                    fut.set_exception(
                        WorkerCrashError(
                            f"prediction task {task_id} lost to "
                            f"crashing workers "
                            f"{self._max_requeues + 1} times; giving up"
                        )
                    )
            else:
                self._requeued[task_id] = (
                    self._requeued.get(task_id, 0) + 1
                )
                self._tasks.put((task_id, params, ctx))

    def _fail_worker_task(self, wid: int, exc: Exception) -> None:
        with self._lock:
            task_id = self._running.pop(wid, None)
            fut = (
                self._futures.pop(task_id, None)
                if task_id is not None
                else None
            )
        if fut is not None and not fut.done():
            fut.set_exception(exc)

    # -- introspection / shutdown ----------------------------------------

    def stats(self) -> dict:
        with self._lock:
            busy = len(self._running)
        return {
            "alive": sum(1 for p in self._procs.values() if p.is_alive()),
            "busy": busy,
            "timeouts": self.supervisor.n_timeouts,
            "crashes": self.n_crashes,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            self._tasks.put(None)
        for proc in list(self._procs.values()):
            proc.join(self._config.grace_seconds)
        for wid in list(self._procs):
            self._kill(wid)
        with self._lock:
            futures = list(self._futures.values())
            self._futures.clear()
        for fut in futures:
            if not fut.done():
                fut.set_exception(ServeError("worker pool closed"))
        self._collector.join(2.0)
        self._tasks.close()
        for wid in list(self._pipes):
            self._drop_pipe(wid)
