"""One supervised fork pool: campaign tasks and cold predictions.

:class:`SupervisedPool` runs tasks in worker processes and returns a
:class:`concurrent.futures.Future` per task. The campaign executor's
pool driver (:mod:`repro.parallel.scheduler`) and cold serving
(:class:`repro.serve.pool.WorkerPool`) both run on it, each with its
own module-level ``init`` and ``run`` functions (module-level so the
``spawn`` fallback can pickle them; ``fork`` is preferred, so workers
inherit the parent's tracer and any monkeypatched module attribute).

* **Per-worker dispatch.** Each worker has its own pipe, carrying
  tasks one way and results and heartbeats the other, so the parent
  always knows which task each worker holds. A worker killed halfway
  through a send cuts only its own channel, where a shared queue's
  write lock would stay held by the dead process.
* **No dispatch tick.** :meth:`SupervisedPool.submit` hands a task to
  an idle worker at once; otherwise it waits in a FIFO backlog that
  the collector thread drains as soon as a result or a respawn frees a
  worker.
* **Supervision.** A daemon thread in each worker heartbeats (it
  survives a hung main thread) and the collector drives a
  :class:`~repro.parallel.supervisor.Supervisor`. An overdue worker is
  cancelled (SIGTERM, then SIGKILL) and respawned, failing its task
  with :class:`~repro.errors.TaskTimeoutError` (which also carries
  ``reason``); a dead worker fails its task with
  :class:`~repro.errors.WorkerCrashError` and is respawned. Both carry
  ``worker_id`` and ``started`` (the task's dispatch wall time). The
  caller owns the retry policy.
* **Errors and spans.** A worker-side exception arrives as
  :class:`~repro.errors.RemoteComputeError` (class name, message and
  ``attempts``). With tracing on, each task runs under a
  ``worker.compute`` span parented to the submitter's trace context;
  its completed spans come back with the result, and the parent
  closes a hung or dead worker's span itself and dumps the flight
  recorder.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Optional

from repro.errors import (
    RemoteComputeError,
    ServeError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.obs.log import StructuredLogger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import TraceContext, get_tracer, new_root_context
from repro.parallel.supervisor import Supervisor, SupervisorConfig

__all__ = ["SupervisedPool"]

#: How long the collector waits on the worker pipes before checking
#: deadlines (seconds). Dispatch never waits on it.
_TICK_SECONDS = 0.2


def _preferred_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_main(
    worker_id, init, init_args, run, conn, heartbeat_interval,
    kill_at, hang_at,
) -> None:
    """Worker loop: build the state, then run tasks until told to stop.

    Messages to the parent are ``(kind, payload, spans)``: ``beat``,
    ``ok`` (the result) or ``err`` (``(type, message, attempts)`` of the
    exception ``run`` raised), with the task's completed spans.

    Test hooks: ``kill_at`` makes the worker SIGKILL itself upon
    *receiving* its n-th task; ``hang_at`` (``(n, seconds)``) makes it
    sleep ``seconds`` while holding its n-th task.
    """
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:  # the heartbeat thread shares the pipe
            conn.send(message)

    if heartbeat_interval > 0:

        def _beat() -> None:
            try:
                while True:
                    send(("beat", None, None))
                    time.sleep(heartbeat_interval)
            except OSError:
                return  # the pool closed its end

        threading.Thread(
            target=_beat, name=f"heartbeat-{worker_id}", daemon=True
        ).start()

    state = init(worker_id, *init_args)
    received = 0
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        task_id, task, ctx = item
        received += 1
        if kill_at is not None and received >= kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        if hang_at is not None and received == hang_at[0]:
            time.sleep(hang_at[1])
        tracer = get_tracer()
        try:
            with tracer.span(
                "worker.compute",
                parent=TraceContext.from_dict(ctx) if ctx else None,
                component="worker",
                attrs={"worker_id": worker_id, "task_id": task_id},
            ) as span:
                message = ("ok", run(state, task))
        except Exception as exc:  # ship it; the loop keeps serving
            message = ("err", (
                type(exc).__name__,
                str(exc),
                int(getattr(exc, "attempts", 1)),
            ))
        spans = (
            tracer.recorder.trace_spans(span.context.trace_id)
            if tracer.enabled else []
        )
        send((*message, spans))


def _stop(proc, grace: float) -> None:
    """SIGTERM, wait ``grace`` seconds, then SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(grace)
    if proc.is_alive():
        proc.kill()
    proc.join(1.0)


@dataclass
class _Job:
    task_id: int
    task: Any
    ctx: Optional[dict]
    future: Future = field(default_factory=Future)
    #: Dispatch time: monotonic (the supervisor's wall sample) and
    #: wall clock (``started``, and a synthesized span's start).
    t0: float = 0.0
    started: float = 0.0


class SupervisedPool:
    """Worker processes that run ``run(state, task)`` under supervision.

    Each worker builds ``state = init(worker_id, *init_args)`` once; a
    respawned worker keeps its worker id. ``log`` receives
    ``worker_spawn``/``worker_timeout``/``worker_crash`` events when
    given. ``kill_plan`` (``{worker_id: n}``) and ``hang_plan``
    (``{worker_id: (n, seconds)}``) are test hooks applied to each
    worker's first incarnation only, so recovery converges.
    """

    def __init__(
        self,
        init: Callable,
        run: Callable,
        init_args: tuple = (),
        *,
        workers: int,
        supervisor: Optional[SupervisorConfig] = None,
        log: Optional[StructuredLogger] = None,
        kill_plan: Optional[dict] = None,
        hang_plan: Optional[dict] = None,
    ):
        if workers < 1:
            raise ValueError("a pool needs at least 1 worker")
        self._init, self._run, self._init_args = init, run, tuple(init_args)
        self._config = supervisor or SupervisorConfig()
        self.supervisor = Supervisor(self._config)
        self._log = log
        self._ctx = _preferred_context()
        self._lock = threading.Lock()
        self._procs: dict = {}
        #: worker id -> parent end of its pipe, while it can take tasks.
        self._conns: dict = {}
        #: worker id -> the job it holds.
        self._running: dict[int, _Job] = {}
        self._backlog: deque[_Job] = deque()
        self._next_task = 0
        self._closed = False
        self.n_crashes = 0
        kills, hangs = kill_plan or {}, hang_plan or {}
        for wid in range(workers):
            self._spawn(wid, kills.get(wid), hangs.get(wid))
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True
        )
        self._collector.start()

    def submit(self, task, ctx: Optional[dict] = None) -> Future:
        """Queue ``task``; it starts at once if a worker is idle.

        ``ctx`` is an optional trace-context dict; the worker parents
        its ``worker.compute`` span to it, joining the submitter's
        trace across the process boundary.
        """
        job = _Job(0, task, ctx)
        with self._lock:
            if self._closed:
                raise ServeError("worker pool is closed")
            job.task_id = self._next_task
            self._next_task += 1
            self._backlog.append(job)
            self._dispatch_backlog()
        return job.future

    def _dispatch_backlog(self) -> None:
        """Hand backlog jobs to idle workers (caller holds the lock)."""
        if self._closed:
            return
        idle = [wid for wid in self._conns if wid not in self._running]
        while idle and self._backlog:
            job = self._backlog.popleft()
            if not job.future.set_running_or_notify_cancel():
                continue  # cancelled while waiting
            wid = idle.pop(0)
            job.t0, job.started = time.monotonic(), time.time()
            self._running[wid] = job
            self.supervisor.task_started(wid, str(job.task_id))
            try:
                self._conns[wid].send((job.task_id, job.task, job.ctx))
            except OSError:
                pass  # the worker is dead; its pipe's EOF fails the job

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, wid: int, kill_at=None, hang_at=None) -> None:
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                wid, self._init, self._init_args, self._run, child,
                self._config.heartbeat_interval, kill_at, hang_at,
            ),
            name=f"pool-worker-{wid}",
            daemon=True,
        )
        proc.start()
        # Only the worker holds its end, so its death reads as EOF.
        child.close()
        with self._lock:
            self._procs[wid] = proc
            self._conns[wid] = conn
            self._dispatch_backlog()
        if self._log is not None:
            self._log.info("worker_spawn", worker_id=wid, pid=proc.pid)

    def _replace(self, wid: int, exc: Exception, status: str, reason: str):
        """Fail the worker's job with ``exc``, stop it, and respawn."""
        with self._lock:
            conn = self._conns.pop(wid)
            proc = self._procs.pop(wid)
            job = self._running.pop(wid, None)
            self.supervisor.task_finished(wid)
        conn.close()
        if job is not None:
            # Record the worker's span before failing the future, so
            # the waiting span sees it in the flight recorder.
            self._synthesize_span(wid, job, status, reason)
            exc.worker_id, exc.started = wid, job.started
            job.future.set_exception(exc)
        _stop(proc, self._config.grace_seconds)
        if not self._closed:
            self._spawn(wid)

    def _synthesize_span(self, wid: int, job: _Job, status: str, reason: str):
        """Close the ``worker.compute`` span a hung or dead worker
        cannot, record it, and dump the flight recorder."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        parent = TraceContext.from_dict(job.ctx)
        ctx = (
            parent.child("worker.compute", job.task_id)
            if parent is not None else new_root_context()
        )
        tracer.recorder.record({
            "name": "worker.compute",
            "trace_id": ctx.trace_id,
            "span_id": ctx.span_id,
            "parent_id": ctx.parent_id,
            "component": "worker",
            "ts": job.started,
            "dur": max(0.0, time.time() - job.started),
            "status": status,
            "attrs": {
                "worker_id": wid,
                "task_id": job.task_id,
                "synthesized": True,
                "reason": reason,
            },
        })
        tracer.recorder.record_event(
            f"worker_{status}",
            worker_id=wid,
            trace_id=ctx.trace_id,
            reason=reason,
        )
        tracer.recorder.maybe_dump(f"worker_{status}")

    # -- parent-side collection ------------------------------------------

    def _collect(self) -> None:
        try:
            while not self._closed:
                with self._lock:
                    by_conn = {c: wid for wid, c in self._conns.items()}
                for conn in wait(list(by_conn), timeout=_TICK_SECONDS):
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        self._worker_died(by_conn[conn])
                        continue
                    self._handle(by_conn[conn], *message)
                self._enforce()
        except BaseException as exc:
            # A collector fault must not leave submitters waiting forever.
            for job in self._take_jobs():
                job.future.set_exception(exc)
            raise

    def _handle(self, wid: int, kind: str, payload, spans) -> None:
        if kind == "beat":
            with self._lock:
                self.supervisor.heartbeat(wid)
            metrics = get_metrics()
            if metrics.enabled:
                c = metrics.counter(
                    "supervisor.heartbeats", "worker heartbeats received"
                )
                c.inc()
                c.labels(worker=str(wid)).inc()
            return
        with self._lock:
            job = self._running.pop(wid)
            self.supervisor.task_finished(wid)
            self.supervisor.observe_wall(time.monotonic() - job.t0)
            self._dispatch_backlog()
        # Adopt the worker's spans before resolving the future, so the
        # span that wakes up sees a complete trace in the flight recorder.
        tracer = get_tracer()
        if spans and tracer.enabled:
            tracer.recorder.record_remote(spans)
        if kind == "ok":
            job.future.set_result(payload)
        else:
            error_type, message, attempts = payload
            job.future.set_exception(
                RemoteComputeError(
                    message, error_type=error_type, attempts=attempts
                )
            )

    def _enforce(self) -> None:
        """Cancel overdue workers, fail their jobs, respawn them."""
        with self._lock:
            overdue = self.supervisor.overdue()
        metrics = get_metrics()
        for wid, _key, runtime, reason in overdue:
            why = f"{reason} after {runtime:.1f}s"
            if metrics.enabled:
                c = metrics.counter(
                    "supervisor.timeouts", "hung workers cancelled"
                )
                c.inc()
                c.labels(reason=reason).inc()
            if self._log is not None:
                self._log.warning(
                    "worker_timeout", f"task hung in worker {wid} ({why})",
                    worker_id=wid,
                )
            exc = TaskTimeoutError(
                f"task hung in worker {wid} ({why}); worker cancelled"
            )
            exc.reason = reason
            self._replace(wid, exc, "timeout", why)

    def _worker_died(self, wid: int) -> None:
        with self._lock:
            if self._closed:
                return  # a worker exiting on shutdown
            self.n_crashes += 1
            had_task = wid in self._running
        if self._log is not None:
            self._log.warning(
                "worker_crash",
                f"pool worker {wid} died"
                + (" while running a task" if had_task else ""),
                worker_id=wid,
            )
        self._replace(
            wid,
            WorkerCrashError(f"worker {wid} died while running a task"),
            "crashed",
            "worker died",
        )

    # -- introspection / shutdown ----------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "alive": sum(p.is_alive() for p in self._procs.values()),
                "busy": len(self._running),
                "timeouts": self.supervisor.n_timeouts,
                "crashes": self.n_crashes,
            }

    def _take_jobs(self) -> list[_Job]:
        """Remove and return every unfinished job."""
        with self._lock:
            jobs = [*self._running.values(), *self._backlog]
            self._running.clear()
            self._backlog.clear()
        return [job for job in jobs if not job.future.done()]

    def close(self) -> None:
        """Let running tasks finish within the grace period, stop the
        workers, and fail whatever is left unfinished."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for conn in self._conns.values():
                try:
                    conn.send(None)
                except OSError:
                    pass
            procs = list(self._procs.values())
        for proc in procs:
            proc.join(self._config.grace_seconds)
        for proc in procs:
            _stop(proc, self._config.grace_seconds)
        self._collector.join(2.0)
        with self._lock:
            for conn in self._conns.values():
                conn.close()
            self._conns.clear()
        for job in self._take_jobs():
            job.future.set_exception(ServeError("worker pool closed"))
