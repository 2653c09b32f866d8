"""The campaign executor: one task graph, two drivers.

``run_campaign(runner)`` executes an experiment campaign's task graph
(:mod:`repro.parallel.tasks`). One set of parent-side code replays the
journal on resume, promotes tasks whose dependencies are met into a
ready list, journals and counts every task payload (:func:`_run_task`
builds them all), and assembles the results. Two small drivers feed it:

* ``runner.workers == 1`` — the inline driver runs the lowest-index
  ready task in this process, on the runner's own artifact store: the
  order of the campaign's nested loops;
* ``runner.workers > 1`` — the pool driver hands ready tasks to worker
  processes as they go idle (dynamic load balancing — a worker stuck
  on a slow skeleton build never blocks the others).

Serial and parallel campaigns are therefore one executor, and their
results are **byte-identical** by construction: results are assembled
in serial iteration order from the payloads (the simulator is
deterministic and floats round-trip exactly; see ``docs/SCALING.md``),
and both drivers write the same journal entries, so either resumes the
other's journal.

The pool driver adds crash isolation:

* workers share nothing but the on-disk artifact store
  (:mod:`repro.store`): every task's inputs are re-derived from the
  pickled campaign config or fetched from the store by content
  address, so tasks can run on any worker in any order;
* the parent is the only journal writer — workers report payloads
  over their own pipes;
* a worker that dies (killed, OOM, crashed) is detected by the
  parent: its in-flight task is re-queued (up to
  ``RetryPolicy.max_attempts`` losses, then the benchmark fails with
  :class:`~repro.errors.WorkerCrashError`) and a fresh worker is
  respawned in its place (``campaign.worker_restarts`` metric);
* a worker that *hangs* (alive but stuck) is detected by the
  :class:`~repro.parallel.supervisor.Supervisor` — workers heartbeat
  through their result pipes, and each task carries a soft deadline
  derived from the p95 of completed walls plus an optional hard
  ``--task-timeout``. Overdue workers are cancelled (SIGTERM→SIGKILL),
  respawned, and their task re-queued like a crash, failing with
  :class:`~repro.errors.TaskTimeoutError` on exhaustion. Each worker
  has a pipe of its own: a worker killed halfway through a send can
  only cut its own channel, where a shared queue's write lock would
  stay held by the dead process and block every later result.

Per-task spans (which worker ran what, when; serial runs use worker
lane 0) are collected into ``runner.campaign_spans`` and exported by
:func:`write_campaign_timeline` as a Chrome trace with one lane per
worker — the campaign-level sibling of
:class:`repro.obs.timeline.TimelineRecorder`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
import warnings
from multiprocessing.connection import wait
from typing import Optional, Union

from repro.cluster.contention import DEDICATED
from repro.core.construct import build_skeleton
from repro.errors import ExperimentError, SkeletonQualityWarning, TraceError
from repro.experiments.journal import CampaignJournal
from repro.faults.resilience import resilient_call
from repro.obs.metrics import get_metrics
from repro.parallel.supervisor import Supervisor, SupervisorConfig
from repro.parallel.tasks import (
    KIND_APP_RUN,
    KIND_CLASS_S_DED,
    KIND_CLASS_S_RUN,
    KIND_SKEL_BUILD,
    KIND_SKEL_RUN,
    KIND_SKEL_TRACE,
    KIND_TRACE,
    CampaignTask,
    campaign_tasks,
)
from repro.sim.program import run_program
from repro.store.memo import (
    PipelineCache,
    skeleton_program_params,
    workload_params,
)
from repro.store.store import ArtifactStore
from repro.trace.analysis import activity_breakdown
from repro.trace.io import read_trace
from repro.trace.tracer import trace_program
from repro.util.rng import derive_seed
from repro.workloads import get_program

__all__ = ["run_campaign", "write_campaign_timeline"]

#: Kinds whose payload carries a trace file and activity breakdown.
_TRACED_KINDS = (KIND_TRACE, KIND_SKEL_TRACE)

#: How long the parent waits on the result pipes before polling
#: worker liveness (seconds).
_POLL_SECONDS = 0.2


def _preferred_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _WorkerState:
    """Per-executor caches over one pipeline: programs, traces and
    skeleton bundles (a worker process's, or the inline driver's)."""

    def __init__(self, config, cluster, pipeline: PipelineCache):
        from repro.experiments.runner import campaign_scenarios

        self.config = config
        self.cluster = cluster
        self.pipeline = pipeline
        self.scenarios = {s.name: s for s in campaign_scenarios(config)}
        self._programs: dict = {}
        self._traces: dict = {}
        self._bundles: dict = {}

    def program(self, bench: str, klass: str):
        k = (bench, klass)
        if k not in self._programs:
            self._programs[k] = get_program(
                bench, klass, self.config.nprocs, self.config.workload_seed
            )
        return self._programs[k]

    def app_params(self, bench: str, klass: str) -> dict:
        return workload_params(
            bench, klass, self.config.nprocs, self.config.workload_seed
        )

    def trace(self, bench: str):
        """The benchmark's dedicated traced run (memoized, store-backed)."""
        if bench not in self._traces:
            params = self.app_params(bench, self.config.klass)
            program = self.program(bench, self.config.klass)
            self._traces[bench] = self.pipeline.traced_run(
                params, lambda: trace_program(program, self.cluster)
            )
        return self._traces[bench]

    def bundle(self, bench: str, target: float):
        """The benchmark's skeleton bundle for ``target`` (memoized)."""
        k = (bench, target)
        if k not in self._bundles:
            params = self.app_params(bench, self.config.klass)
            trace_digest = self.pipeline.trace_key(params).digest

            def _build():
                trace, _ = self.trace(bench)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SkeletonQualityWarning)
                    return build_skeleton(trace, target_seconds=target)

            self._bundles[k] = self.pipeline.skeleton(
                trace_digest, target, _build
            )
        return self._bundles[k]


def _breakdown(trace) -> dict:
    bd = activity_breakdown(trace)
    return {
        "mpi_percent": bd.mpi_percent,
        "compute_percent": bd.compute_percent,
        "n_calls": trace.n_calls(),
    }


def _trace_blob_rel(state: _WorkerState, key) -> str:
    store = state.pipeline.store
    return str(store.blob_path(key, "trace").relative_to(store.root))


def _execute_task(state: _WorkerState, task: CampaignTask, policy) -> dict:
    """Run one task; return its payload fields (no status/bookkeeping)."""
    from repro.store.memo import runresult_to_dict

    cfg = state.config
    pipeline = state.pipeline

    if task.kind == KIND_SKEL_BUILD:
        bundle, attempts = resilient_call(
            lambda: state.bundle(task.bench, task.target), policy
        )
        params = state.app_params(task.bench, cfg.klass)
        trace_digest = pipeline.trace_key(params).digest
        skel_key = pipeline.skeleton_key(trace_digest, task.target)
        return {
            "skeleton": {
                "K": bundle.K,
                "threshold": bundle.signature.threshold,
                "compression_ratio": bundle.signature.compression_ratio,
                "min_good": bundle.goodness.min_good_seconds,
                "flagged": bundle.flagged,
                "digest": skel_key.digest,
            },
            "attempts": attempts,
        }

    if task.kind == KIND_TRACE:
        def fn():
            return state.trace(task.bench)

        (trace, result), attempts = resilient_call(fn, policy)
        params = state.app_params(task.bench, cfg.klass)
        return {
            "result": runresult_to_dict(result),
            "trace_file": _trace_blob_rel(state, pipeline.trace_key(params)),
            "breakdown": _breakdown(trace),
            "attempts": attempts,
        }

    if task.kind == KIND_APP_RUN:
        params = state.app_params(task.bench, cfg.klass)
        program = state.program(task.bench, cfg.klass)
        scen = state.scenarios[task.scenario]
        seed = task.seed

        def fn():
            return pipeline.simulated_run(
                params, scen, seed,
                lambda: run_program(program, state.cluster, scen, seed=seed),
            )

        result, attempts = resilient_call(fn, policy)
        return {"result": runresult_to_dict(result), "attempts": attempts}

    if task.kind in (KIND_SKEL_TRACE, KIND_SKEL_RUN):
        bundle = state.bundle(task.bench, task.target)
        app_params = state.app_params(task.bench, cfg.klass)
        trace_digest = pipeline.trace_key(app_params).digest
        skel_digest = pipeline.skeleton_key(trace_digest, task.target).digest
        skel_params = skeleton_program_params(skel_digest)
        if task.kind == KIND_SKEL_TRACE:
            def fn():
                return pipeline.traced_run(
                    skel_params,
                    lambda: trace_program(bundle.program, state.cluster),
                )

            (trace, result), attempts = resilient_call(fn, policy)
            return {
                "result": runresult_to_dict(result),
                "trace_file": _trace_blob_rel(
                    state, pipeline.trace_key(skel_params)
                ),
                "breakdown": _breakdown(trace),
                "attempts": attempts,
            }
        scen = state.scenarios[task.scenario]
        seed = task.seed

        def fn():
            return pipeline.simulated_run(
                skel_params, scen, seed,
                lambda: run_program(
                    bundle.program, state.cluster, scen, seed=seed
                ),
            )

        result, attempts = resilient_call(fn, policy)
        return {"result": runresult_to_dict(result), "attempts": attempts}

    if task.kind in (KIND_CLASS_S_DED, KIND_CLASS_S_RUN):
        params = state.app_params(task.bench, cfg.baseline_klass)
        program = state.program(task.bench, cfg.baseline_klass)
        if task.kind == KIND_CLASS_S_DED:
            def fn():
                return pipeline.simulated_run(
                    params, DEDICATED, 0,
                    lambda: run_program(program, state.cluster),
                )
        else:
            scen = state.scenarios[task.scenario]
            seed = task.seed

            def fn():
                return pipeline.simulated_run(
                    params, scen, seed,
                    lambda: run_program(
                        program, state.cluster, scen, seed=seed
                    ),
                )

        result, attempts = resilient_call(fn, policy)
        return {"result": runresult_to_dict(result), "attempts": attempts}

    raise ExperimentError(f"unknown campaign task kind {task.kind!r}")


def _run_task(
    state: _WorkerState, task: CampaignTask, policy, worker_id: int
) -> dict:
    """Run one task; return its full payload (status, timing, lane).

    A task failure becomes a ``"failed"`` payload, never an exception,
    so it cannot end a driver's loop; ``KeyboardInterrupt`` and other
    non-``Exception`` signals still propagate.
    """
    t0 = time.time()
    try:
        payload = _execute_task(state, task, policy)
        payload["status"] = "ok"
    except Exception as exc:
        payload = {
            "status": "failed",
            "error": str(exc),
            "error_type": type(exc).__name__,
            # resilient_call sets it; anything raised outside ran once.
            "attempts": getattr(exc, "attempts", 1),
        }
    payload.update(
        key=task.key,
        kind=task.kind,
        worker=worker_id,
        t_start=t0,
        t_end=time.time(),
    )
    return payload


def _worker_main(
    worker_id, config, cluster, cache_dir, policy, heartbeat_interval,
    kill_at, hang_at, task_q, result_conn,
):
    """Worker process: pull tasks, execute, report payloads.

    ``result_conn`` is the write end of this worker's result pipe.
    A daemon thread heartbeats through it every
    ``heartbeat_interval`` seconds (``<= 0`` disables) so the parent's
    supervisor can tell a frozen process from a busy one — the daemon
    keeps beating even while the main thread is stuck in a task.

    Test hooks: ``kill_at`` makes the worker SIGKILL itself upon
    *receiving* its N-th task — before executing or reporting it — to
    exercise dead-worker recovery; ``hang_at`` (``(n, seconds)``)
    makes it sleep ``seconds`` while *holding* its n-th task, to
    exercise hang detection. Both are deterministic.
    """
    state = _WorkerState(
        config, cluster, PipelineCache(ArtifactStore(cache_dir), cluster)
    )
    received = 0
    seq = 0
    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:  # the heartbeat thread shares the pipe
            result_conn.send(message)

    def _beat() -> None:
        nonlocal seq
        while True:
            time.sleep(heartbeat_interval)
            seq += 1
            try:
                send({"hb": True, "worker": worker_id, "seq": seq})
            except Exception:  # pipe torn down: parent is gone
                return

    if heartbeat_interval is not None and heartbeat_interval > 0:
        threading.Thread(
            target=_beat, name=f"heartbeat-{worker_id}", daemon=True
        ).start()

    while True:
        task = task_q.get()
        if task is None:
            return
        received += 1
        if kill_at is not None and received >= kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        if hang_at is not None and received == hang_at[0]:
            time.sleep(hang_at[1])
        send(_run_task(state, task, policy, worker_id))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent's view of one worker: process, its task queue, the read
    end of its result pipe (None once closed), and the task it
    currently holds (None when idle)."""

    def __init__(self, ctx, worker_id, spawn_args, kill_at, hang_at=None):
        self.worker_id = worker_id
        self.task_q = ctx.SimpleQueue()
        self.current: Optional[CampaignTask] = None
        self.t_dispatch = 0.0
        self.conn, writer = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(
                worker_id, *spawn_args, kill_at, hang_at,
                self.task_q, writer,
            ),
            name=f"campaign-worker-{worker_id}",
            daemon=True,
        )
        self.proc.start()
        # Only the worker holds the write end, so its death reads as EOF.
        writer.close()

    def close_pipe(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def dispatch(self, task: CampaignTask) -> None:
        self.current = task
        self.t_dispatch = time.time()
        self.task_q.put(task)

    def cancel(self, grace: float) -> None:
        """Cancel a hung worker: SIGTERM, wait ``grace``, escalate to
        SIGKILL."""
        if self.alive:
            self.proc.terminate()
            self.proc.join(timeout=grace)
        if self.alive:
            self.proc.kill()
            self.proc.join(timeout=5.0)

    def shutdown(self) -> None:
        if self.alive:
            self.task_q.put(None)
            self.proc.join(timeout=5.0)
        if self.alive:
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        self.close_pipe()


def _payload_from_journal(runner, task: CampaignTask, entry: dict):
    """Rebuild a task payload from its journal entry, or None if the
    journaled artifacts are unusable (forces re-execution)."""
    if entry.get("status") != "ok":
        return None
    base = {"key": task.key, "kind": task.kind, "status": "ok"}
    if task.kind == KIND_SKEL_BUILD:
        meta = entry.get("skeleton")
        if not isinstance(meta, dict) or "K" not in meta:
            return None
        return {**base, "skeleton": meta}
    result = entry.get("result")
    if not isinstance(result, dict):
        return None
    payload = {**base, "result": result}
    if task.kind in _TRACED_KINDS:
        rel = entry.get("trace_file")
        if not rel:
            return None
        try:
            trace = read_trace(runner.store.root / rel)
        except (OSError, TraceError):
            return None
        payload["trace_file"] = rel
        payload["breakdown"] = _breakdown(trace)
    return payload


def _journal_entry(payload: dict) -> dict:
    """The journal entry for a payload."""
    if payload["status"] != "ok":
        return {
            "status": "failed",
            "error": payload.get("error", ""),
            "error_type": payload.get("error_type", "Exception"),
            "attempts": payload.get("attempts", 1),
        }
    if payload["kind"] == KIND_SKEL_BUILD:
        return {"status": "ok", "skeleton": payload["skeleton"]}
    entry = {"status": "ok", "result": payload["result"]}
    if "trace_file" in payload:
        entry["trace_file"] = payload["trace_file"]
    return entry


def _assemble(runner, scenarios, payloads: dict, bench_failures: dict):
    """Build ExperimentResults from payloads in serial iteration order.

    Every dict's insertion order follows the campaign's nested loops
    (benchmark, then app runs, skeleton sizes, Class S), never the
    order tasks finished in, so ``to_json()`` does not depend on the
    driver or the worker count.
    """
    from dataclasses import asdict

    from repro.experiments.runner import ExperimentResults

    cfg = runner.config
    results = ExperimentResults(
        config={
            k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(cfg).items()
        },
        scenario_names=[s.name for s in scenarios],
    )
    for bench in cfg.benchmarks:
        if bench in bench_failures:
            fail = bench_failures[bench]
            results.failures[bench] = {
                "run": fail["key"],
                "error_type": fail.get("error_type", "Exception"),
                "error": fail.get("error", ""),
                "attempts": fail.get("attempts", 1),
            }
            continue
        trace_p = payloads[f"{bench}.{cfg.klass}/trace::dedicated::0"]
        app_entry = {
            "dedicated": trace_p["result"]["elapsed"],
            "mpi_percent": trace_p["breakdown"]["mpi_percent"],
            "compute_percent": trace_p["breakdown"]["compute_percent"],
            "n_calls": trace_p["breakdown"]["n_calls"],
            "scenarios": {},
        }
        for scen in scenarios:
            seed = derive_seed(cfg.environment_seed, "app", bench, scen.name)
            run_p = payloads[f"{bench}.{cfg.klass}/app::{scen.name}::{seed}"]
            app_entry["scenarios"][scen.name] = run_p["result"]["elapsed"]
        results.apps[bench] = app_entry

        results.skeletons[bench] = {}
        for target in cfg.skeleton_targets:
            build_p = payloads[
                f"{bench}.{cfg.klass}/skel-build-{target:g}::dedicated::0"
            ]
            meta = build_p["skeleton"]
            skel_id = f"{bench}.{cfg.klass}/skel-{target:g}"
            skel_trace_p = payloads[f"{skel_id}::dedicated::0"]
            entry = {
                "K": meta["K"],
                "threshold": meta["threshold"],
                "compression_ratio": meta["compression_ratio"],
                "dedicated": skel_trace_p["result"]["elapsed"],
                "mpi_percent": skel_trace_p["breakdown"]["mpi_percent"],
                "compute_percent": skel_trace_p["breakdown"]["compute_percent"],
                "min_good": meta["min_good"],
                "flagged": meta["flagged"],
                "scenarios": {},
            }
            for scen in scenarios:
                seed = derive_seed(
                    cfg.environment_seed, "skel", bench, target, scen.name
                )
                run_p = payloads[f"{skel_id}::{scen.name}::{seed}"]
                entry["scenarios"][scen.name] = run_p["result"]["elapsed"]
            results.skeletons[bench][f"{target:g}"] = entry

        s_id = f"{bench}.{cfg.baseline_klass}/class-s"
        s_ded_p = payloads[f"{s_id}::dedicated::0"]
        s_entry = {"dedicated": s_ded_p["result"]["elapsed"], "scenarios": {}}
        for scen in scenarios:
            seed = derive_seed(cfg.environment_seed, "class_s", bench, scen.name)
            run_p = payloads[f"{s_id}::{scen.name}::{seed}"]
            s_entry["scenarios"][scen.name] = run_p["result"]["elapsed"]
        results.class_s[bench] = s_entry
    return results


class _CampaignProgress:
    """Per-run progress accounting: counters and a wall-clock ETA."""

    def __init__(self, total_runs: int):
        self.total = total_runs
        self.done = 0
        self._t0 = time.perf_counter()

    def record(self) -> None:
        self.done += 1

    def eta_seconds(self) -> float:
        """Remaining wall time extrapolated from the completed runs."""
        if self.done == 0:
            return float("nan")
        rate = (time.perf_counter() - self._t0) / self.done
        return rate * (self.total - self.done)

    def line(
        self, run_id: str, scenario: str, seed: int, sim: float, wall: float
    ) -> str:
        """One structured per-run log line."""
        return (
            f"run {self.done}/{self.total} id={run_id} "
            f"scenario={scenario} seed={seed} "
            f"sim={sim:.3f}s wall={wall:.2f}s eta={self.eta_seconds():.0f}s"
        )


def run_campaign(
    runner,
    kill_plan: Optional[dict] = None,
    hang_plan: Optional[dict] = None,
):
    """Execute ``runner``'s campaign: inline when ``runner.workers`` is
    1, else on that many worker processes.

    Called by :meth:`ExperimentRunner.run` (which owns the journal
    lifecycle and the results artifact). ``kill_plan`` is a test hook
    for the pool driver: ``{worker_id: n}`` SIGKILLs that worker on its
    n-th task — applied to the first incarnation only, so recovery
    always converges. ``hang_plan`` (``{worker_id: (n, seconds)}``)
    instead stalls the worker on its n-th task, exercising the
    supervisor.
    """
    cfg = runner.config
    policy = runner.retry_policy
    scenarios = runner.scenarios
    metrics = get_metrics()
    journal: Optional[CampaignJournal] = runner._journal
    tasks = campaign_tasks(cfg, scenarios)
    progress = _CampaignProgress(sum(1 for t in tasks if t.is_run))

    payloads: dict[str, dict] = {}  # key -> ok payload
    failed: dict[str, dict] = {}    # key -> failed payload
    cancelled: set[str] = set()
    bench_failures: dict[str, dict] = {}
    by_key = {t.key: t for t in tasks}
    spans: list[dict] = []

    def _count_task(payload) -> None:
        if not metrics.enabled:
            return
        c = metrics.counter("campaign.tasks", "campaign tasks by worker")
        c.inc()
        if "worker" in payload:
            c.labels(worker=str(payload["worker"])).inc()

    def _fail_bench(payload) -> None:
        task = by_key[payload["key"]]
        prior = bench_failures.get(task.bench)
        if prior is None or by_key[prior["key"]].index > task.index:
            bench_failures[task.bench] = payload

    # Resume: replay the journal before dispatching anything.
    for task in tasks:
        entry = runner._journal_state.get(task.key)
        if entry is None:
            continue
        payload = _payload_from_journal(runner, task, entry)
        if payload is None:
            continue
        payloads[task.key] = payload
        if task.is_run:
            runner.n_resumed += 1
            progress.record()
            if metrics.enabled:
                metrics.counter(
                    "campaign.resumed", "runs reconstructed from journal"
                ).inc()
    if runner.n_resumed:
        runner._log(f"resumed {runner.n_resumed} run(s) from journal")

    def _settled(task: CampaignTask) -> bool:
        return (
            task.key in payloads
            or task.key in failed
            or task.key in cancelled
        )

    def _ready(task: CampaignTask) -> bool:
        if task.bench in bench_failures:
            return False
        return all(dep in payloads for dep in task.deps)

    def _handle(payload: dict) -> None:
        key = payload["key"]
        task = by_key[key]
        _count_task(payload)
        if "t_start" in payload:
            spans.append(
                {
                    "worker": payload.get("worker", -1),
                    "key": key,
                    "kind": task.kind,
                    "t_start": payload["t_start"],
                    "t_end": payload["t_end"],
                    "status": payload["status"],
                }
            )
        # Payloads without a worker stand for lost tasks; their
        # attempts are re-queues (campaign.worker_restarts), not retries.
        retries = payload.get("attempts", 1) - 1
        if retries > 0 and "worker" in payload:
            if metrics.enabled:
                metrics.counter(
                    "campaign.retries", "campaign task retries"
                ).inc(retries)
            runner._log(f"task {key} retried {retries} time(s)")
        if payload["status"] == "ok":
            payloads[key] = payload
            if journal is not None:
                journal.record(key, _journal_entry(payload))
            if task.is_run:
                runner.n_executed += 1
                progress.record()
                wall = payload.get("t_end", 0.0) - payload.get("t_start", 0.0)
                if metrics.enabled:
                    metrics.counter(
                        "campaign.runs", "campaign runs completed"
                    ).inc()
                    metrics.histogram(
                        "campaign.run_wall_seconds",
                        "wall time per campaign run",
                    ).observe(wall)
                result = payload["result"]
                runner._log(
                    progress.line(
                        task.run_id, task.scenario, task.seed,
                        result["elapsed"], wall,
                    )
                )
        else:
            failed[key] = payload
            if journal is not None:
                journal.record(key, _journal_entry(payload))
            if metrics.enabled:
                metrics.counter(
                    "campaign.failures", "campaign runs failed"
                ).inc()
            _fail_bench(payload)
            runner._log(
                f"task {key} FAILED on worker "
                f"{payload.get('worker', '?')}: "
                f"{payload.get('error_type')}: {payload.get('error')}"
            )

    # Serial-order ready list; tasks leave it only when dispatched.
    ready: list[CampaignTask] = []
    backlog = [t for t in tasks if not _settled(t)]

    def _promote() -> bool:
        """Move unblocked backlog tasks to ``ready`` and cancel the
        tasks of failed benchmarks; False once every task is settled."""
        still = []
        for t in backlog:
            if _settled(t):
                continue
            if t.bench in bench_failures:
                cancelled.add(t.key)
            elif _ready(t):
                ready.append(t)
            else:
                still.append(t)
        backlog[:] = still
        # Drop ready tasks whose benchmark failed meanwhile.
        for t in ready:
            if t.bench in bench_failures:
                cancelled.add(t.key)
        ready[:] = [t for t in ready if t.bench not in bench_failures]
        return not all(_settled(t) for t in tasks)

    def _stalled() -> ExperimentError:
        # Nothing queued, nothing running, yet unsettled tasks remain:
        # a bookkeeping bug — fail loudly, not hang.
        missing = [t.key for t in tasks if not _settled(t)]
        return ExperimentError(
            f"campaign stalled with unsettled tasks: {missing[:5]}"
        )

    def _drive_inline() -> None:
        # Deps always precede a task, so the lowest-index ready task is
        # the next step of the campaign's nested loops.
        state = _WorkerState(cfg, runner.cluster, runner.pipeline)
        while _promote():
            if not ready:
                raise _stalled()
            task = min(ready, key=lambda t: t.index)
            ready.remove(task)
            _handle(_run_task(state, task, policy, 0))

    def _drive_pool() -> None:
        kills = dict(
            kill_plan or getattr(runner, "_campaign_kill_plan", None) or {}
        )
        hangs = dict(
            hang_plan or getattr(runner, "_campaign_hang_plan", None) or {}
        )
        sup_cfg = getattr(runner, "supervisor", None) or SupervisorConfig()
        supervisor = Supervisor(sup_cfg)
        lost: dict[str, int] = {}
        ctx = _preferred_context()
        spawn_args = (
            cfg, runner.cluster, str(runner.store.root), policy,
            sup_cfg.heartbeat_interval,
        )
        workers = [
            _WorkerHandle(
                ctx, i, spawn_args, kills.pop(i, None), hangs.pop(i, None)
            )
            for i in range(runner.workers)
        ]

        def _respawn(
            handle: _WorkerHandle, why: str = "died"
        ) -> _WorkerHandle:
            if metrics.enabled:
                metrics.counter(
                    "campaign.worker_restarts", "campaign workers respawned"
                ).inc()
            runner._log(f"worker {handle.worker_id} {why}; respawning")
            handle.close_pipe()
            return _WorkerHandle(ctx, handle.worker_id, spawn_args, None)

        def _lose_task(task: CampaignTask, cause: str = "crash") -> None:
            lost[task.key] = lost.get(task.key, 0) + 1
            if lost[task.key] >= policy.max_attempts:
                if cause == "timeout":
                    error_type = "TaskTimeoutError"
                    error = (
                        f"task {task.key} exceeded its supervision deadline "
                        f"{lost[task.key]} time(s); worker cancelled"
                    )
                else:
                    error_type = "WorkerCrashError"
                    error = (
                        f"worker died {lost[task.key]} time(s) while "
                        f"running {task.key}"
                    )
                _handle(
                    {
                        "key": task.key,
                        "kind": task.kind,
                        "status": "failed",
                        "error": error,
                        "error_type": error_type,
                        "attempts": lost[task.key],
                    }
                )
            else:
                ready.insert(0, task)

        try:
            while _promote():
                for handle in workers:
                    if handle.current is None and handle.alive and ready:
                        handle.dispatch(ready.pop(0))
                        supervisor.task_started(
                            handle.worker_id, handle.current.key
                        )
                messages = []
                open_pipes = {h.conn: h for h in workers if h.conn is not None}
                for conn in wait(list(open_pipes), timeout=_POLL_SECONDS):
                    try:
                        messages.append(conn.recv())
                    except (EOFError, OSError):
                        # The worker is gone and its pipe fully read; the
                        # liveness check below respawns it.
                        open_pipes[conn].close_pipe()
                got_result = False
                for payload in messages:
                    if payload.get("hb"):
                        # Heartbeat, not a result: refresh liveness; a
                        # steady beat must never starve hang detection.
                        supervisor.heartbeat(payload["worker"])
                        if metrics.enabled:
                            c = metrics.counter(
                                "supervisor.heartbeats",
                                "worker heartbeats received",
                            )
                            c.inc()
                            c.labels(worker=str(payload["worker"])).inc()
                        continue
                    got_result = True
                    for handle in workers:
                        if (
                            handle.current is not None
                            and handle.current.key == payload["key"]
                        ):
                            handle.current = None
                            supervisor.task_finished(handle.worker_id)
                            break
                    if "t_start" in payload:
                        supervisor.observe_wall(
                            payload["t_end"] - payload["t_start"]
                        )
                    _handle(payload)
                if got_result:
                    continue
                # No task result this round: check for dead workers
                # holding tasks, then for live-but-hung ones.
                for i, handle in enumerate(workers):
                    if handle.alive:
                        continue
                    task = handle.current
                    handle.current = None
                    supervisor.task_finished(handle.worker_id)
                    workers[i] = _respawn(handle)
                    if task is not None and not _settled(task):
                        _lose_task(task)
                for worker_id, key, runtime, reason in supervisor.overdue():
                    i, handle = next(
                        (i, h) for i, h in enumerate(workers)
                        if h.worker_id == worker_id
                    )
                    task = handle.current
                    if task is None or task.key != key:
                        continue  # result arrived between checks
                    if metrics.enabled:
                        c = metrics.counter(
                            "supervisor.timeouts", "hung workers cancelled"
                        )
                        c.inc()
                        c.labels(reason=reason).inc()
                    runner._log(
                        f"worker {worker_id} hung on {key} "
                        f"({reason}, {runtime:.1f}s); cancelling"
                    )
                    spans.append(
                        {
                            "worker": worker_id,
                            "key": key,
                            "kind": task.kind,
                            "t_start": handle.t_dispatch,
                            "t_end": time.time(),
                            "status": "timeout",
                            "reason": reason,
                        }
                    )
                    handle.cancel(sup_cfg.grace_seconds)
                    handle.current = None
                    workers[i] = _respawn(handle, why="hung; cancelled")
                    if not _settled(task):
                        _lose_task(task, cause="timeout")
                if not ready and not backlog and not any(
                    h.current for h in workers
                ):
                    raise _stalled()
        finally:
            for handle in workers:
                handle.shutdown()

    if runner.workers == 1:
        _drive_inline()
    else:
        _drive_pool()
    runner.campaign_spans = spans
    return _assemble(runner, scenarios, payloads, bench_failures)


def write_campaign_timeline(
    spans: list, path: Union[str, os.PathLike]
) -> int:
    """Export per-worker campaign task spans as a Chrome trace (one
    thread lane per worker, Perfetto-loadable); returns the span count.

    Timed-out task spans (``status == "timeout"``) are drawn on pid 2
    — the fault lane, matching the
    :class:`repro.obs.timeline.TimelineRecorder` convention — so hangs
    stand out against the ordinary worker lanes.
    """
    scale = 1e6
    t0 = min((s["t_start"] for s in spans), default=0.0)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "campaign workers"},
        }
    ]
    if any(s["status"] == "timeout" for s in spans):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "tid": 0,
                "args": {"name": "faults"},
            }
        )
    for worker in sorted({s["worker"] for s in spans}):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": worker,
                "args": {"name": f"worker {worker}"},
            }
        )
    for s in spans:
        events.append(
            {
                "name": s["key"],
                "cat": s["kind"],
                "ph": "X",
                "ts": (s["t_start"] - t0) * scale,
                "dur": (s["t_end"] - s["t_start"]) * scale,
                "pid": 2 if s["status"] == "timeout" else 0,
                "tid": s["worker"],
                "args": {
                    "status": s["status"],
                    **(
                        {"reason": s["reason"]}
                        if s.get("reason") is not None else {}
                    ),
                },
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, indent=1)
        fh.write("\n")
    return len(spans)
