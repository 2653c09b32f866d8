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

The pool driver runs tasks on a
:class:`~repro.parallel.pool.SupervisedPool` (the pool cold serving
uses too), which adds crash isolation:

* workers share nothing but the on-disk artifact store
  (:mod:`repro.store`): every task's inputs are re-derived from the
  pickled campaign config or fetched from the store by content
  address, so tasks can run on any worker in any order;
* the parent is the only journal writer — workers report payloads
  over their own pipes;
* a worker that dies (killed, OOM, crashed) or *hangs* (alive but
  stuck, caught by the pool's heartbeats and deadlines; see
  :class:`~repro.parallel.supervisor.Supervisor` and
  ``--task-timeout``) is respawned by the pool, which fails the task's
  future. The driver owns the retry policy: it re-queues the lost task
  at the front of the ready list, up to ``RetryPolicy.max_attempts``
  losses, then fails the benchmark with
  :class:`~repro.errors.WorkerCrashError` or
  :class:`~repro.errors.TaskTimeoutError`
  (``campaign.worker_restarts`` counts the losses).

Per-task spans (which worker ran what, when; serial runs use worker
lane 0) are collected into ``runner.campaign_spans`` and exported by
:func:`write_campaign_timeline` as a Chrome trace with one lane per
worker — the campaign-level sibling of
:class:`repro.obs.timeline.TimelineRecorder`.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Optional, Union

from repro.cluster.contention import DEDICATED
from repro.core.construct import build_skeleton
from repro.errors import (
    ExperimentError,
    SkeletonQualityWarning,
    TaskTimeoutError,
    TraceError,
    WorkerCrashError,
)
from repro.experiments.journal import CampaignJournal
from repro.faults.resilience import resilient_call
from repro.obs.metrics import get_metrics
from repro.parallel.pool import SupervisedPool
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


def _pool_state(worker_id, config, cluster, cache_dir, policy):
    """A pool worker's state: its caches over the shared store."""
    state = _WorkerState(
        config, cluster, PipelineCache(ArtifactStore(cache_dir), cluster)
    )
    return state, policy, worker_id


def _pool_task(worker_state, task: CampaignTask) -> dict:
    state, policy, worker_id = worker_state
    return _run_task(state, task, policy, worker_id)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


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


def run_campaign(runner):
    """Execute ``runner``'s campaign: inline when ``runner.workers`` is
    1, else on that many worker processes.

    Called by :meth:`ExperimentRunner.run` (which owns the journal
    lifecycle and the results artifact). Test hooks for the pool
    driver: ``runner._campaign_kill_plan`` (``{worker_id: n}``)
    SIGKILLs that worker on its n-th task and
    ``runner._campaign_hang_plan`` (``{worker_id: (n, seconds)}``)
    stalls it, each on the worker's first incarnation only (see
    :class:`~repro.parallel.pool.SupervisedPool`).
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
        lost: dict[str, int] = {}
        inflight: dict[Future, CampaignTask] = {}

        def _lose_task(task: CampaignTask, exc: Exception) -> None:
            """The pool respawned the worker that held ``task``:
            re-queue the task at the front, up to ``max_attempts``
            losses, then fail its benchmark."""
            if metrics.enabled:
                metrics.counter(
                    "campaign.worker_restarts", "campaign workers respawned"
                ).inc()
            if isinstance(exc, TaskTimeoutError):
                spans.append(
                    {
                        "worker": exc.worker_id,
                        "key": task.key,
                        "kind": task.kind,
                        "t_start": exc.started,
                        "t_end": time.time(),
                        "status": "timeout",
                        "reason": exc.reason,
                    }
                )
            runner._log(f"task {task.key} lost: {exc}; worker respawned")
            lost[task.key] = lost.get(task.key, 0) + 1
            if lost[task.key] < policy.max_attempts:
                ready.insert(0, task)
                return
            _handle(
                {
                    "key": task.key,
                    "kind": task.kind,
                    "status": "failed",
                    "error": f"task lost {lost[task.key]} time(s): {exc}",
                    "error_type": type(exc).__name__,
                    "attempts": lost[task.key],
                }
            )

        pool = SupervisedPool(
            _pool_state,
            _pool_task,
            (cfg, runner.cluster, str(runner.store.root), policy),
            workers=runner.workers,
            supervisor=runner.supervisor,
            kill_plan=getattr(runner, "_campaign_kill_plan", None),
            hang_plan=getattr(runner, "_campaign_hang_plan", None),
        )
        try:
            while _promote():
                # Submit only to free workers, so tasks leave ``ready``
                # in its order.
                while ready and len(inflight) < runner.workers:
                    task = ready.pop(0)
                    inflight[pool.submit(task)] = task
                if not inflight:
                    raise _stalled()
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=lambda f: inflight[f].index):
                    task = inflight.pop(fut)
                    try:
                        payload = fut.result()
                    except (TaskTimeoutError, WorkerCrashError) as exc:
                        _lose_task(task, exc)
                    else:
                        _handle(payload)
        finally:
            pool.close()

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
