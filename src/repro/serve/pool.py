"""Process pool for cold predictions, supervised against hangs.

Cold requests run real simulations; running them in the serving
process would couple request latency to simulation time and let one
pathological run (an NFS stall inside the store, a runaway workload)
wedge the whole service. :class:`WorkerPool` runs them on the same
:class:`~repro.parallel.pool.SupervisedPool` that campaigns use —
per-worker dispatch, heartbeats, deadline and stall supervision,
SIGTERM→SIGKILL cancel and respawn — and supplies
:func:`repro.predict.online.compute_prediction`, under
:func:`~repro.faults.resilience.resilient_call`, as the task function.
A lost task fails its request; serving does not re-run it.

Workers write into the same artifact store as the parent (atomic
writes make concurrent producers benign), so a cold computation warms
the cache for every later request.

Tests monkeypatch :func:`repro.predict.online.compute_prediction`
*before* constructing the pool: workers are forked, so they inherit
the patched module attribute — that is how the hung-worker paths are
exercised without a genuinely slow simulation.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ServeError
from repro.faults.resilience import RetryPolicy, resilient_call
from repro.obs.log import get_logger
from repro.parallel.pool import SupervisedPool
from repro.parallel.supervisor import SupervisorConfig

__all__ = ["WorkerPool"]


def _worker_state(worker_id: int, cache_dir: Optional[str], retry_policy):
    from repro.cluster.topology import paper_testbed
    from repro.store.memo import PipelineCache
    from repro.store.store import ArtifactStore

    cluster = paper_testbed()
    return PipelineCache(ArtifactStore(cache_dir), cluster), cluster, retry_policy


def _predict(state, params: dict) -> dict:
    from repro.predict import online

    cache, cluster, retry_policy = state
    # Resolved through the module so a patch installed in the parent
    # before fork takes effect here too.
    value, _ = resilient_call(
        lambda: online.compute_prediction(params, cache, cluster),
        retry_policy,
    )
    return value


class WorkerPool:
    """Forked prediction workers with supervision and respawn.

    :meth:`submit` blocks until the prediction payload is back (the
    service calls it from its executor threads), raising
    :class:`~repro.errors.RemoteComputeError`,
    :class:`~repro.errors.TaskTimeoutError`, or
    :class:`~repro.errors.WorkerCrashError` on the corresponding
    failure.
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
        self._pool = SupervisedPool(
            _worker_state,
            _predict,
            (cache_dir, retry_policy or RetryPolicy()),
            workers=workers,
            supervisor=supervisor or SupervisorConfig(task_timeout=120.0),
            log=get_logger("serve.pool"),
        )
        self.supervisor = self._pool.supervisor

    def submit(self, params: dict, ctx: Optional[dict] = None) -> dict:
        """Run one normalized request in a worker; block for the result.

        ``ctx`` is an optional trace-context dict (the service passes
        its span's); the worker parents its ``worker.compute`` span to
        it, joining the trace across the fork boundary.
        """
        return self._pool.submit(dict(params), ctx).result()

    def stats(self) -> dict:
        return self._pool.stats()

    def close(self) -> None:
        self._pool.close()
