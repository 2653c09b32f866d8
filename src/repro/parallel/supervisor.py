"""Hang detection for supervised pool workers.

The pool (:mod:`repro.parallel.pool`) already survives workers that
*die* — the parent reads the dead worker's pipe EOF and fails its
task. This module covers the nastier failure: a worker that is alive
but stuck (an NFS stall inside the store, a runaway simulation, a
kernel-frozen process), which would otherwise block a campaign or a
cold request forever.

Two complementary signals, both cheap:

* **Soft deadlines.** Every completed task feeds its wall time into a
  running sample; once :attr:`SupervisorConfig.min_samples` tasks have
  finished, a task is presumed hung after
  ``max(soft_factor × p95, max_wall_factor × max)`` of the completed
  walls (clamped to ``[soft_floor, soft_ceiling]``). The max-wall
  guard matters because campaign walls are heavy-tailed and
  multimodal (sub-second class-S runs next to 20 s class-B traces):
  a p95 dominated by the fast family would under-budget the slow one
  and kill healthy tasks — and only *healthy* tasks ever complete, so
  the largest completed wall is exactly the right scale for "how slow
  can healthy be". A hard :attr:`~SupervisorConfig.task_timeout` (the
  CLI's ``--task-timeout``) caps the deadline independently of the
  sample — and is the only deadline before the sample warms up.
* **Heartbeats.** Each worker runs a daemon thread that pushes a
  monotonic heartbeat through its result pipe every
  :attr:`~SupervisorConfig.heartbeat_interval` seconds. The daemon
  survives a hung *main* thread, so silence means the whole process is
  frozen (SIGSTOP, D-state) — detected after
  ``heartbeat_interval × heartbeat_timeout_factor`` seconds as a
  ``"heartbeat-stall"``.

The pool's collector polls :meth:`Supervisor.overdue` and cancels
offenders with SIGTERM→SIGKILL escalation, failing the task with
:class:`~repro.errors.TaskTimeoutError`. A campaign re-queues it under
its :class:`~repro.faults.resilience.RetryPolicy` and, on exhaustion,
records a structured failure — exactly like a worker crash, so the
serial↔parallel byte-identical journaling invariant is untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Supervisor", "SupervisorConfig"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning for pool-worker hang detection.

    ``task_timeout`` is the hard per-task wall-clock cap (None: no hard
    cap — only the adaptive soft deadline applies, once warmed up).
    The soft deadline is ``max(soft_factor × p95, max_wall_factor ×
    max)`` of completed task walls, clamped to ``[soft_floor,
    soft_ceiling]``, and engages only after ``min_samples``
    completions. Defaults are deliberately generous: a false kill
    costs a full re-run (and, repeated, could exhaust the retry
    budget), while late detection of a real hang only costs idle
    time. ``heartbeat_interval <= 0`` disables heartbeats (and stall
    detection) entirely.
    """

    task_timeout: Optional[float] = None
    soft_factor: float = 8.0
    soft_floor: float = 10.0
    soft_ceiling: float = 600.0
    max_wall_factor: float = 3.0
    min_samples: int = 5
    grace_seconds: float = 5.0
    heartbeat_interval: float = 1.0
    heartbeat_timeout_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 when set")
        if self.soft_factor <= 0:
            raise ValueError("soft_factor must be > 0")
        if not 0 < self.soft_floor <= self.soft_ceiling:
            raise ValueError("need 0 < soft_floor <= soft_ceiling")
        if self.max_wall_factor <= 1:
            raise ValueError("max_wall_factor must be > 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.grace_seconds < 0:
            raise ValueError("grace_seconds must be >= 0")
        if self.heartbeat_timeout_factor <= 1:
            raise ValueError("heartbeat_timeout_factor must be > 1")

    @property
    def stall_seconds(self) -> Optional[float]:
        """Silence threshold for heartbeat-stall detection (None: off)."""
        if self.heartbeat_interval <= 0:
            return None
        return self.heartbeat_interval * self.heartbeat_timeout_factor


class Supervisor:
    """Parent-side tracker deciding when a worker's task is overdue.

    Pure bookkeeping over an injectable monotonic ``clock`` — no
    processes, signals, or queues — so deadline policy is unit-testable
    without spawning anything. The pool owns the enforcement (cancel,
    respawn); its caller owns any re-queue.
    """

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or SupervisorConfig()
        self._clock = clock
        self._walls: list[float] = []
        #: worker id -> (task key, start clock)
        self._tasks: dict[int, tuple[str, float]] = {}
        self._last_beat: dict[int, float] = {}
        self.n_heartbeats = 0
        self.n_timeouts = 0

    # -- sample ----------------------------------------------------------

    def observe_wall(self, seconds: float) -> None:
        """Feed one completed task's wall time into the p95 sample."""
        if seconds >= 0 and math.isfinite(seconds):
            self._walls.append(seconds)

    def p95(self) -> Optional[float]:
        if not self._walls:
            return None
        ordered = sorted(self._walls)
        return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]

    def soft_deadline(self) -> Optional[float]:
        """Adaptive deadline, or None until the sample warms up.

        ``max(soft_factor × p95, max_wall_factor × max)``: the p95 term
        tracks the typical task, the max term keeps a fast-task-heavy
        sample from under-budgeting a legitimately slow family (class-B
        traces among sub-second class-S runs).
        """
        if len(self._walls) < self.config.min_samples:
            return None
        soft = max(
            self.config.soft_factor * self.p95(),
            self.config.max_wall_factor * max(self._walls),
        )
        return min(max(soft, self.config.soft_floor), self.config.soft_ceiling)

    def deadline(self) -> Optional[float]:
        """Effective per-task deadline: min(soft, hard); None if neither
        is in force yet."""
        soft = self.soft_deadline()
        hard = self.config.task_timeout
        if soft is None:
            return hard
        if hard is None:
            return soft
        return min(soft, hard)

    # -- task lifecycle --------------------------------------------------

    def task_started(self, worker_id: int, key: str) -> None:
        now = self._clock()
        self._tasks[worker_id] = (key, now)
        # A fresh dispatch resets the silence window, so a worker is
        # never stalled-on-arrival.
        self._last_beat[worker_id] = now

    def task_finished(self, worker_id: int) -> None:
        self._tasks.pop(worker_id, None)

    def heartbeat(self, worker_id: int) -> None:
        self._last_beat[worker_id] = self._clock()
        self.n_heartbeats += 1

    # -- verdicts --------------------------------------------------------

    def overdue(self) -> list[tuple[int, str, float, str]]:
        """Workers presumed hung: ``(worker_id, key, runtime, reason)``
        with reason ``"deadline"`` or ``"heartbeat-stall"``."""
        now = self._clock()
        deadline = self.deadline()
        stall = self.config.stall_seconds
        out: list[tuple[int, str, float, str]] = []
        for worker_id, (key, t0) in self._tasks.items():
            runtime = now - t0
            if deadline is not None and runtime > deadline:
                out.append((worker_id, key, runtime, "deadline"))
            elif stall is not None and now - self._last_beat[worker_id] > stall:
                out.append((worker_id, key, runtime, "heartbeat-stall"))
        for worker_id, *_ in out:
            self.n_timeouts += 1
            self._tasks.pop(worker_id, None)
        return out
