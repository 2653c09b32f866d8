"""Max–min fair fluid resource allocator.

This is the shared kernel behind both contention models in the
simulator:

* a **node's CPUs** form a resource of capacity ``ncpus`` (CPU-units);
  every runnable process is a task with per-task cap 1.0 (a process
  cannot use more than one CPU), so e.g. three runnable processes on a
  dual-CPU node each progress at 2/3 CPU — exactly the situation the
  paper engineers with two competing processes per dual-CPU node;
* a **NIC** is a resource of capacity ``bandwidth`` (bytes/s); every
  in-flight message is a task consuming both the sender's TX resource
  and the receiver's RX resource.

Rates are computed with the classic *progressive filling* algorithm:
conceptually, all unfrozen task rates rise together from zero; a task
freezes when it hits its own cap or when one of its resources
saturates (which freezes every unfrozen task on that resource). The
result is the unique max–min fair allocation. Tasks on disjoint
resource sets are independent, so CPU tasks and network flows can live
in one system without interacting.

Between membership changes all rates are constant, so completion times
are analytic — this is what makes the discrete-event simulation cheap:
the event count scales with the number of messages and compute phases,
not with simulated time.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Iterable, Optional

from repro.errors import SimulationError
from repro.obs.metrics import get_metrics

#: Sentinel amount of work for tasks that never finish (competing load).
INFINITE_WORK = math.inf

_EPS = 1e-12
_INF = math.inf


class Resource:
    """A capacity shared max–min fairly by the tasks that use it."""

    __slots__ = ("name", "capacity", "tasks")

    def __init__(self, name: str, capacity: float):
        if capacity < 0:
            raise SimulationError(f"resource {name!r} has negative capacity")
        self.name = name
        self.capacity = float(capacity)
        #: Live tasks currently using this resource.
        self.tasks: set["Task"] = set()

    def set_capacity(self, capacity: float) -> None:
        """Change capacity (used by dynamic throttling scenarios)."""
        if capacity < 0:
            raise SimulationError(f"resource {self.name!r} negative capacity")
        self.capacity = float(capacity)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, cap={self.capacity:g}, n={len(self.tasks)})"


class Task:
    """A unit of fluid work progressing at the allocated fair rate.

    ``work`` is expressed in the resource's units (CPU-seconds for
    compute, bytes for flows). ``cap`` bounds the task's own rate
    irrespective of resource availability. ``speed`` is a multiplier
    applied between allocated rate and progress (used for heterogeneous
    node speeds: the *allocation* is in CPU-units, the *progress* is in
    reference-CPU seconds).
    """

    __slots__ = (
        "name",
        "resources",
        "remaining",
        "cap",
        "speed",
        "rate",
        "on_complete",
        "version",
        "alive",
        "infinite",
        "serial",
    )

    def __init__(
        self,
        name: str,
        resources: Iterable[Resource],
        work: float,
        cap: float = math.inf,
        speed: float = 1.0,
        on_complete: Optional[Callable[["Task", float], None]] = None,
    ):
        if work < 0:
            raise SimulationError(f"task {name!r} has negative work")
        if cap <= 0:
            raise SimulationError(f"task {name!r} has non-positive cap")
        self.name = name
        self.resources = tuple(resources)
        self.remaining = float(work)
        self.cap = float(cap)
        self.speed = float(speed)
        #: Currently allocated rate (resource units per second).
        self.rate = 0.0
        self.on_complete = on_complete
        #: Bumped on every reallocation; used to invalidate stale events.
        self.version = 0
        self.alive = False
        #: Never completes (competing load). Fixed here: progress only
        #: ever subtracts finite work, and ``inf - x == inf``.
        self.infinite = math.isinf(self.remaining)
        #: Admission order into a :class:`FluidSystem` (set by ``add``).
        self.serial = -1

    def eta(self, now: float) -> float:
        """Absolute completion time at the current rate (inf if stalled)."""
        progress = self.rate * self.speed
        if self.infinite or progress <= _EPS:
            return math.inf
        return now + self.remaining / progress

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Task({self.name!r}, rem={self.remaining:g}, rate={self.rate:g})"
        )


class FluidSystem:
    """The set of live resources and tasks plus the fair-share solver.

    The owner (the simulation engine) drives it with::

        system.sync(now)        # account progress since the last sync
        system.add(task) / system.remove(task)
        system.reallocate()     # recompute all rates
        for task in system.finite_tasks(): schedule task.eta(now)

    :meth:`sync` must be called with the current time *before* any
    membership change so work done at the old rates is banked first.
    """

    def __init__(self) -> None:
        self.tasks: set[Task] = set()
        #: Finite tasks with a positive rate — the only ones whose
        #: remaining work changes as time advances.
        self._progressing: set[Task] = set()
        self._last_sync = 0.0
        self._n_added = 0
        metrics = get_metrics()
        self._m_enabled = metrics.enabled
        if self._m_enabled:
            self._m_resettles = metrics.counter(
                "fluid.resettles", "scoped reallocations performed"
            )
            self._m_tasks_resettled = metrics.counter(
                "fluid.tasks_resettled",
                "tasks whose rate was recomputed across all resettles",
            )
            self._m_component_size = metrics.histogram(
                "fluid.component_size",
                "tasks per recomputed component (1-in-32 sampled)",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            )
            # Plain-int tallies: reallocate_scoped runs several times
            # per message, so per-call Counter.inc would dominate the
            # enabled-mode overhead. flush_metrics() moves the totals
            # into the registry once per run.
            self._n_resettles = 0
            self._n_tasks_resettled = 0

    # -- membership ---------------------------------------------------

    def add(self, task: Task) -> None:
        if task.alive:
            raise SimulationError(f"task {task.name!r} added twice")
        task.alive = True
        task.serial = self._n_added
        self._n_added += 1
        self.tasks.add(task)
        for res in task.resources:
            res.tasks.add(task)

    def remove(self, task: Task) -> None:
        if not task.alive:
            raise SimulationError(f"task {task.name!r} not in system")
        task.alive = False
        task.version += 1
        self.tasks.discard(task)
        self._progressing.discard(task)
        for res in task.resources:
            res.tasks.discard(task)

    # -- progress accounting -------------------------------------------

    def sync(self, now: float) -> None:
        """Bank the work done at current rates since the last sync."""
        dt = now - self._last_sync
        if dt > 0:
            for task in self._progressing:
                remaining = task.remaining - task.rate * task.speed * dt
                if remaining < 0:
                    # Numerical dust from float arithmetic.
                    remaining = 0.0
                task.remaining = remaining
            self._last_sync = now
        elif dt < -1e-9:
            raise SimulationError(
                f"time moved backwards: {self._last_sync} -> {now}"
            )

    # -- max-min fair allocation ---------------------------------------

    def reallocate(self) -> None:
        """Recompute every task's rate with progressive filling."""
        self._fill(self.tasks)

    def component(self, seed_resources: Iterable[Resource]) -> set[Task]:
        """All tasks transitively sharing resources with the seeds.

        Tasks outside the component share no resource with it, so their
        max–min fair rates are unaffected by any change inside it; this
        is what makes scoped reallocation exact.
        """
        return self._component(seed_resources)[0]

    def _component(self, seed_resources: Iterable[Resource]) -> tuple[set[Task], int]:
        """The component of ``seed_resources`` and how many distinct
        resources its tasks use."""
        seen = set(seed_resources)
        frontier = list(seen)
        tasks: set[Task] = set()
        n_used = 0
        # The loop also visits resources appended while it runs.
        for res in frontier:
            res_tasks = res.tasks
            if not res_tasks:
                continue
            n_used += 1
            for task in res_tasks:
                if task not in tasks:
                    tasks.add(task)
                    for other in task.resources:
                        if other not in seen:
                            seen.add(other)
                            frontier.append(other)
        return tasks, n_used

    def reallocate_scoped(self, dirty_resources: Iterable[Resource]) -> set[Task]:
        """Recompute rates only for the affected component(s).

        Returns the set of tasks whose rates were recomputed (callers
        reschedule completion events for exactly those).

        The component is filled as one instance, exactly as
        :meth:`_fill` would fill it, but its common shapes skip the
        general solver: an empty component needs nothing, a lone task
        on distinct resources has a closed form, and tasks that all use
        one resource fill from scalars. Each shortcut performs the same
        float operations in the same order as :meth:`_fill`, so rates
        are bit-identical.
        """
        affected, n_used = self._component(dirty_resources)
        if affected:
            for task in affected:  # any member
                break
            if len(affected) == 1 and len(task.resources) == n_used:
                self._fill_single(task)
            elif n_used == 1:
                self._fill_one_resource(task.resources[0], affected)
            else:
                self._fill(affected)
        if self._m_enabled:
            self._n_resettles += 1
            self._n_tasks_resettled += len(affected)
            # Sampling the size distribution keeps the enabled
            # overhead in budget.
            if not self._n_resettles & 31:
                self._m_component_size.observe(len(affected))
        return affected

    def flush_metrics(self) -> None:
        """Move accumulated tallies into the registry (end of run)."""
        if self._m_enabled and self._n_resettles:
            self._m_resettles.inc(self._n_resettles)
            self._m_tasks_resettled.inc(self._n_tasks_resettled)
            self._n_resettles = 0
            self._n_tasks_resettled = 0

    def _fill(self, tasks: Collection[Task]) -> None:
        """Progressive filling over ``tasks`` (a resource-closed set).

        The general solver, and the reference the scoped shortcuts are
        tested against bit for bit.
        """
        progressing = self._progressing
        for task in tasks:
            task.rate = 0.0
            task.version += 1
            progressing.discard(task)
        if not tasks:
            return

        unfrozen = set(tasks)
        avail: dict[Resource, float] = {}
        # Unfrozen user count per resource.
        users: dict[Resource, int] = {}
        # Remaining capacity at or below this counts as saturated.
        floor: dict[Resource, float] = {}
        for task in tasks:
            for res in task.resources:
                if res in users:
                    users[res] += 1
                else:
                    avail[res] = res.capacity
                    users[res] = 1
                    floor[res] = _EPS * max(1.0, res.capacity)

        level = 0.0
        # Each iteration freezes at least one task, so this terminates.
        while unfrozen:
            # Largest uniform increment before a resource saturates...
            delta = _INF
            for res, n in users.items():
                if n > 0:
                    d = avail[res] / n
                    if d < delta:
                        delta = d
            # ... or a task reaches its cap.
            for task in unfrozen:
                d = task.cap - level
                if d < delta:
                    delta = d
            if delta is _INF:
                # No constraints at all (tasks with no resources).
                for task in unfrozen:
                    task.rate = task.cap
                break
            if delta < 0.0:
                delta = 0.0
            level += delta
            for res, n in users.items():
                if n > 0:
                    avail[res] -= delta * n

            newly_frozen = []
            for task in unfrozen:
                if task.cap - level <= _EPS:
                    newly_frozen.append(task)
                    continue
                for res in task.resources:
                    if avail[res] <= floor[res]:
                        newly_frozen.append(task)
                        break
            if not newly_frozen:
                # Defensive: avoid an infinite loop on numerical edge
                # cases by freezing everything at the current level.
                newly_frozen = list(unfrozen)
            for task in newly_frozen:
                task.rate = level
                unfrozen.discard(task)
                for res in task.resources:
                    users[res] -= 1

        for task in tasks:
            if task.rate > 0 and not task.infinite:
                progressing.add(task)

    def _fill_single(self, task: Task) -> None:
        """:meth:`_fill` of a lone task whose resources are distinct and
        hold no other task: one filling step, whose level is the least
        of the capacities and the task's own cap."""
        task.version += 1
        delta = _INF
        for res in task.resources:
            if res.capacity < delta:
                delta = res.capacity
        if task.cap < delta:
            delta = task.cap
        if delta is _INF:
            rate = task.cap
        else:
            if delta < 0.0:
                delta = 0.0
            rate = 0.0 + delta
        task.rate = rate
        if rate > 0 and not task.infinite:
            self._progressing.add(task)
        else:
            self._progressing.discard(task)

    def _fill_one_resource(self, res: Resource, tasks: Collection[Task]) -> None:
        """:meth:`_fill` of tasks that use ``res`` and nothing else, with
        the ``avail``/``users`` dicts reduced to scalars. A task may list
        ``res`` more than once; each listing counts as one user."""
        progressing = self._progressing
        users = 0
        for task in tasks:
            task.version += 1
            progressing.discard(task)
            users += len(task.resources)
        avail = res.capacity
        floor = _EPS * max(1.0, res.capacity)
        unfrozen = list(tasks)
        level = 0.0
        while unfrozen:
            delta = _INF
            d = avail / users
            if d < delta:
                delta = d
            for task in unfrozen:
                d = task.cap - level
                if d < delta:
                    delta = d
            if delta is _INF:
                for task in unfrozen:
                    task.rate = task.cap
                break
            if delta < 0.0:
                delta = 0.0
            level += delta
            avail -= delta * users
            if avail <= floor:
                # The resource saturated: every unfrozen task freezes.
                for task in unfrozen:
                    task.rate = level
                break
            still = []
            for task in unfrozen:
                if task.cap - level <= _EPS:
                    task.rate = level
                    users -= len(task.resources)
                else:
                    still.append(task)
            if len(still) == len(unfrozen):
                # Defensive, as in _fill.
                for task in still:
                    task.rate = level
                break
            unfrozen = still
        for task in tasks:
            if task.rate > 0 and not task.infinite:
                progressing.add(task)

    # -- queries --------------------------------------------------------

    def finite_tasks(self) -> list[Task]:
        """Tasks that will complete (for event scheduling)."""
        return [t for t in self.tasks if not t.infinite]

    @property
    def now(self) -> float:
        return self._last_sync
