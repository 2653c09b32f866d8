"""The discrete-event engine that executes simulated MPI programs.

Each rank is a stack of generators (the program, plus any collective
decomposition it is currently inside). The engine steps ready ranks,
dispatches the operations they yield, and advances simulated time by
popping fluid-task completions and timers off an event heap.

Timing model
------------

* ``Compute(w)`` — a fluid task of ``w`` reference-CPU-seconds on the
  node's CPU resource; all runnable processes on the node (app ranks in
  a compute phase + competing load) share the CPUs max–min fairly, each
  capped at one CPU.
* point-to-point — a message is a fluid flow through the sender's TX
  NIC and receiver's RX NIC; delivery at ``flow end + latency``. Eager
  messages (≤ threshold) start flowing at send time and cost the sender
  only a local copy (``send_overhead + bytes/memory_bandwidth``);
  rendezvous messages start when both sides have posted (+ handshake
  latencies) and block the sender until delivery.
* intra-node messages cost ``intra_node_latency + bytes/memory_bandwidth``
  and do not touch the NICs.
* collectives — expanded into point-to-point decompositions
  (:mod:`repro.sim.collectives`), but traced as single calls.

The engine is deterministic: heap ties break on insertion order and no
wall-clock state leaks in.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import DeadlockError, ProgramError, SimulationError
from repro.obs.metrics import get_metrics
from repro.cluster.contention import DEDICATED, Scenario
from repro.cluster.topology import Cluster
from repro.sim import collectives as coll
from repro.sim.fluid import _EPS as _STALLED
from repro.sim.fluid import INFINITE_WORK, FluidSystem, Resource, Task
from repro.sim.matching import Mailbox, Message
from repro.sim.ops import (
    CollectiveOp,
    Compute,
    Irecv,
    Isend,
    Op,
    Recv,
    RequestHandle,
    Send,
    Sendrecv,
    Wait,
    Waitall,
    call_name,
)

# Event kinds. Background events (load/traffic modulation) re-arm
# themselves forever, so they are excluded from deadlock detection.
_EV_TASK = 0
_EV_TIMER = 1
_EV_BG = 2

# Process states.
_READY = 0
_BLOCKED = 1
_DONE = 2

_BLOCK = object()  # dispatch sentinel: the process must block

_admission_order = attrgetter("serial")


class EngineHook:
    """Observer interface; the tracer and the timeline recorder
    implement this. Every method is a no-op by default, so observers
    override only what they need.

    Contract (see also ``docs/API.md``):

    * ``on_run_start(nranks, t)`` fires once per :meth:`Engine.run`,
      before any rank executes, with the rank count and the start time
      (always 0.0).
    * ``on_call`` fires once per completed *user-level* MPI call with
      its simulated start and end times (non-blocking calls have zero
      duration; their completion is visible through the matching
      ``MPI_Wait``). Compute phases are not calls — like the paper's
      profiling library, observers infer compute from inter-call gaps.
      Per rank, calls are reported in order with non-decreasing times.
    * ``on_message`` fires at each point-to-point delivery with the
      envelope and the send/delivery times. Only dispatched when the
      hook class overrides it — the engine never pays for unobserved
      messages.
    * ``on_edge`` fires at each point-to-point delivery (including the
      internal messages of collective decompositions) with the full
      dependency edge: envelope, send time, the time the matching
      receive was posted (NaN when the message was delivered before a
      receive existed), delivery time, and the protocol used. These
      edges are the engine's event dependency DAG, consumed by
      :mod:`repro.diagnose` for wait-state classification and
      critical-path extraction. Like ``on_message``, only dispatched
      when overridden.
    * ``on_sample`` fires every ``sample_period`` simulated seconds
      with ``{resource name: utilization fraction}`` from the fluid
      model (CPUs, NICs, WAN links). Sampling is off while
      ``sample_period`` is 0. Samples piggyback on background events
      and never alter run timing or the reported event count.
    * ``on_fault(kind, target, t_start, t_end, detail)`` fires when a
      fault-plan event is applied (see :mod:`repro.faults`): window
      events fire once at window start with the full window extent,
      message drops fire per delayed message.
    * ``on_run_end(finish_times)`` fires once after the last rank
      finishes.

    Hooks must treat everything they receive as read-only: the engine
    is deterministic, and a hook that mutates engine state voids that
    guarantee.
    """

    #: Simulated-seconds period for ``on_sample``; 0 disables sampling.
    sample_period: float = 0.0

    def on_run_start(self, nranks: int, t: float) -> None:
        pass

    def on_call(
        self, rank: int, name: str, params: dict, t_start: float, t_end: float
    ) -> None:
        pass

    def on_message(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: int,
        t_sent: float,
        t_delivered: float,
    ) -> None:
        pass

    def on_edge(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: int,
        t_sent: float,
        t_recv_posted: float,
        t_delivered: float,
        eager: bool,
    ) -> None:
        pass

    def on_sample(self, t: float, utilization: dict) -> None:
        pass

    def on_fault(
        self, kind: str, target: str, t_start: float, t_end: float, detail: dict
    ) -> None:
        pass

    def on_run_end(self, finish_times: Sequence[float]) -> None:
        pass


@dataclass
class SimConfig:
    """Engine knobs independent of the cluster description."""

    #: Safety valve: abort after this many engine events.
    max_events: int = 500_000_000
    #: Rank -> node index placement; default is round-robin.
    placement: Optional[Sequence[int]] = None
    #: Seed for the run's environment randomness (load bursts, traffic
    #: fluctuation). Two runs with the same seed are identical.
    seed: int = 0


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run."""

    program_name: str
    scenario_name: str
    nranks: int
    finish_times: tuple[float, ...]
    elapsed: float
    n_messages: int
    n_events: int

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"RunResult({self.program_name} under {self.scenario_name}: "
            f"{self.elapsed:.6f}s, {self.n_messages} msgs)"
        )


class _Proc:
    """Execution state of one simulated rank."""

    __slots__ = (
        "rank",
        "node",
        "stack",
        "state",
        "wait_count",
        "pending_call",
        "coll_seqs",
        "finish_time",
        "blocked_on",
        "compute_task",
        "speed_factor",
        "on_compute_done",
    )

    def __init__(self, rank: int, node: int, gen: Iterator[Op]):
        self.rank = rank
        self.node = node
        # Stack frames: (generator, call_record-or-None); a call record
        # is (name, params, t_start) emitted when the frame pops.
        self.stack: list[tuple[Iterator[Op], Optional[tuple]]] = [(gen, None)]
        self.state = _READY
        self.wait_count = 0
        self.pending_call: Optional[tuple] = None
        # Per-communicator collective sequence numbers (None = world);
        # members of a communicator agree on these because MPI requires
        # them to issue its collectives in the same order.
        self.coll_seqs: dict = {}
        self.finish_time = math.nan
        # The op the rank is currently blocked in (deadlock diagnostics
        # only; formatted lazily when a deadlock is actually reported).
        self.blocked_on: Optional[Op] = None
        # Live Compute task + fault speed multiplier (rank stalls).
        self.compute_task: Optional[Task] = None
        self.speed_factor = 1.0
        # Completion callback of the rank's compute tasks (set by the
        # engine once per run, not once per Compute op).
        self.on_compute_done: Optional[Callable[[Task, float], None]] = None


def _describe_request(req: RequestHandle) -> str:
    return f"{req.kind} peer={req.peer} tag={req.tag} bytes={req.nbytes}"


def _describe_blocked(proc: _Proc) -> str:
    """Human-readable description of what a blocked rank is waiting on
    (deadlock diagnostics; called only when a deadlock is reported)."""
    op = proc.blocked_on
    if op is None:
        desc = "unknown"
    elif type(op) is Compute:
        desc = f"Compute({op.seconds:g}s)"
    elif type(op) is Send:
        desc = f"Send(dest={op.dest}, tag={op.tag}, bytes={op.nbytes})"
    elif type(op) is Recv:
        desc = f"Recv(source={op.source}, tag={op.tag})"
    elif type(op) is Sendrecv:
        desc = (
            f"Sendrecv(dest={op.dest}, send_tag={op.send_tag}, "
            f"source={op.source}, recv_tag={op.recv_tag})"
        )
    elif type(op) is Wait:
        desc = f"Wait({_describe_request(op.request)})"
    elif type(op) is Waitall:
        pending = [r for r in op.requests if not r.done]
        first = f"; first: {_describe_request(pending[0])}" if pending else ""
        desc = f"Waitall({len(pending)}/{len(op.requests)} pending{first})"
    else:  # pragma: no cover - future op kinds
        desc = type(op).__name__
    # Name the enclosing collective when the rank is blocked inside a
    # collective decomposition.
    for _, record in reversed(proc.stack[1:]):
        if record is not None:
            return f"{record[0]} -> {desc}"
    if len(proc.stack) > 1:
        return f"collective -> {desc}"
    return desc


class Engine:
    """Executes one program per :meth:`run` call on a cluster+scenario."""

    def __init__(
        self,
        cluster: Cluster,
        scenario: Scenario = DEDICATED,
        hook: Optional[EngineHook] = None,
        config: Optional[SimConfig] = None,
    ):
        scenario.validate_against(cluster)
        self.cluster = cluster
        self.scenario = scenario
        self.hook = hook
        self.config = config or SimConfig()
        self._net = cluster.network
        # Dispatch flags resolved once: the engine only pays for hook
        # features the hook's class actually overrides / enables.
        self._emit_messages = (
            hook is not None
            and type(hook).on_message is not EngineHook.on_message
        )
        self._emit_edges = (
            hook is not None
            and type(hook).on_edge is not EngineHook.on_edge
        )
        self._sample_period = (
            float(getattr(hook, "sample_period", 0.0)) if hook is not None else 0.0
        )

        # Mutable per-run state, initialised in run().
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._ready: deque = deque()
        self._fluid = FluidSystem()
        self._fluid_dirty: set = set()
        self._procs: list[_Proc] = []
        self._mailboxes: list[Mailbox] = []
        self._cpu_res: list[Resource] = []
        self._tx_res: list[Resource] = []
        self._rx_res: list[Resource] = []
        self._wan_up: list[Resource] = []
        self._wan_down: list[Resource] = []
        self._ndone = 0
        self._n_messages = 0
        self._n_events = 0
        self._fg_in_heap = 0
        # Fault-injection runtime (None unless the scenario carries a
        # non-empty fault plan; see repro.faults).
        self._injector = None
        self._check_drops = False
        self._cpu_base_cap: list[float] = []
        self._nic_base_cap: list[float] = []
        self._fault_nic_scale: dict[int, float] = {}

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _build_resources(self) -> None:
        cluster, scenario = self.cluster, self.scenario
        self._cpu_res = []
        self._tx_res = []
        self._rx_res = []
        self._cpu_base_cap = []
        self._nic_base_cap = []
        self._fault_nic_scale = {}
        for i, node in enumerate(cluster.nodes):
            self._cpu_res.append(Resource(f"cpu[{node.name}]", float(node.ncpus)))
            self._cpu_base_cap.append(float(node.ncpus))
            nic_cap = scenario.nic_caps.get(i, self._net.bandwidth)
            self._nic_base_cap.append(nic_cap)
            self._tx_res.append(Resource(f"tx[{node.name}]", nic_cap))
            self._rx_res.append(Resource(f"rx[{node.name}]", nic_cap))
        # WAN uplinks: one per site and direction, shared by all of the
        # site's cross-site flows (multi-site clusters only).
        self._wan_up = []
        self._wan_down = []
        if cluster.nsites > 1:
            for s in range(cluster.nsites):
                self._wan_up.append(
                    Resource(f"wan-up[{s}]", self._net.wan_bandwidth)
                )
                self._wan_down.append(
                    Resource(f"wan-down[{s}]", self._net.wan_bandwidth)
                )
        # Competing load: infinite-work CPU tasks. With a load model
        # they burst and pause; otherwise they run steadily forever.
        for node_idx, count in scenario.competing.items():
            for k in range(count):
                if scenario.load_model is not None:
                    self._start_load_process(node_idx, k)
                else:
                    task = Task(
                        name=f"load[{node_idx}.{k}]",
                        resources=(self._cpu_res[node_idx],),
                        work=INFINITE_WORK,
                        cap=1.0,
                    )
                    self._fluid.add(task)
                    self._fluid_dirty.update(task.resources)
        # Fluctuating available bandwidth on throttled links.
        if scenario.traffic_model is not None:
            for node_idx, base_cap in scenario.nic_caps.items():
                self._start_traffic_modulation(node_idx, base_cap)

    def _start_load_process(self, node_idx: int, k: int) -> None:
        """One bursty competing process: busy/idle cycles from a seeded
        stream (see :class:`repro.cluster.contention.LoadModel`)."""
        from repro.util.rng import make_rng

        model = self.scenario.load_model
        rng = make_rng(self.config.seed, "load", node_idx, k)
        cpu = self._cpu_res[node_idx]

        def go_busy(t: float) -> None:
            task = Task(
                name=f"load[{node_idx}.{k}]",
                resources=(cpu,),
                work=INFINITE_WORK,
                cap=1.0,
            )
            self._fluid_add(task)
            busy = rng.uniform(*model.busy_range)
            self._push_bg_timer(t + busy, lambda tt, tk=task: go_idle(tt, tk))

        def go_idle(t: float, task: Task) -> None:
            self._fluid_remove(task)
            idle = rng.uniform(*model.idle_range)
            if idle <= 0:
                go_busy(t)
            else:
                self._push_bg_timer(t + idle, go_busy)

        # Start each process at a random point of its busy/idle cycle
        # so t=0 is not special and even short windows sample the
        # process state distribution.
        mean_busy = 0.5 * (model.busy_range[0] + model.busy_range[1])
        mean_idle = 0.5 * (model.idle_range[0] + model.idle_range[1])
        duty = mean_busy / max(1e-12, mean_busy + mean_idle)
        if rng.random() < duty:
            task = Task(
                name=f"load[{node_idx}.{k}]",
                resources=(cpu,),
                work=INFINITE_WORK,
                cap=1.0,
            )
            self._fluid.add(task)
            self._fluid_dirty.update(task.resources)
            remaining = rng.uniform(0.0, model.busy_range[1])
            self._push_bg_timer(remaining, lambda tt, tk=task: go_idle(tt, tk))
        else:
            self._push_bg_timer(
                rng.uniform(0.0, max(1e-9, model.idle_range[1])), go_busy
            )

    def _start_traffic_modulation(self, node_idx: int, base_cap: float) -> None:
        """Resample a throttled NIC's available bandwidth periodically
        (see :class:`repro.cluster.contention.TrafficModel`)."""
        from repro.util.rng import make_rng

        model = self.scenario.traffic_model
        rng = make_rng(self.config.seed, "traffic", node_idx)
        tx, rx = self._tx_res[node_idx], self._rx_res[node_idx]

        def tick(t: float) -> None:
            factor = 1.0 + model.swing * (2.0 * rng.random() - 1.0)
            cap = base_cap * factor
            # Fault windows (LinkDegrade) scale whatever the traffic
            # model currently allows; remember the pre-fault cap so
            # window edges can recompute from it.
            self._nic_base_cap[node_idx] = cap
            cap *= self._fault_nic_scale.get(node_idx, 1.0)
            self._fluid.sync(self.now)
            tx.set_capacity(cap)
            rx.set_capacity(cap)
            self._fluid_dirty.add(tx)
            self._fluid_dirty.add(rx)
            self._push_bg_timer(t + rng.uniform(*model.period_range), tick)

        self._push_bg_timer(rng.uniform(*model.period_range), tick)

    def _start_sampler(self) -> None:
        """Arm the hook's utilization sampling (background events, so
        the run's timing and foreground event count are unaffected)."""
        period = self._sample_period

        def tick(t: float) -> None:
            self.hook.on_sample(t, self._utilization_snapshot())
            self._push_bg_timer(t + period, tick)

        self._push_bg_timer(period, tick)

    def _utilization_snapshot(self) -> dict:
        """Fraction of each resource's capacity currently allocated."""
        util: dict = {}
        for group in (
            self._cpu_res,
            self._tx_res,
            self._rx_res,
            self._wan_up,
            self._wan_down,
        ):
            for res in group:
                if res.capacity <= 0:
                    continue
                used = sum(task.rate for task in res.tasks)
                util[res.name] = used / res.capacity
        return util

    def _placement(self, nranks: int) -> list[int]:
        if self.config.placement is not None:
            placement = list(self.config.placement)
            if len(placement) != nranks:
                raise SimulationError(
                    f"placement has {len(placement)} entries for {nranks} ranks"
                )
            for node in placement:
                if not 0 <= node < self.cluster.nnodes:
                    raise SimulationError(f"placement references node {node}")
            return placement
        return [r % self.cluster.nnodes for r in range(nranks)]

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def _push_timer(self, t: float, callback: Callable[[float], None]) -> None:
        self._seq += 1
        self._fg_in_heap += 1
        heappush(self._heap, (t, self._seq, _EV_TIMER, callback, 0))

    def _push_bg_timer(self, t: float, callback: Callable[[float], None]) -> None:
        self._seq += 1
        heappush(self._heap, (t, self._seq, _EV_BG, callback, 0))

    def _settle_fluid(self) -> None:
        """Reallocate rates for components touched since the last settle
        and (re)schedule completion events for the affected tasks."""
        dirty = self._fluid_dirty
        if not dirty:
            return
        affected = self._fluid.reallocate_scoped(dirty)
        dirty.clear()
        if len(affected) > 1:
            # Push in admission order, not set order: tasks that finish
            # at the same instant pop by sequence number, so set order
            # (which follows object addresses) would otherwise decide
            # which of them runs its completion first.
            affected = sorted(affected, key=_admission_order)
        now = self.now
        heap = self._heap
        seq = self._seq
        # Task.eta inlined. Component tasks are always alive.
        for task in affected:
            if task.infinite:
                continue
            progress = task.rate * task.speed
            if progress <= _STALLED:
                continue
            eta = now + task.remaining / progress
            if eta != math.inf:
                seq += 1
                heappush(heap, (eta, seq, _EV_TASK, task, task.version))
        self._fg_in_heap += seq - self._seq
        self._seq = seq

    # Membership changes need no sync of their own: the fluid clock
    # moves only in the main loop, which syncs it to every new now.

    def _fluid_add(self, task: Task) -> None:
        self._fluid.add(task)
        self._fluid_dirty.update(task.resources)

    def _fluid_remove(self, task: Task) -> None:
        self._fluid.remove(task)
        self._fluid_dirty.update(task.resources)

    # ------------------------------------------------------------------
    # fault application (driven by repro.faults.inject.FaultInjector)
    # ------------------------------------------------------------------

    def _fault_scale_cpu(self, node: int, scale: float) -> None:
        """Scale a node's CPU capacity to ``scale`` × its base."""
        res = self._cpu_res[node]
        self._fluid.sync(self.now)
        res.set_capacity(self._cpu_base_cap[node] * scale)
        self._fluid_dirty.add(res)

    def _fault_scale_nic(self, node: int, scale: float) -> None:
        """Scale a node's NIC capacity to ``scale`` × its current
        (traffic-modulated) base."""
        self._fault_nic_scale[node] = scale
        cap = self._nic_base_cap[node] * scale
        tx, rx = self._tx_res[node], self._rx_res[node]
        self._fluid.sync(self.now)
        tx.set_capacity(cap)
        rx.set_capacity(cap)
        self._fluid_dirty.add(tx)
        self._fluid_dirty.add(rx)

    def _fault_scale_rank(self, rank: int, factor: float) -> None:
        """Scale one rank's compute speed (0.0 = fully stalled). The
        rank's live compute task, if any, is re-paced immediately."""
        proc = self._procs[rank]
        proc.speed_factor = factor
        task = proc.compute_task
        if task is not None and task.alive:
            self._fluid.sync(self.now)
            task.speed = self.cluster.nodes[proc.node].speed * factor
            self._fluid_dirty.update(task.resources)

    # ------------------------------------------------------------------
    # request / message plumbing
    # ------------------------------------------------------------------

    def _complete_request(self, req: RequestHandle, t: float) -> None:
        if req.done:
            raise SimulationError("request completed twice")
        req.done = True
        req.t_done = t
        waiters, req.waiters = req.waiters, []
        for proc in waiters:
            proc.wait_count -= 1
            if proc.wait_count == 0:
                proc.state = _READY
                self._ready.append((proc, None))

    def _block_on(self, proc: _Proc, requests: Sequence[RequestHandle]) -> bool:
        """Register proc on incomplete requests; True if it must block."""
        pending = 0
        for req in requests:
            if not req.done:
                req.waiters.append(proc)
                pending += 1
        if not pending:
            return False
        proc.state = _BLOCKED
        proc.wait_count = pending
        return True

    def _local_copy_time(self, nbytes: int) -> float:
        return self._net.send_overhead + nbytes / self._net.memory_bandwidth

    def _handshake_delay(self, src_rank: int, dst_rank: int) -> float:
        """Rendezvous RTS/CTS round-trip for a rank pair (site-aware)."""
        src_node = self._procs[src_rank].node
        dst_node = self._procs[dst_rank].node
        latency = self._net.latency
        if self.cluster.site_of(src_node) != self.cluster.site_of(dst_node):
            latency = self._net.wan_latency
        return self._net.handshake_latencies * latency

    def _deliver(self, msg: Message, t: float) -> None:
        msg.delivered = True
        msg.t_delivered = t
        if self._emit_messages:
            self.hook.on_message(
                msg.src, msg.dst, msg.nbytes, msg.tag, msg.t_sent, t
            )
        if self._emit_edges:
            rr = msg.recv_req
            self.hook.on_edge(
                msg.src,
                msg.dst,
                msg.nbytes,
                msg.tag,
                msg.t_sent,
                rr.t_posted if rr is not None else math.nan,
                t,
                msg.eager,
            )
        if msg.recv_req is not None:
            self._complete_request(msg.recv_req, t)
        if not msg.eager and msg.send_req is not None:
            self._complete_request(msg.send_req, t)

    def _start_flow(self, msg: Message, start: float) -> None:
        """Begin the data movement of a matched/eager message."""
        if msg.flow_started:
            raise SimulationError("flow started twice")
        msg.flow_started = True
        src_node = self._procs[msg.src].node
        dst_node = self._procs[msg.dst].node
        if src_node == dst_node:
            dt = self._net.intra_node_latency + msg.nbytes / self._net.memory_bandwidth
            self._push_timer(start + dt, lambda t, m=msg: self._deliver(m, t))
            return
        src_site = self.cluster.site_of(src_node)
        dst_site = self.cluster.site_of(dst_node)
        resources = [self._tx_res[src_node], self._rx_res[dst_node]]
        latency = self._net.latency
        if src_site != dst_site:
            # Cross-site: pay the WAN latency and share the uplinks.
            latency = self._net.wan_latency
            resources.append(self._wan_up[src_site])
            resources.append(self._wan_down[dst_site])
        if self._check_drops:
            # Drop-and-retransmit fault: a dropped message is delivered
            # one retransmit timeout late.
            latency += self._injector.message_penalty(msg.src, msg.dst, start)
        if msg.nbytes == 0:
            self._push_timer(
                start + latency, lambda t, m=msg: self._deliver(m, t)
            )
            return

        def _launch(t0: float, m: Message = msg) -> None:
            task = Task(
                name=f"flow[{m.src}->{m.dst}]",
                resources=tuple(resources),
                work=float(m.nbytes),
                on_complete=lambda task, t: self._push_timer(
                    t + latency, lambda td, mm=m: self._deliver(mm, td)
                ),
            )
            self._fluid_add(task)

        if start <= self.now:
            _launch(self.now)
        else:
            self._push_timer(start, _launch)

    def _post_send(self, proc: _Proc, dest: int, nbytes: int, tag: int) -> RequestHandle:
        if not 0 <= dest < len(self._procs):
            raise ProgramError(f"rank {proc.rank} sends to invalid rank {dest}")
        if dest == proc.rank:
            raise ProgramError(f"rank {proc.rank} sends to itself")
        self._n_messages += 1
        eager = nbytes <= self._net.eager_threshold
        msg = Message(proc.rank, dest, tag, int(nbytes), eager)
        msg.t_sent = self.now
        req = RequestHandle("send", dest, tag, int(nbytes))
        req.t_posted = self.now
        req.msg = msg
        msg.send_req = req

        mailbox = self._mailboxes[dest]
        recv_req = mailbox.match_send(msg)
        if recv_req is not None:
            msg.recv_req = recv_req
            recv_req.msg = msg
        else:
            mailbox.add_unexpected(msg)

        if eager:
            # Data leaves immediately; the sender pays only a local copy.
            self._start_flow(msg, self.now)
            cost = self._local_copy_time(nbytes)
            self._push_timer(
                self.now + cost, lambda t, r=req: self._complete_request(r, t)
            )
        elif recv_req is not None:
            handshake = self._handshake_delay(msg.src, msg.dst)
            self._start_flow(msg, self.now + handshake)
        # Rendezvous without a matched receive: the flow starts when the
        # receive is posted; the send request completes at delivery.
        return req

    def _post_recv(self, proc: _Proc, source: int, tag: int) -> RequestHandle:
        req = RequestHandle("recv", source, tag, 0)
        req.t_posted = self.now
        mailbox = self._mailboxes[proc.rank]
        msg = mailbox.match_recv(source, tag)
        if msg is None:
            mailbox.add_posted(req)
            return req
        msg.recv_req = req
        req.msg = msg
        if msg.delivered:
            self._complete_request(req, self.now)
        elif not msg.eager and not msg.flow_started:
            handshake = self._handshake_delay(msg.src, msg.dst)
            self._start_flow(msg, self.now + handshake)
        return req

    # ------------------------------------------------------------------
    # process stepping
    # ------------------------------------------------------------------

    def _emit_pending_call(self, proc: _Proc) -> None:
        if proc.pending_call is not None:
            name, params, t_start = proc.pending_call
            proc.pending_call = None
            if self.hook is not None:
                self.hook.on_call(proc.rank, name, params, t_start, self.now)

    def _trace_now(self, proc: _Proc, op: Op, params: dict) -> None:
        """Record an instantaneous (non-blocking) user-level call."""
        self.hook.on_call(proc.rank, call_name(op), params, self.now, self.now)

    def _begin_blocking_call(self, proc: _Proc, op: Op, params: dict) -> None:
        proc.pending_call = (call_name(op), params, self.now)

    def _step(self, proc: _Proc, value) -> None:
        """Advance one rank until it blocks or finishes."""
        if proc.pending_call is not None:
            self._emit_pending_call(proc)
        stack = proc.stack
        dispatch = self._dispatch
        while True:
            gen, call_record = stack[-1]
            try:
                op = gen.send(value)
            except StopIteration as stop:
                stack.pop()
                if call_record is not None and self.hook is not None:
                    name, params, t_start = call_record
                    self.hook.on_call(proc.rank, name, params, t_start, self.now)
                if not stack:
                    proc.state = _DONE
                    proc.finish_time = self.now
                    self._ndone += 1
                    return
                value = stop.value
                continue
            value = dispatch(proc, op)
            if value is _BLOCK:
                return

    def _compute_done_callback(self, proc: _Proc) -> Callable[[Task, float], None]:
        def done(task: Task, t: float) -> None:
            # The main loop already removed the task from the fluid
            # system; just wake the process.
            proc.compute_task = None
            proc.state = _READY
            self._ready.append((proc, None))

        return done

    def _dispatch(self, proc: _Proc, op: Op):
        """Perform one yielded op; return the resume value or _BLOCK.

        Call records, and the ``params`` dicts in them, are built only
        when a hook observes the call (user level, hook attached).
        """
        kind = type(op)
        if kind is Compute:
            if op.seconds <= 0:
                return None
            node = self.cluster.nodes[proc.node]
            proc.state = _BLOCKED
            proc.wait_count = 0
            proc.blocked_on = op
            task = Task(
                name=f"compute[r{proc.rank}]",
                resources=(self._cpu_res[proc.node],),
                work=float(op.seconds),
                cap=1.0,
                speed=node.speed * proc.speed_factor,
                on_complete=proc.on_compute_done,
            )
            proc.compute_task = task
            self._fluid_add(task)
            return _BLOCK

        traced = self.hook is not None and len(proc.stack) == 1
        if kind is Send:
            req = self._post_send(proc, op.dest, op.nbytes, op.tag)
            blocked = self._block_on(proc, (req,))
            if blocked:
                proc.blocked_on = op
            if traced:
                params = {"peer": op.dest, "bytes": op.nbytes, "tag": op.tag}
                if blocked:
                    self._begin_blocking_call(proc, op, params)
                else:
                    self._trace_now(proc, op, params)
            return _BLOCK if blocked else None

        if kind is Recv:
            if traced:
                self._begin_blocking_call(
                    proc, op, {"peer": op.source, "bytes": op.nbytes, "tag": op.tag}
                )
            req = self._post_recv(proc, op.source, op.tag)
            if self._block_on(proc, (req,)):
                proc.blocked_on = op
                return _BLOCK
            if traced:
                self._emit_pending_call(proc)
            return None

        if kind is Isend:
            if traced:
                self._trace_now(
                    proc, op, {"peer": op.dest, "bytes": op.nbytes, "tag": op.tag}
                )
            return self._post_send(proc, op.dest, op.nbytes, op.tag)

        if kind is Irecv:
            if traced:
                self._trace_now(
                    proc, op, {"peer": op.source, "bytes": op.nbytes, "tag": op.tag}
                )
            req = self._post_recv(proc, op.source, op.tag)
            # Report the declared receive size (stable regardless of
            # whether the message has already arrived) so downstream
            # Waitall records are timing-independent.
            req.nbytes = op.nbytes
            return req

        if kind is Wait:
            if traced:
                self._begin_blocking_call(proc, op, {"bytes": op.request.nbytes})
            if self._block_on(proc, (op.request,)):
                proc.blocked_on = op
                return _BLOCK
            if traced:
                self._emit_pending_call(proc)
            return None

        if kind is Waitall:
            if traced:
                total = sum(r.nbytes for r in op.requests)
                self._begin_blocking_call(
                    proc, op, {"count": len(op.requests), "bytes": total}
                )
            if self._block_on(proc, tuple(op.requests)):
                proc.blocked_on = op
                return _BLOCK
            if traced:
                self._emit_pending_call(proc)
            return None

        if kind is Sendrecv:
            if traced:
                self._begin_blocking_call(proc, op, {
                    "peer": op.dest,
                    "bytes": op.send_nbytes,
                    "tag": op.send_tag,
                    "source": op.source,
                })
            sreq = self._post_send(proc, op.dest, op.send_nbytes, op.send_tag)
            rreq = self._post_recv(proc, op.source, op.recv_tag)
            if self._block_on(proc, (sreq, rreq)):
                proc.blocked_on = op
                return _BLOCK
            if traced:
                self._emit_pending_call(proc)
            return None

        if isinstance(op, CollectiveOp):
            size = len(self._procs)
            members = getattr(op, "group", None)
            comm_key = tuple(members) if members is not None else None
            seq = proc.coll_seqs.get(comm_key, 0)
            proc.coll_seqs[comm_key] = seq + 1
            sub = coll.expand(op, proc.rank, size, seq)
            record = None
            if traced:
                gsize = len(comm_key) if comm_key is not None else size
                params = {"bytes": coll.collective_bytes(op, gsize)}
                root = getattr(op, "root", None)
                if root is not None:
                    params["root"] = root
                if comm_key is not None:
                    params["group"] = list(comm_key)
                record = (call_name(op), params, self.now)
            proc.stack.append((sub, record))
            return None  # first send(None) primes the sub-generator

        raise ProgramError(f"program yielded non-op value {op!r}")

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, program) -> RunResult:
        """Execute ``program`` (a :class:`repro.sim.program.Program`)."""
        nranks = program.nranks
        if nranks < 1:
            raise ProgramError("program needs at least one rank")

        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._ready = deque()
        self._fluid = FluidSystem()
        self._fluid_dirty = set()
        self._ndone = 0
        self._n_messages = 0
        self._n_events = 0
        self._fg_in_heap = 0
        self._mailboxes = [Mailbox(r) for r in range(nranks)]
        self._build_resources()

        placement = self._placement(nranks)
        self._procs = [
            _Proc(rank, placement[rank], program.make(rank, nranks))
            for rank in range(nranks)
        ]
        self._injector = None
        self._check_drops = False
        plan = self.scenario.fault_plan
        if plan is not None and not plan.is_empty:
            from repro.faults.inject import FaultInjector

            self._injector = FaultInjector(self, plan)
            self._injector.arm()
            self._check_drops = self._injector.has_drops
        if self.hook is not None:
            self.hook.on_run_start(nranks, 0.0)
        if self._sample_period > 0:
            self._start_sampler()
        for proc in self._procs:
            proc.on_compute_done = self._compute_done_callback(proc)
            self._ready.append((proc, None))
        t_wall = time.perf_counter()

        max_events = self.config.max_events
        heap = self._heap
        ready = self._ready
        dirty = self._fluid_dirty
        step = self._step
        sync = self._fluid.sync
        remove = self._fluid.remove
        n_events = 0
        while True:
            while ready:
                proc, value = ready.popleft()
                step(proc, value)
            if self._ndone == nranks:
                break
            if dirty:
                self._settle_fluid()
            if self._fg_in_heap == 0:
                # Only self-rearming background modulation (or nothing)
                # remains: no blocked rank can ever be woken again.
                blocked = [p for p in self._procs if p.state == _BLOCKED]
                blocked_ops = {p.rank: _describe_blocked(p) for p in blocked}
                detail = "; ".join(
                    f"rank {rank}: {desc}" for rank, desc in blocked_ops.items()
                )
                raise DeadlockError(
                    f"no runnable rank and no pending completion event; "
                    f"blocked: [{detail}]",
                    blocked_ranks=[p.rank for p in blocked],
                    blocked_ops=blocked_ops,
                )
            # Pop the next valid event. Foreground pops are tallied
            # locally; only the deadlock check above reads the total.
            fg_popped = 0
            while heap:
                t, _seq, kind, a, b = heappop(heap)
                if kind != _EV_BG:
                    fg_popped += 1
                    if kind == _EV_TASK and (a.version != b or not a.alive):
                        continue  # stale completion
                # Advance the clock, banking fluid progress first.
                if t > self.now:
                    sync(t)
                    self.now = t
                elif t < self.now - 1e-9:
                    raise SimulationError(
                        f"event time regressed: {self.now} -> {t}"
                    )
                if kind == _EV_TASK:
                    remove(a)
                    dirty.update(a.resources)
                    a.on_complete(a, t)
                elif kind == _EV_TIMER:
                    a(t)
                else:  # background modulation
                    a(t)
                    self._settle_fluid()
                    if not ready:
                        continue  # keep popping until foreground work
                n_events += 1
                if n_events > max_events:
                    raise SimulationError("event budget exhausted")
                break
            self._fg_in_heap -= fg_popped
        self._n_events = n_events

        finish_times = tuple(p.finish_time for p in self._procs)
        if self.hook is not None:
            self.hook.on_run_end(finish_times)
        # Instrumented components tally in plain ints during the run;
        # their totals land in the registry here, once.
        self._fluid.flush_metrics()
        for mailbox in self._mailboxes:
            mailbox.flush_metrics()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("engine.runs", "simulated runs completed").inc()
            metrics.counter("engine.events", "engine events popped").inc(
                self._n_events
            )
            metrics.counter(
                "engine.messages", "point-to-point messages simulated"
            ).inc(self._n_messages)
            metrics.histogram(
                "engine.run_wall_seconds", "wall time per simulated run"
            ).observe(time.perf_counter() - t_wall)
            metrics.histogram(
                "engine.run_sim_seconds", "simulated time per run"
            ).observe(max(finish_times))
        return RunResult(
            program_name=program.name,
            scenario_name=self.scenario.name,
            nranks=nranks,
            finish_times=finish_times,
            elapsed=max(finish_times),
            n_messages=self._n_messages,
            n_events=self._n_events,
        )
