"""The two serving workloads: ``serve-warm`` and ``serve-mixed``.

Both run the real daemon (``repro-skeleton serve``) as a subprocess
with default flags, publish six aliases ``nas.<bench>`` (class S,
0.05 s skeletons) and pre-warm the 30 (alias, scenario) requests the
warm traffic uses. The seed fixes the warm environment seed, the order
in which requests cycle and the cold requests' environment seeds; the
server only ever sees the generated requests.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from common import DEFAULT_SEED, ROOT, Result, canonical, digest, load_expected, scan_store
from loadgen import Outcome, Request, ServerProcess, run_closed_loop, run_open_loop
from stats import (
    MIN_BEYOND,
    beyond,
    checked_percentile,
    due_latency,
    percentile,
    reconcile,
    send_lag,
    tail_percentile,
)

BENCHES = ("bt", "cg", "is", "lu", "mg", "sp")
KLASS = "S"
TARGET = 0.05
#: The program's default workload seed; aliases are published with it.
WORKLOAD_SEED = 12345

#: Warm latency limit on p90 for a ladder step to pass (ms). The limit
#: sits on p90, not p99: on a shared 2-core box p99 of a few thousand
#: requests varies about 2x between identical runs (NOTES.md).
P90_LIMIT_MS = 20.0
#: Reference rate of serve-warm: its p50/p90 are the headline figures.
#: A quarter of capacity, where latency is service time, not queueing.
REF_RPS = 100.0
#: Windows at the reference rate, and requests per window; the
#: reported p50/p90 are medians over the windows.
REF_WINDOWS = 4
REF_WINDOW_REQUESTS = 300
#: Requests per ladder step.
STEP_REQUESTS = 1000
#: Rates above the reference, tried in order until one fails; capacity
#: measured when the benchmark was written is about 410 req/s.
LADDER_RPS = (300.0, 350.0, 400.0, 450.0, 500.0, 600.0, 800.0)
#: Bisection probes between the last rate passed and the first failed.
BISECT_STEPS = 2
#: serve-mixed offered load: warm and cold request rates (1/s).
MIXED_WARM_RPS = 100.0
MIXED_COLD_RPS = 3.0
#: A run whose generator sent its p99 request later than this is invalid.
LAG_LIMIT_MS = 10.0
#: metricz sampling period in traced runs (s); each sample is a large
#: reply, so sampling faster disturbs what it measures.
SAMPLE_PERIOD_S = 1.0
#: In-process replay passes over the 30 warm requests (traced runs).
REPLAY_PASSES = 10


@dataclass
class Plan:
    """Everything the seed decides."""

    warm_env: int
    warm_order: list
    cold_order: list
    cold_env0: int

    @staticmethod
    def from_seed(seed: int) -> "Plan":
        from repro.cluster.scenarios import paper_scenarios

        rng = random.Random(f"perfbench-serve-{seed}")
        scenarios = [s.name for s in paper_scenarios(4)]
        pairs = [(b, s) for b in BENCHES for s in scenarios]
        warm_order, cold_order = pairs[:], pairs[:]
        rng.shuffle(warm_order)
        rng.shuffle(cold_order)
        return Plan(
            warm_env=rng.randrange(1, 1 << 30),
            warm_order=warm_order,
            cold_order=cold_order,
            cold_env0=rng.randrange(1 << 30, 1 << 31),
        )

    def warm(self, k: int) -> dict:
        bench, scenario = self.warm_order[k % len(self.warm_order)]
        return {"alias": f"nas.{bench}", "scenario": scenario,
                "env_seed": self.warm_env}

    def cold(self, k: int) -> dict:
        """The k-th cold request: a fresh environment seed, so both of
        its skeleton runs miss the store."""
        bench, scenario = self.cold_order[k % len(self.cold_order)]
        return {"alias": f"nas.{bench}", "scenario": scenario,
                "env_seed": self.cold_env0 + k}


def _publish_calls() -> list:
    return [
        ("publish", {"alias": f"nas.{b}", "bench": b, "klass": KLASS,
                     "target": TARGET, "workload_seed": WORKLOAD_SEED})
        for b in BENCHES
    ]


def _setup(server: ServerProcess, plan: Plan, res: Result) -> dict:
    """Spawn → ready → six publishes → pre-warm; returns the phase
    times. Every set-up reply must be ok."""
    t0 = time.perf_counter()
    server.start()
    t_ready = time.perf_counter()
    pubs = run_closed_loop(server.host, server.port, _publish_calls())
    t_pub = time.perf_counter()
    warm = run_closed_loop(
        server.host, server.port,
        [("predict", plan.warm(k)) for k in range(len(plan.warm_order))],
    )
    t_warm = time.perf_counter()
    for name, replies in (("publish", pubs), ("pre-warm", warm)):
        bad = [r for r in replies if not (r and r.get("ok"))]
        res.attempted += len(replies)
        res.failed += len(bad)
        res.check(f"{name} replies ok", not bad, f"{len(bad)} failed")
    return {"setup_s": t_warm - t0, "ready_s": t_ready - t0,
            "publish_s": t_pub - t_ready, "prewarm_s": t_warm - t_pub}


def _latencies_ms(outs: list[Outcome]) -> list[float]:
    """Due-time latencies of the requests served (ms). Refusals and
    failures are counted separately (shed, failed, ``rate_per_s``)."""
    return [due_latency(o.due, o.done) * 1e3 for o in outs if o.code == 200]


def _lag_ms(outs: list[Outcome]) -> float:
    lags = [send_lag(o.due, o.sent) * 1e3 for o in outs if o.sent is not None]
    return percentile(lags, tail_percentile(len(lags)))


def _rate(outs: list[Outcome]) -> float:
    """Replies ok per second, from the first due time to the last reply."""
    ok = [o for o in outs if o.code == 200]
    if not ok:
        return 0.0
    return len(ok) / (max(o.done for o in ok) - min(o.due for o in outs))


def _account(outs: list[Outcome], res: Result) -> tuple[int, int]:
    """Count outcomes; returns (shed, failed). A 503 refusal is
    admission control doing its job and is reported as shed; anything
    else that is not a 200 (error reply, 504, lost reply) is a failed
    operation."""
    shed = sum(1 for o in outs if o.code == 503)
    bad = sum(1 for o in outs if o.code not in (200, 503))
    res.attempted += len(outs)
    res.failed += bad
    return shed, bad


def _sampled(requests: list[Request], duration: float) -> list[Request]:
    """Interleave metricz samples (cheap verb, bypasses admission)."""
    samples = [
        Request(i * SAMPLE_PERIOD_S, "metricz", "metricz", {})
        for i in range(int(duration / SAMPLE_PERIOD_S) + 1)
    ]
    return sorted(requests + samples, key=lambda r: r.due)


@dataclass
class Step:
    """One ladder step of serve-warm."""

    rps: float
    pairs: list
    shed: int
    bad: int
    p50: float
    p90: float
    p99: float
    backlog: int
    lag: float
    rate: float

    @property
    def passed(self) -> bool:
        return (self.shed == 0 and self.bad == 0 and self.backlog == 0
                and self.p90 <= P90_LIMIT_MS and self.lag <= LAG_LIMIT_MS)


def _step(server, plan, rps: float, n: int, offset: int, traced: bool,
          res: Result) -> Step:
    """Offer ``n`` warm requests at ``rps`` on a fixed schedule."""
    reqs = [Request(i / rps, "warm", "predict", plan.warm(offset + i))
            for i in range(n)]
    if traced:
        reqs = _sampled(reqs, n / rps)
    pairs = list(zip(reqs, run_open_loop(server.host, server.port, reqs)))
    outs = [o for r, o in pairs if r.cls == "warm"]
    shed, bad = _account(outs, res)
    lat = _latencies_ms(outs) or [float("inf")]
    last_due = max(o.due for o in outs)
    # Backlog: replies still owed well after the last request was due.
    backlog = sum(1 for o in outs if o.code == 200
                  and o.done > last_due + 5 * P90_LIMIT_MS / 1e3)
    return Step(rps=rps, pairs=pairs, shed=shed, bad=bad,
                p50=percentile(lat, 50), p90=percentile(lat, 90),
                p99=percentile(lat, 99), backlog=backlog, lag=_lag_ms(outs),
                rate=_rate(outs))


class _Oracle:
    """In-process ``compute_prediction`` over a store directory: the
    reference every served payload is compared against."""

    def __init__(self, cache_dir: Path):
        from repro.cluster.topology import paper_testbed
        from repro.serve.registry import SkeletonRegistry
        from repro.store.memo import PipelineCache
        from repro.store.store import ArtifactStore

        store = ArtifactStore(cache_dir)
        self.cluster = paper_testbed()
        self.cache = PipelineCache(store, self.cluster)
        self.registry = SkeletonRegistry(store)

    def request(self, params: dict) -> dict:
        """The normalized request the service makes of ``params``."""
        from repro.predict.online import normalize_request

        entry = self.registry.resolve(params["alias"])
        return normalize_request(
            bench=entry.workload["bench"], klass=entry.workload["klass"],
            nprocs=entry.workload["nprocs"],
            workload_seed=entry.workload["seed"], target=entry.target,
            scenario=params["scenario"], env_seed=params["env_seed"],
        )

    def payload(self, req: dict) -> str:
        import repro.predict.online as online

        return canonical(online.compute_prediction(req, self.cache, self.cluster))


def _check_payloads(cache_dir: Path, served: list, res: Result) -> None:
    """Every served predict payload must equal, byte for byte in
    canonical JSON, the in-process ``compute_prediction`` of the same
    normalized request over the server's store."""
    oracle = _Oracle(cache_dir)
    expected: dict[str, str] = {}
    mismatched = 0
    for params, reply in served:
        key = canonical(params)
        if key not in expected:
            expected[key] = oracle.payload(oracle.request(params))
        if canonical(reply["result"]) != expected[key]:
            mismatched += 1
    res.check("served payloads equal in-process compute_prediction",
              mismatched == 0, f"{mismatched} of {len(served)} differ")


def _check_digest(cache_dir: Path, plan: Plan, seed: int, res: Result) -> None:
    """Digest of the 30 warm payloads; recorded for the default seed."""
    oracle = _Oracle(cache_dir)
    value = digest(
        oracle.payload(oracle.request(plan.warm(k)))
        for k in range(len(plan.warm_order))
    )
    res.note(f"serve_payload_digest: {value}")
    want = load_expected().get("serve_payload_digest")
    if seed == DEFAULT_SEED and want is not None:
        res.check("serve_payload_digest matches expected.json", value == want,
                  f"got {value}, recorded {want}")


def _metricz_layers(pairs, layers: dict) -> None:
    """Queue depth and cache hit ratio from the sampled metricz replies."""
    snaps = [o.reply["result"] for r, o in pairs
             if r.cls == "metricz" and o.code == 200]
    if len(snaps) < 2:
        return

    def value(snap, name):
        return float((snap.get(name) or {}).get("value", 0.0))

    layers["serve.queue_depth_max"] = max(
        value(s, "serve.queue_depth") for s in snaps)
    # The server's counters are cumulative: difference first and last.
    hits = value(snaps[-1], "serve.cache_hits") - value(snaps[0], "serve.cache_hits")
    miss = (value(snaps[-1], "serve.cache_misses")
            - value(snaps[0], "serve.cache_misses"))
    if hits + miss:
        layers["serve.cache_hit_ratio"] = hits / (hits + miss)


def _pool_restarts(health: dict) -> float:
    pool = (health or {}).get("result", {}).get("pool") or {}
    return float(pool.get("timeouts", 0) + pool.get("crashes", 0))


def _warm_replay(cache_dir: Path, plan: Plan, layers: dict, res: Result) -> float:
    """Time the layers one warm request crosses, in process, on the
    server's store: ``PredictionService.handle`` and, inside it,
    ``SkeletonRegistry.resolve``, ``is_warm``, ``compute_prediction``
    and the ``ArtifactStore.get`` reads they make. Checks that handle
    = resolve + is_warm + compute + other; returns handle's p50 (ms)."""
    import repro.predict.online as online
    from repro.serve.registry import REGISTRY_STAGE
    from repro.serve.service import PredictionService

    svc = PredictionService(cache_dir=str(cache_dir))
    spent = {"resolve": [], "is_warm": [], "compute": [], "read": []}
    nbytes = [0]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[name].append(time.perf_counter() - t0)
            return out
        return wrapper

    def timed_read(count_bytes):
        # Only PipelineCache reads; the registry's own read (an entry
        # with a write timestamp) is part of resolve.
        def wrapper(key, *args, **kwargs):
            t0 = time.perf_counter()
            out = store_get(key, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            if getattr(key, "stage", None) != REGISTRY_STAGE:
                spent["read"].append(elapsed)
                if count_bytes and out is not None:
                    nbytes[0] += _read_bytes(out)
            return out
        return wrapper

    real_is_warm = online.is_warm
    store_get = svc.store.get
    params = [plan.warm(k) for k in range(len(plan.warm_order))]
    handle = []
    try:
        # Pass 0 fills the registry's bundle cache and counts the bytes
        # a warm request reads; the timed passes only time.
        svc.store.get = timed_read(count_bytes=True)
        for p in params:
            svc.handle("predict", p)
        spent["read"].clear()
        svc.store.get = timed_read(count_bytes=False)
        svc.registry.resolve = timed("resolve", svc.registry.resolve)
        online.is_warm = timed("is_warm", real_is_warm)
        svc._compute = timed("compute", svc._compute)
        for _ in range(REPLAY_PASSES):
            for p in params:
                t0 = time.perf_counter()
                reply = svc.handle("predict", p)
                handle.append(time.perf_counter() - t0)
                res.check("in-process replay ok", reply["ok"], str(reply.get("error")))
    finally:
        online.is_warm = real_is_warm
        svc.close()
    ms = 1e3
    layers["serve.service_ms"] = percentile(handle, 50) * ms
    layers["serve.registry.resolve_ms"] = percentile(spent["resolve"], 50) * ms
    layers["predict.compute_ms"] = percentile(spent["compute"], 50) * ms
    layers["store.read_ms"] = percentile(spent["read"], 50) * ms
    layers["store.bytes_read"] = float(nbytes[0])
    # Mean per request: handle = resolve + is_warm + compute + other.
    n = len(handle)
    total = sum(handle) / n * ms
    parts = {k: sum(spent[k]) / n * ms for k in ("resolve", "is_warm", "compute")}
    other = reconcile(total, parts)
    layers["serve.handle_other_ms"] = other
    res.note("in-process handle " + f"{total:.4f} ms = " + " + ".join(
        f"{k} {v:.4f}" for k, v in parts.items()) + f" + other {other:.4f}")
    res.check("handle reconciles: the parts never exceed the whole",
              other >= 0.0, f"other {other:.4f} ms")
    return layers["serve.service_ms"]


def _read_bytes(artifact) -> int:
    size = len(canonical(artifact.content).encode())
    return size + sum(Path(p).stat().st_size for p in artifact.blobs.values())


def _cold_replay(store_copy: Path, plan: Plan, n: int, served: dict,
                 layers: dict, res: Result) -> float:
    """Replay the cold requests in process against a copy of the store
    taken before the timed phase: ``compute_prediction`` per request
    and, inside it, the two ``run_program`` calls (engine time and
    events). Each replayed payload must equal the one the server sent.
    Returns the in-process compute p50 (ms)."""
    import repro.predict.online as online

    before = scan_store(store_copy)
    oracle = _Oracle(store_copy)
    sim = {"s": 0.0, "events": 0}
    real_run = online.run_program

    def run_program(*args, **kwargs):
        t0 = time.perf_counter()
        result = real_run(*args, **kwargs)
        sim["s"] += time.perf_counter() - t0
        sim["events"] += result.n_events
        return result

    computes, mismatched = [], 0
    online.run_program = run_program
    try:
        for k in range(n):
            req = oracle.request(plan.cold(k))
            t0 = time.perf_counter()
            text = oracle.payload(req)
            computes.append(time.perf_counter() - t0)
            if k in served and canonical(served[k]) != text:
                mismatched += 1
    finally:
        online.run_program = real_run
    res.check("served cold payloads equal the cold in-process replay",
              mismatched == 0, f"{mismatched} of {len(served)} differ")
    layers["sim.events"] = float(sim["events"])
    layers["sim.busy_s"] = sim["s"]
    layers["sim.events_per_s"] = sim["events"] / sim["s"]
    layers["store.bytes_written"] = float(scan_store(store_copy)[1] - before[1])
    return percentile(computes, 50) * 1e3


def _ladder():
    """The rates serve-warm probes: up the ladder until a step fails,
    then bisection between the last pass and that failure. Send each
    probe's pass/fail into the generator."""
    lo, hi = REF_RPS, None
    for rps in LADDER_RPS:
        if (yield rps):
            lo = rps
        else:
            hi = rps
            break
    for _ in range(BISECT_STEPS if hi is not None else 0):
        mid = (lo + hi) / 2
        if (yield mid):
            lo = mid
        else:
            hi = mid


def serve_warm(seed: int, seconds: float, traced: bool, work: Path) -> tuple:
    """Open-loop warm ``predict`` traffic: windows at the reference rate
    alternating with the probes of :func:`_ladder`."""
    res, layers = Result(), {}
    plan = Plan.from_seed(seed)
    cache_dir = work / "cache"
    server = ServerProcess(ROOT, cache_dir, work / "server.log")
    steps: list[Step] = []
    try:
        times = _setup(server, plan, res)
        offset = 0

        def probe(rps: float, n: int) -> Step:
            nonlocal offset
            step = _step(server, plan, rps, n, offset, traced, res)
            offset += n
            steps.append(step)
            return step

        # Reference windows alternate with the ladder's probes, so a
        # slow spell of the machine hits a window, not the whole figure.
        search = _ladder()
        rps = next(search, None)
        refs = []
        while rps is not None or len(refs) < REF_WINDOWS:
            if len(refs) < REF_WINDOWS:
                refs.append(probe(REF_RPS, REF_WINDOW_REQUESTS))
            if rps is not None:
                try:
                    rps = search.send(probe(rps, STEP_REQUESTS).passed)
                except StopIteration:
                    rps = None
        health = run_closed_loop(server.host, server.port, [("healthz", {})])[0]
    finally:
        server.stop()

    best = max((s for s in steps if s.passed), key=lambda s: s.rps, default=None)
    max_rate = best.rate if best is not None else 0.0
    ref_p50 = statistics.median(s.p50 for s in refs)
    ref_p90 = statistics.median(s.p90 for s in refs)
    ref_lat = _latencies_ms([o for s in refs for r, o in s.pairs if r.cls == "warm"])
    ref_p99 = checked_percentile(ref_lat, 99)
    res.check("reference windows served without refusals or lag",
              all(s.passed for s in refs),
              "; ".join(f"shed {s.shed} lag {s.lag:.2f} ms p90 {s.p90:.2f} ms"
                        for s in refs if not s.passed))
    res.metric("setup_s", times["setup_s"], "s")
    res.metric("p50_ms", ref_p50, "ms")
    res.metric("p90_ms", ref_p90, "ms")
    res.metric("rate_per_s", max_rate, "1/s")
    for s in steps:
        res.note(
            f"step {s.rps:6.1f} rps x{len(s.pairs)}: p50 {s.p50:.2f} ms "
            f"p90 {s.p90:.2f} ms p99 {s.p99:.2f} ms shed {s.shed} failed {s.bad} "
            f"backlog {s.backlog} lag {s.lag:.2f} ms "
            f"{'pass' if s.passed else 'FAIL'}")
    res.note(f"warm_p50_ms = {ref_p50:.3f} ms, warm_p90_ms = {ref_p90:.3f} ms "
             f"(medians of {len(refs)} windows), warm_p99_ms = {ref_p99:.3f} ms "
             f"({len(ref_lat)} requests) at {REF_RPS:g} rps; "
             f"warm_max_rps = {max_rate:.1f} 1/s")
    res.note(f"setup: ready {times['ready_s']:.2f} s, publish "
             f"{times['publish_s']:.2f} s, pre-warm {times['prewarm_s']:.2f} s")

    _check_payloads(cache_dir, [(r.params, o.reply) for s in steps
                                for r, o in s.pairs
                                if r.cls == "warm" and o.code == 200], res)
    _check_digest(cache_dir, plan, seed, res)
    if traced:
        _metricz_layers([p for s in steps for p in s.pairs], layers)
        layers["serve.shed_warm"] = float(sum(s.shed for s in steps))
        layers["serve.warm_p99_ms"] = ref_p99
        layers["loadgen.lag_ms"] = max(s.lag for s in refs)
        layers["core.publish_s"] = times["publish_s"]
        layers["serve.pool.restarts"] = _pool_restarts(health)
        layers["serve.transport_ms"] = ref_p50 - _warm_replay(cache_dir, plan, layers, res)
    return res, layers


def serve_mixed(seed: int, seconds: float, traced: bool, work: Path) -> tuple:
    """A fixed-rate warm stream beside a fixed-rate cold stream."""
    res, layers = Result(), {}
    plan = Plan.from_seed(seed)
    cache_dir = work / "cache"
    server = ServerProcess(ROOT, cache_dir, work / "server.log")
    n_warm = int(MIXED_WARM_RPS * seconds)
    n_cold = int(MIXED_COLD_RPS * seconds)
    reqs = [Request(i / MIXED_WARM_RPS, "warm", "predict", plan.warm(i))
            for i in range(n_warm)]
    # Cold requests sit halfway between two warm ones.
    reqs += [Request((k + 0.5) / MIXED_COLD_RPS, "cold", "predict", plan.cold(k))
             for k in range(n_cold)]
    reqs.sort(key=lambda r: r.due)
    if traced:
        reqs = _sampled(reqs, seconds)
    try:
        times = _setup(server, plan, res)
        if traced:
            store_copy = work / "cache-copy"
            shutil.copytree(cache_dir, store_copy)
        pairs = list(zip(reqs, run_open_loop(server.host, server.port, reqs)))
        health = run_closed_loop(server.host, server.port, [("healthz", {})])[0]
    finally:
        server.stop()
    warm = [o for r, o in pairs if r.cls == "warm"]
    cold = [o for r, o in pairs if r.cls == "cold"]
    warm_shed, warm_bad = _account(warm, res)
    cold_shed, cold_bad = _account(cold, res)
    lag = _lag_ms(warm + cold)
    res.check("generator kept to schedule", lag <= LAG_LIMIT_MS,
              f"lag p99 {lag:.2f} ms")
    cold_lat = _latencies_ms(cold)
    warm_lat = _latencies_ms(warm)
    res.check("enough cold replies for p90 (10 beyond it)",
              beyond(len(cold_lat), 90) >= MIN_BEYOND,
              f"{len(cold_lat)} cold replies ok")
    cold_p50, cold_p90 = percentile(cold_lat, 50), percentile(cold_lat, 90)
    warm_p99 = percentile(warm_lat, 99)
    res.metric("setup_s", times["setup_s"], "s")
    res.metric("p50_ms", cold_p50, "ms")
    res.metric("p90_ms", cold_p90, "ms")
    res.metric("rate_per_s", _rate(warm + cold), "1/s")
    refused = warm_shed + cold_shed + warm_bad + cold_bad
    res.note(f"cold_p50_ms = {cold_p50:.2f} ms, cold_p90_ms = {cold_p90:.2f} ms "
             f"({len(cold)} cold); mixed_warm_p99_ms = {warm_p99:.2f} ms "
             f"({len(warm)} warm)")
    res.note(f"shed: warm {warm_shed}/{len(warm)}, cold {cold_shed}/{len(cold)}; "
             f"failed {warm_bad + cold_bad}; failed_pct (refusals included) = "
             f"{100.0 * refused / (len(warm) + len(cold)):.2f} %")
    res.note(f"setup: ready {times['ready_s']:.2f} s, publish "
             f"{times['publish_s']:.2f} s, pre-warm {times['prewarm_s']:.2f} s")

    _check_payloads(cache_dir, [(r.params, o.reply) for r, o in pairs
                                if r.cls != "metricz" and o.code == 200], res)
    _check_digest(cache_dir, plan, seed, res)
    if traced:
        _metricz_layers(pairs, layers)
        layers["serve.shed_warm"] = float(warm_shed)
        layers["serve.shed_cold"] = float(cold_shed)
        layers["serve.warm_p99_ms"] = warm_p99
        layers["loadgen.lag_ms"] = lag
        layers["core.publish_s"] = times["publish_s"]
        layers["serve.pool.restarts"] = _pool_restarts(health)
        _warm_replay(cache_dir, plan, layers, res)
        served = {k: o.reply["result"] for k, o in enumerate(cold) if o.code == 200}
        layers["serve.pool.overhead_ms"] = cold_p50 - _cold_replay(
            store_copy, plan, len(plan.cold_order), served, layers, res)
    return res, layers
