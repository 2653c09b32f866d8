"""The ``campaign`` workload: the cold §4 evaluation campaign.

``ExperimentRunner(ExperimentConfig(klass="S", skeleton_targets=(0.05,)),
workers=2).run()`` on an empty store, as a batch job. The seed sets the
campaign's environment seed (load bursts, traffic fluctuation); the
workload seed keeps the program's default, so every seed runs the same
six programs under different contention draws.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import DEFAULT_SEED, ROOT, Result, canonical, digest, load_expected, scan_store, store_envelopes
from stats import checked_percentile, idle_time, percentile, reconcile

WORKERS = 2
#: Set-ups timed per run; the median is reported.
SETUP_REPEATS = 5
#: One cold campaign per this many seconds of the run (at least one).
CAMPAIGN_SECONDS = 30

_SETUP = (
    "import sys\n"
    "from repro.experiments.config import ExperimentConfig\n"
    "from repro.experiments.runner import ExperimentRunner\n"
    "config = ExperimentConfig(klass='S', skeleton_targets=(0.05,),\n"
    "                          environment_seed=int(sys.argv[2]))\n"
    f"runner = ExperimentRunner(config, cache_dir=sys.argv[1], workers={WORKERS})\n"
    "runner.cache_dir.mkdir(parents=True)\n"
)

_SIM_KINDS = ("app-run", "skel-run", "class-s-ded", "class-s-run")
_TRACE_KINDS = ("trace", "skel-trace")
_BUILD_KINDS = ("skel-build",)


def _config(seed: int):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        klass="S", skeleton_targets=(0.05,), environment_seed=seed
    )


def run(seed: int, seconds: float, traced: bool, work: Path) -> tuple:
    """``max(1, seconds // CAMPAIGN_SECONDS)`` cold campaigns of one
    seed, each on its own empty store; the per-layer figures come from
    the last of them."""
    from repro.experiments.runner import ExperimentRunner

    res, layers = Result(), {}
    config = _config(seed)
    n_campaigns = max(1, int(seconds // CAMPAIGN_SECONDS))

    # Set-up, as a user pays it before any run starts: a fresh
    # interpreter imports the campaign runner and creates the store.
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP, str(work / f"setup{i}"), str(seed)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
        )
        setups.append(time.perf_counter() - t0)
    res.metric("setup_s", statistics.median(setups), "s")
    runners = [
        ExperimentRunner(config, cache_dir=work / f"store{i}", workers=WORKERS)
        for i in range(n_campaigns)
    ]

    latencies, rates, digests = [], [], set()
    for runner in runners:
        wall0 = time.time()
        t0 = time.perf_counter()
        results = runner.run()
        campaign_s = time.perf_counter() - t0
        wall1 = time.time()
        spans = runner.campaign_spans
        ok = [s for s in spans if s["status"] == "ok"]
        # A run's latency: from submitting the campaign to its result.
        latencies += [(s["t_end"] - wall0) * 1e3 for s in ok]
        rates.append(len(ok) / campaign_s)
        res.attempted += len(spans)
        res.failed += len(spans) - len(ok)
        digests.add(_check_results(config, results, campaign_s, len(ok), res))
    res.metric("p50_ms", percentile(latencies, 50), "ms")
    res.metric("p90_ms", checked_percentile(latencies, 90), "ms")
    res.metric("rate_per_s", statistics.median(rates), "1/s")
    res.note(f"run results available after: p50 {percentile(latencies, 50):.1f} ms, "
             f"p90 {percentile(latencies, 90):.1f} ms ({len(latencies)} runs)")
    res.check("campaigns of one seed give identical results",
              len(digests) == 1, f"{len(digests)} distinct digests")
    value = digests.pop()
    res.note(f"campaign_digest: {value}")
    want = load_expected().get("campaign_digest")
    if seed == DEFAULT_SEED and want is not None:
        res.check("campaign_digest matches expected.json", value == want,
                  f"got {value}, recorded {want}")
    if traced:
        _layers(runner, spans, wall0, wall1, layers, res)
    return res, layers


def _check_results(config, results, campaign_s, n_tasks, res) -> str:
    """Output checks on one campaign; returns its results digest."""
    res.check("campaign has no failures", not results.failures,
              f"failures: {sorted(results.failures)}")
    cells = [
        results.skeleton_error(b, t, s)
        for b in results.benchmarks()
        for t in results.targets()
        for s in results.scenario_names
    ]
    expected_cells = (
        len(config.benchmarks) * len(config.skeleton_targets)
        * len(results.scenario_names)
    )
    finite = [e for e in cells if math.isfinite(e)]
    res.attempted += expected_cells
    res.failed += expected_cells - len(finite)
    res.check("every cell has a finite error", len(finite) == expected_cells,
              f"{len(finite)} of {expected_cells} cells")
    error_pct = sum(abs(e) for e in finite) / max(1, len(finite))
    res.note(f"campaign_s = {campaign_s:.3f} s ({n_tasks} tasks on {WORKERS} "
             f"workers); prediction_error_pct = {error_pct:.6f} % over "
             f"{len(finite)} cells")
    return digest([canonical(results.to_dict())])


def _layers(runner, spans, wall0, wall1, layers, res) -> None:
    """Per-layer figures from the campaign's worker spans and a scan of
    the store it filled."""
    from repro.trace.io import read_trace

    def busy(kinds):
        return sum(s["t_end"] - s["t_start"] for s in spans
                   if s["kind"] in kinds and s["status"] == "ok")

    window = wall1 - wall0
    sim, trace, build = busy(_SIM_KINDS), busy(_TRACE_KINDS), busy(_BUILD_KINDS)
    workers = sorted({s["worker"] for s in spans}) or [0]
    workers += list(range(len(workers), WORKERS))  # a worker with no spans
    idle = sum(
        idle_time([(s["t_start"], s["t_end"]) for s in spans if s["worker"] == w],
                  wall0, wall1)
        for w in workers[:WORKERS]
    )
    total = WORKERS * window
    other = reconcile(total, {"sim": sim, "trace": trace, "build": build, "idle": idle})
    res.note(f"worker time {total:.3f} s = sim {sim:.3f} + trace {trace:.3f} "
             f"+ build {build:.3f} + idle {idle:.3f} + other {other:.3f}")
    res.check("campaign reconciles: layers + idle + other = 2 x campaign_s",
              abs(other) <= 0.01 * total, f"other {other:.4f} s")

    sim_events = trace_events = 0
    for env in store_envelopes(runner.cache_dir):
        result = env["content"].get("result") if env["stage"] in ("run", "trace") else None
        if env["stage"] == "run":
            sim_events += int(result["n_events"])
        elif env["stage"] == "trace":
            blob = runner.cache_dir / env["blobs"]["trace"]["file"]
            trace_events += read_trace(blob).n_calls()
    objects, nbytes = scan_store(runner.cache_dir)
    layers.update({
        "sim.events": float(sim_events),
        "sim.busy_s": sim,
        "sim.events_per_s": sim_events / sim if sim else 0.0,
        "trace.busy_s": trace,
        "trace.events": float(trace_events),
        "core.build_s": build,
        "parallel.tasks": float(sum(1 for s in spans if s["status"] == "ok")),
        "parallel.idle_share": 1.0 - (sim + trace + build) / total,
        "parallel.requeued": float(sum(1 for s in spans if s["status"] != "ok")),
        "parallel.other_s": other,
        "store.objects": float(objects),
        "store.bytes": float(nbytes),
        "store.bytes_written": float(nbytes),
    })
