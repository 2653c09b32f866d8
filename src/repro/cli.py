"""Command-line interface.

Subcommands mirror the paper's workflow:

* ``trace``     — run a benchmark on the (simulated) dedicated testbed
  and write its execution trace.
* ``skeleton``  — build a performance skeleton from a trace file and
  report its properties (K, threshold, compression, minimum good
  skeleton size).
* ``codegen``   — emit the synthetic C/MPI skeleton source.
* ``predict``   — predict a benchmark's time under a sharing scenario
  via its skeleton and compare with the measured time.
* ``experiment``— run the full evaluation campaign and print a chosen
  figure (2–7) or the complete report.
* ``timeline``  — run a benchmark with the timeline recorder attached
  and export a Perfetto-loadable Chrome trace plus a per-rank
  activity summary.
* ``diagnose``  — time-resolved diagnosis of a benchmark under a
  scenario: per-rank compute/wait/transfer/collective breakdown with
  classified wait states, the run's critical path, and the skeleton
  prediction's divergence report (see :mod:`repro.diagnose`).
* ``profile``   — run the trace → skeleton pipeline with the metrics
  registry enabled and print the instrumentation report.
* ``trace validate`` — check a trace file's structure; with
  ``--salvage``, recover the valid prefix of a corrupt file.
* ``faults``    — render a fault plan (``faults render``) or run a
  benchmark under one (``faults apply``); see :mod:`repro.faults`.
* ``store``     — inspect and maintain the content-addressed artifact
  store (``ls``, ``verify``, ``gc``, ``prune``); see
  :mod:`repro.store` and ``docs/SCALING.md``.
* ``doctor``    — scan-and-repair the cache and campaign journals:
  quarantine corrupt objects, truncate torn journal lines, enforce a
  byte quota with LRU eviction (:mod:`repro.store.fsck`; see
  ``docs/ROBUSTNESS.md``).
* ``serve`` / ``publish`` / ``call`` — the online prediction service:
  a JSON-over-TCP daemon answering skeleton predictions from the
  artifact store, a registry publisher, and a one-shot client
  (:mod:`repro.serve`; see ``docs/SERVING.md``). ``call --trace``
  prints the server-side span tree for the request.
* ``trace-dump`` — inspect a flight-recorder dump written by the
  daemon (span trees, slowest requests, Perfetto export); see
  :mod:`repro.obs.tracing` and ``docs/OBSERVABILITY.md``.

Every command also accepts a global ``--metrics-out metrics.json``
flag that enables the metrics registry for the whole invocation and
writes its snapshot on exit.

Examples::

    repro-skeleton trace cg --klass B -o cg.trace
    repro-skeleton skeleton cg.trace --target 5
    repro-skeleton codegen cg.trace --target 5 -o cg_skeleton.c
    repro-skeleton predict cg --target 5 --scenario cpu-one-node
    repro-skeleton experiment --figure 7
    repro-skeleton timeline cg --klass S -o cg_timeline.json
    repro-skeleton diagnose cg --klass S --scenario cpu-one-node
    repro-skeleton profile cg --klass S --scenario cpu-one-node
    repro-skeleton --metrics-out m.json predict cg --target 5
    repro-skeleton trace validate cg.trace --salvage -o repaired.trace
    repro-skeleton faults render --stock flapping-link
    repro-skeleton faults apply cg --klass S --stock cpu-burst
    repro-skeleton experiment --workers 4 -v
    repro-skeleton experiment --workers 4 --task-timeout 300
    repro-skeleton store ls
    repro-skeleton store gc --max-age-days 30 --max-mbytes 512
    repro-skeleton doctor --max-cache-bytes 536870912
    repro-skeleton serve --port 7077 --workers 2
    repro-skeleton serve --flight-recorder flight.json --access-log
    repro-skeleton publish cg.s4 cg --klass S --target 0.05
    repro-skeleton call predict --params '{"alias": "cg.s4"}'
    repro-skeleton call predict --params '{"alias": "cg.s4"}' --trace
    repro-skeleton trace-dump flight.json --slowest 5
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from repro.cluster import paper_testbed
from repro.core import build_skeleton, generate_c_source
from repro.errors import ReproError
from repro.experiments import ExperimentConfig
from repro.experiments import figures as fig_mod
from repro.experiments.report import full_report
from repro.sim import run_program
from repro.trace import read_trace, trace_program, write_trace
from repro.util.timebase import format_duration
from repro.workloads import available_benchmarks, get_program


def _add_common_bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", choices=available_benchmarks())
    p.add_argument("--klass", default="B", help="problem class (S/W/A/B)")
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--seed", type=int, default=12345, help="workload seed")


def _resolve_scenario(name: str):
    """Scenario by name, or the dedicated baseline for 'dedicated'."""
    from repro.cluster import resolve_scenario

    return resolve_scenario(name)


def _cmd_trace(args: argparse.Namespace) -> int:
    cluster = paper_testbed()
    program = get_program(args.benchmark, args.klass, args.nprocs, args.seed)
    trace, result = trace_program(program, cluster)
    write_trace(trace, args.output)
    print(
        f"{program.name}: dedicated run {format_duration(result.elapsed)}, "
        f"{trace.n_calls()} MPI calls recorded -> {args.output}"
    )
    return 0


def _cmd_skeleton(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    bundle = build_skeleton(trace, target_seconds=args.target)
    g = bundle.goodness
    print(f"application      : {trace.program_name}")
    print(f"traced time      : {format_duration(trace.elapsed)}")
    print(f"scaling factor K : {bundle.K:.2f}")
    print(f"similarity thr   : {bundle.signature.threshold:.3f}")
    print(f"compression      : {bundle.signature.compression_ratio:.1f}x "
          f"({bundle.signature.trace_events} events -> "
          f"{bundle.signature.n_leaves()} signature entries)")
    print(f"skeleton estimate: {format_duration(bundle.estimate)}")
    print(f"min good skeleton: {format_duration(g.min_good_seconds)}")
    if bundle.flagged:
        print("WARNING: requested size is below the minimum good skeleton")
    return 0


def _cmd_signature(args: argparse.Namespace) -> int:
    """Compress a trace into a signature file, or inspect one."""
    from repro.core import compress_trace, read_signature, write_signature
    from repro.core.signature import LoopNode

    if args.trace.endswith(".sig") or args.inspect:
        sig = read_signature(args.trace)
    else:
        trace = read_trace(args.trace)
        sig = compress_trace(trace, target_ratio=args.ratio)
        if args.output:
            write_signature(sig, args.output)
            print(f"wrote {args.output}")
    from repro.core.render import render_signature

    print(render_signature(sig, ranks=args.show_ranks, max_depth=4))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Descriptive statistics of a trace file."""
    from repro.trace import imbalance_ratio, message_size_histogram, trace_stats
    from repro.util.charts import bar_chart

    trace = read_trace(args.trace)
    stats = trace_stats(trace)
    print(f"program  : {stats['program']} under {stats['scenario']}")
    print(f"elapsed  : {format_duration(stats['elapsed'])}")
    print(f"calls    : {stats['n_calls']}")
    print(f"MPI time : {stats['mpi_percent']:.1f}%")
    print(f"imbalance: {imbalance_ratio(trace):.3f} (max/min rank compute)")
    print()
    print(bar_chart("calls by type",
                    dict(sorted(stats["calls_by_type"].items()))))
    print()
    histogram = {k: v for k, v in message_size_histogram(trace).items() if v}
    print(bar_chart("calls by payload size", histogram))
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    bundle = build_skeleton(trace, target_seconds=args.target)
    source = generate_c_source(bundle.scaled, name=trace.program_name)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    else:
        print(source)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.cluster import resolve_scenario
    from repro.predict.metrics import prediction_error_percent
    from repro.predict.online import compute_prediction, normalize_request
    from repro.store import ArtifactStore, PipelineCache, canonical_json

    cluster = paper_testbed()
    params = normalize_request(
        args.benchmark,
        args.klass,
        args.nprocs,
        args.seed,
        target=args.target,
        scenario=args.scenario,
        env_seed=args.env_seed,
    )
    cache = PipelineCache(
        ArtifactStore(args.cache_dir), cluster, enabled=not args.no_cache
    )
    if not args.json:
        print(f"predicting {args.benchmark}.{args.klass} under "
              f"{args.scenario} (store-backed pipeline) ...")
    payload = compute_prediction(params, cache, cluster)
    if args.json:
        # Canonical JSON: byte-identical to a served prediction for the
        # same inputs (tests/test_serve.py pins this).
        print(canonical_json(payload))
        return 0
    print(f"app dedicated    : "
          f"{format_duration(payload['app_dedicated_seconds'])}")
    print(f"skeleton probe   : {format_duration(payload['probe_seconds'])}")
    print(f"predicted time   : "
          f"{format_duration(payload['predicted_seconds'])}")
    if args.verify:
        scenario = resolve_scenario(args.scenario)
        program = get_program(
            args.benchmark, args.klass, args.nprocs, args.seed
        )
        actual = run_program(program, cluster, scenario, seed=1).elapsed
        error = prediction_error_percent(
            payload["predicted_seconds"], actual
        )
        print(f"measured time    : {format_duration(actual)}")
        print(f"prediction error : {error:.1f}%")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Validate skeleton predictions for one benchmark across scenarios."""
    from repro.predict import validate_skeletons

    cluster = paper_testbed()
    program = get_program(args.benchmark, args.klass, args.nprocs, args.seed)
    print(f"validating {program.name} (trace + "
          f"{len(args.targets)} skeleton sizes x 5 scenarios) ...")
    report = validate_skeletons(
        program, cluster, targets=tuple(args.targets)
    )
    print(report.render())
    print(f"average error: {report.average_error():.1f}%   "
          f"worst: {report.worst().error_percent:.1f}% "
          f"({report.worst().scenario_name}, "
          f"{report.worst().target_seconds:g}s)")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Run a benchmark with the timeline recorder; export Chrome trace."""
    from repro.obs import TimelineRecorder

    if args.samples < 0:
        raise ReproError("--samples must be >= 0")
    cluster = paper_testbed()
    scenario = _resolve_scenario(args.scenario)
    program = get_program(args.benchmark, args.klass, args.nprocs, args.seed)
    # Pick the sampling period from a quick untraced run so that any
    # run length yields ~args.samples utilization samples.
    sample_period = 0.0
    if args.samples > 0:
        sizing = run_program(program, cluster, scenario, seed=args.env_seed)
        sample_period = sizing.elapsed / args.samples
    recorder = TimelineRecorder(
        program_name=program.name,
        scenario_name=scenario.name,
        sample_period=sample_period,
    )
    result = run_program(
        program, cluster, scenario, hook=recorder, seed=args.env_seed
    )
    recorder.write_chrome_trace(args.output)
    trace = recorder.to_chrome_trace()
    print(
        f"{program.name} under {scenario.name}: "
        f"{format_duration(result.elapsed)}, "
        f"{len(trace['traceEvents'])} trace events -> {args.output}"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    print()
    print(recorder.render_summary())
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    """Time-resolved diagnosis + divergence report for one benchmark."""
    import json

    from repro.diagnose import (
        diagnose_run,
        explain_divergence,
        extract_critical_path,
    )

    cluster = paper_testbed()
    scenario = _resolve_scenario(args.scenario)
    program = get_program(args.benchmark, args.klass, args.nprocs, args.seed)
    print(f"tracing {program.name} on the dedicated testbed ...")
    trace, dedicated = trace_program(program, cluster)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle = build_skeleton(trace, target_seconds=args.target)
    print(
        f"diagnosing {program.name} vs its {args.target:g}s skeleton "
        f"under {scenario.name} ..."
    )
    collector, _ = diagnose_run(
        program, cluster, scenario, seed=args.env_seed
    )
    critical = extract_critical_path(collector)
    report = explain_divergence(
        program,
        bundle.program,
        cluster,
        scenario,
        app_dedicated_seconds=dedicated.elapsed,
        app_seed=args.env_seed,
    )
    print()
    print(collector.render_breakdown())
    print()
    print(critical.render())
    print()
    print(report.render())
    if args.output:
        doc = {
            "program": program.name,
            "scenario": scenario.name,
            "breakdown": {
                str(r): cats
                for r, cats in collector.detailed_breakdown().items()
            },
            "wait_states": collector.wait_state_totals(),
            "critical_path": critical.to_dict(),
            "divergence": report.to_dict(),
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\ndiagnosis report written to {args.output}")
    if args.timeline:
        collector.write_chrome_trace(args.timeline)
        print(f"timeline (with wait-state tracks) written to {args.timeline}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the trace -> skeleton pipeline with metrics enabled."""
    from repro.obs import enabled_metrics, get_metrics, render_metrics

    cluster = paper_testbed()
    scenario = _resolve_scenario(args.scenario)
    program = get_program(args.benchmark, args.klass, args.nprocs, args.seed)
    # Honour a registry already enabled by --metrics-out; otherwise
    # enable a fresh one for the duration of this command.
    if get_metrics().enabled:
        registry = get_metrics()
        ctx = None
    else:
        ctx = enabled_metrics()
        registry = ctx.__enter__()
    try:
        print(f"profiling {program.name}: trace + skeleton ({args.target:g}s) "
              f"+ run under {scenario.name} ...")
        trace, _ = trace_program(program, cluster)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = build_skeleton(trace, target_seconds=args.target)
        run_program(bundle.program, cluster, scenario, seed=args.env_seed)
        print()
        print(render_metrics(registry))
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    """Validate a trace file; optionally salvage a corrupt one."""
    from repro.trace import read_trace_salvage, validate_trace

    corrupt = False
    if args.salvage:
        trace, report = read_trace_salvage(args.trace)
        print(report.describe())
        corrupt = not report.clean
        if args.output:
            write_trace(trace, args.output)
            print(f"salvaged trace written to {args.output}")
    else:
        trace = read_trace(args.trace)
    issues = validate_trace(trace)
    if issues:
        print(f"{args.trace}: INVALID ({len(issues)} issue(s))")
        for issue in issues:
            print(f"  - {issue}")
        return 1
    verdict = "OK (salvaged prefix)" if corrupt else "OK"
    print(
        f"{args.trace}: {verdict} — {trace.nranks} rank(s), "
        f"{trace.n_calls()} call(s)"
    )
    return 1 if corrupt else 0


def _load_fault_plan(args: argparse.Namespace):
    """A fault plan from ``--stock NAME`` or a plan JSON file."""
    from repro.faults import FaultPlan, stock_plans

    if args.stock is not None:
        plans = stock_plans(seed=args.plan_seed)
        if args.stock not in plans:
            raise ReproError(
                f"unknown stock plan {args.stock!r}; "
                f"choose from {sorted(plans)}"
            )
        return plans[args.stock]
    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as fh:
            return FaultPlan.from_json(fh.read())
    raise ReproError("provide a fault plan: --stock NAME or --plan FILE")


def _cmd_faults_render(args: argparse.Namespace) -> int:
    """Render a fault plan as text; optionally export it as JSON."""
    plan = _load_fault_plan(args)
    print(plan.render())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(plan.to_json() + "\n")
        print(f"plan written to {args.output}")
    return 0


def _cmd_faults_apply(args: argparse.Namespace) -> int:
    """Run a benchmark under a fault plan; report the slowdown."""
    from repro.cluster.contention import Scenario
    from repro.obs import TimelineRecorder

    plan = _load_fault_plan(args)
    cluster = paper_testbed()
    program = get_program(args.benchmark, args.klass, args.nprocs, args.seed)
    scenario = Scenario(
        name=plan.name or "faults",
        description="fault plan applied via the CLI",
        fault_plan=plan,
    )
    baseline = run_program(program, cluster, seed=args.env_seed)
    recorder = TimelineRecorder(
        program_name=program.name, scenario_name=scenario.name
    )
    result = run_program(
        program, cluster, scenario, hook=recorder, seed=args.env_seed
    )
    print(f"plan             : {plan.describe()}")
    print(f"fault-free run   : {format_duration(baseline.elapsed)}")
    print(f"faulted run      : {format_duration(result.elapsed)}")
    print(f"slowdown         : {result.elapsed / baseline.elapsed:.3f}x")
    print(f"events applied   : {len(recorder.faults)}")
    if args.timeline:
        recorder.write_chrome_trace(args.timeline)
        print(f"timeline written to {args.timeline} (Perfetto-loadable)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentRunner
    from repro.parallel.supervisor import SupervisorConfig

    config = ExperimentConfig(include_volatile=args.volatile)
    runner = ExperimentRunner(
        config,
        cache_dir=args.cache_dir,
        verbose=args.verbose,
        workers=args.workers,
        supervisor=SupervisorConfig(task_timeout=args.task_timeout),
        journal_durability=args.journal_durability,
    )
    results = runner.run(force=args.force, resume=args.resume)
    if args.campaign_timeline:
        n = runner.write_campaign_timeline(args.campaign_timeline)
        print(
            f"campaign timeline ({n} task span(s)) written to "
            f"{args.campaign_timeline} (Perfetto-loadable)",
            file=sys.stderr,
        )
    builders = {
        2: fig_mod.figure2_activity,
        3: fig_mod.figure3_error_by_benchmark,
        4: fig_mod.figure4_good_skeletons,
        5: fig_mod.figure5_error_by_size,
        6: fig_mod.figure6_error_by_scenario,
        7: fig_mod.figure7_baselines,
    }
    if args.figure is None:
        print(full_report(results))
    else:
        print(builders[args.figure](results).render())
    if args.diagnose:
        from repro.diagnose import (
            campaign_divergence,
            render_campaign_divergence,
        )

        reports = campaign_divergence(runner, results)
        print()
        print(render_campaign_divergence(reports))
        n = sum(len(per_bench) for per_bench in reports.values())
        print(
            f"{n} divergence report(s) persisted to the artifact store "
            f"('diagnosis' stage; see repro-skeleton store ls)",
            file=sys.stderr,
        )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Inspect / maintain the content-addressed artifact store."""
    import time as _time

    from repro.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    action = args.store_command
    if action == "ls":
        from repro.store import canonical_json

        # Deterministic order: stage, newest first, digest as the
        # total-order tiebreak (equal timestamps are common on fast
        # writes). The registry's `list` verb and --json consumers
        # rely on it being stable across invocations.
        entries = sorted(
            store.entries(),
            key=lambda e: (e["stage"], -e["created"], e["digest"]),
        )
        if args.json:
            print(canonical_json(entries))
            return 0
        if not entries:
            print(f"store at {store.root} is empty")
            return 0
        now = _time.time()
        by_stage: dict[str, int] = {}
        print(f"{'STAGE':<10} {'DIGEST':<34} {'AGE':>10} {'BYTES':>10}")
        for e in entries:
            flag = "  CORRUPT" if e["corrupt"] else ""
            print(
                f"{e['stage']:<10} {e['digest']:<34} "
                f"{format_duration(max(0.0, now - e['created'])):>10} "
                f"{e['bytes']:>10}{flag}"
            )
            by_stage[e["stage"]] = by_stage.get(e["stage"], 0) + 1
        summary = ", ".join(f"{n} {s}" for s, n in sorted(by_stage.items()))
        print(f"\n{len(entries)} artifact(s) ({summary}), "
              f"{store.total_bytes()} bytes at {store.root}")
        return 0
    if action == "verify":
        issues = store.verify()
        if not issues:
            print(f"store at {store.root}: OK "
                  f"({len(store.entries())} artifact(s) verified)")
            return 0
        print(f"store at {store.root}: {len(issues)} issue(s)")
        for issue in issues:
            print(f"  - {issue}")
        return 1
    if action == "gc":
        if args.max_age_days is None and args.max_mbytes is None:
            raise ReproError("gc needs --max-age-days and/or --max-mbytes")
        evicted = store.gc(
            max_age_seconds=(
                None if args.max_age_days is None
                else args.max_age_days * 86400.0
            ),
            max_bytes=(
                None if args.max_mbytes is None
                else int(args.max_mbytes * 1024 * 1024)
            ),
        )
        print(f"evicted {len(evicted)} artifact(s); "
              f"store now {store.total_bytes()} bytes")
        return 0
    if action == "prune":
        removed = store.prune()
        print(f"removed {removed['objects']} corrupt object(s), "
              f"{removed['blobs']} orphan blob(s), and "
              f"{removed['tmp']} stale temp file(s)")
        return 0
    raise ReproError(f"unknown store action {action!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the online prediction service (see docs/SERVING.md)."""
    from repro.obs import MetricsRegistry, get_metrics, set_metrics
    from repro.obs.tracing import Tracer, set_tracer
    from repro.parallel.supervisor import SupervisorConfig
    from repro.serve import PredictionServer, PredictionService, WorkerPool

    # metricz must answer with real numbers even without --metrics-out,
    # and tracez/slowz likewise need a live tracer: the flight recorder
    # is always on in the daemon (bounded ring, O(1) per span).
    if not get_metrics().enabled:
        set_metrics(MetricsRegistry(enabled=True))
    if not args.no_trace:
        # Install before the pool forks so workers inherit the tracer.
        set_tracer(Tracer(
            enabled=True,
            capacity=args.trace_ring,
            dump_path=args.flight_recorder,
        ))
    pool = None
    if args.workers > 0:
        pool = WorkerPool(
            cache_dir=args.cache_dir,
            workers=args.workers,
            supervisor=SupervisorConfig(task_timeout=args.task_timeout),
        )
    service = PredictionService(cache_dir=args.cache_dir, pool=pool)
    server = PredictionServer(
        service,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        max_concurrency=args.concurrency,
        default_deadline=args.deadline,
        drain_grace=args.drain_grace,
        access_log=args.access_log,
    )
    print(f"store: {service.store.root}", file=sys.stderr, flush=True)
    server.run()
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    """Build (or load) a workload's skeleton and register an alias."""
    from repro.serve import PredictionService

    service = PredictionService(cache_dir=args.cache_dir)
    reply = service.handle("publish", {
        "alias": args.alias,
        "bench": args.benchmark,
        "klass": args.klass,
        "nprocs": args.nprocs,
        "workload_seed": args.seed,
        "target": args.target,
    })
    if not reply["ok"]:
        print(f"error: {reply['error']['message']}", file=sys.stderr)
        return 1
    entry = reply["result"]
    print(f"published {entry['alias']} "
          f"({entry['workload']['bench']}.{entry['workload']['klass']} "
          f"x{entry['workload']['nprocs']}, target {entry['target']:g}s)")
    print(f"  trace    {entry['trace_digest']}")
    print(f"  skeleton {entry['skeleton_digest']}")
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    """One client request against a running service; prints the reply
    as canonical JSON and exits non-zero on a non-ok reply."""
    import json

    from repro.serve import ServiceClient
    from repro.store import canonical_json

    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ReproError("--params must be a JSON object")
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    trace_ctx = None
    if args.trace:
        from repro.obs.tracing import new_root_context

        trace_ctx = new_root_context().to_dict()
    reply = client.call(
        args.verb, params,
        deadline_ms=args.deadline_ms,
        trace=trace_ctx,
    )
    # The span tree goes to stderr and the trace payload is stripped,
    # so stdout stays byte-identical with or without --trace.
    trace_reply = reply.pop("trace", None)
    print(canonical_json(reply))
    if args.trace:
        from repro.obs.tracing import render_span_tree

        spans = (trace_reply or {}).get("spans") or []
        print(render_span_tree(spans), file=sys.stderr)
    return 0 if reply.get("ok") else 1


def _cmd_trace_dump(args: argparse.Namespace) -> int:
    """Inspect a flight-recorder dump file (span trees, slowest
    requests); optionally convert it to a Perfetto-loadable trace."""
    import json

    from repro.obs.tracing import (
        FlightRecorder,
        render_span_tree,
        spans_to_chrome_trace,
    )

    with open(args.dump, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [s for s in data.get("spans", []) if isinstance(s, dict)]
    if args.trace_id:
        spans = [s for s in spans if s.get("trace_id") == args.trace_id]
    print(f"flight recorder dump: {args.dump}")
    print(f"  reason   : {data.get('reason', '?')}")
    print(f"  spans    : {len(spans)} retained, "
          f"{data.get('dropped_spans', 0)} dropped "
          f"(ring capacity {data.get('capacity', '?')})")
    events = data.get("events", [])
    if events:
        print(f"  events   : {len(events)} "
              f"(last: {events[-1].get('name', '?')})")
    print()
    print(render_span_tree(spans))
    if args.slowest:
        recorder = FlightRecorder(capacity=max(1, len(spans)))
        recorder.record_remote(spans)
        print()
        print(f"slowest {args.slowest} request(s):")
        for entry in recorder.slowest(args.slowest):
            root = entry["span"]
            print(f"  {root['name']} {entry['seconds'] * 1e3:.1f}ms "
                  f"[{root.get('status', '?')}] "
                  f"trace={root.get('trace_id', '?')}")
            for name, stage in entry["stages"].items():
                print(f"    {name}: {stage['seconds'] * 1e3:.1f}ms "
                      f"x{stage['count']}")
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(spans_to_chrome_trace(spans), fh)
            fh.write("\n")
        print(f"chrome trace written to {args.chrome}", file=sys.stderr)
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Scan-and-repair the artifact store and campaign journals."""
    import json

    from repro.store import ArtifactStore, fsck

    store = ArtifactStore(args.cache_dir)
    report = fsck(
        store,
        repair=not args.dry_run,
        max_cache_bytes=args.max_cache_bytes,
    )
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"fsck report written to {args.report}", file=sys.stderr)
    # Dry run: issues found means a non-zero exit so scripts can gate
    # on it; after a repair the tree is healthy again, so exit 0.
    if args.dry_run and not report.clean:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skeleton",
        description="Automatic construction and evaluation of performance "
        "skeletons (IPPS 2005 reproduction)",
    )
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="enable the metrics registry for this invocation and write "
        "its JSON snapshot to PATH on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace a benchmark, write a trace file")
    _add_common_bench_args(p)
    p.add_argument("-o", "--output", default="app.trace")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("skeleton", help="build a skeleton from a trace file")
    p.add_argument("trace")
    p.add_argument("--target", type=float, default=5.0,
                   help="desired skeleton execution time (s)")
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser(
        "signature", help="compress a trace into a signature file / inspect one"
    )
    p.add_argument("trace", help="a .trace file (or a .sig file to inspect)")
    p.add_argument("--ratio", type=float, default=2.0,
                   help="target compression ratio Q")
    p.add_argument("-o", "--output", default=None, help="signature output path")
    p.add_argument("--inspect", action="store_true",
                   help="treat the input as an existing signature file")
    p.add_argument("--show-ranks", type=int, default=4)
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("stats", help="descriptive statistics of a trace")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("codegen", help="emit the synthetic C/MPI skeleton")
    p.add_argument("trace")
    p.add_argument("--target", type=float, default=5.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_codegen)

    p = sub.add_parser("predict", help="predict under a sharing scenario")
    _add_common_bench_args(p)
    p.add_argument("--target", type=float, default=5.0)
    p.add_argument("--scenario", default="cpu-one-node")
    p.add_argument("--env-seed", type=int, default=0,
                   help="environment randomness seed")
    p.add_argument("--verify", action="store_true",
                   help="also measure the application and report the error")
    p.add_argument("--json", action="store_true",
                   help="print the prediction payload as canonical JSON "
                   "(byte-identical to the served result)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="artifact store root (default: $REPRO_CACHE_DIR "
                   "or <project root>/.repro_cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the artifact store (recompute everything)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "validate", help="skeleton-vs-reality validation for one benchmark"
    )
    _add_common_bench_args(p)
    p.add_argument("--targets", type=float, nargs="+", default=[5.0, 1.0],
                   help="skeleton sizes to validate (seconds)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "trace-validate",
        help="validate a trace file ('trace validate' works too)",
    )
    p.add_argument("trace", help="trace file to check")
    p.add_argument("--salvage", action="store_true",
                   help="recover the valid prefix of a corrupt file")
    p.add_argument("-o", "--output", default=None,
                   help="with --salvage: write the recovered trace here")
    p.set_defaults(func=_cmd_trace_validate)

    p = sub.add_parser("faults", help="render or apply fault plans")
    fsub = p.add_subparsers(dest="faults_command", required=True)
    for name, helptext, func in (
        ("render", "print a fault plan (optionally export JSON)",
         _cmd_faults_render),
        ("apply", "run a benchmark under a fault plan", _cmd_faults_apply),
    ):
        fp = fsub.add_parser(name, help=helptext)
        if name == "apply":
            _add_common_bench_args(fp)
            fp.add_argument("--env-seed", type=int, default=0,
                            help="environment randomness seed")
            fp.add_argument("--timeline", default=None, metavar="PATH",
                            help="also write a Perfetto timeline JSON")
        fp.add_argument("--stock", default=None,
                        help="a stock plan by name (see repro.faults)")
        fp.add_argument("--plan", default=None, metavar="FILE",
                        help="a fault-plan JSON file")
        fp.add_argument("--plan-seed", type=int, default=0,
                        help="seed for stock plan generation")
        if name == "render":
            fp.add_argument("-o", "--output", default=None,
                            help="export the plan as JSON")
        fp.set_defaults(func=func)

    p = sub.add_parser("experiment", help="run the evaluation campaign")
    p.add_argument("--figure", type=int, choices=range(2, 8), default=None)
    p.add_argument("--force", action="store_true",
                   help="ignore cached results")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted campaign from its journal")
    p.add_argument("--volatile", action="store_true",
                   help="also score skeletons under the volatile "
                   "fault-plan scenarios")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="run the campaign on N worker processes "
                   "(results are byte-identical to serial)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="with --workers: hard wall-clock cap per task; "
                   "a worker past it is presumed hung, cancelled, and "
                   "its task re-queued (an adaptive p95-based soft "
                   "deadline applies either way)")
    p.add_argument("--journal-durability", choices=("fsync", "flush"),
                   default="fsync",
                   help="fsync every journal line (default, survives "
                   "power loss) or only flush to the OS (faster; "
                   "survives process crashes)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="artifact store root (default: $REPRO_CACHE_DIR "
                   "or <project root>/.repro_cache)")
    p.add_argument("--campaign-timeline", default=None, metavar="PATH",
                   help="write the campaign's task spans as a "
                   "Perfetto-loadable Chrome trace, one lane per worker "
                   "(a serial campaign uses lane 0)")
    p.add_argument("--diagnose", action="store_true",
                   help="also emit a per-scenario divergence report "
                   "(prediction-error decomposition; persisted in the "
                   "artifact store)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="structured per-run progress lines with ETA")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "store", help="inspect / maintain the artifact store"
    )
    ssub = p.add_subparsers(dest="store_command", required=True)
    for name, helptext in (
        ("ls", "list stored artifacts by stage"),
        ("verify", "integrity-check every artifact"),
        ("gc", "evict artifacts by age / size budget"),
        ("prune", "remove corrupt objects and orphan blobs"),
    ):
        sp = ssub.add_parser(name, help=helptext)
        sp.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="store root (default: $REPRO_CACHE_DIR or "
                       "<project root>/.repro_cache)")
        if name == "ls":
            sp.add_argument("--json", action="store_true",
                            help="print the entry index as canonical JSON")
        if name == "gc":
            sp.add_argument("--max-age-days", type=float, default=None,
                            help="evict artifacts older than this many days")
            sp.add_argument("--max-mbytes", type=float, default=None,
                            help="shrink the store to this many MiB "
                            "(oldest first)")
        sp.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "doctor",
        help="scan-and-repair the artifact store and campaign journals",
    )
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="store root (default: $REPRO_CACHE_DIR or "
                   "<project root>/.repro_cache)")
    p.add_argument("--max-cache-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="evict least-recently-used artifacts until the "
                   "store fits this byte budget")
    p.add_argument("--dry-run", action="store_true",
                   help="report issues without repairing; exit 1 if any "
                   "are found")
    p.add_argument("-o", "--report", default=None, metavar="PATH",
                   help="also write the FsckReport as JSON")
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "serve",
        help="run the online prediction service (JSON-over-TCP daemon)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7077,
                   help="TCP port (0 picks a free one; the ready line "
                   "reports the choice)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="cold predictions run on N supervised worker "
                   "processes (0: compute inline, no isolation)")
    p.add_argument("--max-pending", type=int, default=16,
                   help="bounded admission: heavy requests beyond this "
                   "are refused with an explicit 503 overload reply")
    p.add_argument("--concurrency", type=int, default=2,
                   help="admitted requests executing at once")
    p.add_argument("--deadline", type=float, default=120.0,
                   metavar="SECONDS",
                   help="default per-request deadline (clients may "
                   "lower it per call via deadline_ms)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   metavar="SECONDS",
                   help="SIGTERM drain: wait this long for in-flight "
                   "requests before exiting")
    p.add_argument("--task-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="hard wall-clock cap per worker prediction; a "
                   "worker past it is presumed hung, cancelled, and "
                   "respawned")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="artifact store root (default: $REPRO_CACHE_DIR "
                   "or <project root>/.repro_cache)")
    p.add_argument("--flight-recorder", default=None, metavar="PATH",
                   help="dump the flight recorder (recent spans/events) "
                   "to PATH on error replies, worker trouble, and drain")
    p.add_argument("--trace-ring", type=int, default=2048, metavar="N",
                   help="flight-recorder capacity: completed spans kept "
                   "in the in-memory ring")
    p.add_argument("--access-log", action="store_true",
                   help="log one structured JSON line per request to "
                   "stderr (verb, code, latency, trace id)")
    p.add_argument("--no-trace", action="store_true",
                   help="disable request tracing and the flight recorder")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "publish",
        help="build a workload's skeleton and register a named alias",
    )
    p.add_argument("alias",
                   help="registry alias: NAME (auto-versioned) or NAME@vN")
    _add_common_bench_args(p)
    p.add_argument("--target", type=float, default=5.0,
                   help="skeleton target size (seconds)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="artifact store root (default: $REPRO_CACHE_DIR "
                   "or <project root>/.repro_cache)")
    p.set_defaults(func=_cmd_publish)

    p = sub.add_parser(
        "call",
        help="send one request to a running service, print the reply",
    )
    p.add_argument("verb",
                   help="protocol verb: ping, healthz, metricz, tracez, "
                   "slowz, resolve, list, publish, predict")
    p.add_argument("--params", default=None, metavar="JSON",
                   help="request parameters as a JSON object")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7077)
    p.add_argument("--timeout", type=float, default=60.0,
                   help="client socket timeout (seconds)")
    p.add_argument("--deadline-ms", type=int, default=None,
                   help="server-side deadline for this request")
    p.add_argument("--trace", action="store_true",
                   help="send a trace context with the request and "
                   "print the server's span tree to stderr")
    p.set_defaults(func=_cmd_call)

    p = sub.add_parser(
        "trace-dump",
        help="inspect a flight-recorder dump (span trees, slowest "
        "requests, Perfetto export)",
    )
    p.add_argument("dump", help="flight-recorder JSON dump file")
    p.add_argument("--trace-id", default=None,
                   help="show only this trace's spans")
    p.add_argument("--slowest", type=int, default=0, metavar="K",
                   help="also list the K slowest requests with "
                   "per-stage breakdown")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="write the spans as a Perfetto-loadable Chrome "
                   "trace")
    p.set_defaults(func=_cmd_trace_dump)

    p = sub.add_parser(
        "timeline",
        help="record a run's per-rank timeline as Perfetto-loadable JSON",
    )
    _add_common_bench_args(p)
    p.add_argument("--scenario", default="dedicated",
                   help="sharing scenario (default: dedicated)")
    p.add_argument("--env-seed", type=int, default=0,
                   help="environment randomness seed")
    p.add_argument("--samples", type=int, default=120,
                   help="target number of utilization samples (0 disables)")
    p.add_argument("-o", "--output", default="timeline.json")
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "diagnose",
        help="time-resolved diagnosis: breakdown, wait states, critical "
        "path, and the skeleton's divergence report",
    )
    _add_common_bench_args(p)
    p.add_argument("--scenario", default="cpu-one-node",
                   help="sharing scenario (default: cpu-one-node)")
    p.add_argument("--target", type=float, default=1.0,
                   help="skeleton target size for the divergence report "
                   "(seconds)")
    p.add_argument("--env-seed", type=int, default=0,
                   help="environment randomness seed")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write the full diagnosis report as JSON")
    p.add_argument("--timeline", default=None, metavar="PATH",
                   help="write a Perfetto timeline with wait-state tracks")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser(
        "profile",
        help="run trace -> skeleton -> probe with the metrics registry on",
    )
    _add_common_bench_args(p)
    p.add_argument("--scenario", default="cpu-one-node")
    p.add_argument("--target", type=float, default=5.0,
                   help="skeleton target size (seconds)")
    p.add_argument("--env-seed", type=int, default=0,
                   help="environment randomness seed")
    p.set_defaults(func=_cmd_profile)

    return parser


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    """Map the natural ``trace validate FILE`` spelling onto the
    ``trace-validate`` subcommand (``trace`` already takes a benchmark
    name as its positional, so argparse cannot nest it)."""
    argv = list(argv)
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--metrics-out":
            i += 2
            continue
        if tok.startswith("-"):
            i += 1
            continue
        if tok == "trace" and i + 1 < len(argv) and argv[i + 1] == "validate":
            argv[i : i + 2] = ["trace-validate"]
        break
    return argv


def _persist_metrics_snapshot(args: argparse.Namespace, registry) -> None:
    """Also persist the ``--metrics-out`` snapshot into the artifact
    store (stage ``metrics``, keyed by the invoked command), so
    ``store ls`` tracks instrumentation across campaign stages."""
    from repro.store import ArtifactStore

    try:
        store = ArtifactStore(getattr(args, "cache_dir", None))
        key = store.key("metrics", {"command": args.command})
        store.put(key, {"command": args.command, "metrics": registry.snapshot()})
        print(
            f"metrics snapshot persisted to the artifact store "
            f"({key.digest})",
            file=sys.stderr,
        )
    except (ReproError, OSError) as exc:
        print(f"warning: metrics snapshot not persisted: {exc}",
              file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _normalize_argv(sys.argv[1:] if argv is None else argv)
    )
    warnings.simplefilter("default")
    from repro.obs import MetricsRegistry, set_metrics

    registry = None
    if args.metrics_out:
        registry = MetricsRegistry(enabled=True)
        set_metrics(registry)
    try:
        rc = args.func(args)
        if registry is not None:
            registry.write(args.metrics_out)
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
            _persist_metrics_snapshot(args, registry)
        return rc
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if registry is not None:
            set_metrics(None)


if __name__ == "__main__":
    raise SystemExit(main())
