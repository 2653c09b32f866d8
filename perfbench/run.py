"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload again with per-layer measurement and reports the per-layer
metrics. ``--all`` runs every workload both ways, prints both sets and
the tracing overhead (traced minus untraced end-to-end value). The
last line of a single-workload run is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed output check prints ``correct: false`` and exits 1. See
``perfbench/NOTES.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import DEFAULT_SEED, ROOT, Scratch, import_program, load_expected

WORKLOADS = ("campaign", "serve-warm", "serve-mixed")

#: The metric declarations (name -> unit) live in BENCHMARK.json.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Reported by ``--trace 0``, with one meaning per workload (NOTES.md).
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
#: Reported by ``--trace 1``; a layer a workload does not exercise reads 0.
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

#: Counters that must repeat exactly for one seed; recorded for the
#: default seed in expected.json and checked there.
EXACT = ("sim.events", "trace.events", "parallel.tasks", "store.objects",
         "store.bytes", "store.bytes_read", "store.bytes_written")


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """Run one workload; returns ``(Result, per-layer dict)``."""
    import campaign
    import serving

    fn = {
        "campaign": campaign.run,
        "serve-warm": serving.serve_warm,
        "serve-mixed": serving.serve_mixed,
    }[name]
    with Scratch(name) as work:
        res, layers = fn(seed, seconds, traced, work)
    if traced:
        _check_exact(name, seed, layers, res)
    return res, layers


def _check_exact(name: str, seed: int, layers: dict, res) -> None:
    recorded = load_expected().get("exact", {}).get(name, {})
    for key in EXACT:
        value = layers.get(key, 0.0)
        res.note(f"exact {key} = {value:.0f}")
        if seed == DEFAULT_SEED and key in recorded:
            res.check(f"exact {key} matches expected.json",
                      value == recorded[key],
                      f"got {value:.0f}, recorded {recorded[key]:.0f}")


def _report(name: str, res, layers: dict, traced: bool) -> dict:
    print(f"== {name} ({'traced' if traced else 'untraced'})")
    for line in res.lines:
        print(f"  {line}")
    for check, ok, detail in res.checks:
        if not ok:
            print(f"  CHECK FAILED: {check}: {detail}")
    if traced:
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": res.metrics[k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    for key, m in metrics.items():
        print(f"  {key:28s} {m['value']:14.6f} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    # SIGTERM unwinds like an exception, so the server subprocess and
    # the scratch directory are cleaned up by their context managers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import_program()

    if args.all:
        correct = True
        for name in WORKLOADS:
            plain, _ = run_workload(name, args.seed, args.seconds, False)
            _report(name, plain, {}, False)
            traced, layers = run_workload(name, args.seed, args.seconds, True)
            _report(name, traced, layers, True)
            print(f"  tracing overhead (traced - untraced):")
            for key, unit in END_TO_END.items():
                delta = traced.metrics[key][0] - plain.metrics[key][0]
                print(f"    {key:26s} {delta:+14.6f} {unit}")
            correct = correct and plain.correct and traced.correct
        return 0 if correct else 1

    res, layers = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    metrics = _report(args.workload, res, layers, bool(args.trace))
    print(json.dumps({
        "correct": res.correct,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
