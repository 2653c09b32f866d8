"""Golden run digests: the engine's byte-identity bar.

Every ``RunResult`` the simulator produces, and every trace the tracer
records, is pinned here by a digest of its canonical JSON. The pinned
values were recorded before the engine's per-event fast paths existed
(scalar one-task and one-resource fills, the empty-component skip, the
hook-free dispatch), so any change to the engine or the fluid solver
that moves a single float, event count or trace parameter fails here.

* The tier-1 case runs ``is`` and ``mg`` (class S) under the dedicated
  testbed, the five paper scenarios and the volatile scenarios, at two
  seeds, plus one traced ``cg`` run. It takes about a second.
* The tier-2 case runs all six paper benchmarks under the same
  scenarios and under every stock fault plan.
* The heap-layout case recomputes the tier-1 digests, plus ``mg`` under
  the ``lossy-net`` plan, in a ``spawn`` subprocess that first churns
  its allocator. ``Task`` and ``Resource`` hash by identity, so a result
  that depended on set iteration order would differ between the two
  processes. ``mg`` under ``lossy-net`` is the sensitive case: tasks
  finishing at the same instant run in the order they were pushed, and
  message drops draw from one stream in flow-start order, so a push
  order that followed set order gave that run one of three results.
  The tier-2 ``mg`` digest pins the engine's admission-order pushes.

A deliberate change to simulated behaviour re-pins these digests and
says so in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from multiprocessing import get_context

import pytest

from repro.cluster import paper_testbed
from repro.cluster.contention import DEDICATED, Scenario
from repro.cluster.scenarios import paper_scenarios, volatile_scenarios
from repro.experiments.config import PAPER_BENCHMARKS
from repro.faults import stock_plans
from repro.sim import run_program
from repro.trace import trace_program
from repro.workloads import get_program

SEEDS = (1, 2)
TIER1_APPS = ("is", "mg")


def _scenarios(with_plans: bool = False) -> list[Scenario]:
    scenarios = [DEDICATED, *paper_scenarios(), *volatile_scenarios()]
    if with_plans:
        scenarios += [
            Scenario(name=f"plan:{name}", fault_plan=plan)
            for name, plan in sorted(stock_plans().items())
        ]
    return scenarios


def _digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def app_digest(app: str, with_plans: bool = False) -> str:
    """Digest of every run of ``app`` (class S, 4 ranks) under the
    scenario matrix at each seed."""
    cluster = paper_testbed()
    program = get_program(app, "S", 4)
    results = [
        asdict(run_program(program, cluster, scenario, seed=seed))
        for scenario in _scenarios(with_plans)
        for seed in SEEDS
    ]
    return _digest(results)


def traced_digest(app: str = "cg") -> str:
    """Digest of a traced dedicated run: the run result plus every
    trace record, with call parameters in the order the engine built
    them (``write_trace`` preserves that order on disk)."""
    trace, result = trace_program(get_program(app, "S", 4), paper_testbed())
    records = [
        [[rec.call, list(rec.params.items()), rec.t_start, rec.t_end]
         for rec in rank_records]
        for rank_records in trace.records
    ]
    return _digest({
        "result": asdict(result),
        "trace": [trace.program_name, trace.scenario_name, trace.nranks,
                  list(trace.finish_times), records],
    })


def tier1_digests() -> dict[str, str]:
    digests = {app: app_digest(app) for app in TIER1_APPS}
    digests["cg.traced"] = traced_digest("cg")
    return digests


def lossy_digest(app: str = "mg") -> str:
    """Digest of ``app`` under the stock ``lossy-net`` plan at each seed."""
    scenario = Scenario(name="plan:lossy-net", fault_plan=stock_plans()["lossy-net"])
    program = get_program(app, "S", 4)
    return _digest([
        asdict(run_program(program, paper_testbed(), scenario, seed=seed))
        for seed in SEEDS
    ])


def layout_digests() -> dict[str, str]:
    return {**tier1_digests(), "mg.lossy-net": lossy_digest("mg")}


#: Recorded before the engine fast paths; see the module docstring.
GOLDEN_TIER1 = {
    "is": "316f89d4f9eefb9f3c8e1bfb66e62bb2",
    "mg": "1ec18a7a34b8c0b9b06d563979c19e7a",
    "cg.traced": "8f88c71fbdd32135a2d033baba8b620f",
}

GOLDEN_TIER2 = {
    "bt": "cb1ef0a53813b0a0e8b392217a73712b",
    "cg": "5261af552d490f92a2fe00dd8677331e",
    "is": "7436cf32769b85822036665712ece00a",
    "lu": "7c152f5555666b848fc0bab5d4f3db19",
    "mg": "5505a1ac504d57eca5d436b813371ec4",
    "sp": "5df16f342c4c784505a35a4ea200a78b",
}


def test_golden_digests_tier1():
    assert tier1_digests() == GOLDEN_TIER1


@pytest.mark.tier2
@pytest.mark.parametrize("app", PAPER_BENCHMARKS)
def test_golden_digests_all_apps_and_fault_plans(app):
    assert app_digest(app, with_plans=True) == GOLDEN_TIER2[app]


def _digests_after_heap_churn(seed: int) -> dict[str, str]:
    """Allocate and free a seeded number of objects, keeping a seeded
    subset alive, so every later ``Task``/``Resource`` lands at another
    address (and hash) than in the parent process."""
    rng = random.Random(seed)
    junk = [[0] * rng.randint(1, 64) for _ in range(rng.randint(1_000, 20_000))]
    keep = junk[:: rng.randint(2, 7)]
    del junk
    digests = layout_digests()
    assert keep
    return digests


def test_results_do_not_depend_on_heap_layout():
    in_process = layout_digests()
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        for seed in (11, 12):
            assert pool.submit(_digests_after_heap_churn, seed).result() \
                == in_process
