"""Campaign decomposition into independently runnable tasks.

A campaign is a nested loop (benchmarks × scenarios × skeleton sizes).
This module flattens that loop into a list of :class:`CampaignTask`
records — each one simulated run or one skeleton construction — that
the campaign executor (:mod:`repro.parallel.scheduler`) runs inline or
on worker processes. Each task is annotated with:

* ``key``    — the *journal* key, ``"{run_id}::{scenario}::{seed}"``,
  the same whichever driver runs the task, so a journal written with
  any worker count resumes with any other;
* ``deps``   — keys of tasks that must complete first (a skeleton run
  needs its skeleton built; a skeleton build needs the trace); a
  task's deps always have a lower index;
* ``index``  — the task's position in the nested loops' order, used
  to assemble results (and pick failure records) independently of the
  order tasks finished in.

Tasks carry only primitives, so they pickle cleanly to worker
processes regardless of multiprocessing start method. Everything a
worker needs beyond the task (programs, scenarios, traces) is
re-derived deterministically from the campaign config or fetched from
the artifact store (:mod:`repro.store`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.util.rng import derive_seed

__all__ = [
    "CampaignTask",
    "KIND_APP_RUN",
    "KIND_CLASS_S_DED",
    "KIND_CLASS_S_RUN",
    "KIND_SKEL_BUILD",
    "KIND_SKEL_RUN",
    "KIND_SKEL_TRACE",
    "KIND_TRACE",
    "RUN_KINDS",
    "campaign_tasks",
]

KIND_TRACE = "trace"
KIND_APP_RUN = "app-run"
KIND_SKEL_BUILD = "skel-build"
KIND_SKEL_TRACE = "skel-trace"
KIND_SKEL_RUN = "skel-run"
KIND_CLASS_S_DED = "class-s-ded"
KIND_CLASS_S_RUN = "class-s-run"

#: Kinds that count as campaign *runs* (everything except skeleton
#: construction).
RUN_KINDS = frozenset(
    {
        KIND_TRACE,
        KIND_APP_RUN,
        KIND_SKEL_TRACE,
        KIND_SKEL_RUN,
        KIND_CLASS_S_DED,
        KIND_CLASS_S_RUN,
    }
)


@dataclass(frozen=True)
class CampaignTask:
    """One schedulable unit of campaign work (all-primitive, picklable)."""

    key: str
    kind: str
    bench: str
    run_id: str
    scenario: str
    seed: int
    target: Optional[float] = None
    deps: tuple = field(default=())
    index: int = 0

    @property
    def is_run(self) -> bool:
        return self.kind in RUN_KINDS


def campaign_tasks(
    config: ExperimentConfig, scenarios: Sequence
) -> list[CampaignTask]:
    """Flatten the campaign matrix into tasks in serial execution order."""
    tasks: list[CampaignTask] = []

    def add(kind, bench, run_id, scenario, seed, target=None, deps=()):
        key = f"{run_id}::{scenario}::{seed}"
        tasks.append(
            CampaignTask(
                key=key,
                kind=kind,
                bench=bench,
                run_id=run_id,
                scenario=scenario,
                seed=seed,
                target=target,
                deps=tuple(deps),
                index=len(tasks),
            )
        )
        return key

    env = config.environment_seed
    for bench in config.benchmarks:
        trace_key = add(
            KIND_TRACE, bench, f"{bench}.{config.klass}/trace", "dedicated", 0
        )
        for scen in scenarios:
            add(
                KIND_APP_RUN,
                bench,
                f"{bench}.{config.klass}/app",
                scen.name,
                derive_seed(env, "app", bench, scen.name),
            )
        for target in config.skeleton_targets:
            build_key = add(
                KIND_SKEL_BUILD,
                bench,
                f"{bench}.{config.klass}/skel-build-{target:g}",
                "dedicated",
                0,
                target=target,
                deps=(trace_key,),
            )
            add(
                KIND_SKEL_TRACE,
                bench,
                f"{bench}.{config.klass}/skel-{target:g}",
                "dedicated",
                0,
                target=target,
                deps=(build_key,),
            )
            for scen in scenarios:
                add(
                    KIND_SKEL_RUN,
                    bench,
                    f"{bench}.{config.klass}/skel-{target:g}",
                    scen.name,
                    derive_seed(env, "skel", bench, target, scen.name),
                    target=target,
                    deps=(build_key,),
                )
        s_id = f"{bench}.{config.baseline_klass}/class-s"
        add(KIND_CLASS_S_DED, bench, s_id, "dedicated", 0)
        for scen in scenarios:
            add(
                KIND_CLASS_S_RUN,
                bench,
                s_id,
                scen.name,
                derive_seed(env, "class_s", bench, scen.name),
            )
    return tasks
