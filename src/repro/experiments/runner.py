"""Experiment campaign runner with artifact caching, crash resilience,
and parallel execution.

Executes the paper's full matrix:

* each benchmark traced on the dedicated testbed (the skeleton input
  and the dedicated reference time);
* each benchmark measured under every sharing scenario (ground truth);
* skeletons of every target size built, measured dedicated (scaling
  ratio) and probed under every scenario;
* Class S runs for the §4.5 baseline.

Caching (see :mod:`repro.store`): every pipeline stage — traced runs,
signatures, skeletons, simulated runs, and the assembled campaign
results — is memoized in the content-addressed artifact store under
the resolved cache root (``REPRO_CACHE_DIR`` or
``<project root>/.repro_cache``). A warm store re-runs the campaign
with zero recomputation; ``force=True`` only bypasses the *results*
artifact, still reusing per-stage artifacts.

Execution (see :mod:`repro.parallel.scheduler`): the campaign is one
task graph with one executor. ``workers == 1`` runs it inline in this
process; ``workers > 1`` fans it out over worker processes. Results
are byte-identical either way (same seeds, serial-order assembly).

Resilience (see :mod:`repro.faults.resilience` and
:mod:`repro.experiments.journal`):

* every task (simulated run or skeleton build) executes under a
  :class:`~repro.faults.resilience.RetryPolicy` — wall-clock timeout
  plus bounded, seed-stable retries of host-level failures;
* a task that fails permanently becomes a structured record in
  ``ExperimentResults.failures`` for its benchmark instead of killing
  the campaign (remaining benchmarks still run);
* every completed run is journaled (JSON-lines, fsync'd), so a killed
  campaign resumed with ``run(resume=True)`` — with any worker count —
  re-executes zero completed runs and produces byte-identical results.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.cluster.scenarios import paper_scenarios, volatile_scenarios
from repro.cluster.topology import Cluster, paper_testbed
from repro.errors import ExperimentError, StoreError
from repro.experiments.config import ExperimentConfig
from repro.experiments.journal import CampaignJournal
from repro.faults.resilience import RetryPolicy
from repro.predict.metrics import prediction_error_percent
from repro.store.memo import PipelineCache
from repro.store.store import ArtifactStore, DEFAULT_CACHE_DIR_NAME, resolve_cache_dir

#: Kept for backwards compatibility: the cache directory *basename*.
#: The effective default location is resolved by
#: :func:`repro.store.store.resolve_cache_dir` (``REPRO_CACHE_DIR`` or
#: the project root), no longer the bare CWD-relative path.
DEFAULT_CACHE_DIR = DEFAULT_CACHE_DIR_NAME


def campaign_scenarios(config: ExperimentConfig) -> list:
    """The campaign's scenario list, derived purely from ``config``.

    Module-level (not a runner method) because parallel workers rebuild
    the identical list from the pickled config — :class:`Scenario`
    itself is not picklable (frozen ``MappingProxyType`` fields).
    """
    scenarios = paper_scenarios(config.nnodes, steady=config.steady)
    if config.include_volatile:
        scenarios += volatile_scenarios(
            config.nnodes, seed=config.environment_seed
        )
    return scenarios


@dataclass
class ExperimentResults:
    """All raw measurements of one campaign plus derived errors.

    ``failures`` maps each benchmark that could not be completed to a
    structured failure record (``run`` key, exception type, message);
    its partial measurements are dropped so every benchmark present in
    ``apps``/``skeletons``/``class_s`` is complete.
    """

    config: dict
    scenario_names: list[str]
    apps: dict = field(default_factory=dict)
    skeletons: dict = field(default_factory=dict)
    class_s: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    # -- derived quantities ---------------------------------------------

    def benchmarks(self) -> list[str]:
        """Completed benchmarks, in configuration order."""
        return [
            b
            for b in self.config["benchmarks"]
            if b in self.apps and b in self.skeletons and b in self.class_s
        ]

    def targets(self) -> list[float]:
        return [float(t) for t in self.config["skeleton_targets"]]

    @property
    def is_partial(self) -> bool:
        """True when at least one benchmark failed to complete."""
        return bool(self.failures)

    def skeleton_error(self, bench: str, target: float, scenario: str) -> float:
        """Percent error of the skeleton prediction (paper §4.2)."""
        app = self.apps[bench]
        skel = self.skeletons[bench][f"{target:g}"]
        ratio = app["dedicated"] / skel["dedicated"]
        predicted = skel["scenarios"][scenario] * ratio
        return prediction_error_percent(predicted, app["scenarios"][scenario])

    def skeleton_avg_error(self, bench: str, target: float) -> float:
        errs = [
            self.skeleton_error(bench, target, s) for s in self.scenario_names
        ]
        return sum(errs) / len(errs)

    def class_s_error(self, bench: str, scenario: str) -> float:
        """Percent error of the Class S baseline prediction."""
        app = self.apps[bench]
        s_run = self.class_s[bench]
        ratio = app["dedicated"] / s_run["dedicated"]
        predicted = s_run["scenarios"][scenario] * ratio
        return prediction_error_percent(predicted, app["scenarios"][scenario])

    def average_prediction_error(self, bench: str, scenario: str) -> float:
        """Percent error of the suite-average-slowdown baseline."""
        slowdowns = [
            self.apps[b]["scenarios"][scenario] / self.apps[b]["dedicated"]
            for b in self.benchmarks()
        ]
        mean_slowdown = sum(slowdowns) / len(slowdowns)
        app = self.apps[bench]
        predicted = app["dedicated"] * mean_slowdown
        return prediction_error_percent(predicted, app["scenarios"][scenario])

    # -- (de)serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "scenario_names": self.scenario_names,
            "apps": self.apps,
            "skeletons": self.skeletons,
            "class_s": self.class_s,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentResults":
        return ExperimentResults(
            config=obj["config"],
            scenario_names=obj["scenario_names"],
            apps=obj["apps"],
            skeletons=obj["skeletons"],
            class_s=obj["class_s"],
            failures=obj.get("failures", {}),
        )

    @staticmethod
    def from_json(text: str) -> "ExperimentResults":
        return ExperimentResults.from_dict(json.loads(text))


class ExperimentRunner:
    """Runs (or loads) one experiment campaign.

    ``retry_policy`` governs per-run resilience (timeout, retries); it
    deliberately lives here and not on :class:`ExperimentConfig`, so
    tuning it never invalidates cached results. ``workers`` picks the
    campaign executor's driver (:mod:`repro.parallel.scheduler`): 1
    runs the task graph inline, N > 1 on N worker processes, with
    byte-identical results.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        cluster: Optional[Cluster] = None,
        cache_dir: Union[str, os.PathLike, None] = None,
        verbose: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        workers: int = 1,
        store: Optional[ArtifactStore] = None,
        supervisor=None,
        journal_durability: str = "fsync",
    ):
        # Deferred import: repro.parallel pulls in this module's package.
        from repro.parallel.supervisor import SupervisorConfig

        self.config = config or ExperimentConfig()
        self.cluster = cluster or paper_testbed(self.config.nnodes)
        self.cache_dir = resolve_cache_dir(cache_dir)
        self.verbose = verbose
        self.retry_policy = retry_policy or RetryPolicy()
        #: Hang-detection tuning for parallel campaigns
        #: (:class:`repro.parallel.supervisor.SupervisorConfig`).
        self.supervisor = supervisor or SupervisorConfig()
        #: Journal durability mode (``"fsync"`` or ``"flush"``).
        self.journal_durability = journal_durability
        if workers < 1:
            raise ExperimentError("workers must be >= 1")
        self.workers = int(workers)
        self.store = store or ArtifactStore(self.cache_dir)
        self.pipeline = PipelineCache(self.store, self.cluster)
        self.scenarios = campaign_scenarios(self.config)
        #: Runs actually executed / reconstructed from the journal in
        #: the last ``run()`` call (resume accounting, used by tests).
        self.n_executed = 0
        self.n_resumed = 0
        #: Per-task worker spans of the last run (for the campaign
        #: timeline export); serial runs use worker lane 0.
        self.campaign_spans: list = []
        self._journal: Optional[CampaignJournal] = None
        self._journal_state: dict[str, dict] = {}

    # -- cache -----------------------------------------------------------

    @property
    def results_key(self):
        """Store key of this campaign's assembled results artifact."""
        return self.store.key("results", {"config": self.config.key()})

    @property
    def cache_path(self) -> Path:
        """Path of the results artifact in the store."""
        return self.store.object_path(self.results_key)

    @property
    def journal_path(self) -> Path:
        return self.cache_dir / f"journal-{self.config.key()}.jsonl"

    def load_cached(self) -> Optional[ExperimentResults]:
        """Load the campaign's results artifact (None when absent)."""
        try:
            artifact = self.store.get(self.results_key, on_error="raise")
        except StoreError as exc:
            raise ExperimentError(
                f"corrupt results artifact {self.cache_path}: {exc}"
            ) from exc
        if artifact is None:
            return None
        return ExperimentResults.from_dict(artifact.content)

    def _store_results(self, results: ExperimentResults) -> None:
        self.store.put(self.results_key, results.to_dict())

    # -- execution ---------------------------------------------------------

    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[experiments] {msg}", flush=True)

    def _planned_runs(self) -> int:
        """Total simulated runs the campaign will execute (for ETA)."""
        from repro.parallel.tasks import campaign_tasks

        tasks = campaign_tasks(self.config, self.scenarios)
        return sum(t.is_run for t in tasks)

    def run(self, force: bool = False, resume: bool = False) -> ExperimentResults:
        """Run (or load) the campaign.

        ``force`` ignores the results cache (per-stage artifacts are
        still reused); ``resume`` replays the campaign journal of an
        interrupted run, re-executing nothing already completed.
        Without ``resume`` any stale journal is discarded and the
        campaign starts from scratch.
        """
        if not force:
            cached = self.load_cached()
            if cached is not None:
                self._log(f"loaded cached results {self.cache_path}")
                return cached

        cfg = self.config
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        journal = CampaignJournal(
            self.journal_path, durability=self.journal_durability
        )
        if not resume:
            journal.remove()
        self._journal = journal
        self._journal_state = journal.load() if resume else {}
        self.n_executed = 0
        self.n_resumed = 0
        self.campaign_spans = []

        self._log(
            f"campaign: {len(cfg.benchmarks)} benchmarks x "
            f"{len(self.scenarios)} scenarios x "
            f"{len(cfg.skeleton_targets)} skeleton sizes = "
            f"{self._planned_runs()} runs"
            + (f" on {self.workers} workers" if self.workers > 1 else "")
        )
        if resume and self._journal_state:
            self._log(
                f"resuming: journal holds {len(self._journal_state)} "
                f"completed run(s)"
            )

        try:
            # Deferred import: repro.parallel pulls in this module.
            from repro.parallel.scheduler import run_campaign

            results = run_campaign(self)
        finally:
            journal.close()
            self._journal = None
            self._journal_state = {}

        self._store_results(results)
        journal.remove()
        self._log(
            f"stored results at {self.cache_path} "
            f"({self.n_executed} executed, {self.n_resumed} resumed, "
            f"{len(results.failures)} failed benchmark(s))"
        )
        return results

    def write_campaign_timeline(self, path: Union[str, os.PathLike]) -> int:
        """Export the last run's per-worker task spans as a
        Perfetto-loadable Chrome trace; returns the span count."""
        from repro.parallel.scheduler import write_campaign_timeline

        return write_campaign_timeline(self.campaign_spans, path)


def run_experiments(
    config: Optional[ExperimentConfig] = None,
    cluster: Optional[Cluster] = None,
    cache_dir: Union[str, os.PathLike, None] = None,
    force: bool = False,
    resume: bool = False,
    verbose: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    workers: int = 1,
    supervisor=None,
    journal_durability: str = "fsync",
) -> ExperimentResults:
    """Run or load the experiment campaign for ``config``."""
    runner = ExperimentRunner(
        config=config,
        cluster=cluster,
        cache_dir=cache_dir,
        verbose=verbose,
        retry_policy=retry_policy,
        workers=workers,
        supervisor=supervisor,
        journal_durability=journal_durability,
    )
    return runner.run(force=force, resume=resume)
