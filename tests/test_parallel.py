"""Campaign executor tests (inline and pool drivers).

The load-bearing guarantees:

* a parallel campaign's results are **byte-identical** to a serial
  run of the same config (same seeds, serial-order assembly);
* a SIGKILLed worker is detected, its task re-queued, a replacement
  spawned, and the campaign still completes byte-identically;
* the journal written by either driver resumes under either driver
  with zero re-execution;
* a deterministic task failure (a run or a skeleton build) surfaces
  as the same structured benchmark failure on both drivers, and
  retries are counted the same way on both.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.experiments.journal import CampaignJournal
from repro.faults.resilience import RetryPolicy
from repro.obs.metrics import enabled_metrics
from repro.parallel import campaign_tasks, write_campaign_timeline
from repro.parallel.tasks import KIND_SKEL_BUILD

TINY = ExperimentConfig(
    benchmarks=("cg",),
    klass="S",
    baseline_klass="S",
    skeleton_targets=(0.05,),
    steady=True,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for monkeypatch inheritance",
)


@pytest.fixture(scope="module")
def serial_results(tmp_path_factory):
    cache = tmp_path_factory.mktemp("serial")
    return ExperimentRunner(TINY, cache_dir=str(cache)).run()


class TestCampaignTasks:
    def test_keys_match_serial_journal_keys(self):
        runner = ExperimentRunner(TINY, cache_dir="/tmp/unused-keys")
        tasks = campaign_tasks(TINY, runner.scenarios)
        keys = [t.key for t in tasks]
        assert "cg.S/trace::dedicated::0" in keys
        assert "cg.S/class-s::dedicated::0" in keys
        # Run-kind task count equals the serial runner's planned runs.
        assert sum(t.is_run for t in tasks) == runner._planned_runs()

    def test_serial_order_and_deps(self):
        runner = ExperimentRunner(TINY, cache_dir="/tmp/unused-deps")
        tasks = campaign_tasks(TINY, runner.scenarios)
        assert [t.index for t in tasks] == list(range(len(tasks)))
        by_key = {t.key: t for t in tasks}
        for task in tasks:
            for dep in task.deps:
                assert by_key[dep].index < task.index
        builds = [t for t in tasks if t.kind == KIND_SKEL_BUILD]
        assert len(builds) == len(TINY.skeleton_targets)
        assert all(
            by_key[b.deps[0]].kind == "trace" for b in builds
        )

    def test_tasks_are_picklable(self):
        import pickle

        runner = ExperimentRunner(TINY, cache_dir="/tmp/unused-pickle")
        tasks = campaign_tasks(TINY, runner.scenarios)
        assert pickle.loads(pickle.dumps(tasks)) == tasks


class TestParallelCampaign:
    def test_byte_identical_to_serial(self, serial_results, tmp_path):
        runner = ExperimentRunner(TINY, cache_dir=str(tmp_path), workers=3)
        results = runner.run()
        assert not results.failures
        assert results.to_json() == serial_results.to_json()
        assert runner.n_executed == runner._planned_runs()
        assert runner.campaign_spans  # workers reported their spans

    def test_killed_worker_recovers_byte_identically(
        self, serial_results, tmp_path
    ):
        runner = ExperimentRunner(TINY, cache_dir=str(tmp_path), workers=2)
        runner._campaign_kill_plan = {0: 2}  # SIGKILL on its 2nd task
        with enabled_metrics() as m:
            results = runner.run()
        assert not results.failures
        assert results.to_json() == serial_results.to_json()
        snap = m.snapshot()
        assert snap["campaign.worker_restarts"]["value"] >= 1

    def test_parallel_journal_resumes_with_zero_execution(
        self, serial_results, tmp_path, monkeypatch
    ):
        # Keep the journal after success, as if the campaign had been
        # killed right before its final cleanup.
        monkeypatch.setattr(
            CampaignJournal, "remove", lambda self: self.close()
        )
        first = ExperimentRunner(TINY, cache_dir=str(tmp_path), workers=2)
        first.run()
        assert first.journal_path.exists()
        resumed = ExperimentRunner(TINY, cache_dir=str(tmp_path), workers=2)
        results = resumed.run(force=True, resume=True)
        assert resumed.n_executed == 0
        assert resumed.n_resumed == resumed._planned_runs()
        assert results.to_json() == serial_results.to_json()

    def test_workers_below_one_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            ExperimentRunner(TINY, cache_dir=str(tmp_path), workers=0)


@needs_fork
class TestParallelCrashIsolation:
    def test_injected_failure_matches_serial(self, tmp_path):
        """A deterministic run failure produces the same structured
        failure record (and results bytes) serial execution records."""
        import repro.parallel.scheduler as sched_mod
        from repro.sim.program import run_program as real_run_program

        def sick(program, cluster, scenario=None, seed=0, **kwargs):
            if scenario is not None and scenario.name == "link-one":
                raise ValueError("injected failure")
            return real_run_program(
                program, cluster, scenario, seed=seed, **kwargs
            )

        config = ExperimentConfig(
            benchmarks=("cg", "is"),
            klass="S",
            baseline_klass="S",
            skeleton_targets=(0.05,),
            steady=True,
        )
        old_par = sched_mod.run_program
        sched_mod.run_program = sick
        try:
            serial = ExperimentRunner(
                config, cache_dir=str(tmp_path / "serial")
            ).run()
            parallel = ExperimentRunner(
                config, cache_dir=str(tmp_path / "par"), workers=2
            ).run()
        finally:
            sched_mod.run_program = old_par
        assert set(serial.failures) == {"cg", "is"}
        for bench in ("cg", "is"):
            assert serial.failures[bench]["error_type"] == "ValueError"
        assert parallel.to_json() == serial.to_json()

    def test_skeleton_build_failure_is_structured_on_both_drivers(
        self, tmp_path, monkeypatch
    ):
        """A skeleton build that raises fails its benchmark with a
        structured record (one attempt: ValueError is not retryable)
        instead of escaping ``run()``."""
        import repro.core.construct as construct_mod

        def broken(*args, **kwargs):
            raise ValueError("injected build failure")

        monkeypatch.setattr(construct_mod, "scale_signature", broken)
        serial = ExperimentRunner(
            TINY, cache_dir=str(tmp_path / "serial")
        ).run()
        parallel = ExperimentRunner(
            TINY, cache_dir=str(tmp_path / "par"), workers=2
        ).run()
        failure = serial.failures["cg"]
        assert failure["error_type"] == "ValueError"
        assert failure["run"] == "cg.S/skel-build-0.05::dedicated::0"
        assert failure["attempts"] == 1
        assert parallel.to_json() == serial.to_json()

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.parallel.scheduler", "run_program"),
            ("repro.core.construct", "scale_signature"),
        ],
        ids=["run", "skeleton-build"],
    )
    def test_retries_counted_on_both_drivers(
        self, serial_results, tmp_path, monkeypatch, module, name
    ):
        """One transient OSError in the whole campaign is retried and
        counted as one ``campaign.retries``, whichever process ran the
        task and whether it was a run or a skeleton build."""
        import importlib

        mod = importlib.import_module(module)
        real = getattr(mod, name)
        marker = {"path": ""}

        def flaky(*args, **kwargs):
            try:  # O_EXCL: exactly one call in any process fails
                os.close(os.open(marker["path"], os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return real(*args, **kwargs)
            raise OSError("injected transient failure")

        monkeypatch.setattr(mod, name, flaky)
        policy = RetryPolicy(backoff_base=0.0)
        retries = {}
        for workers in (1, 2):
            marker["path"] = str(tmp_path / f"failed-once-{workers}")
            runner = ExperimentRunner(
                TINY, cache_dir=str(tmp_path / f"w{workers}"),
                workers=workers, retry_policy=policy,
            )
            with enabled_metrics() as m:
                results = runner.run()
            assert results.to_json() == serial_results.to_json()
            retries[workers] = m.snapshot()["campaign.retries"]["value"]
        assert retries == {1: 1, 2: 1}


def _stop_after_journaled_runs(monkeypatch, n: int) -> None:
    """Interrupt ``run()`` as it journals its (n+1)-th completed run,
    leaving exactly ``n`` runs in the journal, whichever driver runs."""
    real = CampaignJournal.record
    seen = {"runs": 0}

    def record(self, key, entry):
        if entry.get("status") == "ok" and "result" in entry:
            if seen["runs"] == n:
                raise KeyboardInterrupt
            seen["runs"] += 1
        real(self, key, entry)

    monkeypatch.setattr(CampaignJournal, "record", record)


class TestCrossDriverResume:
    @pytest.mark.parametrize("killed, resumed", [(1, 2), (2, 1)])
    def test_resume_under_the_other_driver(
        self, serial_results, tmp_path, monkeypatch, killed, resumed
    ):
        with monkeypatch.context() as m:
            _stop_after_journaled_runs(m, 7)
            first = ExperimentRunner(
                TINY, cache_dir=str(tmp_path), workers=killed
            )
            with pytest.raises(KeyboardInterrupt):
                first.run()
        assert first.journal_path.exists()
        runner = ExperimentRunner(
            TINY, cache_dir=str(tmp_path), workers=resumed
        )
        results = runner.run(resume=True)
        assert results.to_json() == serial_results.to_json()
        assert runner.n_resumed == 7  # zero completed runs re-executed
        assert runner.n_executed == runner._planned_runs() - 7


class TestCampaignTimeline:
    def test_serial_campaign_fills_spans_and_timeline(
        self, tmp_path, monkeypatch
    ):
        """Serial campaigns report spans on worker lane 0, and the CLI
        writes them with ``--campaign-timeline``."""
        import repro.cli as cli
        from repro.experiments.runner import campaign_scenarios

        monkeypatch.setattr(cli, "ExperimentConfig", lambda **kw: TINY)
        out = tmp_path / "serial-campaign.json"
        rc = cli.main(
            [
                "experiment", "--cache-dir", str(tmp_path / "cache"),
                "--campaign-timeline", str(out),
            ]
        )
        assert rc == 0
        events = json.loads(out.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        tasks = campaign_tasks(TINY, campaign_scenarios(TINY))
        assert len(spans) == len(tasks)
        assert {e["tid"] for e in spans} == {0}
        assert all(e["args"]["status"] == "ok" for e in spans)

    def test_chrome_trace_export(self, serial_results, tmp_path):
        runner = ExperimentRunner(TINY, cache_dir=str(tmp_path), workers=2)
        runner.run()
        out = tmp_path / "campaign.json"
        n = runner.write_campaign_timeline(out)
        assert n == len(runner.campaign_spans) > 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes  # one named lane per worker that ran tasks
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == n
        assert all(e["dur"] >= 0 for e in spans)

    def test_empty_spans_export(self, tmp_path):
        out = tmp_path / "empty.json"
        assert write_campaign_timeline([], out) == 0
        assert json.loads(out.read_text())["traceEvents"]


class TestParallelDiagnosis:
    """Diagnosis output must not depend on how the campaign executed."""

    def test_diagnosis_byte_identical_serial_vs_parallel(
        self, serial_results, tmp_path
    ):
        from repro.diagnose import campaign_divergence

        cache_s = tmp_path / "serial"
        cache_p = tmp_path / "parallel"
        runner_s = ExperimentRunner(TINY, cache_dir=str(cache_s))
        res_s = runner_s.run()
        runner_p = ExperimentRunner(TINY, cache_dir=str(cache_p), workers=2)
        res_p = runner_p.run()
        assert res_s.to_json() == res_p.to_json()

        diag_s = campaign_divergence(runner_s, res_s)
        diag_p = campaign_divergence(runner_p, res_p)
        assert set(diag_s) == set(diag_p) == {"cg"}
        for bench in diag_s:
            assert set(diag_s[bench]) == set(diag_p[bench])
            for scen in diag_s[bench]:
                assert (
                    diag_s[bench][scen].to_json()
                    == diag_p[bench][scen].to_json()
                )
        # The persisted artifacts hit the store on reload and stay
        # byte-identical too.
        warm = campaign_divergence(runner_p, res_p)
        for bench in diag_p:
            for scen in diag_p[bench]:
                assert (
                    warm[bench][scen].to_json()
                    == diag_p[bench][scen].to_json()
                )

    def test_campaign_timeline_deterministic_lanes(self, tmp_path):
        runner = ExperimentRunner(TINY, cache_dir=str(tmp_path), workers=2)
        runner.run()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert runner.write_campaign_timeline(first) == \
            runner.write_campaign_timeline(second) > 0
        assert first.read_bytes() == second.read_bytes()
