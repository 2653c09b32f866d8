"""Resilient campaign runner: retry/timeout primitives, the campaign
journal, checkpoint/resume, and crash isolation."""

from __future__ import annotations

import json

import pytest

from repro.errors import RunTimeoutError
from repro.experiments import (
    CampaignJournal,
    ExperimentConfig,
    ExperimentResults,
    ExperimentRunner,
)
from repro.experiments.report import full_report, partial_banner
from repro.faults import RetryPolicy, resilient_call, run_with_timeout

TINY = ExperimentConfig(
    benchmarks=("cg", "is"),
    klass="S",
    baseline_klass="S",
    skeleton_targets=(0.05, 0.01),
    steady=True,
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_resilient_call_retries_retryable(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        value, used = resilient_call(
            flaky,
            RetryPolicy(max_attempts=3, backoff_base=0.01),
            sleep=slept.append,
        )
        assert value == "ok" and used == 3
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_resilient_call_gives_up_after_max_attempts(self):
        def always_bad():
            raise OSError("still broken")

        with pytest.raises(OSError):
            resilient_call(
                always_bad,
                RetryPolicy(max_attempts=2, backoff_base=0.0),
                sleep=lambda _: None,
            )

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def model_error():
            calls.append(1)
            raise ValueError("deterministic model bug")

        with pytest.raises(ValueError):
            resilient_call(model_error, RetryPolicy(max_attempts=5))
        assert len(calls) == 1

    def test_on_retry_hook_fires(self):
        seen = []

        def flaky():
            if not seen:
                raise OSError("once")
            return 1

        resilient_call(
            flaky,
            RetryPolicy(max_attempts=2, backoff_base=0.0),
            on_retry=lambda attempt, exc: seen.append((attempt, type(exc))),
            sleep=lambda _: None,
        )
        assert seen == [(1, OSError)]

    def test_run_with_timeout_aborts_runaway(self):
        import time

        with pytest.raises(RunTimeoutError):
            run_with_timeout(lambda: time.sleep(5), timeout=0.05)

    def test_run_with_timeout_none_disables(self):
        assert run_with_timeout(lambda: 42, timeout=None) == 42

    def test_timeout_is_retryable_by_default(self):
        assert RunTimeoutError in RetryPolicy().retryable


class TestCampaignJournal:
    def test_round_trip_last_entry_wins(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.record("a", {"status": "failed", "error": "x"})
        journal.record("b", {"status": "ok", "result": {"elapsed": 1.5}})
        journal.record("a", {"status": "ok", "result": {"elapsed": 2.0}})
        journal.close()
        loaded = journal.load()
        assert set(loaded) == {"a", "b"}
        assert loaded["a"]["status"] == "ok"
        assert loaded["a"]["result"]["elapsed"] == 2.0

    def test_truncated_last_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.record("a", {"status": "ok"})
        journal.record("b", {"status": "ok"})
        journal.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 8])  # kill mid-write
        loaded = journal.load()
        assert set(loaded) == {"a"}

    def test_missing_file_loads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "nope.jsonl").load() == {}

    def test_remove(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.record("a", {"status": "ok"})
        journal.remove()
        assert not (tmp_path / "j.jsonl").exists()
        journal.remove()  # idempotent


def _interrupt_after_runs(monkeypatch, n: int) -> None:
    """Raise ``KeyboardInterrupt`` in place of the (n+1)-th run-kind
    campaign task, as a Ctrl-C between two runs would."""
    import repro.parallel.scheduler as sched_mod

    real = sched_mod._run_task
    count = {"n": 0}

    def killer(state, task, policy, worker_id):
        if task.is_run:
            if count["n"] == n:
                raise KeyboardInterrupt
            count["n"] += 1
        return real(state, task, policy, worker_id)

    monkeypatch.setattr(sched_mod, "_run_task", killer)


class TestCheckpointResume:
    def test_killed_campaign_resumes_identically(self, tmp_path, monkeypatch):
        baseline = ExperimentRunner(
            TINY, cache_dir=str(tmp_path / "a")
        ).run().to_json()

        cache = tmp_path / "b"
        runner = ExperimentRunner(TINY, cache_dir=str(cache))
        with monkeypatch.context() as m:
            _interrupt_after_runs(m, 9)
            with pytest.raises(KeyboardInterrupt):
                runner.run()
        assert runner.journal_path.exists()

        fresh = ExperimentRunner(TINY, cache_dir=str(cache))
        results = fresh.run(resume=True)
        assert results.to_json() == baseline
        assert fresh.n_resumed == 9  # zero completed runs re-executed
        assert not fresh.journal_path.exists()  # cleaned up on success

    def test_without_resume_journal_is_discarded(self, tmp_path, monkeypatch):
        cache = tmp_path / "c"
        runner = ExperimentRunner(TINY, cache_dir=str(cache))
        with monkeypatch.context() as m:
            _interrupt_after_runs(m, 3)
            with pytest.raises(KeyboardInterrupt):
                runner.run()
        fresh = ExperimentRunner(TINY, cache_dir=str(cache))
        fresh.run()
        assert fresh.n_resumed == 0


class TestCrashIsolation:
    def _sick_campaign(self, tmp_path, monkeypatch):
        """One benchmark (cg) fails permanently under one scenario."""
        import repro.parallel.scheduler as sched_mod

        real = sched_mod.run_program

        def sick(program, cluster, scenario=None, **kwargs):
            if (
                scenario is not None
                and program.name.startswith("cg")
                and scenario.name == "link-one"
            ):
                raise OSError("simulated host failure")
            if scenario is None:
                return real(program, cluster, **kwargs)
            return real(program, cluster, scenario, **kwargs)

        monkeypatch.setattr(sched_mod, "sick_patch", sick, raising=False)
        monkeypatch.setattr(sched_mod, "run_program", sick)
        cfg = ExperimentConfig(
            benchmarks=("cg", "is"), klass="S", baseline_klass="S",
            skeleton_targets=(0.05,), steady=True,
        )
        policy = RetryPolicy(max_attempts=1, backoff_base=0.0)
        return ExperimentRunner(
            cfg, cache_dir=str(tmp_path), retry_policy=policy
        ).run()

    def test_one_failure_does_not_kill_campaign(self, tmp_path, monkeypatch):
        results = self._sick_campaign(tmp_path, monkeypatch)
        assert results.is_partial
        assert set(results.failures) == {"cg"}
        failure = results.failures["cg"]
        assert failure["error_type"] == "OSError"
        assert "link-one" in failure["run"]
        # the healthy benchmark completed in full
        assert results.benchmarks() == ["is"]
        assert "cg" not in results.apps

    def test_partial_results_round_trip_and_report(self, tmp_path, monkeypatch):
        results = self._sick_campaign(tmp_path, monkeypatch)
        again = ExperimentResults.from_json(results.to_json())
        assert again.failures == results.failures
        assert again.is_partial
        report = full_report(again)
        assert "PARTIAL RESULTS" in report
        assert "OSError" in report
        assert "IS" in report  # healthy benchmark still reported

    def test_banner_empty_for_complete_results(self):
        results = ExperimentResults(
            config={"benchmarks": []}, scenario_names=[]
        )
        assert partial_banner(results) == ""
        assert "nothing to report" in full_report(results)


class TestResultSerialization:
    def test_failures_default_for_old_caches(self):
        blob = json.dumps(
            {
                "config": {"benchmarks": []},
                "scenario_names": [],
                "apps": {},
                "skeletons": {},
                "class_s": {},
            }
        )
        results = ExperimentResults.from_json(blob)
        assert results.failures == {}
        assert not results.is_partial
