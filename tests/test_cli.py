"""CLI tests (run in-process through main())."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "cg"])
        assert args.benchmark == "cg"
        assert args.klass == "B"
        assert args.output == "app.trace"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "nope"])


class TestCommands:
    def test_trace_and_skeleton_and_codegen(self, tmp_path, capsys):
        trace_file = str(tmp_path / "cg.trace")
        rc = main(["trace", "cg", "--klass", "S", "-o", trace_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MPI calls recorded" in out

        rc = main(["skeleton", trace_file, "--target", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scaling factor K" in out
        assert "min good skeleton" in out

        c_file = str(tmp_path / "skel.c")
        rc = main(["codegen", trace_file, "--target", "0.05", "-o", c_file])
        assert rc == 0
        with open(c_file) as fh:
            assert "#include <mpi.h>" in fh.read()

    def test_codegen_to_stdout(self, tmp_path, capsys):
        trace_file = str(tmp_path / "is.trace")
        main(["trace", "is", "--klass", "S", "-o", trace_file])
        capsys.readouterr()
        rc = main(["codegen", trace_file, "--target", "0.02"])
        assert rc == 0
        assert "MPI_Alltoallv" in capsys.readouterr().out

    def test_signature_rejects_nan_ratio(self, tmp_path, capsys):
        trace_file = str(tmp_path / "is.trace")
        main(["trace", "is", "--klass", "S", "-o", trace_file])
        capsys.readouterr()
        rc = main(["signature", trace_file, "--ratio", "nan"])
        assert rc == 1
        assert "target compression ratio" in capsys.readouterr().err

    def test_predict_with_verify(self, capsys):
        rc = main([
            "predict", "mg", "--klass", "S", "--target", "0.02",
            "--scenario", "cpu-one-node", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted time" in out
        assert "prediction error" in out

    def test_predict_unknown_scenario_fails_cleanly(self, capsys):
        rc = main([
            "predict", "mg", "--klass", "S", "--scenario", "bogus",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_trace_file_reported(self, capsys, tmp_path):
        rc = main(["skeleton", str(tmp_path / "missing.trace")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_timeline_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "tl.json"
        rc = main([
            "timeline", "cg", "--klass", "S", "--samples", "20",
            "-o", str(out_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        assert "rank 0" in out
        trace = json.loads(out_file.read_text())
        assert trace["traceEvents"]
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"X", "M", "C"} <= phases

    def test_timeline_under_scenario(self, tmp_path):
        out_file = str(tmp_path / "tl.json")
        rc = main([
            "timeline", "cg", "--klass", "S", "--scenario", "cpu-one-node",
            "--samples", "0", "-o", out_file,
        ])
        assert rc == 0

    def test_timeline_unknown_scenario(self, capsys):
        rc = main(["timeline", "cg", "--klass", "S", "--scenario", "bogus"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_profile_prints_metrics_report(self, capsys):
        rc = main([
            "profile", "cg", "--klass", "S", "--target", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine.messages" in out
        assert "construct.threshold_iterations" in out
        assert "stage timings" in out

    def test_profile_leaves_global_registry_disabled(self):
        from repro.obs import get_metrics

        main(["profile", "cg", "--klass", "S", "--target", "0.05"])
        assert not get_metrics().enabled

    def test_metrics_out_flag_on_existing_command(self, tmp_path, capsys):
        import json

        metrics_file = tmp_path / "m.json"
        trace_file = str(tmp_path / "cg.trace")
        rc = main([
            "--metrics-out", str(metrics_file),
            "trace", "cg", "--klass", "S", "-o", trace_file,
        ])
        assert rc == 0
        assert "metrics written" in capsys.readouterr().err
        data = json.loads(metrics_file.read_text())
        assert data["engine.runs"]["value"] == 1
        assert data["engine.messages"]["value"] > 0

    def test_metrics_out_restores_registry(self, tmp_path):
        from repro.obs import get_metrics

        main([
            "--metrics-out", str(tmp_path / "m.json"),
            "trace", "cg", "--klass", "S",
            "-o", str(tmp_path / "cg.trace"),
        ])
        assert not get_metrics().enabled


class TestRobustnessCommands:
    @pytest.fixture
    def trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "cg.trace")
        assert main(["trace", "cg", "--klass", "S", "-o", path]) == 0
        capsys.readouterr()
        return path

    def test_trace_validate_ok(self, trace_file, capsys):
        rc = main(["trace", "validate", trace_file])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_trace_validate_spelling_both_ways(self, trace_file):
        assert main(["trace-validate", trace_file]) == 0

    def test_trace_validate_corrupt_strict_fails(
        self, trace_file, tmp_path, capsys
    ):
        lines = (tmp_path / "cg.trace").read_text().splitlines()
        bad = tmp_path / "bad.trace"
        bad.write_text("\n".join(lines[:10]) + "\nGARBAGE\n")
        rc = main(["trace", "validate", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_validate_salvage_writes_recovered(
        self, trace_file, tmp_path, capsys
    ):
        lines = (tmp_path / "cg.trace").read_text().splitlines()
        bad = tmp_path / "bad.trace"
        bad.write_text("\n".join(lines[:10]) + "\nGARBAGE\n")
        fixed = tmp_path / "fixed.trace"
        rc = main([
            "trace", "validate", str(bad), "--salvage", "-o", str(fixed),
        ])
        assert rc == 1  # corrupt input still reports failure
        out = capsys.readouterr().out
        assert "salvaged 9 record(s)" in out
        assert main(["trace", "validate", str(fixed)]) == 0

    def test_faults_render_stock(self, capsys):
        rc = main(["faults", "render", "--stock", "rank-stall"])
        assert rc == 0
        assert "rank_stall" in capsys.readouterr().out

    def test_faults_render_export_and_reload(self, tmp_path, capsys):
        plan_file = str(tmp_path / "plan.json")
        assert main([
            "faults", "render", "--stock", "lossy-net", "-o", plan_file,
        ]) == 0
        capsys.readouterr()
        rc = main(["faults", "render", "--plan", plan_file])
        assert rc == 0
        assert "message_drop" in capsys.readouterr().out

    def test_faults_render_unknown_stock(self, capsys):
        rc = main(["faults", "render", "--stock", "bogus"])
        assert rc == 1
        assert "unknown stock plan" in capsys.readouterr().err

    def test_faults_apply(self, tmp_path, capsys):
        timeline = tmp_path / "tl.json"
        rc = main([
            "faults", "apply", "cg", "--klass", "S",
            "--stock", "rank-stall", "--timeline", str(timeline),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert timeline.exists()

    def test_timeline_accepts_volatile_scenario(self, tmp_path):
        rc = main([
            "timeline", "cg", "--klass", "S", "--scenario", "link-flap",
            "--samples", "0", "-o", str(tmp_path / "tl.json"),
        ])
        assert rc == 0

    def test_experiment_parser_has_resume_and_volatile(self):
        args = build_parser().parse_args(["experiment", "--resume"])
        assert args.resume and not args.volatile
        args = build_parser().parse_args(["experiment", "--volatile"])
        assert args.volatile and not args.resume


class TestServeCommands:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.strip() == (
            f"repro-skeleton {__version__}"
        )

    def test_version_matches_pyproject(self):
        """The package version has a single source of truth."""
        import re
        from pathlib import Path

        from repro import __version__

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M
        )
        assert match and match.group(1) == __version__

    def test_predict_json_is_canonical(self, tmp_path, capsys):
        from repro.store import canonical_json

        argv = [
            "predict", "cg", "--klass", "S", "--target", "0.05",
            "--scenario", "cpu-one-node", "--json",
            "--cache-dir", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out.strip()
        import json

        assert out == canonical_json(json.loads(out))

    def test_store_ls_json_is_deterministic(self, tmp_path, capsys):
        import json

        cache = str(tmp_path / "store")
        assert main([
            "predict", "cg", "--klass", "S", "--target", "0.05",
            "--scenario", "cpu-one-node", "--json", "--cache-dir", cache,
        ]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--json", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(["store", "ls", "--json", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert first == second
        entries = json.loads(first)
        assert entries and all("digest" in e for e in entries)
        # Deterministic order: grouped by stage, newest first.
        stages = [e["stage"] for e in entries]
        assert stages == sorted(stages)

    def test_publish_and_call_parsers(self):
        args = build_parser().parse_args([
            "publish", "cg.s4", "cg", "--klass", "S", "--target", "0.05",
        ])
        assert args.alias == "cg.s4" and args.benchmark == "cg"
        args = build_parser().parse_args([
            "call", "predict", "--params", "{}", "--port", "7070",
        ])
        assert args.verb == "predict" and args.port == 7070
        args = build_parser().parse_args(["serve", "--workers", "0"])
        assert args.workers == 0 and args.port == 7077

    def test_publish_command(self, tmp_path, capsys):
        cache = str(tmp_path / "store")
        rc = main([
            "publish", "cg.s4", "cg", "--klass", "S",
            "--target", "0.05", "--cache-dir", cache,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "published cg.s4@v1" in out
        # Publishing warmed the store: the same workload now predicts
        # from cache and the registry resolves the alias.
        from repro.serve import PredictionService

        service = PredictionService(cache_dir=cache)
        assert service.registry.resolve("cg.s4").version == 1
        reply = service.handle(
            "predict", {"alias": "cg.s4", "scenario": "cpu-one-node"}
        )
        assert reply["ok"] and reply["result"]["predicted_seconds"] > 0
