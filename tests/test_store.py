"""Content-addressed artifact store and pipeline memoization tests.

Covers the keying contract (canonical JSON + salt), integrity
verification on read, cache-dir resolution precedence, maintenance
operations (gc/verify/prune), the PipelineCache stage wrappers, and
the campaign runner's zero-recompute warm path.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreError
from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.obs.metrics import enabled_metrics
from repro.store import (
    ArtifactStore,
    CODE_SALT,
    PipelineCache,
    canonical_json,
    content_digest,
    fsck,
    resolve_cache_dir,
    scenario_fingerprint,
    workload_params,
)

def flip_byte(path) -> None:
    """Rot one byte of a file in place, keeping its size."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


TINY = ExperimentConfig(
    benchmarks=("cg",),
    klass="S",
    baseline_klass="S",
    skeleton_targets=(0.05,),
    steady=True,
)


class TestKeying:
    def test_canonical_json_is_order_independent(self):
        a = canonical_json({"b": 1, "a": [1.5, 2]})
        b = canonical_json({"a": [1.5, 2], "b": 1})
        assert a == b == '{"a":[1.5,2],"b":1}'

    def test_digest_is_stable(self):
        assert content_digest("x") == content_digest(b"x")
        assert len(content_digest("x")) == 32  # BLAKE2b-128 hex

    def test_key_depends_on_stage_params_and_salt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        base = store.key("run", {"seed": 1})
        assert store.key("run", {"seed": 1}) == base
        assert store.key("run", {"seed": 2}) != base
        assert store.key("trace", {"seed": 1}) != base
        assert store.key("run", {"seed": 1}, salt="other") != base
        assert store.key("run", {"seed": 1}, salt=CODE_SALT) == base

    def test_float_params_keep_exact_identity(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.key("s", {"t": 0.1}) == store.key("s", {"t": 0.1})
        assert store.key("s", {"t": 0.1}) != store.key("s", {"t": 0.1000001})


class TestCacheDirResolution:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"

    def test_env_var_beats_project_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir() == tmp_path / "env"

    def test_project_root_anchor(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        sub = tmp_path / "a" / "b"
        sub.mkdir(parents=True)
        monkeypatch.chdir(sub)
        assert resolve_cache_dir() == tmp_path / ".repro_cache"

    def test_cwd_fallback_without_markers(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        # /tmp/... has no project markers up the chain in CI sandboxes;
        # if an ancestor does, the resolved dir must still end with the
        # canonical basename.
        assert resolve_cache_dir().name == ".repro_cache"


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("run", {"seed": 7})
        store.put(key, {"result": {"elapsed": 1.25}})
        art = store.get(key)
        assert art is not None
        assert art.stage == "run"
        assert art.content == {"result": {"elapsed": 1.25}}
        assert art.params == {"seed": 7}

    def test_get_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(store.key("run", {"seed": 404})) is None

    def test_blobs_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("trace", {"p": 1})
        store.put(
            key,
            {"meta": True},
            blob_writers={"trace": lambda p: p.write_bytes(b"payload")},
        )
        art = store.get(key)
        assert art.blobs["trace"].read_bytes() == b"payload"

    def test_corrupt_content_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("run", {"seed": 1})
        path = store.put(key, {"v": 1})
        envelope = json.loads(path.read_text())
        envelope["content"]["v"] = 2  # tamper without fixing the digest
        path.write_text(json.dumps(envelope))
        with enabled_metrics() as m:
            assert store.get(key) is None
        snap = m.snapshot()
        assert snap["store.corrupt"]["value"] == 1
        with pytest.raises(StoreError):
            store.get(key, on_error="raise")

    def test_corrupt_blob_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("trace", {"p": 2})
        store.put(
            key, {}, blob_writers={"b": lambda p: p.write_bytes(b"good")}
        )
        store.get(key).blobs["b"].write_bytes(b"rotten")
        assert store.get(key) is None

    def test_same_size_blob_rot_is_caught_on_open(self, tmp_path):
        """``get`` checks blob sizes only; the digest is checked when
        the blob is opened, and maintenance still hashes in full."""
        store = ArtifactStore(tmp_path)
        key = store.key("trace", {"p": 3})
        store.put(
            key, {}, blob_writers={"trace": lambda p: p.write_bytes(b"good")}
        )
        flip_byte(store.blob_path(key, "trace"))
        with enabled_metrics() as m:
            art = store.get(key)
            assert art is not None
            with pytest.raises(StoreError, match="blob digest mismatch"):
                art.blobs["trace"]
        snap = m.snapshot()
        assert snap["store.hits"]["labels"] == {"stage=trace": 1.0}
        assert snap["store.corrupt"]["labels"] == {"stage=trace": 1.0}
        assert any("blob digest mismatch" in i for i in store.verify())
        report = fsck(store)
        assert report.corrupt_objects == [
            str(store.object_path(key).relative_to(tmp_path))
        ]

    def test_blobs_mapping_is_read_only_and_verifies_once(
        self, tmp_path, monkeypatch
    ):
        import repro.store.store as store_mod

        store = ArtifactStore(tmp_path)
        key = store.key("trace", {"p": 4})
        store.put(
            key, {}, blob_writers={"trace": lambda p: p.write_bytes(b"x" * 64)}
        )
        art = store.get(key)
        assert list(art.blobs) == ["trace"] and len(art.blobs) == 1
        with pytest.raises(TypeError):
            art.blobs["trace"] = tmp_path
        with pytest.raises(KeyError):
            art.blobs["nope"]
        hashed = []
        real = store_mod.content_digest
        monkeypatch.setattr(
            store_mod, "content_digest",
            lambda data: hashed.append(len(data)) or real(data),
        )
        assert art.blobs["trace"] == art.blobs["trace"]
        assert hashed == [64]

    def test_hit_miss_metrics_labelled_by_stage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("signature", {"n": 1})
        with enabled_metrics() as m:
            store.get(key)
            store.put(key, {"sig": []})
            store.get(key)
        snap = m.snapshot()
        assert snap["store.misses"]["labels"] == {"stage=signature": 1.0}
        assert snap["store.hits"]["labels"] == {"stage=signature": 1.0}
        assert snap["store.writes"]["labels"] == {"stage=signature": 1.0}

    def test_entries_and_total_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(store.key("run", {"a": 1}), {"v": 1})
        store.put(store.key("trace", {"b": 2}), {"v": 2})
        entries = store.entries()
        assert sorted(e["stage"] for e in entries) == ["run", "trace"]
        assert store.total_bytes() > 0

    def test_gc_by_age(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("run", {"a": 1})
        path = store.put(key, {"v": 1})
        envelope = json.loads(path.read_text())
        envelope["created"] -= 10_000
        # Rewriting 'created' invalidates nothing: it is outside the
        # content digest.
        path.write_text(json.dumps(envelope))
        assert store.gc(max_age_seconds=5_000) == [key.digest]
        assert store.get(key) is None

    def test_gc_by_bytes_evicts_oldest_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        old = store.key("run", {"n": "old"})
        new = store.key("run", {"n": "new"})
        old_path = store.put(old, {"v": "x" * 100})
        store.put(new, {"v": "y" * 100})
        envelope = json.loads(old_path.read_text())
        envelope["created"] -= 100
        old_path.write_text(json.dumps(envelope))
        # Budget of 3/4 of the store: evicting the oldest of the two
        # (roughly equal-sized) artifacts suffices, the newer survives.
        evicted = store.gc(max_bytes=store.total_bytes() * 3 // 4)
        assert old.digest in evicted
        assert store.get(new) is not None

    def test_verify_and_prune(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("run", {"a": 1})
        path = store.put(key, {"v": 1})
        orphan = store.blob_path("deadbeef", "trace")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"junk")
        path.write_text("{broken")
        # With grace=0 the fresh orphan is reportable immediately.
        issues = store.verify(grace_seconds=0.0)
        assert any("unreadable" in i for i in issues)
        assert any("orphan" in i for i in issues)
        removed = store.prune(grace_seconds=0.0)
        assert removed == {"objects": 1, "blobs": 1, "tmp": 0}
        assert store.verify(grace_seconds=0.0) == []

    def test_verify_and_prune_spare_fresh_orphans(self, tmp_path):
        """Default grace protects a concurrent writer's in-flight blob."""
        store = ArtifactStore(tmp_path)
        orphan = store.blob_path("deadbeef", "trace")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"mid-write")
        tmp = orphan.with_name(orphan.name + ".tmp123")
        tmp.write_bytes(b"partial")
        assert store.verify() == []
        removed = store.prune()
        assert removed == {"objects": 0, "blobs": 0, "tmp": 0}
        assert orphan.exists() and tmp.exists()


class TestPipelineCache:
    def test_simulated_run_memoizes(self, tmp_path):
        from repro.cluster.contention import DEDICATED
        from repro.cluster.topology import paper_testbed
        from repro.sim import run_program
        from repro.workloads import get_program

        cluster = paper_testbed()
        cache = PipelineCache(ArtifactStore(tmp_path), cluster)
        program = get_program("cg", "S", 4, 12345)
        params = workload_params("cg", "S", 4, 12345)
        calls = []

        def compute():
            calls.append(1)
            return run_program(program, cluster)

        first = cache.simulated_run(params, DEDICATED, 0, compute)
        second = cache.simulated_run(params, DEDICATED, 0, compute)
        assert len(calls) == 1
        assert first == second

    def test_disabled_cache_is_pass_through(self, tmp_path):
        from repro.cluster.contention import DEDICATED
        from repro.cluster.topology import paper_testbed
        from repro.sim import run_program
        from repro.workloads import get_program

        cluster = paper_testbed()
        cache = PipelineCache(
            ArtifactStore(tmp_path), cluster, enabled=False
        )
        program = get_program("cg", "S", 4, 12345)
        params = workload_params("cg", "S", 4, 12345)
        calls = []

        def compute():
            calls.append(1)
            return run_program(program, cluster)

        cache.simulated_run(params, DEDICATED, 0, compute)
        cache.simulated_run(params, DEDICATED, 0, compute)
        assert len(calls) == 2
        assert ArtifactStore(tmp_path).entries() == []

    def test_traced_run_recomputes_a_rotted_trace_blob(self, tmp_path):
        """A trace blob that rotted at the same size fails its digest
        on open; ``traced_run`` then recomputes and overwrites it."""
        from repro.cluster.topology import paper_testbed
        from repro.trace.io import read_trace
        from repro.trace.tracer import trace_program
        from repro.workloads import get_program

        cluster = paper_testbed()
        store = ArtifactStore(tmp_path)
        cache = PipelineCache(store, cluster)
        program = get_program("cg", "S", 4, 12345)
        params = workload_params("cg", "S", 4, 12345)
        calls = []

        def compute():
            calls.append(1)
            return trace_program(program, cluster)

        _, first = cache.traced_run(params, compute)
        key = cache.trace_key(params)
        good = store.blob_path(key, "trace").read_bytes()
        flip_byte(store.blob_path(key, "trace"))
        with enabled_metrics() as m:
            trace, again = cache.traced_run(params, compute)
        assert len(calls) == 2
        assert m.snapshot()["store.corrupt"]["labels"] == {"stage=trace": 1.0}
        assert again == first
        # Overwritten: the blob is whole again and the next open verifies.
        assert store.blob_path(key, "trace").read_bytes() == good
        reread = read_trace(store.get(key).blobs["trace"])
        assert reread.n_calls() == trace.n_calls()
        cache.traced_run(params, compute)
        assert len(calls) == 2

    def test_scenario_fingerprint_distinguishes_scenarios(self):
        from repro.cluster.scenarios import paper_scenarios

        scens = paper_scenarios(4, steady=True)
        fps = {scenario_fingerprint(s) for s in scens}
        assert len(fps) == len(scens)
        assert scenario_fingerprint(scens[0]) == scenario_fingerprint(scens[0])


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("store-campaign")
        runner = ExperimentRunner(TINY, cache_dir=str(cache))
        results = runner.run()
        return cache, results

    def test_warm_rerun_serves_every_stage_from_store(self, warm):
        cache, cold = warm
        with enabled_metrics() as m:
            runner = ExperimentRunner(TINY, cache_dir=str(cache))
            hot = runner.run(force=True)
        snap = m.snapshot()
        assert "store.misses" not in snap
        assert snap["store.hits"]["value"] > 0
        # The expensive compression search never re-ran.
        assert "construct.skeletons_built" not in snap
        assert hot.to_json() == cold.to_json()

    def test_runner_honours_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
        runner = ExperimentRunner(TINY)
        assert runner.cache_dir == tmp_path / "via-env"
