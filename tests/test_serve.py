"""repro.serve core: registry, service semantics, byte-identity.

The transport layer has its own suite (``test_serve_transport.py``);
chaos coverage lives in ``test_serve_chaos.py``. Everything here
drives :class:`PredictionService.handle` directly — the same entry
point the server uses — so these are the protocol-semantics tests.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.faults.resilience import RetryPolicy
from repro.obs.metrics import enabled_metrics
from repro.predict.online import (
    is_warm,
    normalize_request,
    request_key,
)
from repro.serve import LRUCache, PredictionService, SkeletonRegistry
from repro.serve.registry import split_alias
from repro.store import ArtifactStore, canonical_json

CG_S = {"bench": "cg", "klass": "S", "nprocs": 4, "target": 0.05}


@pytest.fixture
def service(tmp_path):
    return PredictionService(cache_dir=str(tmp_path / "store"))


class TestAliasGrammar:
    def test_bare_and_versioned(self):
        assert split_alias("lu.4r.k16") == ("lu.4r.k16", None)
        assert split_alias("lu.4r.k16@v3") == ("lu.4r.k16", 3)

    @pytest.mark.parametrize("bad", ["", "a b", "x@v", "x@3", "x@v1@v2"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ServeError):
            split_alias(bad)


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        lru = LRUCache(2)
        lru["a"], lru["b"] = 1, 2
        assert lru.get("a") == 1  # refreshes "a"
        lru["c"] = 3  # evicts "b", the least recent
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.hits == 1 and lru.misses == 0
        assert lru.get("b") is None
        assert lru.misses == 1

    def test_zero_capacity_disables(self):
        lru = LRUCache(0)
        lru["a"] = 1
        assert len(lru) == 0 and lru.get("a") is None


class TestRegistry:
    def _publish(self, reg, alias, n=1):
        return reg.publish(
            alias,
            workload={"bench": "cg", "klass": "S", "nprocs": 4, "seed": n},
            target=0.05,
            trace_digest=f"t{n}",
            skeleton_digest=f"s{n}",
            app_dedicated_seconds=1.0,
        )

    def test_auto_versioning_and_latest_pointer(self, tmp_path):
        reg = SkeletonRegistry(ArtifactStore(tmp_path))
        e1 = self._publish(reg, "cg.s4", n=1)
        e2 = self._publish(reg, "cg.s4", n=2)
        assert (e1.alias, e2.alias) == ("cg.s4@v1", "cg.s4@v2")
        # The bare name follows the latest version.
        assert reg.resolve("cg.s4").trace_digest == "t2"
        assert reg.resolve("cg.s4@v1").trace_digest == "t1"

    def test_explicit_version_and_replacement(self, tmp_path):
        reg = SkeletonRegistry(ArtifactStore(tmp_path))
        self._publish(reg, "lu@v7", n=1)
        assert reg.resolve("lu").version == 7
        # Publishing an *older* explicit version must not steal latest.
        self._publish(reg, "lu@v3", n=2)
        assert reg.resolve("lu").version == 7
        assert reg.resolve("lu@v3").trace_digest == "t2"

    def test_list_is_deterministic_and_versioned_only(self, tmp_path):
        reg = SkeletonRegistry(ArtifactStore(tmp_path))
        self._publish(reg, "b.two", n=1)
        self._publish(reg, "a.one", n=2)
        self._publish(reg, "a.one", n=3)
        aliases = [e.alias for e in reg.list()]
        assert aliases == ["a.one@v1", "a.one@v2", "b.two@v1"]
        assert aliases == [e.alias for e in reg.list()]  # stable

    def test_unknown_alias_raises(self, tmp_path):
        reg = SkeletonRegistry(ArtifactStore(tmp_path))
        with pytest.raises(ServeError, match="unknown alias"):
            reg.resolve("ghost")

    def test_degraded_store_fails_publish_loudly(self, tmp_path, monkeypatch):
        """A publish the store cannot persist must raise, never
        silently vanish (the cache-bypass degrade is fine for memo
        artifacts, fatal for registry pointers)."""
        store = ArtifactStore(tmp_path)
        reg = SkeletonRegistry(store)
        monkeypatch.setattr(store, "put", lambda *a, **k: None)
        with pytest.raises(ServeError, match="doctor"):
            self._publish(reg, "cg.s4")

    def test_bundle_lru_counts_hits(self, tmp_path):
        reg = SkeletonRegistry(ArtifactStore(tmp_path), lru_size=4)
        with enabled_metrics() as m:
            assert reg.cached_bundle("d1") is None
            reg.bundles["d1"] = object()
            assert reg.cached_bundle("d1") is not None
            snap = m.snapshot()
        assert snap["serve.bundle_lru_hits"]["value"] == 1
        assert snap["serve.bundle_lru_misses"]["value"] == 1


class TestNormalize:
    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ServeError, match="unknown benchmark"):
            normalize_request("quux")

    def test_rejects_bad_target_and_nprocs(self):
        with pytest.raises(ServeError):
            normalize_request("cg", target=0.0)
        with pytest.raises(ServeError):
            normalize_request("cg", nprocs=0)

    def test_rejects_unknown_scenario_at_admission(self):
        with pytest.raises(Exception, match="unknown scenario"):
            normalize_request("cg", scenario="bogus")

    def test_request_key_is_stable_identity(self):
        a = normalize_request("cg", klass="S", target=0.05)
        b = normalize_request("cg", klass="S", target=0.05)
        c = normalize_request("cg", klass="S", target=0.06)
        assert request_key(a) == request_key(b)
        assert request_key(a) != request_key(c)


class TestServiceVerbs:
    def test_ping_and_unknown_verb(self, service):
        assert service.handle("ping")["result"] == {"pong": True}
        reply = service.handle("frobnicate")
        assert not reply["ok"] and reply["code"] == 400

    def test_publish_resolve_list_roundtrip(self, service):
        reply = service.handle("publish", {"alias": "cg.s4", **CG_S})
        assert reply["ok"], reply
        entry = reply["result"]
        assert entry["alias"] == "cg.s4@v1"
        assert entry["app_dedicated_seconds"] > 0
        resolved = service.handle("resolve", {"alias": "cg.s4"})["result"]
        assert resolved["skeleton_digest"] == entry["skeleton_digest"]
        listed = service.handle("list")["result"]["entries"]
        assert [e["alias"] for e in listed] == ["cg.s4@v1"]

    def test_alias_predict_equals_explicit_workload(self, service):
        service.handle("publish", {"alias": "cg.s4", **CG_S})
        by_alias = service.handle(
            "predict", {"alias": "cg.s4", "scenario": "cpu-one-node"}
        )
        explicit = service.handle(
            "predict", {**CG_S, "scenario": "cpu-one-node"}
        )
        assert by_alias["ok"] and explicit["ok"]
        assert canonical_json(by_alias["result"]) == canonical_json(
            explicit["result"]
        )

    def test_publish_warms_the_prediction_path(self, service):
        service.handle("publish", {"alias": "cg.s4", **CG_S})
        req = normalize_request(
            "cg", "S", 4, target=0.05, scenario="cpu-one-node"
        )
        # Trace + skeleton are warm; the two skeleton runs are not yet.
        assert not is_warm(req, service.cache)
        assert service.handle("predict", {"alias": "cg.s4"})["ok"]
        assert is_warm(req, service.cache)

    def test_healthz_surfaces_store_degradation(self, service):
        assert service.handle("healthz")["result"]["status"] == "ok"
        service.store.degraded = True
        health = service.handle("healthz")["result"]
        assert health["status"] == "degraded"
        assert health["store"]["degraded"] is True

    def test_metricz_reports_serve_counters(self, service):
        with enabled_metrics():
            service.handle("ping")
            snap = service.handle("metricz")["result"]
        assert snap["serve.requests"]["labels"]["verb=ping"] == 1
        assert snap["serve.latency_seconds"]["count"] >= 1


class TestPredictSemantics:
    def test_served_prediction_is_byte_identical_to_cli(
        self, tmp_path, capsys, service
    ):
        """The acceptance invariant: offline ``predict --json`` and a
        served prediction produce the same canonical JSON bytes —
        cold, and again when answered warm from the store."""
        rc = main([
            "predict", "cg", "--klass", "S", "--target", "0.05",
            "--scenario", "cpu-one-node", "--json",
            "--cache-dir", str(tmp_path / "cli-store"),
        ])
        assert rc == 0
        cli_line = capsys.readouterr().out.strip()

        request = {**CG_S, "scenario": "cpu-one-node"}
        cold = service.handle("predict", request)
        warm = service.handle("predict", request)
        assert cold["ok"] and warm["ok"]
        assert canonical_json(cold["result"]) == cli_line
        assert canonical_json(warm["result"]) == cli_line

    def test_warm_requests_never_simulate(self, service, monkeypatch):
        import repro.predict.online as online

        request = {**CG_S, "scenario": "cpu-one-node"}
        assert service.handle("predict", request)["ok"]

        def no_sim(*a, **k):
            raise AssertionError("warm request ran a simulation")

        monkeypatch.setattr(online, "trace_program", no_sim)
        monkeypatch.setattr(online, "run_program", no_sim)
        with enabled_metrics() as m:
            warm = service.handle("predict", request)
        assert warm["ok"], warm
        assert m.snapshot()["serve.cache_hits"]["value"] == 1

    def test_warm_predict_never_opens_the_trace_blob(self, service):
        """A trace blob rotted at the same size is not read by a warm
        request, which answers byte-identically; it is caught only
        where the blob is opened (see ``test_store.py``)."""
        assert service.handle("publish", {"alias": "cg.s4", **CG_S})["ok"]
        request = {"alias": "cg.s4", "scenario": "cpu-one-node"}
        first = service.handle("predict", request)
        assert first["ok"], first
        (blob,) = service.store.root.glob("store/blobs/*-trace")
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0x01
        blob.write_bytes(bytes(data))
        with enabled_metrics() as m:
            warm = service.handle("predict", request)
        assert warm["ok"], warm
        assert canonical_json(warm["result"]) == canonical_json(
            first["result"]
        )
        snap = m.snapshot()
        assert snap["serve.cache_hits"]["value"] == 1
        assert "store.corrupt" not in snap

    def test_warm_predict_hashes_only_small_artifacts(
        self, service, monkeypatch
    ):
        """Regression guard, on a count not a wall time: one warm
        predict of a published alias hashes the small envelopes it
        reads, never the ~600 KB trace blob."""
        import repro.store.store as store_mod

        assert service.handle("publish", {"alias": "cg.s4", **CG_S})["ok"]
        request = {"alias": "cg.s4", "scenario": "cpu-one-node"}
        assert service.handle("predict", request)["ok"]
        hashed = [0]
        real = store_mod.content_digest

        def counting(data):
            hashed[0] += len(data)
            return real(data)

        monkeypatch.setattr(store_mod, "content_digest", counting)
        assert service.handle("predict", request)["ok"]
        assert 0 < hashed[0] < 64 * 1024

    def test_identical_concurrent_requests_coalesce(self, service):
        """Single flight: with one compute in flight, an identical
        request shares its future instead of recomputing."""
        entered, release = threading.Event(), threading.Event()
        calls = []

        def slow_compute(params, cache, cluster, bundles=None):
            calls.append(1)
            entered.set()
            assert release.wait(10)
            return {"value": 42}

        service._compute = slow_compute
        request = {**CG_S, "scenario": "cpu-one-node"}
        results = []
        with enabled_metrics() as m:
            t1 = threading.Thread(
                target=lambda: results.append(service.handle("predict", request))
            )
            t2 = threading.Thread(
                target=lambda: results.append(service.handle("predict", request))
            )
            t1.start()
            assert entered.wait(10)
            t2.start()
            # Wait for the follower to attach to the in-flight future
            # before releasing the leader (no sleeps, no flakes).
            deadline = time.monotonic() + 10
            while (
                m.counter("serve.coalesced").value < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert m.counter("serve.coalesced").value == 1
            release.set()
            t1.join(10), t2.join(10)
        assert len(calls) == 1
        assert [r["result"] for r in results] == [{"value": 42}] * 2

    def test_failed_leader_fails_followers_then_clears(self, service):
        service._compute = lambda *a, **k: (_ for _ in ()).throw(
            ServeError("boom")
        )
        request = {**CG_S, "scenario": "cpu-one-node"}
        assert service.handle("predict", request)["code"] == 400
        # The in-flight slot is released: a retry runs a fresh compute.
        service._compute = lambda *a, **k: {"value": 1}
        assert service.handle("predict", request)["ok"]


class TestErrorReplies:
    def test_unknown_alias_is_a_400_with_failure_record(self, service):
        reply = service.handle("predict", {"alias": "ghost"})
        assert reply["code"] == 400
        assert reply["error"]["type"] == "ServeError"
        assert "unknown alias" in reply["failure_record"]

    def test_attempts_annotation_reaches_the_client(self, service):
        """The satellite fix: resilient_call's ``.attempts`` annotation
        must propagate into the error reply and its failure_record,
        exactly like a campaign failure record."""
        service.retry_policy = RetryPolicy(
            max_attempts=3, backoff_base=0.0
        )

        def flaky(*a, **k):
            raise OSError("injected store stall")

        service._compute = flaky
        reply = service.handle(
            "predict", {**CG_S, "scenario": "cpu-one-node", "env_seed": 5}
        )
        assert reply["code"] == 500
        assert reply["error"]["type"] == "OSError"
        assert reply["error"]["attempts"] == 3
        assert "after 3 attempt(s)" in reply["failure_record"]
        assert "[scenario cpu-one-node, seed 5]" in reply["failure_record"]

    def test_unexpected_exception_becomes_a_500_reply(self, service):
        """Bugs must not take the server down: any non-Repro exception
        still comes back as a structured 500 reply."""
        def bad(*a, **k):
            raise ZeroDivisionError("zero-length skeleton")

        service._compute = bad
        reply = service.handle(
            "predict", {**CG_S, "scenario": "cpu-one-node"}
        )
        assert reply["code"] == 500
        assert reply["error"]["type"] == "ZeroDivisionError"
        assert reply["error"]["attempts"] == 1
