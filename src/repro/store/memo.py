"""Stage memoization for the trace → skeleton → run pipeline.

:class:`PipelineCache` wraps the three hot pipeline stages with
content-addressed lookups in an :class:`~repro.store.store.ArtifactStore`:

* ``trace``     — a traced dedicated run: the execution trace (stored
  as a trace-file blob) plus its :class:`~repro.sim.engine.RunResult`;
* ``signature`` / ``skeleton`` — the compressed execution signature and
  the skeleton metadata (K, goodness, flags). On a hit the skeleton
  *program* is rebuilt deterministically from the cached signature
  (``scale_signature`` + ``skeleton_program`` are pure), so the
  expensive compression never re-runs;
* ``run``       — one simulated run's :class:`RunResult`, keyed by
  program identity × cluster × scenario × seed.

The cache takes the *compute* as a callable, so callers keep their own
(monkeypatchable, instrumented) call sites; the cache only decides
whether to invoke it. Because the simulator is deterministic and JSON
float round-trips are exact, a value served from the store is
byte-identical to a recomputed one — warm runs and cold runs produce
identical campaign results (pinned by ``benchmarks/bench_store_hit.py``).

Program identity is parametric, not structural: an application program
is identified by ``(bench, class, nprocs, workload seed)`` — the
workload generators are deterministic in those — and a skeleton program
by the digest of the skeleton artifact it was generated from. Combined
with the cluster/scenario fingerprints this forms the canonicalized
input side of every key (see :mod:`repro.store.store`).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Optional

from repro.cluster.contention import Scenario
from repro.cluster.topology import Cluster
from repro.core.construct import SkeletonBundle
from repro.core.goodness import shortest_good_skeleton
from repro.core.scale import scale_signature
from repro.core.sigio import signature_from_dict, signature_to_dict
from repro.core.skeleton import skeleton_program
from repro.errors import StoreError
from repro.sim.engine import RunResult
from repro.store.store import ArtifactStore, StoreKey, canonical_json, content_digest
from repro.trace.io import read_trace, write_trace
from repro.trace.records import Trace

__all__ = [
    "PipelineCache",
    "cluster_fingerprint",
    "runresult_from_dict",
    "runresult_to_dict",
    "scenario_fingerprint",
    "skeleton_program_params",
    "workload_params",
]


def runresult_to_dict(result: RunResult) -> dict:
    """JSON-ready dict of a RunResult (field order matches the
    campaign journal's ``result`` entries)."""
    return {
        "program": result.program_name,
        "scenario": result.scenario_name,
        "nranks": result.nranks,
        "finish_times": list(result.finish_times),
        "elapsed": result.elapsed,
        "n_messages": result.n_messages,
        "n_events": result.n_events,
    }


def runresult_from_dict(obj: dict) -> RunResult:
    return RunResult(
        program_name=str(obj["program"]),
        scenario_name=str(obj["scenario"]),
        nranks=int(obj["nranks"]),
        finish_times=tuple(float(t) for t in obj["finish_times"]),
        elapsed=float(obj["elapsed"]),
        n_messages=int(obj["n_messages"]),
        n_events=int(obj["n_events"]),
    )


def cluster_fingerprint(cluster: Cluster) -> str:
    """Digest of the full cluster description (nodes, network)."""
    return content_digest(canonical_json(asdict(cluster)))


def scenario_fingerprint(scenario: Scenario) -> str:
    """Digest of the full scenario description, fault plan included.

    Built by hand rather than ``dataclasses.asdict`` because
    :class:`Scenario` freezes its mappings into ``MappingProxyType``,
    which ``asdict``'s deepcopy cannot handle. Only behaviour-affecting
    fields participate (``description`` is cosmetic).
    """
    obj = {
        "name": scenario.name,
        "competing": {str(k): int(v) for k, v in scenario.competing.items()},
        "nic_caps": {str(k): float(v) for k, v in scenario.nic_caps.items()},
        "load_model": (
            None if scenario.load_model is None else asdict(scenario.load_model)
        ),
        "traffic_model": (
            None
            if scenario.traffic_model is None
            else asdict(scenario.traffic_model)
        ),
        "fault_plan": (
            None if scenario.fault_plan is None else asdict(scenario.fault_plan)
        ),
    }
    return content_digest(canonical_json(obj))


def workload_params(bench: str, klass: str, nprocs: int, seed: int) -> dict:
    """Identity of an application program (workload generators are
    deterministic in these parameters)."""
    return {
        "kind": "workload",
        "bench": bench,
        "klass": klass,
        "nprocs": nprocs,
        "seed": seed,
    }


def skeleton_program_params(skeleton_digest: str) -> dict:
    """Identity of a generated skeleton program: the artifact digest of
    the skeleton it was built from."""
    return {"kind": "skeleton", "skeleton": skeleton_digest}


class PipelineCache:
    """Store-backed memoization of the compress/construct/simulate path.

    ``enabled=False`` turns every method into a plain pass-through to
    its compute callable (no store reads or writes).
    """

    def __init__(self, store: ArtifactStore, cluster: Cluster, enabled: bool = True):
        self.store = store
        self.enabled = enabled
        self._cluster_fp = cluster_fingerprint(cluster)
        self._scenario_fps: dict[str, str] = {}

    # -- key derivation --------------------------------------------------

    def trace_key(self, program_params: dict) -> StoreKey:
        return self.store.key(
            "trace", {"program": program_params, "cluster": self._cluster_fp}
        )

    def skeleton_key(self, trace_digest: str, target_seconds: float) -> StoreKey:
        return self.store.key(
            "skeleton", {"trace": trace_digest, "target": target_seconds}
        )

    def signature_key(self, trace_digest: str, target_seconds: float) -> StoreKey:
        return self.store.key(
            "signature", {"trace": trace_digest, "target": target_seconds}
        )

    def run_key(
        self, program_params: dict, scenario: Scenario, seed: int
    ) -> StoreKey:
        fp = self._scenario_fps.get(scenario.name)
        if fp is None:
            fp = scenario_fingerprint(scenario)
            self._scenario_fps[scenario.name] = fp
        return self.store.key(
            "run",
            {
                "program": program_params,
                "cluster": self._cluster_fp,
                "scenario": fp,
                "seed": seed,
            },
        )

    # -- stages ----------------------------------------------------------

    def traced_run(
        self,
        program_params: dict,
        compute: Callable[[], tuple[Trace, RunResult]],
    ) -> tuple[Trace, RunResult]:
        """Memoized traced dedicated run: ``(trace, RunResult)``."""
        if not self.enabled:
            return compute()
        key = self.trace_key(program_params)
        artifact = self.store.get(key)
        if artifact is not None:
            try:
                trace = read_trace(artifact.blobs["trace"])
            except StoreError:
                pass  # the blob rotted in place: recompute and overwrite
            else:
                return trace, runresult_from_dict(artifact.content["result"])
        trace, result = compute()
        self.store.put(
            key,
            {"result": runresult_to_dict(result)},
            blob_writers={"trace": lambda p: write_trace(trace, p)},
        )
        return trace, result

    def traced_run_result(self, program_params: dict) -> Optional[RunResult]:
        """Just the :class:`RunResult` of a cached traced run, or
        ``None`` on a miss.

        Reads only the JSON envelope — the trace blob (tens of
        thousands of records) is never opened, so it is neither hashed
        nor deserialized. This is the serving hot path: a warm
        prediction needs the dedicated elapsed time, not the events
        that produced it.
        """
        if not self.enabled:
            return None
        artifact = self.store.get(self.trace_key(program_params))
        if artifact is None:
            return None
        return runresult_from_dict(artifact.content["result"])

    def skeleton(
        self,
        trace_digest: str,
        target_seconds: float,
        compute: Callable[[], SkeletonBundle],
    ) -> SkeletonBundle:
        """Memoized skeleton construction.

        On a hit, the signature is loaded from the store and the
        program is regenerated from it (deterministic, cheap); the
        compression search — the expensive part — never re-runs.
        """
        if not self.enabled:
            return compute()
        skel_key = self.skeleton_key(trace_digest, target_seconds)
        sig_key = self.signature_key(trace_digest, target_seconds)
        skel_art = self.store.get(skel_key)
        if skel_art is not None:
            sig_art = self.store.get(sig_key)
            if sig_art is not None:
                signature = signature_from_dict(sig_art.content["signature"])
                K = float(skel_art.content["K"])
                scaled = scale_signature(signature, K)
                program = skeleton_program(scaled)
                goodness = shortest_good_skeleton(signature)
                return SkeletonBundle(
                    program=program,
                    signature=signature,
                    scaled=scaled,
                    K=K,
                    target_seconds=float(skel_art.content["target_seconds"]),
                    goodness=goodness,
                    flagged=bool(skel_art.content["flagged"]),
                )
        bundle = compute()
        self.store.put(
            sig_key, {"signature": signature_to_dict(bundle.signature)}
        )
        self.store.put(
            skel_key,
            {
                "K": bundle.K,
                "target_seconds": bundle.target_seconds,
                "flagged": bundle.flagged,
                "threshold": bundle.signature.threshold,
                "compression_ratio": bundle.signature.compression_ratio,
                "min_good_seconds": bundle.goodness.min_good_seconds,
                "signature_digest": sig_key.digest,
            },
        )
        return bundle

    def simulated_run(
        self,
        program_params: dict,
        scenario: Scenario,
        seed: int,
        compute: Callable[[], RunResult],
    ) -> RunResult:
        """Memoized simulated run."""
        if not self.enabled:
            return compute()
        key = self.run_key(program_params, scenario, seed)
        artifact = self.store.get(key)
        if artifact is not None:
            return runresult_from_dict(artifact.content["result"])
        result = compute()
        self.store.put(key, {"result": runresult_to_dict(result)})
        return result

    # -- rebuilding from refs (used by parallel workers) ----------------

    def load_skeleton_program(self, skeleton_digest: str):
        """Rebuild a skeleton :class:`Program` from a stored skeleton
        artifact digest, or None if the artifacts are absent."""
        skel_art = self.store.get(skeleton_digest)
        if skel_art is None:
            return None
        sig_art = self.store.get(str(skel_art.content["signature_digest"]))
        if sig_art is None:
            return None
        signature = signature_from_dict(sig_art.content["signature"])
        scaled = scale_signature(signature, float(skel_art.content["K"]))
        return skeleton_program(scaled)
