"""Golden signature pins for the threshold search (the byte-identity
contract).

Store keys never contain the compression options, so a cached
signature stays valid only while the search returns, for the same
trace and options, the same threshold and a signature that is
byte-identical through the store's canonical JSON encoding. These
tests pin the SHA-256 of that encoding, plus the chosen threshold and
compression ratio, on all six NAS Class S workloads and on hand-built
edge-case traces. tests/test_compress_property.py checks the search's
stopping rule on fuzzed traces (tier2).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import paper_testbed
from repro.core.compress import CompressionOptions, compress_trace
from repro.core.sigio import signature_to_dict
from repro.store import canonical_json
from repro.trace import trace_program
from repro.trace.records import Trace, TraceRecord
from repro.workloads import get_program

NAS_BENCHMARKS = ("bt", "cg", "is", "lu", "mg", "sp")

#: Targets spanning "trivially met at threshold 0" through "sweep runs
#: to patience / the threshold cap".
TARGET_RATIOS = (2.0, 8.0, 1e9)

#: (SHA-256 of the canonical signature JSON, threshold, ratio) per
#: workload; the same for every target in TARGET_RATIOS except where
#: ``_NAS_BY_TARGET`` says otherwise.
_NAS_GOLDEN = {
    "bt": ("7c5a2601647f3baa8d0e28e3a768158b63ac50b02028647505b73dcca5c21b9a",
           0.0, 185.9090909090909),
    "cg": ("9b641c29ecf047306971a382c33c940600dcb3ebd0dfe99fc2c58433c1423f9a",
           0.0, 168.1875),
    "is": ("3ec9f1e9c92b2f4d3dbde95453060d374edb9515abb4940d67caafc276ff35bf",
           0.02, 4.6),
    "lu": ("1f8c24ae66d5f30106634d0f94fe1ddd0df4f9074742baab34a5bbc9b275ecb0",
           0.0, 81.5625),
    "mg": ("0efba95e2ce65df33340e0fdd60b66fc2655214d53c8696dad40ad928f1fc291",
           0.05, 7.606060606060606),
    "sp": ("a64ef3016f2d4ce0caf13a001277bbabdbca84662459ec2d8d156b4afddedcac",
           0.0, 309.54545454545456),
}
_NAS_BY_TARGET = {
    ("mg", 2.0): (
        "da159b18c8fa25b636f37340f914924a499dd9501ab2c5ce1bb580766c2f943f",
        0.0, 5.837209302325581,
    ),
}


def golden(sig) -> tuple[str, float, float]:
    """The pinned view of a signature: digest of the store's canonical
    encoding (byte identity), chosen threshold, compression ratio."""
    blob = canonical_json(signature_to_dict(sig)).encode()
    return (
        hashlib.sha256(blob).hexdigest(),
        sig.threshold,
        sig.compression_ratio,
    )


@pytest.fixture(scope="module")
def nas_traces():
    cluster = paper_testbed()
    traces = {}
    for name in NAS_BENCHMARKS:
        trace, _ = trace_program(get_program(name, "S", 4), cluster)
        traces[name] = trace
    return traces


def nas_expected(name, target):
    return _NAS_BY_TARGET.get((name, target), _NAS_GOLDEN[name])


class TestNASByteIdentity:
    @pytest.mark.parametrize("name", NAS_BENCHMARKS)
    def test_signature_byte_identical(self, nas_traces, name):
        for target in TARGET_RATIOS:
            digest, _, _ = golden(compress_trace(nas_traces[name], target))
            assert digest == nas_expected(name, target)[0], (
                f"{name} at Q={target}: the search returned a different "
                f"signature than the pinned one"
            )

    @pytest.mark.parametrize("name", NAS_BENCHMARKS)
    def test_chosen_threshold_and_ratio_match(self, nas_traces, name):
        """The fields the campaign consumes directly (also covered by
        the digest; kept for a readable failure)."""
        for target in TARGET_RATIOS:
            _, threshold, ratio = golden(
                compress_trace(nas_traces[name], target)
            )
            assert (threshold, ratio) == nas_expected(name, target)[1:], (
                f"{name} at Q={target}"
            )


def varying_size_trace(sizes, nranks=1):
    trace = Trace(program_name="var", scenario_name="d", nranks=nranks)
    finish = []
    for rank in range(nranks):
        t = 0.0
        recs = []
        for s in sizes:
            recs.append(
                TraceRecord(
                    "MPI_Send", {"peer": 1, "bytes": s, "tag": 0},
                    t + 0.01, t + 0.011,
                )
            )
            t += 0.011
        trace.records[rank] = recs
        finish.append(t)
    trace.finish_times = finish
    return trace


class TestEdgeCaseEquivalence:
    def test_patience_path(self):
        """A sweep that stops on patience, mid-plateau."""
        trace = varying_size_trace([100, 200] * 10)
        sig = compress_trace(trace, 1e9, CompressionOptions(
            threshold_step=0.01, patience=3, max_threshold=0.25
        ))
        assert golden(sig) == (
            "fb6e1bf54cae5f7e66b903361ebf4d31eaf77a7241b6979ec2c237d32926e841",
            0.0, 10.0,
        )

    def test_threshold_cap_path(self):
        """A sweep that runs all the way to max_threshold."""
        trace = varying_size_trace([10 ** (i % 7) for i in range(20)])
        sig = compress_trace(trace, 1000.0, CompressionOptions(
            max_threshold=0.2, patience=100
        ))
        assert golden(sig) == (
            "a026e8d42285712dbcd1f791d14c31de21b48a89c1d9fb065d1e2030fa479b36",
            0.09999999999999999, 6.666666666666667,
        )

    def test_nonzero_start_threshold(self):
        """The alignment-repair loop restarts the search above zero."""
        trace = varying_size_trace(
            [10_000, 9_800, 10_100, 9_900, 10_050, 9_950] * 5
        )
        sig = compress_trace(trace, 10.0, CompressionOptions(
            start_threshold=0.03, max_threshold=0.25
        ))
        assert golden(sig) == (
            "001d8f5a96c8610e0d3d9587da56320894c25099b699ca47994951b8b002d182",
            0.03, 30.0,
        )

    def test_dense_merge_thresholds(self):
        """Sizes spread so that nearly every grid step changes the
        clustering."""
        trace = varying_size_trace([1000 + 7 * i for i in range(40)])
        sig = compress_trace(trace, 1e9, CompressionOptions(patience=30))
        assert golden(sig) == (
            "13297c2f275f10eb1438ad777f1aca44db4525236d400aa969bf27476a1bb21e",
            0.10999999999999999, 40.0,
        )

    def test_tight_fold_budget(self):
        """Budget-exhausted folding is pinned too (the hash filter
        charges the reference cost model)."""
        trace = varying_size_trace([100, 150, 100, 150, 200] * 8)
        sig = compress_trace(trace, 1e9, CompressionOptions(work_budget=64))
        assert golden(sig) == (
            "9ad231e42c6f2177b05052e37683ca5f2e37895fc97192c67a44392dc0b2d62b",
            0.0, 1.6666666666666667,
        )
