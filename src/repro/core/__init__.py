"""The paper's primary contribution: automatic construction of
performance skeletons from execution traces (sections 3.1–3.4).

Pipeline::

    trace                    (repro.trace)
      -> event streams       (core.events)
      -> symbol strings      (core.clustering, similarity threshold)
      -> loop nests          (core.loopfind)
      -> execution signature (core.signature, threshold search in
                              core.compress targets ratio Q = K/2)
      -> scaled signature    (core.scale, factor K)
      -> skeleton            (core.skeleton: runnable Program;
                              core.codegen: synthetic C/MPI source)

:func:`repro.core.construct.build_skeleton` runs the whole pipeline.
"""

from repro.core.events import ExecEvent, RankStream, trace_to_streams
from repro.core.clustering import ClusterSpace, cluster_stream
from repro.core.signature import EventStats, LoopNode, RankSignature, Signature
from repro.core.compress import CompressionOptions, compress_trace
from repro.core.scale import scale_signature
from repro.core.skeleton import skeleton_program, check_alignment
from repro.core.goodness import GoodnessReport, shortest_good_skeleton
from repro.core.construct import SkeletonBundle, build_skeleton
from repro.core.codegen import generate_c_source
from repro.core.sigio import read_signature, write_signature
from repro.core.render import render_rank_signature, render_signature

__all__ = [
    "ExecEvent",
    "RankStream",
    "trace_to_streams",
    "ClusterSpace",
    "cluster_stream",
    "CompressionOptions",
    "EventStats",
    "LoopNode",
    "RankSignature",
    "Signature",
    "compress_trace",
    "scale_signature",
    "skeleton_program",
    "check_alignment",
    "GoodnessReport",
    "shortest_good_skeleton",
    "SkeletonBundle",
    "build_skeleton",
    "generate_c_source",
    "read_signature",
    "write_signature",
    "render_rank_signature",
    "render_signature",
]
