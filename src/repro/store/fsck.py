"""Scan-and-repair (``fsck``) for the artifact store and campaign journals.

The store's read path already refuses to serve torn or bit-rotted
artifacts (a corrupt object reads as a miss), and journal replay
already skips a truncated trailing line — so a damaged cache is never
*wrong*, just slow and noisy. This module is the repair half of that
story, powering the ``repro-skeleton doctor`` CLI:

* corrupt objects (unparseable envelope, content/blob digest mismatch,
  missing blob) are **quarantined** — moved, together with the blobs
  their envelope references, into ``<root>/store/quarantine/`` for
  post-mortem instead of being deleted;
* unreferenced blobs older than the orphan grace period are
  quarantined; stale ``.tmp`` files from crashed writers are removed
  (both respect :data:`~repro.store.store.DEFAULT_ORPHAN_GRACE_SECONDS`
  so a concurrent writer mid-publish is never raced);
* campaign journals (``journal-*.jsonl`` under the cache root) are
  truncated back to their last intact line, dropping the partial
  trailing line a mid-write kill leaves behind;
* trace copies that campaigns used to keep under ``<root>/traces/``
  (journal entries now name the store's own trace blob, and nothing
  reads or writes that directory) are reported and deleted;
* an optional byte quota (``max_cache_bytes``) is enforced by LRU
  eviction — reads touch object mtimes, so the least recently *used*
  artifacts go first.

Everything is reported in an :class:`FsckReport`; with ``repair=False``
the scan is a dry run that mutates nothing. Repairs are counted
through the :mod:`repro.obs.metrics` registry (``store.quarantined``,
``store.evicted``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import StoreError
from repro.obs.metrics import get_metrics
from repro.store.store import (
    DEFAULT_ORPHAN_GRACE_SECONDS,
    ArtifactStore,
    _is_tmp,
    _older_than,
)

__all__ = ["FsckReport", "fsck"]


@dataclass
class FsckReport:
    """What one fsck pass found (and, unless dry-run, repaired)."""

    root: str
    repaired: bool = True
    objects_scanned: int = 0
    corrupt_objects: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    orphan_blobs: list[str] = field(default_factory=list)
    tmp_removed: list[str] = field(default_factory=list)
    journals_scanned: int = 0
    journals_repaired: list[str] = field(default_factory=list)
    partial_lines_dropped: int = 0
    legacy_traces: list[str] = field(default_factory=list)
    evicted: list[str] = field(default_factory=list)
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def issues(self) -> int:
        """Number of problems found (quota eviction is not a problem)."""
        return (
            len(self.corrupt_objects)
            + len(self.orphan_blobs)
            + len(self.tmp_removed)
            + len(self.journals_repaired)
            + len(self.legacy_traces)
        )

    @property
    def clean(self) -> bool:
        return self.issues == 0

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "repaired": self.repaired,
            "clean": self.clean,
            "objects_scanned": self.objects_scanned,
            "corrupt_objects": list(self.corrupt_objects),
            "quarantined": list(self.quarantined),
            "orphan_blobs": list(self.orphan_blobs),
            "tmp_removed": list(self.tmp_removed),
            "journals_scanned": self.journals_scanned,
            "journals_repaired": list(self.journals_repaired),
            "partial_lines_dropped": self.partial_lines_dropped,
            "legacy_traces": list(self.legacy_traces),
            "evicted": list(self.evicted),
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }

    def render(self) -> str:
        mode = "repaired" if self.repaired else "dry run"
        lines = [f"fsck of {self.root} ({mode})"]
        lines.append(
            f"  objects scanned:   {self.objects_scanned}"
            f" ({len(self.corrupt_objects)} corrupt)"
        )
        for name in self.corrupt_objects:
            lines.append(f"    corrupt: {name}")
        if self.quarantined:
            lines.append(f"  quarantined files: {len(self.quarantined)}")
        if self.orphan_blobs:
            lines.append(f"  orphan blobs:      {len(self.orphan_blobs)}")
        if self.tmp_removed:
            lines.append(f"  stale tmp files:   {len(self.tmp_removed)}")
        lines.append(
            f"  journals scanned:  {self.journals_scanned}"
            f" ({len(self.journals_repaired)} repaired,"
            f" {self.partial_lines_dropped} partial line(s) dropped)"
        )
        if self.legacy_traces:
            lines.append(f"  legacy trace copies: {len(self.legacy_traces)}")
        if self.evicted:
            lines.append(f"  evicted for quota: {len(self.evicted)}")
        lines.append(
            f"  cache size:        {self.bytes_before} -> {self.bytes_after} bytes"
        )
        lines.append("  status:            " + ("CLEAN" if self.clean else "REPAIRED"
                                                if self.repaired else "ISSUES FOUND"))
        return "\n".join(lines)


def _count_metric(name: str, help_text: str, n: int = 1) -> None:
    if n <= 0:
        return
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(name, help_text).inc(n)


def _quarantine_file(store: ArtifactStore, path: Path, report: FsckReport,
                     repair: bool) -> None:
    """Move ``path`` into the quarantine directory (unique name)."""
    rel = str(path.relative_to(store.root))
    if not repair:
        return
    store._quarantine.mkdir(parents=True, exist_ok=True)
    dest = store._quarantine / path.name
    n = 0
    while dest.exists():
        n += 1
        dest = store._quarantine / f"{path.name}.{n}"
    try:
        os.replace(path, dest)
    except OSError:
        return
    report.quarantined.append(rel)
    _count_metric("store.quarantined", "corrupt store files quarantined")


def _fsck_objects(store: ArtifactStore, report: FsckReport, repair: bool,
                  grace_seconds: float) -> None:
    referenced: set[Path] = set()
    for path in store._object_files():
        report.objects_scanned += 1
        try:
            envelope = store._load_envelope(path)
            blobs = store._verify_envelope(envelope, path)
            referenced.update(blobs.values())
            continue
        except StoreError:
            pass
        report.corrupt_objects.append(str(path.relative_to(store.root)))
        # Quarantine the envelope plus every blob it still references:
        # a digest-mismatched blob must leave the store with its object.
        listed: list[Path] = []
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            for meta in (envelope.get("blobs") or {}).values():
                blob = store.root / str(meta.get("file", ""))
                if blob.is_file():
                    listed.append(blob)
        except (OSError, json.JSONDecodeError, AttributeError):
            pass
        _quarantine_file(store, path, report, repair)
        for blob in listed:
            _quarantine_file(store, blob, report, repair)

    # Orphan blobs (stale + unreferenced) and leftover atomic-write tmps.
    for base in (store._objects, store._blob_dir):
        if not base.exists():
            continue
        for tmp in sorted(base.rglob("*")):
            if tmp.is_file() and _is_tmp(tmp) and _older_than(tmp, grace_seconds):
                report.tmp_removed.append(str(tmp.relative_to(store.root)))
                if repair:
                    try:
                        tmp.unlink()
                    except FileNotFoundError:
                        pass
    if store._blob_dir.exists():
        for blob in sorted(store._blob_dir.glob("*")):
            if not blob.is_file() or blob in referenced or _is_tmp(blob):
                continue
            if not _older_than(blob, grace_seconds):
                continue
            report.orphan_blobs.append(str(blob.relative_to(store.root)))
            _quarantine_file(store, blob, report, repair)


def _fsck_journal(path: Path, report: FsckReport, repair: bool) -> None:
    """Truncate ``path`` back to its last intact JSON line."""
    report.journals_scanned += 1
    try:
        data = path.read_bytes()
    except OSError:
        return
    keep = len(data)
    dropped = 0
    while keep > 0:
        nl = data.rfind(b"\n", 0, keep)
        if nl == keep - 1:
            prev = data.rfind(b"\n", 0, nl)
            line = data[prev + 1:nl].strip()
            if not line:
                keep = prev + 1
                continue
            try:
                json.loads(line)
                break
            except json.JSONDecodeError:
                keep = prev + 1
                dropped += 1
        else:
            # Unterminated tail: the partial line a mid-write kill leaves.
            keep = nl + 1
            dropped += 1
    if keep == len(data):
        return
    report.journals_repaired.append(path.name)
    report.partial_lines_dropped += dropped
    if repair:
        with open(path, "r+b") as fh:
            fh.truncate(keep)


def _fsck_legacy_traces(root: Path, report: FsckReport, repair: bool) -> None:
    """Delete ``<root>/traces/*.trace``: copies of store trace blobs
    that older campaigns made and no current code reads."""
    legacy = root / "traces"
    if not legacy.is_dir():
        return
    for path in sorted(legacy.glob("*.trace")):
        report.legacy_traces.append(str(path.relative_to(root)))
        if repair:
            path.unlink(missing_ok=True)
    if repair and not any(legacy.iterdir()):
        legacy.rmdir()


def fsck(
    store: ArtifactStore,
    repair: bool = True,
    max_cache_bytes: Optional[int] = None,
    grace_seconds: float = DEFAULT_ORPHAN_GRACE_SECONDS,
) -> FsckReport:
    """Scan the store and campaign journals; repair unless ``repair`` is
    False (dry run). Returns the :class:`FsckReport`.

    Repair quarantines corrupt objects (with their blobs) and stale
    orphan blobs, removes stale ``.tmp`` files and legacy trace
    copies, truncates torn trailing journal lines, and — when
    ``max_cache_bytes`` is set — evicts least recently used artifacts
    until the store fits the quota.
    """
    report = FsckReport(root=str(store.root), repaired=repair)
    report.bytes_before = store.total_bytes()
    _fsck_objects(store, report, repair, grace_seconds)
    for journal in sorted(store.root.glob("journal-*.jsonl")):
        _fsck_journal(journal, report, repair)
    _fsck_legacy_traces(store.root, report, repair)
    if max_cache_bytes is not None and repair:
        report.evicted = store.gc(max_bytes=max_cache_bytes, order="lru")
        _count_metric(
            "store.evicted", "artifacts evicted by fsck quota",
            len(report.evicted),
        )
    report.bytes_after = store.total_bytes()
    return report
