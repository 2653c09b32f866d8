"""Self-healing doctor tests: ``repro.store.fsck`` and the
``repro-skeleton doctor`` CLI.

The contract: one doctor pass on a damaged cache repairs everything it
can (quarantining, never silently deleting, corrupt data) and a second
pass reports clean.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cli import main
from repro.experiments.journal import CampaignJournal
from repro.obs.metrics import enabled_metrics
from repro.store import ArtifactStore, FsckReport, fsck


def _put_one(store: ArtifactStore, n: int = 0):
    key = store.key("trace", {"n": n})
    store.put(
        key,
        {"v": n},
        blob_writers={"data": lambda p: p.write_bytes(b"payload-%d" % n)},
    )
    return key


def _age(path, seconds: float = 3600.0) -> None:
    t = time.time() - seconds
    os.utime(path, (t, t))


def _damage(root) -> ArtifactStore:
    """Build a store exhibiting every damage class fsck handles."""
    store = ArtifactStore(root)
    _put_one(store, 0)                       # intact artifact
    corrupt_key = _put_one(store, 1)         # flipped content byte
    obj = store.object_path(corrupt_key)
    obj.write_text(obj.read_text().replace('"v": 1', '"v": 111'))
    unparseable_key = _put_one(store, 2)     # half a JSON envelope
    obj2 = store.object_path(unparseable_key)
    obj2.write_text(obj2.read_text()[: obj2.stat().st_size // 2])

    orphan = store._blob_dir / "0rphan-data"  # stale unreferenced blob
    orphan.write_bytes(b"nobody references me")
    _age(orphan)
    stale_tmp = store._objects / "ab" / "x.json.tmp123"
    stale_tmp.parent.mkdir(parents=True, exist_ok=True)
    stale_tmp.write_text("{")
    _age(stale_tmp)

    j = CampaignJournal(store.root / "journal-camp.jsonl")
    j.record("run-1", {"status": "ok"})
    j.close()
    with open(j.path, "ab") as fh:            # torn trailing line
        fh.write(b'{"key": "run-2", "status": "o')
    return store


class TestFsck:
    def test_repair_then_clean(self, tmp_path):
        store = _damage(tmp_path)
        with enabled_metrics() as m:
            report = fsck(store)
        assert not report.clean
        assert report.objects_scanned == 3
        assert len(report.corrupt_objects) == 2
        assert len(report.orphan_blobs) == 1
        assert len(report.tmp_removed) == 1
        assert report.journals_scanned == 1
        assert report.journals_repaired == ["journal-camp.jsonl"]
        assert report.partial_lines_dropped == 1
        snap = m.snapshot()
        assert snap["store.quarantined"]["value"] == len(report.quarantined)

        # Quarantined, not deleted: the files moved, byte-for-byte.
        qdir = store.root / "store" / "quarantine"
        assert len(list(qdir.iterdir())) == len(report.quarantined)
        # The corrupt envelopes took their referenced blobs with them.
        assert len(report.quarantined) >= len(report.corrupt_objects)

        # The journal truncated back to its last intact line.
        lines = (store.root / "journal-camp.jsonl").read_bytes().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["key"] == "run-1"

        # The intact artifact survived untouched.
        art = store.get(store.key("trace", {"n": 0}))
        assert art is not None and art.content == {"v": 0}

        second = fsck(store)
        assert second.clean, second.render()

    def test_dry_run_mutates_nothing(self, tmp_path):
        store = _damage(tmp_path)
        before = sorted(
            str(p) for p in store.root.rglob("*") if p.is_file()
        )
        report = fsck(store, repair=False)
        assert not report.clean and not report.repaired
        assert report.quarantined == []  # found, but not moved
        after = sorted(str(p) for p in store.root.rglob("*") if p.is_file())
        assert before == after

    def test_quota_evicts_least_recently_read(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [_put_one(store, n) for n in range(3)]
        for i, key in enumerate(keys):
            _age(store.object_path(key), 3600.0 - i)
        store.get(keys[0])  # a read refreshes key 0's recency
        sizes = store.total_bytes()
        with enabled_metrics() as m:
            report = fsck(store, max_cache_bytes=sizes // 2)
        assert report.evicted  # some eviction happened...
        assert keys[0].digest not in report.evicted  # ...but not the hot key
        assert report.bytes_after <= sizes // 2
        assert store.get(keys[0]) is not None
        assert m.snapshot()["store.evicted"]["value"] == len(report.evicted)
        assert report.clean  # quota eviction is not damage

    def test_report_roundtrip(self, tmp_path):
        report = fsck(_damage(tmp_path))
        d = report.to_dict()
        assert d["clean"] is False
        assert json.loads(json.dumps(d)) == d
        text = report.render()
        assert "REPAIRED" in text and str(tmp_path) in text

    def test_fresh_inflight_files_are_not_damage(self, tmp_path):
        """A concurrent writer's fresh tmp/orphan is left alone."""
        store = ArtifactStore(tmp_path)
        _put_one(store, 0)
        blob = store._blob_dir / "fresh-data"
        blob.write_bytes(b"mid-publish")
        tmp = store._objects / "ab" / "y.json.tmp42"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("{")
        report = fsck(store)
        assert report.clean
        assert blob.exists() and tmp.exists()


class TestDoctorCli:
    def test_doctor_repairs_then_reports_clean(self, tmp_path, capsys):
        _damage(tmp_path)
        report_file = tmp_path / "fsck-report.json"
        rc = main([
            "doctor", "--cache-dir", str(tmp_path),
            "--report", str(report_file),
        ])
        assert rc == 0  # repaired successfully
        out = capsys.readouterr().out
        assert "REPAIRED" in out
        dumped = json.loads(report_file.read_text())
        assert dumped["clean"] is False and dumped["repaired"] is True

        rc = main(["doctor", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_doctor_dry_run_exit_code_flags_issues(self, tmp_path, capsys):
        _damage(tmp_path)
        assert main(["doctor", "--cache-dir", str(tmp_path), "--dry-run"]) == 1
        assert "dry run" in capsys.readouterr().out
        # Nothing was repaired, so a second dry run still flags.
        assert main(["doctor", "--cache-dir", str(tmp_path), "--dry-run"]) == 1
        # Clean cache: dry run exits 0.
        clean_dir = tmp_path / "clean"
        ArtifactStore(clean_dir)
        _put_one(ArtifactStore(clean_dir))
        assert main(["doctor", "--cache-dir", str(clean_dir), "--dry-run"]) == 0

    def test_doctor_reclaims_legacy_trace_copies(self, tmp_path, capsys):
        """Trace copies older campaigns kept under ``<cache>/traces/``
        flag a dry run, are deleted by a repair, and a second pass is
        clean."""
        _put_one(ArtifactStore(tmp_path))
        legacy = tmp_path / "traces"
        legacy.mkdir()
        (legacy / "ab12.trace").write_bytes(b"an old campaign's copy")

        assert main(["doctor", "--cache-dir", str(tmp_path), "--dry-run"]) == 1
        assert "legacy trace copies: 1" in capsys.readouterr().out
        assert (legacy / "ab12.trace").exists()

        report = fsck(ArtifactStore(tmp_path))
        assert report.legacy_traces == ["traces/ab12.trace"]
        assert not legacy.exists()
        assert main(["doctor", "--cache-dir", str(tmp_path), "--dry-run"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_doctor_enforces_quota(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path)
        for n in range(4):
            _put_one(store, n)
        budget = store.total_bytes() // 2
        rc = main([
            "doctor", "--cache-dir", str(tmp_path),
            "--max-cache-bytes", str(budget),
        ])
        assert rc == 0
        assert "evicted" in capsys.readouterr().out
        assert store.total_bytes() <= budget
