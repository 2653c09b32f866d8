"""Content-addressed artifact store for pipeline stage outputs.

The paper's workflow — trace → signature → skeleton → simulated runs —
is a deterministic derivation graph: every stage output is a pure
function of canonical inputs (program identity, cluster description,
scenario, seed) plus the code that computes it. This module persists
those outputs under a single cache root so that repeated pipeline
invocations recompute *nothing*.

Keying
------

An artifact is addressed by a BLAKE2b digest over the canonical JSON of
``{"stage": ..., "params": ..., "salt": ...}``:

* ``stage`` — which pipeline stage produced it (``"trace"``,
  ``"signature"``, ``"skeleton"``, ``"run"``, ``"results"``);
* ``params`` — the canonicalized inputs (JSON-serialisable dict; keys
  are sorted, floats keep exact ``repr`` round-trip);
* ``salt`` — the code-version salt :data:`CODE_SALT`. Bumping it
  invalidates every artifact at once; that is the invalidation story
  when stage semantics change (see ``docs/SCALING.md``).

Upstream artifacts appear in downstream params *by digest* (a skeleton
is keyed by its trace's digest), so the whole pipeline forms a Merkle
chain: changing any input changes every downstream key.

Layout and integrity
--------------------

::

    <cache root>/store/objects/ab/<digest>.json   # JSON envelope
    <cache root>/store/blobs/<digest>-<name>      # large payloads

The envelope records a digest of its content and the digest and size
of every attached blob. :meth:`ArtifactStore.get` verifies the content
digest and that each blob exists at its recorded size (one ``stat``, no
read); a blob's digest is verified when it is *opened* — the first
``artifact.blobs[name]`` — so a blob nobody reads is never hashed, and
every blob that is read is verified before use. A torn write or bit-rot
in the envelope, or a missing or resized blob, reads as a *miss* (or
raises :class:`~repro.errors.StoreError` with ``on_error="raise"``); a
blob whose bytes rotted at the same size raises
:class:`~repro.errors.StoreError` on open. Never wrong data either way.
:meth:`~ArtifactStore.verify`, :meth:`~ArtifactStore.prune` and
:func:`~repro.store.fsck.fsck` hash every blob in full.

Writes are atomic (temp file + ``os.replace``) and safe under
concurrent writers producing the same key: content-addressing makes
the race benign — both write identical bytes.

Hit/miss/eviction counts are reported through the
:mod:`repro.obs.metrics` registry (``store.hits``, ``store.misses``,
``store.writes``, ``store.corrupt``, ``store.evictions``, each labelled
by stage).

The cache root resolves in priority order: an explicit argument, the
``REPRO_CACHE_DIR`` environment variable, then ``.repro_cache`` under
the nearest ancestor containing ``pyproject.toml``/``setup.py``/
``.git`` (so CLI invocations from a subdirectory share the project
cache), and finally ``.repro_cache`` under the working directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Union

from repro.errors import StoreError
from repro.faults import io as _fio
from repro.obs.metrics import get_metrics

__all__ = [
    "Artifact",
    "ArtifactStore",
    "CODE_SALT",
    "DEFAULT_CACHE_DIR_NAME",
    "DEFAULT_ORPHAN_GRACE_SECONDS",
    "StoreKey",
    "canonical_json",
    "content_digest",
    "find_project_root",
    "resolve_cache_dir",
]

#: Code-version salt mixed into every key. Bump when a stage's
#: semantics change in a way that invalidates its cached outputs.
CODE_SALT = "repro-store-v1"

#: Basename of the cache directory (under the project root or CWD).
DEFAULT_CACHE_DIR_NAME = ".repro_cache"

#: Files whose presence marks a project root for cache anchoring.
_ROOT_MARKERS = ("pyproject.toml", "setup.py", ".git")

_FORMAT = 1

#: How long maintenance (``verify``/``prune``/``fsck``) leaves an
#: unreferenced blob or ``.tmp`` file alone before treating it as
#: garbage. Protects the window between a concurrent writer's blob
#: write and its envelope publish (see ``tests/test_io_chaos.py``).
DEFAULT_ORPHAN_GRACE_SECONDS = 300.0


def _is_tmp(path: Path) -> bool:
    """True for an in-progress atomic-write temp file (``*.tmp<pid>``)."""
    return ".tmp" in path.name


def _older_than(path: Path, seconds: float) -> bool:
    try:
        return time.time() - path.stat().st_mtime > seconds
    except OSError:
        return False


def _count(name: str, stage: str) -> None:
    """Tick the ``store.<name>`` counter and its ``stage`` label."""
    metrics = get_metrics()
    if metrics.enabled:
        c = metrics.counter(f"store.{name}", f"store {name} by stage")
        c.inc()
        if stage:
            c.labels(stage=stage).inc()


def canonical_json(obj: object) -> str:
    """Deterministic JSON text: sorted keys, no whitespace.

    Floats round-trip exactly (shortest-repr), so canonical forms of
    equal values are byte-identical across processes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def content_digest(data: Union[bytes, str]) -> str:
    """BLAKE2b-128 hex digest of raw bytes (or UTF-8 of a string)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def find_project_root(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ancestor of ``start`` (default: CWD) that looks like a
    project root, or None."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return None


def resolve_cache_dir(
    explicit: Union[str, os.PathLike, None] = None,
) -> Path:
    """Resolve the cache root: explicit arg > ``$REPRO_CACHE_DIR`` >
    ``<project root>/.repro_cache`` > ``<cwd>/.repro_cache``.

    Anchoring at the project root means CLI runs from any subdirectory
    hit the same cache.
    """
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    root = find_project_root()
    base = root if root is not None else Path.cwd()
    return base / DEFAULT_CACHE_DIR_NAME


@dataclass(frozen=True)
class StoreKey:
    """Address of one artifact: its stage, digest, and the params the
    digest was derived from (kept for inspection, not identity)."""

    stage: str
    digest: str
    params: Mapping = field(default_factory=dict, compare=False, hash=False)


def _hash_blob(root: Path, meta: Mapping) -> Path:
    """Hash one blob in full against its recorded digest; its path."""
    blob_path = root / meta["file"]
    try:
        data = _fio.read_bytes(blob_path)
    except OSError as exc:
        raise StoreError(f"missing blob {meta['file']}: {exc}") from exc
    if content_digest(data) != meta.get("digest"):
        raise StoreError(f"blob digest mismatch: {meta['file']}")
    return blob_path


class _Blobs(Mapping[str, Path]):
    """Read-only blob name → path mapping of one read artifact.

    A blob's digest is checked the first time ``blobs[name]`` is
    accessed, and the verdict cached; a mismatch raises
    :class:`StoreError` and ticks ``store.corrupt``.
    """

    __slots__ = ("_root", "_meta", "_stage", "_opened")

    def __init__(self, root: Path, meta: Mapping[str, Mapping], stage: str):
        self._root = root
        self._meta = meta
        self._stage = stage
        self._opened: dict[str, Path] = {}

    def __getitem__(self, name: str) -> Path:
        path = self._opened.get(name)
        if path is None:
            try:
                path = _hash_blob(self._root, self._meta[name])
            except StoreError:
                _count("corrupt", self._stage)
                raise
            self._opened[name] = path
        return path

    def __iter__(self) -> Iterator[str]:
        return iter(self._meta)

    def __len__(self) -> int:
        return len(self._meta)


@dataclass
class Artifact:
    """One artifact read back from the store. ``blobs`` verifies each
    blob's digest when it is first opened."""

    stage: str
    digest: str
    content: dict
    blobs: Mapping[str, Path]
    params: dict
    created: float
    path: Path


class ArtifactStore:
    """Content-addressed artifact store under ``<root>/store/``."""

    def __init__(self, root: Union[str, os.PathLike, None] = None):
        self.root = resolve_cache_dir(root)
        self._objects = self.root / "store" / "objects"
        self._blob_dir = self.root / "store" / "blobs"
        self._quarantine = self.root / "store" / "quarantine"
        #: True once a write has failed and the store fell back to
        #: cache-bypass (see :meth:`put`); campaigns keep running.
        self.degraded = False

    # -- keys ------------------------------------------------------------

    def key(self, stage: str, params: Mapping, salt: str = CODE_SALT) -> StoreKey:
        """Derive the content-addressed key for ``stage`` + ``params``."""
        blob = canonical_json({"stage": stage, "params": params, "salt": salt})
        return StoreKey(stage=stage, digest=content_digest(blob), params=dict(params))

    def object_path(self, key: Union[StoreKey, str]) -> Path:
        digest = key.digest if isinstance(key, StoreKey) else str(key)
        return self._objects / digest[:2] / f"{digest}.json"

    def _blob_path(self, digest: str, name: str) -> Path:
        return self._blob_dir / f"{digest}-{name}"

    def blob_path(self, key: Union[StoreKey, str], name: str) -> Path:
        """Path a named blob of ``key`` lives at (whether or not it
        exists yet); blob files sit under the store root, so callers
        may journal them relative to the cache directory."""
        digest = key.digest if isinstance(key, StoreKey) else str(key)
        return self._blob_path(digest, name)

    # -- write -----------------------------------------------------------

    def put(
        self,
        key: StoreKey,
        content: dict,
        blob_writers: Optional[Mapping[str, Callable[[Path], None]]] = None,
    ) -> Optional[Path]:
        """Store ``content`` (JSON dict) plus optional named blob files.

        Each ``blob_writers[name]`` is called with a temp path to write
        the payload; the store then digests and registers the file.
        Atomic: concurrent writers of the same key are benign.

        A write failure (disk full, unwritable cache directory, torn
        write) never aborts the caller: the store **degrades to
        cache-bypass** — the failed artifact simply stays a miss, a
        warning is issued once, the ``store.degraded`` metric counts
        the event, and ``None`` is returned instead of the object
        path. Campaigns keep running without the cache.
        """
        try:
            return self._put(key, content, blob_writers)
        except OSError as exc:
            self._degrade(key, exc)
            return None

    def _degrade(self, key: StoreKey, exc: OSError) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            c = metrics.counter(
                "store.degraded", "store writes dropped (cache-bypass)"
            )
            c.inc()
            c.labels(stage=key.stage).inc()
        if not self.degraded:
            self.degraded = True
            warnings.warn(
                f"artifact store at {self.root} is degraded to "
                f"cache-bypass ({type(exc).__name__}: {exc}); campaign "
                f"continues without caching — run `repro-skeleton "
                f"doctor` to repair",
                RuntimeWarning,
                stacklevel=3,
            )

    def _put(
        self,
        key: StoreKey,
        content: dict,
        blob_writers: Optional[Mapping[str, Callable[[Path], None]]] = None,
    ) -> Path:
        blobs_meta: dict[str, dict] = {}
        for name, writer in (blob_writers or {}).items():
            path = self._blob_path(key.digest, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            writer(tmp)
            data = _fio.read_bytes(tmp)
            _fio.replace(tmp, path)
            blobs_meta[name] = {
                "file": str(path.relative_to(self.root)),
                "digest": content_digest(data),
                "bytes": len(data),
            }
        envelope = {
            "format": _FORMAT,
            "stage": key.stage,
            "digest": key.digest,
            "params": dict(key.params),
            "created": time.time(),
            "content_digest": content_digest(canonical_json(content)),
            "content": content,
            "blobs": blobs_meta,
        }
        obj_path = self.object_path(key)
        obj_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = obj_path.with_name(f"{obj_path.name}.tmp{os.getpid()}")
        _fio.write_text(tmp, json.dumps(envelope, indent=1))
        _fio.replace(tmp, obj_path)
        metrics = get_metrics()
        if metrics.enabled:
            c = metrics.counter("store.writes", "artifacts written to the store")
            c.inc()
            c.labels(stage=key.stage).inc()
        return obj_path

    # -- read ------------------------------------------------------------

    def _load_envelope(self, path: Path) -> dict:
        try:
            envelope = json.loads(_fio.read_text(path))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable store object {path}: {exc}") from exc
        if not isinstance(envelope, dict) or envelope.get("format") != _FORMAT:
            raise StoreError(f"unsupported store object format in {path}")
        return envelope

    def _check_envelope(
        self, envelope: dict, path: Path, stage: str
    ) -> _Blobs:
        """Verify the content digest and that every blob exists at its
        recorded size (a ``stat``, no read); return the blobs mapping,
        which verifies each blob's digest when it is opened."""
        content = envelope.get("content")
        recorded = envelope.get("content_digest")
        if content_digest(canonical_json(content)) != recorded:
            raise StoreError(f"content digest mismatch in {path}")
        metas = envelope.get("blobs") or {}
        for meta in metas.values():
            try:
                size = os.stat(self.root / meta["file"]).st_size
            except OSError as exc:
                raise StoreError(
                    f"missing blob {meta['file']} for {path}: {exc}"
                ) from exc
            if size != meta.get("bytes"):
                raise StoreError(f"blob size mismatch: {meta['file']}")
        return _Blobs(self.root, metas, stage)

    def _verify_envelope(self, envelope: dict, path: Path) -> dict[str, Path]:
        """Integrity-check content and hash every blob in full (the
        maintenance paths); return blob name → path."""
        self._check_envelope(envelope, path, "")
        return {
            name: _hash_blob(self.root, meta)
            for name, meta in (envelope.get("blobs") or {}).items()
        }

    def get(
        self,
        key: Union[StoreKey, str],
        on_error: str = "miss",
    ) -> Optional[Artifact]:
        """Fetch an artifact, verifying integrity on read.

        Returns None on a miss. A corrupt envelope, or a missing or
        resized blob, counts as a miss (``on_error="miss"``, the default
        — the caller recomputes and overwrites) or raises
        :class:`StoreError` (``on_error="raise"``). Blob digests are
        verified when a blob is opened (see :class:`Artifact`).
        """
        stage = key.stage if isinstance(key, StoreKey) else ""
        path = self.object_path(key)
        if not path.exists():
            _count("misses", stage)
            return None
        try:
            envelope = self._load_envelope(path)
            stage = envelope.get("stage", stage) or stage
            blobs = self._check_envelope(envelope, path, stage)
        except StoreError:
            _count("corrupt", stage)
            if on_error == "raise":
                raise
            _count("misses", stage)
            return None
        _count("hits", stage)
        try:
            os.utime(path)  # LRU recency for quota eviction (fsck)
        except OSError:
            pass
        return Artifact(
            stage=stage,
            digest=envelope["digest"],
            content=envelope["content"],
            blobs=blobs,
            params=envelope.get("params", {}),
            created=float(envelope.get("created", 0.0)),
            path=path,
        )

    def contains(self, key: Union[StoreKey, str]) -> bool:
        return self.object_path(key).exists()

    # -- index / maintenance --------------------------------------------

    def _object_files(self) -> list[Path]:
        if not self._objects.exists():
            return []
        return sorted(self._objects.glob("*/*.json"))

    def entries(self) -> list[dict]:
        """Index of stored artifacts (no integrity verification):
        stage, digest, created, total bytes (object + blobs), params."""
        out = []
        for path in self._object_files():
            try:
                envelope = self._load_envelope(path)
            except StoreError:
                out.append({
                    "stage": "?", "digest": path.stem, "created": 0.0,
                    "bytes": path.stat().st_size, "params": {}, "corrupt": True,
                })
                continue
            nbytes = path.stat().st_size
            for meta in (envelope.get("blobs") or {}).values():
                nbytes += int(meta.get("bytes", 0))
            out.append({
                "stage": envelope.get("stage", "?"),
                "digest": envelope.get("digest", path.stem),
                "created": float(envelope.get("created", 0.0)),
                "bytes": nbytes,
                "params": envelope.get("params", {}),
                "corrupt": False,
            })
        return out

    def total_bytes(self) -> int:
        total = 0
        for base in (self._objects, self._blob_dir):
            if base.exists():
                total += sum(
                    p.stat().st_size for p in base.rglob("*") if p.is_file()
                )
        return total

    def verify(
        self, grace_seconds: float = DEFAULT_ORPHAN_GRACE_SECONDS
    ) -> list[str]:
        """Integrity-check every artifact; return human-readable issues.

        In-progress atomic writes are not issues: ``.tmp`` files and
        unreferenced blobs younger than ``grace_seconds`` are skipped —
        a concurrent writer may be about to publish their envelope.
        """
        issues = []
        referenced: set[Path] = set()
        for path in self._object_files():
            try:
                envelope = self._load_envelope(path)
                blobs = self._verify_envelope(envelope, path)
                referenced.update(blobs.values())
            except StoreError as exc:
                issues.append(str(exc))
        for blob in sorted(self._blob_dir.glob("*")) if self._blob_dir.exists() else []:
            if not blob.is_file() or blob in referenced:
                continue
            if _is_tmp(blob) or not _older_than(blob, grace_seconds):
                continue
            issues.append(f"orphan blob {blob.relative_to(self.root)}")
        return issues

    def _delete_object(self, path: Path, stage: str) -> None:
        try:
            envelope = self._load_envelope(path)
            for meta in (envelope.get("blobs") or {}).values():
                try:
                    (self.root / meta["file"]).unlink()
                except FileNotFoundError:
                    pass
        except StoreError:
            pass
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        metrics = get_metrics()
        if metrics.enabled:
            c = metrics.counter("store.evictions", "artifacts evicted")
            c.inc()
            if stage:
                c.labels(stage=stage).inc()

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
        order: str = "created",
    ) -> list[str]:
        """Evict artifacts past an age bound and/or shrink the store to
        a byte budget. Returns evicted digests.

        ``order`` picks the byte-budget eviction victim ordering:
        ``"created"`` (oldest write first) or ``"lru"`` (least recently
        *read* first — reads touch the object's mtime). ``fsck`` quota
        enforcement uses ``"lru"``.
        """
        if order not in ("created", "lru"):
            raise StoreError(f"unknown gc order {order!r}")
        entries = self.entries()
        evicted: list[str] = []
        now = time.time()
        if max_age_seconds is not None:
            for e in entries:
                if now - e["created"] > max_age_seconds:
                    self._delete_object(self.object_path(e["digest"]), e["stage"])
                    evicted.append(e["digest"])
            entries = [e for e in entries if e["digest"] not in set(evicted)]
        if max_bytes is not None:
            def _recency(e) -> float:
                if order == "created":
                    return e["created"]
                try:
                    return self.object_path(e["digest"]).stat().st_mtime
                except OSError:
                    return 0.0

            total = sum(e["bytes"] for e in entries)
            for e in sorted(entries, key=_recency):
                if total <= max_bytes:
                    break
                self._delete_object(self.object_path(e["digest"]), e["stage"])
                evicted.append(e["digest"])
                total -= e["bytes"]
        return evicted

    def prune(
        self, grace_seconds: float = DEFAULT_ORPHAN_GRACE_SECONDS
    ) -> dict[str, int]:
        """Remove corrupt objects, orphan blobs, and stale temp files;
        return counts.

        Safe against a concurrent writer: in-progress ``.tmp`` files
        and unreferenced blobs younger than ``grace_seconds`` are left
        alone — an object mid-publish (blob written, envelope not yet
        renamed in) is never deleted out from under its writer
        (``tests/test_io_chaos.py`` interleaves prune with a write to
        pin this).
        """
        removed = {"objects": 0, "blobs": 0, "tmp": 0}
        referenced: set[Path] = set()
        for path in self._object_files():
            try:
                envelope = self._load_envelope(path)
                blobs = self._verify_envelope(envelope, path)
                referenced.update(blobs.values())
            except StoreError:
                self._delete_object(path, "?")
                removed["objects"] += 1
        for base in (self._objects, self._blob_dir):
            if not base.exists():
                continue
            for tmp in sorted(base.rglob("*")):
                if tmp.is_file() and _is_tmp(tmp) and _older_than(tmp, grace_seconds):
                    try:
                        tmp.unlink()
                        removed["tmp"] += 1
                    except FileNotFoundError:
                        pass
        if self._blob_dir.exists():
            for blob in sorted(self._blob_dir.glob("*")):
                if not blob.is_file() or blob in referenced or _is_tmp(blob):
                    continue
                if not _older_than(blob, grace_seconds):
                    continue
                blob.unlink()
                removed["blobs"] += 1
        return removed
