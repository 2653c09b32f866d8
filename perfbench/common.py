"""What every workload shares: locating the program, a scratch
directory inside the checkout, store scans and output digests."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

#: Root of the checkout (the benchmark directory's parent).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs keep their stores and server logs (ignored by git).
WORK = ROOT / ".perfbench_work"
#: The seed whose output digests and exact counters are recorded in
#: ``expected.json``.
DEFAULT_SEED = 1


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the
    program from it; refuses to measure a copy installed elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


class Scratch:
    """A fresh directory under :data:`WORK`, removed on exit."""

    def __init__(self, name: str):
        self.path = WORK / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def canonical(obj) -> str:
    """The program's canonical JSON (sorted keys, no whitespace)."""
    from repro.store.store import canonical_json

    return canonical_json(obj)


def digest(texts) -> str:
    """SHA-256 over canonical-JSON texts, order-independent."""
    h = hashlib.sha256()
    for text in sorted(texts):
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def store_envelopes(cache_dir: Path):
    """Every object envelope in a store directory, in path order."""
    objects = Path(cache_dir) / "store" / "objects"
    for path in sorted(objects.glob("*/*.json")):
        yield json.loads(path.read_text())


def artifact_bytes(envelope: dict) -> int:
    """Bytes of an artifact's content (canonical JSON) plus its blobs.

    The envelope's own file also holds a write timestamp whose printed
    width varies, so file sizes would not repeat exactly; content and
    blob bytes do."""
    blobs = envelope.get("blobs") or {}
    return len(canonical(envelope["content"]).encode()) + sum(
        int(meta["bytes"]) for meta in blobs.values()
    )


def scan_store(cache_dir: Path) -> tuple[int, int]:
    """(objects, bytes) of a store, bytes as :func:`artifact_bytes`."""
    n = size = 0
    for envelope in store_envelopes(cache_dir):
        n += 1
        size += artifact_bytes(envelope)
    return n, size


def load_expected() -> dict:
    """Digests and exact counters recorded for the default seed."""
    path = Path(__file__).with_name("expected.json")
    return json.loads(path.read_text()) if path.exists() else {}


class Result:
    """One workload run: metrics, operation counts and output checks.

    ``failed`` counts failed or refused operations; every failed output
    check also counts as one failed operation and makes the run
    incorrect."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        #: Figures printed for people (named figures, digests, ...).
        self.lines: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1
        return bool(ok)

    def note(self, text: str) -> None:
        self.lines.append(text)

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)
