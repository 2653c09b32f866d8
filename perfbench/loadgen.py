"""Open-loop load generator and the server process it drives.

One process, at most ``nproc`` TCP connections. Requests go out on a
schedule fixed in advance (due offsets from the seed-derived plan),
pipelined with ``id``s, whether or not earlier replies have arrived:
independent users make an open loop. Every request records when it
was due, when it was actually sent and when its reply arrived, so
latency is taken from the due time (see :func:`stats.due_latency`) and
the generator's own lateness is reported beside it.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Grace before the first due time, so connection set-up is not lag.
_LEAD_S = 0.2


@dataclass
class Request:
    """One scheduled request: due offset (s), class label, wire form."""

    due: float
    cls: str
    verb: str
    params: dict


@dataclass
class Outcome:
    """What happened to one :class:`Request` (times on one clock)."""

    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    reply: Optional[dict] = None

    @property
    def code(self) -> int:
        """Reply code; 0 when no reply arrived (a lost request)."""
        return int(self.reply.get("code", 0)) if self.reply else 0


@dataclass
class ServerProcess:
    """``repro-skeleton serve`` as a subprocess of the benchmark.

    Only the port (0: the kernel picks one) and the store directory are
    set; every other flag keeps its default, so the benchmark measures
    the server users run.
    """

    root: Path
    cache_dir: Path
    log_path: Path
    host: str = "127.0.0.1"
    port: int = 0
    proc: Optional[subprocess.Popen] = None
    _log: Optional[object] = field(default=None, repr=False)

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--cache-dir", str(self.cache_dir)],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(
                    f"server did not report ready (see {self.log_path})"
                )
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    continue
                line += chunk
        text = line.decode().strip()
        if not text.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"unexpected server ready line {text!r}")
        self.host, port = text[len("serving on "):].rsplit(":", 1)
        self.port = int(port)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), SIGKILL if it will not go; always
        waits for the process to end."""
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


async def _drive(
    host: str, port: int, requests: list[Request], nconn: int,
    reply_timeout: float,
) -> list[Outcome]:
    loop = asyncio.get_running_loop()
    conns = [await asyncio.open_connection(host, port) for _ in range(nconn)]
    t0 = loop.time() + _LEAD_S
    outcomes = [Outcome(due=t0 + r.due) for r in requests]
    lines = [
        json.dumps({"id": i, "verb": r.verb, "params": r.params}).encode()
        + b"\n"
        for i, r in enumerate(requests)
    ]
    last_due = t0 + (requests[-1].due if requests else 0.0)

    async def send(ci: int) -> None:
        writer = conns[ci][1]
        for i in range(ci, len(requests), nconn):
            delay = outcomes[i].due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcomes[i].sent = loop.time()
            writer.write(lines[i])
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()

    async def receive(ci: int) -> None:
        reader = conns[ci][0]
        expect = len(range(ci, len(requests), nconn))
        for _ in range(expect):
            line = await reader.readline()
            if not line:
                return
            done = loop.time()
            reply = json.loads(line)
            out = outcomes[int(reply["id"])]
            out.done, out.reply = done, reply

    receivers = [asyncio.ensure_future(receive(ci)) for ci in range(nconn)]
    senders = [asyncio.ensure_future(send(ci)) for ci in range(nconn)]
    try:
        await asyncio.gather(*senders)
        budget = max(0.0, last_due - loop.time()) + reply_timeout
        _done, pending = await asyncio.wait(receivers, timeout=budget)
        for task in pending:
            task.cancel()
        for task in receivers:
            try:
                await task
            except asyncio.CancelledError:
                pass
    finally:
        for task in senders + receivers:
            task.cancel()
        for _reader, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return outcomes


def run_open_loop(
    host: str, port: int, requests: list[Request], nconn: int = 2,
    reply_timeout: float = 30.0,
) -> list[Outcome]:
    """Send ``requests`` on their schedule over ``nconn`` persistent
    connections (request *i* on connection *i* mod ``nconn``); return
    one :class:`Outcome` per request, in request order. Requests with
    no reply ``reply_timeout`` s after the last due time are lost."""
    nconn = max(1, min(int(nconn), os.cpu_count() or 1))
    return asyncio.run(_drive(host, port, requests, nconn, reply_timeout))


async def _closed(host, port, calls, nconn) -> list[dict]:
    replies: list = [None] * len(calls)
    queue = list(enumerate(calls))

    async def client() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while queue:
                i, (verb, params) = queue.pop(0)
                writer.write(json.dumps(
                    {"id": i, "verb": verb, "params": params}
                ).encode() + b"\n")
                await writer.drain()
                replies[i] = json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(client() for _ in range(nconn)))
    return replies


def run_closed_loop(
    host: str, port: int, calls: list[tuple[str, dict]], nconn: int = 2
) -> list[dict]:
    """Each of ``nconn`` clients sends its next call only after the
    previous reply (set-up traffic: publishes and the pre-warm)."""
    nconn = max(1, min(int(nconn), os.cpu_count() or 1))
    return asyncio.run(_closed(host, port, calls, nconn))
