"""The server under test and the closed-loop client that drives it.

The server is ``python -m repro serve --listen``, started from the
checkout's ``src`` exactly as a user would start it.  Its CPU time and
peak resident memory are read from ``/proc``.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

READY_MARKER = "listening on "
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve --listen`` subprocess; use as a context manager."""

    def __init__(self, root: Path, scale: float, cache_size: Optional[int] = None):
        self.root = root
        self.scale = scale
        self.cache_size = cache_size
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self._stderr_tail: List[str] = []

    def __enter__(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        cmd = [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
               "--scale", repr(self.scale)]
        if self.cache_size is not None:
            cmd += ["--cache-size", str(self.cache_size)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            self._await_ready(t0)
        except BaseException:
            self.stop()
            raise
        return self

    def _await_ready(self, t0: float) -> None:
        ready = threading.Event()

        def read() -> None:
            for line in self.proc.stderr:
                self._stderr_tail = (self._stderr_tail + [line])[-20:]
                if not ready.is_set() and line.startswith(READY_MARKER):
                    self.setup_s = time.perf_counter() - t0
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    ready.set()

        # the reader keeps draining stderr after the marker, so the
        # server can never block on a full pipe
        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        if not ready.wait(READY_TIMEOUT_S) or self.proc.poll() is not None:
            raise RuntimeError("server did not start:\n" + "".join(self._stderr_tail))

    def stop(self) -> None:
        """Stop the server and wait for it (SIGTERM, then SIGKILL)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stderr.close()

    def __exit__(self, *exc) -> None:
        self.stop()

    def cpu_seconds(self) -> float:
        """The server's user plus system CPU time so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def connect(self) -> "Connection":
        return Connection(self.port)


class Connection:
    """A blocking JSONL protocol connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> dict:
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Exchange:
    """One timed request and its response."""

    index: int
    start: float
    end: float
    response: dict = field(repr=False)
    # the in-run reference's time for the same sources (run_closed_loop's ``reference``)
    reference_ms: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def results(self) -> List[dict]:
        """The per-source responses (a ``sources`` reply carries a list)."""
        return self.response.get("results", [self.response])


def run_closed_loop(server: Server, lines: List[bytes], connection: List[int],
                    connections: int, spans=None,
                    reference: Optional[Callable[[int], float]] = None) -> List[Exchange]:
    """Send ``lines``, each on its connection, one at a time per connection.

    With ``spans`` (a :class:`ladder.Spans`), each request is recorded as a
    ``net.tcp`` span as it completes.  With ``reference``, the connection
    calls ``reference(index)`` after each reply, before its next request,
    and keeps the milliseconds it returns as the exchange's
    ``reference_ms``.  Returns the exchanges in request order.
    """
    conns = [server.connect() for _ in range(connections)]
    exchanges: List[Optional[Exchange]] = [None] * len(lines)
    errors: List[BaseException] = []
    clock = time.perf_counter

    def loop(c: int) -> None:
        conn = conns[c]
        try:
            for i, line in enumerate(lines):
                if connection[i] != c:
                    continue
                start = clock()
                response = conn.call(line)
                exchanges[i] = ex = Exchange(i, start, clock(), response)
                if reference is not None:
                    ex.reference_ms = reference(i)
                if spans is not None:
                    spans.add("net.tcp", ex.start, ex.end, trace=str(i),
                              cache=sorted({str(r.get("cache")) for r in ex.results()}))
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(connections)]
    # the client's own garbage collections would land in its latencies
    gc.disable()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        gc.enable()
    for conn in conns:
        conn.close()
    if errors:
        raise RuntimeError(f"client connection failed: {errors[0]!r}") from errors[0]
    return exchanges
