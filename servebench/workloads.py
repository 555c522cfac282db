"""Workload definitions and their seeded request schedules.

A schedule is the complete, fixed list of requests one run sends: which
sources, grouped into which protocol requests, on which client
connection.  It depends only on the workload, the seed, the run length
and the graph's node count, never on how fast the server answers, so
every run of a workload does identical work and its hit/miss mix is a
property of the schedule, not of the machine.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

# The one tail percentile every workload reports.  Each schedule is
# sized so that at least MIN_BEYOND_TAIL requests lie beyond it.
TAIL_PERCENTILE = 90.0
MIN_BEYOND_TAIL = 10

# The share of a schedule the traced pass (``--trace 1``) sends again, on
# a fresh server: enough requests for the per-layer medians, while a
# traced run stays well inside its time limit on a slow host.
TRACED_SHARE = 1 / 3

# The adaptive setpoint the server applies when a query names none
# (repro.service.runners.run_algorithm); the in-process replays use it too.
SERVING_SETPOINT = 10_000.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one ``repro serve --listen`` server."""

    name: str
    graph: str  # catalog id: "cal" (road-like) or "wiki" (scale-free)
    scale: float  # the server's --scale
    algorithm: str
    connections: int  # closed-loop client connections
    width: int  # sources per protocol request (1 = "source", >1 = "sources")
    # reference-host rate, counting the oracle's run after each request,
    # that sizes a schedule
    requests_per_second: float
    zipf_a: Optional[float]  # None: every source distinct
    sim_sources: int  # distinct sources replayed through repro.gpusim
    ladder_sources: int  # distinct sources timed layer by layer (trace run)
    # the server's --cache-size; None keeps serve's default
    cache_size: Optional[int] = None

    def num_requests(self, seconds: float) -> int:
        """Requests in a schedule meant to last ``seconds`` on the reference host."""
        return max(1, int(round(self.requests_per_second * seconds)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cal-miss",
            graph="cal",
            scale=0.005,
            algorithm="adaptive",
            connections=1,
            width=1,
            requests_per_second=30.0,
            zipf_a=None,
            sim_sources=48,
            ladder_sources=12,
        ),
        Workload(
            name="wiki-zipf",
            graph="wiki",
            scale=0.005,
            algorithm="adaptive",
            connections=2,
            width=1,
            requests_per_second=350.0,
            zipf_a=1.3,
            sim_sources=240,
            ladder_sources=16,
            # large enough that nothing is evicted, so the hit count is
            # a property of the schedule alone
            cache_size=8192,
        ),
        Workload(
            name="cal-batch",
            graph="cal",
            scale=0.02,
            algorithm="nearfar",
            connections=1,
            width=4,
            requests_per_second=6.5,
            zipf_a=None,
            sim_sources=32,
            ladder_sources=16,
        ),
    )
}


@dataclass
class Schedule:
    """The requests of one run, in send order, plus untimed warm-up requests."""

    workload: Workload
    requests: List[List[int]]  # sources of each request
    connection: List[int]  # connection index of each request
    warmup: List[List[int]]  # sent before timing; sources never in ``requests``

    def line(self, sources: List[int], request_id: str) -> bytes:
        """The protocol line for one request."""
        body = {"graph": self.workload.graph, "algorithm": self.workload.algorithm,
                "id": request_id}
        if self.workload.width == 1:
            body["source"] = sources[0]
        else:
            body["sources"] = sources
        return (json.dumps(body, sort_keys=True) + "\n").encode()

    def to_bytes(self) -> bytes:
        """Every line the run sends, with its connection, in a canonical form."""
        out = [b"warmup " + self.line(s, f"w{i}") for i, s in enumerate(self.warmup)]
        out += [
            f"{c} ".encode() + self.line(s, str(i))
            for i, (s, c) in enumerate(zip(self.requests, self.connection))
        ]
        return b"".join(out)

    def distinct_sources(self) -> List[int]:
        """Every source the schedule requests, in order of first appearance."""
        seen = {}
        for sources in self.requests:
            for s in sources:
                seen.setdefault(s, None)
        return list(seen)

    @property
    def num_sources(self) -> int:
        return sum(len(s) for s in self.requests)

    def traced(self) -> "Schedule":
        """The schedule's first TRACED_SHARE of requests: the traced pass's schedule."""
        n = max(1, math.ceil(len(self.requests) * TRACED_SHARE))
        return Schedule(self.workload, self.requests[:n], self.connection[:n], self.warmup)


def _balance(sources: List[int], connections: int) -> List[int]:
    """Connection of each request, so that no source is ever on two connections.

    A source's first request is a cache miss and every later one a hit
    only if nothing else can ask for it while that miss is in flight;
    pinning each source to one closed-loop connection guarantees that,
    so the hit count is exact.  Sources go, most-requested first, to the
    connection with the fewest requests so far.
    """
    counts = {}
    for s in sources:
        counts[s] = counts.get(s, 0) + 1
    order = sorted(counts, key=lambda s: -counts[s])  # stable: ties by first use
    load = [0] * connections
    owner = {}
    for s in order:
        c = load.index(min(load))
        owner[s] = c
        load[c] += counts[s]
    return [owner[s] for s in sources]


def build_schedule(workload: Workload, seed: int, seconds: float,
                   num_nodes: int) -> Schedule:
    """The seeded schedule of ``workload`` for a graph of ``num_nodes`` nodes."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    perm = [int(v) for v in rng.permutation(num_nodes)]
    n = workload.num_requests(seconds)
    w = workload.width
    if workload.zipf_a is None:
        if (n + 1) * w > num_nodes:
            raise ValueError(f"{workload.name}: {n} requests need more distinct "
                             f"sources than the graph's {num_nodes} nodes")
        flat = perm[: n * w]
        requests = [flat[i * w:(i + 1) * w] for i in range(n)]
        warmup = [perm[n * w:(n + 1) * w]]
        connection = [i % workload.connections for i in range(n)]
    else:
        # Zipf ranks over a seeded permutation of the nodes, so the hot
        # sources differ between seeds; ranks past the graph are redrawn
        ranks: List[int] = []
        while len(ranks) < n:
            draw = rng.zipf(workload.zipf_a, size=2 * n)
            ranks.extend(int(r) for r in draw[draw <= num_nodes])
        flat = [perm[r - 1] for r in ranks[:n]]
        requests = [[s] for s in flat]
        used = set(flat)
        spare = [s for s in reversed(perm) if s not in used]
        warmup = [[s] for s in spare[: workload.connections]]
        connection = _balance(flat, workload.connections)
    return Schedule(workload, requests, connection, warmup)


def beyond_percentile(count: int, percentile: float = TAIL_PERCENTILE) -> int:
    """How many of ``count`` samples lie strictly above their ``percentile``.

    Uses numpy's default (linear) percentile on distinct values.
    """
    position = (count - 1) * percentile / 100.0
    return count - 1 - int(np.floor(position))
