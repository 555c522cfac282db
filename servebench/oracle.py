"""The independent answer oracle and the paper's simulated energy.

The oracle runs scipy's compiled Dijkstra, which shares no code with the
repository's own algorithms, on the same graph for every source a
schedule requests.  The client runs it right after each request, outside
that request's timing, so each run also times the same work done by a
fixed compiled reference at the same moment on the same host.  Latency
over that reference time cancels most of a shared host's speed swings,
which on the reference VM move raw figures by up to 2x within a minute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

# max_dist / mean_dist may differ from scipy's in summation order only
REL_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """What a correct response says about one source."""

    reached: int
    max_dist: float
    mean_dist: float


def scipy_matrix(graph):
    """The graph as a scipy CSR matrix, parallel edges reduced to the lightest.

    scipy sums duplicate entries of a sparse matrix, which would turn
    two parallel edges into one heavier edge, so they are merged here by
    taking the minimum.
    """
    from scipy.sparse import csr_matrix

    n = graph.num_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    keys = rows * n + graph.indices.astype(np.int64)
    order = np.lexsort((graph.weights, keys))
    keys, weights = keys[order], graph.weights[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys, weights = keys[first], weights[first]
    return csr_matrix((weights, (keys // n, keys % n)), shape=(n, n))


class Oracle:
    """scipy Dijkstra answers, gathered as the run goes, and the time each took."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.expected: Dict[int, Expected] = {}

    def run(self, sources: List[int]) -> float:
        """Solve ``sources`` (one scipy call); returns the call's wall time in ms."""
        from scipy.sparse.csgraph import dijkstra

        t0 = time.perf_counter()
        dist = dijkstra(self.matrix, directed=True, indices=sources)
        ms = (time.perf_counter() - t0) * 1e3
        for s, row in zip(sources, np.atleast_2d(dist)):
            finite = row[np.isfinite(row)]
            self.expected[s] = Expected(int(finite.size), float(finite.max()),
                                        float(finite.mean()))
        return ms


def mismatch(answer: dict, expected: Expected) -> Optional[str]:
    """Why ``answer`` (one ``ok`` per-source response) disagrees with the oracle, or None."""
    if answer.get("reached") != expected.reached:
        return f"reached {answer.get('reached')} != {expected.reached}"
    for key in ("max_dist", "mean_dist"):
        got, want = answer.get(key), getattr(expected, key)
        if got is None or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return f"{key} {got!r} != {want!r}"
    return None


def replay_energy(graph, sources: List[int], algorithm: str, setpoint: float):
    """The paper's simulated energy and time of each source on the Jetson TK1.

    Each source's per-iteration ``X``-trace is recorded in-process and
    replayed through :func:`repro.gpusim.simulate_run`.  Returns
    ``(energy_mj, time_ms, simulate_ms)`` lists, the last being the wall
    time of each replay.
    """
    from repro.gpusim import JETSON_TK1, simulate_run

    energy, sim_time, wall = [], [], []
    for s in sources:
        trace = record_trace(graph, s, algorithm, setpoint)
        t0 = time.perf_counter()
        run = simulate_run(trace, JETSON_TK1)
        wall.append((time.perf_counter() - t0) * 1e3)
        energy.append(run.total_energy_j * 1e3)
        sim_time.append(run.total_seconds * 1e3)
    return energy, sim_time, wall


def record_trace(graph, source: int, algorithm: str, setpoint: float):
    """The iteration trace of one in-process run of ``algorithm``."""
    if algorithm == "adaptive":
        from repro.core import AdaptiveParams, adaptive_sssp

        _, trace, _ = adaptive_sssp(graph, source, AdaptiveParams(setpoint=setpoint))
        return trace
    if algorithm == "nearfar":
        from repro.sssp.nearfar import nearfar_sssp

        _, trace = nearfar_sssp(graph, source)
        return trace
    raise ValueError(f"no trace replay for algorithm {algorithm!r}")
