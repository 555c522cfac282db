"""The per-layer ladder: each layer's public entry point timed from outside.

Every layer runs the workload's own sources, so the layers' times can
be read against each other and against the end-to-end TCP figures.
The spans are recorded around calls made from this file; nothing inside
the program is instrumented.  They stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import numpy as np

from oracle import replay_energy, scipy_matrix
from workloads import SERVING_SETPOINT, Workload


class Spans:
    """Spans kept in memory: name, start, end, trace id and attributes.

    The benchmark's spans do not nest: each wraps one call into one layer.
    """

    def __init__(self):
        self.records: List[dict] = []

    @contextmanager
    def span(self, name: str, trace: str = "", **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), trace, **attrs)

    def add(self, name: str, start: float, end: float, trace: str = "", **attrs) -> None:
        """Record a span that was timed elsewhere (the client's requests)."""
        self.records.append({"name": name, "trace": trace, "start": start, "end": end,
                             **attrs})

    def durations_ms(self, name: str) -> List[float]:
        return [(r["end"] - r["start"]) * 1e3 for r in self.records if r["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, record in enumerate(self.records):
                fh.write(json.dumps({"id": index, **record}) + "\n")


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def median_metric(values: List[float], unit: str) -> dict:
    return metric(statistics.median(values), unit, len(values))


def _batched_per_source(graph, chunk: List[int]) -> None:
    """The library's multi-source near+far, or a loop where it has none.

    Protocol ``sources`` arrays are served by a loop of single-source
    runs once the batched kernel is gone; this keeps timing the same shape.
    """
    try:
        from repro.sssp.batch_kernels import batched_nearfar_sssp
    except ImportError:
        from repro.sssp.nearfar import nearfar_sssp

        for s in chunk:
            nearfar_sssp(graph, s, collect_trace=False)
        return
    batched_nearfar_sssp(graph, chunk)


def run_ladder(workload: Workload, sources: List[int], batch_width: int,
               spans: Spans) -> Dict[str, dict]:
    """Time every in-process layer on ``sources``; returns metrics by name.

    ``batch_width`` is the cal-batch request width, the shape at which
    the batched kernel is timed on every workload.  Engine and shard
    layers are called at the workload's own request shape, and their
    times are given per source.
    """
    from repro.core import AdaptiveParams, adaptive_sssp
    from repro.net import ShardManager
    from repro.service import QueryEngine, SSSPQuery, default_catalog
    from repro.service.runners import run_algorithm
    from repro.sssp.nearfar import nearfar_sssp
    from scipy.sparse.csgraph import dijkstra

    out: Dict[str, dict] = {}
    for _ in range(3):
        with spans.span("graph.build"):
            graphs = default_catalog(workload.scale).load_all()
    out["graph.build_s"] = median_metric(
        [ms / 1e3 for ms in spans.durations_ms("graph.build")], "s")
    csr_bytes = sum(g.indptr.nbytes + g.indices.nbytes + g.weights.nbytes
                    for g in graphs.values())
    out["graph.csr_mb"] = metric(csr_bytes / 2**20, "MB", len(graphs))
    graph = graphs[workload.graph]

    iterations = relaxations = 0
    for s in sources:
        with spans.span("sssp.nearfar", source=s):
            result, _ = nearfar_sssp(graph, s, collect_trace=False)
        iterations += result.iterations
        relaxations += result.relaxations
    nearfar_ms = spans.durations_ms("sssp.nearfar")
    out["sssp.nearfar_ms"] = median_metric(nearfar_ms, "ms")
    out["sssp.iterations"] = metric(iterations, "count", len(sources))
    out["sssp.relaxations"] = metric(relaxations, "count", len(sources))
    out["sssp.medges_per_s"] = metric(relaxations / sum(nearfar_ms) / 1e3, "Medge/s",
                                      len(sources))

    chunks = [sources[i:i + batch_width] for i in range(0, len(sources), batch_width)]
    for chunk in chunks:
        with spans.span("sssp.batched", sources=chunk):
            _batched_per_source(graph, chunk)
    per_source = [d / len(c) for d, c in zip(spans.durations_ms("sssp.batched"), chunks)]
    out["sssp.batched_ms_per_source"] = median_metric(per_source, "ms")

    core_iterations = 0
    for s in sources:
        with spans.span("core.adaptive", source=s):
            result, _, _ = adaptive_sssp(graph, s, AdaptiveParams(setpoint=SERVING_SETPOINT),
                                         collect_trace=False)
        core_iterations += result.iterations
    adaptive_ms = spans.durations_ms("core.adaptive")
    out["core.adaptive_ms"] = median_metric(adaptive_ms, "ms")
    out["core.iterations"] = metric(core_iterations, "count", len(sources))
    out["core.us_per_iteration"] = metric(sum(adaptive_ms) * 1e3 / core_iterations, "us",
                                          core_iterations)

    for s in sources:
        with spans.span("service.run_algorithm", source=s):
            run_algorithm(graph, s, workload.algorithm)
    out["service.run_algorithm_ms"] = median_metric(
        spans.durations_ms("service.run_algorithm"), "ms")

    groups = [sources[i:i + workload.width] for i in range(0, len(sources), workload.width)]

    def per_source_ms(layer: str, runner) -> None:
        for cache in ("miss", "hit"):
            for group in groups:
                queries = [SSSPQuery(workload.graph, s, workload.algorithm) for s in group]
                with spans.span(f"{layer}.{cache}", sources=group):
                    responses = runner.run_many(queries)
                got = {r.cache for r in responses}
                if got != {cache} or not all(r.ok for r in responses):
                    raise RuntimeError(f"{layer}: expected all {cache}, got {got}")
            times = [d / len(g) for d, g in zip(spans.durations_ms(f"{layer}.{cache}"), groups)]
            out[f"{layer}_{cache}_ms"] = median_metric(times, "ms")

    # the in-process engines take `repro serve`'s settings
    serve_kwargs = dict(max_batch=16)
    if workload.cache_size is not None:
        serve_kwargs["cache_size"] = workload.cache_size
    with QueryEngine(default_catalog(workload.scale), **serve_kwargs) as engine:
        per_source_ms("service.engine", engine)
    with ShardManager(default_catalog(workload.scale), shards=1, **serve_kwargs) as shards:
        per_source_ms("net.shard", shards)

    _, _, simulate_ms = replay_energy(graph, sources, workload.algorithm, SERVING_SETPOINT)
    out["gpusim.simulate_ms"] = median_metric(simulate_ms, "ms")

    matrix = scipy_matrix(graph)
    for s in sources:
        with spans.span("ref.scipy", source=s):
            dijkstra(matrix, directed=True, indices=s)
    scipy_ms = spans.durations_ms("ref.scipy")
    out["ref.scipy_ms"] = median_metric(scipy_ms, "ms")

    # the kernel a served request of this workload runs, per source
    if workload.width > 1:
        kernel = out["sssp.batched_ms_per_source"]["value"]
    elif workload.algorithm == "adaptive":
        kernel = out["core.adaptive_ms"]["value"]
    else:
        kernel = out["sssp.nearfar_ms"]["value"]
    out["ladder.kernel_over_scipy"] = metric(kernel / np.median(scipy_ms), "x", len(sources))
    out["ladder.engine_over_kernel"] = metric(
        out["service.engine_miss_ms"]["value"] / kernel, "x", len(sources))
    return out


def tcp_layer(exchanges, base_requests: int) -> Dict[str, dict]:
    """The TCP layer's metrics from a traced pass's request/response pairs.

    ``exchanges`` holds the schedule's requests first; only those count
    towards the cache and shedding figures, whose base is the schedule's
    ``base_requests`` requests.  Latencies are per source.
    """
    miss: List[float] = []
    hit: List[float] = []
    counts = {"hit": 0, "coalesced": 0, "shed": 0, "retries": 0, "sources": 0}
    for ex in exchanges:
        results = ex.results()
        kinds = {r.get("cache") for r in results}
        (hit if kinds == {"hit"} else miss).append(ex.ms / len(results))
        if ex.index >= base_requests:
            continue
        for r in results:
            counts["sources"] += 1
            counts["hit"] += r.get("cache") == "hit"
            counts["coalesced"] += r.get("cache") == "coalesced"
            counts["shed"] += str(r.get("error", "")).startswith("overloaded")
            counts["retries"] += max(0, int(r.get("attempts", 1)) - 1)
    base = counts["sources"]
    return {
        "net.tcp_miss_ms": median_metric(miss, "ms"),
        "net.tcp_hit_ms": median_metric(hit, "ms"),
        "service.cache_hit_ratio": metric(counts["hit"] / base, "ratio", base),
        "service.coalesced": metric(counts["coalesced"], "count", base),
        "net.shed": metric(counts["shed"], "count", base),
        "resilience.retries": metric(counts["retries"], "count", base),
    }
