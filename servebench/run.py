"""Serving benchmark: ``repro serve --listen`` driven over TCP, checked by scipy.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload cal-miss --seed 1 --seconds 15 --trace 0

Each run builds a fixed request schedule from ``--seed`` (see
``workloads.py``), starts the server several times to time its set-up,
warms it with sources outside the schedule, then sends the schedule in
a closed loop.  After each reply the client solves the same sources
with scipy's Dijkstra (``oracle.py``), untimed by the request: that
gives the expected answers, checked after the loop, and a reference
time taken at the same moment on the same host.  ``--trace 1`` adds a
second, traced pass over the schedule's first third on a fresh server
and the per-layer ladder (``ladder.py``) on the workload's own sources.

End-to-end timings are given relative to that reference
(``*_vs_scipy``, unit ``x``): each request's latency over the scipy
time of its own sources, then the median and the p90 of those ratios;
sources answered per second of request time over scipy's rate; and the
server's CPU time over scipy's.  On the 2-vCPU reference VM the host's
speed swings moved raw latency by 20-25% between runs of the same code
(IQR over median, ten seeds), the relative figures by 2-6% (cal-miss)
and 3-9% (cal-batch).  The
raw figures (``p50_ms``, ``tail_ms``, ``throughput_qps``,
``server_cpu_ms_per_req``, ``scipy_ms_per_req``) are still printed,
marked ``raw``, and kept in the report file.

Output: ``#``-prefixed lines giving the environment and every metric
with its unit and sample count (a traced run lists the untraced pass's
end-to-end metrics as well), then one JSON line with ``correct``,
``attempted``, ``failed`` and the end-to-end (``--trace 0``) or
per-layer (``--trace 1``) metrics.  Any answer that disagrees with the
oracle is printed to stderr and the run exits with status 1.

Workloads (all closed loops; the seed never reaches the server):

* ``cal-miss``: one connection, distinct ``adaptive`` sources on the
  9.4k-node road graph ``cal`` (scale 0.005).  Every request misses the
  cache, so kernel and controller dominate.
* ``wiki-zipf``: two connections (the host's CPU count), Zipf(1.3)
  ``adaptive`` sources on the scale-free ``wiki`` graph.  Each source is
  pinned to one connection, so the hit count is exact: the median
  request is a hit (protocol, net, shard and engine cache), the tail is
  the misses, and a hit can queue behind the other connection's miss.
* ``cal-batch``: protocol ``sources`` arrays of 4 distinct ``nearfar``
  sources on the 37.8k-node ``cal`` (scale 0.02).  The graph plus four
  distance arrays exceed the 2 MiB L2; the requests take the engine's
  batched kernel path, with no controller and no cache hits.

``wiki-zipf`` runs by name but is not listed in BENCHMARK.json: over ten
seeds on the reference VM its raw p50 (a sub-millisecond cache hit)
spread 29% between runs, wider than any bound the benchmark may set; it
was not measured again with the relative figures.  Its hit count and the
per-layer hit figures (every traced run re-requests its ladder sources
to time the TCP, shard and engine hit paths) are still exact and
reported.

There is no pure-hit workload.  A warm-cache, all-hit TCP run measured
572-1861 QPS with p99 from 1.35 to 12.4 ms over 9 runs on the 2-vCPU
reference VM: its cost is thread hand-offs, whose spread no run length
fixes.  Pinning server and client with ``taskset`` narrowed the hit
path but not the miss path (cal-miss stayed at 29-37 QPS), and
in-process ``run_algorithm`` alone ranged 32-40 QPS.  Neither pinning,
longer runs, nor trimmed or low-percentile estimators steadied the raw
kernel-bound figures; timing the scipy reference between requests did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from envstamp import stamp
from ladder import Spans, median_metric, metric, run_ladder, tcp_layer
from oracle import Oracle, mismatch, replay_energy, scipy_matrix
from serving import Server, run_closed_loop
from workloads import SERVING_SETPOINT, TAIL_PERCENTILE, WORKLOADS, build_schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".servebench_out"
# servers started per run to time set-up; the last one serves the schedule
SETUP_SPAWNS = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="schedule length, as its duration on the reference host")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Checker:
    """Checks every per-source answer against the oracle and counts them."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.answered = 0
        self.mismatches: List[str] = []

    def check(self, sources: List[int], response: dict) -> int:
        """Check one request's response; returns how many sources it answered."""
        results = response.get("results", [response])
        self.attempted += len(sources)
        if len(results) != len(sources):
            self.mismatches.append(f"{len(results)} answers to {len(sources)} sources")
            return 0
        answered = 0
        for s, result in zip(sources, results):
            if not result.get("ok"):
                continue  # shed or failed: missing, not wrong
            why = (f"source {result.get('source')} != {s}" if result.get("source") != s
                   else mismatch(result, self.expected[s]))
            if why is None:
                answered += 1
            else:
                self.mismatches.append(f"source {s}: {why}")
        self.answered += answered
        return answered

    @property
    def failed(self) -> int:
        return self.attempted - self.answered


def serve_pass(server, schedule, oracle, checker, graph_fingerprint: str, spans=None):
    """Warm ``server`` up, then send the schedule; returns the pass's figures.

    The oracle solves each request's sources right after its reply (see
    ``oracle.py``), so every exchange carries its reference time.
    """
    conn = server.connect()
    try:
        graphs = conn.call(b'{"op": "graphs"}\n')["graphs"]
        served = {g["id"]: g["fingerprint"] for g in graphs}
        if served.get(schedule.workload.graph) != graph_fingerprint:
            raise RuntimeError("the server's graph differs from the oracle's")
        for i, sources in enumerate(schedule.warmup):
            oracle.run(sources)
            checker.check(sources, conn.call(schedule.line(sources, f"w{i}")))
    finally:
        conn.close()
    lines = [schedule.line(s, str(i)) for i, s in enumerate(schedule.requests)]
    cpu0 = server.cpu_seconds()
    exchanges = run_closed_loop(server, lines, schedule.connection,
                                schedule.workload.connections, spans,
                                lambda i: oracle.run(schedule.requests[i]))
    cpu = server.cpu_seconds() - cpu0
    answered = sum(checker.check(schedule.requests[ex.index], ex.response)
                   for ex in exchanges)
    return exchanges, cpu, answered


def end_to_end(schedule, setups, exchanges, cpu, answered, rss, energy, sim_time):
    """The bounded end-to-end metrics, and the raw timings they are made from.

    Every timing is taken over the oracle's scipy time on the same
    sources, measured right after each request: a request's latency over
    its own reference time, then the median and tail of those ratios.
    """
    latencies = np.array([ex.ms for ex in exchanges])
    reference = np.array([ex.reference_ms for ex in exchanges])
    ratios = latencies / reference
    n = len(exchanges)
    sources = schedule.num_sources
    bounded = {
        "setup_s": median_metric(setups, "s"),
        "throughput_vs_scipy": metric(
            answered / sources * reference.sum() / latencies.sum(), "x", answered),
        "p50_vs_scipy": metric(np.percentile(ratios, 50), "x", n),
        "tail_vs_scipy": metric(np.percentile(ratios, TAIL_PERCENTILE), "x", n),
        "answered_frac": metric(answered / sources, "ratio", sources),
        "peak_rss_mb": metric(rss, "MB", 1),
        "server_cpu_vs_scipy": metric(cpu * 1e3 / reference.sum(), "x", n),
        "sim_energy_mj": metric(statistics.fmean(energy), "mJ", len(energy)),
        "sim_time_ms": metric(statistics.fmean(sim_time), "ms", len(sim_time)),
    }
    # answered per second of request time, per connection
    busy_s = latencies.sum() / 1e3 / schedule.workload.connections
    raw = {
        "throughput_qps": metric(answered / busy_s, "1/s", answered),
        "p50_ms": metric(np.percentile(latencies, 50), "ms", n),
        "tail_ms": metric(np.percentile(latencies, TAIL_PERCENTILE), "ms", n),
        "server_cpu_ms_per_req": metric(cpu * 1e3 / n, "ms", n),
        "scipy_ms_per_req": metric(np.median(reference), "ms", n),
    }
    return bounded, raw


def traced_run(workload, schedule, oracle, checker, fingerprint: str, untraced: list,
               env: dict, spans: Spans) -> Dict[str, dict]:
    """A second, traced pass on a fresh server plus the ladder: per-layer metrics.

    The traced pass sends the schedule's first requests (``Schedule.traced``);
    its overhead is its latency-to-reference ratio over the untraced pass's on
    the same requests.
    """
    prefix = schedule.traced()
    # the pass's last sources: still in the server's LRU cache for the hit probe
    ladder_sources = prefix.distinct_sources()[-workload.ladder_sources:]
    with Server(ROOT, workload.scale, workload.cache_size) as server:
        traced, _, _ = serve_pass(server, prefix, oracle, checker, fingerprint, spans)
        # the ladder's sources again, now cached: the TCP hit path
        base = len(prefix.requests)
        probe_lines = [prefix.line([s], f"p{i}") for i, s in enumerate(ladder_sources)]
        probes = run_closed_loop(server, probe_lines, [0] * len(probe_lines), 1, spans)
    for ex in probes:
        checker.check([ladder_sources[ex.index]], ex.response)
        ex.index += base
    out = tcp_layer(traced + probes, base)
    out.update(run_ladder(workload, ladder_sources, WORKLOADS["cal-batch"].width, spans))

    def ratio(a: str, b: str) -> dict:
        return metric(out[a]["value"] / out[b]["value"], "x", out[a]["samples"])

    out["ladder.tcp_over_engine_miss"] = ratio("net.tcp_miss_ms", "service.engine_miss_ms")
    out["ladder.tcp_over_engine_hit"] = ratio("net.tcp_hit_ms", "service.engine_hit_ms")

    def relative(exchanges) -> float:
        return sum(ex.ms for ex in exchanges) / sum(ex.reference_ms for ex in exchanges)

    out["trace.overhead_ratio"] = metric(relative(traced) / relative(untraced[:base]),
                                         "x", base)
    out["env.gil_free_scaling"] = metric(env["gil_free_scaling"], "x", 1)
    out["env.nproc"] = metric(env["nproc"], "count", 1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {src}; run it from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.service import default_catalog

    workload = WORKLOADS[args.workload]
    graph = default_catalog(workload.scale).get(workload.graph)
    schedule = build_schedule(workload, args.seed, args.seconds, graph.num_nodes)
    distinct = schedule.distinct_sources()
    oracle = Oracle(scipy_matrix(graph))
    checker = Checker(oracle.expected)
    energy, sim_time, _ = replay_energy(graph, distinct[: workload.sim_sources],
                                        workload.algorithm, SERVING_SETPOINT)
    env = stamp()

    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        with Server(ROOT, workload.scale, workload.cache_size) as server:
            setups.append(server.setup_s)
    with Server(ROOT, workload.scale, workload.cache_size) as server:
        setups.append(server.setup_s)
        exchanges, cpu, answered = serve_pass(server, schedule, oracle, checker,
                                              graph.fingerprint())
        rss = server.peak_rss_mb()
    metrics, raw = end_to_end(schedule, setups, exchanges, cpu, answered, rss, energy,
                              sim_time)

    per_layer: Dict[str, dict] = {}
    if args.trace:
        spans = Spans()
        per_layer = traced_run(workload, schedule, oracle, checker, graph.fingerprint(),
                               exchanges, env, spans)
        spans.write(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl")

    print(f"# servebench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} requests={len(schedule.requests)} "
          f"sources={schedule.num_sources} distinct={len(distinct)}")
    print("# env " + json.dumps(env, sort_keys=True))
    for kind, group in (("", metrics), ("raw ", raw), ("", per_layer)):
        for name, m in group.items():
            note = ""
            if name.startswith("throughput_"):
                note = f"  gil_free_scaling={env['gil_free_scaling']} nproc={env['nproc']}"
            print(f"# {kind + name:<28} {m['value']:>14.6g} {m['unit']:<8} "
                  f"n={m['samples']}{note}")
    for line in checker.mismatches:
        print(f"ORACLE MISMATCH {workload.name}: {line}", file=sys.stderr)
    verdict = {"correct": not checker.mismatches, "attempted": checker.attempted,
               "failed": checker.failed}
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({**verdict, "workload": workload.name, "seed": args.seed,
                                  "seconds": args.seconds, "env": env,
                                  "metrics": {**metrics, **per_layer}, "raw": raw},
                                 indent=1) + "\n")
    reported = per_layer if args.trace else metrics
    print(json.dumps({**verdict, "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                             for k, m in reported.items()}}))
    return 1 if checker.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
