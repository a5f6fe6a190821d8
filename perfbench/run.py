"""epigraph benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact_large --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy. A run:

1. times ``import epigraph``, then builds the workload's inputs from
   ``--seed`` (with context tables and one warm-up call per layer)
   ``SETUP_REPEATS`` times; ``setup_s`` is the import plus the median set-up;
2. repeats the workload's pass with tracing off for about ``--seconds``;
3. for ``--trace 1`` (and, to count simulator events, for the Monte Carlo
   workloads) runs a pass with spans recorded, see ``tracing.py``;
4. checks every pass: the per-item oracle checks, identical fingerprints
   across passes, and the fingerprint recorded for the default seed;
5. prints a readable report, then one JSON line: ``correct``, ``attempted``,
   ``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
   the per-layer ones with ``--trace 1``).

Spans, the environment record and the full report go to
``perfbench/out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 5

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "graphs_per_s": "graphs/s",
    "graph_ms.p50": "ms",
    "graph_ms.p99": "ms",
    "peak_rss_mb": "MB",
}

# printed in the report but not gated: see README.md
EXTRA_UNITS = {
    "graph_ms.graphs": "count",
    "fail_frac": "ratio",
    "passes": "count",
    "reps_per_s": "reps/s",
    "events_per_s": "events/s",
    "events_per_pass": "count",
}

PER_LAYER = {
    "graph.cut_table.s": "s",
    "graph.cut_table.ns_per_subset": "ns",
    "crusade.monotone_table.s": "s",
    "crusade.monotone_table.ns_per_subset": "ns",
    "crusade.gamma_sweep.s": "s",
    "crusade.gamma_sweep.ns_per_subset": "ns",
    "crusade.improvement_bags.s": "s",
    "crusade.table_bytes": "bytes",
    "crusade.optimal_crusade.s": "s",
    "crusade.optimal_crusade.calls": "count",
    "crusade.optimal_crusade.candidates": "count",
    "crusade.optimal_crusade.ns_per_candidate": "ns",
    "crusade.resilience_single.s": "s",
    "crusade.oracle_table.s": "s",
    "crusade.oracle_table.calls": "count",
    "verify.cut_properties.s": "s",
    "verify.resilience_properties.s": "s",
    "verify.certificates.s": "s",
    "verify.oracle_agreement.s": "s",
    "verify.checked": "count",
    "bounds.walk_suite.s": "s",
    "bounds.bound.s": "s",
}
POLICY_NAMES = ("max_degree_infected", "random_infected", "degree_proportional", "max_cut_drop", "resilience_greedy")
for _p in POLICY_NAMES:
    PER_LAYER[f"simulation.events.{_p}"] = "count"
    PER_LAYER[f"simulation.simulate.s.{_p}"] = "s"
    PER_LAYER[f"simulation.events_per_s.{_p}"] = "events/s"
PER_LAYER.update({
    "simulation.us_per_rep": "us",
    "simulation.estimate.overhead_s": "s",
    "simulation.pool.speedup": "ratio",
    "simulation.pool.efficiency": "ratio",
    "simulation.context_build.s": "s",
    "simulation.censored": "count",
    "trace.overhead_frac": "ratio",
})


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_epigraph() -> float:
    """Import the package from this checkout's ``src/``; returns seconds."""
    if not (SRC / "epigraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no epigraph package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    # numpy loads first, untimed: its own import (~0.1-0.2 s of file reads,
    # the noisiest part of set-up) is the environment's, not the package's
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import epigraph  # noqa: F401
    import epigraph.verify  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(epigraph.__file__).resolve().parent != SRC / "epigraph":
        raise SystemExit(f"error: imported epigraph from {epigraph.__file__}, not {SRC}")
    return elapsed


def environment(state) -> dict:
    import numpy

    def cache_sizes() -> dict:
        sizes = {}
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                size = (index / "size").read_text().strip()
            except OSError:
                continue
            sizes[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = size
        return sizes

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": model,
        "caches": cache_sizes(),
        "table_bytes": state.table_bytes,
        "working_set_bytes": state.working_set_bytes,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def layer_metrics(totals, serial_totals, state, traced, untraced_wall) -> dict:
    """Per-layer metrics from the traced pass (and, for the pool, the serial run)."""
    t = totals
    m = {
        "graph.cut_table.s": t.self_s["graph.cut_table"],
        "graph.cut_table.ns_per_subset": t.per_unit_ns("graph.cut_table", "subsets"),
        "crusade.monotone_table.s": t.self_s["crusade.monotone_table"],
        "crusade.monotone_table.ns_per_subset": t.per_unit_ns("crusade.monotone_table", "subsets"),
        # derived: resilience_table's span minus its cut_table and monotone_table children
        "crusade.gamma_sweep.s": t.self_s["crusade.resilience_table"],
        "crusade.gamma_sweep.ns_per_subset": t.per_unit_ns("crusade.resilience_table", "subsets"),
        "crusade.improvement_bags.s": t.self_s["crusade.improvement_bags"],
        "crusade.table_bytes": state.table_bytes if t.calls["crusade.resilience_table"] else 0,
        "crusade.optimal_crusade.s": t.self_s["crusade.optimal_crusade"],
        "crusade.optimal_crusade.calls": t.calls["crusade.optimal_crusade"],
        "crusade.optimal_crusade.candidates": int(t.attrs["crusade.optimal_crusade"]["candidates"]),
        "crusade.optimal_crusade.ns_per_candidate": t.per_unit_ns("crusade.optimal_crusade", "candidates"),
        "crusade.resilience_single.s": t.self_s["crusade.resilience"],
        "crusade.oracle_table.s": t.self_s["crusade.oracle_table"],
        "crusade.oracle_table.calls": t.calls["crusade.oracle_table"],
        "verify.cut_properties.s": t.self_s["verify.cut_properties"],
        "verify.resilience_properties.s": t.self_s["verify.resilience_properties"],
        "verify.certificates.s": t.self_s["verify.certificates"],
        "verify.oracle_agreement.s": t.self_s["verify.oracle_agreement"],
        "verify.checked": traced.counters.get("verify.checked", 0),
        "bounds.walk_suite.s": t.self_s["bounds.walk_suite"],
        "bounds.bound.s": t.self_s["bounds.bound"],
    }
    # simulator figures come from the serial run, where simulate is wrapped
    s = serial_totals
    sim_calls = sim_s = 0
    censored = 0
    for p in POLICY_NAMES:
        key = f"simulation.simulate.{p}"
        events = int(s.attrs[key]["events"]) if s else 0
        busy = s.self_s[key] if s else 0.0
        m[f"simulation.events.{p}"] = events
        m[f"simulation.simulate.s.{p}"] = busy
        m[f"simulation.events_per_s.{p}"] = events / busy if busy else 0.0
        sim_calls += s.calls[key] if s else 0
        sim_s += s.total_s[key] if s else 0.0
        censored += int(s.attrs[key]["censored"]) if s else 0
    m["simulation.us_per_rep"] = sim_s * 1e6 / sim_calls if sim_calls else 0.0
    m["simulation.estimate.overhead_s"] = s.self_s["simulation.estimate"] if s else 0.0
    pool_s = t.total_s["simulation.estimate_pool"]
    serial_s = s.total_s["simulation.estimate"] if s else 0.0
    workers = state.params.get("workers") or 0
    m["simulation.pool.speedup"] = serial_s / pool_s if pool_s else 0.0
    m["simulation.pool.efficiency"] = m["simulation.pool.speedup"] / workers if workers else 0.0
    m["simulation.context_build.s"] = state.context_build_s
    m["simulation.censored"] = censored
    m["trace.overhead_frac"] = (traced.wall_s - untraced_wall) / untraced_wall
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    import_s = import_epigraph()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    setup, run_pass = workloads.WORKLOADS[workload]
    is_mc = run_pass is workloads.run_mc

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup(seed, small)
        setup_times.append(time.perf_counter() - t0)

    null = tracing.NullTracer()
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(state, null))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= 2 and elapsed + 0.5 * passes[-1].wall_s >= seconds:
            break
    rss = peak_rss_mb()
    all_passes = list(passes)

    tracer = tracing.Tracer()
    traced = totals = serial_totals = None
    pooled = is_mc and bool(state.params.get("workers"))
    if trace or (is_mc and not pooled):
        with tracer.patched(workloads.trace_targets(with_simulate=not pooled)):
            traced = run_pass(state, tracer)
        all_passes.append(traced)
        totals = tracing.SpanTotals(tracer.spans)
        if is_mc:
            serial_totals = totals
    if pooled:
        # serial re-run of the same cells: simulator event counts, simulate
        # spans and the serial side of the pool speed-up
        serial_tracer = tracing.Tracer()
        with serial_tracer.patched(workloads.trace_targets(with_simulate=True)):
            all_passes.append(run_pass(state, serial_tracer, serial=True))
        serial_totals = tracing.SpanTotals(serial_tracer.spans)
        offset = len(tracer.spans)
        tracer.spans.extend(
            [name, a, b, p + offset if p >= 0 else -1, item, attrs]
            for name, a, b, p, item, attrs in serial_tracer.spans
        )

    # correctness: item checks, identical passes, recorded fingerprint
    attempted = sum(p.ops for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    reference = passes[0].fingerprint
    for i, p in enumerate(all_passes[1:], 1):
        attempted += 1
        if p.fingerprint != reference:
            failures.append(f"pass {i} fingerprint {p.fingerprint[:16]} != pass 0 {reference[:16]}")
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload) if FINGERPRINTS.is_file() else None
    if seed == DEFAULT_SEED and not small:
        attempted += 1
        if reference != recorded:
            failures.append(f"fingerprint {reference} != recorded {recorded} for seed {DEFAULT_SEED}")

    wall = statistics.median(p.wall_s for p in passes)
    # each graph's latency is its median over the passes, which keeps one
    # slow pass (a noisy neighbour on a shared host) out of the tail
    n_graphs = len(passes[0].graph_s)
    graph_ms = [statistics.median(p.graph_s[i][1] for p in passes) * 1e3 for i in range(n_graphs)]
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": wall,
        "graphs_per_s": n_graphs / wall,
        "graph_ms.p50": percentile(graph_ms, 0.50),
        "graph_ms.p99": percentile(graph_ms, 0.99),
        "peak_rss_mb": rss,
    }
    extra = {"graph_ms.graphs": n_graphs, "fail_frac": len(failures) / attempted, "passes": len(passes)}
    if is_mc:
        events = sum(
            int(serial_totals.attrs[f"simulation.simulate.{p}"]["events"]) for p in POLICY_NAMES
        )
        extra["reps_per_s"] = passes[0].counters["reps"] / wall
        extra["events_per_s"] = events / wall
        extra["events_per_pass"] = events

    layers = layer_metrics(totals, serial_totals, state, traced, wall) if trace else None

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "environment": environment(state),
        "fingerprint": reference,
        "recorded_fingerprint": recorded,
        "attempted": attempted,
        "failures": failures,
        "end_to_end": e2e,
        "extra": extra,
        "per_layer": layers,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "pass_walls_s": [p.wall_s for p in passes],
        "graph_ms": [[label, ms] for (label, _), ms in zip(passes[0].graph_s, graph_ms)],
        "traced_wall_s": traced.wall_s if traced else None,
        "spans": tracer.spans if trace else [],
    }


def report(result: dict) -> dict:
    """Print the readable report; return the final JSON object."""
    env = result["environment"]
    print("ENV " + json.dumps(env, sort_keys=True))
    print(f"workload={result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"fingerprint={result['fingerprint'][:16]}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:40s} {value:14.6g} {END_TO_END[name]}")
    for name, value in result["extra"].items():
        print(f"  {name:40s} {value:14.6g} {EXTRA_UNITS[name]}")
    if result["per_layer"]:
        for name, value in result["per_layer"].items():
            print(f"  {name:40s} {value:14.6g} {PER_LAYER[name]}")
    for f in result["failures"][:20]:
        print(f"FAIL {f}")
    if result["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()}
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["exact_large", "exact_small", "mc_long", "mc_short"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true", help="shrunken inputs (smoke test); skips the recorded fingerprint")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), small=args.small)
    final = report(result)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}{'-small' if args.small else ''}.json"
    path.write_text(json.dumps(result) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
