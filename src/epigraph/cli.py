"""Command-line front end: graph files, exact reports, simulations, sweeps.

Every command resolves its options into a single flat config (CLI flags
override values loaded via --config, and the command's defaults fill what is
still unset), echoes that config as one JSON line on stderr, and writes
deterministic LF/UTF-8 output, so any run can be reproduced byte-for-byte
from its echo. The master seed comes from --seed, else the EPIGRAPH_SEED
environment variable, else 42.

Exit codes: 0 ok, 2 usage or input error, 3 policy fault, 4 degenerate
result (for example, every replication censored). A sweep cell that fails
is flagged and the sweep goes on: its row holds -1 in the integer
``censored`` column and leaves ``mean_tau`` and ``se`` empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bounds, chain, crusade, graph, simulation, verify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_POLICY_FAULT = 3
EXIT_DEGENERATE = 4

DEFAULT_SEED = 42
DEFAULT_POLICY = "max_degree_infected"
REPLICATION_DEFAULTS = {
    "i0": "all",
    "reps": 1000,
    "max_time": simulation.DEFAULT_MAX_TIME,
    "max_events": simulation.DEFAULT_MAX_EVENTS,
}

_NOT_CONFIG = ("cmd", "func", "config", "save_config")  # parsed, but not part of a run's config


class UsageError(ValueError):
    pass


def _master_seed(value: Optional[int]) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("EPIGRAPH_SEED")
    return int(env) if env else DEFAULT_SEED


def _merge_config(args: argparse.Namespace, defaults: Optional[dict] = None) -> dict:
    """Layer CLI flags over a --config file (explicit flags win), fill unset or
    empty values from ``defaults`` (cast to the default's type), resolve the
    seed, then echo the config on stderr and save it if --save-config asks."""
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
    merged = {}
    for key, flag in vars(args).items():
        if key not in _NOT_CONFIG:
            merged[key] = flag if flag is not None else config.get(key)
    for key, default in (defaults or {}).items():
        value = merged[key]
        merged[key] = default if value is None or value == "" else type(default)(value)
    merged["seed"] = _master_seed(merged["seed"])
    merged["command"] = args.cmd
    line = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    print(f"CONFIG {line}", file=sys.stderr)
    if args.save_config:
        Path(args.save_config).write_text(line + "\n", encoding="utf-8")
    return merged


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(cfg: dict) -> graph.Graph:
    """A graph from a file path or an inline generator spec 'kind:n'."""
    if cfg["graph"]:
        path = Path(cfg["graph"])
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read graph file {path}: {exc}") from exc
        return graph.parse_graph(text)
    if cfg["gen"]:
        spec = str(cfg["gen"])
        parts = spec.split(":")
        if len(parts) != 2:
            raise UsageError(f"generator spec must be kind:n, got {spec!r}")
        kind, n = parts[0], int(parts[1])
        return graph.generate(kind, n, seed=cfg["seed"], p=cfg["p"], d=cfg["d"])
    raise UsageError("need --graph FILE or --gen KIND:N")


def _parse_bag(spec: str, g: graph.Graph) -> graph.NodeSet:
    if spec == "all":
        return graph.NodeSet.full(g.n)
    if spec in ("", "none"):
        return graph.NodeSet.empty(g.n)
    try:
        ids = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad bag spec {spec!r}") from exc
    for v in ids:
        if not 0 <= v < g.n:
            raise UsageError(f"bag vertex {v} outside 0..{g.n - 1}")
    if len(set(ids)) != len(ids):
        raise UsageError(f"bag spec {spec!r} repeats a vertex")
    return graph.NodeSet(ids, g.n)


def _estimate(cfg: dict, g: graph.Graph, policy_name: str, r: float,
              trace_out: Optional[str] = None) -> simulation.SimEstimate:
    """Replicated extinction estimate of one builtin policy; ``trace_out``
    also gets the full trace of replication 0."""
    i0 = _parse_bag(cfg["i0"], g)
    tables = crusade.resilience_table(g) if policy_name == "resilience_greedy" else None
    policy = simulation.builtin_policy(policy_name, seed=cfg["policy_seed"], table=tables)
    limits = dict(max_time=cfg["max_time"], max_events=cfg["max_events"], context=tables)
    est = simulation.estimate_extinction(
        g, i0, policy, r, cfg["reps"], cfg["seed"], workers=cfg["workers"], **limits,
    )
    if trace_out:
        tr = simulation.simulate(g, i0, policy, r, (cfg["seed"], 0), **limits)
        _write_text(trace_out, tr.serialize())
    return est


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = _merge_config(args)
    if not cfg["kind"] or not cfg["n"]:
        raise UsageError("gen needs --kind and --n")
    g = graph.generate(cfg["kind"], int(cfg["n"]), seed=cfg["seed"], p=cfg["p"], d=cfg["d"])
    _write_text(cfg["out"], graph.write_graph(g))
    return EXIT_OK


def cmd_cutwidth(args) -> int:
    cfg = _merge_config(args)
    g = _load_graph(cfg)
    tables = crusade.monotone_context(g)
    w = tables.W
    e = bounds.slack_E(g.n, g.max_degree, w)
    cert = crusade.optimal_crusade(g, g.full_mask, tables)
    out = [f"W={w}, E={e}", "crusade:"]
    out.append(cert.serialize().rstrip("\n"))
    _write_text(cfg["out"], "\n".join(out) + "\n")
    return EXIT_OK


def cmd_resilience(args) -> int:
    cfg = _merge_config(args)
    g = _load_graph(cfg)
    if cfg["bag"] is None:
        raise UsageError("resilience needs --bag (comma ids or 'all')")
    bag = _parse_bag(str(cfg["bag"]), g)
    tables = crusade.resilience_table(g)
    gamma = tables.gamma_of(bag)
    e = bounds.slack_E(g.n, g.max_degree, tables.W)
    lines = [f"gamma={gamma}, E={e}"]
    if int(bag) != 0:
        lines.append("crusade:")
        lines.append(crusade.optimal_crusade(g, bag, tables).serialize().rstrip("\n"))
    if cfg["table_out"]:
        with open(cfg["table_out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(tables.csv_blocks())  # each block written as it is formatted
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _merge_config(args, {**REPLICATION_DEFAULTS, "policy": DEFAULT_POLICY, "r": 1.0})
    if cfg["reps"] < 1:
        raise UsageError("--reps must be >= 1")
    g = _load_graph(cfg)
    est = _estimate(cfg, g, cfg["policy"], cfg["r"], trace_out=cfg["trace_out"])
    _write_text(cfg["out"], simulation.ESTIMATE_CSV_HEADER + "\n" + est.csv_row() + "\n")
    if not est.usable:
        print("degenerate: every replication censored", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _merge_config(
        args, {"scope": "all", "max_n": 5, "rand_count": 20, "rand_ns": "7,8", "mc_runs": 20_000},
    )
    report = verify.run_scope(
        cfg["scope"], max_n=cfg["max_n"], rand_ns=tuple(int(x) for x in cfg["rand_ns"].split(",")),
        rand_count=cfg["rand_count"], seed=cfg["seed"], mc_runs=cfg["mc_runs"],
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    _write_text(cfg["out"], "\n".join(report.lines()) + "\n")
    print(f"elapsed={report.elapsed_s:.1f}s", file=sys.stderr)
    return EXIT_OK if report.all_passed else 1


def _parse_grid(spec, cast):
    """'2:14' inclusive range, or '1,2,5' list."""
    if spec is None:
        return []
    spec = str(spec)
    if ":" in spec:
        lo, hi = spec.split(":")
        return [cast(x) for x in range(int(lo), int(hi) + 1)]
    return [cast(x) for x in spec.split(",") if x != ""]


def cmd_sweep(args) -> int:
    cfg = _merge_config(args, {**REPLICATION_DEFAULTS, "family": "complete", "mode": "exact"})
    if cfg["mode"] not in ("exact", "simulate", "bound"):
        raise UsageError("--mode must be exact, simulate, or bound")
    if cfg["family"] not in graph.GENERATOR_KINDS:
        raise UsageError(f"unknown family {cfg['family']!r}; expected one of {graph.GENERATOR_KINDS}")
    ns = _parse_grid(cfg["n"], int)
    rs = _parse_grid(cfg["r"], Fraction) or [Fraction(1)]
    policies = [cfg["mode"]]
    if cfg["mode"] == "simulate":
        policies = (cfg["policy"] or DEFAULT_POLICY).split(",")
        unknown = sorted(set(policies) - set(simulation.BUILTIN_POLICIES))
        if unknown:
            raise UsageError(f"unknown policy {unknown}; expected one of {sorted(simulation.BUILTIN_POLICIES)}")

    done: dict[str, str] = {}
    if cfg["resume_log"] and Path(cfg["resume_log"]).exists():
        for line in Path(cfg["resume_log"]).read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                done[rec["cell"]] = rec["row"]
    log_fh = open(cfg["resume_log"], "a", encoding="utf-8", newline="\n") if cfg["resume_log"] else None

    header = bounds.BOUND_CSV_HEADER if cfg["mode"] == "bound" else simulation.ESTIMATE_CSV_HEADER
    rows = [header]
    try:
        for n in ns:
            for r in rs:
                for pol in policies:
                    cell = f"{cfg['family']}:{n}:r={r}:{pol}"
                    if cell in done:
                        rows.append(done[cell])
                        continue
                    row = _sweep_cell(cfg, n, r, pol)
                    rows.append(row)
                    if log_fh:
                        log_fh.write(json.dumps({"cell": cell, "row": row}) + "\n")
                        log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    _write_text(cfg["out"], "\n".join(rows) + "\n")
    return EXIT_OK


def _sweep_cell(cfg: dict, n: int, r: Fraction, pol: str) -> str:
    family = cfg["family"]
    label = graph.generator_label(family, n, p=cfg["p"], d=cfg["d"])
    try:
        if cfg["mode"] == "exact":
            if family != "complete":
                raise ValueError("exact mode solves complete graphs only")
            value = chain.exact_extinction_complete(n, r)
            return f"{label},exact,{float(r)!r},0,{float(value)!r},,0"
        g = graph.generate(family, n, seed=cfg["seed"], p=cfg["p"], d=cfg["d"])
        if cfg["mode"] == "bound":
            w = crusade.cutwidth(g)
            return bounds.bound_report_row(g.n, g.max_degree, w, w, r)
        return _estimate(cfg, g, pol, float(r)).csv_row()
    except (ValueError, ZeroDivisionError, graph.GenerationError) as exc:
        reps = cfg["reps"] if cfg["mode"] == "simulate" else 0
        sys.stderr.write(f"cell {label} r={r} {pol}: flagged ({exc})\n")
        if cfg["mode"] == "bound":
            return f"{n},,,,,{r},error,"
        return f"{label},{pol},{float(r)!r},{reps},,,-1"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epigraph", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its fields")
    common.add_argument("--save-config", help="write the resolved config JSON here")
    common.add_argument("--seed", type=int, help="master seed (default EPIGRAPH_SEED or 42)")
    common.add_argument("--out", help="output file (default stdout)")

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--p", type=float, help="edge probability for erdos_renyi")
    params.add_argument("--d", type=int, help="degree for random_regular")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--graph", help="graph file path")
    source.add_argument("--gen", help="inline generator spec kind:n")

    replication = argparse.ArgumentParser(add_help=False)
    replication.add_argument("--i0", help="initially infected bag (default all)")
    replication.add_argument("--policy-seed", dest="policy_seed", type=int)
    replication.add_argument("--reps", type=int)
    replication.add_argument("--max-time", dest="max_time", type=float)
    replication.add_argument("--max-events", dest="max_events", type=int)
    replication.add_argument("--workers", type=int)

    p = sub.add_parser("gen", parents=[common, params], help="generate a graph file")
    p.add_argument("--kind", choices=graph.GENERATOR_KINDS)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_gen)

    for name, fn in (("cutwidth", cmd_cutwidth), ("resilience", cmd_resilience)):
        p = sub.add_parser(name, parents=[common, source, params],
                           help=f"exact {name} report with certificate crusade")
        if name == "resilience":
            p.add_argument("--bag", help="comma-separated vertex ids, or 'all'")
            p.add_argument("--table-out", dest="table_out", help="also dump the full subset table CSV here")
        p.set_defaults(func=fn)

    p = sub.add_parser("simulate", parents=[common, source, params, replication],
                       help="replicated extinction-time estimate")
    p.add_argument("--policy", choices=sorted(simulation.BUILTIN_POLICIES))
    p.add_argument("--r", type=float, help="curing budget")
    p.add_argument("--trace-out", dest="trace_out", help="also write one full event trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common], help="run property suites, print pass/fail lines")
    p.add_argument("--scope", choices=verify.SCOPES)
    p.add_argument("--max-n", dest="max_n", type=int, help="exhaustive enumeration cap")
    p.add_argument("--rand-count", dest="rand_count", type=int)
    p.add_argument("--rand-ns", dest="rand_ns", help="comma sizes for random graphs")
    p.add_argument("--mc-runs", dest="mc_runs", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common, params, replication], help="grid of cells -> one CSV row each")
    p.add_argument("--family", choices=graph.GENERATOR_KINDS, help="graph family (default complete)")
    p.add_argument("--n", help="sizes: '2:14' or '2,4,8'")
    p.add_argument("--r", help="budgets: '1,2' or '1:3'")
    p.add_argument("--mode", choices=("exact", "simulate", "bound"))
    p.add_argument("--policy", help="comma list for simulate mode")
    p.add_argument("--resume-log", dest="resume_log", help="JSONL cell-completion log for resumable sweeps")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (graph.GraphFormatError, graph.DisconnectedGraphError, graph.SizeCapError, graph.GenerationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except simulation.PolicyFault as exc:
        print(f"policy fault: {exc}", file=sys.stderr)
        return EXIT_POLICY_FAULT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
