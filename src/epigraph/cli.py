"""Command-line front end: graph files, exact reports, simulations, sweeps.

Every command resolves its options into a single flat config (CLI flags
override values loaded via --config), echoes that config as one JSON line on
stderr, and writes deterministic LF/UTF-8 output, so any run can be
reproduced byte-for-byte from its echo. The master seed comes from --seed,
else the EPIGRAPH_SEED environment variable, else 42.

Exit codes: 0 ok, 2 usage or input error, 3 policy fault, 4 degenerate
result (for example, every replication censored).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bounds, crusade, graph, simulation, verify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_POLICY_FAULT = 3
EXIT_DEGENERATE = 4

DEFAULT_SEED = 42


class UsageError(ValueError):
    pass


def _master_seed(value: Optional[int]) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("EPIGRAPH_SEED")
    return int(env) if env else DEFAULT_SEED


def _echo_config(config: dict, save_path: Optional[str]) -> None:
    line = json.dumps(config, sort_keys=True, separators=(",", ":"))
    print(f"CONFIG {line}", file=sys.stderr)
    if save_path:
        Path(save_path).write_text(line + "\n", encoding="utf-8")


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """Layer CLI flags over a --config file (explicit flags win); resolve the seed."""
    config = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
    merged = {}
    for key in keys:
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else config.get(key)
    merged["seed"] = _master_seed(merged["seed"])
    merged["command"] = args.cmd
    return merged


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(cfg: dict) -> graph.Graph:
    """A graph from a file path or an inline generator spec 'kind:n'."""
    if cfg.get("graph"):
        path = Path(cfg["graph"])
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read graph file {path}: {exc}") from exc
        return graph.parse_graph(text, allow_disconnected=bool(cfg.get("allow_disconnected")))
    if cfg.get("gen"):
        spec = str(cfg["gen"])
        parts = spec.split(":")
        if len(parts) != 2:
            raise UsageError(f"generator spec must be kind:n, got {spec!r}")
        kind, n = parts[0], int(parts[1])
        return graph.generate(
            kind, n,
            seed=cfg.get("seed"),
            p=cfg.get("p"),
            d=cfg.get("d"),
        )
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


def _build_policy(cfg: dict, g: graph.Graph, tables):
    name = cfg.get("policy") or "max_degree_infected"
    if name not in simulation.BUILTIN_POLICIES:
        raise UsageError(f"unknown policy {name!r}; builtins: {sorted(simulation.BUILTIN_POLICIES)}")
    if name == "resilience_greedy":
        return simulation.builtin_policy(name, table=tables)
    if name == "random_infected":
        return simulation.builtin_policy(name, seed=cfg.get("policy_seed") or 0)
    return simulation.builtin_policy(name)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    keys = ["kind", "n", "p", "d", "seed", "out"]
    cfg = _merge_config(args, keys)
    _echo_config(cfg, args.save_config)
    if not cfg["kind"] or not cfg["n"]:
        raise UsageError("gen needs --kind and --n")
    g = graph.generate(cfg["kind"], int(cfg["n"]), seed=cfg["seed"], p=cfg["p"], d=cfg["d"])
    _write_text(cfg["out"], graph.write_graph(g))
    return EXIT_OK


def cmd_cutwidth(args) -> int:
    keys = ["graph", "gen", "p", "d", "seed", "out"]
    cfg = _merge_config(args, keys)
    _echo_config(cfg, args.save_config)
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
    keys = ["graph", "gen", "p", "d", "seed", "bag", "out", "table_out"]
    cfg = _merge_config(args, keys)
    _echo_config(cfg, args.save_config)
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
        _write_text(cfg["table_out"], tables.to_csv())
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    keys = [
        "graph", "gen", "p", "d", "i0", "policy", "policy_seed", "r", "reps",
        "seed", "max_time", "max_events", "workers", "out", "trace_out",
    ]
    cfg = _merge_config(args, keys)
    cfg["i0"] = cfg["i0"] or "all"
    cfg["r"] = float(cfg["r"] if cfg["r"] is not None else 1.0)
    cfg["reps"] = int(cfg["reps"] if cfg["reps"] is not None else 1000)
    cfg["max_time"] = float(cfg["max_time"] if cfg["max_time"] is not None else simulation.DEFAULT_MAX_TIME)
    cfg["max_events"] = int(cfg["max_events"] if cfg["max_events"] is not None else simulation.DEFAULT_MAX_EVENTS)
    _echo_config(cfg, args.save_config)
    if cfg["reps"] < 1:
        raise UsageError("--reps must be >= 1")
    g = _load_graph(cfg)
    i0 = _parse_bag(str(cfg["i0"]), g)
    tables = None
    if (cfg.get("policy") or "") == "resilience_greedy":
        tables = crusade.resilience_table(g)
    policy = _build_policy(cfg, g, tables)
    est = simulation.estimate_extinction(
        g, i0, policy, cfg["r"], cfg["reps"], cfg["seed"],
        max_time=cfg["max_time"], max_events=cfg["max_events"],
        workers=cfg["workers"], context=tables,
    )
    if cfg["trace_out"]:
        tr = simulation.simulate(
            g, i0, policy, cfg["r"], (cfg["seed"], 0),
            max_time=cfg["max_time"], max_events=cfg["max_events"], context=tables,
        )
        _write_text(cfg["trace_out"], tr.serialize())
    _write_text(cfg["out"], simulation.ESTIMATE_CSV_HEADER + "\n" + est.csv_row() + "\n")
    if not est.usable:
        print("degenerate: every replication censored", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_verify(args) -> int:
    keys = ["scope", "max_n", "rand_count", "rand_ns", "seed", "mc_runs", "out"]
    cfg = _merge_config(args, keys)
    cfg["scope"] = cfg["scope"] or "all"
    cfg["max_n"] = int(cfg["max_n"] if cfg["max_n"] is not None else 5)
    cfg["rand_count"] = int(cfg["rand_count"] if cfg["rand_count"] is not None else 20)
    cfg["mc_runs"] = int(cfg["mc_runs"] if cfg["mc_runs"] is not None else 20_000)
    rand_ns = tuple(int(x) for x in str(cfg["rand_ns"] or "7,8").split(","))
    cfg["rand_ns"] = ",".join(str(x) for x in rand_ns)
    _echo_config(cfg, args.save_config)
    report = verify.run_scope(
        cfg["scope"], max_n=cfg["max_n"], rand_ns=rand_ns, rand_count=cfg["rand_count"],
        seed=cfg["seed"], mc_runs=cfg["mc_runs"],
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    _write_text(cfg["out"], "\n".join(report.lines()) + "\n")
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
    keys = ["family", "n", "r", "mode", "policy", "policy_seed", "reps", "i0",
            "seed", "max_time", "max_events", "workers", "out", "resume_log"]
    cfg = _merge_config(args, keys)
    cfg["family"] = cfg["family"] or "complete"
    cfg["mode"] = cfg["mode"] or "exact"
    cfg["reps"] = int(cfg["reps"] if cfg["reps"] is not None else 1000)
    cfg["i0"] = cfg["i0"] or "all"
    _echo_config(cfg, args.save_config)
    if cfg["mode"] not in ("exact", "simulate", "bound"):
        raise UsageError("--mode must be exact, simulate, or bound")
    ns = _parse_grid(cfg["n"], int)
    rs = _parse_grid(cfg["r"], Fraction) or [Fraction(1)]
    policies = (cfg["policy"] or "max_degree_infected").split(",") if cfg["mode"] == "simulate" else [cfg["mode"]]

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
    label = f"{family}:{n}"
    try:
        if cfg["mode"] == "exact":
            if family != "complete":
                raise ValueError("exact mode solves complete graphs only")
            value = simulation.exact_extinction_complete(n, r)
            return f"{label},exact,{float(r)!r},0,{float(value)!r},,0"
        if cfg["mode"] == "bound":
            g = graph.generate(family, n, seed=cfg["seed"], p=cfg.get("p"), d=cfg.get("d"))
            w = crusade.cutwidth(g)
            return bounds.bound_report_row(g.n, g.max_degree, w, w, r)
        g = graph.generate(family, n, seed=cfg["seed"], p=cfg.get("p"), d=cfg.get("d"))
        i0 = _parse_bag(str(cfg["i0"]), g)
        tables = crusade.resilience_table(g) if pol == "resilience_greedy" else None
        policy = _build_policy({**cfg, "policy": pol}, g, tables)
        est = simulation.estimate_extinction(
            g, i0, policy, float(r), cfg["reps"], cfg["seed"],
            max_time=float(cfg["max_time"] or simulation.DEFAULT_MAX_TIME),
            max_events=int(cfg["max_events"] or simulation.DEFAULT_MAX_EVENTS),
            workers=cfg["workers"], context=tables,
        )
        return est.csv_row()
    except (ValueError, ZeroDivisionError) as exc:
        reps = cfg["reps"] if cfg["mode"] == "simulate" else 0
        sys.stderr.write(f"cell {label} r={r} {pol}: flagged ({exc})\n")
        if cfg["mode"] == "bound":
            return f"{n},,,,,{r},error,"
        return f"{label},{pol},{float(r)!r},{reps},,,censored"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epigraph", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--save-config", help="write the resolved config JSON here")
        p.add_argument("--seed", type=int, help="master seed (default EPIGRAPH_SEED or 42)")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("gen", help="generate a graph file")
    common(p)
    p.add_argument("--kind", choices=graph.GENERATOR_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float, help="edge probability for erdos_renyi")
    p.add_argument("--d", type=int, help="degree for random_regular")
    p.set_defaults(func=cmd_gen)

    for name, fn in (("cutwidth", cmd_cutwidth), ("resilience", cmd_resilience)):
        p = sub.add_parser(name, help=f"exact {name} report with certificate crusade")
        common(p)
        p.add_argument("--graph", help="graph file path")
        p.add_argument("--gen", help="inline generator spec kind:n")
        p.add_argument("--p", type=float)
        p.add_argument("--d", type=int)
        if name == "resilience":
            p.add_argument("--bag", help="comma-separated vertex ids, or 'all'")
            p.add_argument("--table-out", dest="table_out", help="also dump the full subset table CSV here")
        p.set_defaults(func=fn)

    p = sub.add_parser("simulate", help="replicated extinction-time estimate")
    common(p)
    p.add_argument("--graph")
    p.add_argument("--gen", help="inline generator spec kind:n")
    p.add_argument("--p", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--i0", help="initially infected bag (default all)")
    p.add_argument("--policy", choices=sorted(simulation.BUILTIN_POLICIES))
    p.add_argument("--policy-seed", dest="policy_seed", type=int)
    p.add_argument("--r", type=float, help="curing budget")
    p.add_argument("--reps", type=int)
    p.add_argument("--max-time", dest="max_time", type=float)
    p.add_argument("--max-events", dest="max_events", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--trace-out", dest="trace_out", help="also write one full event trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run property suites, print pass/fail lines")
    common(p)
    p.add_argument("--scope", choices=verify.SCOPES)
    p.add_argument("--max-n", dest="max_n", type=int, help="exhaustive enumeration cap")
    p.add_argument("--rand-count", dest="rand_count", type=int)
    p.add_argument("--rand-ns", dest="rand_ns", help="comma sizes for random graphs")
    p.add_argument("--mc-runs", dest="mc_runs", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="grid of cells -> one CSV row each")
    common(p)
    p.add_argument("--family", help="graph family (default complete)")
    p.add_argument("--n", help="sizes: '2:14' or '2,4,8'")
    p.add_argument("--r", help="budgets: '1,2' or '1:3'")
    p.add_argument("--mode", choices=("exact", "simulate", "bound"))
    p.add_argument("--policy", help="comma list for simulate mode")
    p.add_argument("--policy-seed", dest="policy_seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--i0")
    p.add_argument("--max-time", dest="max_time", type=float)
    p.add_argument("--max-events", dest="max_events", type=int)
    p.add_argument("--workers", type=int)
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
