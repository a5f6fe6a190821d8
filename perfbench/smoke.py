"""The benchmark's own smoke test (about a minute; run from the repository root).

    python3 perfbench/smoke.py

Checks that
1. a shrunken run of every workload, with tracing off and on, prints every
   metric that BENCHMARK.json names, with its unit, and is correct;
2. a deliberately corrupted gamma entry makes both exact workloads report
   failed operations (fail_frac > 0);
3. in a directory holding only BENCHMARK.json and the benchmark's own files,
   the benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def shrunken_runs(spec: dict) -> list[str]:
    errors = []
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "0.5",
                                     "--trace", str(trace), "--small"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = last_json(out.stdout)
            where = f"{w['name']} trace={trace}"
            if out.returncode != 0 or result is None or not result["correct"]:
                errors.append(f"{where}: exit {out.returncode}, result {result}\n{out.stderr[-2000:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                              f"missing {sorted(set(expected[trace]) - set(got))}, "
                              f"extra {sorted(set(got) - set(expected[trace]))}")
            printed = {tuple(line.split()[::2]) for line in out.stdout.splitlines() if len(line.split()) == 3}
            for name, unit in expected[trace].items():
                if (name, unit) not in printed:
                    errors.append(f"{where}: report does not print {name} [{unit}]")
            print(f"ok   {where}: {result['attempted']} checks", flush=True)
    return errors


def corrupted_gamma() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    run.import_epigraph()
    from epigraph import crusade

    original = crusade.resilience_table

    def corrupted(g, **kwargs):
        tables = original(g, **kwargs)
        tables.gamma[g.full_mask] += 1
        return tables

    errors = []
    crusade.resilience_table = corrupted
    try:
        for workload in ("exact_large", "exact_small"):
            result = run.run(workload, 1, 0.1, False, small=True)
            frac = len(result["failures"]) / result["attempted"]
            if frac > 0:
                print(f"ok   {workload} with a corrupted gamma entry: fail_frac={frac:.3f}", flush=True)
            else:
                errors.append(f"{workload}: corrupted gamma went unnoticed (fail_frac=0)")
    finally:
        crusade.resilience_table = original
    return errors


def bare_directory(spec: dict) -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or last_json(out.stdout) is not None:
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-500:]!r}"]
    print(f"ok   bare directory: exit {out.returncode}, no result", flush=True)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = shrunken_runs(spec) + corrupted_gamma() + bare_directory(spec)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
