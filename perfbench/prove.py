#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/prove.py --runs 10                 # every workload
    python3 perfbench/prove.py --runs 5 --workloads grid2d
    python3 perfbench/prove.py --runs 10 --baseline perfbench/baseline.json
    python3 perfbench/prove.py --runs 10 --compare perfbench/baseline.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds>`` with a
different seed, in sequence.  For every end-to-end metric it prints the
median of the runs and the spread (q3 - q1) / median, with q1 and q3 from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json.  A metric is steady when its spread is within its bound.
``--compare`` also requires each median to be no worse than the one stored
in the given baseline by more than the bound.  ``--baseline`` also makes one
traced run per workload, runs the known defect below to record its
traceback, and writes medians, spreads, per-layer values and the environment
to the given JSON file, for later changes to diff against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GRID2D_NT32 = (
    "mfgcon solve on grid2d's data with n_t = 32 (67,584 unknowns, below the 120k "
    "auto threshold) takes the assembled path, where assemble_L raises "
    "MemoryBudgetError. grid2d uses n_t = 64 so that its dt matches ref1d; the crash "
    "is left for the change that removes the assembled path or maps solver errors to "
    "exit codes."
)


def run_once(workload: str, seed: int, seconds, trace: int) -> tuple:
    """One ``run.py`` process; returns its result object and the lines before it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def grid2d_nt32_defect() -> dict:
    """Run ``mfgcon solve`` on grid2d's data with n_t = 32 and capture what it raises."""
    import dataclasses

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from workloads import WORKLOADS, seeded_input

    run.cap_threads()
    workload = dataclasses.replace(WORKLOADS["grid2d"], n_t=32)
    workdir = HERE / "work" / "defect"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = workdir / "input.cfg"
        cfg.write_text(seeded_input(workload, 0).config_text)
        main = run.import_mfgcon()["cli"].main
        code, seconds, _, error = run.call_cli(
            main, ["solve", "--config", str(cfg), "--out", str(workdir / "out")]
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"grid2d n_t=32: exit code {code} after {seconds:.3g} s", flush=True)
    error = error.replace(str(ROOT), ".") if error else None
    tail = error.strip().splitlines()[-1] if error else None
    return {"description": GRID2D_NT32, "unknowns": workload.unknowns,
            "exit_code": code, "exception": tail, "traceback": error}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    previous = json.loads(args.compare.read_text()) if args.compare else None
    steady = True
    baseline = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for name in args.workloads:
        values = {m: [] for m in bounds}
        for k in range(args.runs):
            result, _ = run_once(name, args.first_seed + k, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {args.first_seed + k}: not correct: {result}")
                steady = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {args.first_seed + k}: " + " ".join(
                f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        entry = {}
        for m, vals in values.items():
            s = spread(vals)
            median = statistics.median(vals)
            ok = s <= bounds[m]
            verdict = "ok" if ok else "TOO WIDE"
            if previous is not None:
                before = previous["workloads"][name]["end_to_end"][m]["median"]
                worse = (median - before) / before
                if better[m] == "higher":
                    worse = -worse
                verdict += f", {worse:+.3f} against the baseline"
                if worse > bounds[m]:
                    ok = False
                    verdict += " WORSE"
            steady = steady and ok
            entry[m] = {"median": median, "spread": s, "values": vals}
            print(f"{name} {m}: median={median:.4g} spread={s:.3f} "
                  f"bound={bounds[m]} {verdict}")
        baseline["workloads"][name] = {"end_to_end": entry}
        if args.baseline:
            result, notes = run_once(name, args.first_seed, seconds, 1)
            baseline["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
            baseline["workloads"][name]["traced_run_notes"] = notes
    if args.baseline:
        env_line = next(line for line in notes if line.startswith("environment: "))
        baseline["environment"] = json.loads(env_line[len("environment: "):])
        baseline["known_defects"] = [grid2d_nt32_defect()]
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    print("prove: " + ("steady" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
