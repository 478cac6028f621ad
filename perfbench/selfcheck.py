#!/usr/bin/env python3
"""Self-check of the benchmark: seeds change inputs, never the work done.

    python3 perfbench/selfcheck.py            # two seeds per workload, traced
    python3 perfbench/selfcheck.py --record   # re-record reference.json

For every workload it runs ``run.py --trace 1`` with two seeds and requires
that each run is correct and that every deterministic counter (steps,
rejections, Newton iterations, residuals, linear solves, matvecs, FFT calls)
is identical across the seeds.  It also checks that BENCHMARK.json names the
workloads and metrics that run.py reports.

``--record`` solves each workload once at seed 0 and writes the fingerprints
of its stored fields to reference.json; the output gate compares against
them.  Record only from a commit whose solutions are known to be right.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(workloads) -> None:
    from workloads import WORKLOADS, fingerprints

    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    workdir = HERE / "work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    for name in workloads:
        w = WORKLOADS[name]
        _, mods, seeded = run.setup_once(w, 0, workdir / "input.cfg")
        out = workdir / name
        with redirect_stdout(io.StringIO()):
            code = mods["cli"].main(["solve", "--config", str(workdir / "input.cfg"),
                                     "--out", str(out)])
        if code != 0:
            raise SystemExit(f"{name}: solve exited with {code}; nothing recorded")
        u, _ = mods["fileio"].read_field(str(out / "u.field"))
        m, _ = mods["fileio"].read_field(str(out / "m.field"))
        ref[name] = fingerprints(u.values, m.values, w, seeded.shift)
        print(f"{name}: recorded")
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    shutil.rmtree(workdir)


def check_manifest() -> list:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]], list(WORKLOADS)),
        ("end_to_end", [m["name"] for m in spec["end_to_end"]], list(run.END_TO_END)),
        ("per_layer", [m["name"] for m in spec["per_layer"]], list(run.PER_LAYER)),
    ]
    for key, listed, reported in pairs:
        if listed != reported:
            problems.append(f"BENCHMARK.json {key} {listed} != run.py {reported}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        if units.get(name) != unit:
            problems.append(f"unit of {name}: BENCHMARK.json {units.get(name)} != {unit}")
    return problems


def traced_counters(workload: str, seed: int) -> dict:
    from prove import run_once

    result, lines = run_once(workload, seed, 1, 1)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: not correct\n" + "\n".join(lines))
    return {k: result["metrics"][k]["value"] for k in run.DETERMINISTIC}


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs=2, type=int, default=[1, 2])
    args = parser.parse_args()
    if args.record:
        record(args.workloads)
        return 0

    problems = check_manifest()
    for name in args.workloads:
        a, b = (traced_counters(name, s) for s in args.seeds)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        print(f"{name}: " + ", ".join(f"{k.split('.', 1)[1]}={v:g}" for k, v in a.items()))
        if diff:
            problems.append(f"{name}: counters differ between seeds {args.seeds}: {diff}")
    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run

    run.cap_threads()
    sys.exit(main())
