#!/usr/bin/env python3
"""Compare two checkouts with the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --base DIR --change DIR --pairs 10 --out BENCH_2.json

For each pair and each workload, ``perfbench/run.py`` runs once in the
base checkout and once in the change checkout (the order flips every
pair), both with the pair's seed.  The record holds, per workload and
end-to-end metric, every value, the median and quartiles of each side,
and how many pairs the change won; plus the line, code-token and
public-name counts of each side's ``src/ggq`` (``scripts/src_size.py``)
and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from src_size import size

WORKLOADS = ("catalog-full", "series-deep", "marked-series", "counts-deep")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout} {workload} seed {seed}: failed operations")
    return {m: result["metrics"][m]["value"] for m in METRICS}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    runs = {w: {"base": [], "change": []} for w in args.workloads}
    t0 = time.monotonic()
    for i in range(args.pairs):
        seed = i + 1
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in args.workloads:
            for side in order:
                runs[w][side].append(run_once(getattr(args, side), w, seed, args.seconds))
            print(f"pair {i + 1} {w}: " + "  ".join(
                f"{s} wall {runs[w][s][-1]['wall_s']:.3f}" for s in ("base", "change")),
                flush=True)

    sizes = {side: size(getattr(args, side)) for side in ("base", "change")}
    workloads = {}
    for w, sides in runs.items():
        workloads[w] = {}
        for m in METRICS:
            base = [r[m] for r in sides["base"]]
            change = [r[m] for r in sides["change"]]
            workloads[w][m] = {
                "base": summary(base),
                "change": summary(change),
                "change_wins": sum(c < b for b, c in zip(base, change)),
            }
    record = {
        "pairs": args.pairs,
        "seconds_per_run": args.seconds,
        "seeds": list(range(1, args.pairs + 1)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "elapsed_s": round(time.monotonic() - t0),
        "src_lines": {side: sizes[side][0] for side in sizes},
        "src_tokens": {side: sizes[side][1] for side in sizes},
        "src_public_names": {side: sizes[side][2] for side in sizes},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
