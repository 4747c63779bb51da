"""Benchmark for ggq: time to verdict, set-up time, memory, failures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog-full --seed 1 --seconds 20 --trace 0

Every timed pass is a fresh Python process (``child.py``) that imports
``ggq`` from this checkout's ``src/``.  With ``--trace 0`` passes repeat
until ``--seconds`` have gone by and the end-to-end metrics are medians
over passes, scaled to a reference machine speed (see ``timed_run``).
With ``--trace 1`` one untraced and one traced pass run,
followed by one fresh process per catalog id (cold time) and per scaling
point, and the per-layer metrics are printed instead.  The metric names
and units are the ones ``BENCHMARK.json`` declares.  The last line of
standard output is the JSON result; ``.perfbench-out/`` receives a stamped
record of the run and, for traced runs, the spans of the workload's last
traced pass.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

# Set-up is ~0.1 s and noisy, so it is sampled many times per run.
SETUP_SAMPLES = 16
# child.calibrate() on the reference machine (2-core x86-64 container,
# Python 3.11, in its fast state); see timed_run.
REFERENCE_CAL_S = 0.027
CHILD_TIMEOUT_S = 150
SCALE_POINTS = {
    "series.scale.1_3.o201_s": {"id": "1.3", "params": {"order2": 201, "counts_max": 20}},
    "series.scale.1_3.o401_s": {"id": "1.3", "params": {"order2": 401, "counts_max": 20}},
    "series.scale.1_3.o801_s": {"id": "1.3", "params": {"order2": 801, "counts_max": 20}},
    "series.scale.4_12k4.o121_s": {
        "id": "4.12", "params": {"order2": 121, "k_list": [4], "counts_max": 20},
    },
    "series.scale.4_12k4.o241_s": {
        "id": "4.12", "params": {"order2": 241, "k_list": [4], "counts_max": 20},
    },
    "partitions.scale.thm3.n40_s": {"id": "thm3", "params": {"n_max": 40}},
    "partitions.scale.thm3.n50_s": {"id": "thm3", "params": {"n_max": 50}},
    "partitions.scale.thm3.n60_s": {"id": "thm3", "params": {"n_max": 60}},
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


class ChildFailed(Exception):
    pass


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures += failures[:attempted]


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GGQ_CONFIG")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(task: dict) -> dict:
    """Run one child process to completion and return its JSON result,
    with ``setup_s`` measured from just before the process started."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(ROOT), json.dumps(task)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=_child_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{task['kind']} task timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{task['kind']} task exited {proc.returncode}: {tail[0]}")
    result = json.loads(lines[-1])
    ggq_file = Path(result["ggq_file"]).resolve()
    if not ggq_file.is_relative_to(ROOT / "src"):
        raise BenchError(f"imported ggq from {ggq_file}, outside {ROOT / 'src'}")
    result["setup_s"] = result["ready"] - t0
    return result


def run_pass(plan: dict, tally: Tally, **extra) -> dict | None:
    ops = wl.operations(plan)
    try:
        out = spawn(dict(kind="pass", plan=plan, **extra))
    except ChildFailed as exc:
        tally.add(ops, [str(exc)] * ops)
        return None
    tally.add(ops, wl.check_pass(plan, out))
    return out


def run_check(check: dict, level: str, tally: Tally, want: dict, corrupt=False) -> dict | None:
    """One check in a fresh process; a corrupted check must fail."""
    task = {"kind": "check", "id": check["id"], "params": check["params"], "level": level,
            "corrupt": corrupt}
    try:
        out = spawn(task)
    except ChildFailed as exc:
        tally.add(1, [str(exc)])
        return None
    report = out["report"]
    if corrupt:
        ok = report["status"] == "fail"
        tally.add(1, [] if ok else [f"corrupted {check['id']} was not detected"])
    else:
        tally.add(1, wl.report_failures(report, want))
    return out


def probe(workload: str, seed: int, tally: Tally) -> None:
    """Non-vacuity probe, outside the timed window."""
    check = wl.probe_check(workload, seed)
    run_check(check, check["level"], tally, {}, corrupt=True)


def timed_run(plan: dict, seconds: int, tally: Tally):
    """Passes until ``seconds`` have gone by; a pass starts only while at
    least half a median pass fits before the deadline.

    On a shared 2-core x86-64 container, speed drifted by half over
    minutes, for every process alike.  So each median is scaled by the
    machine's mean speed while it was measured, relative to the reference:
    the reference yardstick time over the harmonic mean of the yardstick
    times taken alongside (in the setup-only processes for ``setup_s``, all
    through the passes for ``wall_s``).  A fixed amount of work takes time
    inversely proportional to the mean speed over that time, and the
    harmonic mean of short yardstick times is the inverse of their mean
    speed; a median would pick one mode when contention comes and goes.
    Both metrics then read as seconds on the reference machine.  The
    unscaled samples and the speed factors go into the record.
    """
    setups = [spawn({"kind": "setup", "plan": plan}) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        out = run_pass(plan, tally)
        if out is not None:
            passes.append(out)
        elapsed = time.monotonic() - start
        pass_s = statistics.median(p["wall_s"] + p["setup_s"] for p in passes) if passes else 0
        if elapsed + pass_s / 2 >= seconds:
            break
    if not passes:
        raise BenchError("no pass completed; " + "; ".join(tally.failures[:3]))
    walls = [p["wall_s"] for p in passes]
    setup = [r["setup_s"] for r in setups + passes]
    setup_cal = [r["cal_s"][0] for r in setups]
    pass_cal = [c for p in passes for c in p["cal_s"]]
    wall_speed = REFERENCE_CAL_S / statistics.harmonic_mean(pass_cal)
    setup_speed = REFERENCE_CAL_S / statistics.harmonic_mean(setup_cal)
    metrics = {
        "wall_s": statistics.median(walls) * wall_speed,
        "setup_s": statistics.median(setup) * setup_speed,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    samples = {
        "passes": len(passes),
        "setup": len(setup),
        "unscaled_wall_s": walls,
        "unscaled_setup_s": setup,
        "pass_cal_s": pass_cal,
        "setup_cal_s": setup_cal,
        "wall_speed_factor": wall_speed,
        "setup_speed_factor": setup_speed,
        "ggq_file": passes[0]["ggq_file"],
    }
    return metrics, samples


def traced_run(plan: dict, tally: Tally, spans_path: Path):
    base = run_pass(plan, tally, warm=True)
    traced = run_pass(plan, tally, trace=True, spans_path=str(spans_path))
    if base is None or traced is None:
        raise BenchError("a workload pass failed; " + "; ".join(tally.failures[:3]))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    metrics["registry.warm_pass_s"] = base["warm_pass_s"]
    points = [(f"registry.cold_s.{w['id']}", {"id": w["id"], "params": {}}, "full", w)
              for w in wl.EXPECTED["catalog_full"]]
    points += [(name, check, "quick", wl.expected_report(check))
               for name, check in SCALE_POINTS.items()]
    for name, check, level, want in points:
        out = run_check(check, level, tally, want)
        if out is None:
            raise BenchError(f"{name}: " + tally.failures[-1])
        metrics[name] = out["wall_s"]
    samples = {"passes": 1, "traced_wall_s": traced["wall_s"], "untraced_wall_s": base["wall_s"],
               "spans": traced["layers"]["trace.spans"], "ggq_file": base["ggq_file"]}
    return metrics, samples


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    k = len(values)
    if k < 11:
        return None
    return 100.0 * (k - 10) / k, sorted(values)[k - 11]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ggq" / "__init__.py").is_file():
        raise BenchError(f"no ggq package under {ROOT / 'src'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    plan = wl.build_plan(args.workload, args.seed)
    tally = Tally()
    spawn({"kind": "setup", "plan": plan})  # fills the bytecode cache, untimed
    probe(args.workload, args.seed, tally)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # one spans file per workload, replaced by the next traced run
        metrics, samples = traced_run(plan, tally, OUT_DIR / f"{args.workload}.spans.gz")
    else:
        metrics, samples = timed_run(plan, args.seconds, tally)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    failed = len(tally.failures)
    fail_ratio = failed / tally.attempted

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>12.6g} {m['unit']}")
    print(f"  {'fail_ratio':<36} {fail_ratio:>12.6g} ratio  ({failed}/{tally.attempted})")
    if not args.trace:
        walls = samples["unscaled_wall_s"]
        tail = tail_percentile(walls)
        note = f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "too few for a tail percentile"
        print(f"  wall_s samples {samples['passes']}: {note}; setup_s samples {samples['setup']}")
        print(f"  unscaled medians: wall {statistics.median(walls):.6g} s, setup "
              f"{statistics.median(samples['unscaled_setup_s']):.6g} s; speed factors: wall "
              f"{samples['wall_speed_factor']:.4g}, setup {samples['setup_speed_factor']:.4g}")
    for reason in tally.failures[:10]:
        print(f"  FAILED: {reason}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
        "ggq_file": samples.pop("ggq_file"),
        "samples": samples,
        "attempted": tally.attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ChildFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
