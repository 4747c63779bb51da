"""One fresh benchmark process: import ggq, run one task, print JSON.

Usage: python3 child.py <checkout> <task-json>

The last line of standard output is a JSON object.  ``ready`` is the
``time.monotonic()`` reading once ggq is imported (and the command line
parsed, for the CLI workload); the parent subtracts its own reading taken
just before it started this process, which gives the set-up time.  The
monotonic clock is shared by all processes on the machine.  ``cal_s``
lists the times of a fixed pure-Python yardstick run in this process after
set-up, or all through a pass; the parent uses them to scale times to a
reference machine speed.

Tasks:
  setup   import, then the yardstick
  pass    one workload pass; with "warm", a second pass in the same
          process; with "trace", the pass runs under the span tracer
  check   one run_check call, optionally corrupted (probes, cold and
          scaling points)
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def _import_ggq(checkout: Path, argv=None):
    sys.path.insert(0, str(checkout / "src"))
    import ggq

    if argv is not None:
        import ggq.cli

        ggq.cli.build_parser().parse_args(argv)
    return ggq, time.monotonic()


class _Parts:
    """A validated parts tuple, built the way partition listing builds its
    objects."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        last = 0
        for p in parts:
            if p < last:
                raise ValueError("parts must ascend")
            last = p
        self.parts = parts


def calibrate() -> float:
    """Seconds for a fixed yardstick (~0.025 s) made of the three kinds of
    work ggq's layers do: dict updates on tuple keys, big-integer
    (Kronecker-style) products, and listing constrained partitions.

    The cyclic garbage collector is off meanwhile: its cost grows with the
    objects the pass keeps alive, and the yardstick must not depend on
    the program it is run beside.
    """
    if not gc.isenabled():
        return _yardstick()
    gc.disable()
    try:
        return _yardstick()
    finally:
        gc.enable()


def _yardstick() -> float:
    t0 = time.perf_counter()
    acc = {}
    big = 3**300
    for i in range(15_000):
        key = (i % 101, i % 7, 0)
        acc[key] = acc.get(key, 0) + big * (i % 13)
        if i % 5 == 0:
            acc.pop((i % 101, 3, 0), None)

    width = 12
    coeffs = [(i * 7919) % 100_003 for i in range(600)]
    for r in range(9):
        packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")
        raw = (packed * (packed + r)).to_bytes(2 * len(coeffs) * width + 8, "little")
        [int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw) - 8, width)]

    listed = []

    def rec(prefix: tuple, remaining: int, lo: int) -> None:
        if remaining == 0:
            listed.append(_Parts(prefix))
            return
        for p in range(lo, remaining + 1):
            if p % 4 != 2 and not (prefix and p == prefix[-1] and p % 2):
                rec(prefix + (p,), remaining - p, p)

    rec((), 54, 1)
    return time.perf_counter() - t0


def _report(r) -> dict:
    return {"id": r.id, "params": r.parameters, "order2": r.order2, "status": r.status}


def _run_pass(ggq, plan: dict, yardstick: bool = True) -> dict:
    """Run the workload once.

    ``wall_s`` is the time spent in ggq.  With ``yardstick``, the
    yardstick runs before every check, before the residue families and at
    the end, so the machine's speed is sampled all through the pass; its
    times go to ``cal_s`` and are left out of ``wall_s``.  For the CLI run
    the benchmark wraps ``registry.run_check`` for the length of the call
    to place them.
    """
    out = {"reports": [], "families": [], "cal_s": []}
    cal = out["cal_s"]

    def between():
        if yardstick:
            cal.append(calibrate())

    if plan["workload"] == "catalog-full":
        from ggq import registry

        run_check = registry.run_check

        def run_check_after_yardstick(*args, **kwargs):
            between()
            return run_check(*args, **kwargs)

        registry.run_check = run_check_after_yardstick
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                ggq.cli.main(plan["argv"])
        finally:
            registry.run_check = run_check
        out["wall_s"] = time.perf_counter() - t0 - sum(cal)
        between()
        out["reports"] = [
            {k: c[k] for k in ("id", "params", "order2", "status")}
            for c in json.loads(buf.getvalue())["checks"]
        ]
        return out
    from ggq.partitions import ResidueFamilyConfig, count_residue_family
    from ggq.registry import run_check

    wall = 0.0
    for check in plan["checks"]:
        between()
        t0 = time.perf_counter()
        report = run_check(check["id"], **check["params"])
        wall += time.perf_counter() - t0
        out["reports"].append(_report(report))
    n_max = plan.get("family_n_max", 0)
    configs = [
        ResidueFamilyConfig(
            f["modulus"], frozenset(f["allowed"]), frozenset(f["distinct"]), f["sub_modulus"]
        )
        for f in plan.get("families", ())
    ]
    if configs:
        between()
        t0 = time.perf_counter()
        for cfg in configs:
            out["families"].append([count_residue_family(cfg, n) for n in range(n_max + 1)])
        wall += time.perf_counter() - t0
    between()
    out["wall_s"] = wall
    return out


def theorem_sequences(checks: list[dict]) -> dict:
    """The count sequences each theorem check compares, read back after the
    pass (the counters are cached, so this is cheap)."""
    from ggq import bijection as b
    from ggq import partitions as p

    seqs = {}
    for check in checks:
        cid, params = check["id"], check["params"]
        top = params.get("n_max", params.get("sigma_max", -1)) + 1
        ns = range(top)
        if cid == "thm1":
            seqs[cid] = [[p.count_q(i, n) for n in ns] for i in (1, 3)]
        elif cid == "thm2":
            seqs[cid] = [[list(p.count_thm2_sides(i, n)) for n in ns] for i in (1, 3)]
        elif cid in ("thm3", "2.7"):
            seqs[cid] = [p.weighted_count("S", n) for n in ns]
        elif cid == "thm4":
            seqs[cid] = [p.weighted_count("Sstar", n) for n in ns]
        elif cid == "thm5":
            seqs[cid] = [[p.count_g(n) for n in ns], [p.count_p(n) for n in ns]]
        elif cid == "lemma1":
            seqs[cid] = [len(b.split_pairs(n)) for n in ns]
        elif cid == "lemma2":
            seqs[cid] = [len(b.triple_partitions(n)) for n in ns]
    return seqs


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    checkout = Path(argv[1]).resolve()
    task = json.loads(argv[2])
    plan = task.get("plan", {})
    cli_argv = plan.get("argv") if plan.get("workload") == "catalog-full" else None
    ggq, ready = _import_ggq(checkout, cli_argv)
    result = {"ready": ready, "ggq_file": ggq.__file__}
    if task["kind"] == "setup":
        result["cal_s"] = [calibrate()]

    if task["kind"] == "pass":
        tracer = None
        if task.get("trace"):
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing

            tracer = tracing.Tracer()
            patch = tracing.instrument(tracer)
        # no yardstick in the traced pass: it would count as CLI self time
        out = _run_pass(ggq, plan, yardstick=tracer is None)
        if tracer is not None:
            patch.restore()
            result["layers"] = tracing.layer_metrics(tracer, patch)
            tracer.write(task["spans_path"])
        if task.get("warm"):
            out["warm_pass_s"] = _run_pass(ggq, plan)["wall_s"]
        if "checks" in plan:
            out["sequences"] = theorem_sequences(plan["checks"])
        result.update(out)
    elif task["kind"] == "check":
        from ggq.registry import Corruption, run_check

        corrupt = Corruption() if task.get("corrupt") else None
        t0 = time.perf_counter()
        report = run_check(task["id"], level=task["level"], corrupt=corrupt, **task["params"])
        result["wall_s"] = time.perf_counter() - t0
        result["report"] = _report(report)
    result["rss_mb"] = _rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
