"""Workload plans, pinned expectations and output checks for the benchmark.

A plan is plain JSON: the parent builds it from the seed, hands it to a
fresh child process, and checks what the child reports against the plan,
the pinned values in ``expected.json`` and the reference counter below.
Nothing here imports ``ggq``, so the checks stay independent of the code
being measured.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

WORKLOADS = ("catalog-full", "series-deep", "marked-series", "counts-deep")

# series-deep: univariate products pushed to high order (Kronecker path,
# reciprocal, Pochhammer products); partitions stay below 1 % of the run.
SERIES_DEEP_ORDER2 = 1001
SERIES_DEEP_IDS = ("1.1", "1.2", "1.3", "1.4", "4.14", "4.11")
SERIES_DEEP_4_12 = {"order2": 241, "k_list": [1, 2, 3, 4, 5, 6]}
# Small but nonzero, so every count facet compares more than q^0.
SMALL_COUNTS_MAX = 20

# marked-series: every product carries z/w marker degrees (sparse kernel).
MARKED_ORDER2 = {"3.3": 401, "3.4": 401, "3.5": 401, "3.8": 401, "3.7": 601, "3.10": 601}

# counts-deep: partition listing and the bijection enumerators.
COUNTS_THEOREMS = {
    "thm1": {"n_max": 60},
    "thm2": {"n_max": 60},
    "thm3": {"n_max": 60},
    "thm4": {"n_max": 60},
    "thm5": {"n_max": 60},
    "2.7": {"sigma_max": 44},
    "lemma1": {"n_max": 44},
    "lemma2": {"n_max": 44},
}
FAMILY_N_MAX = 60
# Seeded residue families are drawn until the reference counter says they
# list about this many partitions in total, so every seed asks for about
# the same amount of enumeration.  Many small families, about a tenth of
# the pass, keep the seed-to-seed spread of their cost small.
FAMILY_LISTED_BUDGET = 30_000
FAMILY_LISTED_RANGE = (1_000, 5_000)

# Cheap checks of each workload, one of which is rerun with a corruption.
PROBE_CHOICES = {
    "catalog-full": ("1.1", "3.3", "3.5", "4.3", "4.6", "4.9", "4.11", "thm5"),
    "series-deep": ("1.1", "1.2", "1.3", "1.4"),
    "marked-series": ("3.3", "3.5", "3.7", "3.8", "3.10"),
    "counts-deep": ("thm1", "thm2", "thm3", "thm5"),
}


def _check(check_id: str, params: dict) -> dict:
    return {"id": check_id, "params": params}


def _series_deep(rng: random.Random) -> list[dict]:
    checks = []
    for cid in SERIES_DEEP_IDS:
        params = {"order2": SERIES_DEEP_ORDER2}
        if cid != "4.11":
            params["counts_max"] = SMALL_COUNTS_MAX
        checks.append(_check(cid, params))
    checks.append(_check("4.12", dict(SERIES_DEEP_4_12, counts_max=SMALL_COUNTS_MAX)))
    rng.shuffle(checks)
    return checks


def _marked_series(rng: random.Random) -> list[dict]:
    checks = []
    for cid, order2 in MARKED_ORDER2.items():
        params = {"order2": order2}
        if cid == "3.4":
            params["counts_max"] = SMALL_COUNTS_MAX
        checks.append(_check(cid, params))
    rng.shuffle(checks)
    return checks


def reference_counts(family: dict, n_max: int) -> list[int]:
    """Partitions of 0..n_max into parts from a residue family.

    A coin-change table: parts whose residue mod ``sub_modulus`` is in
    ``distinct`` are used at most once, every other allowed part freely.
    """
    modulus = family["modulus"]
    sub = family["sub_modulus"] or modulus
    allowed = set(family["allowed"])
    distinct = set(family["distinct"])
    counts = [1] + [0] * n_max
    for p in range(1, n_max + 1):
        if p % modulus not in allowed:
            continue
        if p % sub in distinct:
            for n in range(n_max, p - 1, -1):
                counts[n] += counts[n - p]
        else:
            for n in range(p, n_max + 1):
                counts[n] += counts[n - p]
    return counts


def _draw_family(rng: random.Random) -> dict:
    modulus = rng.randint(5, 16)
    allowed = sorted(rng.sample(range(modulus), rng.randint(2, max(2, modulus // 3))))
    sub = rng.choice([None, rng.randint(2, modulus)])
    size = rng.randint(0, 2)
    distinct = sorted(rng.sample(range(sub or modulus), size))
    return {"modulus": modulus, "allowed": allowed, "distinct": distinct, "sub_modulus": sub}


def residue_families(rng: random.Random) -> list[dict]:
    families, listed = [], 0
    lo, hi = FAMILY_LISTED_RANGE
    while listed < FAMILY_LISTED_BUDGET:
        family = _draw_family(rng)
        total = sum(reference_counts(family, FAMILY_N_MAX))
        if lo <= total <= hi and family not in families:
            families.append(family)
            listed += total
    return families


def build_plan(workload: str, seed: int) -> dict:
    """Inputs of one workload pass; the same seed gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    plan = {"workload": workload}
    if workload == "catalog-full":
        plan["argv"] = ["verify-all", "--level", "full", "--emit", "json"]
    elif workload == "series-deep":
        plan["checks"] = _series_deep(rng)
    elif workload == "marked-series":
        plan["checks"] = _marked_series(rng)
    elif workload == "counts-deep":
        plan["checks"] = [_check(cid, dict(p)) for cid, p in COUNTS_THEOREMS.items()]
        plan["families"] = residue_families(rng)
        plan["family_n_max"] = FAMILY_N_MAX
    else:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    return plan


def probe_check(workload: str, seed: int) -> dict:
    """The check rerun with a corruption, at the parameters the workload uses."""
    rng = random.Random(f"probe:{workload}:{seed}")
    cid = rng.choice(PROBE_CHOICES[workload])
    if workload == "catalog-full":
        return {"id": cid, "params": {}, "level": "full"}
    plan = build_plan(workload, seed)
    (check,) = [c for c in plan["checks"] if c["id"] == cid]
    return dict(check, level="quick")


def operations(plan: dict) -> int:
    """Operations one pass attempts: checks plus count sequences."""
    if plan["workload"] == "catalog-full":
        return len(EXPECTED["catalog_full"])
    return len(plan["checks"]) + len(plan.get("families", ()))


# -- output checks ------------------------------------------------------


def expected_report(check: dict) -> dict:
    """What a report for ``check`` must say about its parameters."""
    params = dict(check["params"])
    order2 = params.pop("order2", None)
    if order2 is None:
        bound = params.get("n_max", params.get("sigma_max", 0))
        order2 = 2 * bound + 1 if bound else 0
    return {"id": check["id"], "params": params, "order2": order2}


def report_failures(report: dict, want: dict) -> list[str]:
    """Reasons a report does not show a pass of the requested check."""
    bad = []
    for key in ("id", "params", "order2"):
        if report.get(key) != want[key]:
            bad.append(f"{want['id']}: {key} {report.get(key)!r} != requested {want[key]!r}")
    if report.get("status") != "pass":
        bad.append(f"{want['id']}: status {report.get('status')!r}")
    return bad


def check_pass(plan: dict, out: dict) -> list[str]:
    """Every failed operation of one pass, as one message each."""
    if plan["workload"] == "catalog-full":
        wants = EXPECTED["catalog_full"]
        got = {r.get("id"): r for r in out["reports"]}
        bad = []
        if len(got) != len(out["reports"]) or set(got) != {w["id"] for w in wants}:
            bad.append(f"catalog ids {sorted(got)} are not the pinned {len(wants)} ids")
        for want in wants:
            bad += report_failures(got.get(want["id"], {}), want)[:1]
        return bad
    bad = []
    reports = out["reports"]
    if len(reports) != len(plan["checks"]):
        return [f"{len(reports)} reports for {len(plan['checks'])} checks"] * operations(plan)
    for check, report in zip(plan["checks"], reports):
        failures = report_failures(report, expected_report(check))
        pinned = EXPECTED["sequences"].get(check["id"])
        if pinned is not None and out["sequences"].get(check["id"]) != pinned:
            failures.append(f"{check['id']}: count sequences differ from the pinned values")
        bad += failures[:1]
    for i, family in enumerate(plan.get("families", ())):
        want = reference_counts(family, plan["family_n_max"])
        if out["families"][i] != want:
            bad.append(f"residue family {family}: counts differ from the reference")
    return bad
