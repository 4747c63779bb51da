"""The benchmark's coin-change reference against ggq's residue-family
counter, and the determinism of the workload plans.

Run from the repository root: python -m pytest perfbench/tests
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from ggq.partitions import (  # noqa: E402
    MOD8_CONFIG,
    P_CONFIG,
    ResidueFamilyConfig,
    count_residue_family,
    interp_config,
)

N = 24


def _family(cfg: ResidueFamilyConfig) -> dict:
    return {
        "modulus": cfg.modulus,
        "allowed": sorted(cfg.allowed),
        "distinct": sorted(cfg.distinct_residues),
        "sub_modulus": cfg.sub_modulus,
    }


@pytest.mark.parametrize(
    "cfg",
    [P_CONFIG, MOD8_CONFIG[1], MOD8_CONFIG[3], *(interp_config(k) for k in range(1, 7))],
)
def test_reference_matches_catalog_families(cfg):
    assert wl.reference_counts(_family(cfg), N) == [
        count_residue_family(cfg, n) for n in range(N + 1)
    ]


def test_reference_matches_seeded_families():
    rng = random.Random(7)
    for _ in range(20):
        f = wl._draw_family(rng)
        cfg = ResidueFamilyConfig(
            f["modulus"], frozenset(f["allowed"]), frozenset(f["distinct"]), f["sub_modulus"]
        )
        assert wl.reference_counts(f, N) == [count_residue_family(cfg, n) for n in range(N + 1)]


def test_reference_small_cases_by_hand():
    # all parts allowed, no distinctness: the partition numbers
    everything = {"modulus": 1, "allowed": [0], "distinct": [], "sub_modulus": None}
    assert wl.reference_counts(everything, 8) == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    # odd parts, all distinct: partitions into distinct odd parts
    odd_distinct = {"modulus": 2, "allowed": [1], "distinct": [1], "sub_modulus": None}
    assert wl.reference_counts(odd_distinct, 8) == [1, 1, 0, 1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_plans_repeat_for_a_seed(workload):
    assert wl.build_plan(workload, 3) == wl.build_plan(workload, 3)
    assert wl.probe_check(workload, 3) == wl.probe_check(workload, 3)


def test_report_with_other_params_is_a_failure():
    check = {"id": "1.1", "params": {"order2": 1001, "counts_max": 20}}
    want = wl.expected_report(check)
    report = {"id": "1.1", "params": {"counts_max": 60}, "order2": 201, "status": "pass"}
    assert wl.report_failures(report, want)
    report = {"id": "1.1", "params": {"counts_max": 20}, "order2": 1001, "status": "pass"}
    assert wl.report_failures(report, want) == []
