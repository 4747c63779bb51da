"""Acceptance gate: twelve criteria, one printed line each.

Every criterion runs the relevant catalog checks at their quick-level
parameters (those are the acceptance bounds), demands exact equality
(status "pass", integer coefficients), and enforces the wall-clock
budget.  Lines are printed outside pytest's capture so the gate is
visible in plain test output.
"""

import time

from ggq.bijection import ferrers_split
from ggq.registry import Corruption, run_check
from ggq.series import TruncSeries, monomial, truncate

BOUNDS = {
    1: 5.0,  # per check
    2: 10.0,
    3: 60.0,
    4: 60.0,
    5: 30.0,
    6: 10.0,
    7: 30.0,
    8: 60.0,
    9: 30.0,
    10: 120.0,
    11: 30.0,
    12: 30.0,
}


def run_group(ids):
    return [run_check(i) for i in ids]


def emit(capsys, idx, desc, ok, elapsed):
    bound = BOUNDS[idx]
    verdict = "pass" if ok and elapsed < bound else "fail"
    with capsys.disabled():
        print(f"ACCEPTANCE {idx}: {desc} ... {verdict} ({elapsed:.2f}s, budget {bound:.0f}s)")
    assert ok
    assert elapsed < bound


def test_criterion_01(capsys):
    t0 = time.perf_counter()
    reports = run_group(["1.1", "1.2", "1.3", "1.4"])
    ok = all(r.status == "pass" for r in reports)
    ok = ok and all(r.order2 == 201 for r in reports)
    ok = ok and all(r.elapsed_ms < 5000 for r in reports)
    emit(capsys, 1, "single-sum identities to q^100, counts to 60", ok,
         max(r.elapsed_ms for r in reports) / 1000)
    _ = t0


def test_criterion_02(capsys):
    t0 = time.perf_counter()
    reports = run_group(["thm1", "thm2"])
    ok = all(r.status == "pass" for r in reports)
    ok = ok and all(r.parameters["n_max"] == 40 for r in reports)
    emit(capsys, 2, "gap and residue counting theorems to n=40", ok,
         time.perf_counter() - t0)


def test_criterion_03(capsys):
    t0 = time.perf_counter()
    reports = run_group(["thm3", "thm4"])
    ok = all(r.status == "pass" for r in reports)
    ok = ok and all(r.parameters["n_max"] == 50 for r in reports)
    emit(capsys, 3, "weighted counting theorems to n=50", ok,
         time.perf_counter() - t0)


def test_criterion_04(capsys):
    t0 = time.perf_counter()
    reports = run_group(["lemma1", "lemma2", "2.7"])
    ok = all(r.status == "pass" for r in reports)
    bound = {"lemma1": "n_max", "lemma2": "n_max", "2.7": "sigma_max"}
    ok = ok and all(r.parameters[bound[r.id]] == 36 for r in reports)
    # the worked example must come out exactly
    ok = ok and ferrers_split((5, 15, 24, 29)) == ((4, 12, 20, 24), (1, 5, 7))
    emit(capsys, 4, "bijection lemmas and round trips to sigma=36", ok,
         time.perf_counter() - t0)


def test_criterion_05(capsys):
    t0 = time.perf_counter()
    reports = run_group(["3.2", "3.3", "3.4", "3.5", "3.8"])
    ok = all(r.status == "pass" for r in reports)
    ok = ok and all(r.order2 == 81 for r in reports)
    emit(capsys, 5, "refined double-sum identities to q^40 with counts to 40",
         ok, time.perf_counter() - t0)


def test_criterion_06(capsys):
    t0 = time.perf_counter()
    reports = run_group(["3.7", "3.10"])
    ok = all(r.status == "pass" for r in reports)
    ok = ok and all(r.order2 == 121 for r in reports)
    emit(capsys, 6, "double-to-single reductions to q^60", ok,
         time.perf_counter() - t0)


def test_criterion_07(capsys):
    t0 = time.perf_counter()
    reports = run_group(["4.3", "4.5", "4.6", "4.7"])
    ok = all(r.status == "pass" for r in reports)
    by_id = {r.id: r.parameters for r in reports}
    ok = ok and by_id["4.6"]["n_max"] == 6
    ok = ok and by_id["4.5"]["k_max"] == 4
    ok = ok and by_id["4.7"] == {"n_max": 6, "k_max": 3}
    emit(capsys, 7, "pair verification, lattice iteration, finite identity",
         ok, time.perf_counter() - t0)


def test_criterion_08(capsys):
    t0 = time.perf_counter()
    reports = run_group(["4.12", "4.13", "4.14"])
    ok = all(r.status == "pass" for r in reports)
    by_id = {r.id: r for r in reports}
    ok = ok and by_id["4.12"].parameters["k_list"] == [1, 2, 3, 4, 5, 6]
    ok = ok and by_id["4.14"].order2 == 201
    emit(capsys, 8, "hierarchy k=1..6 to q^60 plus the k=4 member to q^100",
         ok, time.perf_counter() - t0)


def test_criterion_09(capsys):
    t0 = time.perf_counter()
    reports = run_group(["thm5"])
    ok = reports[0].status == "pass"
    ok = ok and reports[0].parameters["n_max"] == 50
    emit(capsys, 9, "two count families agree with the series to n=50", ok,
         time.perf_counter() - t0)


def test_criterion_10(capsys):
    t0 = time.perf_counter()
    reports = run_group(["4.15", "4.20"])
    ok = all(r.status == "pass" for r in reports)
    by_id = {r.id: r.parameters for r in reports}
    ok = ok and by_id["4.15"] == {"k_list": [1, 2, 3], "l_max": 6, "m_max": 6}
    ok = ok and by_id["4.20"]["l_max"] == 10
    emit(capsys, 10, "bounded trinomial identities, j-range closing", ok,
         time.perf_counter() - t0)


def test_criterion_11(capsys):
    t0 = time.perf_counter()
    reports = run_group(["4.9", "4.10", "4.17", "4.18"])
    ok = all(r.status == "pass" for r in reports)
    ok = ok and all(r.order2 == 81 for r in reports)
    emit(capsys, 11, "four limit formulas to q^40", ok,
         time.perf_counter() - t0)


def _ring_laws_hold() -> bool:
    a = TruncSeries({(0, 0, 0): 1, (3, 1, 0): -2}, 20)
    b = TruncSeries({(2, 0, 0): 5, (1, 0, 1): 1}, 20)
    c = TruncSeries({(4, 0, 0): -1, (0, 2, 0): 3}, 20)
    if (a + b) * c != a * c + b * c:
        return False
    if a * b != b * a or (a * b) * c != a * (b * c):
        return False
    one = monomial(1, 0, order2=20)
    if a * one != a or a + TruncSeries({}, 20) != a:
        return False
    # truncation commutes with the ring operations
    low = 9
    if truncate(a * b, low) != truncate(a, low) * truncate(b, low):
        return False
    if truncate(a + c, low) != truncate(a, low) + truncate(c, low):
        return False
    return True


def _mutation_detected() -> bool:
    r = run_check("1.1", order2=41, counts_max=16,
                  corrupt=Corruption(key=(4, 0, 0), delta=1))
    if r.status != "fail" or not r.first_mismatch.startswith("e2=4,dz=0,dw=0"):
        return False
    fields = dict(p.split("=") for p in r.first_mismatch.split(","))
    if int(fields["got"]) - int(fields["expected"]) != 1:
        return False
    r = run_check("thm1", n_max=12, corrupt=Corruption(key=5, delta=2))
    if r.status != "fail" or not r.first_mismatch.startswith("n=5"):
        return False
    fields = dict(p.split("=") for p in r.first_mismatch.split(","))
    return int(fields["got"]) - int(fields["expected"]) == 2


def test_criterion_12(capsys):
    t0 = time.perf_counter()
    ok = _ring_laws_hold() and _mutation_detected()
    emit(capsys, 12, "ring laws, truncation coherence, mutation detection",
         ok, time.perf_counter() - t0)
