"""Catalog behavior: parameter handling, corruption, ordering, front doors."""

import dataclasses

import pytest

from ggq.registry import (
    REGISTRY,
    CheckSpec,
    Corruption,
    UnknownCheckError,
    check_double_series,
    check_hierarchy,
    check_reduction,
    check_single_series,
    check_theorems,
    natural_key,
    registry_ids,
    run_all,
    run_check,
    spec_for,
)

SMALL = {"1.1": {"order2": 41, "counts_max": 16}}


def strip_elapsed(r):
    return dataclasses.replace(r, elapsed_ms=0)


def test_run_check_is_deterministic():
    a = run_check("1.1", **SMALL["1.1"])
    b = run_check("1.1", **SMALL["1.1"])
    assert strip_elapsed(a) == strip_elapsed(b)
    assert a.status == "pass"
    assert a.first_mismatch is None
    assert a.order2 == 41


def test_reported_parameters_exclude_order():
    r = run_check("1.1", **SMALL["1.1"])
    assert "order2" not in r.parameters
    assert r.parameters["counts_max"] == 16


def test_corruption_series_facet():
    r = run_check("1.1", corrupt=Corruption(key=(4, 0, 0)), **SMALL["1.1"])
    assert r.status == "fail"
    assert r.first_mismatch is not None
    assert "e2=4" in r.first_mismatch


def test_corruption_counts_facet():
    r = run_check("thm1", corrupt=Corruption(key=3, delta=-1), n_max=14)
    assert r.status == "fail"
    assert "n=3" in r.first_mismatch


def test_corruption_default_key_hits_first_term():
    r = run_check("1.1", corrupt=Corruption(), **SMALL["1.1"])
    assert r.status == "fail"
    assert r.first_mismatch.startswith("e2=0,")


def test_corruption_zero_delta_rejected():
    with pytest.raises(ValueError):
        Corruption(delta=0)


def test_unknown_id_and_parameter():
    with pytest.raises(UnknownCheckError) as exc:
        run_check("9.99")
    assert "9.99" in str(exc.value)
    with pytest.raises(ValueError):
        run_check("1.1", bogus=3)


@pytest.mark.parametrize(
    "check_id,bad",
    [
        ("thm3", {"n_max": -3}),
        ("4.20", {"l_max": -1}),
        ("1.1", {"counts_max": -1}),
        ("4.12", {"k_list": [0]}),
        ("4.5", {"k_max": 0}),
    ],
)
def test_out_of_domain_parameters_rejected(check_id, bad):
    with pytest.raises(ValueError):
        run_check(check_id, **bad)


def test_check_without_facets_rejected():
    with pytest.raises(ValueError, match="no facets"):
        run_check("4.15", k_list=[])


def test_none_override_means_default():
    a = run_check("thm1", n_max=None)
    assert a.parameters["n_max"] == REGISTRY["thm1"].quick["n_max"]


def test_natural_key_ordering():
    ids = registry_ids()
    assert ids == sorted(ids, key=natural_key)
    assert natural_key("1.2") < natural_key("1.10")
    assert natural_key("4.20") < natural_key("thm1")
    assert natural_key("thm5") < natural_key("lemma1")


def test_run_all_subset_sorted_and_injected():
    reports = run_all(ids=["thm1", "1.1"], corrupt_id="1.1")
    assert [r.id for r in reports] == ["1.1", "thm1"]
    assert reports[0].status == "fail"
    assert reports[1].status == "pass"
    with pytest.raises(UnknownCheckError):
        run_all(ids=["1.1"], corrupt_id="thm1")  # not in the chosen set
    with pytest.raises(ValueError):
        run_all(level="fast")


def test_run_all_parallel_matches_serial():
    ids = ["1.1", "thm1", "lemma1"]
    serial = [strip_elapsed(r) for r in run_all(ids=ids)]
    par = [strip_elapsed(r) for r in run_all(ids=ids, parallelism=2)]
    assert serial == par


def test_spec_for_levels():
    q = spec_for("1.1")
    f = spec_for("1.1", level="full")
    assert q.order2 < f.order2
    assert "order2" not in q.parameters
    with pytest.raises(UnknownCheckError):
        spec_for("nope")
    with pytest.raises(ValueError):
        CheckSpec("1.1", q.parameters, q.order2, "counts")
    with pytest.raises(ValueError):
        CheckSpec("1.1", {"bogus": 1}, q.order2, q.kind)


def test_front_doors():
    assert check_single_series(1, order2=41).status == "pass"
    assert check_double_series("3.3", order2=41).status == "pass"
    assert check_reduction("3.7", order2=61).status == "pass"
    assert check_hierarchy(2, order2=61).status == "pass"
    assert check_theorems("thm3", n_max=20).status == "pass"
    assert check_theorems("lemma2", n_max=16).status == "pass"
    with pytest.raises(ValueError):
        check_single_series(2)
    with pytest.raises(ValueError):
        check_double_series("3.7")
