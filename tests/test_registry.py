"""Catalog behavior: parameter handling, corruption, ordering, front doors."""

import functools
import importlib
import inspect
import re
import runpy
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import schoolbook
from ggq import registry
from ggq.registry import (
    REGISTRY,
    Corruption,
    UnknownCheckError,
    _corrupted,
    _facet_mismatch,
    natural_key,
    registry_ids,
    run_all,
    run_check,
)
from ggq.series import inv_poch_infinite, poch_product

SMALL = {"1.1": {"order2": 41, "counts_max": 16}}


def strip_elapsed(r):
    return r._replace(elapsed_ms=0)


def test_run_check_is_deterministic():
    a = run_check("1.1", **SMALL["1.1"])
    b = run_check("1.1", **SMALL["1.1"])
    assert strip_elapsed(a) == strip_elapsed(b)
    assert a.status == "pass"
    assert a.first_mismatch is None
    assert a.failed_facet is None
    assert a.order2 == 41


def test_reported_parameters_exclude_order():
    r = run_check("1.1", **SMALL["1.1"])
    assert "order2" not in r.parameters
    assert r.parameters["counts_max"] == 16


@pytest.mark.parametrize(
    "check_id,reported",
    [
        ("1.1", {"counts_max": 10}),
        ("3.2", {"counts_max": 10, "triples_max": 10}),
    ],
)
def test_reported_count_bounds_are_the_compared_ones(check_id, reported):
    # a series truncated at order2 21 shows counts to n = 10 only; the
    # quick tier asks for more, and the report says what was compared
    r = run_check(check_id, order2=21)
    assert r.status == "pass"
    assert {k: r.parameters[k] for k in reported} == reported


def test_corruption_series_facet():
    r = run_check("1.1", corrupt=Corruption(key=(4, 0, 0)), **SMALL["1.1"])
    assert r.status == "fail"
    assert r.first_mismatch is not None
    assert "e2=4" in r.first_mismatch
    assert r.failed_facet == "sum-vs-product"


def test_corruption_counts_facet():
    r = run_check("thm1", corrupt=Corruption(key=3, delta=-1), n_max=14)
    assert r.status == "fail"
    assert "n=3" in r.first_mismatch
    assert r.failed_facet == "gap-side-vs-distinct-side i=1"


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


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="level must be quick or full"):
        run_check("1.1", level="fulll")


# order2 3 is the least run_check accepts; every id that takes an order2
# still compares what that order shows, and passes
@pytest.mark.parametrize("order2", [3, 4])
@pytest.mark.parametrize("check_id", [c for c in registry_ids() if "order2" in REGISTRY[c].quick])
def test_every_id_passes_at_the_least_orders(check_id, order2):
    assert run_check(check_id, order2=order2).status == "pass"


def test_check_without_facets_rejected():
    with pytest.raises(ValueError, match="no facets"):
        run_check("4.15", k_list=[])


def test_counts_facet_without_entries_rejected():
    # an empty grid leaves a "stabilizes" facet of zero entries, which
    # would pass without comparing anything
    with pytest.raises(ValueError, match="stabilizes compares no counts"):
        run_check("4.18", b_list=[])


def _yielding(monkeypatch, *facets):
    # a row "9.9" whose builder yields the given facets one at a time
    def build():
        yield from facets

    monkeypatch.setitem(REGISTRY, "9.9", registry._Entry(build, {}, {}))


def test_empty_counts_facet_after_a_mismatch_rejected(monkeypatch):
    # the runner keeps building past a mismatch, so a later empty facet
    # is still a usage error and not a failure
    _yielding(monkeypatch, registry.Facet("off", [1], [2]), registry.Facet("empty", [], []))
    with pytest.raises(ValueError, match="empty compares no counts"):
        run_check("9.9")


def test_corruption_changes_only_the_first_yielded_facet(monkeypatch):
    corrupted = []

    def recorded(f, c):
        corrupted.append(f.label)
        return _corrupted(f, c)

    monkeypatch.setattr(registry, "_corrupted", recorded)
    _yielding(monkeypatch, registry.Facet("first", [1, 2], [1, 2]),
              registry.Facet("second", [3], [3]))
    r = run_check("9.9", corrupt=Corruption())
    assert (r.status, r.failed_facet, r.first_mismatch) == ("fail", "first", "n=0,expected=1,got=2")
    assert corrupted == ["first"]
    assert run_check("9.9").status == "pass"


@pytest.mark.parametrize("check_id", registry_ids())
def test_every_builder_yields_its_facets(check_id):
    # the runner takes each facet as it is built, so no builder returns a list
    entry = REGISTRY[check_id]
    built = entry.builder(**entry.quick)
    assert iter(built) is built


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


def test_run_all_of_no_ids_is_a_usage_error():
    # no report would pass nothing
    with pytest.raises(ValueError, match="no check ids"):
        run_all(ids=[])


def test_run_all_parallel_matches_serial():
    ids = ["1.1", "thm1", "lemma1"]
    serial = [strip_elapsed(r) for r in run_all(ids=ids)]
    par = [strip_elapsed(r) for r in run_all(ids=ids, parallelism=2)]
    assert serial == par


# facets each id builds at its quick parameters, and the label of its
# primary facet, the one a Corruption perturbs; a refactor that drops or
# adds a facet, or reorders them, shows here
QUICK_FACETS = {
    "1.1": (2, "sum-vs-product"),
    "1.2": (2, "sum-vs-product"),
    "1.3": (2, "sum-vs-product"),
    "1.4": (2, "sum-vs-product"),
    "2.7": (5, "forward-roundtrip-failures"),
    "3.2": (4, "sum-vs-product"),
    "3.3": (1, "sum-vs-product"),
    "3.4": (2, "sum-vs-product"),
    "3.5": (1, "sum-vs-product"),
    "3.7": (4, "double-vs-single"),
    "3.8": (1, "sum-vs-product"),
    "3.10": (3, "double-vs-single"),
    "4.3": (6, "stepped-relation n=0"),
    "4.5": (39, "alpha k=1 n=0"),
    "4.6": (7, "defining-relation n=0"),
    "4.7": (21, "finite-identity n=0 k=1"),
    "4.9": (1, "stabilizes"),
    "4.10": (1, "stabilizes"),
    "4.11": (4, "z=1"),
    "4.12": (24, "sum-vs-product k=1"),
    "4.13": (3, "sum-vs-pair-product"),
    "4.14": (4, "sum-vs-product"),
    "4.15": (126, "doubly-bounded k=1 l=1 m=0"),
    "4.17": (1, "stabilizes"),
    "4.18": (1, "stabilizes"),
    "4.20": (30, "singly-bounded k=1 l=1"),
    "thm1": (2, "gap-side-vs-distinct-side i=1"),
    "thm2": (2, "gap-side-vs-residue-side i=1"),
    "thm3": (1, "weighted-vs-distinct"),
    "thm4": (1, "weighted-vs-distinct"),
    "thm5": (2, "gap-vs-residue"),
    "lemma1": (1, "pairs-vs-weighted"),
    "lemma2": (2, "triples-vs-pairs"),
}


def test_every_facet_matches_and_fails_under_corruption():
    assert set(QUICK_FACETS) == set(REGISTRY)
    for level, total in (("quick", 308), ("full", 455)):
        built = {}
        for check_id, entry in REGISTRY.items():
            facets = list(entry.builder(**getattr(entry, level)))
            built[check_id] = (len(facets), facets[0].label)
            for f in facets:
                # two zero series compare no coefficient at all
                if f.kind == "series":
                    assert f.got.terms or f.expected.terms, (level, check_id, f.label)
                assert _facet_mismatch(f) is None, (level, check_id, f.label)
                broken = _corrupted(f, Corruption())
                assert _facet_mismatch(broken) is not None, (level, check_id, f.label)
        if level == "quick":
            assert built == QUICK_FACETS
        assert sum(n for n, _ in built.values()) == total, level


def test_facet_digest_script_covers_both_tiers(capsys):
    script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "facet_digest.py"))
    assert script["main"]() == 0
    count, digest = capsys.readouterr().out.splitlines()
    assert count == "763 facets (308 quick + 455 full)"
    assert re.fullmatch("sha256 [0-9a-f]{64}", digest)
    # every facet's label, orientation and value; a change that alters a
    # facet on purpose updates this pin and says why
    assert digest == "sha256 056a8daa1d8bdbfa1660aca374566cef3ceed6af24db37be698f104e5f6ce92f"


# the ggq functions each quick-tier row calls through registry's module
# names; a row that captured a function object when the catalog was built
# (a bare collapse_zw or count_p where a lambda belongs) calls it past any
# rebinding of those names, and so out of the benchmark's span trace
ROW_CALLS = {
    "1.1": {"_ratio_sum", "count_q", "poch_product", "q_coefficients"},
    "1.2": {"_divided", "_ratio_sum", "count_q", "monomial", "one", "poch_product",
            "q_coefficients"},
    "1.3": {"_ratio_sum", "count_residue_family", "inv_poch_infinite", "q_coefficients"},
    "1.4": {"_ratio_sum", "count_residue_family", "inv_poch_infinite", "q_coefficients"},
    "2.7": {"_invert", "_listed_to", "_routes", "ferrers_split", "identify", "split_pairs",
            "triple_partitions", "weighted_count"},
    "3.2": {"_sum_of_products", "count_q", "inv_poch_finite", "monomial", "poch_finite",
            "poch_product", "q_coefficients", "triple_partitions"},
    "3.3": {"_sum_of_products", "inv_poch_finite", "monomial", "poch_finite", "poch_product"},
    "3.4": {"_sum_of_products", "collapse_zw", "count_q", "inv_poch_finite", "monomial",
            "poch_finite", "poch_product", "q_coefficients"},
    "3.5": {"_sum_of_products", "inv_poch_finite", "monomial", "poch_finite", "poch_product"},
    "3.7": {"_ratio_sum", "_sum_of_products", "collapse_zw", "inv_poch_finite", "monomial",
            "poch_product", "zw_slice"},
    "3.8": {"_sum_of_products", "inv_poch_finite", "monomial", "poch_finite", "poch_product"},
    "3.10": {"_divided", "_ratio_sum", "_sum_of_products", "collapse_zw", "inv_poch_finite",
             "monomial", "one", "poch_product"},
    "4.3": {"defining_sum", "seed_E4", "step"},
    "4.5": {"iterate_closed", "seed_E4", "step"},
    "4.6": {"defining_sum", "seed_E4"},
    "4.7": {"lhs_4_7", "rhs_4_7"},
    "4.9": {"limit_4_9"},
    "4.10": {"limit_4_10"},
    "4.11": {"jacobi_sides"},
    "4.12": {"_dilate", "_sum_of_products", "count_q", "count_residue_family", "interp_config",
             "inv_poch_infinite", "lhs_4_7", "monomial", "poch_infinite", "poch_product",
             "q_coefficients"},
    "4.13": {"_dilate", "_sum_of_products", "count_q", "lhs_4_7", "monomial", "poch_product",
             "q_coefficients"},
    "4.14": {"_ratio_sum", "count_p", "inv_poch_infinite", "poch_product", "q_coefficients"},
    "4.15": {"sides_4_15"},
    "4.17": {"limit_4_17"},
    "4.18": {"limit_4_18"},
    "4.20": {"sides_4_20"},
    "thm1": {"count_q", "count_thm1_side"},
    "thm2": {"count_gg", "count_residue_family"},
    "thm3": {"count_q", "weighted_count"},
    "thm4": {"count_q", "weighted_count"},
    "thm5": {"_ratio_sum", "count_g", "count_p", "q_coefficients"},
    "lemma1": {"split_pairs", "weighted_count"},
    "lemma2": {"count_q", "split_pairs", "triple_partitions"},
}


def test_rows_call_layer_functions_through_registry_names(monkeypatch):
    # each function registry imports from a layer module is rebound to a
    # recorder, as perfbench/tracer.py rebinds it (classes are left alone:
    # rebinding TruncSeries would break isinstance)
    layers = {f"ggq.{m}" for m in ("bailey", "bijection", "partitions", "series", "trinomials")}
    seen = set()

    def recording(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            seen.add(name)
            return fn(*args, **kwargs)

        return recorded

    for name, value in list(vars(registry).items()):
        if callable(value) and not inspect.isclass(value) and value.__module__ in layers:
            monkeypatch.setattr(registry, name, recording(name, value))
    called = {}
    for check_id, entry in REGISTRY.items():
        seen.clear()
        list(entry.builder(**entry.quick))
        called[check_id] = set(seen)
    assert called == ROW_CALLS


def test_product_divides_by_the_factors_over():
    q1, q2 = registry.Q1F, registry.Q2F
    assert registry._product(q1, q2, over=[q1])(41) == poch_product([q2], order2=41)
    assert registry._product(over=[q2])(41) == inv_poch_infinite(q2, order2=41)


def _facets_2_7(sigma_max):
    return {f.label: f.got for f in REGISTRY["2.7"].builder(sigma_max=sigma_max)}


def test_2_7_facet_labels():
    assert list(_facets_2_7(12)) == [
        "forward-roundtrip-failures",
        "image-vs-split-pairs",
        "split-image-vs-triples",
        "choice-count-vs-weight",
        "worked-example-split",
    ]


def test_2_7_fails_when_the_map_ignores_the_choice(monkeypatch):
    # f loses one-to-one: the round trip and the image multiset both show it
    routes = registry._routes

    def ignoring(pi, marks):
        pairs = dict(routes(pi, marks))
        return [(choice, pairs[(False,) * len(choice)]) for choice in pairs]

    monkeypatch.setattr(registry, "_routes", ignoring)
    r = run_check("2.7", sigma_max=12)
    assert r.status == "fail"
    assert r.failed_facet == "forward-roundtrip-failures"
    facets = _facets_2_7(12)
    assert sum(facets["forward-roundtrip-failures"]) > 0
    assert sum(facets["image-vs-split-pairs"]) > 0


def test_2_7_fails_when_the_map_merges_the_piles(monkeypatch):
    # the merged piles are images no split pair matches: 2.7 reports a
    # failed facet, not an error
    routes = registry._routes

    def merged(pi, marks):
        return [(c, (tuple(sorted(pi1 + pi2)), ())) for c, (pi1, pi2) in routes(pi, marks)]

    monkeypatch.setattr(registry, "_routes", merged)
    r = run_check("2.7", sigma_max=12)
    assert r.status == "fail"
    assert r.failed_facet == "forward-roundtrip-failures"
    facets = _facets_2_7(12)
    assert sum(facets["image-vs-split-pairs"]) > 0
    assert sum(facets["split-image-vs-triples"]) > 0


def test_2_7_fails_when_a_split_pair_is_missing(monkeypatch):
    split_pairs = registry.split_pairs
    monkeypatch.setattr(
        registry, "split_pairs", lambda n: split_pairs(n)[1:] if n == 9 else split_pairs(n)
    )
    r = run_check("2.7", sigma_max=12)
    assert r.status == "fail"
    assert r.failed_facet == "image-vs-split-pairs"
    assert "n=9" in r.first_mismatch


def test_2_7_fails_when_the_split_moves_a_part(monkeypatch):
    # the split keeps the size and keeps pi3 distinct multiples of 4, but
    # moves 4 from the least to the largest part of pi3 once it has three
    # parts and the least is at least 8; it first changes a pi2 at n = 36
    ferrers_split = registry.ferrers_split

    def moved(pi2):
        pi3, pi4 = ferrers_split(pi2)
        if len(pi3) >= 3 and pi3[0] >= 8:
            pi3 = (pi3[0] - 4, *pi3[1:-1], pi3[-1] + 4)
        return pi3, pi4

    monkeypatch.setattr(registry, "ferrers_split", moved)
    r = run_check("2.7", sigma_max=36)
    assert r.status == "fail"
    assert r.failed_facet == "split-image-vs-triples"
    assert r.first_mismatch == "n=36,expected=0,got=2"


def test_2_7_inverse_raising_is_a_failure(monkeypatch):
    def invert(pair):
        raise ValueError("not invertible")

    monkeypatch.setattr(registry, "_invert", invert)
    r = run_check("2.7", sigma_max=12)
    assert r.status == "fail"
    assert r.failed_facet == "forward-roundtrip-failures"


@pytest.mark.parametrize(
    "module", ["bailey", "bijection", "partitions", "registry", "series", "trinomials"]
)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"ggq.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# every (lin, num, den2, z_mark, w_mark) the catalog sums over: 3.2, then
# 3.3, 3.4, 3.5 and 3.8, then the double-vs-single chains 3.7 and 3.10;
# _double_sum tracks z^n1 exactly when num carries z, the oracle is told
# z_mark
_F = registry.F
DOUBLE_SUMS = [
    ((0, 2), registry.MQ_Q2, registry.Q4F, False, False),
    ((0, 2), _F(-1, 2, 4, 1), registry.Q4F, True, True),
    ((0, 0), _F(-1, 2, 4, 1), registry.Q4F, True, True),
    ((1, 1), _F(-1, 4, 4, 1), registry.Q4F, True, True),
    ((1, -1), _F(-1, 4, 4, 1), registry.Q4F, True, True),
    ((1, 1), None, registry.Q2F, False, True),
    ((1, -1), None, registry.Q2F, False, True),
]


def test_double_sums_cover_the_catalog(monkeypatch):
    seen = set()
    double_sum = registry._double_sum

    def recorded(order2, *args):
        seen.add(args)
        return double_sum(order2, *args)

    monkeypatch.setattr(registry, "_double_sum", recorded)
    for entry in REGISTRY.values():
        list(entry.builder(**entry.quick))
    assert seen == {(lin, num, den2, w_mark) for lin, num, den2, _, w_mark in DOUBLE_SUMS}


@pytest.mark.parametrize("args", DOUBLE_SUMS)
@settings(max_examples=12, deadline=None)
@given(st.integers(5, 81))
def test_row_sums_match_the_grid_point_sum(args, order2):
    # the rows pull the factors of n2 out of the n1 sum; the oracle does not
    lin, num, den2, _, w_mark = args
    assert registry._double_sum(order2, lin, num, den2, w_mark) == schoolbook.double_sum(
        order2, *args
    )


# every (exp2, num, den) the catalog passes to _ratio_sum: 1.1, 1.3, 1.4,
# the walk of the pair sums of 1.2 and 3.10, 3.7's marked single sum and
# degree-0 slice, and 4.14 and thm5
SINGLE_SUMS = [
    (lambda n: 2 * n * n + 2 * n, registry.MQ_Q2, [registry.Q2F]),
    (lambda n: 2 * n * n, registry.MQ_Q2, [registry.Q2F]),
    (lambda n: 2 * n * n + 4 * n, registry.MQ_Q2, [registry.Q2F]),
    (lambda n: 2 * n * n + 6 * n + 2, registry.MQ_Q2, [_F(1, 8, 4)]),
    (lambda n: 2 * n * n + 6 * n + 2, _F(-1, 2, 4, 0, 1), [_F(1, 8, 4)]),
    (lambda n: 2 * n * n + 2 * n, _F(-1, 2, 4, 0, 1), [registry.Q2F]),
    (lambda n: 2 * n * n + 2 * n, None, [registry.Q2F]),
    (lambda n: 2 * n * n + 4 * n, registry.MQ_Q2, [registry.Q4F]),
]


def _shape(exp2, num, den):
    # exp2 is a lambda; its first values stand for it
    return tuple(map(exp2, range(4))), num, tuple(den)


def test_single_sums_cover_the_catalog(monkeypatch):
    seen = set()
    ratio_sum = registry._ratio_sum

    def recorded(order2, exp2, num, den):
        seen.add(_shape(exp2, num, den))
        return ratio_sum(order2, exp2, num, den)

    monkeypatch.setattr(registry, "_ratio_sum", recorded)
    for entry in REGISTRY.values():
        list(entry.builder(**entry.quick))
    assert seen == {_shape(*args) for args in SINGLE_SUMS}


@pytest.mark.parametrize("args", SINGLE_SUMS)
@settings(max_examples=12, deadline=None)
@given(st.integers(3, 301))
@example(3)
@example(5)
@example(11)
def test_ratio_walk_matches_the_term_by_term_sum(args, order2):
    # at order2 3 only n = 0 is visible, at 5 only n = 0 and 1 of most shapes
    assert registry._ratio_sum(order2, *args) == schoolbook.single_sum(order2, *args)


@pytest.mark.parametrize("marked", [False, True])
@settings(max_examples=12, deadline=None)
@given(st.integers(3, 301))
@example(3)
@example(11)
def test_pair_sums_match_the_term_by_term_sum(marked, order2):
    assert registry._single_pair_sum(order2, marked) == schoolbook.single_pair_sum(order2, marked)


@pytest.mark.parametrize("exp2", [lambda n: 8 - 2 * n, lambda n: (0, 8, 4, 60)[min(n, 3)]])
def test_a_decreasing_exponent_raises(exp2):
    with pytest.raises(ValueError, match="exp2 decreases"):
        registry._ratio_sum(41, exp2, registry.MQ_Q2, [registry.Q2F])
