"""Self-time arithmetic and instrumentation of the benchmark's tracer.

Run from the repository root: python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer, instrument, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_children_but_not_grandchildren():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # children [1, 3] and [2, 5] overlap on [2, 3]; [8, 12] runs past the
    # parent's end, so only [8, 10] is covered
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 3.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_self_time_rejects_spans_out_of_start_order():
    with pytest.raises(ValueError):
        self_times([0.0, 2.0, 1.0], [5.0, 3.0, 4.0], [-1, 0, 0])


def test_tracer_spans_and_self_time_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap(leaf, "layer.leaf")

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    tracer.wrap(outer, "layer.outer")()
    # outer starts at 0, leaves occupy [1, 2] and [3, 4], outer ends at 5
    assert list(tracer.start) == [0.0, 1.0, 3.0]
    assert list(tracer.end) == [5.0, 2.0, 4.0]
    assert list(tracer.parent) == [-1, 0, 0]
    assert self_times(tracer.start, tracer.end, tracer.parent) == [3.0, 1.0, 1.0]


def test_instrument_reaches_names_bound_by_importing_layers():
    from ggq import registry, series

    original = registry.poch_product
    tracer = Tracer()
    patch = instrument(tracer)
    try:
        # registry imported poch_product with "from .series import ...",
        # so its own binding has to be the traced one
        assert registry.poch_product is series.poch_product
        assert registry.poch_product is not original
        registry.run_check("4.14", order2=41, counts_max=5)
    finally:
        patch.restore()
    assert registry.poch_product is original
    metrics = layer_metrics(tracer, patch)
    assert metrics["registry.run_check.calls"] == 1
    assert metrics["series.poch.calls"] > 0
    assert metrics["series.mul.calls"] > 0
    assert metrics["series.init.calls"] > 0
    assert metrics["series.self_s"] > 0
