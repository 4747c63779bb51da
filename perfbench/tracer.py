"""Span tracer for the traced benchmark pass.

The tracer lives outside the package.  ``instrument`` wraps every public
function of each ggq module, plus the ``TruncSeries`` arithmetic methods,
and rebinds every module-level name that refers to one of them: modules
bind imported names with ``from .series import ...``, so a wrapper on the
defining module alone would leave the importing layers untraced.

Each call records one span: name, start, end and the span that was open
when it began.  Spans are kept in compact arrays and written at the end of
the pass.  A span's self time is its duration minus the part of it that
its child spans cover.  Layer metrics sum self time over the spans of a
layer (the ggq module the function is defined in).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("series", "partitions", "bijection", "trinomials", "bailey", "registry", "cli")

_GROUP_MEMBERS = {
    "series.mul": ["TruncSeries.__mul__"],
    "series.add": ["TruncSeries.__add__"],
    "series.reciprocal": ["reciprocal"],
    "series.poch": [
        "poch_finite", "poch_infinite", "poch_product", "inv_poch_finite", "inv_poch_infinite",
    ],
    "series.diff": ["series_diff"],
    "partitions.enumerate": ["enumerate_partitions", "enumerate_members"],
    "partitions.count": [
        "count_q", "count_thm1_side", "count_thm2_sides", "count_gg", "count_g",
        "count_residue_family", "count_p", "weighted_count",
    ],
    "partitions.weight": ["membership_and_weight"],
    "bijection.enumerate": ["split_pairs", "triple_partitions"],
    "bijection.roundtrip": [
        "identify", "redistribute", "redistribute_inverse", "triple_map", "triple_inverse",
        "euler_add", "euler_subtract", "ferrers_split", "ferrers_merge",
    ],
    "trinomials.q_binomial": ["q_binomial"],
    "trinomials.bounded": [
        "identity_4_15", "identity_4_20", "lhs_4_15", "rhs_4_15", "lhs_4_20", "rhs_4_20",
        "t_warnaar", "t_ab", "u_tilde", "u_of", "poly_equal",
    ],
    "trinomials.limit": ["limit_4_9", "limit_4_10", "limit_4_17", "limit_4_18", "stabilized"],
    "bailey.seed": ["seed_E4"],
    "bailey.step": ["step", "iterate_closed"],
    "bailey.finite": ["finite_identity_4_7", "lhs_4_7", "rhs_4_7"],
    "registry.run_check": ["run_check"],
    "cli.main": ["main"],
    "cli.emit": ["emit_json", "emit_csv", "emit_text"],
}
# span name ("<layer>.<function>") -> metric group
GROUPS = {
    f"{group.split('.')[0]}.{member}": group
    for group, members in _GROUP_MEMBERS.items()
    for member in members
}

# cached functions whose cache_info() gives a layer's hit ratio
CACHES = {
    "series.inv_poch": ("series", ["inv_poch_finite", "inv_poch_infinite"]),
    "partitions.count": (
        "partitions",
        ["count_q", "count_thm1_side", "count_gg", "count_g", "count_residue_family",
         "count_p", "weighted_count"],
    ),
    "trinomials.q_binomial": ("trinomials", ["q_binomial"]),
}

_LRU_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))


class Tracer:
    """In-memory spans: name id, start, end and parent index (-1 at top)."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording one span per call; ``observe(counts, args,
        kwargs, result, missed)`` runs after the span closes, where
        ``missed`` says whether a cached ``fn`` computed the result."""
        nid = len(self.names)
        self.names.append(name)
        clock, stack, counts = self.clock, self._stack, self.counts
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            misses = cache_info().misses if observe and cache_info else 0
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe:
                missed = cache_info is None or cache_info().misses > misses
                observe(counts, args, kwargs, result, missed)
            return result

        return traced

    def counter(self, fn, key: str):
        """``fn`` counting its calls under ``key`` without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        """Spans as gzip text: a header line of names, then one line per
        span: name index, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(" ".join(self.names) + "\n")
            for row in zip(self.span_name, self.start, self.end, self.parent):
                fh.write("%d %.9f %.9f %d\n" % row)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span.  Spans must be listed in order of start, as the
    tracer records them, so each parent sees its children in order."""
    n = len(start)
    covered = [0.0] * n
    frontier = list(start)
    for i in range(n):
        if i and start[i] < start[i - 1]:
            raise ValueError("spans must be listed in order of start")
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


# -- observers: counts taken where the work happens ----------------------


def _observe_mul(counts, args, kwargs, result, missed):
    a, b = args
    if hasattr(b, "terms"):
        counts["series.mul.term_pairs"] += len(a.terms) * len(b.terms)
        if not (a.is_univariate and b.is_univariate):
            counts["series.mul.marked_calls"] += 1


def _observe_diff(counts, args, kwargs, result, missed):
    got, want = args
    counts["series.diff.keys"] += len(got.terms.keys() | want.terms.keys())


def _observe_listed(counts, args, kwargs, result, missed):
    counts["partitions.enumerate.listed"] += len(result)


def _observe_built(counts, args, kwargs, result, missed):
    if missed:
        counts["bijection.enumerate.built"] += len(result)


def _observe_q_binomial(counts, args, kwargs, result, missed):
    if missed:
        step2 = args[2] if len(args) > 2 else kwargs.get("step2", 2)
        counts["trinomials.q_binomial.degree_built"] += max(result.max_e2(), 0) // step2


OBSERVERS = {
    "series.TruncSeries.__mul__": _observe_mul,
    "series.series_diff": _observe_diff,
    "partitions.enumerate_partitions": _observe_listed,
    "bijection.split_pairs": _observe_built,
    "bijection.triple_partitions": _observe_built,
    "trinomials.q_binomial": _observe_q_binomial,
}
COUNT_KEYS = (
    "series.mul.term_pairs",
    "series.mul.marked_calls",
    "series.init.calls",
    "series.diff.keys",
    "partitions.enumerate.listed",
    "bijection.enumerate.built",
    "trinomials.q_binomial.degree_built",
)


class Instrumentation:
    """The rebinding done by ``instrument``; ``restore`` undoes it."""

    def __init__(self):
        self.originals: dict[str, object] = {}  # span name -> unwrapped function
        self._undo: list = []

    def set(self, owner, key, value, *, item=False):
        old = owner[key] if item else getattr(owner, key)
        self._undo.append((owner, key, old, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, old, item in reversed(self._undo):
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, _LRU_TYPE):
            yield name, obj


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the public functions of every ggq layer and rebind every
    module-level reference to them, including values of module-level
    dicts (the CLI's emitter table)."""
    modules = {layer: importlib.import_module(f"ggq.{layer}") for layer in LAYERS}
    patch = Instrumentation()
    wrappers: dict[int, object] = {}
    for layer, module in modules.items():
        for name, fn in list(_public_functions(module)):
            span = f"{layer}.{name}"
            patch.originals[span] = fn
            wrappers[id(fn)] = tracer.wrap(fn, span, OBSERVERS.get(span))

    series_cls = modules["series"].TruncSeries
    for method in ("__mul__", "__add__"):
        span = f"series.TruncSeries.{method}"
        fn = vars(series_cls)[method]
        patch.set(series_cls, method, tracer.wrap(fn, span, OBSERVERS.get(span)))
    patch.set(series_cls, "__init__", tracer.counter(series_cls.__init__, "series.init.calls"))

    owners = [importlib.import_module("ggq"), *modules.values()]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if id(value) in wrappers:
                patch.set(owner, name, wrappers[id(value)])
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        patch.set(value, key, wrappers[id(item)], item=True)
    return patch


def layer_metrics(tracer: Tracer, patch: Instrumentation) -> dict[str, float]:
    """Calls and self time per metric group and per layer, the counts the
    observers took, and hit ratios of the layer caches."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls_by_name: Counter = Counter()
    self_by_name: dict[int, float] = defaultdict(float)
    for nid, s in zip(tracer.span_name, selfs):
        calls_by_name[nid] += 1
        self_by_name[nid] += s

    metrics: dict[str, float] = defaultdict(float)
    for group in _GROUP_MEMBERS:
        metrics[f"{group}.calls"] = 0
        metrics[f"{group}.self_s"] = 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
    for nid, name in enumerate(tracer.names):
        group = GROUPS.get(name, name.split(".")[0] + ".other")
        metrics[f"{group}.calls"] += calls_by_name[nid]
        metrics[f"{group}.self_s"] += self_by_name[nid]
        metrics[name.split(".")[0] + ".self_s"] += self_by_name[nid]
    metrics.update({key: tracer.counts[key] for key in COUNT_KEYS})

    for prefix, (layer, names) in CACHES.items():
        infos = [patch.originals[f"{layer}.{n}"].cache_info() for n in names]
        hits = sum(i.hits for i in infos)
        misses = sum(i.misses for i in infos)
        metrics[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"{prefix}.misses"] = misses
    metrics["trace.spans"] = len(tracer.start)
    return dict(metrics)
