"""Span tracer for the traced benchmark run.

The tracer wraps public sstwalk functions from outside the package: every
module attribute (and class attribute) bound to a wrapped function is replaced
while tracing is enabled and restored when it is disabled, so the package
source is never edited and untraced code executes the original objects.

Each wrapped call records a span (name, start, end, parent).  A layer's self
time is its spans' durations minus the time covered by their direct children,
so the self times of all layers plus the unattributed remainder add up to the
traced wall time.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.maxima: dict[str, float] = {}
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, orig, wrapper

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {span[0]}")
        return span[2] - span[1]

    def record_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def reset(self):
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()
        self.maxima.clear()

    # -- patching -------------------------------------------------------------

    def wrap(self, fn, name: str | None, after=None):
        """A wrapper recording a span ``name`` (None: counters only) and
        calling ``after(tracer, args, kwargs, result)`` outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.end(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def patch_function(self, package: str, module, attr: str, wrapper_factory):
        """Register a wrapper for ``module.attr`` in every loaded module of
        ``package`` that binds the same object (``from x import f`` copies
        included); ``enable`` puts it in place."""
        original = getattr(module, attr)
        wrapper = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapper))

    def patch_attr(self, owner, attr: str, wrapper_factory):
        """Register a wrapper for a class attribute (method or property)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original, wrapper_factory(original)))

    def enable(self):
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)


def dump_spans(path, *phases: list[list]):
    """Write span lists (one per phase) as JSON lines of name, start, end,
    parent; parent indices are shifted to the concatenated numbering."""
    offset = 0
    with open(path, "w") as fh:
        for spans in phases:
            for name, start, end, parent in spans:
                fh.write(json.dumps([name, start, end,
                                     parent + offset if parent >= 0 else -1]) + "\n")
            offset += len(spans)


# -- sstwalk layers -----------------------------------------------------------

SPAN_LAYERS = {
    # span name: (sstwalk module, public functions timed under that name)
    "graphs.build": ("graphs", ["build_graph", "build_family", "parse_graph",
                                "complete_bipartite_k2m", "circulant_2m",
                                "double_cone_cycles", "generalized_path"]),
    "coins.assign": ("coins", ["grover_coin", "reflection_about", "parse_coins"]),
    "reduction.basis": ("reduction", ["induced_coin_basis"]),
    "reduction.chebyshev": ("reduction", ["exact_transfer_check", "chebyshev_apply"]),
    "exact.psi": ("exact", ["psi"]),
    "exact.charpoly": ("exact", ["charpoly"]),
    "exact.gcd": ("exact", ["poly_gcd"]),
    "exact.factor": ("exact", ["factor_irreducible"]),
    "cospec.split": ("cospec", ["strong_cospectral_exact"]),
    "families.sweep": ("families", ["fidelity_series"]),
}

STAGES = ("transfer", "not-cospectral", "not-periodic", "odd-tau",
          "support-split-fails")

# per-pass self times reported under "<span>_s"
TIMED_SPANS = ("graphs.build", "coins.assign", "reduction.basis",
               "reduction.build_H", "reduction.chebyshev", "reduction.h_numeric",
               "exact.psi", "exact.charpoly", "exact.gcd", "exact.factor",
               "decider.sharp", "decider.cyclo_scan", "cospec.split",
               "families.sweep")

COUNTERS = ("coins.coin_validations", "reduction.clones", "reduction.nnz",
            "exact.psi_calls", "exact.charpoly_calls", "exact.bareiss_dets",
            "exact.factor_calls", "decider.orders_scanned")


def _count(key):
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += 1
    return after


def _after_build_h(tracer, args, kwargs, result):
    """Clone count, nonzeros of the symmetric carrier, and the bit length of
    the common denominator of H_rat = sym * diag(delta_sq)^-1 (over nonzeros)."""
    from math import lcm

    tracer.counts["reduction.clones"] += result.size
    nnz = 0
    den = 1
    inv = [1 / d for d in result.delta_sq]
    for row in result.sym:
        for j, x in enumerate(row):
            if x:
                nnz += 1
                den = lcm(den, (x * inv[j]).denominator)
    tracer.counts["reduction.nnz"] += nnz
    tracer.record_max("reduction.den_bits", den.bit_length())


def _after_decide(tracer, args, kwargs, result):
    tracer.counts["decider.stage." + (result.reason or "transfer")] += 1


def install(tracer: Tracer, sst) -> None:
    """Register wrappers for the public sstwalk layer functions named by
    SPAN_LAYERS plus the counter-only hooks (``sst`` is the imported
    package); ``tracer.enable()`` and ``tracer.disable()`` switch them."""
    import numpy as np

    pkg = sst.__name__
    for span, (mod_name, names) in SPAN_LAYERS.items():
        module = getattr(sst, mod_name)
        after = {"exact.psi": _count("exact.psi_calls"),
                 "exact.charpoly": _count("exact.charpoly_calls"),
                 "exact.factor": _count("exact.factor_calls")}.get(span)
        for name in names:
            tracer.patch_function(pkg, module, name,
                                  lambda fn, s=span, a=after: tracer.wrap(fn, s, a))

    tracer.patch_function(pkg, sst.reduction, "build_H",
                          lambda fn: tracer.wrap(fn, "reduction.build_H", _after_build_h))
    tracer.patch_function(pkg, sst.decider, "decide_transfer",
                          lambda fn: tracer.wrap(fn, None, _after_decide))
    tracer.patch_function(pkg, sst.linalg, "bareiss_det",
                          lambda fn: tracer.wrap(fn, None, _count("exact.bareiss_dets")))

    def after_sharp(tr, args, kwargs, result):
        tr.record_max("decider.support_degree", args[0].degree)

    tracer.patch_function(pkg, sst.decider, "sharp",
                          lambda fn: tracer.wrap(fn, "decider.sharp", after_sharp))

    def after_scan(tr, args, kwargs, result):
        p = args[0]
        bound = args[1] if len(args) > 1 else kwargs.get("m_bound")
        if bound is None and not p.is_zero():
            bound = sst.decider.default_order_bound(p.degree)
        tr.counts["decider.orders_scanned"] += bound or 0

    tracer.patch_function(pkg, sst.decider, "factor_into_cyclotomics",
                          lambda fn: tracer.wrap(fn, "decider.cyclo_scan", after_scan))

    coins = sst.coins
    tracer.patch_attr(coins.CoinAssignment, "__init__",
                      lambda fn: tracer.wrap(fn, "coins.assign"))
    tracer.patch_attr(coins.ReflectionCoin, "__post_init__",
                      lambda fn: tracer.wrap(fn, None, _count("coins.coin_validations")))
    tracer.patch_attr(sst.reduction.HermitianReduction, "h_numeric",
                      lambda fn: tracer.wrap(fn, "reduction.h_numeric"))

    setup_of = weakref.WeakKeyDictionary()  # assignment -> walk_apply(x, 0) seconds

    def walk_factory(fn):
        @functools.wraps(fn)
        def traced(assignment, state, t):
            setup = None
            if t > 0:
                setup = setup_of.get(assignment)
                if setup is None:
                    # the per-call set-up depends on the assignment only, so
                    # it is probed once per assignment
                    probe = tracer.begin("trace.probe")
                    fn(assignment, state, 0)
                    setup = setup_of[assignment] = tracer.end(probe)
                    tracer.samples["walk.setup_s"].append(setup)
            idx = tracer.begin("walk.apply")
            try:
                out = fn(assignment, state, t)
            finally:
                dur = tracer.end(idx)
            if setup is not None:
                tracer.samples["walk.step_s"].append((dur - setup) / t)
                drift = abs(np.linalg.norm(out) - np.linalg.norm(state))
                tracer.record_max("walk.norm_drift", float(drift))
            return out
        return traced

    tracer.patch_function(pkg, sst.walk, "walk_apply", walk_factory)
