"""Per-layer timing of fprw from outside the package.

LayerTracer.install replaces every module attribute of fprw that binds one of
fprw's own functions with a timing wrapper.  A function bound under several
names (`invert_w` in both `factors` and `product`, `green` in both `lattice`
and `phase`) gets one wrapper, installed on every binding, so calls between
modules are counted whichever name they use.  Spans are folded into per
function totals as they close: calls, self time (span minus the wrapped
calls inside it) and the time of outermost calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from time import perf_counter


def _layer_name(fn) -> str:
    return f"{fn.__module__.removeprefix('fprw.')}.{fn.__name__}"


def _is_fprw_function(obj) -> bool:
    if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", "").startswith("fprw")


class LayerTracer:
    """Aggregated spans of one process; create, install, run, then read `stats`."""

    def __init__(self):
        self.stats = {}  # layer -> [calls, self_s, outermost inclusive s]
        self.active = {}  # layer -> open spans of that layer
        self.green_in_inversion = 0
        self.distinct_factor_specs = set()
        self.coefficients = 0
        self.grid_points = 0
        self.walk_steps = 0
        self._children = []  # per open span: time spent in wrapped calls
        self._wrapped = {}

    def install(self) -> None:
        """Wrap every fprw function binding in every loaded fprw module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fprw" or n.startswith("fprw.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if not _is_fprw_function(obj):
                    continue
                wrapper = self._wrapped.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrap(obj)
                    self._wrapped[id(obj)] = wrapper
                setattr(module, name, wrapper)

    def _wrap(self, fn):
        layer = _layer_name(fn)
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        self.active[layer] = 0
        active = self.active
        children = self._children
        on_entry = self._entry_hook(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_entry is not None:
                on_entry(args, kwargs)
            children.append(0.0)
            active[layer] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                active[layer] -= 1
                stat[0] += 1
                stat[1] += dt - inner
                if active[layer] == 0:
                    stat[2] += dt
                if children:
                    children[-1] += dt

        return wrapper

    def _entry_hook(self, layer, fn):
        """Work counters read from the arguments of a few layers."""
        if layer == "lattice.green":
            def hook(args, kwargs):
                if self.active.get("factors.invert_w", 0):
                    self.green_in_inversion += 1
            return hook
        if layer == "factors.analyze_factor":
            return lambda args, kwargs: self.distinct_factor_specs.add(args[0])
        if layer not in ("product.product_green_series", "phase.sweep", "mc.simulate"):
            return None
        signature = inspect.signature(fn)

        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if layer == "product.product_green_series":
                self.coefficients += a["order"] + 1
            elif layer == "phase.sweep":
                self.grid_points += a["grid_size"]
            else:
                self.walk_steps += a["steps"] * a["walks"]

        return hook

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, from this process."""
        def calls(layer):
            return self.stats.get(layer, [0, 0.0, 0.0])[0]

        def self_s(layer):
            return self.stats.get(layer, [0, 0.0, 0.0])[1]

        def outer_s(layer):
            return self.stats.get(layer, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in (
            "lattice.green",
            "lattice._ive",
            "factors.invert_w",
            "factors.analyze_factor",
            "product.product_radius",
            "series.series_compose",
            "series.series_mul",
            "series.series_reciprocal",
            "series._trunc_mul",
            "mc.word_multiply",
            "mc.word_erase_cost",
        ):
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.self_s"] = self_s(layer)
        for layer in (
            "phase.sweep",
            "classify.classify_multi",
            "lattice.return_series",
            "product.product_green_series",
            "mc.bfs_convolution",
            "mc.simulate",
        ):
            out[f"{layer}.self_s"] = self_s(layer)
        out["factors.green_calls_per_inversion"] = ratio(
            self.green_in_inversion, calls("factors.invert_w")
        )
        out["factors.analyze_factor.distinct_ratio"] = ratio(
            len(self.distinct_factor_specs), calls("factors.analyze_factor")
        )
        out["phase.sweep.points_per_s"] = ratio(self.grid_points, outer_s("phase.sweep"))
        out["product.product_green_series.coeffs_per_s"] = ratio(
            self.coefficients, outer_s("product.product_green_series")
        )
        out["mc.simulate.walk_steps_per_s"] = ratio(self.walk_steps, outer_s("mc.simulate"))
        out["cli.self_s"] = sum(s[1] for layer, s in self.stats.items() if layer.startswith("cli."))
        return out
