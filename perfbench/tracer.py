"""Span tracing of calls into the anclab layers, done from outside `src/`.

Each layer is a module of `anclab`; its public entry points are wrapped by
replacing every binding of the function object in every loaded `anclab.*`
module, because `from .coding import propagate_coefficients` copies the
reference into the importing module.  A name that no longer exists is
reported with a warning and its layer shows zero calls, so the tracer keeps
working across refactors that delete or move functions.

Spans (name, start, end, parent span, job id) are kept in flat arrays while
the run lasts and turned into per-layer totals at the end:

* calls: every call of a wrapped function of the layer;
* busy:  time with at least one span of the layer on the stack, so nested
         calls inside the layer (check_feasible -> max_safe_gain ->
         received_power) count once;
* self:  time during which the innermost span on the stack belongs to the
         layer, i.e. busy time minus the child spans of other layers.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from array import array

import numpy as np

# Layer (module of anclab) -> wrapped public functions.  `gains` has none of
# its own: its entry points are constructors whose time stays with the caller.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "network": ("build_network", "network_from_dict", "load_network"),
    "presets": ("replicate_last_relay_layer", "rescale_to_delta"),
    "schemes": ("full_power_gains", "matched_gains", "downstream_gains"),
    "power": (
        "received_power", "max_safe_gain", "regime_delta", "node_delta",
        "check_feasible", "exact_transmit_power",
    ),
    "coding": ("propagate_coefficients",),
    "bounds": (
        "destination_snr", "bounds_report", "rate_upper_bound", "rate_lower_bound",
        "lower_bound_terms", "mac_cutset", "high_snr_lower_bound", "rank_one_cutset",
    ),
    "optimize": ("optimize_gains",),
    "montecarlo": ("simulate", "analytic_moments", "agreement_check"),
}


def _anclab_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "anclab" or name.startswith("anclab."))
    ]


class Tracer:
    """Wraps the layer functions on `install()` and records one span per call."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
        self.layers = list(layers)
        self.span_names: list[str] = []
        self._layer_of_name: list[int] = []
        self.missing: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self.job = -1
        self._current = -1
        self._name = array("i")
        self._parent = array("q")
        self._job = array("q")
        self._start = array("d")
        self._end = array("d")

        modules = _anclab_modules()
        for layer_index, (layer, names) in enumerate(layers.items()):
            home = sys.modules.get(f"anclab.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.missing.append(f"anclab.{layer}.{name}")
                    warnings.warn(
                        f"anclab.{layer}.{name} not found; layer {layer!r} "
                        "reports no calls through it",
                        stacklevel=2,
                    )
                    continue
                wrapper = self._wrap(fn, len(self.span_names))
                self.span_names.append(f"{layer}.{name}")
                self._layer_of_name.append(layer_index)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._bindings.append((mod, attr, fn, wrapper))

    def _wrap(self, fn, name_id: int):
        names, parents, jobs = self._name, self._parent, self._job
        starts, ends = self._start, self._end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current
            index = len(names)
            names.append(name_id)
            parents.append(parent)
            jobs.append(tracer.job)
            ends.append(0.0)
            tracer._current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer._current = parent

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    @property
    def span_count(self) -> int:
        return len(self._name)

    def _arrays(self):
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        start = np.array(self._start, dtype=np.float64)
        end = np.array(self._end, dtype=np.float64)
        return name, parent, start, end

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy seconds and self seconds over all spans."""
        name, parent, start, end = self._arrays()
        n_layers = len(self.layers)
        layer = np.array(self._layer_of_name, dtype=np.int64)[name]
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child[: len(dur)]
        # A span is shadowed when an ancestor belongs to the same layer.
        shadowed = np.zeros(len(dur), dtype=bool)
        ancestor = parent.copy()
        live = ancestor >= 0
        while live.any():
            shadowed[live] |= layer[ancestor[live]] == layer[live]
            ancestor[live] = parent[ancestor[live]]
            live = ancestor >= 0
        calls = np.bincount(layer, minlength=n_layers)
        busy = np.bincount(layer[~shadowed], weights=dur[~shadowed], minlength=n_layers)
        self_time = np.bincount(layer, weights=own, minlength=n_layers)
        return {
            layer_name: {
                "calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_time[i])
            }
            for i, layer_name in enumerate(self.layers)
        }

    def save(self, path) -> None:
        """Write every span as arrays to an .npz file."""
        name, parent, start, end = self._arrays()
        np.savez(
            path,
            name=name,
            parent=parent,
            job=np.array(self._job, dtype=np.int64),
            start=start,
            end=end,
            span_names=np.array(self.span_names),
            layers=np.array(self.layers),
            layer_of_name=np.array(self._layer_of_name, dtype=np.int64),
        )
