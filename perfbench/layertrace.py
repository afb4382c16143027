"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper, by
setting the module or class attribute; the package's own calls look the
name up at call time, so they go through the wrapper too.  Each call
records one span: layer, start, end, parent span and an optional size
(the length of a result or an argument).  Spans stay in arrays in memory
until the run ends; ``layer_metrics`` then derives counts and self times,
where a span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


def _result_len(args, kwargs, result):
    return len(result)


def _grid_len(args, kwargs, result):
    return len(args[0] if args else kwargs["alpha_grid"])


#: every traced public function, as "<module>.<attribute path>"
LAYERS = (
    "cli.main",
    "certificates.to_json_dict",
    "octonion.multiply",
    "operators.SelfAdjointOperator.spectrum",
    "cayley_plane.jacobi_operator",
    "cayley_plane.sectional_curvature",
    "grassmannian.curvature_g2",
    "grassmannian.jacobi_operator_g2",
    "grassmannian.hopf_eigenvectors",
    "tube_flow.enumerate_focal_configurations",
    "tube_flow.admissible_focal_configurations",
    "tube_flow.verify_configuration_by_evolution",
    "tube_flow.theorem2_certificate",
    "tube_flow.theorem3_sweep",
    "tube_flow.evolve",
    "isoparametric.profiles_equivalent",
    "isoparametric.extract_poles",
    "isoparametric.default_window",
    "isoparametric.profile",
    "isoparametric.power_sum_cascade",
    "isoparametric.newton_recover",
)

#: where a layer's function lives, when its name leaves out the class
_TARGETS = {"certificates.to_json_dict": "certificates.Certificate.to_json_dict"}

#: layers whose spans also record a size
_SIZES = {
    "tube_flow.enumerate_focal_configurations": _result_len,
    "tube_flow.admissible_focal_configurations": _result_len,
    "tube_flow.theorem3_sweep": _grid_len,
}


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.size = array("q")
        self._stack = [-1]
        self._restore = []

    def _wrap(self, layer_id: int, fn, size_of):
        start, end, layer, parent, size = self.start, self.end, self.layer, self.parent, self.size
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            size.append(-1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size_of is not None:
                size[idx] = size_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer_id, layer in enumerate(LAYERS):
            module, *path, name = _TARGETS.get(layer, layer).split(".")
            owner = importlib.import_module(f"curvadapt.{module}")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[name]
            self._restore.append((owner, name, fn))
            setattr(owner, name, self._wrap(layer_id, fn, _SIZES.get(layer)))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, fn = self._restore.pop()
            setattr(owner, name, fn)

    def spans(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }


def concat_spans(parts: list) -> dict:
    """Join span sets from several processes, re-basing parent indices."""
    out = {key: [] for key in ("start", "end", "layer", "parent", "size")}
    offset = 0
    for part in parts:
        for key in out:
            value = part[key]
            if key == "parent":
                value = np.where(value >= 0, value + offset, -1)
            out[key].append(value)
        offset += len(part["layer"])
    return {key: np.concatenate(values) for key, values in out.items()}


#: what a ratio reads when the workload never reaches its denominator
NOT_REACHED = -1.0


def _ratio(numerator, denominator) -> float:
    return float(numerator / denominator) if denominator else NOT_REACHED


def layer_metrics(spans: dict, passes: int) -> dict:
    """Per-pass calls and self seconds of every layer, plus the ratios.

    Every layer is reported on every workload, as the benchmark's metric
    list is one list for all workloads: a layer that a workload does not
    reach has 0 calls and 0 s.  A ratio whose denominator is 0 is not a
    measurement and reads ``NOT_REACHED``, which no real ratio or time can.
    """
    layer, parent, size = spans["layer"], spans["parent"], spans["size"]
    duration = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(layer))
    self_time = duration - child_time
    calls = np.bincount(layer, minlength=len(LAYERS))
    self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
    out = {}
    for i, name in enumerate(LAYERS):
        out[f"{name}.calls"] = (calls[i] / passes, "count")
        out[f"{name}.self_s"] = (float(self_s[i]) / passes, "s")

    is_layer = {name: layer == i for i, name in enumerate(LAYERS)}
    admissible = is_layer["tube_flow.admissible_focal_configurations"]
    filtered = is_layer["tube_flow.enumerate_focal_configurations"]
    filtered &= np.isin(parent, np.flatnonzero(admissible))
    enumerated = int(size[filtered].sum())
    survivors = int(size[admissible].sum())
    out["tube_flow.search.survivor_ratio"] = (_ratio(survivors, enumerated), "ratio")

    sweep = is_layer["tube_flow.theorem3_sweep"]
    angles = int(size[sweep].sum())
    out["tube_flow.theorem3_sweep.angles"] = (angles / passes, "count")
    out["tube_flow.theorem3_sweep.s_per_angle"] = (_ratio(duration[sweep].sum(), angles), "s")

    compare = np.flatnonzero(is_layer["isoparametric.profiles_equivalent"])
    grid_parents = np.unique(parent[is_layer["isoparametric.profile"]])
    reached = np.isin(compare, grid_parents).sum()
    out["isoparametric.grid_reached_ratio"] = (_ratio(reached, len(compare)), "ratio")
    return out
