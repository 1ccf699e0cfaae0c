"""Outside-in layer tracing for diracpd.

``install`` replaces each public function of the package with a timing
wrapper at every ``diracpd.*`` module attribute that binds it (``cli``
imports ``solve_fixed``, ``build_transform`` and the others by name, so
wrapping only the defining module would miss those calls). It also wraps
``eigh_tridiagonal`` as bound in ``diracpd.eigensolver`` and the methods
``TransformMap.inverse_grid``, ``TransformMap.inverse`` and
``PotentialField.on_grid``. No file of the package changes.

Each call is a span on one stack; a span's self time is its duration minus
the time covered by its child spans. A call into the layer that is already
on top of the stack (``spectrum_value`` calling ``spectrum_entry``) folds
into the open span. ``inverse_grid`` spans are split into cold and warm by
the first sight of each (map, grid) pair.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List


class Tracer:
    def __init__(self):
        self._stack: List[list] = []
        self.spans: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])  # calls, self_ns, total_ns
        self.counts: Dict[str, int] = defaultdict(int)
        self._seen_grids: Dict[int, set] = {}

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}

    def wrap(self, layer, fn: Callable) -> Callable:
        """Time ``fn`` as ``layer`` (a name, or a function of the call's args)."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                entry = spans[name]
                entry[0] += 1
                entry[1] += dt - frame[1]
                entry[2] += dt

        return traced

    # -- layer-specific hooks --------------------------------------------

    def _grid_layer(self, tmap, q, *args, **kwargs) -> str:
        key = (float(q[0]), float(q[-1]), len(q)) if len(q) else ()
        seen = self._seen_grids.get(id(tmap))
        if seen is None:
            seen = self._seen_grids[id(tmap)] = set()
            weakref.finalize(tmap, self._seen_grids.pop, id(tmap), None)
        if key in seen:
            return "transform.inverse_grid.warm"
        seen.add(key)
        self.counts["transform.inverse_grid.cold_nodes"] += len(q)
        return "transform.inverse_grid.cold"

    def _count_rows(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(d, *args, **kwargs):
            self.counts["eigensolver.tridiag.rows"] += len(d)
            return fn(d, *args, **kwargs)
        return counted

    def _count_iterations(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts["eigensolver.sc.iterations"] += max(len(getattr(exc, "history", ())) - 1, 0)
                raise
            self.counts["eigensolver.sc.iterations"] += len(result[2]) - 1
            return result
        return counted

    def _count_doublings(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(builder, *args, **kwargs):
            boxes = [0]

            def counting_builder(L):
                boxes[0] += 1
                return builder(L)

            try:
                return fn(counting_builder, *args, **kwargs)
            finally:
                self.counts["eigensolver.expand.doublings"] += max(boxes[0] - 1, 0)
        return counted


# (module, attribute, layer) for every public function traced.
_FUNCTIONS = (
    ("diracpd.cli", "main", "cli"),
    ("diracpd.eigensolver", "solve_fixed", "eigensolver.solve_fixed"),
    ("diracpd.eigensolver", "solve_self_consistent", "eigensolver.sc"),
    ("diracpd.eigensolver", "expand_until_settled", "eigensolver.expand"),
    ("diracpd.transform", "build_transform", "transform.build_transform"),
    ("diracpd.potential", "exact_potential", "potential.build"),
    ("diracpd.potential", "approx_potential", "potential.build"),
    ("diracpd.potential", "constant_u_potential", "potential.build"),
    ("diracpd.profiles", "builtin_model", "profiles.builtin_model"),
    ("diracpd.spinor", "reconstruct", "spinor.reconstruct"),
    ("diracpd.spinor", "normalize", "spinor.normalize"),
    ("diracpd.spinor", "observables", "spinor.observables"),
    ("diracpd.spinor", "bic_family", "spinor.bic_family"),
    ("diracpd.analytic", "spectrum_entry", "analytic.spectrum"),
    ("diracpd.analytic", "spectrum_value", "analytic.spectrum"),
)


def _rebind(original, replacement) -> int:
    """Point every diracpd.* attribute bound to ``original`` at ``replacement``."""
    sites = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "diracpd" or name.startswith("diracpd.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites += 1
    return sites


def install() -> Tracer:
    """Wrap the package's public layers; returns the tracer that collects spans."""
    import importlib

    import diracpd.cli  # noqa: F401  (loads every module that binds a layer)
    from diracpd.potential import PotentialField
    from diracpd.transform import TransformMap

    tracer = Tracer()
    for module_name, attr, layer in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = tracer.wrap(layer, original)
        if layer == "eigensolver.sc":
            wrapped = tracer._count_iterations(wrapped)
        elif layer == "eigensolver.expand":
            wrapped = tracer._count_doublings(wrapped)
        if _rebind(original, wrapped) == 0:
            raise RuntimeError(f"{module_name}.{attr} is bound nowhere")

    eig = sys.modules["diracpd.eigensolver"]
    eig.eigh_tridiagonal = tracer._count_rows(
        tracer.wrap("eigensolver.tridiag", eig.eigh_tridiagonal))
    TransformMap.inverse_grid = tracer.wrap(tracer._grid_layer, TransformMap.inverse_grid)
    TransformMap.inverse = tracer.wrap("transform.inverse", TransformMap.inverse)
    PotentialField.on_grid = tracer.wrap("potential.on_grid", PotentialField.on_grid)
    return tracer
