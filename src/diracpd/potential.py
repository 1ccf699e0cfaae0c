"""Effective potentials of the reduced scalar equation on the q-grid.

Two reductions are supported:

* exact (energy-dependent): with zeta_2 = E + u the scalar equation is

      -phi'' + [ v^2 ( 3/4 (z2'/z2)^2 - 1/2 z2''/z2
                       - 1/2 (v'/v)(z2'/z2) ) + u^2 ] phi = E^2 phi

* approximate (energy-independent, valid for strictly positive mass):

      V_eff = 3/16 (u' v / u)^2 - 1/4 (v^2 u'' + v v' u') / u + u^2

Everything is written in terms of u = m v_F^2 and the velocity alone,
which preserves exact cancellations (constant-u models give V = A^2
identically, massless models give exactly zero) and avoids overflow from
intermediate m * v^4 products. The approximate V of several grids comes
from one pass over their nodes, bit for bit each grid's own values; a grid
beside its refinement is read from the refined grid's odd nodes.

The approximate V is W + r^2 S, with W its first two terms (unchanged when
u is scaled) and S = u^2: r = 1 for a solve, and in a scan over the parameter
u is proportional to, r = u / u of the reference member whose W and S it holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ApproximationInvalidError,
    InvalidParameterError,
    SingularNodeError,
    ZetaCrossingError,
)
from .profiles import ModelSpec, filled, product_u
from .transform import TransformMap

EXACT = "exact"
APPROXIMATE = "approximate"
CONSTANT_U = "constant_u"
_PASS_BLOCK = 8192  # nodes per block of a pass: each 64 KiB temporary stays in cache


@dataclass(frozen=True)
class QGrid:
    """Uniform grid of interior nodes between two Dirichlet walls.

    Nodes at lo + i*h, i=1..n, with h=(hi-lo)/(n+1): the walls themselves
    carry the boundary zeros. Every solve, box, table and probe takes it.
    """

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise InvalidParameterError("grid needs hi > lo")
        if self.n < 3:
            raise InvalidParameterError("grid needs at least 3 nodes")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 1.0) * self.h

    def refined(self) -> "QGrid":
        """Same walls, half the spacing (for Richardson refinement)."""
        return QGrid(self.lo, self.hi, 2 * self.n + 1)


@dataclass(frozen=True)
class PotentialField:
    """Potential samples on a q-grid, tagged by reduction mode.

    ``evaluator`` rebuilds the values on another grid between the same
    walls, which is what eigenvalue refinement needs. Flagged (singular)
    nodes are those whose value is not finite, NaN by convention.

    The evaluator is attached to what it returns by ``_sampled``, not from
    inside it: a closure that passed itself would reference itself, and that
    cycle would keep its model and map, inverse cache included, alive until
    the cyclic garbage collector runs.
    """

    grid: QGrid
    values: np.ndarray
    mode: str
    energy: Optional[float] = None
    constant_a: Optional[float] = None
    evaluator: Optional[Callable[[QGrid], "PotentialField"]] = None

    @property
    def singular(self) -> np.ndarray:
        return ~np.isfinite(self.values)

    def on_grid(self, grid: QGrid) -> "PotentialField":
        if self.evaluator is None:
            raise InvalidParameterError("potential field carries no evaluator")
        return _sampled(self.evaluator, grid)

    @classmethod
    def from_function(cls, func: Callable[[np.ndarray], np.ndarray],
                      grid: QGrid, mode: str = APPROXIMATE) -> "PotentialField":
        """Sample a plain V(q) callable (used for bare test potentials)."""

        def build(g: QGrid) -> "PotentialField":
            vals = np.asarray(func(g.nodes), dtype=float)
            vals = np.broadcast_to(vals, g.nodes.shape).copy()
            return cls(g, vals, mode)

        return _sampled(build, grid)


def _sampled(build: Callable[[QGrid], PotentialField], grid: QGrid) -> PotentialField:
    """``build(grid)`` carrying ``build`` as its evaluator."""
    return replace(build(grid), evaluator=build)


def square_finite(u, name: str) -> None:
    """Raise SingularNodeError when some |u| tops sqrt(max float), so that
    u^2, and E^2 with it, overflows: a cause no grid mends. NaN passes."""
    top = float(np.abs(u).max())
    if top > np.sqrt(np.finfo(float).max):
        raise SingularNodeError(f"{name} = m v_F^2 reaches {top:g}: {name}^2 overflows a "
                                f"float, so no grid resolves the levels")


def _approx_pass(model: ModelSpec, grids: Sequence[QGrid], tmap: TransformMap):
    """{grid: (W, S, max |u|)} over ``grids``: their nodes inverted in one
    call (TransformMap.inverse_grids), W and S = u^2 evaluated over their
    concatenated x in blocks of _PASS_BLOCK nodes (W is not finite where u
    vanishes); a u whose square overflows raises (square_finite). A grid
    whose refined() is evaluated here is neither inverted nor evaluated: h/2
    is exact, so its nodes are the refined grid's odd nodes bit for bit, and
    so are its x (cached on the map), W and S."""
    halves = {g.refined(): g for g in grids if g.refined() in grids}
    halves = {fine: g for fine, g in halves.items() if fine not in halves.values()}
    own = [g for g in grids if g not in halves.values()]
    x_all = np.concatenate(tmap.inverse_grids([g.nodes for g in own],
                                              odd=[i for i, g in enumerate(own) if g in halves]))
    w_all, s_all, a_all = (np.empty(x_all.size) for _ in range(3))
    for b in range(0, x_all.size, _PASS_BLOCK):
        x, block = x_all[b:b + _PASS_BLOCK], slice(b, b + _PASS_BLOCK)
        u, u1, u2 = product_u(model, x)
        square_finite(u, "u")
        v, v1 = filled(model.velocity(x), x), filled(model.velocity.deriv1(x), x)
        with np.errstate(divide="ignore", invalid="ignore"):
            w_all[block] = (3.0 / 16.0) * (u1 * v / u) ** 2 - 0.25 * (v * v * u2 + v * v1 * u1) / u
        np.abs(u, out=a_all[block])
        np.multiply(u, u, out=s_all[block])
    ends = itertools.accumulate(g.n for g in own)
    spans = {g: slice(end - g.n, end) for g, end in zip(own, ends)}
    spans.update((g, slice(spans[fine].start + 1, spans[fine].stop, 2))
                 for fine, g in halves.items())
    return {g: (w_all[at], s_all[at], float(np.max(a_all[at]))) for g, at in spans.items()}


def exact_potential(model: ModelSpec, energy: float, grid: QGrid,
                    tmap: TransformMap) -> PotentialField:
    """Energy-dependent potential from the exact reduction.

    Nodes where |zeta_2| falls below 1e-10 of its scale are flagged
    singular; a sign change of zeta_2 across the grid raises, since the
    component relation divides by it and the caller must restrict E.
    """

    def build(g: QGrid) -> PotentialField:
        x = tmap.inverse_grid(g.nodes)
        u, u1, u2 = product_u(model, x)
        v, v1 = filled(model.velocity(x), x), filled(model.velocity.deriv1(x), x)
        z2 = energy + u
        scale = max(1.0, abs(energy), float(np.max(np.abs(u[np.isfinite(u)]), initial=0.0)))
        eps = 1e-10 * scale
        singular = np.abs(z2) < eps
        if np.any(z2 > eps) and np.any(z2 < -eps):
            raise ZetaCrossingError(
                f"zeta_2 = E + m v_F^2 changes sign on the grid at E={energy:g}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            r = u1 / z2
            vals = 0.75 * (v * r) ** 2 - 0.5 * v * v * u2 / z2 - 0.5 * v * v1 * r + u * u
        vals = np.where(singular | ~np.isfinite(vals), np.nan, vals)
        return PotentialField(g, vals, EXACT, energy=energy)

    return _sampled(build, grid)


def approx_potential(model: ModelSpec, grid: QGrid, tmap: TransformMap,
                     also: Sequence[QGrid] = (), family: Optional[dict] = None,
                     r: float = 1.0) -> PotentialField:
    """Energy-independent potential (non-relativistic reduction), V = W + r^2 S.

    Requires m(x) > 0 strictly inside the domain; a massless model is
    rejected outright (read from ``model.u_sample``, its overflowed samples
    left out), isolated interior zeros are flagged singular, and a u whose
    square overflows raises SingularNodeError (square_finite, on r max |u|).
    W and S of ``grid`` and the grids ``also`` lists are read from ``family``
    (a scan's, keyed by grid) when it holds them all, and the massless
    verdict is then its reference's. Otherwise the massless check and one
    pass over ``model`` (_approx_pass) give them, and they join ``family``:
    ``model`` is the reference with every call on one family, and r = 1
    gives the pass's own V bit for bit. ``on_grid`` hands each grid's V over
    once (a grid beyond these is evaluated on its own): the evaluator keeps
    V, never W or S, and arrays, never fields, so no cycle holds it.
    """
    grids = (grid, *also)
    held = {} if family is None else family
    if not all(g in held for g in grids):
        u_probe = model.u_sample
        finite = np.isfinite(u_probe)
        if not np.any(np.abs(u_probe[finite]) > 0.0):
            raise ApproximationInvalidError(
                "the energy-independent potential requires non-zero mass "
                "(massless models reduce exactly instead)"
            )
        held.update(_approx_pass(model, grids, tmap))
    ready = {g: _member(*held[g], r) for g in grids}

    def build(g: QGrid) -> PotentialField:
        values = ready.pop(g, None)
        if values is None:
            values = _member(*_approx_pass(model, (g,), tmap)[g], r)
        return PotentialField(g, values, APPROXIMATE)

    return _sampled(build, grid)


def _member(w: np.ndarray, s: np.ndarray, top: float, r: float) -> np.ndarray:
    """V = W + r^2 S, NaN where not finite, once square_finite passes r max |u| (``top``)."""
    square_finite(r * top, "u")
    values = w + (r * r) * s
    return np.where(np.isfinite(values), values, np.nan)


def constant_u_potential(constant_a: float, grid: QGrid) -> PotentialField:
    """The constant-u class potential: identically A^2."""
    if constant_a < 0:
        raise InvalidParameterError("constant_a must be >= 0")

    def build(g: QGrid) -> PotentialField:
        vals = np.full(g.n, constant_a * constant_a, dtype=float)
        return PotentialField(g, vals, CONSTANT_U, constant_a=constant_a)

    return _sampled(build, grid)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Node-by-node comparison of the computed potential with a claimed form."""

    q: np.ndarray
    computed: np.ndarray
    claimed: np.ndarray
    residual: np.ndarray
    max_abs: float
    max_rel: float

    def summary(self) -> str:
        return (f"max |dV| = {self.max_abs:.6g}, "
                f"max rel = {self.max_rel:.6g} over {self.q.size} nodes")


def potential_discrepancy_report(model: ModelSpec,
                                 claimed: Callable[[np.ndarray], np.ndarray],
                                 grid: QGrid,
                                 tmap: TransformMap) -> DiscrepancyReport:
    """Compare the computed approximate potential against a closed form.

    ``claimed`` is evaluated on the q nodes. Flagged nodes are excluded
    from the max statistics but kept (as NaN) in the residual array.
    """
    field = approx_potential(model, grid, tmap)
    q = grid.nodes
    claimed_vals = np.broadcast_to(np.asarray(claimed(q), dtype=float), q.shape)
    residual = field.values - claimed_vals
    ok = ~field.singular & np.isfinite(claimed_vals)
    if np.any(ok):
        max_abs = float(np.max(np.abs(residual[ok])))
        denom = np.maximum(np.abs(claimed_vals[ok]), 1e-300)
        max_rel = float(np.max(np.abs(residual[ok]) / denom))
    else:
        max_abs = float("nan")
        max_rel = float("nan")
    return DiscrepancyReport(q=q, computed=field.values,
                             claimed=np.array(claimed_vals, dtype=float),
                             residual=residual, max_abs=max_abs, max_rel=max_rel)
