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
intermediate m * v^4 products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ApproximationInvalidError,
    InvalidParameterError,
    ZetaCrossingError,
)
from .profiles import ModelSpec, interior_sample, product_u
from .transform import TransformMap

EXACT = "exact"
APPROXIMATE = "approximate"
CONSTANT_U = "constant_u"


@dataclass(frozen=True)
class QGrid:
    """Uniform grid of interior nodes between two Dirichlet walls.

    ``offset=False``: nodes at lo + i*h, i=1..n, with h=(hi-lo)/(n+1); the
    walls themselves carry the boundary zeros. ``offset=True``: nodes at
    lo + (i+1/2)*h, h=(hi-lo)/n, keeping half a step away from walls with
    singular potentials.
    """

    lo: float
    hi: float
    n: int
    offset: bool = False

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise InvalidParameterError("grid needs hi > lo")
        if self.n < 3:
            raise InvalidParameterError("grid needs at least 3 nodes")

    @property
    def h(self) -> float:
        width = self.hi - self.lo
        return width / self.n if self.offset else width / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        h = self.h
        if self.offset:
            return self.lo + (np.arange(self.n) + 0.5) * h
        return self.lo + (np.arange(self.n) + 1.0) * h

    def refined(self) -> "QGrid":
        """Same walls, half the spacing (for Richardson refinement)."""
        n = 2 * self.n if self.offset else 2 * self.n + 1
        return QGrid(self.lo, self.hi, n, self.offset)


@dataclass(frozen=True)
class PotentialField:
    """Potential samples on a q-grid, tagged by reduction mode.

    ``evaluator`` rebuilds the values on another grid between the same
    walls, which is what eigenvalue refinement needs. Values at flagged
    (singular) nodes are NaN by convention.
    """

    grid: QGrid
    values: np.ndarray
    mode: str
    singular: np.ndarray
    energy: Optional[float] = None
    constant_a: Optional[float] = None
    evaluator: Optional[Callable[[QGrid], "PotentialField"]] = None

    def on_grid(self, grid: QGrid) -> "PotentialField":
        if self.evaluator is None:
            raise InvalidParameterError("potential field carries no evaluator")
        return self.evaluator(grid)

    @classmethod
    def from_function(cls, func: Callable[[np.ndarray], np.ndarray],
                      grid: QGrid, mode: str = APPROXIMATE) -> "PotentialField":
        """Sample a plain V(q) callable (used for bare test potentials)."""

        def build(g: QGrid) -> "PotentialField":
            vals = np.asarray(func(g.nodes), dtype=float)
            vals = np.broadcast_to(vals, g.nodes.shape).copy()
            return cls(g, vals, mode, ~np.isfinite(vals), evaluator=build)

        return build(grid)


def _fields_on_grid(model: ModelSpec, grid: QGrid, tmap: TransformMap):
    x = tmap.inverse_grid(grid.nodes)
    u, u1, u2 = product_u(model, x)
    v = np.asarray(model.velocity(x), dtype=float)
    v1 = np.asarray(model.velocity.deriv1(x), dtype=float)
    v = np.broadcast_to(v, x.shape).copy()
    v1 = np.broadcast_to(v1, x.shape).copy()
    return x, u, u1, u2, v, v1


def exact_potential(model: ModelSpec, energy: float, grid: QGrid,
                    tmap: TransformMap) -> PotentialField:
    """Energy-dependent potential from the exact reduction.

    Nodes where |zeta_2| falls below 1e-10 of its scale are flagged
    singular; a sign change of zeta_2 across the grid raises, since the
    component relation divides by it and the caller must restrict E.
    """

    def build(g: QGrid) -> PotentialField:
        _, u, u1, u2, v, v1 = _fields_on_grid(model, g, tmap)
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
        vals = np.where(singular, np.nan, vals)
        singular = singular | ~np.isfinite(vals)
        vals = np.where(singular, np.nan, vals)
        return PotentialField(g, vals, EXACT, singular, energy=energy,
                              evaluator=build)

    return build(grid)


def approx_potential(model: ModelSpec, grid: QGrid,
                     tmap: TransformMap) -> PotentialField:
    """Energy-independent potential (non-relativistic reduction).

    Requires m(x) > 0 strictly inside the domain; a massless model is
    rejected outright, isolated interior zeros are flagged singular.
    """
    with np.errstate(all="ignore"):  # a product that overflows is left out below
        u_probe, _, _ = product_u(model, interior_sample(model.domain))
    finite = np.isfinite(u_probe)
    if not np.any(np.abs(u_probe[finite]) > 0.0):
        raise ApproximationInvalidError(
            "the energy-independent potential requires non-zero mass "
            "(massless models reduce exactly instead)"
        )

    def build(g: QGrid) -> PotentialField:
        _, u, u1, u2, v, v1 = _fields_on_grid(model, g, tmap)
        singular = ~(np.abs(u) > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (3.0 / 16.0) * (u1 * v / u) ** 2 \
                - 0.25 * (v * v * u2 + v * v1 * u1) / u + u * u
        vals = np.where(singular, np.nan, vals)
        singular = singular | ~np.isfinite(vals)
        vals = np.where(singular, np.nan, vals)
        return PotentialField(g, vals, APPROXIMATE, singular, evaluator=build)

    return build(grid)


def constant_u_potential(constant_a: float, grid: QGrid) -> PotentialField:
    """The constant-u class potential: identically A^2."""
    if constant_a < 0:
        raise InvalidParameterError("constant_a must be >= 0")

    def build(g: QGrid) -> PotentialField:
        vals = np.full(g.n, constant_a * constant_a, dtype=float)
        return PotentialField(g, vals, CONSTANT_U, np.zeros(g.n, dtype=bool),
                              constant_a=constant_a, evaluator=build)

    return build(grid)


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
