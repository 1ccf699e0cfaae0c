"""Spinor reconstruction and observables.

A scalar eigenfunction phi(q) lifts back to the two components through

    psi_1 = sqrt(zeta_2) phi(q(x)) / sqrt(v_F)
    psi_2 = psi2_tilde / sqrt(v_F),   psi2_tilde = -(i / zeta_2) d/dq [sqrt(zeta_2) phi]

(the q-derivative replaces d/dx = (1/v_F) d/dq analytically, so no error is
amplified where v_F grows). A lattice pair holds both components and lifts
with no zeta_2: psi_1 = phi_1 / sqrt(v_F), psi_2 = -i chi / sqrt(v_F), chi
averaged onto the nodes. Both keep psi_1 purely real and psi_2 purely
imaginary, which makes the probability current vanish to machine precision
for every bound state, as it must.

Probability integrals run in q with the measure dx = v_F dq: for the models
whose q-range is finite this turns infinite x-tails into short end caps
next to the walls, closed with a first-order Taylor correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DomainError,
    InvalidParameterError,
    NonNormalizableError,
    SingularNodeError,
    SubGapError,
    ZetaCrossingError,
)
from .eigensolver import EigenPair
from .potential import QGrid
from .profiles import ModelSpec, detect_constant_u, product_u
from .transform import TransformMap, build_transform


@dataclass(frozen=True)
class SpinorField:
    """Two-component state on an x-grid (plus its q-image when known)."""

    x: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    energy: float
    norm_constant: float
    q: Optional[np.ndarray] = None
    vf: Optional[np.ndarray] = None
    q_bounds: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class ObservableSet:
    rho: np.ndarray
    current: np.ndarray
    total_prob: float


def _total_probability(spinor: SpinorField) -> float:
    """integral of rho dx; in q with end-cap closure when the map is known."""
    rho = np.abs(spinor.psi1) ** 2 + np.abs(spinor.psi2) ** 2
    if spinor.q is None or spinor.vf is None:
        return float(np.trapezoid(rho, spinor.x))
    integrand = rho * spinor.vf
    total = float(np.trapezoid(integrand, spinor.q))
    if spinor.q_bounds is not None:
        q = spinor.q
        lo, hi = spinor.q_bounds
        if math.isfinite(lo) and q[0] > lo and q.size >= 2:
            w = q[0] - lo
            slope = (integrand[1] - integrand[0]) / (q[1] - q[0])
            total += w * integrand[0] - 0.5 * w * w * slope
        if math.isfinite(hi) and q[-1] < hi and q.size >= 2:
            w = hi - q[-1]
            slope = (integrand[-1] - integrand[-2]) / (q[-1] - q[-2])
            total += w * integrand[-1] + 0.5 * w * w * slope
    return total


def reconstruct(pair: EigenPair, model: ModelSpec, tmap: TransformMap,
                energy: float) -> SpinorField:
    """Lift an eigenpair to the two-component state at energy E.

    The global phase makes psi_1 real and positive at its largest sample.
    The result is unnormalized; feed it to :func:`normalize`.
    """
    if pair.phi is None:
        raise InvalidParameterError(
            "the pair has no eigenvector to lift; solve with vectors=True")
    q = pair.grid.nodes
    x = tmap.inverse_grid(q)
    v = np.broadcast_to(np.asarray(model.velocity(x), dtype=float), x.shape)
    if pair.chi is not None:
        psi1 = pair.phi / np.sqrt(v)
        psi2 = -0.5j * (pair.chi[:-1] + pair.chi[1:]) / np.sqrt(v)
    else:
        u, u1, _ = product_u(model, x)
        z2 = energy + u
        if np.any(z2 <= 0):
            raise ZetaCrossingError(
                f"zeta_2 <= 0 on the grid at E={energy:g}; reconstruction divides by it"
            )
        phi = pair.phi
        dphi = np.gradient(phi, pair.grid.h, edge_order=2)
        sq_z2 = np.sqrt(z2)
        psi1 = sq_z2 * phi / np.sqrt(v)
        # d/dq [sqrt(z2) phi] with dz2/dq = u'(x) v(x)
        dpsi_t1 = (u1 * v) / (2.0 * sq_z2) * phi + sq_z2 * dphi
        psi2 = -1j * dpsi_t1 / (z2 * np.sqrt(v))
    if not (np.all(np.isfinite(psi1)) and np.all(np.isfinite(psi2))):
        raise SingularNodeError("non-finite spinor value at a grid node")
    i = int(np.argmax(np.abs(psi1)))
    if psi1[i].real < 0:
        psi1, psi2 = -psi1, -psi2
    return SpinorField(x=x, psi1=psi1.astype(complex), psi2=psi2, energy=energy,
                       norm_constant=1.0, q=q, vf=np.array(v),
                       q_bounds=(pair.grid.lo, pair.grid.hi))


def observables(spinor: SpinorField, model: ModelSpec) -> ObservableSet:
    """Density rho, current j = v_F (psi1* psi2 + c.c.), and total probability."""
    rho = (np.abs(spinor.psi1) ** 2 + np.abs(spinor.psi2) ** 2).real
    v = spinor.vf
    if v is None:
        v = np.broadcast_to(np.asarray(model.velocity(spinor.x), dtype=float),
                            spinor.x.shape)
    current = (v * (np.conj(spinor.psi1) * spinor.psi2
                    + spinor.psi1 * np.conj(spinor.psi2))).real
    return ObservableSet(rho=rho, current=current,
                         total_prob=_total_probability(spinor))


def normalize(spinor: SpinorField) -> SpinorField:
    """Scale so the total probability is one; records the factor applied."""
    total = _total_probability(spinor)
    if not math.isfinite(total) or total <= 0:
        raise NonNormalizableError(
            f"total probability {total!r} is not normalizable"
        )
    factor = 1.0 / math.sqrt(total)
    return replace(spinor, psi1=spinor.psi1 * factor, psi2=spinor.psi2 * factor,
                   norm_constant=factor)


def dirac_residual(spinor: SpinorField, model: ModelSpec, energy: float,
                   trim: int = 2) -> float:
    """L2 residual of the coupled first-order system, relative to the state norm.

    r1 = -i F (F psi2)' - zeta_1 psi1,  r2 = -i F (F psi1)' - zeta_2 psi2,
    with F = sqrt(v_F) and x-derivatives by central differences. The residual
    is defined through central stencils, so the ``trim`` outermost nodes per
    side are excluded from the norms: the array ends only admit one-sided
    differences, which for wall-singular states carry O(1) relative error
    that reflects the stencil, not the state.
    """
    x = spinor.x
    u, _, _ = product_u(model, x)
    v = np.broadcast_to(np.asarray(model.velocity(x), dtype=float), x.shape)
    f = np.sqrt(v)
    z1 = energy - u
    z2 = energy + u
    d1 = np.gradient(f * spinor.psi1, x, edge_order=2)
    d2 = np.gradient(f * spinor.psi2, x, edge_order=2)
    r1 = -1j * f * d2 - z1 * spinor.psi1
    r2 = -1j * f * d1 - z2 * spinor.psi2
    sl = slice(trim, -trim) if trim > 0 else slice(None)
    num = np.trapezoid((np.abs(r1) ** 2 + np.abs(r2) ** 2).real[sl], x[sl])
    den = np.trapezoid(
        (np.abs(spinor.psi1) ** 2 + np.abs(spinor.psi2) ** 2).real[sl], x[sl])
    if den <= 0:
        raise NonNormalizableError("zero-norm state has no meaningful residual")
    return float(math.sqrt(num / den))


def bic_family(model: ModelSpec, energy: float, tmap: Optional[TransformMap] = None,
               n_nodes: int = 20001) -> SpinorField:
    """The continuum-family state of a constant-u model at arbitrary energy.

    phi(q) = sin(lam q) with lam = sqrt(E^2 - A^2) and no boundary
    quantization: normalizable with identically zero current even though E
    is not an eigenvalue. Requires a finite E with E^2 >= A^2 (above the gap),
    and a map onto a finite q-range, whose walls bound the QGrid of
    ``n_nodes`` nodes it is sampled on.
    """
    if not math.isfinite(energy):
        raise InvalidParameterError(f"energy must be finite, got {energy!r}")
    a_const = detect_constant_u(model)
    if a_const is None:
        raise InvalidParameterError(
            f"model {model.name!r} is not in the constant-u class"
        )
    if energy * energy < a_const * a_const:
        raise SubGapError(
            f"E^2 = {energy * energy:g} < A^2 = {a_const * a_const:g}"
        )
    lam = math.sqrt(energy * energy - a_const * a_const)
    if tmap is None:
        tmap = build_transform(model.velocity, model.anchor)
    if not (math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi)):
        raise DomainError(f"the bic family needs a finite q-range; {model.name} maps "
                          f"onto q-range ({tmap.q_lo:g}, {tmap.q_hi:g})")
    grid = QGrid(tmap.q_lo, tmap.q_hi, n_nodes)
    q = grid.nodes
    x = tmap.inverse_grid(q)
    v = np.broadcast_to(np.asarray(model.velocity(x), dtype=float), x.shape)
    z1 = energy - a_const
    z2 = energy + a_const
    # on the negative branch both zetas flip sign and so does the i in psi2
    sign = 1.0 if energy >= 0 else -1.0
    psi1 = np.sqrt(sign * z2 / v) * np.sin(lam * q) + 0j
    psi2 = -1j * sign * np.sqrt(sign * z1 / v) * np.cos(lam * q)
    spinor = SpinorField(x=x, psi1=psi1, psi2=psi2, energy=energy,
                         norm_constant=1.0, q=q, vf=np.array(v),
                         q_bounds=(grid.lo, grid.hi))
    if _total_probability(spinor) > 0:
        return normalize(spinor)
    return spinor
