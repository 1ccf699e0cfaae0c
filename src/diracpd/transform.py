"""The monotone coordinate map q(x) = integral of 1/v_F from the anchor.

Since v_F > 0, q is strictly increasing and invertible. The map is built by
adaptive quadrature; the (possibly improper) limits toward the domain
endpoints are classified finite/infinite by watching a doubling (or gap
halving) sequence of truncations converge, which distinguishes tanh-type
saturation from log divergence without symbolic analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
from scipy import integrate, optimize

from .errors import DomainError, InvalidParameterError, QuadratureFailureError
from .profiles import VelocityProfile

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

FINITE = "finite"
INFINITE = "infinite"


def _quad(f, a, b, tol):
    if a == b:
        return 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, epsabs=0.1 * tol, epsrel=1e-12,
                                  limit=200)
    if caught and err > max(tol, 1e-9 * abs(val)):
        raise QuadratureFailureError(
            f"quadrature failed on [{a:g}, {b:g}]: {caught[0].message}",
            partial=val,
        )
    return val


def _gl_panels(f, a, b):
    """Fixed-order Gauss-Legendre of f on the panels [a_i, b_i] (vectorized)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)
    nodes = mid[..., None] + rad[..., None] * _GL_NODES
    vals = f(nodes)
    return rad * (vals @ _GL_WEIGHTS)


@dataclass
class TransformMap:
    """q(x) with its inverse and endpoint classification.

    Immutable after construction apart from the internal inverse cache,
    which is append-only derived data; lookups are pure.
    """

    velocity: VelocityProfile
    x0: float
    quad_tol: float
    q_lo: float
    q_hi: float
    endpoint_kind: Tuple[str, str]
    anchors_x: np.ndarray
    anchors_q: np.ndarray
    _grid_cache: Dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    # -- forward ------------------------------------------------------------

    def _f(self, x):
        return 1.0 / self.velocity(x)

    def forward(self, x):
        """q(x) by adaptive quadrature from the nearest build anchor."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.velocity.domain
        if np.any(x_arr <= lo) or np.any(x_arr >= hi):
            raise DomainError(f"x must lie strictly inside ({lo:g}, {hi:g})")
        out = np.empty_like(x_arr)
        for i, xi in enumerate(x_arr):
            j = int(np.clip(np.searchsorted(self.anchors_x, xi), 1,
                            len(self.anchors_x) - 1))
            if abs(xi - self.anchors_x[j - 1]) <= abs(self.anchors_x[j] - xi):
                j = j - 1
            out[i] = self.anchors_q[j] + _quad(self._f, self.anchors_x[j], xi,
                                               self.quad_tol)
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    # -- inverse ------------------------------------------------------------

    def inverse(self, q: float) -> float:
        """The unique x with forward(x) = q, to |forward(x) - q| <= 1e-12 max(1,|q|)."""
        if not (self.q_lo < q < self.q_hi):
            raise DomainError(f"q={q:g} outside ({self.q_lo:g}, {self.q_hi:g})")
        xa, qa, xb, qb = self._bracket(q)
        if qa == q:
            return xa
        if qb == q:
            return xb

        def g(x):
            return qa + _quad(self._f, xa, x, self.quad_tol) - q

        x = optimize.brentq(g, xa, xb, xtol=1e-14 * (1.0 + abs(xa) + abs(xb)),
                            rtol=8.9e-16, maxiter=200)
        # Newton polish: g' = 1/v_F, exact
        tol = 1e-12 * max(1.0, abs(q))
        for _ in range(6):
            r = g(x)
            if abs(r) <= tol:
                break
            step = -r * float(self.velocity(x))
            x_new = min(max(x + step, xa), xb)
            if x_new == x:
                break
            x = x_new
        return float(x)

    def _bracket(self, q):
        """Anchor pair (xa, qa), (xb, qb) with qa <= q <= qb."""
        aq, ax = self.anchors_q, self.anchors_x
        j = int(np.searchsorted(aq, q))
        if 0 < j < len(aq):
            return ax[j - 1], aq[j - 1], ax[j], aq[j]
        # beyond the stored ladder: creep toward the wall without mutating state
        lo, hi = self.velocity.domain
        if j == 0:
            x_out, q_out = ax[0], aq[0]
            step = ax[1] - ax[0] if len(ax) > 1 else 1.0
            for _ in range(200):
                x_next = x_out - step if math.isinf(lo) else 0.5 * (x_out + lo)
                if not (x_next > lo) or x_next == x_out:
                    break
                q_next = q_out + _quad(self._f, x_out, x_next, self.quad_tol)
                if q_next <= q:
                    return x_next, q_next, x_out, q_out
                x_out, q_out = x_next, q_next
                step *= 2.0
            raise DomainError(f"q={q:g} too close to the lower map limit to invert")
        x_out, q_out = ax[-1], aq[-1]
        step = ax[-1] - ax[-2] if len(ax) > 1 else 1.0
        for _ in range(200):
            x_next = x_out + step if math.isinf(hi) else 0.5 * (x_out + hi)
            if not (x_next < hi) or x_next == x_out:
                break
            q_next = q_out + _quad(self._f, x_out, x_next, self.quad_tol)
            if q_next >= q:
                return x_out, q_out, x_next, q_next
            x_out, q_out = x_next, q_next
            step *= 2.0
        raise DomainError(f"q={q:g} too close to the upper map limit to invert")

    def inverse_grid(self, q: np.ndarray) -> np.ndarray:
        """Vectorized inverse for a sorted array of q values.

        Builds a panel table equidistributed in q (iterated resampling +
        Gauss-Legendre), then runs anchored vector Newton. Results for
        repeated grids are cached on the map.
        """
        q = np.asarray(q, dtype=float)
        if q.size == 0:
            return q.copy()
        key = (q[0], q[-1], q.size)
        hit = self._grid_cache.get(key)
        if hit is not None:
            qs_cached, xs_cached = hit
            if np.array_equal(qs_cached, q):
                return xs_cached.copy()
        if np.any(np.diff(q) < 0):
            raise DomainError("inverse_grid expects q sorted ascending")
        if not (self.q_lo < q[0] and q[-1] < self.q_hi):
            raise DomainError("q grid must lie strictly inside (q_lo, q_hi)")

        xa = self.inverse(q[0])
        xb = self.inverse(q[-1])
        if q[0] == q[-1]:
            return np.full_like(q, xa)
        x = self._equidistributed_solve(q, xa, xb)
        self._grid_cache[key] = (q.copy(), x.copy())
        return x.copy()

    def _equidistributed_solve(self, q, xa, xb):
        vf = self.velocity
        m = max(256, 4 * q.size)
        m = min(m, 200_000)
        grid = np.linspace(xa, xb, m)
        # iterate: integrate, resample panel nodes uniformly in q
        for _ in range(4):
            dq = _gl_panels(lambda t: 1.0 / vf(t), grid[:-1], grid[1:])
            qcum = np.concatenate(([q[0]], q[0] + np.cumsum(dq)))
            target = np.linspace(qcum[0], qcum[-1], m)
            grid_new = np.interp(target, qcum, grid)
            grid_new[0], grid_new[-1] = xa, xb
            if np.allclose(grid_new, grid, rtol=0, atol=1e-12 * (1 + abs(xa) + abs(xb))):
                grid = grid_new
                break
            grid = grid_new
        dq = _gl_panels(lambda t: 1.0 / vf(t), grid[:-1], grid[1:])
        qcum = np.concatenate(([q[0]], q[0] + np.cumsum(dq)))
        # correct the accumulated drift linearly so both ends are exact
        qcum += (q[-1] - qcum[-1]) * (np.arange(m) / (m - 1))

        x = np.interp(q, qcum, grid)
        j = np.clip(np.searchsorted(qcum, q) - 1, 0, m - 1)
        x_anchor = grid[j]
        q_anchor = qcum[j]
        lo = np.minimum(grid[j], grid[np.minimum(j + 1, m - 1)])
        hi = np.maximum(grid[j], grid[np.minimum(j + 1, m - 1)])
        for _ in range(5):
            qx = q_anchor + _gl_panels(lambda t: 1.0 / vf(t), x_anchor, x)
            step = -(qx - q) * vf(x)
            x = np.clip(x + step, lo, hi)
            if np.max(np.abs(qx - q)) <= 1e-13 * max(1.0, np.max(np.abs(q))):
                break
        # spot-check against the honest adaptive-quadrature forward
        idx = np.unique(np.linspace(0, q.size - 1, 7).astype(int))
        res = float(np.max(np.abs(self.forward(x[idx]) - q[idx])))
        tol = 1e-10 * max(1.0, np.max(np.abs(q)))
        if res > tol:
            warnings.warn(
                f"inverse_grid: spot-check residual {res:.3e} > {tol:.3e}; "
                f"falling back to per-point inverse on {q.size} nodes",
                RuntimeWarning, stacklevel=3)
            return np.array([self.inverse(qi) for qi in q])
        return x

    # aliases matching the operation names
    __call__ = forward


def _explore_side(f, x0, endpoint, quad_tol, sign):
    """Walk toward one endpoint, returning (anchors, q_limit, kind).

    Infinite endpoint: doubling steps. Finite endpoint: gap halving. The
    limit is called finite once increments drop below quad_tol; a geometric
    tail extrapolation closes the remainder.
    """
    xs = [x0]
    qs = [0.0]
    kind = INFINITE
    q_limit = math.inf * sign
    step = max(1.0, 0.125 * abs(x0))
    prev_dq = None
    x_cur, q_cur = x0, 0.0
    for k in range(64):
        if math.isinf(endpoint):
            x_next = x0 + sign * step * 2.0 ** k
        else:
            gap = endpoint - x_cur
            x_next = x_cur + 0.5 * gap
            if x_next == x_cur or not (sign * (endpoint - x_next) > 0):
                break
        dq = _quad(f, x_cur, x_next, quad_tol)
        x_cur, q_cur = x_next, q_cur + dq
        xs.append(x_cur)
        qs.append(q_cur)
        if abs(dq) <= quad_tol:
            kind = FINITE
            tail = 0.0
            if prev_dq is not None and abs(prev_dq) > 0:
                r = abs(dq) / abs(prev_dq)
                if r < 0.9:
                    tail = abs(dq) * r / (1.0 - r)
            q_limit = q_cur + sign * tail
            break
        prev_dq = dq
    return xs, qs, q_limit, kind


def build_transform(velocity: VelocityProfile, x0: float,
                    quad_tol: float = 1e-12) -> TransformMap:
    """Build q(x) anchored at q(x0) = 0.

    The improper integral toward each domain endpoint is evaluated with
    convergence detection; endpoint_kind records whether q saturates
    (finite) or diverges (infinite).
    """
    if quad_tol <= 0:
        raise InvalidParameterError("quad_tol must be positive")
    lo, hi = velocity.domain
    if not (lo < x0 < hi):
        raise DomainError(f"anchor x0={x0:g} must lie strictly inside ({lo:g}, {hi:g})")

    def f(x):
        return 1.0 / velocity(x)

    xs_up, qs_up, q_hi, kind_hi = _explore_side(f, x0, hi, quad_tol, +1)
    xs_dn, qs_dn, q_lo, kind_lo = _explore_side(f, x0, lo, quad_tol, -1)

    anchors_x = np.array(xs_dn[::-1] + xs_up[1:], dtype=float)
    anchors_q = np.array(qs_dn[::-1] + qs_up[1:], dtype=float)
    order = np.argsort(anchors_x)
    return TransformMap(
        velocity=velocity,
        x0=x0,
        quad_tol=quad_tol,
        q_lo=q_lo,
        q_hi=q_hi,
        endpoint_kind=(kind_lo, kind_hi),
        anchors_x=anchors_x[order],
        anchors_q=anchors_q[order],
    )
