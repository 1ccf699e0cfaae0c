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
from typing import Dict

import numpy as np
from scipy import integrate

from .errors import DomainError, InvalidParameterError, QuadratureFailureError
from .profiles import VelocityProfile

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_SPLIT_ROUNDS = 40
_NEWTON_ITERS = 100
_BLOCK = 500  # nodes per Newton block: (nodes, 16) temporaries under 64 KiB are reused, not paged in


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


def _panel_table(f, anchors_x, anchors_q):
    """The anchor ladder, each interval halved while one GL-16 panel
    disagrees with its two halves by more than 1e-14 max(1, |q|).

    Ladder nodes keep their adaptive-quadrature q; an inserted node gets the
    q of the ladder node to its left plus GL-16 over the panels between.
    """
    x = anchors_x
    q = anchors_q
    for _ in range(_SPLIT_ROUNDS):
        a, b = x[:-1], x[1:]
        mid = 0.5 * (a + b)
        miss = np.abs(_gl_panels(f, a, b) - _gl_panels(f, a, mid) - _gl_panels(f, mid, b))
        split = np.flatnonzero(
            miss > 1e-14 * np.maximum(1.0, np.abs(np.interp(mid, anchors_x, anchors_q))))
        if split.size == 0:
            break
        x = np.insert(x, split + 1, mid[split])
        q = np.insert(q, split + 1, np.nan)
    else:
        raise QuadratureFailureError(
            f"GL-16 panel table still splitting after {_SPLIT_ROUNDS} rounds")
    cum = np.concatenate(([0.0], np.cumsum(_gl_panels(f, x[:-1], x[1:]))))
    left = np.maximum.accumulate(np.where(np.isnan(q), 0, np.arange(q.size)))
    return x, q[left] + (cum - cum[left])


@dataclass
class TransformMap:
    """q(x) with its inverse; an infinite q_lo or q_hi marks a divergent end.

    Every inverse runs through one panel table, built once per map: the
    anchor ladder refined until GL-16 is exact on each panel. Immutable after
    construction apart from the internal inverse cache, which is append-only
    derived data; lookups are pure.
    """

    velocity: VelocityProfile
    x0: float
    quad_tol: float
    q_lo: float
    q_hi: float
    anchors_x: np.ndarray
    anchors_q: np.ndarray
    table_x: np.ndarray = field(init=False, repr=False)
    table_q: np.ndarray = field(init=False, repr=False)
    _grid_cache: Dict[tuple, tuple] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.table_x, self.table_q = _panel_table(self._f, self.anchors_x, self.anchors_q)

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
        return float(self._solve(np.array([q], dtype=float))[0])

    def inverse_grid(self, q: np.ndarray) -> np.ndarray:
        """Inverse of a sorted array of q values, cached per grid on the map."""
        q = np.asarray(q, dtype=float)
        if q.size == 0:
            return q.copy()
        key = (q[0], q[-1], q.size)
        hit = self._grid_cache.get(key)
        if hit is not None and np.array_equal(hit[0], q):
            return hit[1].copy()
        x = self._solve(q)
        self._grid_cache[key] = (q.copy(), x)
        return x.copy()

    def _solve(self, q):
        """x(q) node by node, each inside its panel of the table.

        Start from linear interpolation in the table, then Newton on
        r(x) = q_j + GL16(x_j, x) - q with r' = 1/v_F. The step is clipped to
        a bracket that starts as the panel and shrinks with the sign of r;
        a step that leaves it bisects instead. A node stops once |r| <=
        1e-13 max(1, |q|) and keeps that last step. Seven nodes are checked
        against the adaptive-quadrature forward map.
        """
        if np.any(np.diff(q) < 0):
            raise DomainError("inverse_grid expects q sorted ascending")
        if not (self.q_lo < q[0] and q[-1] < self.q_hi):
            raise DomainError(f"q in [{q[0]:.17g}, {q[-1]:.17g}] must lie strictly "
                              f"inside ({self.q_lo:.17g}, {self.q_hi:.17g})")
        tx, tq = self.table_x, self.table_q
        if q[0] < tq[0] or q[-1] > tq[-1]:
            raise DomainError(f"q in [{q[0]:.17g}, {q[-1]:.17g}] lies past the anchor "
                              f"ladder [{tq[0]:.17g}, {tq[-1]:.17g}] of the map")
        out = np.empty_like(q)
        for b in range(0, q.size, _BLOCK):
            qt = q[b:b + _BLOCK]
            j = np.clip(np.searchsorted(tq, qt, side="right") - 1, 0, tq.size - 2)
            idx, tol = np.arange(b, b + qt.size), 1e-13 * np.maximum(1.0, np.abs(qt))
            x, xa, qa, lo, hi = np.interp(qt, tq, tx), tx[j], tq[j], tx[j], tx[j + 1]
            for _ in range(_NEWTON_ITERS):
                r = qa + _gl_panels(self._f, xa, x) - qt
                lo = np.where(r < 0, x, lo)
                hi = np.where(r > 0, x, hi)
                step = x - r * self.velocity(x)
                step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
                done = (np.abs(r) <= tol) | (step == x)
                out[idx[done]] = step[done]
                keep = ~done
                if not keep.any():
                    break
                idx, x, xa, qa, lo, hi, qt, tol = (
                    a[keep] for a in (idx, step, xa, qa, lo, hi, qt, tol))
            else:
                raise QuadratureFailureError(
                    f"inverse: {idx.size} nodes unconverged after {_NEWTON_ITERS} steps")
        pick = np.unique(np.linspace(0, q.size - 1, 7).astype(int))
        res = float(np.max(np.abs(self.forward(out[pick]) - q[pick])))
        tol = 1e-10 * max(1.0, float(np.max(np.abs(q))))
        if res > tol:
            raise QuadratureFailureError(
                f"inverse: spot-check residual {res:.3e} > {tol:.3e} against "
                f"adaptive quadrature")
        return out

    # aliases matching the operation names
    __call__ = forward


def _explore_side(f, x0, endpoint, quad_tol, sign):
    """Walk toward one endpoint, returning (anchor xs, anchor qs, q_limit).

    Infinite endpoint: doubling steps. Finite endpoint: gap halving. The
    limit is called finite once increments drop below quad_tol; a geometric
    tail extrapolation closes the remainder.
    """
    xs = [x0]
    qs = [0.0]
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
            tail = 0.0
            if prev_dq is not None and abs(prev_dq) > 0:
                r = abs(dq) / abs(prev_dq)
                if r < 0.9:
                    tail = abs(dq) * r / (1.0 - r)
            q_limit = q_cur + sign * tail
            break
        prev_dq = dq
    return xs, qs, q_limit


def build_transform(velocity: VelocityProfile, x0: float,
                    quad_tol: float = 1e-12) -> TransformMap:
    """Build q(x) anchored at q(x0) = 0.

    The improper integral toward each domain endpoint is evaluated with
    convergence detection; q_lo and q_hi are finite where q saturates and
    infinite where it diverges.
    """
    if quad_tol <= 0:
        raise InvalidParameterError("quad_tol must be positive")
    lo, hi = velocity.domain
    if not (lo < x0 < hi):
        raise DomainError(f"anchor x0={x0:g} must lie strictly inside ({lo:g}, {hi:g})")

    def f(x):
        return 1.0 / velocity(x)

    xs_up, qs_up, q_hi = _explore_side(f, x0, hi, quad_tol, +1)
    xs_dn, qs_dn, q_lo = _explore_side(f, x0, lo, quad_tol, -1)

    anchors_x = np.array(xs_dn[::-1] + xs_up[1:], dtype=float)
    anchors_q = np.array(qs_dn[::-1] + qs_up[1:], dtype=float)
    order = np.argsort(anchors_x)
    return TransformMap(
        velocity=velocity,
        x0=x0,
        quad_tol=quad_tol,
        q_lo=q_lo,
        q_hi=q_hi,
        anchors_x=anchors_x[order],
        anchors_q=anchors_q[order],
    )
