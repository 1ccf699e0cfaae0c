"""The monotone coordinate map q(x) = integral of 1/v_F from the anchor.

Since v_F > 0, q is strictly increasing and invertible. A velocity that
carries its closed form (``q_of_x``/``x_of_q``; every built-in does) gives
the range and the inverse directly. Any other (``from_callable``) velocity
gets the numeric map: adaptive quadrature, with the (possibly improper)
limits toward the domain endpoints classified finite/infinite by watching a
doubling (or gap halving) sequence of truncations converge, which
distinguishes tanh-type saturation from log divergence without symbolic
analysis. Every inverse, closed form or numeric, is spot-checked against
adaptive quadrature of 1/v_F, seven nodes per grid, all of one call's grids
in one quadrature call.

The adaptive quadrature is this module's own: Gauss-Legendre of order 16 on
panels that split, all segments of a call at once, until each panel's GL-16
value agrees with the sum over its halves. It asks no more of scipy than
numpy does, so importing the package does not load QUADPACK
(``scipy.integrate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .errors import DomainError, QuadratureFailureError, sides
from .profiles import VelocityProfile

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_SPLIT_ROUNDS = 40
_QUAD_ROUNDS = 200
_QUAD_TOL = 1e-12  # every map's quadrature tolerance
_QUAD_PANELS = 200  # unsettled panels per segment, QUADPACK's usual subinterval limit
_TINY = np.finfo(float).tiny
_NEWTON_ITERS = 100
_BLOCK = 500  # nodes per Newton block: (nodes, 16) temporaries under 64 KiB are reused, not paged in


def _quad(f, a, b, tol):
    """The integral of f over [a, b] (b < a integrates backwards)."""
    return float(_quad_segments(f, np.array([a], dtype=float), np.array([b], dtype=float),
                                tol)[0])


def _quad_segments(f, a, b, tol):
    """Integrals of f over the segments [a_i, b_i] by adaptive GL-16, all at once.

    Every round compares each unfinished panel's GL-16 value with the sum over
    its two halves. A panel whose miss is within its share, in proportion to
    its |value|, of max(0.1 tol, 1e-12 * integral of |f| over its segment)
    keeps the halves' sum; the rest split in two. A panel with both ends on
    one side of 0 that spans more than a factor 2 in |x| splits at the
    geometric mean, so 1/x across many decades takes a few rounds, not
    hundreds; any other panel splits at its midpoint. (A geometric split
    toward an end at 0 would leave one half too small for the comparison to
    see what the other half misses.) Raises ``QuadratureFailureError`` when a
    panel value is not finite, or when a segment keeps more than
    ``_QUAD_PANELS`` panels unsettled or any panel splits past
    ``_QUAD_ROUNDS`` rounds.
    """
    total = np.zeros(a.size)
    total_abs = np.zeros(a.size)
    seg = np.flatnonzero(a != b)
    pa, pb = a[seg], b[seg]
    whole = _gl_panels(f, pa, pb)
    for _ in range(_QUAD_ROUNDS):
        if seg.size == 0:
            return total
        abs_a, abs_b = np.abs(pa), np.abs(pb)
        geo = (np.sign(pa) == np.sign(pb)) & (np.maximum(abs_a, abs_b)
                                               > 2.0 * np.minimum(abs_a, abs_b))
        mid = np.where(geo, np.sign(pa) * np.sqrt(abs_a) * np.sqrt(abs_b), 0.5 * (pa + pb))
        both = _gl_panels(f, np.concatenate((pa, mid)), np.concatenate((mid, pb)))
        left, right = both[:seg.size], both[seg.size:]
        halves = left + right
        norm = total_abs + np.bincount(seg, np.abs(halves), minlength=a.size)
        bad = ~(np.isfinite(whole) & np.isfinite(halves))
        lost = np.bincount(seg, minlength=a.size) > _QUAD_PANELS
        if bad.any() or lost.any():
            i = int(seg[np.argmax(bad)]) if bad.any() else int(np.argmax(lost))
            why = ("integrand not finite on a panel" if bad.any() else
                   f"more than {_QUAD_PANELS} panels unsettled")
            raise QuadratureFailureError(
                f"quadrature failed on [{', '.join(sides(a[i], b[i]))}]: {why}",
                partial=float(total[i] + np.sum(halves[seg == i])))
        target = np.maximum(0.1 * tol, 1e-12 * norm)[seg] * np.abs(halves)
        ok = np.abs(whole - halves) * np.maximum(norm[seg], _TINY) <= target
        total += np.bincount(seg[ok], halves[ok], minlength=a.size)
        total_abs += np.bincount(seg[ok], np.abs(halves[ok]), minlength=a.size)
        keep = ~ok
        seg = np.concatenate((seg[keep], seg[keep]))
        pa, pb = np.concatenate((pa[keep], mid[keep])), np.concatenate((mid[keep], pb[keep]))
        whole = np.concatenate((left[keep], right[keep]))
    if seg.size == 0:  # the last round settled every panel
        return total
    i = int(seg[0])
    raise QuadratureFailureError(
        f"quadrature failed on [{', '.join(sides(a[i], b[i]))}]: still splitting after "
        f"{_QUAD_ROUNDS} rounds", partial=float(total[i] + np.sum(whole[seg == i])))


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


def _spot_nodes(size: int) -> np.ndarray:
    """Seven evenly spread indices into ``size`` nodes, rising, each once
    (np.unique's result, without the numpy.ma import np.unique makes)."""
    pick = np.linspace(0, size - 1, 7).astype(int)
    return pick[np.diff(pick, prepend=-1) > 0]


@dataclass
class TransformMap:
    """q(x) with its inverse; an infinite q_lo or q_hi marks a divergent end.

    With ``q_shift`` = Q(x0) set, the map is the velocity's closed form:
    x(q) = x_of_q(q + Q(x0)), and the anchor ladder is x0 alone. Otherwise
    every inverse runs through one panel table, built once per map: the
    anchor ladder refined until GL-16 is exact on each panel. Immutable after
    construction apart from the internal inverse cache, which is append-only
    derived data; lookups are pure.
    """

    velocity: VelocityProfile
    x0: float
    q_lo: float
    q_hi: float
    anchors_x: np.ndarray
    anchors_q: np.ndarray
    q_shift: Optional[float] = None
    table_x: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    table_q: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    _grid_cache: Dict[tuple, tuple] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.q_shift is None:
            self.table_x, self.table_q = _panel_table(self._f, self.anchors_x, self.anchors_q)

    # -- forward ------------------------------------------------------------

    def _f(self, x):
        return 1.0 / self.velocity(x)

    def forward(self, x):
        """q(x) by adaptive quadrature, never the closed form.

        Points go in order of their distance from x0, each integrated from the
        nearest build anchor or point done before: a spread of points far
        from x0 (the spot check of a closed-form map) costs short integrals,
        and all of them go through one vectorized quadrature.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.velocity.domain
        if not np.all((lo < x_arr) & (x_arr < hi)):
            raise DomainError(f"x must lie strictly inside ({lo:g}, {hi:g})")
        n0 = self.anchors_x.size
        order = np.argsort(np.abs(x_arr - self.x0), kind="stable")
        known_x = np.concatenate((self.anchors_x, x_arr[order]))
        start = np.empty(x_arr.size, dtype=int)
        for k in range(x_arr.size):
            start[k] = np.argmin(np.abs(known_x[:n0 + k] - known_x[n0 + k]))
        dq = _quad_segments(self._f, known_x[start], known_x[n0:], _QUAD_TOL)
        known_q = np.concatenate((self.anchors_q, dq))
        for k in range(x_arr.size):
            known_q[n0 + k] += known_q[start[k]]
        out = np.empty_like(x_arr)
        out[order] = known_q[n0:]
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    # -- inverse ------------------------------------------------------------

    def inverse(self, q: float) -> float:
        """The unique x with forward(x) = q, to |forward(x) - q| <= 1e-12 max(1,|q|)."""
        return float(self._checked([np.array([q], dtype=float)])[0][0])

    def inverse_grid(self, q: np.ndarray) -> np.ndarray:
        """Inverse of a sorted array of q values, cached per grid on the map:
        ``inverse_grids`` of the one grid, as a writeable copy."""
        return self.inverse_grids([q])[0].copy()

    def inverse_grids(self, qs, odd=()) -> List[np.ndarray]:
        """Inverses of sorted arrays of q values, each grid cached (read-only,
        as returned) on its own once one ``_checked`` call passes them all.
        Each grid ``odd`` indexes that this call inverts also caches its odd
        nodes q[1::2] (a QGrid within its refined()), read from its x, their
        seven spot nodes in the same check."""
        qs = [np.asarray(q, dtype=float) for q in qs]
        hits = [self._grid_cache.get((q[0], q[-1], q.size)) if q.size else (q, q.copy())
                for q in qs]
        cold = [i for i, (q, hit) in enumerate(zip(qs, hits))
                if hit is None or not np.array_equal(hit[0], q)]
        halves = [k for k, i in enumerate(cold) if i in odd]
        for i, x in zip(cold, self._checked([qs[i] for i in cold], halves)):
            x.flags.writeable = False
            hits[i] = self._grid_cache[(qs[i][0], qs[i][-1], qs[i].size)] = (qs[i].copy(), x)
            if i in odd:
                self.remember(qs[i][1::2], x[1::2])
        return [x for _, x in hits]

    def remember(self, q: np.ndarray, x: np.ndarray) -> None:
        """Cache ``x`` as the inverse of the sorted grid ``q``, nodes taken
        from a grid inverted here: each node is inverted on its own, so a
        node's x is the same in any grid that holds it."""
        x = x.copy()
        x.flags.writeable = False
        self._grid_cache.setdefault((q[0], q[-1], q.size), (q.copy(), x))

    def _checked(self, qs, halves=()) -> List[np.ndarray]:
        """x(q) of each sorted q array by ``_solve``, in order, seven nodes of
        each (``_spot_nodes``), and of the odd nodes of each array ``halves``
        indexes, checked in one ``forward`` call to 1e-10 max(1, max |q|) of
        their own grid."""
        xs = [self._solve(q) for q in qs]
        checks = [*zip(qs, xs), *((qs[i][1::2], xs[i][1::2]) for i in halves)]
        picks = [_spot_nodes(q.size) for q, _ in checks]
        got = (self.forward(np.concatenate([x[p] for (_, x), p in zip(checks, picks)]))
               if qs else None)
        for (q, _), pick in zip(checks, picks):
            res = float(np.max(np.abs(got[:pick.size] - q[pick])))
            tol = 1e-10 * max(1.0, float(np.max(np.abs(q))))
            if not res <= tol:
                raise QuadratureFailureError(
                    f"inverse: spot-check residual {res:.3e} > {tol:.3e} against "
                    f"adaptive quadrature")
            got = got[pick.size:]
        return xs

    def _solve(self, q):
        """x(q) in closed form or by ``_newton``, unchecked (see ``_checked``)."""
        if not np.all(np.isfinite(q)):
            raise DomainError("q must be finite")
        if np.any(np.diff(q) < 0):
            raise DomainError("inverse_grid expects q sorted ascending")
        if not (self.q_lo < q[0] and q[-1] < self.q_hi):
            raise DomainError(f"q in [{q[0]:.17g}, {q[-1]:.17g}] must lie strictly "
                              f"inside ({self.q_lo:.17g}, {self.q_hi:.17g})")
        if self.q_shift is None:
            out = self._newton(q)
        else:
            with np.errstate(all="ignore"):
                out = np.asarray(self.velocity.x_of_q(q + self.q_shift), dtype=float)
            lo, hi = self.velocity.domain
            if not np.all((lo < out) & (out < hi)):
                raise DomainError(f"q in [{q[0]:.17g}, {q[-1]:.17g}] reaches a wall "
                                  f"({lo:g}, {hi:g}) of the closed-form map in double precision")
        return out

    def _newton(self, q):
        """x(q) node by node, each inside its panel of the table.

        Start from linear interpolation in the table, then Newton on
        r(x) = q_j + GL16(x_j, x) - q with r' = 1/v_F. The step is clipped to
        a bracket that starts as the panel and shrinks with the sign of r;
        a step that leaves it bisects instead. A node stops once |r| <=
        1e-13 max(1, |q|) and keeps that last step.
        """
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
        return out


def _explore_side(f, x0, endpoint, sign):
    """Walk toward one endpoint, returning (anchor xs, anchor qs, q_limit).

    Infinite endpoint: doubling steps. Finite endpoint: gap halving. The
    limit is called finite once increments drop below _QUAD_TOL; a geometric
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
        dq = _quad(f, x_cur, x_next, _QUAD_TOL)
        x_cur, q_cur = x_next, q_cur + dq
        xs.append(x_cur)
        qs.append(q_cur)
        if abs(dq) <= _QUAD_TOL:
            tail = 0.0
            if prev_dq is not None and abs(prev_dq) > 0:
                r = abs(dq) / abs(prev_dq)
                if r < 0.9:
                    tail = abs(dq) * r / (1.0 - r)
            q_limit = q_cur + sign * tail
            break
        prev_dq = dq
    return xs, qs, q_limit


def build_transform(velocity: VelocityProfile, x0: float) -> TransformMap:
    """Build q(x) anchored at q(x0) = 0.

    With a closed form on the velocity, q_lo = Q(lo) - Q(x0) and q_hi =
    Q(hi) - Q(x0). Otherwise (or where Q cannot tell x0 from a wall in
    double precision) the improper integral toward each domain endpoint is
    evaluated with convergence detection. Either way q_lo and q_hi are
    finite where q saturates and infinite where it diverges. Every
    quadrature of the map runs at one tolerance, _QUAD_TOL = 1e-12.
    """
    lo, hi = velocity.domain
    if not (lo < x0 < hi):
        raise DomainError(f"anchor x0={x0:g} must lie strictly inside ({lo:g}, {hi:g})")
    if velocity.x_of_q is not None:
        with np.errstate(divide="ignore"):
            shift = float(velocity.q_of_x(x0))
            q_lo, q_hi = (float(velocity.q_of_x(end)) - shift for end in (lo, hi))
        if q_lo < 0.0 < q_hi:
            return TransformMap(velocity, x0, q_lo, q_hi, np.array([x0]),
                                np.array([0.0]), q_shift=shift)

    def f(x):
        return 1.0 / velocity(x)

    xs_up, qs_up, q_hi = _explore_side(f, x0, hi, +1)
    xs_dn, qs_dn, q_lo = _explore_side(f, x0, lo, -1)

    anchors_x = np.array(xs_dn[::-1] + xs_up[1:], dtype=float)
    anchors_q = np.array(qs_dn[::-1] + qs_up[1:], dtype=float)
    order = np.argsort(anchors_x)
    return TransformMap(
        velocity=velocity,
        x0=x0,
        q_lo=q_lo,
        q_hi=q_hi,
        anchors_x=anchors_x[order],
        anchors_q=anchors_q[order],
    )
