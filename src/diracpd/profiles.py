"""Position-dependent mass and Fermi-velocity profiles.

Natural units (hbar = 1) throughout. A model couples a mass profile m(x)
and a velocity profile v_F(x) on a shared open interval. The combination

    u(x) = m(x) v_F(x)^2

drives everything downstream (effective potentials, zeta factors), so the
built-in models also carry closed forms for u, u', u'' where the naive
product would overflow or lose the exact algebraic cancellation.

Built-in models:

    cosh_square      m = m0 / cosh^4(a x),        v_F = v0 cosh^2(a x)
    rational         m = m0 / (1 + a^2 x^2)^2,    v_F = v0 (1 + a^2 x^2)
    poschl_teller    m = m0 / sin(a x),           v_F = v0          on (0, pi/a)
    linear_singular  m = A / x,                   v_F = v0 x        on (0, inf)
    constant_rest    m = m0,                      v_F = c

The first two satisfy u(x) = m0 v0^2 identically (the constant-u class).
Each built-in velocity carries q = integral of dx / v_F in closed form,
tanh(a x)/(a v0), arctan(a x)/(a v0), (x - pi/(2a))/v0, ln(x)/v0 and x/c,
with its inverse. Each built-in's ``ModelFacts`` record holds its closed
forms: level ladder, spinor and printed normalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .errors import (AsPublishedWarning, DomainError, ImaginaryEnergyError, InvalidParameterError,
                     sides)

Interval = Tuple[float, float]

_FD_REL_TOL = 1e-6
_SAMPLE_N = 1024


@lru_cache(maxsize=16)
def interior_sample(domain: Interval) -> np.ndarray:
    """Deterministic dense sample strictly inside an open interval.

    Infinite ends are reached through a tan() stretch so the sample probes
    far tails without ever landing on an endpoint. _SAMPLE_N points, built
    once per domain, read-only: a model's validations and ``u_sample`` share it.
    """
    lo, hi = domain
    t = (np.arange(_SAMPLE_N) + 0.5) / _SAMPLE_N  # in (0, 1)
    if math.isinf(lo) and math.isinf(hi):
        xs = np.tan((t - 0.5) * (np.pi - 4e-3))
    elif math.isinf(hi):
        xs = lo + np.tan(t * (np.pi / 2 - 2e-3))
    elif math.isinf(lo):
        xs = hi - np.tan(t * (np.pi / 2 - 2e-3))[::-1]
    else:
        xs = lo + (hi - lo) * t
    xs.flags.writeable = False
    return xs


_EPS = float(np.finfo(float).eps)
_HUGE = 1e100  # samples beyond this magnitude have overflowed, or are about to
_CONST_U_TOL = 1e-10  # relative spread of u below which the model is constant-u
_STEP_POWER = {1: 1 / 3, 2: 1 / 4}  # roundoff-optimal central-difference steps


def _central_diff(f, x, h, order):
    """The order-th central difference of f at x, and a bound on its roundoff."""
    fp, fm = f(x + h), f(x - h)
    if order == 1:
        return (fp - fm) / (2.0 * h), _EPS * (np.abs(fp) + np.abs(fm)) / (2.0 * h)
    f0 = f(x)
    return ((fp - 2.0 * f0 + fm) / (h * h),
            _EPS * (np.abs(fp) + 2.0 * np.abs(f0) + np.abs(fm)) / (h * h))


def _fd_step(x, order, domain):
    """eps^(1/3) (eps^(1/4) for f'') times min(1 + |x|, distance to a finite wall)."""
    lo, hi = domain
    return _EPS ** _STEP_POWER[order] * np.minimum(1.0 + np.abs(x), np.minimum(x - lo, hi - x))


def _fd_derivative(f, order, domain):
    """f' or f'' of f by a central difference with the step of ``_fd_step``."""
    def deriv(x):
        x = np.asarray(x, dtype=float)
        return _central_diff(f, x, _fd_step(x, order, domain), order)[0]
    return deriv


def _check_derivative(prof: _Profile, order: int) -> None:
    """Verify an analytic derivative against central differences at steps h and 2h.

    h is ``_fd_step``. A point passes when |FD_h - f'| <= 1e-6 max(|f'|, |FD_h|)
    + 2 |FD_h - FD_2h| + 8 roundoff: FD_h - FD_2h estimates the truncation
    error, so zero crossings, exact zeros and steps shrunk at a wall pass.
    Points where the function overflows (cosh far out, etc.) are skipped:
    finite differences are meaningless there.
    """
    xs = interior_sample(prof.domain)
    h = _fd_step(xs, order, prof.domain)

    def f(x):
        return np.broadcast_to(np.asarray(prof.func(x), dtype=float), x.shape)

    with np.errstate(all="ignore"):
        fx = f(xs)
        exact = np.broadcast_to(np.asarray((prof.dfunc, prof.d2func)[order - 1](xs),
                                           dtype=float), xs.shape)
        fd, roundoff = _central_diff(f, xs, h, order)
        fd_2h = _central_diff(f, xs, 2.0 * h, order)[0]
        err = np.abs(fd - exact)
        allowance = (_FD_REL_TOL * np.maximum(np.abs(exact), np.abs(fd))
                     + 2.0 * np.abs(fd - fd_2h) + 8.0 * roundoff)
        ratio = err / allowance
    mask = (np.isfinite(fx) & np.isfinite(exact) & np.isfinite(fd) & np.isfinite(fd_2h)
            & (np.abs(fx) < _HUGE))
    bad = mask & ~(err <= allowance)
    if bad.any():
        i = np.flatnonzero(bad)[np.argmax(ratio[bad])]
        what = prof._noun if order == 1 else f"{prof._noun} (2nd)"
        raise InvalidParameterError(
            f"{what}: analytic derivative disagrees with finite differences "
            f"(error {err[i]:.2e}, {ratio[i]:.2e} times its allowance, at x={xs[i]:.6g})"
        )


@dataclass(frozen=True)
class _Profile:
    """A profile f(x) with f' and f'' on an open interval.

    Subclasses differ only in their admissibility rule (``_admissible``,
    described by ``_rule``) and in the noun their messages use.
    """

    func: Callable[[np.ndarray], np.ndarray]
    dfunc: Callable[[np.ndarray], np.ndarray]
    d2func: Callable[[np.ndarray], np.ndarray]
    domain: Interval

    def __call__(self, x):
        return self.func(x)

    def deriv1(self, x):
        return self.dfunc(x)

    def deriv2(self, x):
        return self.d2func(x)

    @classmethod
    def from_callable(cls, func, deriv1=None, deriv2=None,
                      domain: Interval = (-math.inf, math.inf), validate: bool = True):
        """Wrap a plain callable. A missing derivative becomes a central
        difference; validation checks every derivative supplied."""
        prof = cls(func, _fd_derivative(func, 1, domain) if deriv1 is None else deriv1,
                   _fd_derivative(func, 2, domain) if deriv2 is None else deriv2, domain)
        if validate:
            prof.validate(orders=tuple(order for order, d in ((1, deriv1), (2, deriv2))
                                       if d is not None))
        return prof

    def validate(self, orders: Tuple[int, ...] = (1, 2)) -> None:
        """Check admissibility on a dense interior sample, then the listed derivative orders."""
        xs = interior_sample(self.domain)
        with np.errstate(over="ignore"):  # overflow to +inf is still admissible
            f = np.broadcast_to(np.asarray(self.func(xs), dtype=float), xs.shape)
        bad = ~self._admissible(f)
        if bad.any():
            raise InvalidParameterError(
                f"{self._noun} profile must be {self._rule}; "
                f"{self._noun[0]}({xs[bad][0]:.6g}) = {f[bad][0]:.6g}"
            )
        for order in orders:
            _check_derivative(self, order)


@dataclass(frozen=True)
class VelocityProfile(_Profile):
    """Fermi-velocity profile v_F(x) > 0 with its first two derivatives.

    ``q_of_x``: optionally, a closed-form antiderivative Q of 1/v_F (any
    constant; +-inf at a wall where the integral diverges), and ``x_of_q``
    its inverse. ``build_transform`` uses them in place of the numeric map.
    """

    q_of_x: Optional[Callable[[np.ndarray], np.ndarray]] = None
    x_of_q: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _noun, _rule = "velocity", "positive inside the domain"

    def __post_init__(self):
        if (self.q_of_x is None) != (self.x_of_q is None):
            raise InvalidParameterError("velocity: q_of_x and x_of_q come as a pair")

    @staticmethod
    def _admissible(v):
        return v > 0


class MassProfile(_Profile):
    """Mass profile m(x) >= 0 (NaN rejected) with its first two derivatives."""

    _noun, _rule = "mass", "non-negative"

    @staticmethod
    def _admissible(m):
        return m >= 0


# Provenance: ``VERIFIED`` agrees with direct evaluation of the defining equations (and
# the numeric solver); ``AS_PUBLISHED`` contradicts it, so is reported, never asserted.
VERIFIED = "verified"
AS_PUBLISHED = "as_published"


@dataclass(frozen=True)
class AnalyticSpectrum:
    model: str
    n: int
    e_plus: float
    e_minus: float
    provenance: str


@dataclass(frozen=True)
class ModelFacts:
    """What is known of a model beyond its profiles.

    ``first_level``: closed-form index of the lowest level. ``claims``:
    (label, V(q)) potentials ``report`` compares with the approximate one,
    on a grid cut at |q| = ``q_bound`` on an infinite side. ``published``:
    the as-published level family, every ``published_stride``-th member of
    the verified ladder (stride 0: no verified ladder; listed alone).
    ``parameters``: (label, thunk) pairs the report prints before the
    levels; a thunk raises InvalidParameterError where it is complex.
    ``u_scale``: the parameter u is proportional to, "" where none is.
    Scaling it leaves v_F, the domain and the anchor unchanged, so the map
    q(x) does not change either: a scan over it can hold one map.

    The closed forms, each None where the model has none:
    ``level(n, as_published=False, exact=False)`` is level n's
    ``AnalyticSpectrum``; ``components(n, x)`` the unnormalized
    positive-energy spinor (psi1, psi2) on an array x; ``printed_norm(n)``
    the printed normalization constant and its provenance.
    """

    first_level: int = 0
    claims: Tuple[Tuple[str, Callable], ...] = ()
    q_bound: float = 8.0
    published: str = ""
    published_stride: int = 0
    parameters: Tuple[Tuple[str, Callable[[], float]], ...] = ()
    level: Optional[Callable[..., AnalyticSpectrum]] = None
    components: Optional[Callable[[int, np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None
    printed_norm: Optional[Callable[[int], Tuple[float, str]]] = None
    u_scale: str = ""


@dataclass(frozen=True)
class ModelSpec:
    """A mass/velocity pair on a shared domain, plus model metadata.

    ``anchor`` is the reference point where the canonical map q(x) vanishes;
    ``u_closed(x, count)`` gives the first ``count`` of the closed forms (u,
    u', u'') when the product admits an exact simplification.
    ``facts`` carries the model's closed-form bookkeeping (``ModelFacts``).
    """

    name: str
    mass: MassProfile
    velocity: VelocityProfile
    domain: Interval
    params: Mapping[str, float]
    label: str
    anchor: float
    u_closed: Optional[Callable[[np.ndarray, int], Tuple[np.ndarray, ...]]] = None
    facts: ModelFacts = ModelFacts()

    def __post_init__(self):
        if self.mass.domain != self.domain or self.velocity.domain != self.domain:
            raise InvalidParameterError(
                "mass and velocity domains must coincide with the model domain"
            )
        for key, val in self.params.items():
            if not math.isfinite(float(val)):
                raise InvalidParameterError(f"parameter {key!r} must be finite")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        return (x > lo) & (x < hi)

    @cached_property
    def u_sample(self) -> np.ndarray:
        """u = m v_F^2 on ``interior_sample(domain)``, evaluated once per spec.

        Overflowed samples stay in the read-only array as inf or NaN; its
        readers (``detect_constant_u``, ``approx_potential``'s massless
        check) each decide what such a sample means.
        """
        with np.errstate(all="ignore"):
            u = u_values(self, interior_sample(self.domain))
        u.flags.writeable = False
        return u


def product_u(model: ModelSpec, x):
    """u = m v_F^2 and its first two x-derivatives at x (strictly interior).

    Built-in models use their closed forms; otherwise the product rule is
    applied to the profile derivatives.
    """
    return _product(model, x, 3)


def u_values(model: ModelSpec, x):
    """u = m v_F^2 alone at x: product_u(model, x)[0] bit for bit, without
    evaluating the two derivatives."""
    return _product(model, x, 1)[0]


def filled(r, x: np.ndarray) -> np.ndarray:
    """``r`` as a float array of x's shape its caller owns: ``r`` when it is
    one, writeable and sharing no memory with x, else a filled copy."""
    if (isinstance(r, np.ndarray) and r.shape == x.shape and r.dtype == np.float64
            and r.flags.writeable and not np.may_share_memory(r, x)):
        return r
    return np.full(x.shape, r, dtype=float)


def _product(model: ModelSpec, x, count: int):
    """The first ``count`` of product_u's (u, u', u'')."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(model.contains(x_arr)):
        lo, hi = model.domain
        raise DomainError(f"x must lie strictly inside ({lo:g}, {hi:g})")
    if model.u_closed is not None:
        res = model.u_closed(x_arr, count)
    else:
        m = model.mass(x_arr)
        v = model.velocity(x_arr)
        res = (m * v * v,)
        if count > 1:
            m1 = model.mass.deriv1(x_arr)
            m2 = model.mass.deriv2(x_arr)
            v1 = model.velocity.deriv1(x_arr)
            v2 = model.velocity.deriv2(x_arr)
            res += (m1 * v * v + 2.0 * m * v * v1,
                    m2 * v * v + 4.0 * m1 * v * v1 + 2.0 * m * (v1 * v1 + v * v2))
    if np.isscalar(x) or np.ndim(x) == 0:
        return tuple(float(np.asarray(r)) for r in res)
    return tuple(filled(r, x_arr) for r in res)


def detect_constant_u(model: ModelSpec) -> Optional[float]:
    """Return A when u(x) = m v_F^2 is constant, else None.

    Constancy is certified by dense sampling (``model.u_sample``, the
    model's one evaluation of u on ``interior_sample``), not symbolically:
    every sample lies within ``_CONST_U_TOL`` |u0| of u0, u at the model
    anchor, so the verdict does not depend on the units (u = 0 everywhere
    is the one exact case). Without closed forms, samples where m or v_F^2
    passes 1e100 are skipped: there a factor has left the finite range
    (v_F^2 overflows while m underflows to 0), and the product reads
    nothing of u. Any other sample where the product is not finite is not
    constant.
    """
    u0 = u_values(model, model.anchor)
    u = model.u_sample
    if model.u_closed is None:
        xs = interior_sample(model.domain)
        with np.errstate(all="ignore"):
            gone = ((np.abs(model.mass(xs)) >= _HUGE)
                    | (np.asarray(model.velocity(xs)) ** 2 >= _HUGE))
        u = u[~np.broadcast_to(gone, xs.shape)]
    if not np.all(np.isfinite(u)):
        return None
    if np.max(np.abs(u - u0)) <= _CONST_U_TOL * abs(u0):
        return float(u0)
    return None


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def hermite(n: int, y):
    """Physicists' Hermite polynomial by the three-term recurrence
    H_{k+1} = 2y H_k - 2k H_{k-1}."""
    if n < 0:
        raise InvalidParameterError("hermite order must be >= 0")
    y = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y)
    if n == 0:
        return h_prev if y.ndim else float(h_prev)
    h_cur = 2.0 * y
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * y * h_cur - 2.0 * k * h_prev
    return h_cur if y.ndim else float(h_cur)


def hyp2f1_polynomial(n: int, b: float, c: float, z):
    """2F1(-n, b; c; z) as the exact terminating sum."""
    if n < 0:
        raise InvalidParameterError("polynomial order must be >= 0")
    # the sum divides by (c)_k up to k = n-1, so only c in {0, -1, .., -(n-1)}
    # actually hits a pole
    if c <= 0 and float(c).is_integer() and c > -n:
        raise InvalidParameterError(f"c={c:g} hits a pole of the series")
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(n):
        term = term * ((-n + k) * (b + k)) / ((c + k) * (k + 1)) * z
        total = total + term
    return total if z.ndim else float(total)


def s_parameter(alpha: float, v0: float, m0: float,
                as_published: bool = False) -> float:
    """The s > 1 root of the poschl_teller 1/sin^2 coefficient.

    Verified: s(s-1) = m0^2 v0^2 / alpha^2 - 5/16, i.e.
    s = 1/2 + sqrt(m0^2 v0^2 / alpha^2 - 1/16). The as-published switch
    evaluates the printed radical sqrt(m0^2 alpha^2 - 1/16) instead, which
    is dimensionally inconsistent with the potential the model produces.
    """
    product, label = ((m0 * alpha, "m0 alpha") if as_published
                      else (m0 * v0 / alpha, "m0 v0 / alpha"))
    radicand = product ** 2 - 1.0 / 16.0
    if radicand < 0:
        raise InvalidParameterError(f"s would be complex: radicand {radicand:g} < 0 "
                                    f"(need {label} >= 1/4)")
    return 0.5 + math.sqrt(radicand)


def _require(params: Mapping[str, float], model: str, names, positive, nonneg):
    known = set(names)
    for key in params:
        if key not in known:
            raise InvalidParameterError(f"{model}: unknown parameter {key!r}")
    out = {}
    for key in names:
        if key not in params:
            raise InvalidParameterError(f"{model}: missing parameter {key!r}")
        val = float(params[key])
        if not math.isfinite(val):
            raise InvalidParameterError(f"{model}: parameter {key!r} must be finite")
        if key in positive and not val > 0:
            raise InvalidParameterError(f"{model}: parameter {key!r} must be > 0")
        if key in nonneg and val < 0:
            raise InvalidParameterError(f"{model}: parameter {key!r} must be >= 0")
        out[key] = val
    return out


def _constant_u(A: float, first_level: int = 0, **closed):
    """u_closed and facts of a model with m v_F^2 = A identically; ``closed``
    holds the facts' closed forms."""
    def u_closed(x, count):
        x = np.asarray(x, dtype=float)
        return (A + 0.0 * x, 0.0 * x, 0.0 * x)[:count]

    claims = ((("constant A^2", lambda q: np.full_like(np.asarray(q, dtype=float), A * A)),)
              if A > 0 else ())  # a massless model's potential is identically zero
    return u_closed, ModelFacts(first_level, claims, **closed)


def _hypot_ladder(name: str, v0: float, A: float, lam, wave, printed):
    """u_closed and facts of a constant-u model on a finite q-range (n >= 1).

    Levels E_n = +/- hypot(lam(n), A); spinor env (sqrt(z2 / v0) sin theta,
    -i sqrt(z1 / v0) cos theta) with z1, z2 = E -/+ A and (theta, env) = wave(n, x);
    printed normalization printed(n, E_n).
    """
    def level(n, as_published=False, exact=False):
        if n < 1:
            raise InvalidParameterError("level index starts at n=1 for this model")
        e = math.hypot(lam(n), A)
        return AnalyticSpectrum(name, n, e, -e, VERIFIED)

    def components(n, x):
        e = level(n).e_plus
        z1, z2 = e - A, e + A
        theta, env = wave(n, x)
        psi1 = np.sqrt(z2 / v0) * env * np.sin(theta) + 0j
        psi2 = -1j * np.sqrt(z1 / v0) * env * np.cos(theta)
        return psi1, psi2

    return _constant_u(A, first_level=1, level=level, components=components,
                       printed_norm=lambda n: printed(n, level(n).e_plus), u_scale="m0")


def _cosh_square(params) -> ModelSpec:
    p = _require(params, "cosh_square", ("alpha", "v0", "m0"), {"alpha", "v0"}, {"m0"})
    a, v0, m0 = p["alpha"], p["v0"], p["m0"]
    dom = (-math.inf, math.inf)
    vel = VelocityProfile(
        func=lambda x: v0 * np.cosh(a * x) ** 2,
        dfunc=lambda x: a * v0 * np.sinh(2.0 * a * x),
        d2func=lambda x: 2.0 * a * a * v0 * np.cosh(2.0 * a * x),
        domain=dom,
        q_of_x=lambda x: np.tanh(a * x) / (a * v0),
        x_of_q=lambda q: np.arctanh(a * v0 * q) / a,
    )
    mass = MassProfile(
        func=lambda x: m0 / np.cosh(a * x) ** 4,
        dfunc=lambda x: -4.0 * a * m0 * np.tanh(a * x) / np.cosh(a * x) ** 4,
        d2func=lambda x: 4.0 * a * a * m0
        * (4.0 * np.tanh(a * x) ** 2 - 1.0 / np.cosh(a * x) ** 2)
        / np.cosh(a * x) ** 4,
        domain=dom,
    )
    A = m0 * v0 * v0

    def lam(n):
        return n * math.pi * a * v0 / 2.0

    def wave(n, x):
        with np.errstate(over="ignore"):  # cosh overflow far out -> sech = 0
            return 0.5 * n * math.pi * (np.tanh(a * x) + 1.0), 1.0 / np.cosh(a * x)

    def printed_norm(n, e):
        # the printed general form disagrees with direct quadrature (as-published);
        # its massless limit sqrt(a v0 / 2 E_n) is exact
        if m0 == 0.0:
            return math.sqrt(a * v0 / (2.0 * e)), VERIFIED
        z1 = e - m0 * v0 * v0
        return (math.sqrt(a * v0 * lam(n) / (2.0 * (lam(n) * z1 + 2.0 * a * m0 * v0 ** 4))),
                AS_PUBLISHED)

    u_closed, facts = _hypot_ladder("cosh_square", v0, A, lam, wave, printed_norm)
    return ModelSpec("cosh_square", mass, vel, dom, p,
                     "cosh^2 velocity / sech^4 mass", anchor=0.0, u_closed=u_closed, facts=facts)


def _rational(params) -> ModelSpec:
    p = _require(params, "rational", ("alpha", "v0", "m0"), {"alpha", "v0"}, {"m0"})
    a, v0, m0 = p["alpha"], p["v0"], p["m0"]
    dom = (-math.inf, math.inf)
    vel = VelocityProfile(
        func=lambda x: v0 * (1.0 + (a * x) ** 2),
        dfunc=lambda x: 2.0 * a * a * v0 * np.asarray(x, dtype=float),
        d2func=lambda x: 2.0 * a * a * v0 + 0.0 * np.asarray(x, dtype=float),
        domain=dom,
        q_of_x=lambda x: np.arctan(a * x) / (a * v0),
        x_of_q=lambda q: np.tan(a * v0 * q) / a,
    )
    mass = MassProfile(
        func=lambda x: m0 / (1.0 + (a * x) ** 2) ** 2,
        dfunc=lambda x: -4.0 * a * a * m0 * np.asarray(x, dtype=float)
        / (1.0 + (a * x) ** 2) ** 3,
        d2func=lambda x: -4.0 * a * a * m0 * (1.0 - 5.0 * (a * x) ** 2)
        / (1.0 + (a * x) ** 2) ** 4,
        domain=dom,
    )
    A = m0 * v0 * v0

    def wave(n, x):
        return n * (np.arctan(a * x) + math.pi / 2.0), 1.0 / np.sqrt(1.0 + (a * x) ** 2)

    def printed_norm(n, e):  # the printed constant is exact for the discrete states
        z1 = e - m0 * v0 * v0
        return math.sqrt(a * v0 / (math.pi * z1 + math.pi * m0 * v0 * v0)), VERIFIED

    u_closed, facts = _hypot_ladder("rational", v0, A, lambda n: n * a * v0, wave, printed_norm)
    return ModelSpec("rational", mass, vel, dom, p, "rational velocity / rational mass",
                     anchor=0.0, u_closed=u_closed, facts=facts)


def _poschl_teller(params) -> ModelSpec:
    p = _require(params, "poschl_teller", ("alpha", "v0", "m0"), {"alpha", "v0"}, {"m0"})
    a, v0, m0 = p["alpha"], p["v0"], p["m0"]
    dom = (0.0, math.pi / a)  # first hole between two mass singularities
    x0 = math.pi / (2.0 * a)
    vel = VelocityProfile(
        func=lambda x: v0 + 0.0 * np.asarray(x, dtype=float),
        dfunc=lambda x: 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
        q_of_x=lambda x: (x - x0) / v0,
        x_of_q=lambda q: x0 + v0 * q,
    )
    mass = MassProfile(
        func=lambda x: m0 / np.sin(a * x),
        dfunc=lambda x: -a * m0 * np.cos(a * x) / np.sin(a * x) ** 2,
        d2func=lambda x: a * a * m0 * (1.0 + np.cos(a * x) ** 2) / np.sin(a * x) ** 3,
        domain=dom,
    )
    c = m0 * v0 * v0

    def u_closed(x, count):
        ax = a * x
        sin = np.sin(ax)
        if count == 1:
            return (c / sin,)
        cos = np.cos(ax)
        return (c / sin, -a * c * cos / sin ** 2, a * a * c * (1.0 + cos ** 2) / sin ** 3)[:count]

    def claimed(q):  # x = x0 + v0 q, with q anchored at the hole center x0
        coeff = m0 * m0 * v0 ** 4 - 5.0 * a * a * v0 * v0 / 16.0
        return a * a * v0 * v0 / 16.0 + coeff / np.sin(a * (x0 + v0 * q)) ** 2

    def level(n, as_published=False, exact=False):
        # approximate mode: the full ladder (alpha v0 / 4) sqrt(1 + 16 (s + n)^2); the
        # published family s + 2n skips its odd members, and as_published gives that
        # family with the printed radical for s. exact: the exact-mode ladder
        # m0 v0^2 + alpha v0 (n + 1/2) for g = m0 v0 / alpha >= 1/2, with no
        # as-published counterpart. Massless, u = 0: a free Dirac particle in the q-box of
        # width pi / (alpha v0), alpha v0 (n + 1), in constant-u and exact mode alike
        if n < 0:
            raise InvalidParameterError("level index starts at n=0 for this model")
        if exact and as_published:
            raise InvalidParameterError("the published (s+2n) family is an approximate-mode "
                                        "claim; exact mode has no as-published ladder")
        if not m0 and not as_published:
            return AnalyticSpectrum("poschl_teller", n, a * v0 * (n + 1), -a * v0 * (n + 1),
                                    VERIFIED)
        if exact:
            if m0 * v0 / a < 0.5:
                raise InvalidParameterError("exact ladder needs g >= 1/2, got "
                                            + sides(m0 * v0 / a, 0.5)[0])
            e = m0 * v0 * v0 + a * v0 * (n + 0.5)
            return AnalyticSpectrum("poschl_teller", n, e, -e, VERIFIED)
        s = s_parameter(a, v0, m0, as_published=as_published)
        e = (a * v0 / 4.0) * math.sqrt(1.0 + 16.0 * (s + (2 * n if as_published else n)) ** 2)
        return AnalyticSpectrum("poschl_teller", n, e, -e,
                                AS_PUBLISHED if as_published else VERIFIED)

    def components(n, x):  # n counts the published family: its state n is level 2n
        s = s_parameter(a, v0, m0)
        e = level(2 * n).e_plus

        def psi1_tilde(t):
            # sqrt(v0) * psi1, the quantity the component relation differentiates
            z2 = e + m0 * v0 * v0 / np.sin(a * t)
            return (np.sqrt(z2) * np.sin(a * t) ** s
                    * hyp2f1_polynomial(n, s + n, s + 0.5, np.sin(a * t) ** 2))

        lo, hi = dom
        if np.any(x <= lo) or np.any(x >= hi):
            raise DomainError(f"x must lie inside (0, {hi:g})")
        z2 = e + m0 * v0 * v0 / np.sin(a * x)
        psi1 = psi1_tilde(x) / math.sqrt(v0) + 0j
        h = np.minimum(1e-6 * (hi - lo), np.minimum(x - lo, hi - x) / 3.0)
        dpt = (psi1_tilde(x + h) - psi1_tilde(x - h)) / (2.0 * h)
        psi2 = -1j * (v0 * dpt) / (z2 * math.sqrt(v0))
        return psi1, psi2

    facts = ModelFacts(
        claims=(("closed form (verified coefficient)", claimed),) if m0
        else (),  # massless: u = 0, so there is no potential to adjudicate
        published="published (s+2n) sequence (interleaved levels are genuine "
                  "states the published solution family skips)",
        published_stride=2,
        parameters=(("s (verified)", lambda: s_parameter(a, v0, m0)),
                    ("s (as-published)", lambda: s_parameter(a, v0, m0, as_published=True))),
        level=level, components=components, u_scale="m0")
    return ModelSpec("poschl_teller", mass, vel, dom, p,
                     "constant velocity / 1/sin mass", anchor=x0, u_closed=u_closed, facts=facts)


def _linear_singular(params) -> ModelSpec:
    p = _require(params, "linear_singular", ("A", "v0"), {"v0"}, {"A"})
    A, v0 = p["A"], p["v0"]
    dom = (0.0, math.inf)
    vel = VelocityProfile(
        func=lambda x: v0 * np.asarray(x, dtype=float),
        dfunc=lambda x: v0 + 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
        q_of_x=lambda x: np.log(x) / v0,
        x_of_q=lambda q: np.exp(v0 * q),
    )
    mass = MassProfile(
        func=lambda x: A / np.asarray(x, dtype=float),
        dfunc=lambda x: -A / np.asarray(x, dtype=float) ** 2,
        d2func=lambda x: 2.0 * A / np.asarray(x, dtype=float) ** 3,
        domain=dom,
    )

    def u_closed(x, count):
        x = np.asarray(x, dtype=float)
        return (A * v0 * v0 * x, A * v0 * v0 + 0.0 * x, 0.0 * x)[:count]

    omega = 2.0 * A * v0 ** 3

    # The printed oscillator spectrum and spinor (as-published) follow from a potential
    # that direct evaluation contradicts: the true reduced potential is exponential in q
    # and supports no bound states at all.
    def level(n, as_published=False, exact=False):
        if n < 0:
            raise InvalidParameterError("level index starts at n=0 for this model")
        radicand = A * v0 ** 3 * (2 * n + 1) - v0 * v0 / 16.0
        if radicand < 0:
            raise ImaginaryEnergyError(f"published spectrum gives E^2 = {radicand:g} < 0 at n={n}")
        e = math.sqrt(radicand)
        return AnalyticSpectrum("linear_singular", n, e, -e, AS_PUBLISHED)

    def components(n, x):
        warnings.warn("linear_singular wavefunctions follow the as-published oscillator "
                      "solution, which direct evaluation of the reduced potential "
                      "contradicts", AsPublishedWarning, stacklevel=3)
        e = level(n).e_plus

        def psi1_tilde(t):
            y = np.sqrt(A * v0) * np.log(t)
            z2 = e + A * v0 * v0 * t
            return np.sqrt(z2) * np.exp(-0.5 * A * v0 * np.log(t) ** 2) * hermite(n, y)

        if np.any(x <= 0):
            raise DomainError("x must be positive")
        z2 = e + A * v0 * v0 * x
        vf = v0 * x
        psi1 = psi1_tilde(x) / np.sqrt(vf) + 0j
        h = 1e-7 * x
        dpt = (psi1_tilde(x + h) - psi1_tilde(x - h)) / (2.0 * h)
        psi2 = -1j * (vf * dpt) / (z2 * np.sqrt(vf))
        return psi1, psi2

    facts = ModelFacts(
        claims=(("exponential closed form",
                 lambda q: A ** 2 * v0 ** 4 * np.exp(2.0 * v0 * q) - v0 * v0 / 16.0),
                ("published harmonic form", lambda q: 0.25 * omega * omega * q * q))
        if A > 0 else (),  # massless: u = 0, so there is no potential to adjudicate
        q_bound=4.0,
        published="published oscillator energies (as-published; the reduced "
                  "potential is exponential and supports no bound states)",
        level=level, components=components, u_scale="A")
    return ModelSpec("linear_singular", mass, vel, dom, p,
                     "linear velocity / 1/x mass", anchor=1.0, u_closed=u_closed, facts=facts)


def _constant_rest(params) -> ModelSpec:
    p = _require(params, "constant_rest", ("m0", "c"), {"c"}, {"m0"})
    m0, c = p["m0"], p["c"]
    dom = (-math.inf, math.inf)
    vel = VelocityProfile(
        func=lambda x: c + 0.0 * np.asarray(x, dtype=float),
        dfunc=lambda x: 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
        q_of_x=lambda x: x / c,
        x_of_q=lambda q: c * q,
    )
    mass = MassProfile(
        func=lambda x: m0 + 0.0 * np.asarray(x, dtype=float),
        dfunc=lambda x: 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
    )
    def level(n, as_published=False, exact=False):
        if n != 0:
            raise InvalidParameterError("the free constant-mass model has only E = +/- m0 c^2")
        e = m0 * c * c
        return AnalyticSpectrum("constant_rest", n, e, -e, VERIFIED)

    u_closed, facts = _constant_u(m0 * c * c, level=level, u_scale="m0")
    return ModelSpec("constant_rest", mass, vel, dom, p,
                     "constant rest mass and velocity", anchor=0.0, u_closed=u_closed, facts=facts)


_BUILTINS = {
    "cosh_square": _cosh_square,
    "rational": _rational,
    "poschl_teller": _poschl_teller,
    "linear_singular": _linear_singular,
    "constant_rest": _constant_rest,
}

MODEL_NAMES = tuple(sorted(_BUILTINS))


def builtin_model(name: str, **params) -> ModelSpec:
    """Build one of the built-in models with hand-coded analytic derivatives.

    Raises InvalidParameterError naming the offending field when a required
    parameter is missing or out of range. Positivity of the profiles is
    certified by dense sampling at construction; the hand-coded derivatives
    are fixed expressions covered by the test suite and are not re-checked
    per build.
    """
    key = name.strip().lower().replace("-", "_")
    if key not in _BUILTINS:
        raise InvalidParameterError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
        )
    model = _BUILTINS[key](params)
    model.velocity.validate(orders=())
    model.mass.validate(orders=())
    return model
