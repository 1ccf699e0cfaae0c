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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Tuple

import numpy as np

from .errors import DomainError, InvalidParameterError

Interval = Tuple[float, float]

_FD_REL_TOL = 1e-6
_SAMPLE_N = 1024


def interior_sample(domain: Interval, n: int = _SAMPLE_N) -> np.ndarray:
    """Deterministic dense sample strictly inside an open interval.

    Infinite ends are reached through a tan() stretch so the sample probes
    far tails without ever landing on an endpoint.
    """
    lo, hi = domain
    t = (np.arange(n) + 0.5) / n  # in (0, 1)
    if math.isinf(lo) and math.isinf(hi):
        theta = (t - 0.5) * (np.pi - 4e-3)
        return np.tan(theta)
    if math.isinf(hi):
        theta = t * (np.pi / 2 - 2e-3)
        return lo + np.tan(theta)
    if math.isinf(lo):
        theta = t * (np.pi / 2 - 2e-3)
        return hi - np.tan(theta)[::-1]
    return lo + (hi - lo) * t


def _central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _central_diff2(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def _check_derivative(f, df, domain, order, what):
    """Verify an analytic derivative against central differences.

    Points where the function overflows (cosh far out, etc.) are skipped:
    finite differences are meaningless there.
    """
    xs = interior_sample(domain)
    lo, hi = domain
    scale = 1.0 + np.abs(xs)
    h = (np.finfo(float).eps ** (1 / 3 if order == 1 else 1 / 4)) * scale
    # keep the stencil strictly inside the domain
    h = np.minimum(h, 0.25 * np.minimum(xs - lo, hi - xs))
    ok = h > 0
    xs, h = xs[ok], h[ok]

    fx = np.asarray(f(xs), dtype=float)
    d_ana = np.asarray(df(xs), dtype=float)
    fd = _central_diff(f, xs, h) if order == 1 else _central_diff2(f, xs, h)
    mask = (
        np.isfinite(fx) & np.isfinite(d_ana) & np.isfinite(fd)
        & (np.abs(fx) < 1e100)
    )
    if not mask.any():
        return
    denom = np.maximum.reduce(
        [np.abs(d_ana[mask]), np.abs(fd[mask]), 1e-6 * np.maximum(1.0, np.abs(fx[mask]))]
    )
    rel = np.abs(fd[mask] - d_ana[mask]) / denom
    worst = float(np.max(rel))
    if worst > _FD_REL_TOL:
        i = int(np.argmax(rel))
        raise InvalidParameterError(
            f"{what}: analytic derivative disagrees with finite differences "
            f"(rel err {worst:.2e} at x={xs[mask][i]:.6g})"
        )


@dataclass(frozen=True)
class VelocityProfile:
    """Fermi-velocity profile v_F(x) > 0 with its first derivative."""

    func: Callable[[np.ndarray], np.ndarray]
    dfunc: Callable[[np.ndarray], np.ndarray]
    domain: Interval
    d2func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x):
        return self.func(x)

    def deriv1(self, x):
        return self.dfunc(x)

    def deriv2(self, x):
        if self.d2func is not None:
            return self.d2func(x)
        x = np.asarray(x, dtype=float)
        h = np.finfo(float).eps ** 0.25 * (1.0 + np.abs(x))
        return _central_diff2(self.func, x, h)

    @classmethod
    def from_callable(cls, func, deriv1=None, deriv2=None,
                      domain: Interval = (-math.inf, math.inf),
                      validate: bool = True) -> "VelocityProfile":
        """Wrap a plain callable; missing derivatives fall back to finite
        differences, which validation then does not check."""
        fd = deriv1 is None
        if deriv1 is None:
            def deriv1(x, _f=func):
                x = np.asarray(x, dtype=float)
                h = np.finfo(float).eps ** (1 / 3) * (1.0 + np.abs(x))
                return _central_diff(_f, x, h)
        prof = cls(func, deriv1, domain, deriv2)
        if validate:
            prof.validate(check_derivatives=not fd)
        return prof

    def validate(self, check_derivatives: bool = True) -> None:
        xs = interior_sample(self.domain)
        with np.errstate(over="ignore"):  # overflow to +inf is still positive
            v = np.asarray(self.func(xs), dtype=float)
        bad = ~(v > 0)
        if bad.any():
            raise InvalidParameterError(
                f"velocity profile must be positive inside the domain; "
                f"v({xs[bad][0]:.6g}) = {v[bad][0]!r}"
            )
        if check_derivatives:
            _check_derivative(self.func, self.dfunc, self.domain, 1, "velocity")


@dataclass(frozen=True)
class MassProfile:
    """Mass profile m(x) >= 0 with first and second derivatives."""

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
                      domain: Interval = (-math.inf, math.inf),
                      validate: bool = True) -> "MassProfile":
        fd = deriv1 is None or deriv2 is None
        if deriv1 is None:
            def deriv1(x, _f=func):
                x = np.asarray(x, dtype=float)
                h = np.finfo(float).eps ** (1 / 3) * (1.0 + np.abs(x))
                return _central_diff(_f, x, h)
        if deriv2 is None:
            def deriv2(x, _f=func):
                x = np.asarray(x, dtype=float)
                h = np.finfo(float).eps ** 0.25 * (1.0 + np.abs(x))
                return _central_diff2(_f, x, h)
        prof = cls(func, deriv1, deriv2, domain)
        if validate:
            prof.validate(check_derivatives=not fd)
        return prof

    def validate(self, check_derivatives: bool = True) -> None:
        xs = interior_sample(self.domain)
        with np.errstate(over="ignore"):
            m = np.asarray(self.func(xs), dtype=float)
        bad = m < 0
        if bad.any():
            raise InvalidParameterError(
                f"mass profile must be non-negative; m({xs[bad][0]:.6g}) = {m[bad][0]:.6g}"
            )
        if check_derivatives:
            _check_derivative(self.func, self.dfunc, self.domain, 1, "mass")
            _check_derivative(self.func, self.d2func, self.domain, 2, "mass (2nd)")


@dataclass(frozen=True)
class ModelSpec:
    """A mass/velocity pair on a shared domain, plus model metadata.

    ``anchor`` is the reference point where the canonical map q(x) vanishes;
    ``u_closed`` holds closed forms (u, u', u'') when the product admits an
    exact simplification. ``map_key`` names the map q(x): two specs with
    equal non-None keys have the same velocity, domain and anchor, so one
    ``build_transform`` result serves both. ``None`` means never shared.
    """

    name: str
    mass: MassProfile
    velocity: VelocityProfile
    domain: Interval
    params: Mapping[str, float]
    label: str
    anchor: float
    u_closed: Optional[Tuple[Callable, Callable, Callable]] = None
    map_key: Optional[Hashable] = None

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


def product_u(model: ModelSpec, x):
    """u = m v_F^2 and its first two x-derivatives at x (strictly interior).

    Built-in models use their closed forms; otherwise the product rule is
    applied to the profile derivatives.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(model.contains(x_arr)):
        lo, hi = model.domain
        raise DomainError(f"x must lie strictly inside ({lo:g}, {hi:g})")
    if model.u_closed is not None:
        u, u1, u2 = model.u_closed
        res = (u(x_arr), u1(x_arr), u2(x_arr))
    else:
        m = model.mass(x_arr)
        m1 = model.mass.deriv1(x_arr)
        m2 = model.mass.deriv2(x_arr)
        v = model.velocity(x_arr)
        v1 = model.velocity.deriv1(x_arr)
        v2 = model.velocity.deriv2(x_arr)
        res = (
            m * v * v,
            m1 * v * v + 2.0 * m * v * v1,
            m2 * v * v + 4.0 * m1 * v * v1 + 2.0 * m * (v1 * v1 + v * v2),
        )
    if np.isscalar(x) or np.ndim(x) == 0:
        return tuple(float(np.asarray(r)) for r in res)
    return tuple(np.broadcast_to(np.asarray(r, dtype=float), x_arr.shape).copy()
                 for r in res)


def detect_constant_u(model: ModelSpec, tol: float = 1e-12) -> Optional[float]:
    """Return A when u(x) = m v_F^2 is constant to ``tol``, else None.

    Constancy is certified by dense sampling (deterministic grid), not
    symbolically; the reference value is u at the model anchor.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    u0, _, _ = product_u(model, model.anchor)
    xs = interior_sample(model.domain)
    u, _, _ = product_u(model, xs)
    if not np.all(np.isfinite(u)):
        return None
    if np.max(np.abs(u - u0)) <= tol * max(1.0, abs(u0)):
        return float(u0)
    return None


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

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


def _cosh_square(params) -> ModelSpec:
    p = _require(params, "cosh_square", ("alpha", "v0", "m0"), {"alpha", "v0"}, {"m0"})
    a, v0, m0 = p["alpha"], p["v0"], p["m0"]
    dom = (-math.inf, math.inf)
    vel = VelocityProfile(
        func=lambda x: v0 * np.cosh(a * x) ** 2,
        dfunc=lambda x: a * v0 * np.sinh(2.0 * a * x),
        d2func=lambda x: 2.0 * a * a * v0 * np.cosh(2.0 * a * x),
        domain=dom,
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
    u_closed = (
        lambda x: A + 0.0 * np.asarray(x, dtype=float),
        lambda x: 0.0 * np.asarray(x, dtype=float),
        lambda x: 0.0 * np.asarray(x, dtype=float),
    )
    return ModelSpec("cosh_square", mass, vel, dom, p,
                     "cosh^2 velocity / sech^4 mass", anchor=0.0, u_closed=u_closed,
                     map_key=("cosh_square", a, v0))


def _rational(params) -> ModelSpec:
    p = _require(params, "rational", ("alpha", "v0", "m0"), {"alpha", "v0"}, {"m0"})
    a, v0, m0 = p["alpha"], p["v0"], p["m0"]
    dom = (-math.inf, math.inf)
    vel = VelocityProfile(
        func=lambda x: v0 * (1.0 + (a * x) ** 2),
        dfunc=lambda x: 2.0 * a * a * v0 * np.asarray(x, dtype=float),
        d2func=lambda x: 2.0 * a * a * v0 + 0.0 * np.asarray(x, dtype=float),
        domain=dom,
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
    u_closed = (
        lambda x: A + 0.0 * np.asarray(x, dtype=float),
        lambda x: 0.0 * np.asarray(x, dtype=float),
        lambda x: 0.0 * np.asarray(x, dtype=float),
    )
    return ModelSpec("rational", mass, vel, dom, p,
                     "rational velocity / rational mass", anchor=0.0, u_closed=u_closed,
                     map_key=("rational", a, v0))


def _poschl_teller(params) -> ModelSpec:
    p = _require(params, "poschl_teller", ("alpha", "v0", "m0"), {"alpha", "v0"}, {"m0"})
    a, v0, m0 = p["alpha"], p["v0"], p["m0"]
    dom = (0.0, math.pi / a)  # first hole between two mass singularities
    vel = VelocityProfile(
        func=lambda x: v0 + 0.0 * np.asarray(x, dtype=float),
        dfunc=lambda x: 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
    )
    mass = MassProfile(
        func=lambda x: m0 / np.sin(a * x),
        dfunc=lambda x: -a * m0 * np.cos(a * x) / np.sin(a * x) ** 2,
        d2func=lambda x: a * a * m0 * (1.0 + np.cos(a * x) ** 2) / np.sin(a * x) ** 3,
        domain=dom,
    )
    c = m0 * v0 * v0
    u_closed = (
        lambda x: c / np.sin(a * x),
        lambda x: -a * c * np.cos(a * x) / np.sin(a * x) ** 2,
        lambda x: a * a * c * (1.0 + np.cos(a * x) ** 2) / np.sin(a * x) ** 3,
    )
    return ModelSpec("poschl_teller", mass, vel, dom, p,
                     "constant velocity / 1/sin mass",
                     anchor=math.pi / (2.0 * a), u_closed=u_closed,
                     map_key=("poschl_teller", a, v0))


def _linear_singular(params) -> ModelSpec:
    p = _require(params, "linear_singular", ("A", "v0"), {"v0"}, {"A"})
    A, v0 = p["A"], p["v0"]
    dom = (0.0, math.inf)
    vel = VelocityProfile(
        func=lambda x: v0 * np.asarray(x, dtype=float),
        dfunc=lambda x: v0 + 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
    )
    mass = MassProfile(
        func=lambda x: A / np.asarray(x, dtype=float),
        dfunc=lambda x: -A / np.asarray(x, dtype=float) ** 2,
        d2func=lambda x: 2.0 * A / np.asarray(x, dtype=float) ** 3,
        domain=dom,
    )
    u_closed = (
        lambda x: A * v0 * v0 * np.asarray(x, dtype=float),
        lambda x: A * v0 * v0 + 0.0 * np.asarray(x, dtype=float),
        lambda x: 0.0 * np.asarray(x, dtype=float),
    )
    return ModelSpec("linear_singular", mass, vel, dom, p,
                     "linear velocity / 1/x mass", anchor=1.0, u_closed=u_closed,
                     map_key=("linear_singular", v0))


def _constant_rest(params) -> ModelSpec:
    p = _require(params, "constant_rest", ("m0", "c"), {"c"}, {"m0"})
    m0, c = p["m0"], p["c"]
    dom = (-math.inf, math.inf)
    vel = VelocityProfile(
        func=lambda x: c + 0.0 * np.asarray(x, dtype=float),
        dfunc=lambda x: 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
    )
    mass = MassProfile(
        func=lambda x: m0 + 0.0 * np.asarray(x, dtype=float),
        dfunc=lambda x: 0.0 * np.asarray(x, dtype=float),
        d2func=lambda x: 0.0 * np.asarray(x, dtype=float),
        domain=dom,
    )
    A = m0 * c * c
    u_closed = (
        lambda x: A + 0.0 * np.asarray(x, dtype=float),
        lambda x: 0.0 * np.asarray(x, dtype=float),
        lambda x: 0.0 * np.asarray(x, dtype=float),
    )
    return ModelSpec("constant_rest", mass, vel, dom, p,
                     "constant rest mass and velocity", anchor=0.0, u_closed=u_closed,
                     map_key=("constant_rest", c))


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
    model.velocity.validate(check_derivatives=False)
    model.mass.validate(check_derivatives=False)
    return model
