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


_EPS = float(np.finfo(float).eps)
_STEP_POWER = {1: 1 / 3, 2: 1 / 4}  # roundoff-optimal central-difference steps


def _central_diff(f, x, h, order):
    """The order-th central difference of f at x, and a bound on its roundoff."""
    fp, fm = f(x + h), f(x - h)
    if order == 1:
        return (fp - fm) / (2.0 * h), _EPS * (np.abs(fp) + np.abs(fm)) / (2.0 * h)
    f0 = f(x)
    return ((fp - 2.0 * f0 + fm) / (h * h),
            _EPS * (np.abs(fp) + 2.0 * np.abs(f0) + np.abs(fm)) / (h * h))


def _fd_derivative(f, order):
    """f' or f'' of f by a central difference, step eps^(1/3) or eps^(1/4) times 1 + |x|."""
    def deriv(x):
        x = np.asarray(x, dtype=float)
        return _central_diff(f, x, _EPS ** _STEP_POWER[order] * (1.0 + np.abs(x)), order)[0]
    return deriv


def _check_derivative(prof: _Profile, order: int) -> None:
    """Verify an analytic derivative against central differences at steps h and 2h.

    h is eps^(1/3) (eps^(1/4) for f'') times min(1 + |x|, distance to a
    finite wall). A point passes when |FD_h - f'| <= 1e-6 max(|f'|, |FD_h|)
    + 2 |FD_h - FD_2h| + 8 roundoff: FD_h - FD_2h estimates the truncation
    error, so zero crossings, exact zeros and steps shrunk at a wall pass.
    Points where the function overflows (cosh far out, etc.) are skipped:
    finite differences are meaningless there.
    """
    xs = interior_sample(prof.domain)
    lo, hi = prof.domain
    h = _EPS ** _STEP_POWER[order] * np.minimum(1.0 + np.abs(xs),
                                                np.minimum(xs - lo, hi - xs))

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
            & (np.abs(fx) < 1e100))
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
        prof = cls(func, _fd_derivative(func, 1) if deriv1 is None else deriv1,
                   _fd_derivative(func, 2) if deriv2 is None else deriv2, domain)
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


class VelocityProfile(_Profile):
    """Fermi-velocity profile v_F(x) > 0 with its first two derivatives."""

    _noun, _rule = "velocity", "positive inside the domain"

    @staticmethod
    def _admissible(v):
        return v > 0


class MassProfile(_Profile):
    """Mass profile m(x) >= 0 (NaN rejected) with its first two derivatives."""

    _noun, _rule = "mass", "non-negative"

    @staticmethod
    def _admissible(m):
        return m >= 0


@dataclass(frozen=True)
class ModelFacts:
    """What the CLI knows of a model beyond its profiles.

    ``first_level``: closed-form index of the lowest level. ``claims``:
    (label, V(q)) potentials ``report`` compares with the approximate one,
    on a grid cut at |q| = ``q_bound`` on an infinite side. ``published``:
    the as-published level family, every ``published_stride``-th member of
    the verified ladder (stride 0: no verified ladder; listed alone).
    ``parameters``: (label, thunk) pairs the report prints before the
    levels; a thunk raises InvalidParameterError where it is complex.
    """

    first_level: int = 0
    claims: Tuple[Tuple[str, Callable], ...] = ()
    q_bound: float = 8.0
    published: str = ""
    published_stride: int = 0
    parameters: Tuple[Tuple[str, Callable[[], float]], ...] = ()


@dataclass(frozen=True)
class ModelSpec:
    """A mass/velocity pair on a shared domain, plus model metadata.

    ``anchor`` is the reference point where the canonical map q(x) vanishes;
    ``u_closed`` holds closed forms (u, u', u'') when the product admits an
    exact simplification. ``map_key`` names the map q(x): two specs with
    equal non-None keys have the same velocity, domain and anchor, so one
    ``build_transform`` result serves both. ``None`` means never shared.
    ``facts`` carries the model's closed-form bookkeeping (``ModelFacts``).
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


def detect_constant_u(model: ModelSpec, tol: float = 1e-10) -> Optional[float]:
    """Return A when u(x) = m v_F^2 is constant to ``tol``, else None.

    Constancy is certified by dense sampling (deterministic grid), not
    symbolically; the reference value is u at the model anchor. A sample
    where the product overflows is not finite, so it is not constant.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    u0, _, _ = product_u(model, model.anchor)
    with np.errstate(all="ignore"):
        u, _, _ = product_u(model, interior_sample(model.domain))
    if not np.all(np.isfinite(u)):
        return None
    if np.max(np.abs(u - u0)) <= tol * max(1.0, abs(u0)):
        return float(u0)
    return None


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def s_parameter(alpha: float, v0: float, m0: float,
                as_published: bool = False) -> float:
    """The s > 1 root of the poschl_teller 1/sin^2 coefficient.

    Verified: s(s-1) = m0^2 v0^2 / alpha^2 - 5/16, i.e.
    s = 1/2 + sqrt(m0^2 v0^2 / alpha^2 - 1/16). The as-published switch
    evaluates the printed radical sqrt(m0^2 alpha^2 - 1/16) instead.
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


def _constant_u(A: float, first_level: int = 0):
    """u_closed and facts of a model with m v_F^2 = A identically."""
    def zero(x):
        return 0.0 * np.asarray(x, dtype=float)

    claims = ((("constant A^2", lambda q: np.full_like(np.asarray(q, dtype=float), A * A)),)
              if A > 0 else ())  # a massless model's potential is identically zero
    return (lambda x: A + zero(x), zero, zero), ModelFacts(first_level, claims)


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
    u_closed, facts = _constant_u(m0 * v0 * v0, first_level=1)
    return ModelSpec("cosh_square", mass, vel, dom, p,
                     "cosh^2 velocity / sech^4 mass", anchor=0.0, u_closed=u_closed,
                     map_key=("cosh_square", a, v0), facts=facts)


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
    u_closed, facts = _constant_u(m0 * v0 * v0, first_level=1)
    return ModelSpec("rational", mass, vel, dom, p,
                     "rational velocity / rational mass", anchor=0.0, u_closed=u_closed,
                     map_key=("rational", a, v0), facts=facts)


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
    x0 = math.pi / (2.0 * a)

    def claimed(q):  # x = x0 + v0 q, with q anchored at the hole center x0
        coeff = m0 * m0 * v0 ** 4 - 5.0 * a * a * v0 * v0 / 16.0
        return a * a * v0 * v0 / 16.0 + coeff / np.sin(a * (x0 + v0 * q)) ** 2

    facts = ModelFacts(
        claims=(("closed form (verified coefficient)", claimed),),
        published="published (s+2n) sequence (interleaved levels are genuine "
                  "states the published solution family skips)",
        published_stride=2,
        parameters=(("s (verified)", lambda: s_parameter(a, v0, m0)),
                    ("s (as-published)", lambda: s_parameter(a, v0, m0, as_published=True))))
    return ModelSpec("poschl_teller", mass, vel, dom, p,
                     "constant velocity / 1/sin mass", anchor=x0, u_closed=u_closed,
                     map_key=("poschl_teller", a, v0), facts=facts)


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
    omega = 2.0 * A * v0 ** 3
    facts = ModelFacts(
        claims=(("exponential closed form",
                 lambda q: A ** 2 * v0 ** 4 * np.exp(2.0 * v0 * q) - v0 * v0 / 16.0),
                ("published harmonic form", lambda q: 0.25 * omega * omega * q * q)),
        q_bound=4.0,
        published="published oscillator energies (as-published; the reduced "
                  "potential is exponential and supports no bound states)")
    return ModelSpec("linear_singular", mass, vel, dom, p,
                     "linear velocity / 1/x mass", anchor=1.0, u_closed=u_closed,
                     map_key=("linear_singular", v0), facts=facts)


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
    u_closed, facts = _constant_u(m0 * c * c)
    return ModelSpec("constant_rest", mass, vel, dom, p,
                     "constant rest mass and velocity", anchor=0.0, u_closed=u_closed,
                     map_key=("constant_rest", c), facts=facts)


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
