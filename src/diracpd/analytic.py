"""Closed-form spectra and wavefunctions for the built-in models.

Every formula carries a provenance flag. ``verified`` means the expression
is consistent with direct evaluation of the defining equations (and with
the numeric solver); ``as_published`` marks printed forms that contradict
that evaluation, which are still exposed for side-by-side reports but must
never be asserted against at hard tolerance.

Known as-published cases:

* the 1/sin^2 model's s-parameter: the printed radical sqrt(m0^2 a^2 - 1/16)
  is dimensionally inconsistent with the potential the model actually
  produces, whose coefficient gives s(s-1) = m0^2 v0^2 / a^2 - 5/16;
* the linear-velocity/singular-mass model: its printed harmonic-oscillator
  spectrum follows from a potential that direct evaluation contradicts
  (the true reduced potential is exponential in q and supports no bound
  states at all).

The special functions the wavefunctions need (physicists' Hermite, the
terminating 2F1 sum) are implemented in-module so the oracle stays
dependency-free and bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Tuple

import numpy as np

from .errors import (
    AsPublishedWarning,
    DomainError,
    ImaginaryEnergyError,
    InvalidParameterError,
)
from .profiles import builtin_model, s_parameter

VERIFIED = "verified"
AS_PUBLISHED = "as_published"


@dataclass(frozen=True)
class AnalyticSpectrum:
    model: str
    n: int
    e_plus: float
    e_minus: float
    provenance: str


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


def _params_get(params: Mapping[str, float], *names) -> Tuple[float, ...]:
    out = []
    for name in names:
        if name not in params:
            raise InvalidParameterError(f"missing parameter {name!r}")
        out.append(float(params[name]))
    return tuple(out)


def spectrum_entry(model: str, n: int, params: Mapping[str, float],
                   as_published: bool = False, exact: bool = False) -> AnalyticSpectrum:
    """Closed-form energy pair for one level, with provenance.

    poschl_teller's verified approximate-mode entry n is the full ladder
    (alpha v0 / 4) sqrt(1 + 16 (s + n)^2); the published family s + 2n skips
    its odd members, and ``as_published`` gives that family with the printed
    radical for s. ``exact`` gives the exact-mode ladder
    m0 v0^2 + alpha v0 (n + 1/2), for g = m0 v0 / alpha >= 1/2; it has no
    as-published counterpart, so ``exact`` with ``as_published`` raises.
    """
    key = model.strip().lower().replace("-", "_")
    if key in ("cosh_square", "rational"):
        if n < 1:
            raise InvalidParameterError("level index starts at n=1 for this model")
        a, v0, m0 = _params_get(params, "alpha", "v0", "m0")
        lam = n * math.pi * a * v0 / 2.0 if key == "cosh_square" else n * a * v0
        e = math.hypot(lam, m0 * v0 * v0)
        return AnalyticSpectrum(key, n, e, -e, VERIFIED)
    if key == "poschl_teller":
        if n < 0:
            raise InvalidParameterError("level index starts at n=0 for this model")
        a, v0, m0 = _params_get(params, "alpha", "v0", "m0")
        if exact and as_published:
            raise InvalidParameterError("the published (s+2n) family is an approximate-mode "
                                        "claim; exact mode has no as-published ladder")
        if exact:
            if m0 * v0 / a < 0.5:
                raise InvalidParameterError(f"exact ladder needs g >= 1/2, got {m0 * v0 / a:g}")
            e = m0 * v0 * v0 + a * v0 * (n + 0.5)
            return AnalyticSpectrum(key, n, e, -e, VERIFIED)
        s = s_parameter(a, v0, m0, as_published=as_published)
        e = (a * v0 / 4.0) * math.sqrt(1.0 + 16.0 * (s + (2 * n if as_published else n)) ** 2)
        prov = AS_PUBLISHED if as_published else VERIFIED
        return AnalyticSpectrum(key, n, e, -e, prov)
    if key == "linear_singular":
        if n < 0:
            raise InvalidParameterError("level index starts at n=0 for this model")
        big_a, v0 = _params_get(params, "A", "v0")
        radicand = big_a * v0 ** 3 * (2 * n + 1) - v0 * v0 / 16.0
        if radicand < 0:
            raise ImaginaryEnergyError(
                f"published spectrum gives E^2 = {radicand:g} < 0 at n={n}"
            )
        e = math.sqrt(radicand)
        return AnalyticSpectrum(key, n, e, -e, AS_PUBLISHED)
    if key == "constant_rest":
        if n != 0:
            raise InvalidParameterError("the free constant-mass model has only E = +/- m0 c^2")
        m0, c = _params_get(params, "m0", "c")
        e = m0 * c * c
        return AnalyticSpectrum(key, n, e, -e, VERIFIED)
    raise InvalidParameterError(f"no closed-form spectrum for model {model!r}")


def spectrum_value(model: str, n: int, params: Mapping[str, float],
                   as_published: bool = False) -> Tuple[float, float]:
    entry = spectrum_entry(model, n, params, as_published=as_published)
    return entry.e_plus, entry.e_minus


# ---------------------------------------------------------------------------
# Closed-form wavefunctions
# ---------------------------------------------------------------------------

def _raw_components(model: str, n: int, params: Mapping[str, float],
                    x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalized (psi1, psi2) on x for the positive-energy branch."""
    key = model.strip().lower().replace("-", "_")
    if key in ("cosh_square", "rational"):
        a, v0, m0 = _params_get(params, "alpha", "v0", "m0")
        e = spectrum_entry(key, n, params).e_plus
        z1, z2 = e - m0 * v0 * v0, e + m0 * v0 * v0
        if key == "cosh_square":
            theta = 0.5 * n * math.pi * (np.tanh(a * x) + 1.0)
            with np.errstate(over="ignore"):  # cosh overflow far out -> sech = 0
                env = 1.0 / np.cosh(a * x)
        else:
            theta = n * (np.arctan(a * x) + math.pi / 2.0)
            env = 1.0 / np.sqrt(1.0 + (a * x) ** 2)
        psi1 = np.sqrt(z2 / v0) * env * np.sin(theta) + 0j
        psi2 = -1j * np.sqrt(z1 / v0) * env * np.cos(theta)
        return psi1, psi2
    if key == "poschl_teller":
        a, v0, m0 = _params_get(params, "alpha", "v0", "m0")
        s = s_parameter(a, v0, m0)
        e = spectrum_entry(key, 2 * n, params).e_plus  # the published family's n-th state

        def psi1_tilde(t):
            # sqrt(v0) * psi1, the quantity the component relation differentiates
            z2 = e + m0 * v0 * v0 / np.sin(a * t)
            return (np.sqrt(z2) * np.sin(a * t) ** s
                    * hyp2f1_polynomial(n, s + n, s + 0.5, np.sin(a * t) ** 2))

        lo, hi = 0.0, math.pi / a
        if np.any(x <= lo) or np.any(x >= hi):
            raise DomainError(f"x must lie inside (0, {hi:g})")
        z2 = e + m0 * v0 * v0 / np.sin(a * x)
        psi1 = psi1_tilde(x) / math.sqrt(v0) + 0j
        h = np.minimum(1e-6 * (hi - lo), np.minimum(x - lo, hi - x) / 3.0)
        dpt = (psi1_tilde(x + h) - psi1_tilde(x - h)) / (2.0 * h)
        psi2 = -1j * (v0 * dpt) / (z2 * math.sqrt(v0))
        return psi1, psi2
    if key == "linear_singular":
        big_a, v0 = _params_get(params, "A", "v0")
        warnings.warn(
            "linear_singular wavefunctions follow the as-published oscillator "
            "solution, which direct evaluation of the reduced potential "
            "contradicts", AsPublishedWarning, stacklevel=3)
        e = spectrum_entry(key, n, params).e_plus

        def psi1_tilde(t):
            y = np.sqrt(big_a * v0) * np.log(t)
            z2 = e + big_a * v0 * v0 * t
            return (np.sqrt(z2) * np.exp(-0.5 * big_a * v0 * np.log(t) ** 2)
                    * hermite(n, y))

        if np.any(x <= 0):
            raise DomainError("x must be positive")
        z2 = e + big_a * v0 * v0 * x
        vf = v0 * x
        psi1 = psi1_tilde(x) / np.sqrt(vf) + 0j
        h = 1e-7 * x
        dpt = (psi1_tilde(x + h) - psi1_tilde(x - h)) / (2.0 * h)
        psi2 = -1j * (vf * dpt) / (z2 * np.sqrt(vf))
        return psi1, psi2
    raise InvalidParameterError(f"no closed-form wavefunction for model {model!r}")


@lru_cache(maxsize=256)
def _numeric_norm_cached(model: str, n: int, params_key: Tuple[Tuple[str, float], ...]) -> float:
    from scipy import integrate  # QUADPACK: an oracle independent of the map's quadrature

    params = dict(params_key)

    def rho(t):
        p1, p2 = _raw_components(model, n, params, np.asarray([t]))
        return float(np.abs(p1[0]) ** 2 + np.abs(p2[0]) ** 2)

    lo, hi = builtin_model(model, **params).domain
    total, _ = integrate.quad(rho, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)
    return 1.0 / math.sqrt(total)


def numeric_normalization(model: str, n: int, params: Mapping[str, float]) -> float:
    """1/sqrt of the quadrature of the closed-form density (always trustworthy).

    The quadrature is QUADPACK's (``scipy.integrate.quad``) over the whole,
    possibly infinite, domain; ``scipy.integrate`` is imported on the first
    call, so only callers of this oracle pay for loading it.
    """
    key = model.strip().lower().replace("-", "_")
    params_key = tuple(sorted((k, float(v)) for k, v in params.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsPublishedWarning)
        return _numeric_norm_cached(key, n, params_key)


def published_normalization(model: str, n: int,
                            params: Mapping[str, float]) -> Tuple[float, str]:
    """The printed normalization constant, with provenance.

    The arctan-velocity model's printed constant is exact for the discrete
    states (verified); the cosh model's printed general form disagrees with
    direct quadrature and is exposed as-published (its massless limit
    sqrt(a v0 / 2 E_n) is exact).
    """
    key = model.strip().lower().replace("-", "_")
    if key == "rational":
        a, v0, m0 = _params_get(params, "alpha", "v0", "m0")
        e = spectrum_entry(key, n, params).e_plus
        z1 = e - m0 * v0 * v0
        return math.sqrt(a * v0 / (math.pi * z1 + math.pi * m0 * v0 * v0)), VERIFIED
    if key == "cosh_square":
        a, v0, m0 = _params_get(params, "alpha", "v0", "m0")
        e = spectrum_entry(key, n, params).e_plus
        if m0 == 0.0:
            return math.sqrt(a * v0 / (2.0 * e)), VERIFIED
        lam = n * math.pi * a * v0 / 2.0
        z1 = e - m0 * v0 * v0
        return (math.sqrt(a * v0 * lam / (2.0 * (lam * z1 + 2.0 * a * m0 * v0 ** 4))),
                AS_PUBLISHED)
    raise InvalidParameterError(f"no printed normalization for model {model!r}")


def bound_spinor(model: str, n: int, params: Mapping[str, float], x,
                 normalized: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the printed closed-form components at x.

    ``normalized=True`` applies the numeric normalization constant (cached
    per model/level); the bare printed shapes come back otherwise.
    poschl_teller's n counts the published family: its state n is level 2n.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    psi1, psi2 = _raw_components(model.strip().lower().replace("-", "_"),
                                 n, params, x_arr)
    if normalized:
        factor = numeric_normalization(model, n, params)
        psi1, psi2 = psi1 * factor, psi2 * factor
    if np.ndim(x) == 0:
        return psi1[0], psi2[0]
    return psi1, psi2
