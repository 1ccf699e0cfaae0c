"""Closed-form spectra and wavefunctions of the built-in models, by name.

Each function builds the named model and reads its ``ModelFacts`` record
(``profiles.py``): the level ladder, spinor and printed normalization, each
with its provenance (``VERIFIED`` or ``AS_PUBLISHED``) and, where printed
forms contradict direct evaluation, the note that says how.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import Mapping, Tuple

import numpy as np

from .errors import AsPublishedWarning, InvalidParameterError
from .profiles import (  # the closed-form types and special functions are re-exported
    AS_PUBLISHED,
    VERIFIED,
    AnalyticSpectrum,
    ModelSpec,
    builtin_model,
    hermite,
    hyp2f1_polynomial,
    s_parameter,
)


def _closed_form(model: ModelSpec, field: str, what: str):
    """The model's ``ModelFacts`` closed form ``field``, or InvalidParameterError."""
    form = getattr(model.facts, field)
    if form is None:
        raise InvalidParameterError(f"no closed-form {what} for model {model.name!r}")
    return form


def spectrum_entry(model: str, n: int, params: Mapping[str, float],
                   as_published: bool = False, exact: bool = False) -> AnalyticSpectrum:
    """Closed-form energy pair for one level, with provenance (``ModelFacts.level``)."""
    level = _closed_form(builtin_model(model, **params), "level", "spectrum")
    return level(n, as_published=as_published, exact=exact)


def spectrum_value(model: str, n: int, params: Mapping[str, float],
                   as_published: bool = False) -> Tuple[float, float]:
    entry = spectrum_entry(model, n, params, as_published=as_published)
    return entry.e_plus, entry.e_minus


# ---------------------------------------------------------------------------
# Closed-form wavefunctions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _numeric_norm_cached(model: str, n: int, params_key: Tuple[Tuple[str, float], ...]) -> float:
    from scipy import integrate  # QUADPACK: an oracle independent of the map's quadrature

    spec = builtin_model(model, **dict(params_key))
    components = _closed_form(spec, "components", "wavefunction")

    def rho(t):
        p1, p2 = components(n, np.asarray([t]))
        return float(np.abs(p1[0]) ** 2 + np.abs(p2[0]) ** 2)

    lo, hi = spec.domain
    total, _ = integrate.quad(rho, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)
    return 1.0 / math.sqrt(total)


def numeric_normalization(model: str, n: int, params: Mapping[str, float]) -> float:
    """1/sqrt of the quadrature of the closed-form density (always trustworthy).

    The quadrature is QUADPACK's (``scipy.integrate.quad``) over the whole,
    possibly infinite, domain; ``scipy.integrate`` is imported on the first
    call, so only callers of this oracle pay for loading it.
    """
    params_key = tuple(sorted((k, float(v)) for k, v in params.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsPublishedWarning)
        return _numeric_norm_cached(model, n, params_key)


def published_normalization(model: str, n: int,
                            params: Mapping[str, float]) -> Tuple[float, str]:
    """The printed normalization constant, with provenance (``ModelFacts.printed_norm``)."""
    printed = _closed_form(builtin_model(model, **params), "printed_norm",
                           "printed normalization")
    return printed(n)


def bound_spinor(model: str, n: int, params: Mapping[str, float], x,
                 normalized: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the printed closed-form components at x (``ModelFacts.components``).

    ``normalized=True`` applies the numeric normalization constant (cached
    per model/level); the bare printed shapes come back otherwise.
    poschl_teller's n counts the published family: its state n is level 2n.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    components = _closed_form(builtin_model(model, **params), "components", "wavefunction")
    psi1, psi2 = components(n, x_arr)
    if normalized:
        factor = numeric_normalization(model, n, params)
        psi1, psi2 = psi1 * factor, psi2 * factor
    if np.ndim(x) == 0:
        return psi1[0], psi2[0]
    return psi1, psi2
