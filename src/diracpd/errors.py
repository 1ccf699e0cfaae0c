"""Exception types shared across the package, and the text of the bounds they name."""


class NumericalError(Exception):
    """A computation failed on valid input: the root of every exit-3 error."""


class InvalidParameterError(ValueError):
    """A model or operation parameter is missing or out of range."""


class DomainError(ValueError, NumericalError):
    """A coordinate lies at or outside the allowed open interval."""


class QuadratureFailureError(RuntimeError, NumericalError):
    """Adaptive quadrature could not reach the requested accuracy.

    Carries the partial estimate in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ZetaCrossingError(RuntimeError, NumericalError):
    """zeta_2(x) = E + m v_F^2 changes sign inside the domain.

    The component reduction divides by zeta_2, so the requested energy is
    inadmissible; the caller must restrict E.
    """


class ApproximationInvalidError(ValueError, NumericalError):
    """The energy-independent effective potential needs m(x) > 0."""


class SingularNodeError(RuntimeError, NumericalError):
    """A grid node carries a non-finite value where a finite one is required."""


class NonConvergenceError(RuntimeError, NumericalError):
    """An iteration exceeded its budget. Carries the iterate ``history``."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class InsufficientResolutionError(ValueError, NumericalError):
    """More eigenstates were requested than the grid can resolve."""


class ImaginaryEnergyError(ValueError, NumericalError):
    """lambda + offset < 0: the energy would be imaginary (unphysical regime)."""


class UnboundedBelowError(ValueError, NumericalError):
    """V ~ c / d^2 at a wall with c < -1/4: by Hardy's inequality V has no
    lowest level, so no grid converges to a bound state."""


class NonNormalizableError(RuntimeError, NumericalError):
    """The state's total probability is divergent or zero."""


class SubGapError(ValueError, NumericalError):
    """Requested energy satisfies E^2 < A^2, below the constant-u gap."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


class AsPublishedWarning(UserWarning):
    """Emitted when a value comes from a formula flagged as-published."""


def sides(value: float, bound: float) -> tuple[str, str]:
    """``value`` and ``bound`` in %g text with the fewest significant digits, six
    at least, at which the printed value reads on the side of the printed bound
    that ``value`` is on (a bound check's message never contradicts itself)."""
    for digits in range(6, 17):
        shown = f"{value:.{digits}g}", f"{bound:.{digits}g}"
        a, b = map(float, shown)
        if (a < b, a > b) == (value < bound, value > bound):
            return shown
    return f"{value:.17g}", f"{bound:.17g}"  # round-trips, so on its side
