"""Dirichlet eigensolver for -phi'' + V(q) phi = lambda phi on uniform grids.

The discrete operator is the symmetric tridiagonal second-difference matrix
plus diag(V); eigenvalues come from bisection over Sturm sequences with
inverse iteration for the vectors (LAPACK, via scipy.linalg.eigh_tridiagonal),
then one Richardson step over (h, h/2) removes the leading O(h^2) error.
Interior sign changes of each vector give the oscillation count for free.

In constant-u mode the operator solved is the free one and the constant
A^2 is kept as a spectral offset, so lambda is exactly E^2 - A^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ImaginaryEnergyError,
    InsufficientResolutionError,
    InvalidParameterError,
    NonConvergenceError,
    SingularNodeError,
)
from .potential import CONSTANT_U, PotentialField, QGrid, exact_potential
from .profiles import ModelSpec
from .transform import TransformMap


@dataclass(frozen=True)
class EigenPair:
    """One converged state: refined eigenvalue, vector on the base grid."""

    lam: float
    phi: np.ndarray
    grid: QGrid
    nodes: int
    error_estimate: float


@dataclass(frozen=True)
class SpectrumResult:
    pairs: Tuple[EigenPair, ...]
    energies: Tuple[Tuple[float, float], ...]
    mode: str
    offset: float
    iterations: Tuple[int, ...]


def energies_from_lambda(lam: float, offset: float) -> Tuple[float, float]:
    """E = +/- sqrt(lam + offset); raises when the radicand is negative."""
    radicand = lam + offset
    if radicand < 0:
        raise ImaginaryEnergyError(
            f"lambda + offset = {radicand:g} < 0: energy would be imaginary"
        )
    e = math.sqrt(radicand)
    return e, -e


def count_nodes(phi: np.ndarray) -> int:
    """Interior sign changes, ignoring near-zero samples."""
    tol = 1e-9 * float(np.max(np.abs(phi)))
    sig = phi[np.abs(phi) > tol]
    if sig.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(sig)) != 0))


def _canonical_sign(phi: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(phi)))
    return -phi if phi[i] < 0 else phi


def _tridiag_eigs(values: np.ndarray, h: float, k: int,
                  with_vectors: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    n = values.size
    diag = 2.0 / (h * h) + values
    off = np.full(n - 1, -1.0 / (h * h))
    if with_vectors:
        w, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
        return w, vecs
    w = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                         eigvals_only=True)
    return w, None


def solve_fixed(potential: PotentialField, k_states: int) -> SpectrumResult:
    """Lowest k_states eigenpairs of the fixed potential.

    Eigenvalues are Richardson-refined over (h, h/2) with
    error_estimate = |lam_h - lam_{h/2}| / 3; eigenvectors live on the
    base grid, normalized so that sum(phi^2) h = 1.
    """
    if k_states < 1:
        raise InvalidParameterError("k_states must be >= 1")
    grid = potential.grid
    if np.any(potential.singular):
        raise SingularNodeError(
            "potential carries singular interior nodes; shrink the grid or "
            "use an offset grid"
        )
    if k_states > grid.n // 2:
        raise InsufficientResolutionError(
            f"cannot resolve {k_states} states on {grid.n} nodes"
        )

    if potential.mode == CONSTANT_U:
        offset = float(potential.constant_a) ** 2
        base_vals = potential.values - offset  # exactly zero
    else:
        offset = 0.0
        base_vals = potential.values

    w, vecs = _tridiag_eigs(base_vals, grid.h, k_states, with_vectors=True)

    fine = potential.on_grid(grid.refined())
    fine_vals = fine.values - offset if potential.mode == CONSTANT_U else fine.values
    if np.any(fine.singular):
        raise SingularNodeError("refined grid produced singular nodes")
    w_fine, _ = _tridiag_eigs(fine_vals, fine.grid.h, k_states, with_vectors=False)

    pairs: List[EigenPair] = []
    energies: List[Tuple[float, float]] = []
    for k in range(k_states):
        lam_r = (4.0 * w_fine[k] - w[k]) / 3.0
        err = abs(w[k] - w_fine[k]) / 3.0
        phi = _canonical_sign(vecs[:, k])
        phi = phi / math.sqrt(float(np.sum(phi * phi)) * grid.h)
        pairs.append(EigenPair(lam=float(lam_r), phi=phi, grid=grid,
                               nodes=count_nodes(phi), error_estimate=float(err)))
        energies.append(energies_from_lambda(lam_r, offset))

    return SpectrumResult(pairs=tuple(pairs), energies=tuple(energies),
                          mode=potential.mode, offset=offset,
                          iterations=tuple([1] * k_states))


def solve_self_consistent(model: ModelSpec, tmap: TransformMap, grid: QGrid,
                          state_index: int, e_init: float,
                          tol: float = 1e-10, max_iter: int = 60
                          ) -> Tuple[EigenPair, float, List[float]]:
    """Iterate the exact energy-dependent potential to a fixed point.

    E_{j+1} = sign(E_init) sqrt(lam_k(V_exact(E_j))); plain fixed point with
    a 0.5 relaxation step once the iterates start to oscillate. Returns the
    converged pair, the energy, and the iterate history.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if state_index < 0:
        raise InvalidParameterError("state_index must be >= 0")
    sign = 1.0 if e_init >= 0 else -1.0
    history = [float(e_init)]
    e_cur = float(e_init)
    prev_step = None
    relax = False
    for _ in range(max_iter):
        field = exact_potential(model, e_cur, grid, tmap)
        spectrum = solve_fixed(field, state_index + 1)
        pair = spectrum.pairs[state_index]
        if pair.lam < 0:
            raise ImaginaryEnergyError(
                f"lambda_{state_index} = {pair.lam:g} < 0 at iterate E={e_cur:g}"
            )
        e_prop = sign * math.sqrt(pair.lam)
        step = e_prop - e_cur
        if prev_step is not None and step * prev_step < 0:
            relax = True
        e_next = e_cur + (0.5 * step if relax else step)
        history.append(float(e_next))
        if abs(e_next - e_cur) <= tol:
            field = exact_potential(model, e_next, grid, tmap)
            spectrum = solve_fixed(field, state_index + 1)
            return spectrum.pairs[state_index], float(e_next), history
        prev_step = step
        e_cur = e_next
    raise NonConvergenceError(
        f"self-consistent iteration did not converge in {max_iter} steps",
        history=history,
    )


def expand_until_settled(builder: Callable[[float], PotentialField],
                         k_states: int, l_start: float = 8.0,
                         settle_tol: float = 1e-8, max_doublings: int = 8,
                         confine_margin: float = 25.0
                         ) -> Tuple[SpectrumResult, float]:
    """Truncate an unbounded q-domain at |q| = L, doubling until eigenvalues settle.

    ``builder(L)`` must return the potential field on the truncated grid.
    The edge values must dominate the target eigenvalue by ``confine_margin``
    at acceptance, else the potential does not confine and there is no
    discrete spectrum to report.
    """
    lam_prev = None
    edge_prev = None
    L = l_start
    for _ in range(max_doublings + 1):
        field = builder(L)
        try:
            result = solve_fixed(field, k_states)
        except ImaginaryEnergyError as exc:
            raise NonConvergenceError(
                f"potential does not confine at |q|={L:g}: the reduced "
                f"eigenvalue is negative ({exc}); no discrete spectrum"
            ) from exc
        lam_top = result.pairs[-1].lam
        edge = min(float(field.values[0]), float(field.values[-1]))
        if lam_prev is not None and abs(lam_top - lam_prev) <= settle_tol * max(1.0, abs(lam_top)):
            if edge < lam_top + confine_margin:
                raise NonConvergenceError(
                    f"potential does not confine at |q|={L:g}: edge value "
                    f"{edge:g} vs eigenvalue {lam_top:g}; no discrete spectrum"
                )
            return result, L
        if (edge_prev is not None and edge <= edge_prev + settle_tol
                and edge < lam_top + confine_margin):
            raise NonConvergenceError(
                f"potential does not confine: edge value stuck at {edge:g} "
                f"below eigenvalue {lam_top:g} + margin; no discrete spectrum"
            )
        lam_prev = lam_top
        edge_prev = edge
        L *= 2.0
    raise NonConvergenceError(
        f"eigenvalues did not settle after {max_doublings} domain doublings"
    )
