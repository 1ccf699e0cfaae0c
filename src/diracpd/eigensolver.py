"""Dirichlet eigensolver for -phi'' + V(q) phi = lambda phi on uniform grids.

The discrete operator is the symmetric tridiagonal second-difference matrix
plus diag(V); for a non-constant V (approximate mode, and the scalar exact
reduction of solve_self_consistent) eigenvalues come from bisection over
Sturm sequences with inverse iteration for the vectors (LAPACK, via
scipy.linalg.eigh_tridiagonal), then one Richardson step over (h, h/2)
removes the leading O(h^2) error. Interior sign changes of each vector give
the oscillation count for free.

In constant-u mode the operator solved is the free one and the constant
A^2 is kept as a spectral offset, so lambda is exactly E^2 - A^2. The free
operator's eigenpairs are known in closed form (the DST-I basis), so that
mode needs no bisection and no potential on the refined grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    DomainError,
    ImaginaryEnergyError,
    InsufficientResolutionError,
    InvalidParameterError,
    NonConvergenceError,
    SingularNodeError,
)
from .potential import CONSTANT_U, EXACT, PotentialField, QGrid, exact_potential
from .profiles import ModelSpec, product_u
from .transform import TransformMap


@dataclass(frozen=True)
class EigenPair:
    """One converged state: refined eigenvalue, vector on the base grid."""

    lam: float
    phi: np.ndarray
    grid: QGrid
    nodes: int
    error_estimate: float
    chi: Optional[np.ndarray] = None  # lattice pairs: chi on the n+1 half nodes around phi


@dataclass(frozen=True)
class SpectrumResult:
    pairs: Tuple[EigenPair, ...]
    energies: Tuple[Tuple[float, float], ...]
    mode: str
    offset: float


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


def _tridiag_eigs(values: np.ndarray, h: float, k: int, with_vectors: bool):
    """Lowest k eigenvalues, and (w, vecs) when with_vectors, by bisection."""
    return eigh_tridiagonal(2.0 / (h * h) + values, np.full(values.size - 1, -1.0 / (h * h)),
                            select="i", select_range=(0, k - 1),
                            eigvals_only=not with_vectors)


def _free_eigs(grid: QGrid, k: int, with_vectors: bool):
    """Lowest k eigenpairs of tridiag(-1, 2, -1)/h^2 of order n, in closed form.

    lam_k = (2/h sin(k pi / (2(n+1))))^2 and phi_k[j] = sin(j k pi / (n+1))
    (DST-I); they depend on n and h only, so offset grids are no exception.
    """
    n, ks = grid.n, np.arange(1, k + 1)
    w = (2.0 / grid.h * np.sin(ks * (math.pi / (2 * (n + 1))))) ** 2
    if not with_vectors:
        return w
    return w, np.sin(np.outer(np.arange(1, n + 1), ks) * (math.pi / (n + 1)))


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
        w, vecs = _free_eigs(grid, k_states, with_vectors=True)
        w_fine = _free_eigs(grid.refined(), k_states, with_vectors=False)
    else:
        offset = 0.0
        w, vecs = _tridiag_eigs(potential.values, grid.h, k_states, with_vectors=True)
        fine = potential.on_grid(grid.refined())
        if np.any(fine.singular):
            raise SingularNodeError("refined grid produced singular nodes")
        w_fine = _tridiag_eigs(fine.values, fine.grid.h, k_states, with_vectors=False)

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
                          mode=potential.mode, offset=offset)


def _lattice_eigs(u: np.ndarray, h: float, k_states: int, with_vectors: bool):
    """Eigenvalues n..n+k_states of the staggered lattice with n phi1 nodes.

    ``u`` holds u(q) at chi_1, phi1_1, chi_2, ..., phi1_n, chi_{n+1}, which
    sit at q = lo + j h/2; the off-diagonal alternates +1/h, -1/h so that
    phi1 keeps its sign between nodes. Index n must be the top non-positive
    eigenvalue.
    """
    n = u.size // 2
    out = eigh_tridiagonal(np.where(np.arange(2 * n + 1) % 2 == 0, -u, u),
                           np.tile([1.0 / h, -1.0 / h], n), select="i",
                           select_range=(n, n + k_states), eigvals_only=not with_vectors)
    w = out[0] if with_vectors else out
    # the zero mode of a massless model sits at 0 to within this floor
    floor = 64.0 * np.finfo(float).eps * (2.0 / h + float(np.max(np.abs(u))))
    if not w[0] < floor < w[1]:
        raise NonConvergenceError(f"lattice inertia: eigenvalues {n} and {n + 1} are "
                                  f"{w[0]:g} and {w[1]:g}, not <= 0 and > 0")
    return out


def solve_exact(model: ModelSpec, tmap: TransformMap, n: int,
                k_states: int) -> SpectrumResult:
    """Lowest k_states positive energies of H = sigma_x p_q + sigma_z u(q), u = m v_F^2.

    On (phi1, chi), with phi = sqrt(v_F) psi and phi2 = -i chi, H is the real
    symmetric [u, -d/dq; d/dq, -u]; a staggered lattice (Susskind) with phi1 = 0
    on the finite walls of q makes it one tridiagonal matrix. E is Richardson-
    refined over (n, 2n+1) nodes: ``lam`` = E^2, ``error_estimate`` = 2 E |E_h - E_{h/2}| / 3.
    The map is inverted once, on the fine lattice (q = lo + j h/4); every
    coarse site (q = lo + j h/2) is bit for bit its every second site.
    Vectors have h sum(phi1^2 + chi^2) = 1 and phi1 > 0 at its largest sample.
    """
    if not 1 <= k_states <= n // 2:
        raise InsufficientResolutionError(f"cannot resolve {k_states} states on {n} nodes")
    if not (math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi)):
        raise DomainError(f"exact mode needs a finite q-range; {model.name} maps "
                          f"onto q-range ({tmap.q_lo:g}, {tmap.q_hi:g})")
    grid = QGrid(tmap.q_lo, tmap.q_hi, n, offset=False)
    u_fine = product_u(model, tmap.inverse_grid(
        tmap.q_lo + np.arange(1, 4 * n + 4) * (0.25 * grid.h)))[0]
    w, vecs = _lattice_eigs(u_fine[1::2], grid.h, k_states, with_vectors=True)
    w_fine = _lattice_eigs(u_fine, 0.5 * grid.h, k_states, with_vectors=False)
    pairs, energies = [], []
    for k in range(1, k_states + 1):
        e = float((4.0 * w_fine[k] - w[k]) / 3.0)
        vec = vecs[:, k] / math.sqrt(grid.h)
        vec = vec * math.copysign(1.0, vec[1 + 2 * int(np.argmax(np.abs(vec[1::2])))])
        pairs.append(EigenPair(lam=e * e, phi=vec[1::2], grid=grid,
                               nodes=count_nodes(vec[1::2]),
                               error_estimate=float(2.0 * e * abs(w[k] - w_fine[k]) / 3.0),
                               chi=vec[0::2]))
        energies.append((e, -e))
    return SpectrumResult(pairs=tuple(pairs), energies=tuple(energies), mode=EXACT,
                          offset=0.0)


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


def _solve_box(field: PotentialField, k_states: int, L: float) -> SpectrumResult:
    try:
        return solve_fixed(field, k_states)
    except ImaginaryEnergyError as exc:
        raise NonConvergenceError(
            f"potential does not confine at |q|={L:g}: the reduced "
            f"eigenvalue is negative ({exc}); no discrete spectrum"
        ) from exc


def expand_until_settled(builder: Callable[[float], PotentialField],
                         k_states: int, l_start: float = 8.0,
                         settle_tol: float = 1e-8, max_doublings: int = 8,
                         confine_margin: float = 25.0
                         ) -> Tuple[SpectrumResult, float]:
    """Truncate an unbounded q-domain at |q| = L, doubling until eigenvalues settle.

    ``builder(L)`` must return the potential field on the truncated grid.
    The edge values must dominate the target eigenvalue by ``confine_margin``
    at acceptance, else the potential does not confine and there is no
    discrete spectrum to report. Every Dirichlet eigenvalue lies above
    min V, so an edge that did not grow from L/2 to L and sits within the
    margin of min V is rejected from the fields alone, before any
    eigensolve; the first box is solved only once the second has passed
    that check.
    """
    lam_prev = edge_prev = first = None
    L = l_start
    for _ in range(max_doublings + 1):
        field = builder(L)
        edge = min(float(field.values[0]), float(field.values[-1]))
        if edge_prev is None:
            first, edge_prev, L = field, edge, 2.0 * L
            continue
        stuck = edge <= edge_prev + settle_tol
        v_min = float(np.min(field.values))
        if stuck and edge < v_min + confine_margin:
            raise NonConvergenceError(
                f"potential does not confine at |q|={L:g}: edge value stuck at "
                f"{edge:g}, within margin of the potential's minimum {v_min:g}; "
                f"no discrete spectrum"
            )
        if lam_prev is None:
            lam_prev = _solve_box(first, k_states, L / 2.0).pairs[-1].lam
        result = _solve_box(field, k_states, L)
        lam_top = result.pairs[-1].lam
        if abs(lam_top - lam_prev) <= settle_tol * max(1.0, abs(lam_top)):
            if edge < lam_top + confine_margin:
                raise NonConvergenceError(
                    f"potential does not confine at |q|={L:g}: edge value "
                    f"{edge:g} vs eigenvalue {lam_top:g}; no discrete spectrum"
                )
            return result, L
        if stuck and edge < lam_top + confine_margin:
            raise NonConvergenceError(
                f"potential does not confine: edge value stuck at {edge:g} "
                f"below eigenvalue {lam_top:g} + margin; no discrete spectrum"
            )
        lam_prev, edge_prev = lam_top, edge
        L *= 2.0
    raise NonConvergenceError(
        f"eigenvalues did not settle after {max_doublings} domain doublings"
    )
