"""Dirichlet eigensolver for -phi'' + V(q) phi = lambda phi on uniform grids.

The discrete operator is the symmetric tridiagonal second-difference matrix
plus diag(V); for a non-constant V (approximate mode, and the scalar exact
reduction of solve_self_consistent) eigenvalues come from bisection over
Sturm sequences with inverse iteration for the vectors (LAPACK's dstebz and
dstein, bound from scipy's LAPACK extension without importing scipy.linalg;
see eigh_tridiagonal), then one Richardson step over (h, h/2)
removes the leading O(h^2) error. Vectors are computed only when asked for
(``vectors=True``, the default; only the spinor lift reads them). Level k,
whose index bisection and Sturm counts certify, has k sign changes by the
oscillation theorem for Jacobi matrices (Gantmacher & Krein, Oscillation
Matrices and Kernels), so the node count of a vectorless level is its index;
with vectors it is counted from the vector's interior sign changes.

Only the base grid is bisected by index from the whole spectrum. Each
refined level is bisected in a narrow window around its base value (about
1e-6 |lambda|, widened 16-fold while empty) to the base grid's absolute
tolerance eps * (Gershgorin norm of T_h), a quarter of the refined grid's
own default; Sturm counts certify that the windows found the lowest levels.
When a window holds more than one level, or the counts disagree, the refined
grid is bisected by index like the base grid. One engine (_levels) runs
this for both solve_fixed and the exact-mode lattice (solve_exact): each
solver hands it the whole matrices of both grids once, and it owns the
tolerance, the parity fold and its fallback, and the Richardson step.

When the sampled potential (or u, on the lattice) matches its mirror to
1e-8 relative, as the paper's even models do on their whole q-range, it
is averaged with its mirror; the matrices then commute with a reflection,
and _levels splits each one exactly into two parity blocks of half the
size (Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275) and bisects
those instead, or the whole matrices when Sturm counts do not certify
the blocks.

In constant-u mode the operator solved is the free one and the constant
A^2 is kept as a spectral offset, so lambda is exactly E^2 - A^2. The free
operator's eigenpairs are known in closed form (the DST-I basis), so that
mode needs no bisection and no potential on the refined grid.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy

from .errors import (
    DomainError,
    ImaginaryEnergyError,
    InsufficientResolutionError,
    InvalidParameterError,
    NonConvergenceError,
    SingularNodeError,
)
from .potential import (CONSTANT_U, EXACT, PotentialField, QGrid, approx_potential,
                        exact_potential)
from .profiles import ModelSpec, product_u
from .transform import TransformMap


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """(dstebz, dstein) from scipy's LAPACK extension.

    The extension is found in scipy's ``linalg`` directory and loaded under
    its own name without running ``scipy.linalg``'s package, which would
    import numpy.ma, numpy.testing and the rest of scipy.linalg's Python
    layer. A module already in sys.modules is reused. One loaded here is
    dropped from sys.modules again, so that a later ``import scipy.linalg``
    loads it after its parent and binds it as ``scipy.linalg._flapack``;
    the extension's functions are then the ones bound here. When the
    extension is not found there, the functions come from
    ``scipy.linalg.lapack``.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(
            _FLAPACK, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
        if spec is None:
            from scipy.linalg import lapack as module
        else:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(_FLAPACK, None)  # loading entered it there
    return module.dstebz, module.dstein


_dstebz, _dstein = _lapack()


def _check_info(info: int, driver: str) -> None:
    """scipy.linalg's exceptions for a non-zero LAPACK info code."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} did not converge (LAPACK info={info})")


def eigh_tridiagonal(d, e, eigvals_only=False, *, select, select_range, tol=0.0):
    """Eigenvalues (and, unless ``eigvals_only``, unit vectors as columns) of
    tridiag(e, d, e): indices lo..hi for ``select="i"``, those in (lo, hi] for
    ``select="v"``, with ``select_range=(lo, hi)``.

    The calls and results are scipy.linalg.eigh_tridiagonal's with its stebz
    driver: dstebz (order "E" without vectors, "B" with them), then dstein
    and a sort by eigenvalue, and the same 1-row quick exit. Non-finite or
    mismatched input raises ValueError, and a non-zero LAPACK info
    ValueError or LinAlgError, as there.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    lo, hi = select_range
    by_index = select == "i"
    if d.size == 1:
        w = d[:1].copy() if by_index or lo < d[0] <= hi else np.array([])
        return w if eigvals_only else (w, np.ones((1, w.size)))
    vl, vu, il, iu = (0.0, 1.0, lo + 1, hi + 1) if by_index else (lo, hi, 1, 1)
    m, w, iblock, isplit, info = _dstebz(d, e, 2 if by_index else 1, vl, vu, il, iu,
                                         float(tol), "E" if eigvals_only else "B")
    _check_info(info, "stebz (eigh_tridiagonal)")
    w = w[:m]
    if eigvals_only:
        return w
    v, info = _dstein(d, e, w, iblock, isplit)
    _check_info(info, "stein (eigh_tridiagonal)")
    order = np.argsort(w)
    return w[order], v[:, order]


@dataclass(frozen=True)
class EigenPair:
    """One converged state: refined eigenvalue, vector on the base grid.

    ``phi`` (and ``chi``) are None when the state was solved with
    ``vectors=False``; ``nodes`` is then the certified level index. ``grid``
    is None for the free case's rest energy, which no grid was solved on.
    """

    lam: float
    phi: Optional[np.ndarray]
    grid: Optional[QGrid]
    nodes: int
    error_estimate: float
    chi: Optional[np.ndarray] = None  # lattice pairs: chi on the n+1 half nodes around phi


@dataclass(frozen=True)
class SpectrumResult:
    pairs: Tuple[EigenPair, ...]
    energies: Tuple[Tuple[float, float], ...]
    mode: str
    offset: float
    # the potential solve_fixed solved the levels on, on the base grid; None
    # from solve_exact, whose potential depends on the energy
    field: Optional[PotentialField] = None


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
    """phi or -phi, positive at its largest sample (the first of equal ones)."""
    i = int(np.argmax(np.abs(phi)))
    return -phi if phi[i] < 0 else phi


def _schrodinger(values: np.ndarray, h: float):
    """Diagonal and off-diagonal of -d^2/dq^2 + V on a grid of step h."""
    return 2.0 / (h * h) + values, np.full(values.size - 1, -1.0 / (h * h))


def _symmetrized(*samples: np.ndarray) -> Optional[Tuple[np.ndarray, ...]]:
    """(s + s[::-1]) / 2 of each array s when each sample in the first half of
    every one matches its mirror to 1e-8 of its own magnitude (or of 1, if
    that is larger); None otherwise, and for NaN samples."""
    for s in samples:
        head, mirror = s[:s.size // 2], s[:(s.size - 1) // 2:-1]
        if not np.all(np.abs(head - mirror) <= 1e-8 * np.maximum(np.abs(head), 1.0)):
            return None
    return tuple(0.5 * (s + s[::-1]) for s in samples)


def _fold(d: np.ndarray, e: np.ndarray):
    """The two parity blocks of tridiag(e, d, e), each on its first ceil(N/2) rows.

    The matrix must commute with a signed reflection (Cantoni & Butler 1976):
    d palindromic and e palindromic (P = J) or, with N odd, anti-palindromic
    (P = diag((-1)^j) J). With N odd the first block keeps the centre row,
    its last off-diagonal times sqrt(2), and the second is the leading
    corner; with N even the first block's last diagonal entry gains the
    middle coupling and the second's loses it.
    """
    c = d.size // 2
    if d.size % 2:
        return (d[:c + 1], np.append(e[:c - 1], math.sqrt(2.0) * e[c - 1])), (d[:c], e[:c - 1])
    return tuple((np.append(d[:c - 1], d[c - 1] + mid), e[:c - 1])
                 for mid in (e[c - 1], -e[c - 1]))


def _unfold(psi: np.ndarray, n: int, sign: np.ndarray) -> np.ndarray:
    """Unit vectors of order n from unit block vectors ``psi`` (columns, see _fold).

    Site j < n // 2 takes psi[j] / sqrt(2), its mirror n - 1 - j that times
    sign[j]; a centre site takes psi's last entry, or 0 for the corner block.
    """
    c = n // 2
    v = np.zeros((n, psi.shape[1]))
    v[:c] = psi[:c] / math.sqrt(2.0)
    if psi.shape[0] > c:
        v[c] = psi[c]
    v[n - c:] = (sign[:, None] * v[:c])[::-1]
    return v


def _bisection_tol(d: np.ndarray, e: np.ndarray) -> float:
    """eps * Gershgorin norm of tridiag(e, d, e), LAPACK's default bisection tolerance."""
    r = np.abs(e)
    r = np.concatenate(([0.0], r)) + np.concatenate((r, [0.0]))
    return float(np.finfo(float).eps * max(abs(np.min(d - r)), abs(np.max(d + r))))


def _count(d: np.ndarray, e: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues of tridiag(e, d, e) in (lo, hi], from Sturm counts.

    With an infinite tolerance LAPACK's bisection stops after its first
    sweep and reports each eigenvalue of the range, so this costs about three
    Sturm sweeps.
    """
    return eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi),
                            tol=math.inf).size


def _bisect_near(d: np.ndarray, e: np.ndarray, guesses: np.ndarray, tol: float,
                 floor: float, below: int) -> Optional[np.ndarray]:
    """Eigenvalues below .. below + k - 1 of tridiag(e, d, e), or None.

    ``guesses`` are k rising approximations (the base grid's levels), and
    ``below`` eigenvalues lie at or under ``floor`` (the caller counts them,
    see _inertia). Each level is bisected to ``tol`` in a window around its
    guess that starts at 1e-6 |guess| (at least tol) either side and widens
    16-fold while it is empty, up to the Gershgorin norm. A Sturm count
    certifies the result: every window holds exactly one eigenvalue, the
    levels rise from ``floor`` by more than tol (none is found twice), and
    exactly below + k eigenvalues lie at or under the top window edge. None
    means a window held more than one level or the count disagreed; the
    caller then bisects by index.
    """
    limit = tol / np.finfo(float).eps
    w = np.empty(len(guesses))
    for j, guess in enumerate(guesses):
        half = max(1e-6 * abs(guess), tol)
        while True:
            found = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                     select_range=(guess - half, guess + half), tol=tol)
            if found.size or half > limit:
                break
            half *= 16.0
        if found.size != 1:
            return None
        w[j] = found[0]
    if not (w[0] > floor and np.all(np.diff(w) > tol)):
        return None
    if _count(d, e, -math.inf, guesses[-1] + half) != below + w.size:
        return None
    return w


def _inertia(blocks, floor: float, below: int) -> List[int]:
    """How many eigenvalues of each (d, e) block lie at or under ``floor``,
    which must sum to ``below``; none is counted when ``below`` is 0, as the
    counts of _levels and _bisect_near would see a level there."""
    if not below:
        return [0] * len(blocks)
    counts = [_count(*block, -math.inf, floor) for block in blocks]
    if sum(counts) != below:
        raise NonConvergenceError(f"inertia: {' + '.join(map(str, counts))} eigenvalues "
                                  f"<= {floor:g}, not {below}")
    return counts


def _levels(coarse, fine, k: int, floors, below, mirror=None, lowest_second: bool = False,
            vectors: bool = True):
    """(levels, gap, unit vectors) of the k levels over the floor of the
    tridiagonal matrix ``coarse`` and its refinement ``fine``, each a whole
    (d, e): _richardson's levels and gaps, and the coarse vectors (None
    unless ``vectors``; the LAPACK calls are the same).

    ``below`` eigenvalues lie at or under each grid's floor (0 for a
    Schrödinger matrix), counted once per block (_inertia); the coarse
    matrix's _bisection_tol serves both. With a ``mirror`` each matrix is
    first split into its two _fold blocks, the coarse ones swapped when
    ``lowest_second``, so that the block holding the lowest level is first;
    ``mirror`` gives its signs for _unfold, and the other's are the opposite.
    Block p supplies levels p, p + 2, ..., bisected by index. Folded, the
    levels must rise and no block, also one that supplied none, may hold
    more levels in (floor, just above the top one] than it supplied, or the
    whole matrices are solved. Fine levels are bisected near the coarse
    ones, else by index.
    """
    tol, n = _bisection_tol(*coarse), coarse[0].size
    folded = [] if mirror is None else [
        (_fold(*coarse)[::-1 if lowest_second else 1], _fold(*fine))]
    for coarse_blocks, fine_blocks in folded + [([coarse], [fine])]:
        size = len(coarse_blocks)
        supply = [(k + size - 1 - p) // size for p in range(size)]
        w, vecs, w_fine = np.empty(k), np.empty((n, k)) if vectors else None, np.empty(k)
        for p, (block, m, first) in enumerate(zip(
                coarse_blocks, supply, _inertia(coarse_blocks, floors[0], below[0]))):
            if m:
                found = eigh_tridiagonal(*block, eigvals_only=not vectors, select="i",
                                         select_range=(first, first + m - 1))
                w[p::size], psi = found if vectors else (found, None)
                if vectors:
                    vecs[:, p::size] = psi if size == 1 else _unfold(psi, n, (1 - 2 * p) * mirror)
        top = w[-1] + max(1e-6 * abs(w[-1]), tol)
        if size > 1 and not (np.all(np.diff(w) > 0) and all(
                _count(*block, floors[0], top) == m for block, m in zip(coarse_blocks, supply))):
            continue
        for p, (block, m, first) in enumerate(zip(
                fine_blocks, supply, _inertia(fine_blocks, floors[1], below[1]))):
            if m:
                near = _bisect_near(*block, w[p::size], tol, floors[1], first)
                w_fine[p::size] = near if near is not None else eigh_tridiagonal(
                    *block, eigvals_only=True, select="i", select_range=(first, first + m - 1))
        return (*_richardson(w, w_fine), vecs)


def _richardson(w: np.ndarray, w_fine: np.ndarray):
    """(4 w_fine - w) / 3, the levels with the h^2 error removed, and
    |w - w_fine|, which sets their error estimates."""
    return (4.0 * w_fine - w) / 3.0, np.abs(w - w_fine)


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


def solve_fixed(potential: PotentialField, k_states: int,
                vectors: bool = True) -> SpectrumResult:
    """Lowest k_states eigenpairs of the fixed potential.

    Eigenvalues are Richardson-refined over (h, h/2) with
    error_estimate = |lam_h - lam_{h/2}| / 3; eigenvectors live on the
    base grid, normalized so that sum(phi^2) h = 1. With ``vectors=False``
    none is computed: each pair's phi is None and its nodes its index, and
    the levels and error estimates are bit for bit the same. Both grids go
    through _levels, with min V as each grid's floor and no eigenvalue under
    it: the h grid is bisected by index, each h/2 level near its h level.

    A field whose values on both grids match their mirror (_symmetrized) is
    averaged with it, (V + V[::-1]) / 2, and _levels folds it: the first
    ceil(n/2) nodes make an even and an odd block (see _fold). Vector j has j sign changes, so the even block
    supplies levels 0, 2, 4, ... and the odd block 1, 3, ..., which Sturm
    counts certify (else the whole matrix is solved); vectors unfold by
    mirroring, and an odd vector is positive at the left one of its two
    largest samples.
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
        found = _free_eigs(grid, k_states, with_vectors=vectors)
        w, vecs = found if vectors else (found, None)
        lam, gap = _richardson(w, _free_eigs(grid.refined(), k_states, with_vectors=False))
    else:
        offset = 0.0
        fine = potential.on_grid(grid.refined())
        if np.any(fine.singular):
            raise SingularNodeError("refined grid produced singular nodes")
        even = _symmetrized(potential.values, fine.values)
        values, fine_values = even or (potential.values, fine.values)
        lam, gap, vecs = _levels(
            _schrodinger(values, grid.h), _schrodinger(fine_values, fine.grid.h), k_states,
            (float(np.min(values)), float(np.min(fine_values))), (0, 0),
            mirror=np.ones(grid.n // 2) if even else None, vectors=vectors)

    pairs, energies = [], []
    for k in range(k_states):
        phi, nodes = None, k
        if vectors:
            phi = _canonical_sign(vecs[:, k])
            phi = phi / math.sqrt(float(np.sum(phi * phi)) * grid.h)
            nodes = count_nodes(phi)
        pairs.append(EigenPair(lam=float(lam[k]), phi=phi, grid=grid,
                               nodes=nodes, error_estimate=float(gap[k] / 3.0)))
        energies.append(energies_from_lambda(lam[k], offset))

    return SpectrumResult(pairs=tuple(pairs), energies=tuple(energies),
                          mode=potential.mode, offset=offset, field=potential)


def _wall_singular(builder, lo: float, hi: float) -> bool:
    """Whether V blows up at a wall of (lo, hi): probes within 3e-8 of each wall.

    A DomainError (probe nodes that round onto a wall) means a singular
    wall; any other error propagates with its own cause.
    """
    width = hi - lo
    try:
        mid_vals = builder(QGrid(lo + 0.4 * width, hi - 0.4 * width, 3, offset=True)).values
        center = float(np.max(np.abs(mid_vals[np.isfinite(mid_vals)]), initial=0.0))
        for probes in (QGrid(lo, lo + 3e-8 * width, 3, offset=True),
                       QGrid(hi - 3e-8 * width, hi, 3, offset=True)):
            edge_vals = builder(probes).values
            if not np.all(np.isfinite(edge_vals)):
                return True
            if float(np.max(np.abs(edge_vals))) > 1e6 * (1.0 + center):
                return True
    except DomainError:
        return True
    return False


def solve_approximate(model: ModelSpec, tmap: TransformMap, n: int,
                      k_states: int, vectors: bool = True) -> SpectrumResult:
    """Lowest k_states levels of the energy-independent (approximate) potential.

    A finite q-range gets one grid of n nodes, offset half a step from the
    walls when _wall_singular finds V blowing up at one. An infinite side
    is cut at |q| = L on offset grids of n nodes, L doubled until the levels
    settle (expand_until_settled). The result's ``field`` is the potential
    of the grid it was solved on; ``vectors`` as in solve_fixed.
    """
    def builder(grid: QGrid) -> PotentialField:
        return approx_potential(model, grid, tmap)

    lo, hi = tmap.q_lo, tmap.q_hi
    if math.isfinite(lo) and math.isfinite(hi):
        offset = _wall_singular(builder, lo, hi)
        return solve_fixed(builder(QGrid(lo, hi, n, offset=offset)), k_states, vectors=vectors)
    return expand_until_settled(
        lambda L: builder(QGrid(lo if math.isfinite(lo) else -L,
                                hi if math.isfinite(hi) else L, n, offset=True)),
        k_states, vectors=vectors)[0]


def _staggered(u: np.ndarray, h: float):
    """Diagonal and off-diagonal of the staggered lattice over ``u``.

    ``u`` holds u(q) at chi_1, phi1_1, chi_2, ..., phi1_n, chi_{n+1}, which
    sit at q = lo + j h/2, and the diagonal is -u at the chi sites and u at
    the phi1 sites; the off-diagonal alternates +1/h, -1/h so that phi1 keeps
    its sign between nodes. Eigenvalues 0 .. n are the non-positive ones.
    """
    n = u.size // 2
    return np.where(np.arange(2 * n + 1) % 2 == 0, -u, u), np.tile([1.0 / h, -1.0 / h], n)


def _inertia_floor(u: np.ndarray, h: float) -> float:
    """The zero mode of a massless model sits at 0 to within this floor."""
    return 64.0 * np.finfo(float).eps * (2.0 / h + float(np.max(np.abs(u))))


def solve_exact(model: ModelSpec, tmap: TransformMap, n: int,
                k_states: int, vectors: bool = True) -> SpectrumResult:
    """Lowest k_states positive energies of H = sigma_x p_q + sigma_z u(q), u = m v_F^2.

    On (phi1, chi), with phi = sqrt(v_F) psi and phi2 = -i chi, H is the real
    symmetric [u, -d/dq; d/dq, -u]; a staggered lattice (Susskind) with phi1 = 0
    on the finite walls of q makes it one tridiagonal matrix (_staggered). E is Richardson-
    refined over (n, 2n+1) nodes: ``lam`` = E^2, ``error_estimate`` = 2 E |E_h - E_{h/2}| / 3.
    The map is inverted once, on the fine lattice (q = lo + j h/4); every
    coarse site (q = lo + j h/2) is bit for bit its every second site, and
    the phi1 nodes (``grid.nodes``) its every fourth, which the map caches.
    Both lattices go through _levels, with n+1 (coarse) and 2n+2 (fine)
    eigenvalues at or under the inertia floor. Vectors have
    h sum(phi1^2 + chi^2) = 1 and phi1 > 0 at its largest sample (the first
    of equal ones). With ``vectors=False`` none is computed: each pair's phi
    and chi are None and its nodes its index, and the levels and error
    estimates are bit for bit the same.

    When u matches its mirror (_symmetrized) the lattice commutes with
    P = diag((-1)^j) J and is solved as two parity blocks (_fold, _levels),
    or whole when _levels does not certify them. The lowest level sits in the
    corner block (_levels' lowest_second) when n is even and in the centre's
    when n is odd (so on the fine lattice, with 2n+1 phi1 nodes, always in
    the centre's).
    """
    if not 1 <= k_states <= n // 2:
        raise InsufficientResolutionError(f"cannot resolve {k_states} states on {n} nodes")
    if not (math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi)):
        raise DomainError(f"exact mode needs a finite q-range; {model.name} maps "
                          f"onto q-range ({tmap.q_lo:g}, {tmap.q_hi:g})")
    grid = QGrid(tmap.q_lo, tmap.q_hi, n, offset=False)
    q_fine = tmap.q_lo + np.arange(1, 4 * n + 4) * (0.25 * grid.h)
    x_fine = tmap.inverse_grid(q_fine)
    # fine site 4j is phi1 node j bit for bit: the lift and the exported potential reuse it
    tmap.remember(q_fine[3::4], x_fine[3::4])
    u_fine = product_u(model, x_fine)[0]
    even = _symmetrized(u_fine)
    if even:
        u_fine = even[0]
    u = u_fine[1::2]
    lam, gap, vecs = _levels(
        _staggered(u, grid.h), _staggered(u_fine, 0.5 * grid.h), k_states,
        (_inertia_floor(u, grid.h), _inertia_floor(u_fine, 0.5 * grid.h)), (n + 1, 2 * n + 2),
        mirror=np.where(np.arange(n) % 2, 1.0, -1.0) if even else None,  # (-1)^(j+1)
        lowest_second=n % 2 == 0, vectors=vectors)
    pairs, energies = [], []
    for k in range(k_states):
        e = float(lam[k])
        phi, chi, nodes = None, None, k
        if vectors:
            vec = vecs[:, k] / math.sqrt(grid.h)
            vec = vec * math.copysign(1.0, vec[1 + 2 * int(np.argmax(np.abs(vec[1::2])))])
            phi, chi = vec[1::2], vec[0::2]
            nodes = count_nodes(phi)
        pairs.append(EigenPair(lam=e * e, phi=phi, grid=grid, nodes=nodes,
                               error_estimate=float(2.0 * e * gap[k] / 3.0), chi=chi))
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


def _solve_box(field: PotentialField, k_states: int, L: float,
               vectors: bool) -> SpectrumResult:
    try:
        return solve_fixed(field, k_states, vectors=vectors)
    except ImaginaryEnergyError as exc:
        raise NonConvergenceError(
            f"potential does not confine at |q|={L:g}: the reduced "
            f"eigenvalue is negative ({exc}); no discrete spectrum"
        ) from exc


def expand_until_settled(builder: Callable[[float], PotentialField],
                         k_states: int, l_start: float = 8.0,
                         settle_tol: float = 1e-8, max_doublings: int = 8,
                         confine_margin: float = 25.0, vectors: bool = True
                         ) -> Tuple[SpectrumResult, float]:
    """Truncate an unbounded q-domain at |q| = L, doubling until eigenvalues settle.

    ``builder(L)`` must return the potential field on the truncated grid.
    The edge values must dominate the target eigenvalue by ``confine_margin``
    at acceptance, else the potential does not confine and there is no
    discrete spectrum to report. Every Dirichlet eigenvalue lies above
    min V, so an edge that did not grow from L/2 to L and sits within the
    margin of min V is rejected from the fields alone, before any
    eigensolve; the first box is solved only once the second has passed
    that check. The first box only sets the level the next one is compared
    with, so it is solved without vectors; every later box is solved with
    ``vectors`` (see solve_fixed).
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
            lam_prev = _solve_box(first, k_states, L / 2.0, False).pairs[-1].lam
        result = _solve_box(field, k_states, L, vectors)
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
