"""Dirichlet eigensolver for -phi'' + V(q) phi = lambda phi on uniform grids.

The discrete operator is the symmetric tridiagonal second-difference matrix
plus diag(V); for a non-constant V (approximate mode, and the scalar exact
reduction of solve_self_consistent) eigenvalues come from bisection over
Sturm sequences (LAPACK's dstebz, bound from scipy's LAPACK extension
without importing scipy.linalg; see eigh_tridiagonal) and from certified
shifted solves (dgttrf, dgttrs; see _in_windows), then one Richardson
step over (h, h/2) removes the leading O(h^2) error. Vectors are computed
only when asked for (``vectors=True``, the default; only the spinor lift
reads them), after the levels are settled: inverse iteration (dstein) on
the certified base levels, so asking for them changes no level. Level k,
which the Sturm counts certify, has k sign changes by the
oscillation theorem for Jacobi matrices (Gantmacher & Krein, Oscillation
Matrices and Kernels), so the node count of a vectorless level is its index;
with vectors it is counted from the vector's interior sign changes.

Each solve hands _levels its grids as one coarse-to-fine sequence of _Grid
records: a base grid (h) and its refinement (h/2), led where it pays by a
ladder of the same operator on n/32 and n/16 nodes. A record holds the
grid's whole matrix, its squared step in base steps, the floor its levels
are counted from and how many eigenvalues lie at or under that floor.
_levels owns the tolerance, the parity fold and its fallback, the
Richardson step and the vectors. One h^2 law (_h2) gives both the
Richardson level and the ladder's predictions.

_levels solves the grids in one pass. The first grid, and each grid of a
ladder, is bisected by index from the whole spectrum, about 50 Sturm
sweeps (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386). Every later
grid takes shifted solves at its prediction, the h^2 law through the two
grids before it (or the base levels, for the refined grid without a
ladder), each about a dozen sweeps' cost (_in_windows): T - sigma factored
once (dgttrf), two solves (dgttrs) from a fixed start vector, and a
Rayleigh quotient theta whose residual r puts an eigenvalue in
[theta - r, theta + r]; where r is not yet small the shift follows theta
(Rayleigh quotient iteration). One Sturm count per block and the
Kato-Temple bound certify that these are the lowest levels, each within
the base grid's bisection tolerance eps * (Gershgorin norm of T_h)
(Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, chs. 4, 10). Every
fallback solves again with less: a refused ladder leaves the base and
refined grids alone, and a refused refined grid without a ladder is
bisected by index. The ladder's levels lie within 2 tol of the ladderless
path's, tol the base grid's _bisection_tol. Both solvers build a ladder
(_ladder_grids) from n = 2000 base nodes (phi1 nodes on the lattice of
solve_exact) on and for k <= n/64, whatever the walls (in the g < 1 band of
poschl_teller, where the error is not h^2, the shifts take a second
factorization); a constant u needs none in either mode.

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
mode needs no bisection and no potential on the refined grid. Nor does exact
mode where u on the fine lattice lies within the base lattice's tol of
a = (max u + min u) / 2 >= 0 (_free_lattice): the lattice over a has levels
sqrt(a^2 + lambda_j) and DST-I phi1, and the lattice over u differs from it
by a diagonal of norm <= tol, so by Weyl's inequality (Horn & Johnson,
Matrix Analysis, Thm 4.3.1) each of its levels lies within tol of the closed
form's, which is within 2 tol of its bisected value.
"""

from __future__ import annotations

import functools
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
    NumericalError,
    SingularNodeError,
    UnboundedBelowError,
)
from .potential import (CONSTANT_U, EXACT, PotentialField, QGrid, approx_potential,
                        exact_potential, square_finite)
from .profiles import ModelSpec, u_values
from .transform import TransformMap


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """(dstebz, dstein, dgttrf, dgttrs) from scipy's LAPACK extension.

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
    return module.dstebz, module.dstein, module.dgttrf, module.dgttrs


_dstebz, _dstein, _dgttrf, _dgttrs = _lapack()


def _check_info(info: int, driver: str) -> None:
    """scipy.linalg's exceptions for a non-zero LAPACK info code."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} did not converge (LAPACK info={info})")


def eigh_tridiagonal(d, e, *, select, select_range, tol=0.0):
    """Eigenvalues of tridiag(e, d, e): indices lo..hi for ``select="i"``,
    those in (lo, hi] for ``select="v"``, with ``select_range=(lo, hi)``.

    The call and result are scipy.linalg.eigh_tridiagonal's with
    ``eigvals_only=True`` and its stebz driver: dstebz with order "E", and
    the same 1-row quick exit. Non-finite or mismatched input raises
    ValueError, and a non-zero LAPACK info ValueError or LinAlgError, as
    there.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    lo, hi = select_range
    by_index = select == "i"
    if d.size == 1:
        return d[:1].copy() if by_index or lo < d[0] <= hi else np.array([])
    vl, vu, il, iu = (0.0, 1.0, lo + 1, hi + 1) if by_index else (lo, hi, 1, 1)
    m, w, _, _, info = _dstebz(d, e, 2 if by_index else 1, vl, vu, il, iu, float(tol), "E")
    _check_info(info, "stebz (eigh_tridiagonal)")
    return w[:m]


def _eigenvectors(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit vectors (columns) of tridiag(e, d, e) at its rising eigenvalues w.

    One LAPACK dstein call (inverse iteration) on the matrix as one block:
    on an unsplit matrix these are scipy.linalg.eigh_tridiagonal's vectors
    for w, bit for bit; a 1-row matrix's vector is 1, as there.
    """
    if d.size == 1:
        return np.ones((1, w.size))
    ones = np.ones(d.size, np.int32)
    v, info = _dstein(d, e, w, ones, d.size * ones)
    _check_info(info, "stein (eigh_tridiagonal)")
    return v


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


def _even(*samples: np.ndarray) -> bool:
    """Whether each sample in the first half of every array matches its mirror
    to 1e-8 of its own magnitude (or of 1, if that is larger); False for NaN
    samples."""
    for s in samples:
        head, mirror = s[:s.size // 2], s[:(s.size - 1) // 2:-1]
        if not np.all(np.abs(head - mirror) <= 1e-8 * np.maximum(np.abs(head), 1.0)):
            return False
    return True


def _mirror_average(s: np.ndarray, even: bool) -> np.ndarray:
    """(s + s[::-1]) / 2 when ``even`` (see _even), else s itself."""
    return 0.5 * (s + s[::-1]) if even else s


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


@dataclass(frozen=True)
class _Grid:
    """One grid of a solve (see _levels): its whole tridiag(e, d, e) as
    ``matrix`` = (d, e), its squared step ``r`` in base steps, the ``floor``
    its levels are counted from, how many eigenvalues lie at or under that
    floor (``below``: 0 for a Schrödinger matrix, m + 1 for a lattice of m
    phi1 nodes), and whether its folded lowest level sits in the second
    _fold block (``second``)."""

    matrix: Tuple[np.ndarray, np.ndarray]
    r: float
    floor: float
    below: int = 0
    second: bool = False

    def blocks(self, folded: bool):
        """The matrix as (d, e) blocks: its two _fold blocks when ``folded``,
        the one holding the lowest level first; else the whole matrix."""
        return _fold(*self.matrix)[::-1 if self.second else 1] if folded else [self.matrix]


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
    return eigh_tridiagonal(d, e, select="v", select_range=(lo, hi), tol=math.inf).size


def _by_index(blocks, k: int, firsts) -> np.ndarray:
    """Levels firsts[p], firsts[p] + 1, ... of (d, e) block p, bisected by index
    as levels p, p + len(blocks), ... of k."""
    size, w = len(blocks), np.empty(k)
    for p, (block, first) in enumerate(zip(blocks, firsts)):
        m = w[p::size].size
        if m:
            w[p::size] = eigh_tridiagonal(*block, select="i", select_range=(first, first + m - 1))
    return w


def _top(w: np.ndarray, tol: float, reach: float = 0.0) -> float:
    """w[-1] + max(1e-6 |w[-1]|, tol, reach): the top of _counted's count over w."""
    return w[-1] + max(1e-6 * abs(w[-1]), tol, reach)


def _counted(blocks, w: np.ndarray, floor: float, top: float) -> bool:
    """Whether the levels ``w`` rise and each block p, which supplied
    w[p::len(blocks)], holds exactly that many eigenvalues in (floor, top]:
    then they are the lowest levels over the floor, in order (for a top
    under the next level)."""
    return bool(np.all(np.diff(w) > 0)) and all(
        _count(*block, floor, top) == w[p::len(blocks)].size for p, block in enumerate(blocks))


def _h2(a: np.ndarray, b: np.ndarray, ra: float, rb: float, rt: float) -> np.ndarray:
    """Levels at squared step rt, from levels a and b at squared steps ra and
    rb, by the h^2 law lambda(h) = lambda + c h^2 (Sidi, Practical
    Extrapolation Methods, CUP 2003): rt = 0 is the Richardson level, which
    for ra = 1, rb = 1/4 is (4 b - a) / 3 bit for bit."""
    return (a * (rt - rb) - b * (rt - ra)) / (ra - rb)


@functools.lru_cache(maxsize=4)
def _start(size: int) -> np.ndarray:
    """_shifted's fixed start vector: splitmix64 hashes of 1 .. size as numbers
    in [-1/2, 1/2). It has no structure; one with reflection symmetry, say,
    has no part along the odd levels of an even matrix solved whole."""
    v = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        v = (v ^ (v >> np.uint64(shift))) * np.uint64(factor)
    x = ((v ^ (v >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -53 - 0.5
    x.setflags(write=False)
    return x


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN r is a refusal
def _shifted(d: np.ndarray, e: np.ndarray, sigma: float, tol: float) -> Tuple[float, float]:
    """(theta, r) near sigma for T = tridiag(e, d, e): the Rayleigh quotient
    theta = x.T x of a unit x and its residual r = |T x - theta x|, which
    puts an eigenvalue within r of theta. x is _start after two solves
    (dgttrs) with T - sigma, factored once (dgttrf). While r tops both 32 tol
    (r's rounding floor on a refined grid, of 4 times the base grid's norm)
    and (1e-6 |theta| tol)^(1/2) (which the Kato-Temple bound takes at
    _top's margin), the shift follows theta (Rayleigh quotient iteration),
    three factorizations at most. A singular one stops it (r = inf if first);
    a solve whose x underflows to 0 or overflows refuses it (r = inf).
    """
    x, theta, r = _start(d.size), sigma, math.inf
    for _ in range(3):
        *lu, info = _dgttrf(e, d - theta, e)
        if info:
            break
        x = _dgttrs(*lu, _dgttrs(*lu, x)[0])[0]
        norm = math.sqrt(np.sum(x * x))  # sums, not BLAS dots, which may wake threads
        if not 0.0 < norm < math.inf:
            return theta, math.inf
        x /= norm
        tx = d * x
        tx[1:] += e * x[:-1]
        tx[:-1] += e * x[1:]
        theta = float(np.sum(x * tx))
        r = math.sqrt(np.sum((tx - theta * x) ** 2))
        if r <= max(32.0 * tol, math.sqrt(1e-6 * abs(theta) * tol)):
            break
    return theta, r


def _in_windows(blocks, guesses: np.ndarray, tol: float,
                floor: float) -> Optional[np.ndarray]:
    """Levels p, p + len(blocks), ... of block p, each the Rayleigh quotient
    theta_j of a shifted solve at guesses[j] (_shifted), or None.

    Certificate, per block: the windows [theta_j -/+ r_j], r_j the residual,
    each hold an eigenvalue and rise from ``floor``, none touching the next,
    and one _counted Sturm count finds as many eigenvalues in (floor, top]:
    so each holds one, the lowest, in order. By the Kato-Temple bound
    (Parlett 1998, ch. 10) theta_j then lies within r_j^2 / delta_j of it,
    delta_j its distance to the next windows (or to floor and top), which
    must be <= tol, as bisection would give; the top (_top) reaches
    4 max(r)^2 / tol over the last level, so there it holds. None is a
    refusal, on which _levels solves again with less. Blocks come from
    grids of 3 nodes or more, so each has the 3 rows dgttrf's binding needs.
    """
    size, w, r = len(blocks), np.empty(guesses.size), np.empty(guesses.size)
    for p, block in enumerate(blocks[:guesses.size]):
        for j in range(p, guesses.size, size):
            w[j], r[j] = _shifted(*block, guesses[j], tol)
    top = _top(w, tol, 4.0 * float(np.max(r)) ** 2 / tol)
    for p in range(min(size, w.size)):
        t, s = w[p::size], r[p::size]
        delta = np.minimum(t - np.append(floor, t[:-1] + s[:-1]),
                           np.append(t[1:] - s[1:], top) - t)
        if not np.all((delta > s) & (s * s <= tol * delta)):
            return None
    return w if _counted(blocks, w, floor, top) else None


def _inertia(blocks, grid: _Grid) -> List[int]:
    """How many eigenvalues of each (d, e) block of ``grid`` lie at or under
    its floor, which must sum to its ``below``; none is counted when that is
    0, as the counts of _levels would see a level there."""
    if not grid.below:
        return [0] * len(blocks)
    counts = [_count(*block, -math.inf, grid.floor) for block in blocks]
    if sum(counts) != grid.below:
        raise NonConvergenceError(f"inertia: {' + '.join(map(str, counts))} eigenvalues "
                                  f"<= {grid.floor:g}, not {grid.below}")
    return counts


def _levels(grids, k: int, mirror=None, vectors: bool = True):
    """(levels, gap, unit vectors) of the k levels over the floor of a
    coarse-to-fine sequence of _Grid records, (base, refined) or with a
    ladder (n/32, n/16, base, refined): the base and refined grids'
    Richardson levels (_h2 at step 0) and gaps |w - w_fine|, and the base
    vectors (None unless ``vectors``), made last, one _eigenvectors call per
    block on its certified base levels, so the levels do not depend on them.

    The base matrix's _bisection_tol serves every grid. With a ``mirror``
    each matrix is first split into its _Grid.blocks, the one holding the
    lowest level first; ``mirror`` gives that block's signs for _unfold, and
    the other's are the opposite. One pass solves the grids in order: the
    first and a ladder's own are bisected by index (_by_index, block p
    supplying levels p, p + 2, ...) from their _inertia counts, and each
    later one takes shifted solves (_in_windows) at its prediction, _h2
    through the two grids before it or, for the refined grid without a
    ladder, the base levels. Every fallback solves again with less: a
    refusal or a wrong inertia count in a ladder drops the ladder; folded
    base levels bisected by index must rise and no block, also one that
    supplied none, may hold more levels in (floor, just above the top one]
    than it supplied, or the whole matrices are solved; and a refused
    refined grid without a ladder is bisected by index.

    Inertia is counted on the first two grids: a ladder's own, or both
    grids without one. The refined grid's count there is read only when its
    shifted solves are refused, yet it is made first: a parity block of the
    refined lattice sunk under its floor, which supplies no level, passes
    the certificate's counts from the floor, and only that count raises.
    """
    base, folded, levels, blocks = len(grids) - 2, mirror is not None, [], []
    tol, n = _bisection_tol(*grids[base].matrix), grids[base].matrix[0].size
    for i, grid in enumerate(grids):
        blocks.append(grid.blocks(folded))
        try:
            firsts = _inertia(blocks[i], grid) if i < 2 else None
        except NonConvergenceError:
            if not base:
                raise
            return _levels(grids[base:], k, mirror, vectors)
        w = None
        if i >= max(base, 1):
            w = _in_windows(blocks[i], _h2(*levels[-2:], grids[i - 2].r, grids[i - 1].r, grid.r)
                            if i > 1 else levels[-1], tol, grid.floor)
            if w is None and base:
                return _levels(grids[base:], k, mirror, vectors)
        if w is None:
            w = _by_index(blocks[i], k, firsts)
            if folded and i == base and not _counted(blocks[i], w, grid.floor, _top(w, tol)):
                return _levels(grids, k, None, vectors)
        levels.append(w)
    vecs = None
    if vectors:
        vecs, size = np.empty((n, k)), len(blocks[base])
        for p, block in enumerate(blocks[base][:k]):
            psi = _eigenvectors(*block, levels[base][p::size])
            vecs[:, p::size] = psi if size == 1 else _unfold(psi, n, (1 - 2 * p) * mirror)
    (coarse, fine), (w, w_fine) = grids[base:], levels[base:]
    return _h2(w, w_fine, coarse.r, fine.r, 0.0), np.abs(w - w_fine), vecs


def _free_eigs(grid: QGrid, k: int, with_vectors: bool):
    """Lowest k eigenpairs of tridiag(-1, 2, -1)/h^2 of order n, in closed form.

    lam_k = (2/h sin(k pi / (2(n+1))))^2 and phi_k[j] = sin(j k pi / (n+1))
    (DST-I), the vectors None unless ``with_vectors``.
    """
    n, ks = grid.n, np.arange(1, k + 1)
    w = (2.0 / grid.h * np.sin(ks * (math.pi / (2 * (n + 1))))) ** 2
    return w, (np.sin(np.outer(np.arange(1, n + 1), ks) * (math.pi / (n + 1)))
               if with_vectors else None)


def _ladder_grids(grid: QGrid, k: int) -> List[QGrid]:
    """The grids of the ladder that leads a solve of k levels on ``grid`` of n
    nodes (phi1 nodes on a lattice), in either mode, where it pays (n >= 2000
    and k <= n // 64): n // 32 and n // 16 nodes between its walls; else
    none."""
    return [QGrid(grid.lo, grid.hi, grid.n // m) for m in (32, 16)
            if grid.n >= 2000 and k <= grid.n // 64]


def _require_finite(field: PotentialField, name: str) -> None:
    """Raise SingularNodeError naming how many nodes of ``field`` hold a
    non-finite V, and the q of the first, if any does."""
    bad = np.flatnonzero(field.singular)
    if bad.size:
        raise SingularNodeError(f"V is not finite at {bad.size} node(s) of the {name}, the "
                                f"first at q = {field.grid.nodes[bad[0]]:.6g}")


def solve_fixed(potential: PotentialField, k_states: int,
                vectors: bool = True) -> SpectrumResult:
    """Lowest k_states eigenpairs of the fixed potential.

    Eigenvalues are Richardson-refined over (h, h/2) with
    error_estimate = |lam_h - lam_{h/2}| / 3; eigenvectors live on the
    base grid, normalized so that sum(phi^2) h = 1. With ``vectors=False``
    none is computed: each pair's phi is None and its nodes its index; the
    levels and error estimates are the same bit for bit, as _levels computes
    the vectors after the levels. The grids handed to _levels are the
    potential's Schrödinger matrices on its own grid and the refined one,
    each with its min V as floor, led by its matrices on the _ladder_grids
    (n >= 2000, k_states <= n // 64) where neither has a singular node. A
    constant-u field whose A^2 overflows raises (square_finite).

    A field whose values on both grids match their mirror (_even) is
    averaged with it on every grid, and _levels folds it: the first
    ceil(n/2) nodes make an even and an odd block (see _fold). Vector j has
    j sign changes, so the even block supplies levels 0, 2, 4, ... and the
    odd block 1, 3, ..., which Sturm counts certify (else the whole matrix
    is solved); vectors unfold by mirroring, and an odd vector is positive
    at the left one of its two largest samples.
    """
    if k_states < 1:
        raise InvalidParameterError("k_states must be >= 1")
    grid = potential.grid
    if potential.mode == CONSTANT_U:
        square_finite(potential.constant_a, "A")
    _require_finite(potential, "grid")
    if k_states > grid.n // 2:
        raise InsufficientResolutionError(f"cannot resolve {k_states} states on {grid.n} nodes")

    if potential.mode == CONSTANT_U:
        offset = float(potential.constant_a) ** 2
        w, vecs = _free_eigs(grid, k_states, with_vectors=vectors)
        fine = grid.refined()
        w_fine = _free_eigs(fine, k_states, with_vectors=False)[0]
        lam, gap = _h2(w, w_fine, 1.0, (fine.h / grid.h) ** 2, 0.0), np.abs(w - w_fine)
    else:
        offset = 0.0
        fine = potential.on_grid(grid.refined())
        _require_finite(fine, "refined grid")
        even = _even(potential.values, fine.values)

        def grid_of(field: PotentialField) -> _Grid:
            values = _mirror_average(field.values, even)
            return _Grid(_schrodinger(values, field.grid.h), (field.grid.h / grid.h) ** 2,
                         float(np.min(values)))

        fields, ladder = [potential, fine], []
        for coarse in _ladder_grids(grid, k_states):
            ladder.append(potential.on_grid(coarse))
            if np.any(ladder[-1].singular):
                break
        else:
            fields = ladder + fields
        lam, gap, vecs = _levels([grid_of(field) for field in fields], k_states,
                                 np.ones(grid.n // 2) if even else None, vectors)

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


def _hardy_check(fields_on, lo: float, hi: float) -> None:
    """Raise UnboundedBelowError when V is unbounded below at a wall of (lo, hi).

    V d^2 at the node next to each wall of a 3-node probe 2e-8 of the width
    wide, d = 0.5e-8 of the width its distance from that wall, reads the wall
    coefficient c of V ~ c / d^2; below -1/4 V has no lowest level there
    (Hardy). ``fields_on(grids)`` gives V on both probes in one call or,
    where that raises a NumericalError, in one call each, the low wall
    first. A probe that raises DomainError (nodes that round onto its wall)
    or SingularNodeError (u^2 overflowing there) reads no coefficient for
    its wall; any other error propagates with its own cause.
    """
    width = hi - lo
    probes = [QGrid(lo, lo + 2e-8 * width, 3), QGrid(hi - 2e-8 * width, hi, 3)]
    try:
        fields = fields_on(probes)
    except NumericalError:
        fields = [None, None]
    for probe, field, wall, near in zip(probes, fields, (lo, hi), (0, -1)):
        try:
            values = (fields_on((probe,))[0] if field is None else field).values
        except (DomainError, SingularNodeError):
            continue
        c = values[near] * (probe.nodes[near] - wall) ** 2
        if c < -0.25:
            raise UnboundedBelowError(
                f"wall coefficient c = V d^2 = {c:.6g} < -1/4 at q = {wall:g}: V is "
                f"unbounded below at that wall, so it has no lowest level")


def solve_approximate(model: ModelSpec, tmap: TransformMap, n: int,
                      k_states: int, vectors: bool = True) -> SpectrumResult:
    """Lowest k_states levels of the energy-independent (approximate) potential.

    A finite q-range gets the plain grid of n nodes, once _hardy_check finds
    V bounded below at both walls; V on it and on the ladder and refined
    grids solve_fixed reads comes from one pass (approx_potential's
    ``also``), as V on the two wall probes does. An infinite side is cut at
    |q| = L, a wall of the grid of n nodes, L doubled until the levels
    settle (expand_until_settled). The result's ``field`` is the potential
    of the grid it was solved on; ``vectors`` as in solve_fixed.
    """
    def fields_on(grids):
        first = approx_potential(model, grids[0], tmap, also=grids[1:])
        return [first] + [first.on_grid(grid) for grid in grids[1:]]

    lo, hi = tmap.q_lo, tmap.q_hi
    if math.isfinite(lo) and math.isfinite(hi):
        _hardy_check(fields_on, lo, hi)
        grid = QGrid(lo, hi, n)
        also = _ladder_grids(grid, k_states) + [grid.refined()]
        return solve_fixed(approx_potential(model, grid, tmap, also=also), k_states,
                           vectors=vectors)
    return expand_until_settled(
        lambda L: approx_potential(model, QGrid(lo if math.isfinite(lo) else -L,
                                                hi if math.isfinite(hi) else L, n),
                                   tmap),
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


def _free_lattice(grid: QGrid, u: np.ndarray, tol: float, k: int, vectors: bool):
    """(levels, gap, unit vectors) as _levels gives them, in closed form, when
    u lies within tol of a = (max u + min u) / 2 >= 0, else None (also for
    NaN); see the module docstring. chi_i = (phi_i - phi_{i-1}) / (h (E + a))
    are the chi rows of _staggered."""
    top, bottom = float(np.max(u)), float(np.min(u))
    a = 0.5 * (top + bottom)
    if not (a >= 0.0 and 0.5 * (top - bottom) <= tol):
        return None
    w, vecs = _free_eigs(grid, k, vectors)  # phi1 on the n nodes
    w, w_fine = np.sqrt(a * a + w), np.sqrt(a * a + _free_eigs(grid.refined(), k, False)[0])
    if vectors:
        chi = np.diff(vecs, axis=0, prepend=0.0, append=0.0) / (grid.h * (w + a))
        vecs = np.insert(chi, np.arange(1, grid.n + 1), vecs, axis=0)  # chi_1, phi1_1, chi_2, ...
        vecs /= np.linalg.norm(vecs, axis=0)
    return _h2(w, w_fine, 1.0, 0.25, 0.0), np.abs(w - w_fine), vecs


def solve_exact(model: ModelSpec, tmap: TransformMap, n: int,
                k_states: int, vectors: bool = True) -> SpectrumResult:
    """Lowest k_states positive energies of H = sigma_x p_q + sigma_z u(q), u = m v_F^2.

    On (phi1, chi), with phi = sqrt(v_F) psi and phi2 = -i chi, H is the real
    symmetric [u, -d/dq; d/dq, -u]; a staggered lattice (Susskind) with phi1 = 0
    on the finite walls of q makes it one tridiagonal matrix (_staggered). E is Richardson-
    refined over (n, 2n+1) nodes: ``lam`` = E^2, ``error_estimate`` = 2 E |E_h - E_{h/2}| / 3.
    The map is inverted in one call (TransformMap.inverse_grids), on the fine
    lattice (q = lo + j h/4) and the ladder's sites, sorted together: every
    base site (q = lo + j h/2) is bit for bit a second fine site, and the
    phi1 nodes (``grid.nodes``) every fourth, which the map caches.
    A u on the fine lattice within the base lattice's _bisection_tol of a
    constant a >= 0 takes the closed form (_free_lattice), which builds no other
    lattice and calls no LAPACK routine. Any other u hands _levels the staggered
    lattices over n and 2n+1 phi1 nodes, each with n+1 and 2n+2 eigenvalues at
    or under its inertia floor, led by the lattices over the _ladder_grids'
    phi1 nodes (n >= 2000, k_states <= n // 64), whatever the walls. A u whose
    square overflows on the fine lattice raises (square_finite). Vectors have
    h sum(phi1^2 + chi^2) = 1 and phi1 > 0 at its largest sample (the first
    of equal ones). With ``vectors=False`` none is computed: each pair's phi
    and chi are None and its nodes its index, and the levels and error
    estimates are bit for bit the same.

    When u on the fine lattice matches its mirror (_even), u is averaged with
    it on every lattice, which then commutes with P = diag((-1)^j) J and is
    solved as two parity blocks (_fold, _levels), or whole when _levels does
    not certify them. The lowest level sits in the corner block when the
    number of phi1 nodes is even and in the centre's when it is odd (so on
    the fine lattice, with 2n+1 phi1 nodes, always in the centre's).
    """
    if not (math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi)):
        raise DomainError(f"exact mode needs a finite q-range; {model.name} maps "
                          f"onto q-range ({tmap.q_lo:g}, {tmap.q_hi:g})")
    if not 1 <= k_states <= n // 2:
        raise InsufficientResolutionError(f"cannot resolve {k_states} states on {n} nodes")
    grid = QGrid(tmap.q_lo, tmap.q_hi, n)
    coarse = _ladder_grids(grid, k_states)
    q_fine = tmap.q_lo + np.arange(1, 4 * n + 4) * (0.25 * grid.h)
    q = np.concatenate([np.empty(0)] + [g.lo + np.arange(1, 2 * g.n + 2) * (0.5 * g.h)
                                        for g in coarse])
    order = np.argsort(q, kind="stable")
    x_fine, x_coarse = tmap.inverse_grids([q_fine, q[order]])
    # fine site 4j is phi1 node j bit for bit: the lift and the exported potential reuse it
    tmap.remember(q_fine[3::4], x_fine[3::4])
    u_fine = u_values(model, x_fine)
    square_finite(u_fine, "u")
    even = _even(u_fine)
    u_fine = _mirror_average(u_fine, even)

    def lattice(u: np.ndarray, h: float) -> _Grid:
        m = u.size // 2  # phi1 nodes
        return _Grid(_staggered(u, h), (h / grid.h) ** 2, _inertia_floor(u, h), m + 1, m % 2 == 0)

    base = lattice(u_fine[1::2], grid.h)
    found = _free_lattice(grid, u_fine, _bisection_tol(*base.matrix), k_states, vectors)
    if found is None:
        grids = [base, lattice(u_fine, 0.5 * grid.h)]
        if coarse:
            u_all = np.empty_like(q)
            u_all[order] = u_values(model, x_coarse)
            grids = [lattice(_mirror_average(u, even), g.h)
                     for g, u in zip(coarse, np.split(u_all, [2 * coarse[0].n + 1]))] + grids
        mirror = np.where(np.arange(n) % 2, 1.0, -1.0) if even else None  # (-1)^(j+1)
        found = _levels(grids, k_states, mirror, vectors)
    lam, gap, vecs = found
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
