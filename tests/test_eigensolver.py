import dataclasses
import math
import sys
from importlib.machinery import PathFinder

import numpy as np
import pytest
import scipy.linalg

from diracpd import eigensolver
from diracpd import (
    MassProfile,
    ModelSpec,
    PotentialField,
    QGrid,
    approx_potential,
    build_transform,
    builtin_model,
    constant_u_potential,
    detect_constant_u,
    energies_from_lambda,
    exact_potential,
    expand_until_settled,
    s_parameter,
    solve_approximate,
    solve_exact,
    solve_fixed,
    solve_self_consistent,
    VelocityProfile,
)
from diracpd.errors import (
    ImaginaryEnergyError,
    InsufficientResolutionError,
    InvalidParameterError,
    NonConvergenceError,
    SingularNodeError,
)

E1_COSH_MASSIVE = 1.8620958891185866  # sqrt(pi^2/4 + 1)


def free_field(lo, hi, n):
    return PotentialField.from_function(lambda q: 0.0 * q, QGrid(lo, hi, n))


class TestSolveFixed:
    def test_particle_in_a_box(self):
        res = solve_fixed(free_field(0.0, 1.0, 2000), 5)
        lam = np.array([p.lam for p in res.pairs])
        exact = (np.arange(1, 6) * math.pi) ** 2
        assert np.max(np.abs(lam - exact) / exact) <= 1e-6
        assert lam[0] == pytest.approx(math.pi ** 2, rel=1e-6)

    def test_box_various_widths(self):
        for lo, hi in [(-1.0, 1.0), (0.0, 2.5), (-0.3, 0.4)]:
            width = hi - lo
            res = solve_fixed(free_field(lo, hi, 1500), 5)
            for n, pair in enumerate(res.pairs, start=1):
                exact = (n * math.pi / width) ** 2
                assert pair.lam == pytest.approx(exact, rel=1e-6)

    def test_cosh_massless_energy(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 2000, offset=False)
        res = solve_fixed(constant_u_potential(0.0, grid), 1)
        assert res.energies[0][0] == pytest.approx(math.pi / 2, rel=1e-6)

    def test_harmonic_oscillator(self):
        g = QGrid(-12.0, 12.0, 4000, offset=False)
        f = PotentialField.from_function(lambda q: q ** 2, g)
        res = solve_fixed(f, 3)
        for k, pair in enumerate(res.pairs):
            assert pair.lam == pytest.approx(2 * k + 1, abs=1e-6)

    def test_poschl_teller_ground_state(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 8000, offset=True)
        res = solve_fixed(approx_potential(model, grid, tmap), 1)
        s = s_parameter(1.0, 1.0, 1.0)
        oracle = 1.0 / 16.0 + s ** 2
        assert res.pairs[0].lam == pytest.approx(oracle, rel=1e-6)

    def test_sturm_node_counts(self):
        res = solve_fixed(free_field(0.0, 1.0, 800), 6)
        assert [p.nodes for p in res.pairs] == list(range(6))
        g = QGrid(-10.0, 10.0, 2000, offset=False)
        f = PotentialField.from_function(lambda q: 0.25 * q ** 2, g)
        res2 = solve_fixed(f, 4)
        assert [p.nodes for p in res2.pairs] == list(range(4))

    def test_eigenvector_normalization(self):
        res = solve_fixed(free_field(0.0, 1.0, 500), 3)
        for pair in res.pairs:
            assert np.sum(pair.phi ** 2) * pair.grid.h == pytest.approx(1.0,
                                                                        abs=1e-12)

    def test_parity_alternation(self):
        g = QGrid(-6.0, 6.0, 1501, offset=False)
        f = PotentialField.from_function(lambda q: q ** 2, g)
        res = solve_fixed(f, 4)
        for k, pair in enumerate(res.pairs):
            flipped = pair.phi[::-1] * (-1) ** k
            assert np.max(np.abs(pair.phi - flipped)) <= 1e-6

    def test_grid_convergence_factor(self):
        # error_estimate = |lam(h) - lam(h/2)|/3 shrinks by >= 3.5 per halving
        # on smooth potentials (ideal factor 4 for a second-order scheme)
        g1 = QGrid(0.0, 1.0, 250, offset=False)
        f1 = PotentialField.from_function(lambda q: 3.0 * np.cos(2 * q), g1)
        e1 = solve_fixed(f1, 1).pairs[0].error_estimate
        e2 = solve_fixed(f1.on_grid(g1.refined()), 1).pairs[0].error_estimate
        assert e1 / e2 >= 3.5

    def test_richardson_error_estimate(self):
        res = solve_fixed(free_field(0.0, 1.0, 500), 1)
        pair = res.pairs[0]
        assert pair.error_estimate > 0
        # the refined value should sit within a few estimates of the truth
        assert abs(pair.lam - math.pi ** 2) <= 5 * pair.error_estimate

    def test_constant_u_offset_energy(self):
        grid = QGrid(-1.0, 1.0, 1200, offset=False)
        res0 = solve_fixed(constant_u_potential(0.0, grid), 5)
        res1 = solve_fixed(constant_u_potential(1.0, grid), 5)
        lam0 = np.array([p.lam for p in res0.pairs])
        lam1 = np.array([p.lam for p in res1.pairs])
        assert np.array_equal(lam0, lam1)  # same free operator, bitwise
        e0 = np.array([e[0] for e in res0.energies])
        e1 = np.array([e[0] for e in res1.energies])
        assert np.max(np.abs(e1 ** 2 - e0 ** 2 - 1.0)) <= 1e-8
        assert res1.offset == 1.0
        assert e1[0] == pytest.approx(E1_COSH_MASSIVE, rel=1e-6)

    @pytest.mark.parametrize("offset", [False, True])
    def test_closed_form_matches_lapack(self, offset):
        grid = QGrid(-1.3, 2.1, 2000, offset=offset)
        w, vecs = eigensolver._free_eigs(grid, 5, with_vectors=True)
        w_lapack, vecs_lapack = eigensolver.eigh_tridiagonal(
            *eigensolver._schrodinger(np.zeros(grid.n), grid.h), select="i", select_range=(0, 4))
        assert np.max(np.abs(w - w_lapack) / w_lapack) <= 1e-9
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        vecs *= np.sign(np.sum(vecs * vecs_lapack, axis=0))
        assert np.max(np.abs(vecs - vecs_lapack)) <= 1e-10

    def test_only_approximate_mode_bisects(self, monkeypatch):
        # index-range bisection only on the base grid: once per parity block, on
        # ceil(n/2) rows, for a field even about the grid's centre, once on all
        # n rows otherwise; the refined grid bisects by value
        calls = []
        real = eigensolver.eigh_tridiagonal

        def counted(d, *args, **kwargs):
            calls.append((kwargs["select"], d.size))
            return real(d, *args, **kwargs)

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", counted)
        cosh = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(cosh.velocity, cosh.anchor)
        field = constant_u_potential(1.0, QGrid(tmap.q_lo, tmap.q_hi, 2000))
        # constant-u mode needs no potential on the refined grid either
        solve_fixed(dataclasses.replace(field, evaluator=None), 3)
        assert calls == []
        pt = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(pt.velocity, pt.anchor)
        field = approx_potential(pt, QGrid(tmap.q_lo, tmap.q_hi, 2000, offset=True), tmap)
        cosh = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        skewed = approx_potential(dataclasses.replace(cosh, u_closed=SKEWED_U),
                                  QGrid(tmap.q_lo, tmap.q_hi, 2000, offset=True), tmap)
        for f, rows in ((field, [1000, 1000]), (skewed, [2000])):
            calls.clear()
            solve_fixed(f, 3)
            assert calls[0] == ("i", rows[0])
            assert [size for select, size in calls if select == "i"] == rows
            assert len(calls) > len(rows) and all(select in "iv" for select, _ in calls)

    def test_constant_u_at_machine_precision(self):
        # bisection left 5.4e-8 on level 0 here; the closed form leaves rounding only
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 32000, offset=False)
        res = solve_fixed(constant_u_potential(1.0, grid), 5)
        for k, (e, _) in enumerate(res.energies):
            exact = math.hypot((k + 1) * math.pi / 2, 1.0)
            assert abs(e - exact) <= 1e-11 * exact

    def test_insufficient_resolution(self):
        with pytest.raises(InsufficientResolutionError):
            solve_fixed(free_field(0.0, 1.0, 64), 40)

    def test_singular_nodes_rejected(self):
        g = QGrid(0.0, 1.0, 100, offset=False)
        f = PotentialField.from_function(
            lambda q: np.where(np.abs(q - 0.5) < 0.01, np.nan, 0.0), g)
        with pytest.raises(SingularNodeError):
            solve_fixed(f, 1)

    def test_k_states_validation(self):
        with pytest.raises(InvalidParameterError):
            solve_fixed(free_field(0.0, 1.0, 100), 0)


class TestEnergiesFromLambda:
    def test_cosh_massive_level(self):
        e_plus, e_minus = energies_from_lambda(math.pi ** 2 / 4, 1.0)
        assert e_plus == pytest.approx(E1_COSH_MASSIVE, rel=1e-12)
        assert e_minus == -e_plus

    def test_rest_energy(self):
        assert energies_from_lambda(0.0, 1.0) == (1.0, -1.0)

    def test_published_oscillator_value(self):
        e_plus, _ = energies_from_lambda(1.0 - 1.0 / 16.0, 0.0)
        assert e_plus == pytest.approx(0.9682458365518543, rel=1e-12)

    def test_imaginary_energy(self):
        with pytest.raises(ImaginaryEnergyError):
            energies_from_lambda(-2.0, 1.0)


class TestSelfConsistent:
    def test_cosh_massive_immediate_fixed_point(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 2000, offset=False)
        pair, e_conv, history = solve_self_consistent(model, tmap, grid, 0, 2.0)
        assert len(history) - 1 <= 2
        assert e_conv == pytest.approx(E1_COSH_MASSIVE, rel=1e-6)
        assert pair.nodes == 0

    def test_massless_matches_fixed_solve(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 1500, offset=False)
        pair, e_conv, _ = solve_self_consistent(model, tmap, grid, 0, 1.0)
        fixed = solve_fixed(exact_potential(model, 1.0, grid, tmap), 1)
        assert e_conv == pytest.approx(math.sqrt(fixed.pairs[0].lam), rel=1e-12)

    def test_poschl_teller_exact_mode(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 4000, offset=True)
        approx = solve_fixed(approx_potential(model, grid, tmap), 1)
        e_approx = approx.energies[0][0]
        pair, e_exact, history = solve_self_consistent(model, tmap, grid, 0,
                                                       e_approx)
        assert len(history) - 1 < 60
        # the energy-dependent bracket shifts the level; both stay near 1.5
        assert abs(e_exact - e_approx) < 0.05
        assert e_exact == pytest.approx(1.5, abs=1e-6)

    def test_nonconvergence_carries_history(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 1000, offset=True)
        with pytest.raises(NonConvergenceError) as err:
            solve_self_consistent(model, tmap, grid, 0, 3.0, tol=1e-14,
                                  max_iter=1)
        assert len(err.value.history) >= 1

    def test_bad_tolerance(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(-0.9, 0.9, 200, offset=False)
        with pytest.raises(InvalidParameterError):
            solve_self_consistent(model, tmap, grid, 0, 1.0, tol=0.0)


def pt_exact(alpha, v0, g):
    """poschl_teller at g = m0 v0 / alpha, with its exact-mode ladder."""
    params = dict(alpha=alpha, v0=v0, m0=g * alpha / v0)
    return "poschl_teller", params, lambda k: alpha * v0 * (g + k + 0.5)


class TestSolveExact:
    @pytest.mark.parametrize("name,params,ladder,tol", [
        (*pt_exact(1.0, 1.0, 1.0), 1e-10),
        (*pt_exact(1.3, 0.8, 3.0), 1e-10),
        ("cosh_square", dict(alpha=1, v0=1, m0=1),
         lambda k: math.hypot((k + 1) * math.pi / 2, 1.0), 1e-11),
        ("cosh_square", dict(alpha=1, v0=1, m0=0),  # zero mode at index n
         lambda k: (k + 1) * math.pi / 2, 1e-11),
        ("rational", dict(alpha=1.2, v0=0.9, m0=1.5),
         lambda k: math.hypot((k + 1) * 1.2 * 0.9, 1.5 * 0.9 ** 2), 1e-11),
    ], ids=["poschl_teller_g1", "poschl_teller_g3", "cosh_square", "cosh_square_massless",
            "rational"])
    def test_matches_closed_form(self, name, params, ladder, tol):
        model = builtin_model(name, **params)
        tmap = build_transform(model.velocity, model.anchor)
        res = solve_exact(model, tmap, 2000, 4)
        assert res.mode == "exact"
        for k, pair in enumerate(res.pairs):
            e = res.energies[k][0]
            assert abs(e - ladder(k)) <= tol * ladder(k)
            assert pair.lam == e * e
            assert pair.nodes == k
            assert pair.chi.size == pair.phi.size + 1

    def test_agrees_with_self_consistent_reduction(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        lattice = solve_exact(model, tmap, 2000, 2)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 2000, offset=True)
        for k in range(2):
            e_lat = lattice.energies[k][0]
            _, e_sc, _ = solve_self_consistent(model, tmap, grid, k, e_lat)
            assert abs(e_lat - e_sc) <= 1e-7 * e_lat

    @pytest.mark.parametrize("closed_form", [True, False], ids=["closed_form", "newton"])
    def test_phi1_nodes_come_from_the_lattice_inversion(self, monkeypatch, closed_form):
        model = builtin_model("poschl_teller", alpha=1.3, v0=0.8, m0=2.0)
        if not closed_form:  # the same velocity inverted through the panel table
            v = model.velocity
            model = dataclasses.replace(model, velocity=VelocityProfile.from_callable(
                v.func, v.dfunc, v.d2func, domain=v.domain))
        tmap = build_transform(model.velocity, model.anchor)
        assert (tmap.q_shift is None) != closed_form
        result = solve_exact(model, tmap, 301, 2)
        nodes = result.pairs[0].grid.nodes
        solves = []
        monkeypatch.setattr(type(tmap), "_solve", lambda self, q: solves.append(q.size))
        x = tmap.inverse_grid(nodes)
        assert solves == []  # a warm lookup: the lattice inversion holds every node
        monkeypatch.undo()
        fresh = build_transform(model.velocity, model.anchor).inverse_grid(nodes)
        assert x.tobytes() == fresh.tobytes()

    def test_inertia_is_checked(self, monkeypatch):
        # u < 0 puts n+1 positive eigenvalues on the lattice, not n
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        flipped = dataclasses.replace(model, u_closed=(lambda x: -np.ones_like(x),) * 3)
        tmap = build_transform(model.velocity, model.anchor)
        with pytest.raises(NonConvergenceError, match="inertia"):
            solve_exact(flipped, tmap, 200, 1)
        # the same with an odd part in u, which takes the whole lattice
        skewed = dataclasses.replace(model, u_closed=tuple(
            lambda x, f=f: -f(x) for f in SKEWED_U))
        with pytest.raises(NonConvergenceError, match="inertia"):
            solve_exact(skewed, tmap, 200, 1)
        # either parity block of either lattice (401 and 803 sites) sunk under the floor
        real_fold = eigensolver._fold
        for sites in (401, 803):
            for p in (0, 1):
                def sunk(d, e, sites=sites, p=p):
                    blocks = list(real_fold(d, e))
                    if d.size == sites:
                        blocks[p] = (blocks[p][0] - 1e4, blocks[p][1])
                    return tuple(blocks)

                monkeypatch.setattr(eigensolver, "_fold", sunk)
                with pytest.raises(NonConvergenceError, match="inertia"):
                    solve_exact(model, tmap, 200, 1)
        monkeypatch.setattr(eigensolver, "_fold", real_fold)
        # u < 0 on the sites only the refined lattice has: the coarse lattice is
        # sound, the refined one's count up to the floor is not 2n + 2
        real = eigensolver.product_u

        def flip_refined_sites(model, x):
            u, u1, u2 = real(model, x)
            u = u.copy()
            u[0::2] *= -1.0
            return u, u1, u2

        monkeypatch.setattr(eigensolver, "product_u", flip_refined_sites)
        with pytest.raises(NonConvergenceError, match="inertia"):
            solve_exact(model, tmap, 200, 1)


class TestSolveApproximate:
    @pytest.mark.parametrize("name,offset", [("poschl_teller", True), ("cosh_square", False)])
    def test_solve_fixed_on_the_probed_grid(self, name, offset):
        # poschl_teller's 1/sin^2 walls take the offset grid; cosh_square's potential
        # (approximate mode on a constant-u model) stays finite there: the plain grid
        model = builtin_model(name, alpha=1.0, v0=1.0, m0=1.5)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 400, offset=offset)
        want = solve_fixed(approx_potential(model, grid, tmap), 3)
        got = solve_approximate(model, tmap, 400, 3)
        assert got.field.grid == grid
        assert np.array_equal(got.field.values, want.field.values)
        assert got.energies == want.energies
        for a, b in zip(got.pairs, want.pairs, strict=True):
            assert (a.lam, a.nodes, a.error_estimate, a.grid) == (b.lam, b.nodes,
                                                                  b.error_estimate, b.grid)
            assert np.array_equal(a.phi, b.phi)

    def test_unconfined_infinite_side(self):
        model = builtin_model("linear_singular", A=1.0, v0=1.0)
        tmap = build_transform(model.velocity, model.anchor)
        with pytest.raises(NonConvergenceError, match="does not confine"):
            solve_approximate(model, tmap, 400, 1)


# u, u' and u'' with an odd part of 1e-3, and of an even, non-constant u
SKEWED_U = (lambda x: 1.0 + 1e-3 * np.tanh(x), lambda x: 1e-3 / np.cosh(x) ** 2,
            lambda x: -2e-3 * np.tanh(x) / np.cosh(x) ** 2)
EVEN_U = (lambda x: 1.0 + 0.5 / np.cosh(x) ** 2, lambda x: -np.tanh(x) / np.cosh(x) ** 2,
          lambda x: (2.0 * np.sinh(x) ** 2 - 1.0) / np.cosh(x) ** 4)


def pt_matrices(n, lattice):
    """poschl_teller (1.43, 1.90, 2.63): base levels, base tolerance, refined matrix.

    Returns (d, e, guesses, tol, floor, below) for the refined grid; ``below``
    is also the index of its lowest refined level.
    """
    model = builtin_model("poschl_teller", alpha=1.43, v0=1.90, m0=2.63)
    tmap = build_transform(model.velocity, model.anchor)
    if lattice:
        grid = QGrid(tmap.q_lo, tmap.q_hi, n, offset=False)
        u = eigensolver.product_u(model, tmap.inverse_grid(
            tmap.q_lo + np.arange(1, 4 * n + 4) * (0.25 * grid.h)))[0]
        coarse = eigensolver._staggered(u[1::2], grid.h)
        w = eigensolver.eigh_tridiagonal(*coarse, eigvals_only=True, select="i",
                                         select_range=(n + 1, n + 4))
        tol = eigensolver._bisection_tol(*coarse)
        d, e = eigensolver._staggered(u, 0.5 * grid.h)
        return d, e, w, tol, eigensolver._inertia_floor(u, 0.5 * grid.h), 2 * n + 2
    field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, n, offset=True), tmap)
    fine = field.on_grid(field.grid.refined())
    w = eigensolver.eigh_tridiagonal(*eigensolver._schrodinger(field.values, field.grid.h),
                                     eigvals_only=True, select="i", select_range=(0, 3))
    tol = eigensolver._bisection_tol(*eigensolver._schrodinger(field.values, field.grid.h))
    d, e = eigensolver._schrodinger(fine.values, fine.grid.h)
    return d, e, w, tol, float(np.min(fine.values)), 0


class TestRefinedBrackets:
    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("lattice", [False, True], ids=["approximate", "lattice"])
    def test_matches_index_range_bisection(self, n, lattice):
        d, e, guesses, tol, floor, below = pt_matrices(n, lattice)
        w = eigensolver._bisect_near(d, e, guesses, tol, floor, below)
        assert w is not None
        ref = eigensolver.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                           select_range=(below, below + guesses.size - 1),
                                           tol=tol)
        assert np.max(np.abs(w - ref)) <= 2.0 * tol

    def test_wrong_floor_count_is_not_certified(self):
        d, e, guesses, tol, floor, below = pt_matrices(2000, lattice=True)
        assert eigensolver._bisect_near(d, e, guesses, tol, floor, below + 1) is None

    def test_coarse_grid_falls_back_to_index_range(self):
        # n = 64, k = 32: the refined levels shift by more than half a gap, so in
        # neither parity block are the windows certified, and each refined block
        # is bisected by index
        pt = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(pt.velocity, pt.anchor)
        field = approx_potential(pt, QGrid(tmap.q_lo, tmap.q_hi, 64, offset=True), tmap)
        res = solve_fixed(field, 32)
        fine = field.on_grid(field.grid.refined())
        values, fine_values = eigensolver._symmetrized(field.values, fine.values)
        base = eigensolver._fold(*eigensolver._schrodinger(values, field.grid.h))
        refined = eigensolver._fold(*eigensolver._schrodinger(fine_values, fine.grid.h))
        tol = eigensolver._bisection_tol(*eigensolver._schrodinger(values, field.grid.h))
        w, w_fine = np.empty(32), np.empty(32)
        for p in (0, 1):
            w[p::2] = eigensolver.eigh_tridiagonal(*base[p], eigvals_only=True, select="i",
                                                   select_range=(0, 15))
            assert eigensolver._bisect_near(*refined[p], w[p::2], tol,
                                            float(np.min(fine.values)), 0) is None
            w_fine[p::2] = eigensolver.eigh_tridiagonal(*refined[p], eigvals_only=True,
                                                        select="i", select_range=(0, 15))
        assert [p.lam for p in res.pairs] == list((4.0 * w_fine - w) / 3.0)


class TestLapackBinding:
    """The package's eigh_tridiagonal is scipy.linalg's, with ==, for each call it makes."""

    @staticmethod
    def assert_same(d, e, **kwargs):
        got = eigensolver.eigh_tridiagonal(d, e, **kwargs)
        want = scipy.linalg.eigh_tridiagonal(d, e, **kwargs)
        if kwargs.get("eigvals_only"):
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
        return got[0]

    @pytest.mark.parametrize("folded", [False, True], ids=["whole", "folded"])
    @pytest.mark.parametrize("lattice", [False, True], ids=["approximate", "lattice"])
    def test_call_shapes(self, lattice, folded):
        d, e, _, tol, floor, below = pt_matrices(400, lattice)
        for d, e in eigensolver._fold(d, e) if folded else [(d, e)]:
            first = below // 2 if folded else below
            for vectors in (False, True):
                for lo in sorted({0, first}):
                    self.assert_same(d, e, eigvals_only=not vectors, select="i",
                                     select_range=(lo, lo + 3))
            w = self.assert_same(d, e, eigvals_only=True, select="i",
                                 select_range=(first, first + 3), tol=tol)
            for lam in w:  # the window _bisect_near starts with, and an empty one above it
                half = max(1e-6 * abs(lam), tol)
                for lo, size in ((lam - half, 1), (lam + half, 0)):
                    assert self.assert_same(d, e, eigvals_only=True, select="v", tol=tol,
                                            select_range=(lo, lo + 2 * half)).size == size
            for hi in (floor, w[-1]):  # the Sturm counts of _count
                self.assert_same(d, e, eigvals_only=True, select="v",
                                 select_range=(-math.inf, hi), tol=math.inf)

    def test_one_row_blocks(self):
        # n = 3 folds into blocks of 2 and 1 rows; the 1-row block takes
        # scipy's quick exit, inside and outside a window
        (d2, e2), (d1, e1) = eigensolver._fold(np.array([3.0, 1.0, 3.0]), np.array([-0.5, -0.5]))
        assert (d2.size, d1.size) == (2, 1)
        for d, e in ((d2, e2), (d1, e1)):
            for vectors in (False, True):
                self.assert_same(d, e, eigvals_only=not vectors, select="i", select_range=(0, 0))
                for window in ((2.0, 4.0), (3.0, 4.0), (-math.inf, 2.0)):
                    self.assert_same(d, e, eigvals_only=not vectors, select="v",
                                     select_range=window, tol=math.inf)

    def test_split_matrix(self):
        # a zero off-diagonal splits the matrix: stebz's order "E" sorts the levels
        # of both blocks, order "B" groups them by block until the sort after stein
        d, e = np.array([5.0, 1.0, 4.0, 2.0]), np.array([0.1, 0.0, 0.1])
        for vectors in (False, True):
            w = self.assert_same(d, e, eigvals_only=not vectors, select="i",
                                 select_range=(0, 3))
            assert np.all(np.diff(w) > 0)

    @pytest.mark.parametrize("d,e", [([1.0, np.nan, 1.0], [0.5, 0.5]),
                                     ([1.0, 2.0, 1.0], [0.5, np.inf]),
                                     ([1.0, 2.0, 1.0], [0.5])])
    def test_bad_input_raises_scipys_exception(self, d, e):
        for solve in (eigensolver.eigh_tridiagonal, scipy.linalg.eigh_tridiagonal):
            with pytest.raises(ValueError):
                solve(np.array(d), np.array(e), select="i", select_range=(0, 1))

    def test_extension_entry_is_left_as_found(self, monkeypatch):
        # a module already in sys.modules is reused and stays; one the package
        # loads itself is not left there, so that scipy.linalg's own import of
        # it binds it as its attribute
        module = sys.modules[eigensolver._FLAPACK]
        assert eigensolver._lapack() == (module.dstebz, module.dstein)
        assert sys.modules[eigensolver._FLAPACK] is module
        monkeypatch.delitem(sys.modules, eigensolver._FLAPACK)
        bound = eigensolver._lapack()
        assert eigensolver._FLAPACK not in sys.modules
        assert bound == (module.dstebz, module.dstein)

    def test_public_lapack_when_the_extension_is_not_found(self, monkeypatch):
        real = PathFinder.find_spec
        asked = []

        def find_spec(name, path=None, target=None):
            asked.append(name)
            return None if name == eigensolver._FLAPACK else real(name, path, target)

        monkeypatch.setattr(PathFinder, "find_spec", find_spec)
        monkeypatch.delitem(sys.modules, eigensolver._FLAPACK)
        bound = eigensolver._lapack()
        assert asked == [eigensolver._FLAPACK]
        assert eigensolver._FLAPACK not in sys.modules
        assert bound == (scipy.linalg.lapack.dstebz, scipy.linalg.lapack.dstein)
        monkeypatch.setattr(eigensolver, "_dstebz", bound[0])
        monkeypatch.setattr(eigensolver, "_dstein", bound[1])
        d, e, *_ = pt_matrices(400, lattice=False)
        self.assert_same(d, e, select="i", select_range=(0, 2))


def unit_vectors(pair):
    """The pair's vector (phi, and chi on the lattice), scaled to unit norm."""
    v = pair.phi if pair.chi is None else np.concatenate((pair.phi, pair.chi))
    return v / np.linalg.norm(v)


def assert_same_states(folded, full, tol):
    assert len(folded.pairs) == len(full.pairs)
    for k, (a, b) in enumerate(zip(folded.pairs, full.pairs)):
        assert a.nodes == b.nodes == k
        assert abs(folded.energies[k][0] - full.energies[k][0]) <= tol
        va, vb = unit_vectors(a), unit_vectors(b)
        assert np.max(np.abs(va * np.sign(va @ vb) - vb)) <= 1e-8


def unfolded(solve, *args):
    """``solve(*args)`` on the whole matrices, with the parity fold switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "_symmetrized", lambda *samples: None)
        return solve(*args)


class TestParityFold:
    """Even fields solve two parity blocks; the levels and vectors are the full solve's."""

    def test_mirror_test(self):
        v = np.array([3.0, -1.0, 0.5, -1.0, 3.0])
        assert eigensolver._symmetrized(v, v[1:-1]) is not None
        for gap, even in ((0.9e-8, True), (1.1e-8, False)):  # of the end samples' magnitude
            near = v.copy()
            near[-1] *= 1.0 + gap
            sym = eigensolver._symmetrized(near)
            assert (sym is not None) == even
            if even:
                assert np.array_equal(sym[0], sym[0][::-1])
        assert eigensolver._symmetrized(v, np.array([1.0, 2.0])) is None
        assert eigensolver._symmetrized(np.array([np.nan, 1.0, np.nan])) is None

    @pytest.mark.parametrize("k", [1, 4, 5])
    @pytest.mark.parametrize("name,n,offset", [
        ("poschl_teller", 2000, True), ("poschl_teller", 2001, True),
        ("cosh_square", 2000, False), ("cosh_square", 2001, False),
        ("rational", 2001, False)])
    def test_approximate_mode_matches_full_solve(self, name, n, offset, k):
        model = builtin_model(name, alpha=1.43, v0=1.9, m0=2.63)
        tmap = build_transform(model.velocity, model.anchor)
        field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, n, offset=offset), tmap)
        assert eigensolver._symmetrized(field.values,
                                        field.on_grid(field.grid.refined()).values) is not None
        full = unfolded(solve_fixed, field, k)
        tol = eigensolver._bisection_tol(*eigensolver._schrodinger(field.values, field.grid.h))
        folded = solve_fixed(field, k)
        for a, b in zip(folded.pairs, full.pairs):
            assert abs(a.lam - b.lam) <= 2.0 * tol
            # |phi| is exactly even: the sign is taken at the left largest sample
            i = int(np.argmax(np.abs(a.phi)))
            assert a.phi[i] > 0 and 2 * i < n and abs(a.phi[n - 1 - i]) == a.phi[i]
        assert_same_states(folded, full, math.inf)

    @pytest.mark.parametrize("n", [1999, 2000, 2001])
    @pytest.mark.parametrize("name,m0", [("poschl_teller", 2.63), ("cosh_square", 0.0)])
    def test_lattice_matches_full_solve(self, name, m0, n):
        model = builtin_model(name, alpha=1.43, v0=1.9, m0=m0)
        tmap = build_transform(model.velocity, model.anchor)
        h = QGrid(tmap.q_lo, tmap.q_hi, n).h
        u = eigensolver.product_u(model, tmap.inverse_grid(
            tmap.q_lo + np.arange(1, 2 * n + 2) * (0.5 * h)))[0]
        tol = eigensolver._bisection_tol(*eigensolver._staggered(u, h))
        for k in (1, 4, 5):
            assert_same_states(solve_exact(model, tmap, n, k),
                               unfolded(solve_exact, model, tmap, n, k), 2.0 * tol)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("lattice", [False, True], ids=["approximate", "lattice"])
    def test_uncertified_blocks_take_the_full_lattice(self, monkeypatch, lattice, k):
        # counts that find a level more than it supplied in the coarse block that
        # supplies fewer levels (none at k = 1): the 200-row block of the 401-node
        # approximate grid, the 401-row block of the 801-site lattice (n = 400).
        # Either solver then solves the whole matrices: the coarse fold is tried
        # (its fine blocks never are), then one block per grid, as the blocks
        # each grid's inertia is counted on show
        model = builtin_model("poschl_teller", alpha=1.43, v0=1.9, m0=2.63)
        tmap = build_transform(model.velocity, model.anchor)
        if lattice:
            solve, inputs, sunk, rows = solve_exact, (model, tmap, 400, k), 401, (801, 1603)
        else:
            field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, 401, offset=True), tmap)
            solve, inputs, sunk, rows = solve_fixed, (field, k), 200, (401, 802)
        real_count, real_inertia = eigensolver._count, eigensolver._inertia
        monkeypatch.setattr(eigensolver, "_count", lambda d, e, lo, hi: real_count(d, e, lo, hi)
                            + (d.size == sunk and lo > -math.inf))
        blocks = []
        monkeypatch.setattr(eigensolver, "_inertia", lambda grid, *args: (
            blocks.append((len(grid), sum(d.size for d, _ in grid)))
            or real_inertia(grid, *args)))
        folded = solve(*inputs)
        assert blocks == [(2, rows[0]), (1, rows[0]), (1, rows[1])]
        monkeypatch.setattr(eigensolver, "_count", real_count)
        assert_same_states(folded, unfolded(solve, *inputs), 1e-9)

    @pytest.mark.parametrize("n,rows", [(400, [(400, 2), (401, 1)]),
                                        (401, [(402, 2), (401, 1)])])
    def test_lattice_blocks_supply_alternate_levels(self, monkeypatch, n, rows):
        # k = 3: the block that holds the lowest level (the corner one for n even,
        # the centre's for n odd) is bisected by index for levels 0 and 2, the
        # other for level 1; the fine lattice bisects by value. No Sturm count
        # (a block's inertia among them) is made twice
        bisected, counted = [], []
        real = eigensolver.eigh_tridiagonal

        def logged(d, *args, **kwargs):
            lo, hi = kwargs["select_range"]
            if kwargs["select"] == "i":
                bisected.append((d.size, hi - lo + 1))
            elif kwargs.get("tol") == math.inf:
                counted.append((d.size, lo, hi))
            return real(d, *args, **kwargs)

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", logged)
        model = builtin_model("poschl_teller", alpha=1.43, v0=1.9, m0=2.63)
        solve_exact(model, build_transform(model.velocity, model.anchor), n, 3)
        assert bisected == rows
        assert len(counted) == len(set(counted)) > 0

    def test_fold_follows_the_samples(self, monkeypatch):
        # a from_callable clone of an even model folds like the model itself, and
        # so does a map anchored off the centre: its q-range moves with the
        # anchor, so the nodes stay where the centred map puts them. A grid cut
        # short on one side, or an odd part of 1e-3 in u, does not fold
        folds = []
        real = eigensolver._fold
        monkeypatch.setattr(eigensolver, "_fold", lambda d, e: folds.append(d.size) or real(d, e))
        pt = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        clone = ModelSpec("clone", MassProfile.from_callable(pt.mass.func, pt.mass.dfunc,
                                                             pt.mass.d2func, pt.domain),
                          VelocityProfile.from_callable(pt.velocity.func, domain=pt.domain),
                          pt.domain, {}, "clone", anchor=pt.anchor)
        cosh = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        bump = dataclasses.replace(cosh, u_closed=EVEN_U)
        skewed = dataclasses.replace(cosh, u_closed=SKEWED_U)
        for model, x0, cut, fold in ((pt, pt.anchor, 0.0, True), (clone, pt.anchor, 0.0, True),
                                     (pt, pt.anchor + 0.1, 0.0, True), (bump, 0.1, 0.0, True),
                                     (bump, 0.0, 0.1, False), (skewed, 0.0, 0.0, False)):
            tmap = build_transform(model.velocity, x0)
            field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi - cut, 400), tmap)
            cases = [(solve_fixed, (field, 3), [400, 801])]
            if not cut:  # the lattice always spans the whole q-range
                cases.append((solve_exact, (model, tmap, 400, 3), [801, 1603]))
            for solve, args, sizes in cases:
                folds.clear()
                res = solve(*args)
                assert folds == (sizes if fold else [])
                assert_same_states(res, unfolded(solve, *args), 1e-9)


SWEEP_NS = [64, 65, 400, 2000, 2001]


def sweep_model(name):
    return builtin_model(name, alpha=1.43, v0=1.9, m0=2.63)


def fold_switch(monkeypatch, whole):
    """Switch the parity fold off (whole), or log the sizes _fold is called on."""
    folds = []
    if whole:
        monkeypatch.setattr(eigensolver, "_symmetrized", lambda *samples: None)
    else:
        real = eigensolver._fold
        monkeypatch.setattr(eigensolver, "_fold", lambda d, e: folds.append(d.size) or real(d, e))
    return folds


def assert_vectorless_matches(on, off):
    """Level k of the vector solve ``on`` has k sign changes, and the vectorless
    solve ``off`` has its levels, energies, error estimates and nodes bit for bit."""
    assert len(on.pairs) == len(off.pairs) == 5
    for k, (a, b) in enumerate(zip(on.pairs, off.pairs)):
        assert eigensolver.count_nodes(a.phi) == a.nodes == k
        assert b.phi is None and b.chi is None
        assert (b.lam, b.error_estimate, b.nodes) == (a.lam, a.error_estimate, a.nodes)
    assert off.energies == on.energies


class TestNodeSweep:
    """Vector k of every solver has k sign changes (the oscillation theorem for
    Jacobi matrices), which lets a vectorless solve report its certified index
    as the node count; its levels are the vector solve's, bit for bit."""

    @pytest.mark.parametrize("n", SWEEP_NS)
    @pytest.mark.parametrize("name", ["cosh_square", "rational"])
    def test_constant_u(self, name, n):
        model = sweep_model(name)
        tmap = build_transform(model.velocity, model.anchor)
        field = constant_u_potential(detect_constant_u(model), QGrid(tmap.q_lo, tmap.q_hi, n))
        assert_vectorless_matches(solve_fixed(field, 5), solve_fixed(field, 5, vectors=False))

    @pytest.mark.parametrize("whole", [False, True], ids=["folded", "whole"])
    @pytest.mark.parametrize("n", SWEEP_NS)
    @pytest.mark.parametrize("name,offset", [("poschl_teller", True), ("cosh_square", False),
                                             ("rational", False)])
    def test_approximate(self, monkeypatch, name, offset, n, whole):
        model = sweep_model(name)
        tmap = build_transform(model.velocity, model.anchor)
        field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, n, offset=offset), tmap)
        folds = fold_switch(monkeypatch, whole)
        assert_vectorless_matches(solve_fixed(field, 5), solve_fixed(field, 5, vectors=False))
        assert bool(folds) != whole

    @pytest.mark.parametrize("whole", [False, True], ids=["folded", "whole"])
    @pytest.mark.parametrize("n", SWEEP_NS)
    @pytest.mark.parametrize("name", ["poschl_teller", "cosh_square", "rational"])
    def test_lattice(self, monkeypatch, name, n, whole):
        model = sweep_model(name)
        tmap = build_transform(model.velocity, model.anchor)
        folds = fold_switch(monkeypatch, whole)
        assert_vectorless_matches(solve_exact(model, tmap, n, 5),
                                  solve_exact(model, tmap, n, 5, vectors=False))
        assert bool(folds) != whole

    @pytest.mark.parametrize("tilt", [0.0, 1.0], ids=["even", "tilted"])
    def test_expand_until_settled(self, tilt):
        # a confining q^2 + tilt q: the even well folds, the tilted one is solved whole
        def builder(L):
            return PotentialField.from_function(lambda q: q * q + tilt * q,
                                                QGrid(-L, L, 2000, offset=True))

        on, L = expand_until_settled(builder, 5)
        off, L_off = expand_until_settled(builder, 5, vectors=False)
        assert L_off == L
        assert_vectorless_matches(on, off)


class TestExpandUntilSettled:
    def test_harmonic_settles(self):
        def builder(L):
            g = QGrid(-L, L, 2000, offset=True)
            return PotentialField.from_function(lambda q: q ** 2, g)

        result, L = expand_until_settled(builder, 3, l_start=8.0)
        assert result.pairs[0].lam == pytest.approx(1.0, abs=1e-6)
        assert L >= 8.0

    def test_first_box_computes_no_vectors(self, monkeypatch):
        # the L = 8 box only sets the level L = 16 is compared with: vectors are
        # bisected for the two parity blocks of the returned box alone, and it
        # is returned as solve_fixed solves it
        def builder(L):
            return PotentialField.from_function(lambda q: q * q, QGrid(-L, L, 2000, offset=True))

        steps = []  # h of each vector-computing index bisection, from e = -1/h^2
        real = eigensolver.eigh_tridiagonal

        def logged(d, e, *args, **kwargs):
            if kwargs["select"] == "i" and not kwargs.get("eigvals_only"):
                steps.append(math.sqrt(-1.0 / e[0]))
            return real(d, e, *args, **kwargs)

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", logged)
        result, L = expand_until_settled(builder, 3, vectors=True)
        assert L == 16.0
        assert steps == pytest.approx([builder(16.0).grid.h] * 2, rel=1e-12)
        monkeypatch.undo()
        direct = solve_fixed(builder(16.0), 3)
        for got, want in zip(result.pairs, direct.pairs):
            assert got.lam == want.lam and np.array_equal(got.phi, want.phi)

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = [0]
        original = getattr(eigensolver, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(eigensolver, name, counted)
        return calls

    def test_finite_well_deeper_than_margin_settles(self, monkeypatch):
        # V = 100 (1 - exp(-q^2)): the edge is stuck at 100 but stays 100 above
        # min V, so both boxes are solved once each, as before the early exit
        def builder(L):
            g = QGrid(-L, L, 2000, offset=True)
            return PotentialField.from_function(lambda q: 100.0 * (1.0 - np.exp(-q * q)), g)

        solves = self.count_calls(monkeypatch, "solve_fixed")
        result, L = expand_until_settled(builder, 1)
        assert L == 16.0
        assert solves[0] == 2
        assert result.pairs[0].lam == pytest.approx(9.623601264604636, rel=1e-12)

    def test_stuck_edge_above_margin_checked_after_solve(self, monkeypatch):
        # V = 30 (1 - exp(-q^2)): edge 30 clears min V + 25 but not lambda_0 + 25
        def builder(L):
            g = QGrid(-L, L, 1000, offset=True)
            return PotentialField.from_function(lambda q: 30.0 * (1.0 - np.exp(-q * q)), g)

        solves = self.count_calls(monkeypatch, "solve_fixed")
        with pytest.raises(NonConvergenceError, match="below eigenvalue"):
            expand_until_settled(builder, 1)
        assert solves[0] == 2

    def test_unconfined_decided_before_any_eigensolve(self, monkeypatch):
        # the linear_singular reduced potential A^2 v0^4 e^{2 v0 q} - v0^2/16
        def builder(L):
            g = QGrid(-L, L, 400, offset=True)
            return PotentialField.from_function(lambda q: np.exp(2.0 * q) - 1.0 / 16.0, g)

        tridiag = self.count_calls(monkeypatch, "eigh_tridiagonal")
        with pytest.raises(NonConvergenceError,
                           match="does not confine at .q.=16: edge value stuck"):
            expand_until_settled(builder, 1)
        assert tridiag[0] == 0

    def test_unconfined_raises(self):
        # flat potential: eigenvalues never settle and the edge never beats them
        def builder(L):
            g = QGrid(-L, L, 500, offset=True)
            return PotentialField.from_function(lambda q: 0.0 * q, g)

        with pytest.raises(NonConvergenceError):
            expand_until_settled(builder, 1, l_start=4.0, max_doublings=4)
