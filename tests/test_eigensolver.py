import collections
import dataclasses
import math
import os
import subprocess
import sys
import types
import warnings
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from diracpd import eigensolver, potential
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
from diracpd.analytic import spectrum_value
from diracpd.errors import (
    DomainError,
    ImaginaryEnergyError,
    InsufficientResolutionError,
    InvalidParameterError,
    NonConvergenceError,
    QuadratureFailureError,
    SingularNodeError,
    UnboundedBelowError,
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
        grid = QGrid(tmap.q_lo, tmap.q_hi, 2000)
        res = solve_fixed(constant_u_potential(0.0, grid), 1)
        assert res.energies[0][0] == pytest.approx(math.pi / 2, rel=1e-6)

    def test_harmonic_oscillator(self):
        g = QGrid(-12.0, 12.0, 4000)
        f = PotentialField.from_function(lambda q: q ** 2, g)
        res = solve_fixed(f, 3)
        for k, pair in enumerate(res.pairs):
            assert pair.lam == pytest.approx(2 * k + 1, abs=1e-6)

    def test_poschl_teller_ground_state(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 8000)
        res = solve_fixed(approx_potential(model, grid, tmap), 1)
        s = s_parameter(1.0, 1.0, 1.0)
        oracle = 1.0 / 16.0 + s ** 2
        assert res.pairs[0].lam == pytest.approx(oracle, rel=1e-6)

    def test_sturm_node_counts(self):
        res = solve_fixed(free_field(0.0, 1.0, 800), 6)
        assert [p.nodes for p in res.pairs] == list(range(6))
        g = QGrid(-10.0, 10.0, 2000)
        f = PotentialField.from_function(lambda q: 0.25 * q ** 2, g)
        res2 = solve_fixed(f, 4)
        assert [p.nodes for p in res2.pairs] == list(range(4))

    def test_eigenvector_normalization(self):
        res = solve_fixed(free_field(0.0, 1.0, 500), 3)
        for pair in res.pairs:
            assert np.sum(pair.phi ** 2) * pair.grid.h == pytest.approx(1.0,
                                                                        abs=1e-12)

    def test_parity_alternation(self):
        g = QGrid(-6.0, 6.0, 1501)
        f = PotentialField.from_function(lambda q: q ** 2, g)
        res = solve_fixed(f, 4)
        for k, pair in enumerate(res.pairs):
            flipped = pair.phi[::-1] * (-1) ** k
            assert np.max(np.abs(pair.phi - flipped)) <= 1e-6

    def test_grid_convergence_factor(self):
        # error_estimate = |lam(h) - lam(h/2)|/3 shrinks by >= 3.5 per halving
        # on smooth potentials (ideal factor 4 for a second-order scheme)
        g1 = QGrid(0.0, 1.0, 250)
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
        grid = QGrid(-1.0, 1.0, 1200)
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

    def test_closed_form_matches_lapack(self):
        grid = QGrid(-1.3, 2.1, 2000)
        w, vecs = eigensolver._free_eigs(grid, 5, with_vectors=True)
        free = eigensolver._schrodinger(np.zeros(grid.n), grid.h)
        w_lapack = eigensolver.eigh_tridiagonal(*free, select="i", select_range=(0, 4))
        vecs_lapack = eigensolver._eigenvectors(*free, w_lapack)
        assert np.max(np.abs(w - w_lapack) / w_lapack) <= 1e-9
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        vecs *= np.sign(np.sum(vecs * vecs_lapack, axis=0))
        assert np.max(np.abs(vecs - vecs_lapack)) <= 1e-10

    def test_only_approximate_mode_bisects(self, monkeypatch):
        # index-range bisection only on the base grid (n = 1999, below the grid
        # ladder): once per parity block, on ceil(n/2) and floor(n/2) rows, for a
        # field even about the grid's centre, once on all n rows otherwise; the
        # refined grid bisects by value
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
        field = approx_potential(pt, QGrid(tmap.q_lo, tmap.q_hi, 1999), tmap)
        cosh = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        skewed = approx_potential(dataclasses.replace(cosh, u_closed=SKEWED_U),
                                  QGrid(tmap.q_lo, tmap.q_hi, 1999), tmap)
        for f, rows in ((field, [1000, 999]), (skewed, [1999])):
            calls.clear()
            solve_fixed(f, 3)
            assert calls[0] == ("i", rows[0])
            assert [size for select, size in calls if select == "i"] == rows
            assert len(calls) > len(rows) and all(select in "iv" for select, _ in calls)

    def test_constant_u_at_machine_precision(self):
        # bisection left 5.4e-8 on level 0 here; the closed form leaves rounding only
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 32000)
        res = solve_fixed(constant_u_potential(1.0, grid), 5)
        for k, (e, _) in enumerate(res.energies):
            exact = math.hypot((k + 1) * math.pi / 2, 1.0)
            assert abs(e - exact) <= 1e-11 * exact

    def test_insufficient_resolution(self):
        with pytest.raises(InsufficientResolutionError):
            solve_fixed(free_field(0.0, 1.0, 64), 40)

    def test_singular_nodes_rejected(self):
        g = QGrid(0.0, 1.0, 100)
        f = PotentialField.from_function(
            lambda q: np.where(np.abs(q - 0.5) < 0.01, np.nan, 0.0), g)
        # nodes 50 and 51 of 100, at q = 50/101 and 51/101
        with pytest.raises(SingularNodeError, match=r"at 2 node\(s\) of the grid, the first "
                                                    r"at q = 0\.49505$"):
            solve_fixed(f, 1)
        # the refined grid alone: q = 0.5 is its node 101 of 201
        f = PotentialField.from_function(lambda q: np.where(q == 0.5, np.nan, 0.0), g)
        with pytest.raises(SingularNodeError, match=r"at 1 node\(s\) of the refined grid, "
                                                    r"the first at q = 0\.5$"):
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
        grid = QGrid(tmap.q_lo, tmap.q_hi, 2000)
        pair, e_conv, history = solve_self_consistent(model, tmap, grid, 0, 2.0)
        assert len(history) - 1 <= 2
        assert e_conv == pytest.approx(E1_COSH_MASSIVE, rel=1e-6)
        assert pair.nodes == 0

    def test_massless_matches_fixed_solve(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 1500)
        pair, e_conv, _ = solve_self_consistent(model, tmap, grid, 0, 1.0)
        fixed = solve_fixed(exact_potential(model, 1.0, grid, tmap), 1)
        assert e_conv == pytest.approx(math.sqrt(fixed.pairs[0].lam), rel=1e-12)

    def test_poschl_teller_exact_mode(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 4000)
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
        grid = QGrid(tmap.q_lo, tmap.q_hi, 1000)
        with pytest.raises(NonConvergenceError) as err:
            solve_self_consistent(model, tmap, grid, 0, 3.0, tol=1e-14,
                                  max_iter=1)
        assert len(err.value.history) >= 1

    def test_bad_tolerance(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(-0.9, 0.9, 200)
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
        grid = QGrid(tmap.q_lo, tmap.q_hi, 2000)
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
        flipped = dataclasses.replace(model, u_closed=closed_u(*(lambda x: -np.ones_like(x),) * 3))
        tmap = build_transform(model.velocity, model.anchor)
        with pytest.raises(NonConvergenceError, match="inertia"):
            solve_exact(flipped, tmap, 200, 1)
        # the same with an odd part in u, which takes the whole lattice
        skewed = dataclasses.replace(model, u_closed=negated(SKEWED_U))
        with pytest.raises(NonConvergenceError, match="inertia"):
            solve_exact(skewed, tmap, 200, 1)
        # either parity block of either lattice (401 and 803 sites) sunk under the
        # floor, on an even u that is not constant (a constant one is never folded)
        bump = dataclasses.replace(model, u_closed=EVEN_U)
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
                    solve_exact(bump, tmap, 200, 1)
        monkeypatch.setattr(eigensolver, "_fold", real_fold)
        # u < 0 on the sites only the refined lattice has: the coarse lattice is
        # sound, the refined one's count up to the floor is not 2n + 2
        real = eigensolver.u_values

        def flip_refined_sites(model, x):
            u = real(model, x).copy()
            u[0::2] *= -1.0
            return u

        monkeypatch.setattr(eigensolver, "u_values", flip_refined_sites)
        with pytest.raises(NonConvergenceError, match="inertia"):
            solve_exact(model, tmap, 200, 1)


class TestSolveApproximate:
    @pytest.mark.parametrize("name", ["poschl_teller", "cosh_square"])
    def test_solve_fixed_on_the_probed_grid(self, name):
        # poschl_teller's 1/sin^2 walls and cosh_square's potential (approximate
        # mode on a constant-u model), finite there, both take the plain grid
        model = builtin_model(name, alpha=1.0, v0=1.0, m0=1.5)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 400)
        want = solve_fixed(approx_potential(model, grid, tmap), 3)
        got = solve_approximate(model, tmap, 400, 3)
        assert got.field.grid == grid
        assert np.array_equal(got.field.values, want.field.values)
        assert got.energies == want.energies
        for a, b in zip(got.pairs, want.pairs, strict=True):
            assert (a.lam, a.nodes, a.error_estimate, a.grid) == (b.lam, b.nodes,
                                                                  b.error_estimate, b.grid)
            assert np.array_equal(a.phi, b.phi)

    def test_infinite_range_boxes_take_the_plain_grid(self):
        # v_F = 1, m = 1 + x^2 on the numeric map: q = x runs over the whole line,
        # and the box that settles (|q| <= 16) has its walls h from its end nodes
        line = (-math.inf, math.inf)
        model = ModelSpec("library", MassProfile.from_callable(
            lambda x: 1.0 + np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x),
            lambda x: np.full_like(np.asarray(x, dtype=float), 2.0), line),
            VelocityProfile.from_callable(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                          domain=line),
            line, {}, "library", anchor=0.0)
        tmap = build_transform(model.velocity, model.anchor)
        result = solve_approximate(model, tmap, 2000, 3)
        grid = result.field.grid
        assert (grid.lo, grid.hi, grid.n) == (-16.0, 16.0, 2000)
        assert grid.nodes[0] - grid.lo == pytest.approx(grid.h, rel=1e-12)
        assert grid.hi - grid.nodes[-1] == pytest.approx(grid.h, rel=1e-12)
        for pair, lam in zip(result.pairs, (2.342489364775, 6.244092736395, 10.625858776473),
                             strict=True):
            assert pair.lam == pytest.approx(lam, rel=1e-10)

    @pytest.mark.parametrize("name", ["poschl_teller", "cosh_square"])
    def test_two_passes_give_the_per_grid_solve(self, monkeypatch, name):
        # n = 2000: the two wall probes take one pass, and the ladder's two grids,
        # the base and the refined grid another; solve_fixed evaluates nothing again
        model = builtin_model(name, alpha=1.0, v0=1.0, m0=1.5)
        tmap = build_transform(model.velocity, model.anchor)
        want = solve_fixed(approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, 2000),
                                            build_transform(model.velocity, model.anchor)), 3)
        passes = []
        real = potential._approx_pass
        monkeypatch.setattr(potential, "_approx_pass", lambda model, grids, tmap: passes.append(
            [grid.n for grid in grids]) or real(model, grids, tmap))
        got = solve_approximate(model, tmap, 2000, 3)
        assert passes == [[3, 3], [2000, 62, 125, 4001]]
        assert got.field.grid == want.field.grid
        assert got.field.values.tobytes() == want.field.values.tobytes()
        assert got.energies == want.energies
        for a, b in zip(got.pairs, want.pairs, strict=True):
            assert (a.lam, a.error_estimate) == (b.lam, b.error_estimate)

    @pytest.mark.parametrize("g", [0.55, 0.7])
    def test_plain_grid_in_the_band(self, g):
        # the g < 1 band of poschl_teller, alpha = v0 = 1, n = 2000: the plain grid
        # reads E0..E4 within 5e-6 of the closed form (about 2e-6 and 2.7e-6)
        params = dict(alpha=1.0, v0=1.0, m0=g)
        model = builtin_model("poschl_teller", **params)
        result = solve_approximate(model, build_transform(model.velocity, model.anchor), 2000,
                                   5, vectors=False)
        for j, (e, _) in enumerate(result.energies):
            assert e == pytest.approx(spectrum_value("poschl_teller", j, params)[0], rel=5e-6)

    def test_a_later_probe_failure_does_not_preempt_an_earlier_decision(self):
        # the one pass raises on the high wall's probe; one call per probe, low
        # wall first, then reads the low wall before the high one fails
        calls = []

        def fields_on(lo_values, hi_error):
            def call(grids):
                calls.append(len(grids))
                fields = []
                for grid in grids:
                    if grid.nodes[0] > 0.9:
                        raise hi_error
                    fields.append(types.SimpleNamespace(values=lo_values(grid.nodes)))
                return fields
            return call

        nan = fields_on(lambda q: np.full(3, np.nan), QuadratureFailureError("hi", partial=0.0))
        with pytest.raises(QuadratureFailureError, match="hi"):
            eigensolver._hardy_check(nan, 0.0, 1.0)
        assert calls == [2, 1, 1]
        calls.clear()
        below = fields_on(lambda q: -1.0 / q ** 2, DomainError("on the high wall"))
        with pytest.raises(UnboundedBelowError, match=r"c = V d\^2 = -1 < -1/4 at q = 0"):
            eigensolver._hardy_check(below, 0.0, 1.0)
        assert calls == [2, 1]
        calls.clear()
        assert eigensolver._hardy_check(fields_on(lambda q: np.ones(3), DomainError("hi")),
                                        0.0, 1.0) is None
        assert calls == [2, 1, 1]

    def test_both_walls_are_read(self):
        # a low wall V = 1 / q^2 (c = 1) does not end the check: the high wall's
        # V = -1 / (1 - q)^2 (c = -1) is unbounded below, and named
        def fields_on(grids):
            return [types.SimpleNamespace(values=np.where(grid.nodes < 0.5, 1.0 / grid.nodes ** 2,
                                                          -1.0 / (1.0 - grid.nodes) ** 2))
                    for grid in grids]

        with pytest.raises(UnboundedBelowError, match=r"c = V d\^2 = -1 < -1/4 at q = 1:"):
            eigensolver._hardy_check(fields_on, 0.0, 1.0)

    def test_overflow_on_a_wall_probe_reads_no_coefficient(self):
        # m0 = 1e150: u^2 overflows on the probes 3e-8 from the 1/sin walls, which
        # read no coefficient there, but not on the plain grid and its refinement,
        # a step from the walls
        model = builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=1e150)
        tmap = build_transform(model.velocity, model.anchor)
        calls = []

        def fields_on(grids):
            calls.append(len(grids))
            first = approx_potential(model, grids[0], tmap, also=grids[1:])
            return [first] + [first.on_grid(grid) for grid in grids[1:]]

        assert eigensolver._hardy_check(fields_on, tmap.q_lo, tmap.q_hi) is None
        assert calls == [2, 1, 1]
        grid = QGrid(tmap.q_lo, tmap.q_hi, 400)
        field = approx_potential(model, grid, tmap, also=[grid.refined()])
        for f in (field, field.on_grid(grid.refined())):
            assert np.all(np.isfinite(f.values))

    @pytest.mark.parametrize("m0", [3e146, 1e148, 1e150])
    def test_overflowing_shifted_solves_are_refused_without_warnings(self, m0):
        # V near 1e297 at the plain grid's first node: x overflows in the refined
        # grid's shifted solves, which are refused (r = inf) with no numpy warning,
        # and the index path supplies the levels; the state, narrower than a step,
        # is not resolved, so they sit about 1e-5 from the closed form
        params = dict(alpha=1.0, v0=1.0, m0=m0)
        model = builtin_model("poschl_teller", **params)
        tmap = build_transform(model.velocity, model.anchor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_approximate(model, tmap, 400, 3, vectors=False)
        for j, (e, _) in enumerate(result.energies):
            assert e == pytest.approx(spectrum_value("poschl_teller", j, params)[0], rel=5e-5)

    @pytest.mark.parametrize("d,sigma", [(1e300, 0.0), (1e-300, 0.0)],
                             ids=["underflow", "overflow"])
    def test_shifted_solve_refuses_a_vector_out_of_range(self, d, sigma):
        # x underflows to 0 or overflows: refused, with no 0 / 0 or inf / inf warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn"):
                theta, r = eigensolver._shifted(np.full(5, d), np.zeros(4), sigma, 1e-10)
        assert (theta, r) == (sigma, math.inf)

    def test_unconfined_infinite_side(self):
        model = builtin_model("linear_singular", A=1.0, v0=1.0)
        tmap = build_transform(model.velocity, model.anchor)
        with pytest.raises(NonConvergenceError, match="does not confine"):
            solve_approximate(model, tmap, 400, 1)


def closed_u(*forms):
    """A model's ``u_closed(x, count)`` from separate closed forms of u, u', u''."""
    return lambda x, count: tuple(f(x) for f in forms[:count])


def negated(u_closed):
    """``u_closed`` of -u."""
    return lambda x, count: tuple(-u for u in u_closed(x, count))


# u, u' and u'' with an odd part of 1e-3, and of an even, non-constant u
SKEWED_U = closed_u(lambda x: 1.0 + 1e-3 * np.tanh(x), lambda x: 1e-3 / np.cosh(x) ** 2,
                    lambda x: -2e-3 * np.tanh(x) / np.cosh(x) ** 2)
EVEN_U = closed_u(lambda x: 1.0 + 0.5 / np.cosh(x) ** 2, lambda x: -np.tanh(x) / np.cosh(x) ** 2,
                  lambda x: (2.0 * np.sinh(x) ** 2 - 1.0) / np.cosh(x) ** 4)
# an even, non-constant u, smooth in q up to the walls of every map (x = +/-inf there)
# and with no overflow on the way: the u of a ``_bump`` model
BUMP_U = closed_u(lambda x: 1.0 + 0.5 * np.exp(-x * x), lambda x: -x * np.exp(-x * x),
                  lambda x: (2.0 * x * x - 1.0) * np.exp(-x * x))


def pt_matrices(n, lattice):
    """poschl_teller (1.43, 1.90, 2.63): base levels, base tolerance, refined matrix.

    Returns (d, e, guesses, tol, floor, below) for the refined grid; ``below``
    is also the index of its lowest refined level.
    """
    model = builtin_model("poschl_teller", alpha=1.43, v0=1.90, m0=2.63)
    tmap = build_transform(model.velocity, model.anchor)
    if lattice:
        grid = QGrid(tmap.q_lo, tmap.q_hi, n)
        u = eigensolver.u_values(model, tmap.inverse_grid(
            tmap.q_lo + np.arange(1, 4 * n + 4) * (0.25 * grid.h)))
        coarse = eigensolver._staggered(u[1::2], grid.h)
        w = eigensolver.eigh_tridiagonal(*coarse, select="i", select_range=(n + 1, n + 4))
        tol = eigensolver._bisection_tol(*coarse)
        d, e = eigensolver._staggered(u, 0.5 * grid.h)
        return d, e, w, tol, eigensolver._inertia_floor(u, 0.5 * grid.h), 2 * n + 2
    field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, n), tmap)
    fine = field.on_grid(field.grid.refined())
    w = eigensolver.eigh_tridiagonal(*eigensolver._schrodinger(field.values, field.grid.h),
                                     select="i", select_range=(0, 3))
    tol = eigensolver._bisection_tol(*eigensolver._schrodinger(field.values, field.grid.h))
    d, e = eigensolver._schrodinger(fine.values, fine.grid.h)
    return d, e, w, tol, float(np.min(fine.values)), 0


class TestRefinedBrackets:
    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("lattice", [False, True], ids=["approximate", "lattice"])
    def test_matches_index_range_bisection(self, n, lattice):
        d, e, guesses, tol, floor, below = pt_matrices(n, lattice)
        w = eigensolver._in_windows([(d, e)], guesses, tol, floor)
        assert w is not None
        ref = eigensolver.eigh_tridiagonal(d, e, select="i", tol=tol,
                                           select_range=(below, below + guesses.size - 1))
        assert np.max(np.abs(w - ref)) <= 2.0 * tol

    def test_wrong_floor_count_is_not_certified(self):
        # guesses for levels 1..3 alone: each shift finds its one level and they
        # rise from the floor, but the Sturm count from the floor finds 4, not 3
        d, e, guesses, tol, floor, below = pt_matrices(2000, lattice=True)
        counted = []
        real = eigensolver._counted
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eigensolver, "_counted",
                       lambda *args: counted.append(real(*args)) or counted[-1])
            assert eigensolver._in_windows([(d, e)], guesses[1:], tol, floor) is None
        assert counted == [False]
        assert eigensolver._in_windows([(d, e)], guesses, tol, floor) is not None

    def test_coarse_grid_falls_back_to_index_range(self):
        # n = 64, k = 32: the refined levels shift by more than half a gap, so in
        # neither parity block are the shifted solves certified, and the refined grid
        # is bisected by index
        pt = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(pt.velocity, pt.anchor)
        field = approx_potential(pt, QGrid(tmap.q_lo, tmap.q_hi, 64), tmap)
        res = solve_fixed(field, 32)
        fine = field.on_grid(field.grid.refined())
        assert eigensolver._even(field.values, fine.values)
        values, fine_values = (eigensolver._mirror_average(v, True)
                               for v in (field.values, fine.values))
        base = eigensolver._fold(*eigensolver._schrodinger(values, field.grid.h))
        refined = eigensolver._fold(*eigensolver._schrodinger(fine_values, fine.grid.h))
        tol = eigensolver._bisection_tol(*eigensolver._schrodinger(values, field.grid.h))
        w, w_fine = np.empty(32), np.empty(32)
        for p in (0, 1):
            w[p::2] = eigensolver.eigh_tridiagonal(*base[p], select="i", select_range=(0, 15))
            assert eigensolver._in_windows([refined[p]], w[p::2], tol,
                                           float(np.min(fine_values))) is None
            w_fine[p::2] = eigensolver.eigh_tridiagonal(*refined[p], select="i",
                                                        select_range=(0, 15))
        assert eigensolver._in_windows(refined, w, tol, float(np.min(fine_values))) is None
        assert [p.lam for p in res.pairs] == list((4.0 * w_fine - w) / 3.0)


class TestShiftedCertificate:
    """_in_windows takes each level from a shifted solve (_shifted) and certifies
    them together: windows [theta -/+ r] that rise from the floor and stay apart,
    one Sturm count per block, and the Kato-Temple bound r^2 / delta <= tol. Any
    refusal is None, and the solve takes the index path."""

    def test_even_matrix_solved_whole_finds_its_odd_levels(self, monkeypatch):
        # the potential made exactly even and solved without the fold: levels 1
        # and 3 are odd, and a start vector with reflection symmetry has no part
        # along them, so its solve at level 1 falls to level 0, which is refused;
        # on n = 1999 it lands 1.3 tol from level 0 (8.2 tol on n = 2000)
        d, e, guesses, tol, floor, below = pt_matrices(1999, lattice=False)
        d = 0.5 * (d + d[::-1])
        ref = eigensolver.eigh_tridiagonal(d, e, select="i", tol=tol, select_range=(0, 3))
        w = eigensolver._in_windows([(d, e)], guesses, tol, floor)
        assert w is not None and np.max(np.abs(w - ref)) <= 2.0 * tol
        x = eigensolver._start(d.size)
        monkeypatch.setattr(eigensolver, "_start", lambda size: x + x[::-1])
        thetas = [eigensolver._shifted(d, e, g, tol)[0] for g in guesses]
        assert abs(thetas[1] - ref[0]) <= 2.0 * tol
        assert eigensolver._in_windows([(d, e)], guesses, tol, floor) is None

    def test_two_guesses_for_one_level_are_refused(self, monkeypatch):
        d, e, guesses, tol, floor, below = pt_matrices(2000, lattice=True)
        twice = np.array([guesses[0], guesses[0] + 1e-6, guesses[1]])
        assert eigensolver._in_windows([(d, e)], twice, tol, floor) is None
        # in a solve: the ladder's second base prediction moved onto the first
        # (the tilted field is solved whole), and the index path's levels follow
        field = ladder_field("tilted", 4000)
        ref = index_path(field, 3)
        real, calls = eigensolver._in_windows, []

        def doubled(blocks, guesses, tol, floor):
            if blocks[0][0].size == 4000:  # the base grid's, from the ladder
                calls.append(guesses)
                guesses = np.array([guesses[0], guesses[0], guesses[2]])
            return real(blocks, guesses, tol, floor)

        monkeypatch.setattr(eigensolver, "_in_windows", doubled)
        outcomes = ladder_outcomes(monkeypatch)
        got = solve_fixed(field, 3, vectors=False)
        assert calls and outcomes == [False]
        assert [(p.lam, p.error_estimate) for p in got.pairs] == [
            (p.lam, p.error_estimate) for p in ref.pairs]

    @pytest.mark.parametrize("level,residual,certified",
                             [(1, 1e-7, True), (1, 1e-5, False), (3, 1e-7, True)])
    def test_kato_temple(self, monkeypatch, level, residual, certified):
        # one level's residual set to 1e-7 or 1e-5, far under level 1's distance
        # delta to levels 0 and 2, so the windows stay apart; but 1e-5 puts
        # r^2 / delta over tol, which refuses the levels before any Sturm count.
        # At the top level 1e-7 tops (1e-6 |theta| tol)^(1/2), so the count
        # reaches 4 r^2 / tol over it, and certifies
        d, e, guesses, tol, floor, below = pt_matrices(2000, lattice=True)
        real, counted = eigensolver._shifted, []
        want = [real(d, e, g, tol)[0] for g in guesses]
        delta = min(want[1] - want[0], want[2] - want[1])
        assert residual < delta / 2 and (residual ** 2 <= tol * delta / 2) == certified
        assert residual ** 2 > 1e-6 * want[3] * tol

        def shifted(d, e, sigma, tol):
            theta, r = real(d, e, sigma, tol)
            return theta, residual if sigma == guesses[level] else r

        monkeypatch.setattr(eigensolver, "_shifted", shifted)
        real_counted = eigensolver._counted
        monkeypatch.setattr(eigensolver, "_counted",
                            lambda *args: counted.append(args[-1]) or real_counted(*args))
        w = eigensolver._in_windows([(d, e)], guesses, tol, floor)
        assert (w is not None) == certified and len(counted) == certified
        if certified:
            assert w.tolist() == want
            assert counted == [want[3] + max(1e-6 * want[3], 4.0 * residual ** 2 / tol)]

    def test_solve_does_not_load_numpy_random(self):
        # the start vector is hashed in numpy, not drawn from numpy.random
        code = """
import sys, diracpd.cli
from diracpd import build_transform, builtin_model, solve_exact
model = builtin_model("poschl_teller", alpha=1.2, v0=1.1, m0=2.0)
solve_exact(model, build_transform(model.velocity, model.anchor), 2000, 3)
assert "numpy.random" not in sys.modules, "numpy.random loaded"
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                       check=True)


def ladder_field(name, n, **params):
    """``name``'s approximate-mode potential at alpha 1.2, v0 1.1 on n nodes; for
    poschl_teller, m0 from g = m0 v0 / alpha."""
    if name == "tilted":  # q^2 + q: no mirror symmetry, so solved whole
        return PotentialField.from_function(lambda q: q * q + q, QGrid(-8.0, 8.0, n))
    if name == "poschl_teller":
        params = dict(m0=params.pop("g") * 1.2 / 1.1, **params)
    model = builtin_model(name, alpha=1.2, v0=1.1, **params)
    tmap = build_transform(model.velocity, model.anchor)
    return approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, n), tmap)


def in_ladder(monkeypatch):
    """A stack whose last entry tells whether the running _levels call is a
    ladder's (4 grids) or not; a refused ladder solves again, inside its own
    call, on the last 2 grids."""
    stack = []
    real = eigensolver._levels

    def levels(grids, *args):
        stack.append(len(grids) > 2)
        try:
            return real(grids, *args)
        finally:
            stack.pop()

    monkeypatch.setattr(eigensolver, "_levels", levels)
    return stack


def ladder_outcomes(monkeypatch):
    """Log whether each ladder (a _levels call on 4 grids) kept its levels
    (True) or was refused (False): a refused one calls _levels again, inside
    its own call, on its last 2 grids."""
    outcomes = []
    stack = in_ladder(monkeypatch)
    real = eigensolver._levels

    def levels(grids, *args):
        if len(grids) > 2:
            outcomes.append(True)
        elif stack and stack[-1]:
            outcomes[-1] = False
        return real(grids, *args)

    monkeypatch.setattr(eigensolver, "_levels", levels)
    return outcomes


def index_path(field, k):
    """solve_fixed(field, k) without the grid ladder: the index path's levels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "_ladder_grids", lambda grid, k: [])
        return solve_fixed(field, k)


class TestGridLadder:
    """Solves on n >= 2000 nodes bisect only the n/32 and n/16 grids by index, and
    take the base and refined levels from shifted solves at Richardson
    predictions; a refusal falls back to the index path. With or without
    vectors, the levels are the same."""

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("name,n,params", [
        ("poschl_teller", 8000, dict(g=1.5)), ("poschl_teller", 8000, dict(g=3.5)),
        ("cosh_square", 4000, dict(m0=1.2)), ("tilted", 4000, {}),
        # the g < 1 band at n = 2000, where every scan point of the paper's model sits
        ("poschl_teller", 2000, dict(g=0.55)), ("poschl_teller", 2000, dict(g=0.7)),
        ("poschl_teller", 2000, dict(g=0.9))])
    def test_levels_within_two_tol_of_the_index_path(self, monkeypatch, name, n, params, k):
        field = ladder_field(name, n, **params)
        tol = eigensolver._bisection_tol(*eigensolver._schrodinger(field.values, field.grid.h))
        ref = index_path(field, k)
        outcomes = ladder_outcomes(monkeypatch)
        lean, full = solve_fixed(field, k, vectors=False), solve_fixed(field, k)
        assert outcomes == [True, True]  # the vector solve takes it too
        assert lean.energies == full.energies
        for j, (a, b, c) in enumerate(zip(lean.pairs, full.pairs, ref.pairs, strict=True)):
            assert a.nodes == b.nodes == c.nodes == j and a.phi is None
            assert (a.lam, a.error_estimate) == (b.lam, b.error_estimate)
            assert abs(b.lam - c.lam) <= 2.0 * tol
            assert abs(b.error_estimate - c.error_estimate) <= 2.0 * tol
            vb, vc = unit_vectors(b), unit_vectors(c)
            assert np.max(np.abs(vb * np.sign(vb @ vc) - vc)) <= 1e-8

    @pytest.mark.parametrize("name,rows", [("poschl_teller", [63, 62, 125, 125]),
                                           ("tilted", [125, 250])])
    def test_index_bisection_only_on_the_coarse_grids(self, monkeypatch, name, rows):
        # n = 4000: the n/32 = 125 and n/16 = 250 node grids, in their two parity
        # blocks when the field is even; the base and refined grids (or their
        # blocks) take shifted solves and Sturm counts
        field = ladder_field(name, 4000, g=2.0) if name == "poschl_teller" else \
            ladder_field(name, 4000)
        calls = []
        real = eigensolver.eigh_tridiagonal

        def logged(d, *args, **kwargs):
            calls.append((kwargs["select"], d.size))
            return real(d, *args, **kwargs)

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", logged)
        solve_fixed(field, 3, vectors=False)
        assert [size for select, size in calls if select == "i"] == rows
        assert {size for select, size in calls if select == "v"} == (
            {2000, 4000, 4001} if len(rows) == 4 else {4000, 8001})

    def test_below_2000_nodes_no_ladder(self, monkeypatch):
        # the gate of both solvers: n >= 2000 base nodes and k <= n // 64
        outcomes = ladder_outcomes(monkeypatch)
        for n, k in ((1999, 3), (2000, 3), (2000, 32)):
            solve_fixed(ladder_field("poschl_teller", n, g=2.0), k, vectors=False)
        assert outcomes == [True]

    def test_predictions_off_by_one_level_fall_back(self, monkeypatch):
        # the coarse grids' levels 1, 2, ... in place of 0, 1, ...: every base
        # shift finds one level, the next one up its parity block, so only the
        # Sturm count at the top can tell; it does, and the index path runs
        field = ladder_field("poschl_teller", 8000, g=2.0)
        real = eigensolver.eigh_tridiagonal

        def shifted(d, *args, select, select_range, **kwargs):
            if select == "i" and d.size <= field.grid.n // 16:
                select_range = (select_range[0] + 1, select_range[1] + 1)
            return real(d, *args, select=select, select_range=select_range, **kwargs)

        counted = []
        real_counted = eigensolver._counted
        monkeypatch.setattr(eigensolver, "_counted",
                            lambda *args: counted.append(real_counted(*args)) or counted[-1])
        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", shifted)
        outcomes = ladder_outcomes(monkeypatch)
        lean = solve_fixed(field, 5, vectors=False)
        assert outcomes == [False] and counted[0] is False
        monkeypatch.undo()
        ref = index_path(field, 5)
        assert [(p.lam, p.error_estimate) for p in lean.pairs] == [
            (p.lam, p.error_estimate) for p in ref.pairs]

    def test_band_falls_back_bit_for_bit(self, monkeypatch):
        # g = 0.7: the wall error is not h^2, yet the ladder is certified, within
        # 2 tol of the index path; refused (a Sturm count forced to disagree
        # inside the ladder's 4-grid pass alone), the solve gives the index
        # path's levels bit for bit, with vectors or not
        field = ladder_field("poschl_teller", 8000, g=0.7)
        tol = eigensolver._bisection_tol(*eigensolver._schrodinger(field.values, field.grid.h))
        ref = index_path(field, 5)
        outcomes = ladder_outcomes(monkeypatch)
        got = solve_fixed(field, 5, vectors=False)
        assert outcomes == [True]
        assert max(abs(a.lam - b.lam) for a, b in zip(got.pairs, ref.pairs)) <= 2.0 * tol
        monkeypatch.undo()
        ladder, real = in_ladder(monkeypatch), eigensolver._counted
        monkeypatch.setattr(eigensolver, "_counted", lambda *args: not ladder[-1] and real(*args))
        outcomes = ladder_outcomes(monkeypatch)
        for vectors in (False, True):
            got = solve_fixed(field, 5, vectors=vectors)
            assert [(p.lam, p.error_estimate) for p in got.pairs] == [
                (p.lam, p.error_estimate) for p in ref.pairs]
            assert got.energies == ref.energies
        assert outcomes == [False, False]

    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    def test_refined_refusal_falls_back_bit_for_bit(self, monkeypatch, mode):
        # the ladder's base levels certified and its refined ones alone refused
        # (n = 8000, and the n = 2000 lattice): the solve again gives the index
        # path's levels bit for bit, with vectors or not
        if mode == "approximate":
            field = ladder_field("poschl_teller", 8000, g=2.0)
            ref, rows = index_path(field, 5), (8000, 16001)

            def solve(vectors):
                return solve_fixed(field, 5, vectors=vectors)
        else:
            model, tmap = lattice_case("poschl_teller", 2.0)
            ref, rows = lattice_index_path(model, tmap, 2000, 5), (4001, 8003)

            def solve(vectors):
                return solve_exact(model, tmap, 2000, 5, vectors=vectors)
        ladder, real, seen = in_ladder(monkeypatch), eigensolver._in_windows, []

        def refused(blocks, *args):
            size = sum(d.size for d, _ in blocks)
            w = None if ladder[-1] and size == rows[1] else real(blocks, *args)
            if ladder[-1]:
                seen.append((size, w is not None))
            return w

        monkeypatch.setattr(eigensolver, "_in_windows", refused)
        outcomes = ladder_outcomes(monkeypatch)
        for vectors in (False, True):
            got = solve(vectors)
            assert [(p.lam, p.error_estimate) for p in got.pairs] == [
                (p.lam, p.error_estimate) for p in ref.pairs]
            assert got.energies == ref.energies
            if vectors:
                assert all(np.array_equal(a.phi, b.phi) for a, b in zip(got.pairs, ref.pairs))
        assert outcomes == [False, False]
        assert seen == [(rows[0], True), (rows[1], False)] * 2

    def test_singular_coarse_node_takes_the_index_path(self, monkeypatch):
        # q^2 + q is NaN at node 37 of the n/16 grid alone: no node of the base,
        # refined or n/32 grid sits there, so the solve runs, without a ladder
        bad = QGrid(-8.0, 8.0, 250).nodes[37]
        field = PotentialField.from_function(lambda q: np.where(q == bad, np.nan, q * q + q),
                                             QGrid(-8.0, 8.0, 4000))
        for n, singular in ((4000, []), (8000, []), (250, [37]), (125, [])):
            grid = QGrid(-8.0, 8.0, n)
            assert np.flatnonzero(field.on_grid(grid).singular).tolist() == singular
        outcomes = ladder_outcomes(monkeypatch)
        levels = [p.lam for p in solve_fixed(field, 3).pairs]
        assert outcomes == []
        assert levels == [p.lam for p in index_path(field, 3).pairs]
        assert levels == pytest.approx([0.75, 2.75, 4.75], abs=1e-9)


def lattice_case(name, g=None, m0=1.2):
    """(model, map) at alpha 1.2, v0 1.1: poschl_teller with m0 from
    g = m0 v0 / alpha (g = 0 is massless), else ``name`` at ``m0``; a name
    ending in ``_bump`` is that model with u = BUMP_U."""
    if name.endswith("_bump"):
        model, tmap = lattice_case(name[:-len("_bump")], g, m0)
        return dataclasses.replace(model, u_closed=BUMP_U), tmap
    if name == "poschl_teller":
        m0 = g * 1.2 / 1.1
    model = builtin_model(name, alpha=1.2, v0=1.1, m0=m0)
    return model, build_transform(model.velocity, model.anchor)


def lattice_tol(model, tmap, n):
    """The coarse lattice's _bisection_tol, the ladder's bound on its levels."""
    h = QGrid(tmap.q_lo, tmap.q_hi, n).h
    u = eigensolver.u_values(model, tmap.inverse_grid(
        tmap.q_lo + np.arange(1, 2 * n + 2) * (0.5 * h)))
    return eigensolver._bisection_tol(*eigensolver._staggered(u, h))


def lattice_index_path(model, tmap, n, k, vectors=True):
    """solve_exact without the lattice ladder or the closed form of a constant
    u: the index path's levels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "_ladder_grids", lambda grid, k: [])
        mp.setattr(eigensolver, "_free_lattice", lambda *args: None)
        return solve_exact(model, tmap, n, k, vectors=vectors)


def no_lapack(monkeypatch):
    """Fail the test on any LAPACK bisection (dstebz) or inverse iteration (dstein)."""
    for name in ("_dstebz", "_dstein"):
        monkeypatch.setattr(eigensolver, name,
                            lambda *args, name=name: pytest.fail(f"{name} called"))


def gap(pair, energy):
    """|E_h - E_{h/2}| of a lattice pair, from error_estimate = 2 E gap / 3."""
    return pair.error_estimate / (2.0 * energy / 3.0)


class TestLatticeLadder:
    """Exact-mode solves from n = 2000 on bisect only the lattices over n/32 and
    n/16 phi1 nodes by index, from their inertia counts, whatever the walls:
    in the band (g < 1) too. A constant u (massless poschl_teller, cosh_square,
    rational) takes the closed form instead, with no ladder and no LAPACK
    call, within the same bound of the index path."""

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("n", [2000, 2001, 8000])
    @pytest.mark.parametrize("name,g,closed", [
        ("poschl_teller", 1.0, False), ("poschl_teller", 1.5, False),
        ("poschl_teller", 3.0, False), ("poschl_teller", 0.0, True),
        ("cosh_square", None, True), ("rational", None, True),
        ("cosh_square_bump", None, False), ("rational_bump", None, False)],
        ids=["pt_g1", "pt_g1.5", "pt_g3", "pt_massless", "cosh_square", "rational",
             "cosh_square_bump", "rational_bump"])
    def test_levels_within_two_tol_of_the_index_path(self, monkeypatch, name, g, closed, n, k):
        model, tmap = lattice_case(name, g)
        tol = lattice_tol(model, tmap, n)
        ref = lattice_index_path(model, tmap, n, k)
        outcomes = ladder_outcomes(monkeypatch)
        if closed:
            no_lapack(monkeypatch)
        lean, full = solve_exact(model, tmap, n, k, vectors=False), solve_exact(model, tmap, n, k)
        assert outcomes == ([] if closed else [True, True])  # the vector solve takes it too
        assert lean.energies == full.energies
        for j, (a, b, c) in enumerate(zip(lean.pairs, full.pairs, ref.pairs, strict=True)):
            assert a.nodes == b.nodes == c.nodes == j and a.phi is None and a.chi is None
            assert (a.lam, a.error_estimate) == (b.lam, b.error_estimate)
            e_b, e_c = full.energies[j][0], ref.energies[j][0]
            assert abs(e_b - e_c) <= 2.0 * tol
            assert abs(gap(b, e_b) - gap(c, e_c)) <= 2.0 * tol
            vb, vc = unit_vectors(b), unit_vectors(c)
            assert np.max(np.abs(vb * np.sign(vb @ vc) - vc)) <= 1e-8

    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("g", [0.5, 0.7, 0.9])
    def test_band_lattices_take_the_ladder(self, monkeypatch, g, n):
        # g < 1: the lattice error is not h^2, so the predictions are coarser,
        # yet the shifted solves certify them, within 2 tol of the index path;
        # the coarse lattices take one more inversion, as out of the band
        model, tmap = lattice_case("poschl_teller", g)
        tol = lattice_tol(model, tmap, n)
        ref = lattice_index_path(model, tmap, n, 4)
        model, tmap = lattice_case("poschl_teller", g)
        solves = []
        real_solve = type(tmap)._solve
        monkeypatch.setattr(type(tmap), "_solve",
                            lambda self, q: solves.append(q.size) or real_solve(self, q))
        outcomes = ladder_outcomes(monkeypatch)
        lean, full = solve_exact(model, tmap, n, 4, vectors=False), solve_exact(model, tmap, n, 4)
        assert outcomes == [True, True]
        assert lean.energies == full.energies
        for j, (a, b, c) in enumerate(zip(lean.pairs, full.pairs, ref.pairs, strict=True)):
            assert a.nodes == b.nodes == c.nodes == j
            assert (a.lam, a.error_estimate) == (b.lam, b.error_estimate)
            e_b, e_c = full.energies[j][0], ref.energies[j][0]
            assert abs(e_b - e_c) <= 2.0 * tol
            assert abs(gap(b, e_b) - gap(c, e_c)) <= 2.0 * tol
        assert solves == [4 * n + 3, (2 * (n // 16) + 1) + (2 * (n // 32) + 1)]

    def test_index_bisection_only_on_the_ladder_lattices(self, monkeypatch):
        # n = 2000, poschl_teller g = 3: the 125- and 251-row lattices in their
        # parity blocks, the lowest level's first (the corner one for 62 phi1
        # nodes); a skewed u (no mirror) bisects them whole. The base and fine
        # lattices (or their blocks) take shifted solves and Sturm counts only
        cosh, _ = lattice_case("cosh_square")
        for model, rows, sizes in (
                (lattice_case("poschl_teller", 3.0)[0], [62, 63, 126, 125],
                 {2001, 2000, 4002, 4001}),
                (dataclasses.replace(cosh, u_closed=SKEWED_U), [125, 251], {4001, 8003})):
            calls = []
            real = eigensolver.eigh_tridiagonal

            def logged(d, *args, **kwargs):
                calls.append((kwargs["select"], d.size))
                return real(d, *args, **kwargs)

            monkeypatch.setattr(eigensolver, "eigh_tridiagonal", logged)
            solve_exact(model, build_transform(model.velocity, model.anchor), 2000, 3)
            monkeypatch.undo()
            assert [size for select, size in calls if select == "i"] == rows
            assert {size for select, size in calls if select == "v"} == sizes | set(rows)

    def test_ladder_lattices_take_one_inversion(self, monkeypatch):
        model, tmap = lattice_case("poschl_teller", 2.0)
        solves = []
        real_solve = type(tmap)._solve
        monkeypatch.setattr(type(tmap), "_solve",
                            lambda self, q: solves.append(q.size) or real_solve(self, q))
        outcomes = ladder_outcomes(monkeypatch)
        solve_exact(model, tmap, 2000, 3, vectors=False)
        assert outcomes == [True]
        assert solves == [4 * 2000 + 3, (2 * 125 + 1) + (2 * 62 + 1)]

    def test_size_thresholds(self, monkeypatch):
        # a ladder needs n >= 2000 phi1 nodes and k <= n // 64, as in approximate mode
        model, tmap = lattice_case("poschl_teller", 2.0)
        outcomes = ladder_outcomes(monkeypatch)
        for n, k in ((1999, 3), (2000, 31), (2000, 32)):
            solve_exact(model, tmap, n, k, vectors=False)
        assert outcomes == [True]

    def test_wrong_inertia_still_names_the_base_lattice(self):
        # u < 0 has regular walls, so the ladder is tried; its lattices' inertia
        # is wrong, the ladder is dropped, and the base lattice's count raises
        model, tmap = lattice_case("cosh_square")
        flipped = dataclasses.replace(model, u_closed=closed_u(*(lambda x: -np.ones_like(x),) * 3))
        with pytest.raises(NonConvergenceError, match=r"inertia: .*, not 2001$"):
            solve_exact(flipped, tmap, 2000, 1)


def decisions(monkeypatch):
    """Log whether each _free_lattice call took the closed form (True) or left
    the solve to the lattice (False)."""
    out = []
    real = eigensolver._free_lattice

    def logged(*args):
        found = real(*args)
        out.append(found is not None)
        return found

    monkeypatch.setattr(eigensolver, "_free_lattice", logged)
    return out


def with_u(model, u):
    """``model`` with u = u(x) (its derivatives are not read in exact mode)."""
    return dataclasses.replace(model, u_closed=closed_u(u, None, None))


class TestWeylCertificate:
    """solve_exact takes the closed form when u on the fine lattice lies within
    the base lattice's bisection tolerance tol of a = (max u + min u) / 2 >= 0:
    the lattice then differs from the one over a by a diagonal of norm <= tol,
    so by Weyl's inequality its levels are within tol of the closed form's."""

    def assert_near_index_path(self, model, tmap, n, k):
        tol = lattice_tol(model, tmap, n)
        ref = lattice_index_path(model, tmap, n, k)
        got = solve_exact(model, tmap, n, k)
        for j, (b, c) in enumerate(zip(got.pairs, ref.pairs, strict=True)):
            e_b, e_c = got.energies[j][0], ref.energies[j][0]
            assert b.nodes == c.nodes == j
            assert abs(e_b - e_c) <= 2.0 * tol
            assert abs(gap(b, e_b) - gap(c, e_c)) <= 2.0 * tol
            vb, vc = unit_vectors(b), unit_vectors(c)
            assert np.max(np.abs(vb * np.sign(vb @ vc) - vc)) <= 1e-8
        return got

    def test_decision(self):
        def closed(u, tol):
            found = eigensolver._free_lattice(QGrid(0.0, 1.0, 8), np.array(u), tol, 2, False)
            return None if found is None else found[0]  # the levels

        step = 2.0 ** -40
        assert np.array_equal(closed([1.0 - step, 1.0 + step], step), closed([1.0], 0.0))  # a = 1
        assert closed([1.0 - step, 1.0 + step], step / 2.0) is None
        assert closed([0.0] * 5, 0.0) is not None
        assert closed([-1e-300] * 5, 1.0) is None  # a < 0
        assert closed([1.0, np.nan, 1.0], 1.0) is None
        assert closed([1.0, np.inf], 1.0) is None

    def test_library_model_a_few_ulp_from_constant(self):
        # cosh_square's profiles wrapped by from_callable: no u_closed, and m v_F^2
        # spreads over a few ulp of A = m0 v0^2, far under tol
        cosh = builtin_model("cosh_square", alpha=1.2, v0=1.1, m0=1.2)
        model = ModelSpec("library", MassProfile.from_callable(
            cosh.mass.func, cosh.mass.dfunc, cosh.mass.d2func, cosh.domain),
            VelocityProfile.from_callable(cosh.velocity.func, cosh.velocity.dfunc,
                                          cosh.velocity.d2func, domain=cosh.domain),
            cosh.domain, {}, "library", anchor=cosh.anchor)
        assert model.u_closed is None
        tmap = build_transform(model.velocity, model.anchor)
        h = QGrid(tmap.q_lo, tmap.q_hi, 400).h
        u = eigensolver.u_values(model, tmap.inverse_grid(
            tmap.q_lo + np.arange(1, 4 * 400 + 4) * (0.25 * h)))
        assert 0.0 < np.ptp(u) <= 64.0 * np.spacing(1.452)
        with pytest.MonkeyPatch.context() as mp:
            no_lapack(mp)
            seen = decisions(mp)
            lean = solve_exact(model, tmap, 400, 3, vectors=False)
        assert seen == [True]
        full = self.assert_near_index_path(model, tmap, 400, 3)
        assert lean.energies == full.energies
        for k, (e, _) in enumerate(full.energies):
            assert e == pytest.approx(math.hypot((k + 1) * math.pi * 1.2 * 1.1 / 2.0,
                                                 1.2 * 1.1 ** 2), rel=1e-9)

    @pytest.mark.parametrize("factor,closed", [(0.9, True), (1.1, False)])
    def test_bump_just_under_and_over_tol(self, monkeypatch, factor, closed):
        # u = A + delta exp(-x^2), delta set so that the spread of u over the fine
        # lattice is factor * tol
        n, A = 400, 1.2 * 1.1 ** 2
        base, tmap = lattice_case("cosh_square")
        h = QGrid(tmap.q_lo, tmap.q_hi, n).h
        x = tmap.inverse_grid(tmap.q_lo + np.arange(1, 4 * n + 4) * (0.25 * h))
        tol = lattice_tol(base, tmap, n)
        delta = 2.0 * factor * tol / np.ptp(np.exp(-x * x))
        model = with_u(base, lambda x: A + delta * np.exp(-x * x))
        spread = 0.5 * np.ptp(eigensolver.u_values(model, x)) / lattice_tol(model, tmap, n)
        assert spread == pytest.approx(factor, rel=1e-2)  # A + delta b rounds to ulps of A
        self.assert_near_index_path(model, tmap, n, 3)
        seen, bisected = decisions(monkeypatch), []
        real = eigensolver.eigh_tridiagonal
        monkeypatch.setattr(eigensolver, "eigh_tridiagonal",
                            lambda *args, **kwargs: bisected.append(1) or real(*args, **kwargs))
        solve_exact(model, tmap, n, 3)
        assert seen == [closed]
        assert bool(bisected) != closed

    @pytest.mark.parametrize("u", [lambda x: 0.0 * x, lambda x: 1e-20 * np.exp(-x * x)],
                             ids=["massless", "a_near_zero"])
    def test_zero_mode_stays_under_the_floor(self, u):
        # a = 0: the lattice's eigenvalue at 0 (phi1 = 0, chi constant) is not a
        # level; the lowest is the first sine's, pi alpha v0 / 2 for cosh_square
        base, tmap = lattice_case("cosh_square")
        model = with_u(base, u)
        with pytest.MonkeyPatch.context() as mp:
            no_lapack(mp)
            lean = solve_exact(model, tmap, 400, 2, vectors=False)
        full = self.assert_near_index_path(model, tmap, 400, 2)
        assert lean.energies == full.energies
        assert full.energies[0][0] == pytest.approx(math.pi * 1.2 * 1.1 / 2.0, rel=1e-6)

    def test_negative_constant_u_raises_inertia(self, monkeypatch):
        # a < 0 puts a chi mode at -a > 0 among the levels: no closed form, and
        # the lattice's inertia count names it
        base, tmap = lattice_case("cosh_square")
        seen = decisions(monkeypatch)
        with pytest.raises(NonConvergenceError, match="inertia"):
            solve_exact(with_u(base, lambda x: -1.2 + 0.0 * x), tmap, 400, 1)
        assert seen == [False]

    def test_nan_u_falls_through(self, monkeypatch):
        base, tmap = lattice_case("cosh_square")
        seen = decisions(monkeypatch)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_exact(with_u(base, lambda x: np.where(x > 0.5, np.nan, 1.0)), tmap, 400, 1)
        assert seen == [False]


# each solve's eigh_tridiagonal calls as a multiset of (select, tol is inf, rows),
# with its dgttrf factorizations as ("gttrf", rows): vectorless, at alpha 1.2,
# v0 1.1 and m0 = g alpha / v0 for poschl_teller. Only Sturm counts (tol inf)
# run on the base and refined grids but for the index path's base grid; the
# band (g 0.7) takes the ladder, two factorizations for some of its levels
PINNED_CALLS = [
    # approximate mode's plain grid: the refined grid's 2n + 1 nodes fold into
    # blocks of n + 1 and n rows
    ("approximate", 2.0, 2000, 5, {("i", False, 31): 2, ("i", False, 62): 1,
                                   ("i", False, 63): 1, ("gttrf", 1000): 5,
                                   ("gttrf", 2000): 2, ("gttrf", 2001): 3,
                                   ("v", True, 1000): 2, ("v", True, 2000): 1,
                                   ("v", True, 2001): 1}),
    ("approximate", 2.0, 8000, 5, {("i", False, 125): 2, ("i", False, 250): 2,
                                   ("gttrf", 4000): 5, ("gttrf", 8000): 2,
                                   ("gttrf", 8001): 3, ("v", True, 4000): 2,
                                   ("v", True, 8000): 1, ("v", True, 8001): 1}),
    ("approximate", 0.7, 8000, 5, {("i", False, 125): 2, ("i", False, 250): 2,
                                   ("gttrf", 4000): 6, ("gttrf", 8000): 2,
                                   ("gttrf", 8001): 3, ("v", True, 4000): 2,
                                   ("v", True, 8000): 1, ("v", True, 8001): 1}),
    ("exact", 2.0, 1000, 4, {("i", False, 1000): 1, ("i", False, 1001): 1,
                             ("gttrf", 2001): 2, ("gttrf", 2002): 2,
                             ("v", True, 1000): 2, ("v", True, 1001): 2,
                             ("v", True, 2001): 2, ("v", True, 2002): 2}),
    ("exact", 3.0, 2000, 4, {("i", False, 62): 1, ("i", False, 63): 1, ("i", False, 125): 1,
                             ("i", False, 126): 1, ("gttrf", 2000): 2, ("gttrf", 2001): 2,
                             ("gttrf", 4001): 2, ("gttrf", 4002): 2, ("v", True, 62): 1,
                             ("v", True, 63): 1, ("v", True, 125): 1, ("v", True, 126): 1,
                             ("v", True, 2000): 1, ("v", True, 2001): 1, ("v", True, 4001): 1,
                             ("v", True, 4002): 1}),
    ("exact", 0.7, 2000, 4, {("i", False, 62): 1, ("i", False, 63): 1, ("i", False, 125): 1,
                             ("i", False, 126): 1, ("gttrf", 2000): 4, ("gttrf", 2001): 4,
                             ("gttrf", 4001): 2, ("gttrf", 4002): 2, ("v", True, 62): 1,
                             ("v", True, 63): 1, ("v", True, 125): 1, ("v", True, 126): 1,
                             ("v", True, 2000): 1, ("v", True, 2001): 1, ("v", True, 4001): 1,
                             ("v", True, 4002): 1}),
    ("tilted", None, 4000, 3, {("i", False, 125): 1, ("i", False, 250): 1,
                               ("gttrf", 4000): 3, ("gttrf", 8001): 3,
                               ("v", True, 4000): 1, ("v", True, 8001): 1}),
]


class TestOneH2Law:
    """One h^2 law (_h2) gives the ladder's predictions and the Richardson
    level; at step 0 from squared steps 1 and 1/4 it is (4 w_fine - w) / 3 bit
    for bit, and the gap is |w - w_fine|."""

    def test_richardson_step_bit_for_bit(self):
        rng = np.random.default_rng(33)
        w = rng.standard_normal(100000) * 10.0 ** rng.uniform(-6, 8, 100000)
        w_fine = w * (1.0 - rng.uniform(-1e-2, 1e-2, w.size))
        assert np.array_equal(eigensolver._h2(w, w_fine, 1.0, 0.25, 0.0), (4.0 * w_fine - w) / 3.0)

    @pytest.mark.parametrize("mode,n", [("approximate", 1999), ("exact", 400),
                                        ("constant-u", 1000)])
    def test_levels_and_estimates(self, monkeypatch, mode, n):
        # ladderless solves: below n = 2000 in either mode
        steps = []
        real = eigensolver._h2

        def spy(a, b, ra, rb, rt):
            out = real(a, b, ra, rb, rt)
            steps.append((a, b, ra, rb, rt, out))
            return out

        monkeypatch.setattr(eigensolver, "_h2", spy)
        if mode == "constant-u":
            model, tmap = lattice_case("cosh_square")
            res = solve_fixed(constant_u_potential(
                1.2 * 1.1 ** 2, QGrid(tmap.q_lo, tmap.q_hi, n)), 4, vectors=False)
        else:
            model, tmap = lattice_case("poschl_teller", 1.5)
            solve = solve_approximate if mode == "approximate" else solve_exact
            res = solve(model, tmap, n, 4, vectors=False)
        (w, w_fine, ra, rb, rt, lam), = steps
        assert (ra, rb, rt) == (1.0, 0.25, 0.0)
        assert np.array_equal(lam, (4.0 * w_fine - w) / 3.0)
        gap = np.abs(w - w_fine)
        for k, pair in enumerate(res.pairs):
            if mode == "exact":
                assert (pair.lam, pair.error_estimate) == (lam[k] ** 2, 2.0 * lam[k] * gap[k] / 3.0)
            else:
                assert (pair.lam, pair.error_estimate) == (lam[k], gap[k] / 3.0)


class TestLapackCalls:
    """Each solver path makes a fixed set of LAPACK bisections and
    factorizations: the index path, the grid ladder in and out of the band,
    the lattice ladder in and out of the band, and a field solved whole."""

    @pytest.mark.parametrize("mode,g,n,k,calls", PINNED_CALLS,
                             ids=[f"{c[0]}-g{c[1]}-n{c[2]}" for c in PINNED_CALLS])
    def test_call_multiset(self, monkeypatch, mode, g, n, k, calls):
        logged = []
        real = eigensolver.eigh_tridiagonal

        def spy(d, e, **kwargs):
            logged.append((kwargs["select"], kwargs.get("tol") == math.inf, d.size))
            return real(d, e, **kwargs)

        def factored(dl, d, du, real_trf=eigensolver._dgttrf):
            logged.append(("gttrf", d.size))
            return real_trf(dl, d, du)

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", spy)
        monkeypatch.setattr(eigensolver, "_dgttrf", factored)
        if mode == "tilted":
            solve_fixed(ladder_field("tilted", n), k, vectors=False)
        else:
            model, tmap = lattice_case("poschl_teller", g)
            solve = solve_approximate if mode == "approximate" else solve_exact
            solve(model, tmap, n, k, vectors=False)
        assert collections.Counter(logged) == calls

class TestLapackBinding:
    """The package's eigh_tridiagonal is scipy.linalg's with eigvals_only=True,
    with ==, for each call it makes."""

    @staticmethod
    def assert_same(d, e, **kwargs):
        got = eigensolver.eigh_tridiagonal(d, e, **kwargs)
        want = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, **kwargs)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("folded", [False, True], ids=["whole", "folded"])
    @pytest.mark.parametrize("lattice", [False, True], ids=["approximate", "lattice"])
    def test_call_shapes(self, lattice, folded):
        d, e, _, tol, floor, below = pt_matrices(400, lattice)
        for d, e in eigensolver._fold(d, e) if folded else [(d, e)]:
            first = below // 2 if folded else below
            for lo in sorted({0, first}):
                self.assert_same(d, e, select="i", select_range=(lo, lo + 3))
            w = self.assert_same(d, e, select="i", select_range=(first, first + 3), tol=tol)
            for lam in w:  # finite-tol windows (the package asks none), one empty
                half = max(1e-6 * abs(lam), tol)
                for lo, size in ((lam - half, 1), (lam + half, 0)):
                    assert self.assert_same(d, e, select="v", tol=tol,
                                            select_range=(lo, lo + 2 * half)).size == size
            top = w[-1] + max(1e-6 * abs(w[-1]), tol)
            for lo, hi in ((-math.inf, floor), (floor, top)):  # _inertia's and _counted's counts
                self.assert_same(d, e, select="v", select_range=(lo, hi), tol=math.inf)

    def test_one_row_blocks(self):
        # n = 3 folds into blocks of 2 and 1 rows; the 1-row block takes
        # scipy's quick exit, inside and outside a window
        (d2, e2), (d1, e1) = eigensolver._fold(np.array([3.0, 1.0, 3.0]), np.array([-0.5, -0.5]))
        assert (d2.size, d1.size) == (2, 1)
        for d, e in ((d2, e2), (d1, e1)):
            self.assert_same(d, e, select="i", select_range=(0, 0))
            for window in ((2.0, 4.0), (3.0, 4.0), (-math.inf, 2.0)):
                self.assert_same(d, e, select="v", select_range=window, tol=math.inf)

    def test_split_matrix(self):
        # a zero off-diagonal splits the matrix: stebz's order "E" sorts the
        # levels of both blocks
        d, e = np.array([5.0, 1.0, 4.0, 2.0]), np.array([0.1, 0.0, 0.1])
        w = self.assert_same(d, e, select="i", select_range=(0, 3))
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
        routines = (module.dstebz, module.dstein, module.dgttrf, module.dgttrs)
        assert eigensolver._lapack() == routines
        assert sys.modules[eigensolver._FLAPACK] is module
        monkeypatch.delitem(sys.modules, eigensolver._FLAPACK)
        bound = eigensolver._lapack()
        assert eigensolver._FLAPACK not in sys.modules
        assert bound == routines

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
        lapack = scipy.linalg.lapack
        assert bound == (lapack.dstebz, lapack.dstein, lapack.dgttrf, lapack.dgttrs)
        for name, routine in zip(("_dstebz", "_dstein", "_dgttrf", "_dgttrs"), bound):
            monkeypatch.setattr(eigensolver, name, routine)
        d, e, guesses, tol, floor, below = pt_matrices(400, lattice=False)
        TestVectorStep.assert_scipys(d, e, 0, 2)
        assert eigensolver._in_windows([(d, e)], guesses, tol, floor) is not None


class TestVectorStep:
    """_eigenvectors is one dstein call on the certified levels: on the unsplit
    matrices the package builds, scipy.linalg.eigh_tridiagonal's vectors, with ==."""

    @staticmethod
    def assert_scipys(d, e, lo, hi):
        w = TestLapackBinding.assert_same(d, e, select="i", select_range=(lo, hi))
        _, want = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(lo, hi))
        got = eigensolver._eigenvectors(d, e, w)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("folded", [False, True], ids=["whole", "folded"])
    @pytest.mark.parametrize("lattice", [False, True], ids=["approximate", "lattice"])
    def test_matches_scipy(self, lattice, folded):
        d, e, _, _, _, below = pt_matrices(400, lattice)
        for d, e in eigensolver._fold(d, e) if folded else [(d, e)]:
            first = below // 2 if folded else below
            for lo in sorted({0, first}):
                self.assert_scipys(d, e, lo, lo + 3)

    def test_one_row_blocks(self):
        (d2, e2), (d1, e1) = eigensolver._fold(np.array([3.0, 1.0, 3.0]), np.array([-0.5, -0.5]))
        for d, e in ((d2, e2), (d1, e1)):
            self.assert_scipys(d, e, 0, 0)

    @pytest.mark.parametrize("d,e", [([5.0, 1.0, 4.0, 2.0], [0.1, 0.0, 0.1]),
                                     ([1.0, 2.0, 1.0, 2.0], [0.1, 0.0, 0.1])],
                             ids=["split", "repeated_across_split"])
    def test_split_matrix(self, d, e):
        # dstein runs on the matrix as one block: across a zero off-diagonal,
        # also at a level both sides share, it still gives orthonormal eigenvectors
        d, e = np.array(d), np.array(e)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        w = eigensolver.eigh_tridiagonal(d, e, select="i", select_range=(0, 3))
        v = eigensolver._eigenvectors(d, e, w)
        assert np.max(np.linalg.norm(t @ v - v * w, axis=0)) <= 1e-12 * np.linalg.norm(t, 2)
        assert np.max(np.abs(v.T @ v - np.eye(4))) <= 1e-12


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
        mp.setattr(eigensolver, "_even", lambda *samples: False)
        return solve(*args)


class TestParityFold:
    """Even fields solve two parity blocks; the levels and vectors are the full solve's."""

    def test_mirror_test(self):
        v = np.array([3.0, -1.0, 0.5, -1.0, 3.0])
        assert eigensolver._even(v, v[1:-1])
        for gap, even in ((0.9e-8, True), (1.1e-8, False)):  # of the end samples' magnitude
            near = v.copy()
            near[-1] *= 1.0 + gap
            assert eigensolver._even(near) == even
            if even:
                sym = eigensolver._mirror_average(near, True)
                assert np.array_equal(sym, sym[::-1])
        assert not eigensolver._even(v, np.array([1.0, 2.0]))
        assert not eigensolver._even(np.array([np.nan, 1.0, np.nan]))

    @pytest.mark.parametrize("k", [1, 4, 5])
    @pytest.mark.parametrize("name,n", [
        ("poschl_teller", 2000), ("poschl_teller", 2001), ("cosh_square", 2000),
        ("cosh_square", 2001), ("rational", 2001)])
    def test_approximate_mode_matches_full_solve(self, name, n, k):
        model = builtin_model(name, alpha=1.43, v0=1.9, m0=2.63)
        tmap = build_transform(model.velocity, model.anchor)
        field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, n), tmap)
        assert eigensolver._even(field.values, field.on_grid(field.grid.refined()).values)
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
        u = eigensolver.u_values(model, tmap.inverse_grid(
            tmap.q_lo + np.arange(1, 2 * n + 2) * (0.5 * h)))
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
            field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, 401), tmap)
            solve, inputs, sunk, rows = solve_fixed, (field, k), 200, (401, 803)
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
    """``name`` at alpha 1.43, v0 1.9, m0 2.63; a name ending in ``_bump`` is
    that model with u = BUMP_U."""
    if name.endswith("_bump"):
        return dataclasses.replace(sweep_model(name[:-len("_bump")]), u_closed=BUMP_U)
    return builtin_model(name, alpha=1.43, v0=1.9, m0=2.63)


def fold_switch(monkeypatch, whole):
    """Switch the parity fold off (whole), or log the sizes _fold is called on."""
    folds = []
    if whole:
        monkeypatch.setattr(eigensolver, "_even", lambda *samples: False)
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
    @pytest.mark.parametrize("name", ["poschl_teller", "cosh_square", "rational"])
    def test_approximate(self, monkeypatch, name, n, whole):
        model = sweep_model(name)
        tmap = build_transform(model.velocity, model.anchor)
        field = approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, n), tmap)
        folds = fold_switch(monkeypatch, whole)
        assert_vectorless_matches(solve_fixed(field, 5), solve_fixed(field, 5, vectors=False))
        assert bool(folds) != whole

    @pytest.mark.parametrize("whole", [False, True], ids=["folded", "whole"])
    @pytest.mark.parametrize("n", SWEEP_NS)
    @pytest.mark.parametrize("name", ["poschl_teller", "cosh_square", "rational",
                                      "cosh_square_bump", "rational_bump"])
    def test_lattice(self, monkeypatch, name, n, whole):
        # the constant u of cosh_square and rational takes the closed form, with
        # no fold and no LAPACK call; their maps with BUMP_U take the lattice
        model = sweep_model(name)
        tmap = build_transform(model.velocity, model.anchor)
        closed = name in ("cosh_square", "rational")
        folds = fold_switch(monkeypatch, whole)
        if closed:
            no_lapack(monkeypatch)
        assert_vectorless_matches(solve_exact(model, tmap, n, 5),
                                  solve_exact(model, tmap, n, 5, vectors=False))
        assert bool(folds) == (not whole and not closed)

    @pytest.mark.parametrize("tilt", [0.0, 1.0], ids=["even", "tilted"])
    def test_expand_until_settled(self, tilt):
        # a confining q^2 + tilt q: the even well folds, the tilted one is solved whole
        def builder(L):
            return PotentialField.from_function(lambda q: q * q + tilt * q,
                                                QGrid(-L, L, 2000))

        on, L = expand_until_settled(builder, 5)
        off, L_off = expand_until_settled(builder, 5, vectors=False)
        assert L_off == L
        assert_vectorless_matches(on, off)


class TestExpandUntilSettled:
    def test_harmonic_settles(self):
        def builder(L):
            g = QGrid(-L, L, 2000)
            return PotentialField.from_function(lambda q: q ** 2, g)

        result, L = expand_until_settled(builder, 3, l_start=8.0)
        assert result.pairs[0].lam == pytest.approx(1.0, abs=1e-6)
        assert L >= 8.0

    def test_first_box_computes_no_vectors(self, monkeypatch):
        # the L = 8 box only sets the level L = 16 is compared with: vectors are
        # computed for the two parity blocks of the returned box alone, and it
        # is returned as solve_fixed solves it
        def builder(L):
            return PotentialField.from_function(lambda q: q * q, QGrid(-L, L, 2000))

        steps = []  # h of each vector step, from e = -1/h^2
        real = eigensolver._eigenvectors

        def logged(d, e, w):
            steps.append(math.sqrt(-1.0 / e[0]))
            return real(d, e, w)

        monkeypatch.setattr(eigensolver, "_eigenvectors", logged)
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
            g = QGrid(-L, L, 2000)
            return PotentialField.from_function(lambda q: 100.0 * (1.0 - np.exp(-q * q)), g)

        solves = self.count_calls(monkeypatch, "solve_fixed")
        result, L = expand_until_settled(builder, 1)
        assert L == 16.0
        assert solves[0] == 2
        assert result.pairs[0].lam == pytest.approx(9.62360126448206, rel=1e-12)

    def test_stuck_edge_above_margin_checked_after_solve(self, monkeypatch):
        # V = 30 (1 - exp(-q^2)): edge 30 clears min V + 25 but not lambda_0 + 25
        def builder(L):
            g = QGrid(-L, L, 1000)
            return PotentialField.from_function(lambda q: 30.0 * (1.0 - np.exp(-q * q)), g)

        solves = self.count_calls(monkeypatch, "solve_fixed")
        with pytest.raises(NonConvergenceError, match="below eigenvalue"):
            expand_until_settled(builder, 1)
        assert solves[0] == 2

    def test_unconfined_decided_before_any_eigensolve(self, monkeypatch):
        # the linear_singular reduced potential A^2 v0^4 e^{2 v0 q} - v0^2/16
        def builder(L):
            g = QGrid(-L, L, 400)
            return PotentialField.from_function(lambda q: np.exp(2.0 * q) - 1.0 / 16.0, g)

        tridiag = self.count_calls(monkeypatch, "eigh_tridiagonal")
        with pytest.raises(NonConvergenceError,
                           match="does not confine at .q.=16: edge value stuck"):
            expand_until_settled(builder, 1)
        assert tridiag[0] == 0

    def test_unconfined_raises(self):
        # flat potential: eigenvalues never settle and the edge never beats them
        def builder(L):
            g = QGrid(-L, L, 500)
            return PotentialField.from_function(lambda q: 0.0 * q, g)

        with pytest.raises(NonConvergenceError):
            expand_until_settled(builder, 1, l_start=4.0, max_doublings=4)
