import math

import numpy as np
import pytest

from diracpd import (
    PotentialField,
    QGrid,
    approx_potential,
    build_transform,
    builtin_model,
    constant_u_potential,
    energies_from_lambda,
    exact_potential,
    expand_until_settled,
    s_parameter,
    solve_fixed,
    solve_self_consistent,
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


class TestExpandUntilSettled:
    def test_harmonic_settles(self):
        def builder(L):
            g = QGrid(-L, L, 2000, offset=True)
            return PotentialField.from_function(lambda q: q ** 2, g)

        result, L = expand_until_settled(builder, 3, l_start=8.0)
        assert result.pairs[0].lam == pytest.approx(1.0, abs=1e-6)
        assert L >= 8.0

    def test_unconfined_raises(self):
        # flat potential: eigenvalues never settle and the edge never beats them
        def builder(L):
            g = QGrid(-L, L, 500, offset=True)
            return PotentialField.from_function(lambda q: 0.0 * q, g)

        with pytest.raises(NonConvergenceError):
            expand_until_settled(builder, 1, l_start=4.0, max_doublings=4)
