import math

import numpy as np
import pytest
from scipy.integrate import quad

from diracpd import (
    QGrid,
    SpinorField,
    approx_potential,
    bic_family,
    bound_spinor,
    build_transform,
    builtin_model,
    constant_u_potential,
    dirac_residual,
    normalize,
    observables,
    reconstruct,
    solve_exact,
    solve_fixed,
    solve_self_consistent,
)
from diracpd.errors import (
    InvalidParameterError,
    NonNormalizableError,
    SubGapError,
    ZetaCrossingError,
)

SQRT_HALF = 0.7071067811865476


def cosh_setup(m0=0.0, n_grid=4000):
    model = builtin_model("cosh_square", alpha=1, v0=1, m0=m0)
    tmap = build_transform(model.velocity, 0.0)
    grid = QGrid(tmap.q_lo, tmap.q_hi, n_grid)
    res = solve_fixed(constant_u_potential(m0, grid), 3)
    return model, tmap, grid, res


class TestReconstruct:
    def test_cosh_massless_ground_state(self):
        model, tmap, grid, res = cosh_setup()
        e1 = res.energies[0][0]
        spin = normalize(reconstruct(res.pairs[0], model, tmap, e1))
        i0 = np.argmin(np.abs(spin.x))
        p1_ref, p2_ref = bound_spinor("cosh_square", 1,
                                      dict(alpha=1, v0=1, m0=0), spin.x[i0])
        assert spin.psi1[i0].real == pytest.approx(p1_ref.real, abs=1e-7)
        assert abs(spin.psi1[i0].real - SQRT_HALF) < 1e-4  # grid point near 0
        assert abs(spin.psi2[i0]) == pytest.approx(abs(p2_ref), abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_closed_form_sup_norm(self, n):
        model, tmap, grid, res = cosh_setup()
        e = res.energies[n - 1][0]
        spin = normalize(reconstruct(res.pairs[n - 1], model, tmap, e))
        p1, p2 = bound_spinor("cosh_square", n, dict(alpha=1, v0=1, m0=0), spin.x)
        # phase alignment: both conventions fix the sign at the first peak
        if np.sign(spin.psi1[np.argmax(np.abs(spin.psi1))].real) != \
           np.sign(p1[np.argmax(np.abs(p1))].real):
            p1, p2 = -p1, -p2
        assert np.max(np.abs(spin.psi1 - p1)) <= 1e-5
        assert np.max(np.abs(spin.psi2 - p2)) <= 1e-5

    def test_rational_massive_state(self):
        model = builtin_model("rational", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 4000)
        res = solve_fixed(constant_u_potential(1.0, grid), 2)
        e = res.energies[0][0]
        spin = normalize(reconstruct(res.pairs[0], model, tmap, e))
        p1, p2 = bound_spinor("rational", 1, dict(alpha=1, v0=1, m0=1), spin.x)
        if np.sign(spin.psi1[np.argmax(np.abs(spin.psi1))].real) != \
           np.sign(p1[np.argmax(np.abs(p1))].real):
            p1, p2 = -p1, -p2
        assert np.max(np.abs(spin.psi1 - p1)) <= 1e-5
        assert np.max(np.abs(spin.psi2 - p2)) <= 1e-5

    def test_component_phases(self):
        model, tmap, grid, res = cosh_setup(m0=1.0)
        e = res.energies[0][0]
        spin = reconstruct(res.pairs[0], model, tmap, e)
        assert np.max(np.abs(spin.psi1.imag)) == 0.0
        assert np.max(np.abs(spin.psi2.real)) == 0.0

    def test_zeta_crossing_guard(self):
        model, tmap, grid, res = cosh_setup(m0=1.0)
        with pytest.raises(ZetaCrossingError):
            reconstruct(res.pairs[0], model, tmap, -2.0)

    @pytest.mark.parametrize("exact", [False, True], ids=["approximate", "lattice"])
    def test_vectorless_pair_raises(self, exact):
        # a lattice pair solved without vectors has chi None too: the phi test
        # comes first, so it does not fall into the approximate-mode lift
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        if exact:
            res = solve_exact(model, tmap, 400, 2, vectors=False)
        else:
            grid = QGrid(tmap.q_lo, tmap.q_hi, 400)
            res = solve_fixed(approx_potential(model, grid, tmap), 2, vectors=False)
        assert res.pairs[1].phi is None and res.pairs[1].chi is None
        with pytest.raises(InvalidParameterError,
                           match=r"no eigenvector.*solve with vectors=True"):
            reconstruct(res.pairs[1], model, tmap, res.energies[1][0])

    def test_prefactor_scaling_between_masses(self):
        # same free eigenvector; components differ only by zeta prefactors
        model0, tmap, grid, res0 = cosh_setup(m0=0.0)
        model1 = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        res1 = solve_fixed(constant_u_potential(1.0, grid), 3)
        assert np.array_equal(res0.pairs[0].phi, res1.pairs[0].phi)
        e0, e1 = res0.energies[0][0], res1.energies[0][0]
        s0 = normalize(reconstruct(res0.pairs[0], model0, tmap, e0))
        s1 = normalize(reconstruct(res1.pairs[0], model1, tmap, e1))
        mask = np.abs(s0.psi1) > 1e-3
        ratio = np.abs(s1.psi1[mask]) / np.abs(s0.psi1[mask])
        assert np.max(ratio) - np.min(ratio) <= 1e-8


class TestObservables:
    def test_current_vanishes_exactly(self):
        model, tmap, grid, res = cosh_setup(m0=1.0)
        e = res.energies[0][0]
        spin = normalize(reconstruct(res.pairs[0], model, tmap, e))
        obs = observables(spin, model)
        assert np.max(np.abs(obs.current)) == 0.0
        assert np.all(obs.rho >= 0)

    def test_total_prob_after_normalize(self):
        model, tmap, grid, res = cosh_setup()
        spin = normalize(reconstruct(res.pairs[0], model, tmap,
                                     res.energies[0][0]))
        obs = observables(spin, model)
        assert obs.total_prob == pytest.approx(1.0, abs=1e-8)

    def test_normalize_idempotent(self):
        model, tmap, grid, res = cosh_setup()
        spin = normalize(reconstruct(res.pairs[0], model, tmap,
                                     res.energies[0][0]))
        again = normalize(spin)
        assert again.norm_constant == pytest.approx(1.0, abs=1e-10)

    def test_zero_state_not_normalizable(self):
        xs = np.linspace(-1, 1, 64)
        zero = SpinorField(x=xs, psi1=np.zeros(64, complex),
                           psi2=np.zeros(64, complex), energy=1.0,
                           norm_constant=1.0)
        with pytest.raises(NonNormalizableError):
            normalize(zero)


class TestDiracResidual:
    def test_constant_rest_exact_kernel(self):
        model = builtin_model("constant_rest", m0=1, c=1)
        xs = np.linspace(-5, 5, 801)
        spin = SpinorField(x=xs, psi1=np.ones(801, complex),
                           psi2=np.zeros(801, complex), energy=1.0,
                           norm_constant=1.0)
        assert dirac_residual(spin, model, 1.0) <= 1e-12

    def test_second_order_convergence(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        params = dict(alpha=1, v0=1, m0=0)
        residuals = []
        for n in (2001, 4001):
            xs = np.linspace(-8, 8, n)
            p1, p2 = bound_spinor("cosh_square", 1, params, xs)
            spin = SpinorField(x=xs, psi1=p1, psi2=p2, energy=math.pi / 2,
                               norm_constant=1.0)
            residuals.append(dirac_residual(spin, model, math.pi / 2))
        assert residuals[0] / residuals[1] >= 3.5

    def test_poschl_teller_exact_mode_residual(self):
        # self-consistent ground state satisfies the first-order system;
        # value frozen from a convergence run of this solver (wall-singular
        # state: the interior central-difference residual at n=8000)
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 8000)
        seed = solve_fixed(approx_potential(model, grid, tmap), 1)
        pair, e_exact, _ = solve_self_consistent(model, tmap, grid, 0,
                                                 seed.energies[0][0])
        spin = normalize(reconstruct(pair, model, tmap, e_exact))
        assert dirac_residual(spin, model, e_exact) <= 2.5e-4


    def test_poschl_teller_lattice_state(self):
        # the lattice pair lifts with no zeta_2 and solves the first-order
        # system far better than the self-consistent state above
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, model.anchor)
        res = solve_exact(model, tmap, 8000, 1)
        e = res.energies[0][0]
        spin = normalize(reconstruct(res.pairs[0], model, tmap, e))
        obs = observables(spin, model)
        assert np.max(np.abs(obs.current)) == 0.0
        assert obs.total_prob == pytest.approx(1.0, abs=1e-12)
        assert dirac_residual(spin, model, e) <= 1e-5


class TestBicFamily:
    def test_cosh_massive_family(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        spin = bic_family(model, 1.5)
        obs = observables(spin, model)
        assert obs.total_prob == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(obs.current)) <= 1e-10
        # the scalar part oscillates at lam = sqrt(E^2 - A^2)
        lam = math.sqrt(1.5 ** 2 - 1.0)
        phi = spin.psi1 * np.sqrt(model.velocity(spin.x)) / math.sqrt(1.5 + 1.0)
        expect = spin.norm_constant * np.sin(lam * spin.q)
        assert np.max(np.abs(phi.real - expect)) <= 1e-10

    def test_gap_edge_state_is_pure_cos(self):
        # E = A: sin(0 q) kills psi1; psi2 keeps only the cos factor, whose
        # amplitude sqrt(zeta_1) also vanishes there
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        spin = bic_family(model, 1.0)
        assert np.max(np.abs(spin.psi1)) == 0.0
        assert np.max(np.abs(spin.psi2)) == 0.0

    def test_sub_gap_rejected(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        with pytest.raises(SubGapError):
            bic_family(model, 0.7)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, energy):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        with pytest.raises(InvalidParameterError, match="finite"):
            bic_family(model, energy)

    def test_non_constant_u_rejected(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        with pytest.raises(InvalidParameterError):
            bic_family(model, 2.0)

    def test_rational_arbitrary_energy(self):
        model = builtin_model("rational", alpha=1, v0=1, m0=0)
        spin = bic_family(model, 1.3)
        obs = observables(spin, model)
        assert np.max(np.abs(obs.current)) == 0.0
        assert math.isfinite(obs.total_prob)
        assert obs.total_prob == pytest.approx(1.0, abs=1e-8)

    def test_matches_shifted_bound_state_at_discrete_energy(self):
        # at E = E_1 the family state is the bound state shifted by half the
        # box width in q
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 0.0)
        lam = math.pi / 2
        e1 = math.hypot(lam, 1.0)
        spin = bic_family(model, e1, tmap=tmap)
        phi_bic = (spin.psi1.real * np.sqrt(np.asarray(model.velocity(spin.x)))
                   / math.sqrt(e1 + 1.0))
        shift = 1.0  # half of the q-width 2/(alpha v0)
        expect = spin.norm_constant * np.sin(lam * spin.q)
        assert np.max(np.abs(phi_bic - expect)) < 1e-10
        # shifting q by the half-width turns sin(lam q) into the quantized
        # sin(lam (q + 1)) that vanishes at both walls
        assert math.sin(lam * (spin.q[0] + shift)) == pytest.approx(
            0.0, abs=1e-3)

    def test_negative_branch(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        spin = bic_family(model, -1.5)
        obs = observables(spin, model)
        assert obs.total_prob == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(obs.current)) <= 1e-12


class TestEnvelopeIdentity:
    def test_rational_massless_density_envelope(self):
        # rho * (1 + a^2 x^2) is constant for the arctan-map model at m0=0
        xs = np.linspace(-40, 40, 2001)
        p1, p2 = bound_spinor("rational", 1, dict(alpha=1, v0=1, m0=0), xs)
        rho = (np.abs(p1) ** 2 + np.abs(p2) ** 2) * (1 + xs ** 2)
        assert np.max(rho) - np.min(rho) <= 1e-8 * np.max(rho)
        assert np.max(rho) == pytest.approx(1 / math.pi, rel=1e-8)

    def test_normalization_closure_rational(self):
        # analytic N against numeric 1/sqrt(total_prob) via quadrature
        params = dict(alpha=1.0, v0=1.0, m0=1.0)
        from diracpd import published_normalization

        def rho(x):
            p1, p2 = bound_spinor("rational", 2, params, np.asarray([x]),
                                  normalized=False)
            return float(np.abs(p1[0]) ** 2 + np.abs(p2[0]) ** 2)

        total, _ = quad(rho, -np.inf, np.inf, limit=300)
        n_numeric = 1.0 / math.sqrt(total)
        n_printed, provenance = published_normalization("rational", 2, params)
        assert provenance == "verified"
        assert n_numeric == pytest.approx(n_printed, rel=1e-6)
