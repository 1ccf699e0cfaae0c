"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is produced by an independent oracle (closed-form
evaluation, direct quadrature of printed component moduli, or brute-force
series), never by the code path under test.
"""

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
    detect_constant_u,
    dirac_residual,
    energies_from_lambda,
    observables,
    potential_discrepancy_report,
    solve_fixed,
    spectrum_entry,
)
from diracpd.cli import main as cli_main


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {detail}")
    assert ok, detail


def _constant_u_solve(name, alpha, v0, m0, k, n_grid=2000):
    model = builtin_model(name, alpha=alpha, v0=v0, m0=m0)
    tmap = build_transform(model.velocity, 0.0)
    a_const = detect_constant_u(model)
    grid = QGrid(tmap.q_lo, tmap.q_hi, n_grid)
    result = solve_fixed(constant_u_potential(a_const, grid), k)
    return model, tmap, result


def test_criterion_1_model_one_massless_spectra():
    """Massless cosh-velocity model: E_n = n pi alpha v0 / 2, rel err <= 1e-6."""
    worst = 0.0
    for alpha, v0 in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)]:
        _, _, result = _constant_u_solve("cosh_square", alpha, v0, 0.0, 5)
        for n, (e_plus, e_minus) in enumerate(result.energies, start=1):
            exact = n * math.pi * alpha * v0 / 2.0
            worst = max(worst, abs(e_plus - exact) / exact)
            assert e_minus == -e_plus
    _report(1, worst <= 1e-6,
            f"massless spectra, 3 parameter sets, n=1..5: worst rel err {worst:.2e}")


def test_criterion_2_model_one_mass_shift():
    """E_n^2(m0) - E_n^2(0) = m0^2 v0^4 to 1e-8 absolute."""
    _, _, base = _constant_u_solve("cosh_square", 1.0, 1.0, 0.0, 5)
    e0 = np.array([e[0] for e in base.energies])
    worst = 0.0
    for m0 in (0.5, 1.0, 2.0):
        _, _, result = _constant_u_solve("cosh_square", 1.0, 1.0, m0, 5)
        e = np.array([ep for ep, _ in result.energies])
        worst = max(worst, float(np.max(np.abs(e ** 2 - e0 ** 2 - m0 ** 2))))
    _report(2, worst <= 1e-8,
            f"mass shift law, m0 in (0.5, 1, 2), n=1..5: worst abs dev {worst:.2e}")


def test_criterion_3_model_two_spectra_and_normalization():
    """Arctan-map model: E_n and the printed normalization constant."""
    alpha, v0, m0 = 1.0, 1.0, 0.7
    _, _, result = _constant_u_solve("rational", alpha, v0, m0, 5)
    worst_e = 0.0
    for n, (e_plus, _) in enumerate(result.energies, start=1):
        exact = math.sqrt((n * alpha * v0) ** 2 + (m0 * v0 * v0) ** 2)
        worst_e = max(worst_e, abs(e_plus - exact) / exact)

    # normalization: printed closed form against 1/sqrt of the numeric
    # total probability of the bare closed-form state
    from diracpd import published_normalization
    worst_n = 0.0
    for n in (1, 2, 3):
        params = dict(alpha=alpha, v0=v0, m0=m0)
        n_printed, provenance = published_normalization("rational", n, params)
        assert provenance == "verified"
        model = builtin_model("rational", **params)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 60001)
        x = tmap.inverse_grid(grid.nodes)
        p1, p2 = bound_spinor("rational", n, params, x, normalized=False)
        bare = SpinorField(x=x, psi1=p1, psi2=p2, energy=0.0, norm_constant=1.0,
                           q=grid.nodes,
                           vf=np.asarray(model.velocity(x), dtype=float),
                           q_bounds=(grid.lo, grid.hi))
        n_numeric = 1.0 / math.sqrt(observables(bare, model).total_prob)
        worst_n = max(worst_n, abs(n_numeric - n_printed) / n_printed)
    ok = worst_e <= 1e-6 and worst_n <= 1e-6
    _report(3, ok, f"arctan-map spectra n=1..5 (worst rel {worst_e:.2e}) and "
                   f"normalization (worst rel {worst_n:.2e})")


def test_criterion_4_bic_families():
    """Continuum-family states: normalizable, zero current, density closure."""
    worst_j = 0.0
    worst_rho = 0.0
    energies = np.linspace(1.05, 4.95, 10)  # within (A, 3A + 2) for A = 1
    for name in ("cosh_square", "rational"):
        model = builtin_model(name, alpha=1.0, v0=1.0, m0=1.0)
        tmap = build_transform(model.velocity, 0.0)
        for e in energies:
            spin = bic_family(model, float(e), tmap=tmap, n_nodes=40001)
            obs = observables(spin, model)
            assert obs.total_prob == pytest.approx(1.0, abs=1e-8)
            vmax = float(np.max(obs.rho * np.asarray(model.velocity(spin.x))))
            worst_j = max(worst_j, float(np.max(np.abs(obs.current)))
                          / max(vmax, 1.0))
            # independent oracle: direct quadrature of the closed-form moduli
            lam = math.sqrt(e * e - 1.0)
            z1, z2 = e - 1.0, e + 1.0

            if name == "cosh_square":
                def rho(x):
                    th = lam * math.tanh(x)
                    sech2 = 1.0 / math.cosh(x) ** 2
                    return sech2 * (z2 * math.sin(th) ** 2
                                    + z1 * math.cos(th) ** 2)
                oracle, _ = quad(rho, -40, 40, limit=400, epsabs=1e-13,
                                 epsrel=1e-13)
            else:
                def rho(x):
                    th = lam * math.atan(x)
                    env = 1.0 / (1.0 + x * x)
                    return env * (z2 * math.sin(th) ** 2
                                  + z1 * math.cos(th) ** 2)
                oracle, _ = quad(rho, -np.inf, np.inf, limit=400, epsabs=1e-13,
                                 epsrel=1e-13)
            numeric = 1.0 / spin.norm_constant ** 2
            worst_rho = max(worst_rho, abs(numeric - oracle) / oracle)
    ok = worst_j <= 1e-10 and worst_rho <= 1e-8
    _report(4, ok, f"10 family energies x 2 models: max|j| {worst_j:.2e}, "
                   f"density closure {worst_rho:.2e}")


def test_criterion_5_poschl_teller():
    """1/sin^2 model: potential identity and spectrum containment."""
    # (a) potential identity at unit and at unit-breaking parameters
    worst_pot = 0.0
    for alpha, v0, m0 in [(1.0, 1.0, 1.0), (1.3, 0.8, 1.1)]:
        model = builtin_model("poschl_teller", alpha=alpha, v0=v0, m0=m0)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 4001)
        x0 = model.anchor

        def claimed(q):
            coeff = m0 ** 2 * v0 ** 4 - 5.0 * (alpha * v0) ** 2 / 16.0
            return ((alpha * v0) ** 2 / 16.0
                    + coeff / np.sin(alpha * (x0 + v0 * q)) ** 2)

        rep = potential_discrepancy_report(model, claimed, grid, tmap)
        worst_pot = max(worst_pot, rep.max_rel)

    # (b) numeric spectrum contains the published (s+2n) sequence, n = 0..2
    alpha, v0, m0 = 1.0, 1.0, 1.0
    model = builtin_model("poschl_teller", alpha=alpha, v0=v0, m0=m0)
    tmap = build_transform(model.velocity, model.anchor)
    grid = QGrid(tmap.q_lo, tmap.q_hi, 8000)
    result = solve_fixed(approx_potential(model, grid, tmap), 6)
    numeric = np.array([e[0] for e in result.energies])
    worst_lvl = 0.0
    for n in range(3):
        # the published family's member n is entry 2n of the verified full ladder
        target = spectrum_entry("poschl_teller", 2 * n, dict(alpha=alpha, v0=v0,
                                                             m0=m0)).e_plus
        best = float(np.min(np.abs(numeric - target))) / target
        worst_lvl = max(worst_lvl, best)
    # interleaved levels: the solver finds states between the published ones,
    # at (s + odd)^2 + 1/16 in reduced units
    s = 0.5 + math.sqrt(15.0) / 4.0
    interleaved = [numeric[1], numeric[3]]
    inter_ok = all(
        abs(e - 0.25 * math.sqrt(1 + 16 * (s + k) ** 2)) < 1e-4 * e
        for e, k in zip(interleaved, (1, 3)))
    ok = worst_pot <= 1e-10 and worst_lvl <= 1e-4 and inter_ok
    _report(5, ok,
            f"potential identity (rel {worst_pot:.2e}), published levels "
            f"contained (rel {worst_lvl:.2e}), interleaved levels at s+1, s+3 "
            f"present: {inter_ok}")


def test_criterion_6_oscillator_adjudication():
    """Linear-velocity/singular-mass model: the published potential is wrong."""
    big_a, v0 = 1.0, 1.0
    model = builtin_model("linear_singular", A=big_a, v0=v0)
    tmap = build_transform(model.velocity, model.anchor)
    grid = QGrid(-3.0, 3.0, 2001)

    def exponential(q):
        return big_a ** 2 * v0 ** 4 * np.exp(2 * v0 * np.asarray(q)) \
            - v0 ** 2 / 16.0

    def harmonic(q):
        omega = 2.0 * big_a * v0 ** 3
        return 0.25 * omega ** 2 * np.asarray(q) ** 2

    rep_exp = potential_discrepancy_report(model, exponential, grid, tmap)
    rep_harm = potential_discrepancy_report(model, harmonic, grid, tmap)
    far = np.abs(rep_harm.q) >= 1.0
    harm_rel = np.abs(rep_harm.residual[far]) / np.abs(rep_harm.computed[far])
    entry = spectrum_entry("linear_singular", 0, dict(A=big_a, v0=v0))
    ok = (rep_exp.max_rel <= 1e-10
          and float(np.min(harm_rel)) > 0.10
          and entry.provenance == "as_published"
          and entry.e_plus == pytest.approx(math.sqrt(15.0) / 4.0, rel=1e-12))
    _report(6, ok,
            f"exponential form matches to {rep_exp.max_rel:.2e}; harmonic "
            f"deviates by >= {float(np.min(harm_rel)):.0%} for |q| >= 1; "
            f"published energies flagged {entry.provenance}")


def test_criterion_7_constant_rest_limit():
    """Free constant-mass limit: E = +/- m0 c^2 and a flat potential."""
    model = builtin_model("constant_rest", m0=1.0, c=1.0)
    tmap = build_transform(model.velocity, 0.0)
    a_const = detect_constant_u(model)
    e_plus, e_minus = energies_from_lambda(0.0, a_const ** 2)
    grid = QGrid(-8.0, 8.0, 1001)
    field = approx_potential(model, grid, tmap)
    grad = float(np.max(np.abs(np.diff(field.values)))) / field.grid.h
    ok = (abs(e_plus - 1.0) <= 1e-10 and abs(e_minus + 1.0) <= 1e-10
          and grad <= 1e-10)
    _report(7, ok, f"E = +/-{e_plus:.12g} m0 c^2, potential gradient {grad:.2e}")


def test_criterion_8_property_suite(tmp_path):
    """Node counts, round trips, residual convergence, determinism."""
    # (a) Sturm node counts across a mix of solves
    nodes_ok = True
    _, _, res_a = _constant_u_solve("cosh_square", 1.0, 1.0, 1.0, 5)
    nodes_ok &= [p.nodes for p in res_a.pairs] == list(range(5))
    _, _, res_b = _constant_u_solve("rational", 1.3, 0.7, 0.4, 4)
    nodes_ok &= [p.nodes for p in res_b.pairs] == list(range(4))
    model_pt = builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=1.0)
    tmap_pt = build_transform(model_pt.velocity, model_pt.anchor)
    grid_pt = QGrid(tmap_pt.q_lo, tmap_pt.q_hi, 3000)
    res_c = solve_fixed(approx_potential(model_pt, grid_pt, tmap_pt), 5)
    nodes_ok &= [p.nodes for p in res_c.pairs] == list(range(5))

    # (b) transform round trip over every builtin
    worst_rt = 0.0
    cases = [("cosh_square", dict(alpha=1, v0=1, m0=1), (-4, 4)),
             ("rational", dict(alpha=1, v0=1, m0=1), (-40, 40)),
             ("poschl_teller", dict(alpha=1, v0=1, m0=1), (0.05, math.pi - 0.05)),
             ("linear_singular", dict(A=1, v0=1), (0.02, 50.0)),
             ("constant_rest", dict(m0=1, c=1), (-20, 20))]
    for name, kwargs, window in cases:
        model = builtin_model(name, **kwargs)
        tmap = build_transform(model.velocity, model.anchor)
        for x in np.linspace(window[0], window[1], 1000):
            q = tmap.forward(float(x))
            worst_rt = max(worst_rt,
                           abs(tmap.inverse(q) - x) / max(1.0, abs(x)))

    # (c) residual second-order convergence on closed-form states
    model_i = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
    ratios = []
    for n_state in (1, 2):
        res = []
        for n_pts in (2001, 4001):
            xs = np.linspace(-8, 8, n_pts)
            p1, p2 = bound_spinor("cosh_square", n_state,
                                  dict(alpha=1, v0=1, m0=0), xs)
            e_n = n_state * math.pi / 2
            spin = SpinorField(x=xs, psi1=p1, psi2=p2, energy=e_n,
                               norm_constant=1.0)
            res.append(dirac_residual(spin, model_i, e_n))
        ratios.append(res[0] / res[1])

    # (d) determinism: identical configs give byte-identical artifacts
    outs = []
    for tag in ("one", "two"):
        cfg = tmp_path / f"{tag}.txt"
        cfg.write_text(
            "model.name = cosh_square\nmodel.alpha = 1.0\nmodel.v0 = 1.0\n"
            "model.m0 = 0.5\ngrid.n = 800\nsolve.k_states = 3\n"
            "outputs = spectrum, potential, wavefunctions\n"
            f"out.dir = {tmp_path / ('out_' + tag)}\n")
        assert cli_main(["solve", "--config", str(cfg)]) == 0
        outs.append(tmp_path / ("out_" + tag))
    identical = all(
        (outs[0] / nm).read_bytes() == (outs[1] / nm).read_bytes()
        for nm in ("spectrum.csv", "potential.csv", "wavefunction_0.csv",
                   "wavefunction_1.csv", "wavefunction_2.csv"))

    ok = (nodes_ok and worst_rt <= 1e-9 and all(r >= 3.5 for r in ratios)
          and identical)
    _report(8, ok,
            f"nodes correct: {nodes_ok}; round trip {worst_rt:.2e}; residual "
            f"halving ratios {[f'{r:.2f}' for r in ratios]}; deterministic "
            f"outputs: {identical}")
