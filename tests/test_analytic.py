import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from diracpd import (
    bound_spinor,
    builtin_model,
    hermite,
    hyp2f1_polynomial,
    numeric_normalization,
    published_normalization,
    s_parameter,
    spectrum_entry,
    spectrum_value,
)
from diracpd.errors import (
    AsPublishedWarning,
    ImaginaryEnergyError,
    InvalidParameterError,
    sides,
)

E1_COSH_MASSIVE = 1.8620958891185866  # sqrt((pi/2)^2 + 1)
E0_OSC_PUBLISHED = 0.9682458365518543  # sqrt(15)/4
H5_AT_1P2 = -52.85376  # brute-force series value
F21_VALUE = 0.09603627491090850  # terminating sum at n=3, b=4.2, c=3.1, z=0.37


def hermite_series(n, y):
    """Brute-force series: H_n(y) = n! sum_m (-1)^m (2y)^(n-2m) / (m! (n-2m)!)."""
    total = 0.0
    for m in range(n // 2 + 1):
        total += (-1) ** m * (2 * y) ** (n - 2 * m) / (
            math.factorial(m) * math.factorial(n - 2 * m))
    return math.factorial(n) * total


class TestSpectra:
    def test_cosh_square_massive(self):
        e_plus, e_minus = spectrum_value("cosh_square", 1,
                                         dict(alpha=1, v0=1, m0=1))
        assert e_plus == pytest.approx(E1_COSH_MASSIVE, rel=1e-14)
        assert e_minus == -e_plus

    def test_cosh_square_massless(self):
        e_plus, _ = spectrum_value("cosh_square", 1, dict(alpha=1, v0=1, m0=0))
        assert e_plus == pytest.approx(math.pi / 2, rel=1e-14)

    def test_rational(self):
        e_plus, _ = spectrum_value("rational", 2, dict(alpha=1, v0=1, m0=0))
        assert e_plus == pytest.approx(2.0, abs=1e-14)

    def test_linear_singular_as_published(self):
        entry = spectrum_entry("linear_singular", 0, dict(A=1, v0=1))
        assert entry.e_plus == pytest.approx(E0_OSC_PUBLISHED, rel=1e-14)
        assert entry.provenance == "as_published"

    def test_linear_singular_imaginary(self):
        with pytest.raises(ImaginaryEnergyError):
            spectrum_value("linear_singular", 0, dict(A=0.01, v0=1))

    def test_constant_rest(self):
        e_plus, e_minus = spectrum_value("constant_rest", 0, dict(m0=1.5, c=2.0))
        assert e_plus == 1.5 * 4.0
        assert e_minus == -e_plus

    def test_poschl_teller_verified_provenance(self):
        entry = spectrum_entry("poschl_teller", 0, dict(alpha=1, v0=1, m0=1))
        assert entry.provenance == "verified"
        s = s_parameter(1, 1, 1)
        assert entry.e_plus == pytest.approx(0.25 * math.sqrt(1 + 16 * s ** 2),
                                             rel=1e-14)
        ap = spectrum_entry("poschl_teller", 0, dict(alpha=1, v0=1, m0=1),
                            as_published=True)
        assert ap.provenance == "as_published"

    def test_poschl_teller_full_ladder(self):
        # verified entry n is s + n; the printed family is s + 2n with its own radical
        params = dict(alpha=1.3, v0=0.8, m0=2.1)
        s_ver = s_parameter(1.3, 0.8, 2.1)
        s_ap = s_parameter(1.3, 0.8, 2.1, as_published=True)
        for n in range(5):
            ver = spectrum_entry("poschl_teller", n, params).e_plus
            ap = spectrum_entry("poschl_teller", n, params, as_published=True).e_plus
            assert ver == pytest.approx(0.26 * math.sqrt(1 + 16 * (s_ver + n) ** 2), rel=1e-14)
            assert ap == pytest.approx(0.26 * math.sqrt(1 + 16 * (s_ap + 2 * n) ** 2), rel=1e-14)

    def test_poschl_teller_exact_ladder(self):
        # trigonometric Poschl-Teller: E_n = alpha v0 (g + n + 1/2), g = m0 v0 / alpha
        params = dict(alpha=1.3, v0=0.8, m0=2.0)
        g = 2.0 * 0.8 / 1.3
        for n in range(4):
            entry = spectrum_entry("poschl_teller", n, params, exact=True)
            assert entry.provenance == "verified"
            assert entry.e_plus == pytest.approx(1.3 * 0.8 * (g + n + 0.5), rel=1e-14)
        with pytest.raises(InvalidParameterError):
            spectrum_entry("poschl_teller", 0, dict(alpha=1, v0=1, m0=0.4), exact=True)

    def test_exact_ladder_bound_prints_g_below_it(self):
        # g = 0.4999999 is printed on its side of 1/2, not rounded onto it
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=0.4999999)
        with pytest.raises(InvalidParameterError, match=r"needs g >= 1/2, got 0\.4999999$"):
            model.facts.level(0, exact=True)

    def test_sides_prints_a_value_on_its_side_of_the_bound(self):
        assert sides(-0.25000005, -0.25) == ("-0.25000005", "-0.25")
        assert sides(0.9999999 ** 2, 1.0) == ("0.9999998", "1")
        assert sides(1.0 + 2.0 ** -52, 1.0) == ("1.0000000000000002", "1")
        assert sides(1.0, 1.0) == ("1", "1")
        # six digits where they suffice, as a %.6g message printed them
        assert sides(-0.2725000001, -0.25) == ("-0.2725", "-0.25")
        assert sides(-1.0, -0.25) == ("-1", "-0.25")

    def test_level_index_validation(self):
        with pytest.raises(InvalidParameterError):
            spectrum_value("cosh_square", 0, dict(alpha=1, v0=1, m0=0))
        with pytest.raises(InvalidParameterError):
            spectrum_value("poschl_teller", -1, dict(alpha=1, v0=1, m0=1))

    def test_increasing_in_n(self):
        for model, params, n0 in [
            ("cosh_square", dict(alpha=0.8, v0=1.2, m0=0.5), 1),
            ("rational", dict(alpha=1.1, v0=0.9, m0=1.5), 1),
            ("poschl_teller", dict(alpha=1.0, v0=1.3, m0=1.0), 0),
            ("linear_singular", dict(A=2.0, v0=1.0), 0),
        ]:
            values = [spectrum_value(model, n, params)[0]
                      for n in range(n0, n0 + 5)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_mass_shift_identity(self):
        # E_n^2 - E_n^2(m0=0) = m0^2 v0^4, an algebraic identity
        for n in (1, 3, 5):
            for m0 in (0.5, 1.0, 2.0):
                params = dict(alpha=1.3, v0=0.7, m0=m0)
                massless = dict(alpha=1.3, v0=0.7, m0=0.0)
                d = (spectrum_value("cosh_square", n, params)[0] ** 2
                     - spectrum_value("cosh_square", n, massless)[0] ** 2)
                assert d == pytest.approx(m0 ** 2 * 0.7 ** 4, rel=1e-12)

    def test_massless_continuity(self):
        eps = 1e-4
        e_eps = spectrum_value("rational", 2, dict(alpha=1, v0=1, m0=eps))[0]
        e_0 = spectrum_value("rational", 2, dict(alpha=1, v0=1, m0=0.0))[0]
        assert e_eps ** 2 - e_0 ** 2 == pytest.approx(eps ** 2, rel=1e-10)


class TestSParameter:
    def test_verified_value(self):
        assert s_parameter(1, 1, 1) == pytest.approx(0.5 + math.sqrt(15) / 4,
                                                     rel=1e-15)

    def test_variants_differ_when_units_matter(self):
        s_ver = s_parameter(1.3, 0.8, 1.1)
        s_ap = s_parameter(1.3, 0.8, 1.1, as_published=True)
        assert abs(s_ver - s_ap) > 0.5

    def test_complex_s_rejected(self):
        with pytest.raises(InvalidParameterError):
            s_parameter(alpha=2.0, v0=1.0, m0=0.3)

    def test_complex_s_names_the_radical_used(self):
        # m0 v0 / alpha = 10 clears the verified condition; m0 alpha = 0.1 fails the printed one
        assert s_parameter(0.1, 1.0, 1.0) > 1.0
        with pytest.raises(InvalidParameterError, match=r"need m0 alpha >= 1/4\)"):
            s_parameter(0.1, 1.0, 1.0, as_published=True)
        with pytest.raises(InvalidParameterError, match=r"need m0 v0 / alpha >= 1/4\)"):
            s_parameter(2.0, 1.0, 0.3)

    def test_exact_mode_has_no_published_family(self):
        params = dict(alpha=1.3, v0=0.8, m0=2.1)
        with pytest.raises(InvalidParameterError, match="exact mode"):
            spectrum_entry("poschl_teller", 0, params, as_published=True, exact=True)
        assert spectrum_entry("poschl_teller", 0, params, exact=True).e_plus == \
            pytest.approx(2.1 * 0.8 ** 2 + 1.3 * 0.8 * 0.5, rel=1e-15)


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 0.77) == 1.0
        assert hermite(1, 0.5) == 1.0
        assert hermite(2, 3.0) == 34.0

    def test_against_series(self):
        assert hermite(5, 1.2) == pytest.approx(H5_AT_1P2, rel=1e-12)
        rng = np.random.default_rng(3)
        for n in range(9):
            for y in rng.uniform(-3, 3, size=5):
                assert hermite(n, float(y)) == pytest.approx(
                    hermite_series(n, float(y)), rel=1e-10, abs=1e-10)

    def test_vectorized(self):
        ys = np.linspace(-2, 2, 7)
        vals = hermite(3, ys)
        assert vals == pytest.approx(8 * ys ** 3 - 12 * ys, rel=1e-13)

    def test_negative_order(self):
        with pytest.raises(InvalidParameterError):
            hermite(-1, 0.0)


class TestHyp2F1Polynomial:
    def test_n0_is_one(self):
        for b, c, z in [(0.3, 1.7, 0.9), (5.0, -2.5, 0.1)]:
            assert hyp2f1_polynomial(0, b, c, z) == 1.0

    def test_n1_two_terms(self):
        s = 1.7
        val = hyp2f1_polynomial(1, s + 1, s + 0.5, 1.0)
        assert val == pytest.approx(1 - (s + 1) / (s + 0.5), rel=1e-14)

    def test_frozen_reference(self):
        assert hyp2f1_polynomial(3, 4.2, 3.1, 0.37) == pytest.approx(
            F21_VALUE, abs=1e-13)

    def test_pole_rejected(self):
        with pytest.raises(InvalidParameterError):
            hyp2f1_polynomial(3, 1.0, -2.0, 0.5)
        # c = -n is safe: the series never divides by zero
        assert math.isfinite(hyp2f1_polynomial(3, 1.0, -3.0, 0.5))

    def test_vectorized(self):
        zs = np.linspace(0, 0.9, 5)
        vals = hyp2f1_polynomial(1, 2.0, 4.0, zs)
        assert vals == pytest.approx(1 - 0.5 * zs, rel=1e-14)


class TestBoundSpinor:
    def test_cosh_massless_at_origin(self):
        p1, p2 = bound_spinor("cosh_square", 1, dict(alpha=1, v0=1, m0=0), 0.0)
        assert p1.real == pytest.approx(math.sqrt(0.5), rel=1e-8)
        assert abs(p2) <= 1e-12

    def test_rational_decays(self):
        p1, p2 = bound_spinor("rational", 1, dict(alpha=1, v0=1, m0=0),
                              np.array([-1e4, 1e4]))
        assert np.max(np.abs(p1)) < 1e-3
        assert np.max(np.abs(p2)) < 1e-3

    def test_linear_singular_at_one(self):
        params = dict(A=1.0, v0=1.0)
        with pytest.warns(AsPublishedWarning):
            p1, p2 = bound_spinor("linear_singular", 0, params, 1.0,
                                  normalized=False)
        e0 = spectrum_value("linear_singular", 0, params)[0]
        # ln(1) = 0 kills the Gaussian and H_0 = 1: bare psi1 = sqrt(E0 + A v0)
        assert p1.real == pytest.approx(math.sqrt(e0 + 1.0), rel=1e-12)

    def test_poschl_teller_normalized_state(self):
        params = dict(alpha=1.0, v0=1.0, m0=1.0)
        xs = np.linspace(0.05, math.pi - 0.05, 901)
        p1, p2 = bound_spinor("poschl_teller", 0, params, xs)
        rho = np.abs(p1) ** 2 + np.abs(p2) ** 2
        total = np.trapezoid(rho, xs)
        assert total == pytest.approx(1.0, abs=5e-3)  # tails outside window

    def test_phases(self):
        xs = np.linspace(-3, 3, 101)
        p1, p2 = bound_spinor("cosh_square", 2, dict(alpha=1, v0=1, m0=1), xs)
        assert np.max(np.abs(p1.imag)) == 0.0
        assert np.max(np.abs(p2.real)) == 0.0


class TestNormalizationConstants:
    def test_cosh_massless_printed(self):
        params = dict(alpha=1.0, v0=1.0, m0=0.0)
        n_printed, provenance = published_normalization("cosh_square", 1, params)
        assert provenance == "verified"
        assert n_printed == pytest.approx(math.sqrt(1 / math.pi), rel=1e-14)
        assert numeric_normalization("cosh_square", 1, params) == pytest.approx(
            n_printed, rel=1e-8)

    def test_cosh_massive_printed_is_as_published(self):
        params = dict(alpha=1.0, v0=1.0, m0=1.0)
        n_printed, provenance = published_normalization("cosh_square", 2, params)
        assert provenance == "as_published"
        n_numeric = numeric_normalization("cosh_square", 2, params)
        # the printed closed form disagrees with direct quadrature
        assert abs(n_printed - n_numeric) / n_numeric > 1e-3

    def test_rational_printed_verified(self):
        for n in (1, 2, 3):
            for m0 in (0.0, 0.7, 1.5):
                params = dict(alpha=1.2, v0=0.8, m0=m0)
                n_printed, provenance = published_normalization("rational", n,
                                                                params)
                assert provenance == "verified"
                assert numeric_normalization("rational", n, params) == \
                    pytest.approx(n_printed, rel=1e-6)

    def test_rational_massless_value(self):
        params = dict(alpha=1.0, v0=1.0, m0=0.0)
        n_printed, _ = published_normalization("rational", 1, params)
        assert n_printed == pytest.approx(0.5641895835477563, rel=1e-14)


class TestByName:
    def test_missing_closed_form_names_the_model(self):
        with pytest.raises(InvalidParameterError,
                           match="no closed-form wavefunction for model 'constant_rest'"):
            bound_spinor("constant_rest", 0, dict(m0=1.0, c=1.0), 0.0)
        with pytest.raises(InvalidParameterError, match="no closed-form printed normalization "
                                                        "for model 'poschl_teller'"):
            published_normalization("poschl_teller", 0, dict(alpha=1.0, v0=1.0, m0=1.0))

    def test_parameters_pass_the_builder_check(self):
        with pytest.raises(InvalidParameterError, match="linear_singular: unknown parameter 'm0'"):
            spectrum_entry("linear_singular", 0, dict(A=1.0, v0=1.0, m0=1.0))
        with pytest.raises(InvalidParameterError, match="rational: parameter 'alpha' must be > 0"):
            published_normalization("rational", 1, dict(alpha=0.0, v0=1.0, m0=1.0))


# float.hex of the closed forms as first recorded; a reordered operation shows here
# long before it reaches a rel=1e-14 comparison
FROZEN_PARAMS = {
    "cosh_square": dict(alpha=1.37, v0=0.73, m0=0.91),
    "rational": dict(alpha=0.83, v0=1.47, m0=0.61),
    "poschl_teller": dict(alpha=1.07, v0=1.23, m0=1.13),
    "linear_singular": dict(A=1.53, v0=0.81),
    "constant_rest": dict(m0=1.31, c=0.93),
}
FROZEN_LEVELS = {  # (model, variant): E_plus of the first five levels from facts.first_level
    ("cosh_square", "verified"): ["0x1.a4e3a685e8e62p+0", "0x1.96ed18acad658p+1",
                                  "0x1.2f373232e5961p+2", "0x1.935c20107d0fcp+2",
                                  "0x1.f7a988394914dp+2"],
    ("rational", "verified"): ["0x1.cbd0986ae2e5cp+0", "0x1.6300cf942a1a9p+1",
                               "0x1.f1f90d259518fp+1", "0x1.4389a6a23a8c4p+2",
                               "0x1.8f712f71e5fd9p+2"],
    ("poschl_teller", "verified"): ["0x1.2deac5d30994ep+1", "0x1.d551ccd2040ccp+1",
                                    "0x1.3ea3d72e15f9ep+2", "0x1.92b9889c2c8e0p+2",
                                    "0x1.e6dc1e6fa158ap+2"],
    ("poschl_teller", "as_published"): ["0x1.1ea03353a3567p+1", "0x1.36ee9cca92762p+2",
                                        "0x1.df24573b72e78p+2", "0x1.43bdbc98207a4p+3",
                                        "0x1.97efaac9a2f3ep+3"],
    ("poschl_teller", "exact"): ["0x1.2f0e66cb10342p+1", "0x1.d7845dc832336p+1",
                                 "0x1.3ffd2a62aa194p+2", "0x1.943825e13b18ep+2",
                                 "0x1.e873215fcc188p+2"],
    ("linear_singular", "as_published"): ["0x1.c1e3d4fd312b6p-1", "0x1.8c742371be8d1p+0",
                                          "0x1.00c88a2acf1fdp+1", "0x1.3045a8225292fp+1",
                                          "0x1.594a4ac79ff3ep+1"],
    ("constant_rest", "verified"): ["0x1.220d887ebf22dp+0"],
}
FROZEN_NORMS = {  # (model, m0, n): printed normalization and its provenance
    ("cosh_square", 0.0, 1): ("0x1.20dd750429b6dp-1", "verified"),
    ("cosh_square", 0.0, 3): ("0x1.4d8d7a58fa311p-2", "verified"),
    ("cosh_square", 0.91, 1): ("0x1.1d59a3bbb9157p-1", "as_published"),
    ("cosh_square", 0.91, 3): ("0x1.591688ceb5ad8p-2", "as_published"),
    ("rational", 0.0, 1): ("0x1.20dd750429b6dp-1", "verified"),
    ("rational", 0.0, 3): ("0x1.4d8d7a58fa312p-2", "verified"),
    ("rational", 0.61, 1): ("0x1.dc287d30167bbp-2", "verified"),
    ("rational", 0.61, 3): ("0x1.4389a62ef9675p-2", "verified"),
}
RANDOM_RANGES = {  # (low, high) per parameter; every draw keeps each ladder and s real
    "cosh_square": dict(alpha=(0.5, 2.0), v0=(0.5, 2.0), m0=(0.3, 2.0)),
    "rational": dict(alpha=(0.5, 2.0), v0=(0.5, 2.0), m0=(0.3, 2.0)),
    "poschl_teller": dict(alpha=(0.5, 1.5), v0=(0.8, 1.5), m0=(1.0, 2.0)),
    "linear_singular": dict(A=(0.5, 2.0), v0=(0.5, 2.0)),
    "constant_rest": dict(m0=(0.5, 2.0), c=(0.5, 2.0)),
}
FROZEN_DIGESTS = {  # sha256 of the float.hex of every level and printed norm at random_params
    "constant_rest": "c4fa27eb3e2f816634d9ea36a97c8749074af0f0d9d8d65739b319a359343cd2",
    "cosh_square": "bc5f6329851d38c9ad71d06a36d538958bebb1b3d0be9ed2726920c922d3f4bf",
    "linear_singular": "829bcf25c33e3e6ccccaecc48da4dd4ffc3429a72b626fb0e001574617c7ef9d",
    "poschl_teller": "121f1da55b380adae043d483e98b688ce1aa531202e830336c3fcd4c5af79128",
    "rational": "2e6b1dc1200a73c53ed50f39fbb0be3c519b4038fbd2ba019b3f8de83afe8b35",
}


def random_params(model, draws=20):
    """Seeded parameter draws; ``random.Random`` keeps its stream across Python versions."""
    rng = random.Random(sorted(RANDOM_RANGES).index(model))
    return [{k: rng.uniform(lo, hi) for k, (lo, hi) in RANDOM_RANGES[model].items()}
            for _ in range(draws)]


def first_spinor(model, n, p, x):
    """(psi1, psi2) of the unnormalized spinor as first written, operation for operation.

    The spinors go through numpy's sin, cosh, exp, ..., whose last bit depends on the CPU
    (AVX-512 or not), so they are checked against these formulas on the running machine,
    not against recorded bits.
    """
    if model in ("cosh_square", "rational"):
        a, v0, m0 = p["alpha"], p["v0"], p["m0"]
        lam = n * math.pi * a * v0 / 2.0 if model == "cosh_square" else n * a * v0
        e = math.hypot(lam, m0 * v0 * v0)
        z1, z2 = e - m0 * v0 * v0, e + m0 * v0 * v0
        if model == "cosh_square":
            theta = 0.5 * n * math.pi * (np.tanh(a * x) + 1.0)
            env = 1.0 / np.cosh(a * x)
        else:
            theta = n * (np.arctan(a * x) + math.pi / 2.0)
            env = 1.0 / np.sqrt(1.0 + (a * x) ** 2)
        return (np.sqrt(z2 / v0) * env * np.sin(theta) + 0j,
                -1j * np.sqrt(z1 / v0) * env * np.cos(theta))
    if model == "poschl_teller":  # the published family's state n is level 2n
        a, v0, m0 = p["alpha"], p["v0"], p["m0"]
        s = 0.5 + math.sqrt((m0 * v0 / a) ** 2 - 1.0 / 16.0)
        e = (a * v0 / 4.0) * math.sqrt(1.0 + 16.0 * (s + 2 * n) ** 2)

        def tilde(t):
            z2 = e + m0 * v0 * v0 / np.sin(a * t)
            return (np.sqrt(z2) * np.sin(a * t) ** s
                    * hyp2f1_polynomial(n, s + n, s + 0.5, np.sin(a * t) ** 2))

        hi = math.pi / a
        h = np.minimum(1e-6 * hi, np.minimum(x, hi - x) / 3.0)
        dpt = (tilde(x + h) - tilde(x - h)) / (2.0 * h)
        z2 = e + m0 * v0 * v0 / np.sin(a * x)
        return tilde(x) / math.sqrt(v0) + 0j, -1j * (v0 * dpt) / (z2 * math.sqrt(v0))
    big_a, v0 = p["A"], p["v0"]  # linear_singular
    e = math.sqrt(big_a * v0 ** 3 * (2 * n + 1) - v0 * v0 / 16.0)

    def tilde(t):
        z2 = e + big_a * v0 * v0 * t
        return (np.sqrt(z2) * np.exp(-0.5 * big_a * v0 * np.log(t) ** 2)
                * hermite(n, np.sqrt(big_a * v0) * np.log(t)))

    vf, h = v0 * x, 1e-7 * x
    dpt = (tilde(x + h) - tilde(x - h)) / (2.0 * h)
    z2 = e + big_a * v0 * v0 * x
    return tilde(x) / np.sqrt(vf) + 0j, -1j * (vf * dpt) / (z2 * np.sqrt(vf))


class TestFrozenClosedForms:
    """Bit-for-bit: a reordered operation shows here long before a rel=1e-14 comparison."""

    @pytest.mark.parametrize("model, variant", sorted(FROZEN_LEVELS))
    def test_levels(self, model, variant):
        first = 1 if model in ("cosh_square", "rational") else 0
        flags = dict(as_published=variant == "as_published" and model == "poschl_teller",
                     exact=variant == "exact")
        for k, frozen in enumerate(FROZEN_LEVELS[model, variant]):
            entry = spectrum_entry(model, first + k, FROZEN_PARAMS[model], **flags)
            assert entry.e_plus.hex() == frozen
            assert entry.e_minus == -entry.e_plus
            assert entry.provenance == variant.replace("exact", "verified")

    @pytest.mark.parametrize("model, m0, n", sorted(FROZEN_NORMS))
    def test_printed_norms(self, model, m0, n):
        value, provenance = published_normalization(
            model, n, dict(FROZEN_PARAMS[model], m0=m0))
        assert (value.hex(), provenance) == FROZEN_NORMS[model, m0, n]

    @pytest.mark.parametrize("model", sorted(RANDOM_RANGES))
    def test_levels_and_norms_at_random_parameters(self, model):
        first = 1 if model in ("cosh_square", "rational") else 0
        flags = ([{}, dict(as_published=True), dict(exact=True)] if model == "poschl_teller"
                 else [{}])
        bits = []
        for params in random_params(model):
            for kw in flags:
                for n in range(first, 1 if model == "constant_rest" else first + 5):
                    bits.append(spectrum_entry(model, n, params, **kw).e_plus.hex())
            if model in ("cosh_square", "rational"):
                for m0 in (0.0, params["m0"]):
                    bits += [published_normalization(model, n, dict(params, m0=m0))[0].hex()
                             for n in (1, 2, 3)]
        assert hashlib.sha256(" ".join(bits).encode()).hexdigest() == FROZEN_DIGESTS[model]

    @pytest.mark.parametrize("model", ["cosh_square", "linear_singular", "poschl_teller",
                                       "rational"])
    def test_unnormalized_spinors(self, model):
        first = 1 if model in ("cosh_square", "rational") else 0
        for params in [FROZEN_PARAMS[model], *random_params(model, draws=10)]:
            lo, hi = builtin_model(model, **params).domain
            lo, hi = max(lo, -2.0), min(hi, 4.0)
            xs = lo + (hi - lo) * np.array([0.1, 0.45, 0.9])
            for n in (first, first + 1, first + 2):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", AsPublishedWarning)
                    p1, p2 = bound_spinor(model, n, params, xs, normalized=False)
                q1, q2 = first_spinor(model, n, params, xs)
                assert np.all(p1.imag == 0) and np.all(p2.real == 0)
                assert [v.hex() for v in p1.real] == [v.hex() for v in q1.real]
                assert [v.hex() for v in p2.imag] == [v.hex() for v in q2.imag]
