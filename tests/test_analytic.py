import math

import numpy as np
import pytest

from diracpd import (
    bound_spinor,
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
