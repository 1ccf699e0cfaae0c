import math

import numpy as np
import pytest

from diracpd import build_transform, builtin_model, transform
from diracpd.errors import DomainError, InvalidParameterError, QuadratureFailureError
from diracpd.profiles import VelocityProfile

TANH_1 = 0.7615941559557649


def _model_and_map(name, x0=None, **kwargs):
    model = builtin_model(name, **kwargs)
    anchor = model.anchor if x0 is None else x0
    return model, build_transform(model.velocity, anchor)


class TestForward:
    def test_cosh_square_closed_form(self):
        _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=0)
        assert tmap.forward(1.0) == pytest.approx(TANH_1, abs=1e-12)
        assert tmap.q_hi == pytest.approx(1.0, abs=1e-10)
        assert tmap.q_lo == pytest.approx(-1.0, abs=1e-10)
        assert math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi)

    def test_rational_closed_form(self):
        _, tmap = _model_and_map("rational", alpha=1, v0=1, m0=0)
        assert tmap.forward(1.0) == pytest.approx(math.pi / 4, abs=1e-12)
        assert tmap.q_hi == pytest.approx(math.pi / 2, abs=1e-10)
        assert math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi)

    def test_constant_velocity(self):
        prof = VelocityProfile.from_callable(
            lambda x: 2.0 + 0.0 * np.asarray(x, dtype=float),
            deriv1=lambda x: 0.0 * np.asarray(x, dtype=float))
        tmap = build_transform(prof, 0.0)
        assert tmap.forward(3.0) == pytest.approx(1.5, abs=1e-12)
        assert tmap.q_lo == -math.inf and tmap.q_hi == math.inf

    def test_linear_singular_log_map(self):
        _, tmap = _model_and_map("linear_singular", A=1, v0=1)  # anchored at x0=1
        assert tmap.forward(math.e) == pytest.approx(1.0, abs=1e-12)
        assert tmap.q_lo == -math.inf and tmap.q_hi == math.inf

    def test_array_forward(self):
        _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=0)
        xs = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
        assert tmap.forward(xs) == pytest.approx(np.tanh(xs), abs=1e-12)

    @pytest.mark.parametrize("alpha,v0", [(1, 1), (0.5, 2), (2, 0.7)])
    def test_cosh_width(self, alpha, v0):
        _, tmap = _model_and_map("cosh_square", alpha=alpha, v0=v0, m0=0)
        assert tmap.q_hi - tmap.q_lo == pytest.approx(2.0 / (alpha * v0), abs=1e-10)

    @pytest.mark.parametrize("alpha,v0", [(1, 1), (1.4, 0.6)])
    def test_rational_width(self, alpha, v0):
        _, tmap = _model_and_map("rational", alpha=alpha, v0=v0, m0=0.3)
        assert tmap.q_hi - tmap.q_lo == pytest.approx(math.pi / (alpha * v0),
                                                      abs=1e-10)


class TestInverse:
    def test_cosh_inverse(self):
        _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=0)
        assert tmap.inverse(TANH_1) == pytest.approx(1.0, abs=1e-10)

    def test_anchor_maps_to_zero(self):
        for name, kwargs in [("cosh_square", dict(alpha=1, v0=1, m0=1)),
                             ("rational", dict(alpha=1, v0=1, m0=0)),
                             ("linear_singular", dict(A=1, v0=1))]:
            model, tmap = _model_and_map(name, **kwargs)
            assert tmap.inverse(0.0) == pytest.approx(model.anchor, abs=1e-12)

    def test_rational_inverse(self):
        _, tmap = _model_and_map("rational", alpha=1, v0=1, m0=0)
        assert tmap.inverse(math.pi / 4) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range(self):
        _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=0)
        with pytest.raises(DomainError):
            tmap.inverse(1.5)
        with pytest.raises(DomainError):
            tmap.inverse(-1.0000001)

    def test_inverse_contract(self):
        # |forward(inverse(q)) - q| <= 1e-12 max(1, |q|)
        _, tmap = _model_and_map("rational", alpha=1.3, v0=0.7, m0=0.2)
        qs = np.linspace(tmap.q_lo + 1e-4, tmap.q_hi - 1e-4, 37)
        for q in qs:
            x = tmap.inverse(q)
            assert abs(tmap.forward(x) - q) <= 1e-12 * max(1.0, abs(q))


ROUNDTRIP_CASES = [
    ("cosh_square", dict(alpha=1, v0=1, m0=1), (-4.0, 4.0)),
    ("cosh_square", dict(alpha=0.5, v0=2, m0=0), (-8.0, 8.0)),
    ("rational", dict(alpha=1, v0=1, m0=1), (-50.0, 50.0)),
    ("poschl_teller", dict(alpha=1, v0=1, m0=1), (0.05, math.pi - 0.05)),
    ("linear_singular", dict(A=1, v0=1), (0.01, 100.0)),
    ("constant_rest", dict(m0=1, c=2), (-20.0, 20.0)),
]


class TestRoundTrip:
    @pytest.mark.parametrize("name,kwargs,window", ROUNDTRIP_CASES)
    def test_roundtrip(self, name, kwargs, window):
        _, tmap = _model_and_map(name, **kwargs)
        xs = np.linspace(window[0], window[1], 1000)
        worst = 0.0
        for x in xs:
            q = tmap.forward(float(x))
            back = tmap.inverse(q)
            worst = max(worst, abs(back - x) / max(1.0, abs(x)))
        assert worst <= 1e-9

    def test_monotonicity_random_pairs(self):
        rng = np.random.default_rng(7)
        for name, kwargs, window in ROUNDTRIP_CASES[:4]:
            _, tmap = _model_and_map(name, **kwargs)
            pairs = rng.uniform(window[0], window[1], size=(50, 2))
            for x1, x2 in pairs:
                if x1 == x2:
                    continue
                lo, hi = sorted((x1, x2))
                assert tmap.forward(lo) < tmap.forward(hi)


class TestInverseGrid:
    @pytest.mark.parametrize("name,kwargs,exact", [
        ("cosh_square", dict(alpha=1, v0=1, m0=1), np.tanh),
        ("rational", dict(alpha=1, v0=1, m0=0), np.arctan),
    ])
    def test_against_closed_form(self, name, kwargs, exact):
        _, tmap = _model_and_map(name, **kwargs)
        qs = np.linspace(tmap.q_lo + 1e-5, tmap.q_hi - 1e-5, 4001)
        xs = tmap.inverse_grid(qs)
        assert np.max(np.abs(exact(xs) - qs)) <= 1e-11

    def test_grid_longer_than_a_block(self):
        # Newton runs block by block; across the block edges x meets the
        # closed form and stays increasing
        _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=1)
        qs = np.linspace(tmap.q_lo + 1e-5, tmap.q_hi - 1e-5, 3 * transform._BLOCK + 7)
        xs = tmap.inverse_grid(qs)
        assert np.max(np.abs(np.tanh(xs) - qs)) <= 1e-11
        assert np.all(np.diff(xs) > 0)

    def test_linear_singular_wide(self):
        _, tmap = _model_and_map("linear_singular", A=1, v0=1)
        qs = np.linspace(-12.0, 12.0, 2001)
        xs = tmap.inverse_grid(qs)
        assert np.max(np.abs(np.log(xs) - qs)) <= 1e-11

    def test_matches_scalar_inverse(self):
        # the contract is on the q residual; compare there, where the map
        # can be arbitrarily flat in x near the walls
        _, tmap = _model_and_map("cosh_square", alpha=0.9, v0=1.1, m0=0.3)
        qs = np.linspace(tmap.q_lo + 1e-6, tmap.q_hi - 1e-6, 513)
        xs = tmap.inverse_grid(qs)
        for i in (0, 100, 256, 400, 512):
            assert tmap.forward(float(xs[i])) == pytest.approx(qs[i], abs=1e-11)
            x_scalar = tmap.inverse(qs[i])
            v_local = float(tmap.velocity(x_scalar))
            assert xs[i] == pytest.approx(x_scalar, abs=1e-11 * max(1.0, v_local))

    def test_spot_check_miss_raises_and_caches_nothing(self, monkeypatch):
        _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=1)
        qs = np.linspace(-0.9, 0.9, 41)
        true_forward = tmap.forward
        monkeypatch.setattr(tmap, "forward", lambda x: true_forward(x) + 1e-6)
        with pytest.raises(QuadratureFailureError, match="residual 1.000e-06"):
            tmap.inverse_grid(qs)
        monkeypatch.setattr(tmap, "forward", true_forward)
        xs = tmap.inverse_grid(qs)
        assert np.max(np.abs(np.tanh(xs) - qs)) <= 1e-11

    def test_scalar_is_size_one_grid(self):
        _, tmap = _model_and_map("rational", alpha=1.3, v0=0.7, m0=0.2)
        for q in (tmap.q_lo + 1e-4, -0.37, 0.0, 1.1, tmap.q_hi - 1e-4):
            assert tmap.inverse(q) == tmap.inverse_grid(np.array([q]))[0]

    def test_oscillating_velocity_splits_panels(self):
        prof = VelocityProfile.from_callable(
            lambda x: 1.0 + 0.5 * np.sin(3.0 * np.asarray(x, dtype=float)),
            deriv1=lambda x: 1.5 * np.cos(3.0 * np.asarray(x, dtype=float)),
            domain=(-10.0, 10.0))
        tmap = build_transform(prof, 0.0)
        assert tmap.table_x.size > tmap.anchors_x.size
        assert np.all(np.isin(tmap.anchors_x, tmap.table_x))
        qs = np.linspace(tmap.q_lo + 1e-6, tmap.q_hi - 1e-6, 4001)
        xs = tmap.inverse_grid(qs)
        assert np.max(np.abs(tmap.forward(xs) - qs)) <= 1e-12

    def test_past_the_ladder_raises(self):
        # inside (q_lo, q_hi) but beyond the last ladder anchor, ~1e-12 from q_hi
        _, tmap = _model_and_map("poschl_teller", alpha=1, v0=1, m0=1)
        with pytest.raises(DomainError, match="past the anchor ladder"):
            tmap.inverse(tmap.q_hi - 1e-14)

    def test_caching_returns_same(self):
        _, tmap = _model_and_map("rational", alpha=1, v0=1, m0=0)
        qs = np.linspace(-1.0, 1.0, 101)
        a = tmap.inverse_grid(qs)
        b = tmap.inverse_grid(qs)
        assert np.array_equal(a, b)


class TestBuildValidation:
    def test_anchor_outside_domain(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        with pytest.raises(DomainError):
            build_transform(model.velocity, -0.5)

    def test_bad_quad_tol(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        with pytest.raises(InvalidParameterError):
            build_transform(model.velocity, 0.0, quad_tol=0.0)
