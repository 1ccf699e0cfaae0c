import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from diracpd import QGrid, build_transform, builtin_model, transform
from diracpd.errors import DomainError, InvalidParameterError, QuadratureFailureError
from diracpd.profiles import VelocityProfile

TANH_1 = 0.7615941559557649


def _numeric(velocity):
    """The same velocity through from_callable: no closed form, so the numeric map."""
    return VelocityProfile.from_callable(velocity.func, velocity.dfunc, velocity.d2func,
                                         domain=velocity.domain)


def _oscillating():
    return VelocityProfile.from_callable(
        lambda x: 1.0 + 0.5 * np.sin(3.0 * np.asarray(x, dtype=float)),
        deriv1=lambda x: 1.5 * np.cos(3.0 * np.asarray(x, dtype=float)),
        domain=(-10.0, 10.0))


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
        # Newton (the numeric map) runs block by block; across the block
        # edges x meets the closed form and stays increasing
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(_numeric(model.velocity), model.anchor)
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

    def test_spot_nodes_are_np_unique_picks(self):
        for size in range(1, 65):
            want = np.unique(np.linspace(0, size - 1, 7).astype(int))
            got = transform._spot_nodes(size)
            assert got.dtype == want.dtype and np.array_equal(got, want), size

    def test_scalar_is_size_one_grid(self):
        _, tmap = _model_and_map("rational", alpha=1.3, v0=0.7, m0=0.2)
        for q in (tmap.q_lo + 1e-4, -0.37, 0.0, 1.1, tmap.q_hi - 1e-4):
            assert tmap.inverse(q) == tmap.inverse_grid(np.array([q]))[0]

    def test_oscillating_velocity_splits_panels(self):
        tmap = build_transform(_oscillating(), 0.0)
        assert tmap.table_x.size > tmap.anchors_x.size
        assert np.all(np.isin(tmap.anchors_x, tmap.table_x))
        qs = np.linspace(tmap.q_lo + 1e-6, tmap.q_hi - 1e-6, 4001)
        xs = tmap.inverse_grid(qs)
        assert np.max(np.abs(tmap.forward(xs) - qs)) <= 1e-12

    def test_past_the_ladder_raises(self):
        # inside (q_lo, q_hi) but beyond the last ladder anchor, ~1e-12 from
        # q_hi; only the numeric map has a ladder, so the velocity is a
        # from_callable copy of poschl_teller's
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        tmap = build_transform(_numeric(model.velocity), model.anchor)
        with pytest.raises(DomainError, match="past the anchor ladder"):
            tmap.inverse(tmap.q_hi - 1e-14)

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_nan_q_raises_and_caches_nothing(self, closed_form):
        # a NaN inside the grid passes the sorted and range checks (every
        # comparison with NaN is False), so finiteness is checked first
        if closed_form:
            _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=1)
        else:
            tmap = build_transform(_oscillating(), 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="q must be finite"):
                tmap.inverse_grid(np.array([-0.5, bad, 0.5]))
            with pytest.raises(DomainError, match="q must be finite"):
                tmap.inverse(bad)
        with pytest.raises(DomainError, match="strictly inside"):
            tmap.forward(np.array([0.1, math.nan]))
        assert tmap._grid_cache == {}

    def test_nan_spot_check_residual_raises(self, monkeypatch):
        _, tmap = _model_and_map("cosh_square", alpha=1, v0=1, m0=1)
        monkeypatch.setattr(tmap, "forward", lambda x: np.full(np.shape(x), np.nan))
        with pytest.raises(QuadratureFailureError, match="residual nan"):
            tmap.inverse_grid(np.linspace(-0.9, 0.9, 41))
        assert tmap._grid_cache == {}

    def test_caching_returns_same(self):
        _, tmap = _model_and_map("rational", alpha=1, v0=1, m0=0)
        qs = np.linspace(-1.0, 1.0, 101)
        a = tmap.inverse_grid(qs)
        b = tmap.inverse_grid(qs)
        assert np.array_equal(a, b)


class TestInverseGrids:
    """Several grids in one call: each inverted and cached on its own, the seven
    spot nodes of each checked against its own tolerance in one forward call."""

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_each_grid_cached_on_its_own(self, monkeypatch, closed_form):
        model = builtin_model("cosh_square", alpha=1.2, v0=0.7, m0=1.1)
        velocity = model.velocity if closed_form else _numeric(model.velocity)
        tmap = build_transform(velocity, model.anchor)
        qs = [np.linspace(-1.1, 1.1, 41), np.array([-0.3, 0.0, 0.2]), np.linspace(-0.5, 1.0, 400)]
        calls = []
        real = tmap.forward
        monkeypatch.setattr(tmap, "forward", lambda x: calls.append(np.size(x)) or real(x))
        xs = tmap.inverse_grids(qs)
        assert calls == [7 + 3 + 7]
        assert not any(x.flags.writeable for x in xs)
        fresh = build_transform(velocity, model.anchor)
        for q, x in zip(qs, xs):
            assert x.tobytes() == fresh.inverse_grid(q).tobytes()
        monkeypatch.setattr(type(tmap), "_solve", lambda self, q: pytest.fail("not cached"))
        for q, x in zip(qs, xs):
            got = tmap.inverse_grid(q)
            assert got.tobytes() == x.tobytes() and got.flags.writeable
        # warm: the cache's own arrays, with no spot check
        assert all(a is b for a, b in zip(tmap.inverse_grids(qs[::-1])[::-1], xs))
        assert calls == [17]

    def test_each_grid_keeps_its_own_tolerance(self, monkeypatch):
        # q up to 20 and up to 0.9: tolerances 2e-9 and 1e-10; a miss of 1e-9 on
        # every spot node fails only the second grid, and nothing is cached
        _, tmap = _model_and_map("linear_singular", A=1.0, v0=1.0)
        true_forward = tmap.forward
        monkeypatch.setattr(tmap, "forward", lambda x: true_forward(x) + 1e-9)
        wide = np.linspace(1.0, 20.0, 41)
        with pytest.raises(QuadratureFailureError, match=r"^inverse: spot-check residual "
                           r"1\.000e-09 > 1\.000e-10 against adaptive quadrature$"):
            tmap.inverse_grids([wide, np.linspace(-0.9, 0.9, 41)])
        assert tmap._grid_cache == {}
        tmap.inverse_grids([wide])
        assert list(tmap._grid_cache) == [(1.0, 20.0, 41)]

    def test_wrong_closed_form_raises_todays_error(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        true_x = model.velocity.x_of_q
        wrong = dataclasses.replace(model.velocity, x_of_q=lambda q: true_x(q) + 1e-6)
        tmap = build_transform(wrong, model.anchor)
        with pytest.raises(QuadratureFailureError, match=r"^inverse: spot-check residual "
                           r"\d\.\d{3}e-0[67] > 1\.000e-10 against adaptive quadrature$"):
            tmap.inverse_grids([np.linspace(-0.5, 0.5, 9), np.linspace(-0.9, 0.9, 41)])
        assert tmap._grid_cache == {}


CLOSED_FORM_CASES = [  # (name, params, an anchor other than model.anchor)
    ("cosh_square", dict(alpha=1.2, v0=0.7, m0=1.1), 0.4),
    ("rational", dict(alpha=0.8, v0=1.5, m0=0.6), -2.0),
    ("poschl_teller", dict(alpha=1.43, v0=1.9, m0=2.63), 0.5),
    ("linear_singular", dict(A=0.7, v0=1.3), 3.0),
    ("constant_rest", dict(m0=0.3, c=2.5), -1.0),
]


class TestClosedForm:
    @pytest.mark.parametrize("name,params,other", CLOSED_FORM_CASES)
    def test_matches_numeric_map(self, name, params, other):
        model = builtin_model(name, **params)
        for x0 in (model.anchor, other):
            closed = build_transform(model.velocity, x0)
            numeric = build_transform(_numeric(model.velocity), x0)
            assert closed.table_x is None and numeric.table_x is not None
            for a, b in ((closed.q_lo, numeric.q_lo), (closed.q_hi, numeric.q_hi)):
                assert a == b if math.isinf(b) else abs(a - b) <= 1e-12 * max(1.0, abs(b))
            lo = closed.q_lo if math.isfinite(closed.q_lo) else -8.0
            hi = closed.q_hi if math.isfinite(closed.q_hi) else 8.0
            qs = lo + (np.arange(2000) + 0.5) * (hi - lo) / 2000
            xc, xn = closed.inverse_grid(qs), numeric.inverse_grid(qs)
            assert np.max(np.abs(xc - xn) / np.maximum(1.0, np.abs(xn))) <= 1e-11

    def test_wrong_closed_form_raises_and_caches_nothing(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        true_x = model.velocity.x_of_q
        wrong = dataclasses.replace(model.velocity, x_of_q=lambda q: true_x(q) + 1e-6)
        tmap = build_transform(wrong, model.anchor)
        with pytest.raises(QuadratureFailureError, match="spot-check residual"):
            tmap.inverse_grid(np.linspace(-0.9, 0.9, 41))
        assert tmap._grid_cache == {}

    def test_half_a_closed_form_refused(self):
        model = builtin_model("constant_rest", m0=1, c=2)
        with pytest.raises(InvalidParameterError, match="come as a pair"):
            dataclasses.replace(model.velocity, q_of_x=None)

    def test_q_that_rounds_onto_the_wall_raises(self):
        # the last double below q_hi: x0 + v0 q rounds to pi / alpha
        _, tmap = _model_and_map("poschl_teller", alpha=1, v0=1, m0=1)
        with pytest.raises(DomainError, match="reaches a wall"):
            tmap.inverse(np.nextafter(tmap.q_hi, 0.0))

    def test_anchor_at_float_wall_takes_numeric_map(self):
        # tanh(40) == 1.0: the closed form cannot tell x0 = 40 from the wall
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 40.0)
        assert tmap.q_shift is None and 0.0 < tmap.q_hi < 1e-30


def _spot_segments(tmap, q):
    """The segments ``forward`` integrates for the spot check of grid q on a
    closed-form map: outward from x0, each picked node from the one before."""
    pick = np.unique(np.linspace(0, q.size - 1, 7).astype(int))
    x = tmap.velocity.x_of_q(q[pick] + tmap.q_shift)
    segments = []
    for side in (x[x < tmap.x0][::-1], x[x >= tmap.x0]):
        start = tmap.x0
        for end in side:
            segments.append((start, float(end)))
            start = float(end)
    return segments


def _quadpack(f, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


QUAD_CASES = [
    ("cosh_square", dict(alpha=1.2, v0=0.7, m0=1.1), None),
    ("rational", dict(alpha=0.8, v0=1.5, m0=0.6), None),  # x ~ 2.5e4 at both q-edges
    ("poschl_teller", dict(alpha=1.43, v0=1.9, m0=2.63), None),
    ("linear_singular", dict(A=0.7, v0=1.3), (-64.0, 64.0)),  # x from 1e-37 to 1e36
    ("linear_singular", dict(A=2.0, v0=2.0), (-64.0, 64.0)),  # x from 1e-56 to 1e56
    ("constant_rest", dict(m0=0.3, c=2.5), (-10.0, 10.0)),
]


class TestQuadrature:
    @pytest.mark.parametrize("name,params,box", QUAD_CASES)
    @pytest.mark.parametrize("refined", [True, False])
    def test_spot_check_segments_match_quadpack(self, name, params, box, refined):
        # the segments of the spot checks of an n = 32000 grid and of its refined
        # grid, both ways round: QUADPACK and the closed form agree with the GL-16 rule
        model, tmap = _model_and_map(name, **params)
        lo, hi = (tmap.q_lo, tmap.q_hi) if box is None else box
        f = tmap._f
        grid = QGrid(lo, hi, 32000)
        for a, b in _spot_segments(tmap, (grid.refined() if refined else grid).nodes):
            exact = float(model.velocity.q_of_x(b) - model.velocity.q_of_x(a))
            tol = 1e-13 * max(1.0, abs(exact))
            ours = transform._quad(f, a, b, 1e-12)
            assert abs(ours - _quadpack(f, a, b)) <= tol
            assert abs(ours - exact) <= tol
            assert abs(transform._quad(f, b, a, 1e-12) + ours) <= tol

    def test_oscillating_velocity_matches_quadpack(self):
        f = build_transform(_oscillating(), 0.0)._f
        for a, b in ((-9.5, 9.5), (0.0, 3.7), (2.0, -7.25), (-0.1, 0.1), (4.0, 4.0 + 1e-9)):
            ref = _quadpack(f, a, b)
            assert transform._quad(f, a, b, 1e-12) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_empty_segment_is_zero(self):
        # not even evaluated: a == b may sit on a wall where 1/v_F is infinite
        assert transform._quad(lambda x: 1.0 / x, 0.0, 0.0, 1e-12) == 0.0

    def test_forward_many_points_in_one_pass(self):
        # near and far points, both sides of x0, one repeated: every q meets
        # the closed form, and the repeat gets the same q
        model, tmap = _model_and_map("rational", alpha=0.8, v0=1.5, m0=0.6)
        xs = np.array([3.0, -2.0, 0.5, 1e4, -40.0, 0.5])
        q = tmap.forward(xs)
        assert q == pytest.approx(model.velocity.q_of_x(xs), abs=1e-13)
        assert q[2] == q[5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, bad):
        def f(x):
            return np.where(np.asarray(x) > 0.5, bad, 1.0)

        with pytest.raises(QuadratureFailureError, match=r"quadrature failed on \[0, 1\]"):
            transform._quad(f, 0.0, 1.0, 1e-12)

    def test_endless_splitting_raises(self):
        # 1600 periods on [0, 1]: the panels still unsettled outnumber the cap
        with pytest.raises(QuadratureFailureError,
                           match=r"quadrature failed on \[0, 1\]: more than 200 panels") as info:
            transform._quad(lambda x: np.sin(1e4 * x), 0.0, 1.0, 1e-12)
        assert math.isfinite(info.value.partial)

    def test_settling_in_the_last_round_returns(self, monkeypatch):
        # a segment whose panels all settle in the last round allowed is done
        monkeypatch.setattr(transform, "_QUAD_ROUNDS", 1)
        assert transform._quad(lambda x: x * x, 0.0, 1.0, 1e-12) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("why", ["panels unsettled", "not finite", "still splitting"])
    def test_failed_segment_ends_print_apart(self, monkeypatch, why):
        # v_F ~ d^0.9 at x = 2000 fails on a segment 1.5e-8 wide near that wall,
        # whose ends read 2000 both under :g; each message prints them apart
        a, b = 1999.9999701976776, 1999.9999850988388
        with pytest.raises(QuadratureFailureError, match=why) as info:
            if why == "panels unsettled":
                build_transform(VelocityProfile.from_callable(
                    lambda x: ((x - 1000.0) * (2000.0 - x) / 1000.0) ** 0.9,
                    domain=(1000.0, 2000.0), validate=False), 1500.0)
            elif why == "not finite":
                transform._quad(lambda x: np.full(np.shape(x), np.nan), a, b, 1e-12)
            else:
                monkeypatch.setattr(transform, "_QUAD_ROUNDS", 1)
                transform._quad(lambda x: np.sin(1e12 * x), a, b, 1e-12)
        ends = str(info.value).split("[", 1)[1].split("]", 1)[0].split(", ")
        assert ends == ["1999.99997", "1999.99999"]
        assert float(ends[0]) != float(ends[1])

    def test_import_does_not_load_quadpack(self):
        # nor does a closed form: only the first numeric_normalization call loads it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = """
import sys, diracpd, diracpd.cli
assert "scipy.integrate" not in sys.modules, "scipy.integrate loaded"
p = dict(alpha=1.0, v0=1.0, m0=1.0)
diracpd.spectrum_entry("poschl_teller", 0, p)
diracpd.bound_spinor("poschl_teller", 0, p, 1.0, normalized=False)
diracpd.published_normalization("rational", 1, p)
assert "scipy.integrate" not in sys.modules, "scipy.integrate loaded by a closed form"
diracpd.numeric_normalization("rational", 1, p)
assert "scipy.integrate" in sys.modules
"""
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_jobs_run_without_scipy_linalg(self, tmp_path):
        # in a fresh interpreter (this one has scipy.linalg from scipy.integrate):
        # LAPACK comes from scipy's extension alone, and neither the import nor a
        # constant-u, approximate, exact-with-wavefunctions or scan job loads
        # scipy.linalg's package or numpy.ma; a later import of scipy.linalg
        # binds the extension as its attribute and shares the functions the
        # package bound
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = f"""
import sys
import diracpd, diracpd.cli
from diracpd import cli, eigensolver
for name in ("scipy.linalg", "scipy.integrate"):
    assert name not in sys.modules, name + " loaded by the import"

def run(command, name, **keys):
    path = {str(tmp_path)!r} + "/" + name + ".txt"
    keys.update(grid__n=400, solve__k_states=3, out__dir={str(tmp_path)!r} + "/" + name)
    with open(path, "w") as fh:
        fh.writelines(f"{{key.replace('__', '.')}} = {{value}}\\n" for key, value in keys.items())
    assert cli.main([command, "--config", path]) == 0, name

pt = dict(model__name="poschl_teller", model__alpha=1.43, model__v0=1.9, model__m0=2.63)
run("solve", "constant_u", model__name="cosh_square", model__alpha=1.3, model__v0=0.8,
    model__m0=1.2)
run("solve", "approximate", mode="approximate", **pt)
run("solve", "exact", mode="exact", outputs="spectrum, potential, wavefunctions", **pt)
run("scan", "scan", scan__param="m0", scan__min=2.0, scan__max=3.0, scan__steps=3, **pt)
for name in ("scipy.linalg", "numpy.ma"):
    assert name not in sys.modules, name + " loaded by a job"

import numpy as np
import scipy.linalg
assert hasattr(scipy.linalg, "_flapack")
assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
assert scipy.linalg.lapack.dstebz is eigensolver._dstebz
assert scipy.linalg.lapack.dstein is eigensolver._dstein
w = scipy.linalg.eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0), eigvals_only=True)
assert np.allclose(w, 2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / 4))
"""
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestBuildValidation:
    def test_anchor_outside_domain(self):
        model = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        with pytest.raises(DomainError):
            build_transform(model.velocity, -0.5)
