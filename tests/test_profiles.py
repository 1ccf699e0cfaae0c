import argparse
import dataclasses
import math

import numpy as np
import pytest

from diracpd import (ModelSpec, QGrid, approx_potential, build_transform, builtin_model,
                     detect_constant_u, interior_sample, product_u, spectrum_entry)
from diracpd.cli import build_run_config, run_solve_pipeline
from diracpd import potential, profiles
from diracpd.errors import ApproximationInvalidError, DomainError, InvalidParameterError
from diracpd.profiles import MassProfile, VelocityProfile

COSH4_1 = 0.1763784476141347  # 1/cosh^4(1), high-precision reference


def five_point_d1(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def five_point_d2(f, x, h):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def fd_window(name, kwargs):
    """Interior window with comfortable margins for stencil arms."""
    if name == "poschl_teller":
        a = kwargs["alpha"]
        return 0.1 / a, (math.pi - 0.1) / a
    return {
        "cosh_square": (-3.0, 3.0),
        "rational": (-10.0, 10.0),
        "linear_singular": (0.2, 10.0),
        "constant_rest": (-10.0, 10.0),
    }[name]

ALL_MODELS = [
    ("cosh_square", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("cosh_square", dict(alpha=0.7, v0=1.3, m0=0.4)),
    ("rational", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("rational", dict(alpha=1.4, v0=0.6, m0=2.0)),
    ("poschl_teller", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("poschl_teller", dict(alpha=1.3, v0=0.8, m0=1.1)),
    ("linear_singular", dict(A=1.0, v0=1.0)),
    ("linear_singular", dict(A=0.5, v0=1.7)),
    ("constant_rest", dict(m0=1.0, c=1.0)),
]


class TestBuiltins:
    def test_cosh_square_values(self):
        m = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        assert m.mass(0.0) == pytest.approx(1.0, abs=0)
        assert m.velocity(0.0) == pytest.approx(1.0, abs=0)
        assert m.mass(1.0) == pytest.approx(COSH4_1, rel=1e-14)
        assert m.velocity(1.0) == pytest.approx(np.cosh(1.0) ** 2, rel=1e-14)

    def test_rational_values(self):
        m = builtin_model("rational", alpha=1, v0=1, m0=0)
        assert m.velocity(1.0) == pytest.approx(2.0, abs=0)
        xs = np.linspace(-5, 5, 11)
        assert np.all(np.asarray(m.mass(xs)) == 0.0)

    def test_constant_rest_values(self):
        m = builtin_model("constant_rest", m0=1, c=1)
        xs = np.array([-3.0, 0.0, 7.5])
        assert np.all(np.asarray(m.mass(xs)) == 1.0)
        assert np.all(np.asarray(m.velocity(xs)) == 1.0)

    def test_poschl_teller_domain(self):
        m = builtin_model("poschl_teller", alpha=2.0, v0=1.0, m0=1.0)
        assert m.domain == (0.0, math.pi / 2.0)
        assert m.anchor == pytest.approx(math.pi / 4.0)

    def test_linear_singular_domain(self):
        m = builtin_model("linear_singular", A=1.0, v0=1.0)
        assert m.domain == (0.0, math.inf)

    @pytest.mark.parametrize("missing,kwargs", [
        ("v0", dict(alpha=1.0, m0=0.0)),
        ("alpha", dict(v0=1.0, m0=0.0)),
        ("m0", dict(alpha=1.0, v0=1.0)),
    ])
    def test_missing_parameter_named(self, missing, kwargs):
        with pytest.raises(InvalidParameterError, match=missing):
            builtin_model("cosh_square", **kwargs)

    def test_nonpositive_parameter_named(self):
        with pytest.raises(InvalidParameterError, match="alpha"):
            builtin_model("cosh_square", alpha=0.0, v0=1.0, m0=1.0)
        with pytest.raises(InvalidParameterError, match="m0"):
            builtin_model("rational", alpha=1.0, v0=1.0, m0=-0.5)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError, match="beta"):
            builtin_model("cosh_square", alpha=1.0, v0=1.0, m0=0.0, beta=2.0)

    def test_unknown_model(self):
        with pytest.raises(InvalidParameterError):
            builtin_model("nosuch", alpha=1.0)


@pytest.mark.parametrize("name,params", [
    ("cosh_square", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("rational", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("poschl_teller", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("linear_singular", dict(A=1.0, v0=1.0)),
    ("constant_rest", dict(m0=1.0, c=1.0)),
])
def test_facts_first_level_is_lowest_closed_form_index(name, params):
    first = builtin_model(name, **params).facts.first_level
    assert spectrum_entry(name, first, params).n == first
    with pytest.raises(InvalidParameterError):
        spectrum_entry(name, first - 1, params)


def test_facts_claims_follow_the_mass():
    assert builtin_model("cosh_square", alpha=1.0, v0=1.0, m0=0.0).facts.claims == ()
    assert builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=0.0).facts.claims == ()
    assert len(builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=0.5).facts.claims) == 1
    assert builtin_model("linear_singular", A=0.0, v0=1.0).facts.claims == ()
    assert len(builtin_model("linear_singular", A=0.5, v0=1.0).facts.claims) == 2
    (label, claimed), = builtin_model("rational", alpha=1.0, v0=2.0, m0=0.5).facts.claims
    assert label == "constant A^2"
    assert np.array_equal(claimed(np.array([-1.0, 0.0, 3.0])), np.full(3, 4.0))


class TestProductU:
    def test_cosh_square_exact_constant(self):
        m = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        u, u1, u2 = product_u(m, 0.5)
        assert u == 1.0
        assert u1 == 0.0 and u2 == 0.0

    def test_poschl_teller_at_center(self):
        m = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        u, u1, u2 = product_u(m, math.pi / 2)
        assert u == pytest.approx(1.0, rel=1e-14)
        assert u1 == pytest.approx(0.0, abs=1e-14)
        assert u2 == pytest.approx(1.0, rel=1e-14)

    def test_constant_rest_constants(self):
        m = builtin_model("constant_rest", m0=2, c=1)
        for x in (-4.0, 0.3, 11.0):
            u, u1, u2 = product_u(m, x)
            assert (u, u1, u2) == (2.0, 0.0, 0.0)

    def test_domain_error(self):
        m = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        with pytest.raises(DomainError):
            product_u(m, 0.0)
        with pytest.raises(DomainError):
            product_u(m, math.pi + 0.1)

    @pytest.mark.parametrize("closed", [True, False], ids=["closed_form", "product_rule"])
    def test_u_values_is_product_u_first_entry(self, closed):
        # bit for bit, on arrays and scalars, with the same domain check
        for name, kwargs in ALL_MODELS:
            m = builtin_model(name, **kwargs)
            if not closed:
                m = ModelSpec(name, _clone(m.mass), _clone(m.velocity), m.domain, m.params,
                              "custom", m.anchor)
            xs = np.linspace(*fd_window(name, kwargs), 41)
            got = profiles.u_values(m, xs)
            assert got.shape == xs.shape and np.array_equal(got, product_u(m, xs)[0])
            assert profiles.u_values(m, float(xs[20])) == product_u(m, float(xs[20]))[0]
        with pytest.raises(DomainError):
            profiles.u_values(builtin_model("poschl_teller", alpha=1, v0=1, m0=1), 0.0)

    def test_shared_transcendentals_keep_every_bit(self):
        # u_closed(x, count) computes sin(a x) and cos(a x) once for all three forms,
        # in the expressions each form had on its own
        a, c = 1.43, 2.63 * 1.9 ** 2
        m = builtin_model("poschl_teller", alpha=a, v0=1.9, m0=2.63)
        xs = np.linspace(1e-3, math.pi / a - 1e-3, 1001)
        alone = (c / np.sin(a * xs), -a * c * np.cos(a * xs) / np.sin(a * xs) ** 2,
                 a * a * c * (1.0 + np.cos(a * xs) ** 2) / np.sin(a * xs) ** 3)
        for count in (1, 2, 3):
            got = m.u_closed(xs, count)
            assert len(got) == count
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, alone))

    def test_arrays_of_their_own_are_not_copied(self):
        # a float array of x's shape that shares no memory with x is kept, anything
        # else (a scalar, x itself or a view of it) is copied into one of x's shape
        xs = np.linspace(0.1, 0.9, 9)
        own = 2.0 * xs
        for r, kept in ((own, True), (xs, False), (xs[::-1], False), (3.0, False),
                        (np.broadcast_to(1.0, xs.shape), False)):
            got = profiles.filled(r, xs)
            assert (got is r) == kept and got.shape == xs.shape and got.flags.writeable
            assert not np.may_share_memory(got, xs)
        m = builtin_model("linear_singular", A=1.0, v0=1.0)
        identity = dataclasses.replace(m, u_closed=lambda x, count: (x, x, x)[:count])
        u, u1, u2 = product_u(identity, xs)
        assert np.array_equal(u, xs) and not any(np.may_share_memory(r, xs) for r in (u, u1, u2))
        assert not np.may_share_memory(u1, u2)

    def test_closed_form_matches_composed(self):
        # the closed-form u must agree with the product rule on the profiles
        for name, kwargs in ALL_MODELS:
            m = builtin_model(name, **kwargs)
            lo, hi = fd_window(name, kwargs)
            xs = np.linspace(lo, hi, 41)
            u, u1, u2 = product_u(m, xs)
            mv = np.asarray(m.mass(xs), dtype=float)
            m1 = np.asarray(m.mass.deriv1(xs), dtype=float)
            m2 = np.asarray(m.mass.deriv2(xs), dtype=float)
            v = np.asarray(m.velocity(xs), dtype=float)
            v1 = np.asarray(m.velocity.deriv1(xs), dtype=float)
            v2 = np.asarray(m.velocity.deriv2(xs), dtype=float)
            assert u == pytest.approx(mv * v * v, rel=1e-10, abs=1e-12)
            assert u1 == pytest.approx(m1 * v * v + 2 * mv * v * v1,
                                       rel=1e-10, abs=1e-10)
            assert u2 == pytest.approx(
                m2 * v * v + 4 * m1 * v * v1 + 2 * mv * (v1 * v1 + v * v2),
                rel=1e-9, abs=1e-9)


class TestDetectConstantU:
    def test_cosh_square_gives_a(self):
        m = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        assert detect_constant_u(m, tol=1e-12) == 1.0

    def test_rational_gives_a(self):
        m = builtin_model("rational", alpha=0.8, v0=1.5, m0=0.6)
        assert detect_constant_u(m, tol=1e-12) == pytest.approx(0.6 * 1.5 ** 2,
                                                                rel=1e-15)

    def test_poschl_teller_not_constant(self):
        m = builtin_model("poschl_teller", alpha=1, v0=1, m0=1)
        assert detect_constant_u(m, tol=1e-6) is None

    def test_massless_gives_zero(self):
        m = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        assert detect_constant_u(m, tol=1e-12) == 0.0

    def test_bad_tol(self):
        m = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        with pytest.raises(InvalidParameterError):
            detect_constant_u(m, tol=0.0)

    @pytest.mark.parametrize("name,params,expected", [
        # far out v_F^2 overflows while m underflows to 0: those samples are skipped
        ("cosh_square", dict(alpha=1.2, v0=0.7, m0=1.1), 1.1 * 0.7 ** 2),
        ("cosh_square", dict(alpha=1.2, v0=0.7, m0=0.0), 0.0),
        ("poschl_teller", dict(alpha=1.0, v0=1.0, m0=1.0), None),
        ("linear_singular", dict(A=0.7, v0=1.3), None),
    ])
    def test_custom_profiles_without_closed_u(self, name, params, expected):
        b = builtin_model(name, **params)
        m = ModelSpec(name, _clone(b.mass), _clone(b.velocity), b.domain, b.params,
                      "custom", b.anchor)
        a = detect_constant_u(m)
        assert a is None if expected is None else a == pytest.approx(expected, rel=1e-12)


class TestDerivativeStencils:
    @pytest.mark.parametrize("name,kwargs", ALL_MODELS)
    def test_five_point_agreement(self, name, kwargs):
        m = builtin_model(name, **kwargs)
        lo, hi = fd_window(name, kwargs)
        rng = np.random.default_rng(20240811)
        xs = rng.uniform(lo, hi, size=100)
        # steps shrink near walls where the profiles vary on the wall-distance
        # scale; the second-difference step sits at its roundoff optimum
        wall = np.minimum(xs - m.domain[0],
                          (m.domain[1] - xs) if math.isfinite(m.domain[1])
                          else np.inf)
        local = np.minimum(1.0 + np.abs(xs), wall)
        h1 = 1e-5 * local
        h2 = 2.4e-3 * local

        for prof, orders in ((m.velocity, (1,)), (m.mass, (1, 2))):
            f = lambda t: np.asarray(prof(t), dtype=float)
            for order in orders:
                if order == 1:
                    fd = five_point_d1(f, xs, h1)
                    ana = np.asarray(prof.deriv1(xs), dtype=float)
                else:
                    fd = five_point_d2(f, xs, h2)
                    ana = np.asarray(prof.deriv2(xs), dtype=float)
                ana = np.broadcast_to(ana, xs.shape)
                fd = np.broadcast_to(fd, xs.shape)
                # relative to the derivative's scale over the sample, so
                # isolated zero crossings do not blow up the ratio
                scale = max(float(np.max(np.abs(ana))), 1.0)
                denom = np.maximum.reduce(
                    [np.abs(ana), np.abs(fd), np.full_like(xs, 1e-4 * scale)])
                assert np.max(np.abs(fd - ana) / denom) <= 1e-6

    def test_constant_rest_zero_derivatives(self):
        m = builtin_model("constant_rest", m0=1.5, c=2.0)
        xs = np.linspace(-50, 50, 64)
        assert np.all(np.asarray(m.velocity.deriv1(xs)) == 0.0)
        assert np.all(np.asarray(m.mass.deriv1(xs)) == 0.0)
        assert np.all(np.asarray(m.mass.deriv2(xs)) == 0.0)


class TestCustomProfiles:
    def test_fd_fallback_flagged(self):
        prof = VelocityProfile.from_callable(lambda x: 2.0 + np.tanh(x) ** 2)
        xs = np.linspace(-2, 2, 11)
        exact = 2 * np.tanh(xs) / np.cosh(xs) ** 2
        assert np.asarray(prof.deriv1(xs)) == pytest.approx(exact, abs=1e-8)

    def test_wrong_derivative_caught(self):
        with pytest.raises(InvalidParameterError, match="velocity"):
            VelocityProfile.from_callable(lambda x: 2.0 + x * x,
                                          deriv1=lambda x: 3.0 * x,
                                          domain=(-5.0, 5.0))

    def test_negative_velocity_rejected(self):
        with pytest.raises(InvalidParameterError, match="positive"):
            VelocityProfile.from_callable(lambda x: np.asarray(x, dtype=float),
                                          domain=(-5.0, 5.0))

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidParameterError, match="non-negative"):
            MassProfile.from_callable(lambda x: -1.0 + 0.0 * np.asarray(x),
                                      domain=(-5.0, 5.0))


def _as_arr(x):
    return np.asarray(x, dtype=float)


def _clone(prof):
    """The profile rebuilt through from_callable with its analytic derivatives."""
    return type(prof).from_callable(prof.func, prof.dfunc, prof.d2func, domain=prof.domain)


# the parameter sets include ones whose correct derivatives a pointwise
# relative-error check refused (zero crossings, v'' = 0, steps shrunk at a wall)
BUILTIN_SETS = [
    ("cosh_square", dict(alpha=1.2, v0=0.7, m0=1.1)),
    ("cosh_square", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("rational", dict(alpha=0.8, v0=1.5, m0=0.6)),
    ("rational", dict(alpha=1.4, v0=0.6, m0=2.0)),
    ("poschl_teller", dict(alpha=1.43, v0=1.9, m0=2.63)),
    ("poschl_teller", dict(alpha=1.0, v0=1.0, m0=1.0)),
    ("linear_singular", dict(A=0.7, v0=1.3)),
    ("linear_singular", dict(A=1.0, v0=1.0)),
    ("constant_rest", dict(m0=1.0, c=1.0)),
    ("constant_rest", dict(m0=0.3, c=2.5)),
]


class TestDerivativeCheck:
    @pytest.mark.parametrize("name,params", BUILTIN_SETS)
    def test_builtin_derivatives_pass(self, name, params):
        # from_callable checks both orders of both profiles on the full
        # domain; a RuntimeWarning fails the test
        model = builtin_model(name, **params)
        for prof in (model.velocity, model.mass):
            _clone(prof)

    @pytest.mark.parametrize("cls,derivs,match", [
        # v'' wrong beside a correct v'
        (VelocityProfile, dict(deriv1=lambda x: 0.5 * np.cos(x),
                               deriv2=lambda x: 100.0 + 0.0 * _as_arr(x)), r"^velocity \(2nd\)"),
        # only f'' supplied
        (VelocityProfile, dict(deriv2=lambda x: 100.0 + 0.0 * _as_arr(x)), r"^velocity \(2nd\)"),
        # f' supplied without f''
        (MassProfile, dict(deriv1=lambda x: 1.5 * np.cos(x)), r"^mass"),
        # 1 % off
        (MassProfile, dict(deriv1=lambda x: 0.505 * np.cos(x),
                           deriv2=lambda x: -0.5 * np.sin(x)), r"^mass"),
        (MassProfile, dict(deriv1=lambda x: 0.5 * np.cos(x),
                           deriv2=lambda x: -0.505 * np.sin(x)), r"^mass \(2nd\)"),
        (VelocityProfile, dict(deriv1=lambda x: 0.505 * np.cos(x)), r"^velocity"),
    ])
    def test_wrong_derivative_named(self, cls, derivs, match):
        with pytest.raises(InvalidParameterError,
                           match=match + ": analytic derivative disagrees"):
            cls.from_callable(lambda x: 1.0 + 0.5 * np.sin(_as_arr(x)), **derivs,
                              domain=(-10.0, 10.0))

    def test_nan_mass_rejected(self):
        with pytest.raises(InvalidParameterError, match="mass profile must be non-negative"):
            MassProfile.from_callable(lambda x: np.where(_as_arr(x) > 1.0, np.nan, 1.0),
                                      domain=(-5.0, 5.0))

    def test_central_difference_step_stops_at_a_finite_wall(self):
        # a step of eps^(1/4) (1 + |x|) would reach past the wall at 0
        prof = MassProfile.from_callable(lambda x: 1.0 / np.sin(x), domain=(0.0, math.pi))
        for x in (1e-4, 1e-3, math.pi - 1e-4):
            exact = (1.0 + math.cos(x) ** 2) / math.sin(x) ** 3
            assert float(prof.deriv2(x)) == pytest.approx(exact, rel=1e-6)
            assert float(prof.deriv1(x)) == pytest.approx(-math.cos(x) / math.sin(x) ** 2,
                                                          rel=1e-6)

    def test_missing_derivatives_are_central_differences(self):
        f = lambda x: 2.0 + np.tanh(_as_arr(x)) ** 2  # noqa: E731
        xs = np.linspace(-2, 2, 11)
        exact = 2.0 * (1.0 - 2.0 * np.sinh(xs) ** 2) / np.cosh(xs) ** 4
        for cls in (VelocityProfile, MassProfile):
            prof = cls.from_callable(f)
            assert np.asarray(prof.deriv2(xs)) == pytest.approx(exact, abs=1e-6)


def _solve(model, mode):
    cfg = {"model.name": model.name, "grid.n": "2000", "solve.k_states": "3", "mode": mode}
    args = argparse.Namespace(mode=None, states=None, out=None, strict=False)
    return run_solve_pipeline(build_run_config(cfg, args), model=model)


@pytest.mark.parametrize("name,params", [
    ("cosh_square", dict(alpha=1.2, v0=0.7, m0=1.1)),
    ("rational", dict(alpha=0.8, v0=1.5, m0=0.6)),
    ("poschl_teller", dict(alpha=1.43, v0=1.9, m0=2.63)),
])
def test_custom_model_matches_builtin(name, params):
    # no u_closed: u, u', u'' come from the product rule on the profiles
    builtin = builtin_model(name, **params)
    custom = ModelSpec(name, _clone(builtin.mass), _clone(builtin.velocity), builtin.domain,
                       builtin.params, "custom", builtin.anchor)
    assert custom.u_closed is None
    auto = "approximate" if name == "poschl_teller" else "constant-u"
    assert _solve(custom, "auto").mode == _solve(builtin, "auto").mode == auto
    ref = _solve(builtin, "approximate")
    v_ref = approx_potential(builtin, ref.grid, ref.tmap).values
    v = approx_potential(custom, ref.grid, build_transform(custom.velocity, custom.anchor)).values
    assert np.max(np.abs(v - v_ref)) <= 1e-8 * np.max(np.abs(v_ref))
    levels = [e for e, _ in _solve(custom, "exact").result.energies]
    assert levels == pytest.approx([e for e, _ in _solve(builtin, "exact").result.energies],
                                   rel=1e-12)


def _custom(name, **params):
    """A built-in's profiles as a custom model, without u_closed."""
    b = builtin_model(name, **params)
    return ModelSpec(name, _clone(b.mass), _clone(b.velocity), b.domain, b.params,
                     "custom", b.anchor)


def count_sample_products(monkeypatch):
    """Record product_u and u_values calls on the 1024-point interior sample."""
    calls = []

    def counted(real):
        def call(model, x):
            if np.size(x) == profiles._SAMPLE_N:
                calls.append(model)
            return real(model, x)
        return call

    for module in (profiles, potential):
        for name in ("product_u", "u_values"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(profiles, name)))
    return calls


class TestUSample:
    def test_evaluated_once_per_model(self, monkeypatch):
        calls = count_sample_products(monkeypatch)
        model = builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=1.0)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 300)
        assert detect_constant_u(model) is None
        for _ in range(3):
            approx_potential(model, grid, tmap)
        assert detect_constant_u(model) is None
        assert calls == [model]

    @pytest.mark.parametrize("make", [builtin_model, _custom])
    def test_sample_is_u_on_the_interior_sample(self, make):
        model = make("poschl_teller", alpha=1.3, v0=0.8, m0=2.0)
        expected = product_u(model, interior_sample(model.domain))[0]
        assert np.array_equal(model.u_sample, expected)
        assert not model.u_sample.flags.writeable

    def test_models_do_not_share_a_sample(self):
        a = builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=1.0)
        b = builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=2.0)
        assert np.array_equal(2.0 * a.u_sample, b.u_sample)
        flipped = dataclasses.replace(
            a, u_closed=lambda x, count: tuple(-u for u in a.u_closed(x, count)))
        assert a.u_sample is not flipped.u_sample
        assert np.array_equal(flipped.u_sample, -a.u_sample)

    @pytest.mark.parametrize("m0,expected", [(1.1, 1.1 * 0.7 ** 2), (0.0, 0.0)])
    def test_custom_models_read_the_sample(self, monkeypatch, m0, expected):
        model = _custom("cosh_square", alpha=1.2, v0=0.7, m0=m0)
        calls = count_sample_products(monkeypatch)
        # far out v_F^2 passes 1e100 while m underflows, and the product reads 0
        # at some of those samples: detect_constant_u skips them (the gone mask)
        with np.errstate(over="ignore"):
            gone = np.asarray(model.velocity(interior_sample(model.domain))) ** 2 >= 1e100
        assert gone.any() and np.min(model.u_sample[gone]) == 0.0
        assert detect_constant_u(model) == pytest.approx(expected, rel=1e-12)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 300)
        if m0 == 0.0:
            with pytest.raises(ApproximationInvalidError, match="non-zero mass"):
                approx_potential(model, grid, tmap)
        else:
            values = approx_potential(model, grid, tmap).values
            assert values == pytest.approx(expected ** 2, rel=1e-8)
        assert detect_constant_u(model) == pytest.approx(expected, rel=1e-12)
        assert calls == [model]


@pytest.mark.parametrize("domain", [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 2.0),
                                    (0.0, math.pi / 1.37)])
def test_interior_sample_is_built_once_and_read_only(domain):
    t = (np.arange(1024) + 0.5) / 1024
    lo, hi = domain
    if math.isinf(lo) and math.isinf(hi):
        want = np.tan((t - 0.5) * (np.pi - 4e-3))
    elif math.isinf(hi):
        want = lo + np.tan(t * (np.pi / 2 - 2e-3))
    elif math.isinf(lo):
        want = hi - np.tan(t * (np.pi / 2 - 2e-3))[::-1]
    else:
        want = lo + (hi - lo) * t
    xs = interior_sample(domain)
    assert xs.tobytes() == want.tobytes() and not xs.flags.writeable
    with pytest.raises(ValueError):
        xs[0] = 0.0
    assert interior_sample(domain) is xs


def test_a_model_builds_its_interior_sample_once():
    # its two validations and its u_sample share the one sample of its domain
    before = interior_sample.cache_info().misses
    model = builtin_model("poschl_teller", alpha=1.0 / 0.731, v0=1.0, m0=1.0)
    assert model.u_sample.size == profiles._SAMPLE_N
    assert interior_sample.cache_info().misses == before + 1


def test_interior_sample_stays_inside():
    for domain in [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 2.0),
                   (0.0, math.pi)]:
        xs = interior_sample(domain, 500)
        assert xs.size == 500
        assert np.all(xs > domain[0]) and np.all(xs < domain[1])
        assert np.all(np.diff(xs) > 0)
