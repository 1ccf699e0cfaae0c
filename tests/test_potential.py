import gc
import weakref

import numpy as np
import pytest

from diracpd import (
    MassProfile,
    ModelSpec,
    PotentialField,
    QGrid,
    VelocityProfile,
    approx_potential,
    build_transform,
    builtin_model,
    constant_u_potential,
    exact_potential,
    potential,
    potential_discrepancy_report,
    product_u,
)
from diracpd.errors import (
    ApproximationInvalidError,
    InvalidParameterError,
    SingularNodeError,
    ZetaCrossingError,
)

PT_EXACT_CENTER_E2 = 5.0 / 6.0  # bracket at the hole center for E=2, a=v0=m0=1


def pt_setup(alpha=1.0, v0=1.0, m0=1.0, n=2001):
    model = builtin_model("poschl_teller", alpha=alpha, v0=v0, m0=m0)
    tmap = build_transform(model.velocity, model.anchor)
    grid = QGrid(tmap.q_lo, tmap.q_hi, n)
    return model, tmap, grid


class TestQGrid:
    def test_interior_nodes(self):
        g = QGrid(0.0, 1.0, 9)
        assert g.h == pytest.approx(0.1)
        assert g.nodes[0] == pytest.approx(0.1)
        assert g.nodes[-1] == pytest.approx(0.9)

    def test_refined_preserves_walls(self):
        g = QGrid(-2.0, 3.0, 100).refined()
        assert (g.lo, g.hi) == (-2.0, 3.0)
        assert g.h == pytest.approx(QGrid(-2.0, 3.0, 100).h / 2)
        assert g.n == 201

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            QGrid(1.0, 1.0, 10)
        with pytest.raises(InvalidParameterError):
            QGrid(0.0, 1.0, 2)


class TestExactPotential:
    def test_massless_identically_zero(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 301)
        for energy in (0.7, 1.3, -2.0, 5.5):
            f = exact_potential(model, energy, grid, tmap)
            assert np.all(f.values == 0.0)
            assert not f.singular.any()

    def test_constant_u_gives_a_squared(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 301)
        for energy in (-0.5, 0.2, 1.9, 10.0):  # any E > -1 avoids zeta_2 = 0
            f = exact_potential(model, energy, grid, tmap)
            assert np.max(np.abs(f.values - 1.0)) <= 1e-12

    def test_poschl_teller_center_value(self):
        model, tmap, grid = pt_setup()
        f = exact_potential(model, 2.0, grid, tmap)
        # a node sits at q=0 only on odd grids; take the nearest
        i = np.argmin(np.abs(grid.nodes))
        assert f.values[i] == pytest.approx(PT_EXACT_CENTER_E2, abs=1e-6)
        fa = approx_potential(model, grid, tmap)
        # the exact bracket differs from the energy-independent form by O(1/E)
        assert abs(f.values[i] - fa.values[i]) == pytest.approx(1.0 / 12.0,
                                                                abs=1e-6)

    def test_zeta_crossing_raises(self):
        model, tmap, grid = pt_setup()
        # E = -2: zeta_2 = -2 + 1/sin crosses zero inside the hole
        with pytest.raises(ZetaCrossingError):
            exact_potential(model, -2.0, grid, tmap)

    def test_zeta_identically_zero_flags_all(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=1)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 101)
        f = exact_potential(model, -1.0, grid, tmap)  # zeta_2 = E + A = 0
        assert f.singular.all()
        assert np.all(np.isnan(f.values))

    def test_mode_and_refinement(self):
        model, tmap, grid = pt_setup()
        f = exact_potential(model, 2.0, grid, tmap)
        assert f.mode == "exact" and f.energy == 2.0
        fr = f.on_grid(grid.refined())
        assert fr.grid.n == 2 * grid.n + 1
        assert fr.energy == 2.0


class TestApproxPotential:
    def test_poschl_teller_center(self):
        model, tmap, grid = pt_setup()
        i = np.argmin(np.abs(grid.nodes))
        f = approx_potential(model, grid, tmap)
        assert f.values[i] == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("alpha,v0,m0", [(1.0, 1.0, 1.0), (1.3, 0.8, 1.1)])
    def test_poschl_teller_closed_form(self, alpha, v0, m0):
        model, tmap, grid = pt_setup(alpha, v0, m0, n=4001)
        f = approx_potential(model, grid, tmap)
        x = model.anchor + v0 * grid.nodes
        closed = (alpha * v0) ** 2 / 16.0 + (
            m0 ** 2 * v0 ** 4 - 5.0 * (alpha * v0) ** 2 / 16.0
        ) / np.sin(alpha * x) ** 2
        rel = np.abs(f.values - closed) / np.abs(closed)
        assert np.max(rel) <= 1e-10

    def test_constant_rest(self):
        model = builtin_model("constant_rest", m0=1, c=1)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(-5.0, 5.0, 201)
        f = approx_potential(model, grid, tmap)
        assert np.max(np.abs(f.values - 1.0)) <= 1e-12

    def test_linear_singular_point_value(self):
        model = builtin_model("linear_singular", A=1, v0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(-1.0, 1.0, 201)
        f = approx_potential(model, grid, tmap)
        i = np.argmin(np.abs(grid.nodes))  # q ~ 0 <-> x ~ 1
        # 3/16 - 1/4 + 1 at the anchor
        assert f.values[i] == pytest.approx(0.9375, abs=1e-8)

    def test_linear_singular_exponential_form(self):
        model = builtin_model("linear_singular", A=1.3, v0=0.7)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(-3.0, 3.0, 501)
        f = approx_potential(model, grid, tmap)
        q = grid.nodes
        closed = 1.3 ** 2 * 0.7 ** 4 * np.exp(2 * 0.7 * q) - 0.7 ** 2 / 16.0
        assert np.max(np.abs(f.values - closed) / np.abs(closed)) <= 1e-10

    def test_massless_rejected(self):
        model = builtin_model("cosh_square", alpha=1, v0=1, m0=0)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(-0.9, 0.9, 101)
        with pytest.raises(ApproximationInvalidError):
            approx_potential(model, grid, tmap)

    def test_constant_u_equals_exact_and_approx(self):
        # wherever both are defined, the constant-u class collapses them
        model = builtin_model("rational", alpha=1.1, v0=0.9, m0=0.8)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(tmap.q_lo, tmap.q_hi, 256)
        a_const = 0.8 * 0.9 ** 2
        fa = approx_potential(model, grid, tmap)
        fe = exact_potential(model, 2.2, grid, tmap)
        fc = constant_u_potential(a_const, grid)
        assert np.max(np.abs(fa.values - a_const ** 2)) <= 1e-12
        assert np.max(np.abs(fe.values - a_const ** 2)) <= 1e-12
        assert np.max(np.abs(fc.values - a_const ** 2)) == 0.0

    def test_even_in_q_for_symmetric_models(self):
        for name in ("cosh_square", "rational"):
            model = builtin_model(name, alpha=1.2, v0=0.8, m0=0.5)
            tmap = build_transform(model.velocity, 0.0)
            grid = QGrid(tmap.q_lo, tmap.q_hi, 400)
            f = approx_potential(model, grid, tmap)
            assert np.max(np.abs(f.values - f.values[::-1])) <= 1e-10


PASS_MODELS = {
    "cosh_square": dict(alpha=1.1, v0=0.9, m0=0.7),
    "rational": dict(alpha=0.8, v0=1.5, m0=0.6),
    "poschl_teller": dict(alpha=1.43, v0=1.9, m0=2.63),
    "linear_singular": dict(A=0.7, v0=1.3),
    "constant_rest": dict(m0=0.3, c=2.5),
}


def pass_case(name):
    """(model, its map, the q-range cut at |q| = 4 on an infinite side); ``custom``
    is poschl_teller's profiles through from_callable: no u_closed, the numeric map."""
    model = builtin_model(name if name != "custom" else "poschl_teller",
                          **PASS_MODELS.get(name, PASS_MODELS["poschl_teller"]))
    if name == "custom":
        mass, vel = (cls.from_callable(p.func, p.dfunc, p.d2func, domain=p.domain)
                     for cls, p in ((MassProfile, model.mass), (VelocityProfile, model.velocity)))
        model = ModelSpec("custom", mass, vel, model.domain, model.params, "custom", model.anchor)
    tmap = build_transform(model.velocity, model.anchor)
    return model, tmap, (max(tmap.q_lo, -4.0), min(tmap.q_hi, 4.0))


def one_grid(model, grid, tmap, energy=None):
    """V on one grid evaluated whole, in the expressions and with the copies
    that each grid's own evaluation used: the approximate reduction, or the
    exact one at ``energy``."""
    x = tmap.inverse_grid(grid.nodes)
    u, u1, u2 = (np.full(x.shape, r, dtype=float) for r in product_u(model, x))
    v = np.full(x.shape, model.velocity(x), dtype=float)
    v1 = np.full(x.shape, model.velocity.deriv1(x), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if energy is None:
            singular = ~(np.abs(u) > 0)
            vals = (3.0 / 16.0) * (u1 * v / u) ** 2 \
                - 0.25 * (v * v * u2 + v * v1 * u1) / u + u * u
        else:
            z2 = energy + u
            scale = max(1.0, abs(energy), float(np.max(np.abs(u[np.isfinite(u)]), initial=0.0)))
            singular = np.abs(z2) < 1e-10 * scale
            r = u1 / z2
            vals = 0.75 * (v * r) ** 2 - 0.5 * v * v * u2 / z2 - 0.5 * v * v1 * r + u * u
    return np.where(singular | ~np.isfinite(vals), np.nan, vals)


class TestPass:
    """approx_potential evaluates a grid and the grids ``also`` lists in one pass,
    in blocks over their concatenated nodes, to the bits of each grid alone."""

    @pytest.mark.parametrize("name", [*PASS_MODELS, "custom"])
    def test_values_match_each_grid_alone(self, name):
        model, tmap, (lo, hi) = pass_case(name)
        base = QGrid(lo, hi, 5000)
        also = [QGrid(lo, hi, 156), QGrid(lo, hi, 312),
                base.refined()]
        # the refined grid straddles the first block's end
        assert 5000 + 156 + 312 < potential._PASS_BLOCK < sum(g.n for g in [base, *also])
        field = approx_potential(model, base, tmap, also=also)
        fresh = build_transform(model.velocity, model.anchor)
        for f in [field] + [field.on_grid(g) for g in also]:
            assert f.values.flags.owndata
            assert f.values.tobytes() == one_grid(model, f.grid, fresh).tobytes()
            # handed over once: on_grid evaluates the grid again, to the same bits
            assert field.on_grid(f.grid).values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("name", [*PASS_MODELS, "custom"])
    def test_exact_values_match_each_grid_alone(self, name):
        model, tmap, (lo, hi) = pass_case(name)
        grid = QGrid(lo, hi, 2001)
        field = exact_potential(model, 2.0, grid, tmap)
        fresh = build_transform(model.velocity, model.anchor)
        assert field.values.tobytes() == one_grid(model, grid, fresh, energy=2.0).tobytes()

    def test_inverts_every_grid_in_one_call(self, monkeypatch):
        model, tmap, (lo, hi) = pass_case("poschl_teller")
        calls = []
        real = type(tmap).inverse_grids
        monkeypatch.setattr(type(tmap), "inverse_grids",
                            lambda self, qs, odd=(): calls.append([q.size for q in qs])
                            or real(self, qs, odd))
        grid = QGrid(lo, hi, 300)
        field = approx_potential(model, grid, tmap, also=[grid.refined()])
        fine = field.on_grid(grid.refined())
        assert calls == [[601]]  # the base grid is the refined grid's odd nodes
        assert fine.values.tobytes() == one_grid(model, fine.grid, tmap).tobytes()

    @pytest.mark.parametrize("name", ["poschl_teller", "cosh_square", "rational", "custom"])
    def test_a_grid_beside_its_refinement_reads_its_odd_nodes(self, name):
        # h/2 is exact: the base nodes are the refined grid's odd nodes bit for bit,
        # and W, S, max |u| and V read there equal a pass over the base grid alone
        model, tmap, (lo, hi) = pass_case(name)
        base = QGrid(lo, hi, 5000)
        fine = base.refined()
        assert base.nodes.tobytes() == fine.nodes[1::2].tobytes()
        joint = potential._approx_pass(model, [base, QGrid(lo, hi, 156), fine], tmap)[base]
        fresh = build_transform(model.velocity, model.anchor)
        alone = potential._approx_pass(model, [base], fresh)[base]
        assert [joint[0].tobytes(), joint[1].tobytes(), joint[2]] == \
            [alone[0].tobytes(), alone[1].tobytes(), alone[2]]
        field = approx_potential(model, base, tmap, also=[fine])
        assert field.values.tobytes() == approx_potential(model, base, fresh).values.tobytes()
        # its x is cached on the map, the refined grid's odd nodes: no second inversion
        cached = tmap.inverse_grids([base.nodes])[0]
        assert cached.tobytes() == fresh.inverse_grid(base.nodes).tobytes()
        assert not cached.flags.writeable

    def test_overflowing_u_raises(self):
        model = builtin_model("cosh_square", alpha=1.1, v0=0.9, m0=1e160)
        tmap = build_transform(model.velocity, model.anchor)
        with pytest.raises(SingularNodeError, match=r"^u = m v_F\^2 reaches 8\.1e\+159: u\^2 "
                                                    r"overflows a float"):
            approx_potential(model, QGrid(tmap.q_lo, tmap.q_hi, 300), tmap)


class TestConstantUPotential:
    def test_values_are_a_squared(self):
        g = QGrid(-1.0, 1.0, 64)
        f = constant_u_potential(1.5, g)
        assert np.all(f.values == 1.5 ** 2)
        assert f.mode == "constant_u" and f.constant_a == 1.5

    def test_negative_a_rejected(self):
        with pytest.raises(InvalidParameterError):
            constant_u_potential(-0.1, QGrid(-1.0, 1.0, 64))


class TestDiscrepancyReport:
    def test_poschl_teller_agrees(self):
        model, tmap, grid = pt_setup(1.3, 0.8, 1.1, n=1501)
        a, v0, m0 = 1.3, 0.8, 1.1
        x0 = model.anchor

        def claimed(q):
            coeff = m0 ** 2 * v0 ** 4 - 5 * (a * v0) ** 2 / 16.0
            return (a * v0) ** 2 / 16.0 + coeff / np.sin(a * (x0 + v0 * q)) ** 2

        rep = potential_discrepancy_report(model, claimed, grid, tmap)
        assert rep.max_rel <= 1e-10

    def test_linear_singular_harmonic_grows(self):
        model = builtin_model("linear_singular", A=1, v0=1)
        tmap = build_transform(model.velocity, model.anchor)
        grid = QGrid(-3.0, 3.0, 601)

        def harmonic(q):
            omega = 2.0
            return 0.25 * omega ** 2 * np.asarray(q) ** 2

        rep = potential_discrepancy_report(model, harmonic, grid, tmap)
        q = rep.q
        rel = np.abs(rep.residual) / np.maximum(np.abs(rep.computed), 1e-300)
        assert np.min(rel[np.abs(q) >= 1.0]) > 0.10
        # the residual keeps growing with |q| (exponential vs quadratic)
        assert abs(rep.residual[-1]) > abs(rep.residual[len(q) // 2]) * 10

    def test_constant_rest_zero_deviation(self):
        model = builtin_model("constant_rest", m0=1.2, c=1.0)
        tmap = build_transform(model.velocity, 0.0)
        grid = QGrid(-4.0, 4.0, 201)

        def claimed(q):
            return np.full_like(np.asarray(q, dtype=float), 1.2 ** 2)

        rep = potential_discrepancy_report(model, claimed, grid, tmap)
        assert rep.max_abs <= 1e-12


class TestFromFunction:
    def test_samples_and_refines(self):
        g = QGrid(0.0, 1.0, 99)
        f = PotentialField.from_function(lambda q: q ** 2, g)
        assert f.values == pytest.approx(g.nodes ** 2)
        fr = f.on_grid(g.refined())
        assert fr.values == pytest.approx(fr.grid.nodes ** 2)


@pytest.fixture
def no_cyclic_gc():
    """Run with the cyclic collector off, so only reference counting frees objects."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()



BUILDERS = {
    "approx": lambda model, tmap, grid: approx_potential(model, grid, tmap),
    "exact": lambda model, tmap, grid: exact_potential(model, 2.0, grid, tmap),
    "constant_u": lambda model, tmap, grid: constant_u_potential(1.5, grid),
    "from_function": lambda model, tmap, grid: PotentialField.from_function(
        lambda q: q ** 2, grid),
}


@pytest.mark.usefixtures("no_cyclic_gc")
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_evaluator_dies_with_its_fields(kind):
    # the evaluator holds the model and map; no cycle may keep it alive
    field = BUILDERS[kind](*pt_setup(n=201))
    fine = field.on_grid(field.grid.refined())
    assert fine.evaluator is field.evaluator
    assert fine.on_grid(field.grid).values == pytest.approx(field.values, nan_ok=True)
    evaluator = weakref.ref(field.evaluator)
    del field, fine
    assert evaluator() is None
