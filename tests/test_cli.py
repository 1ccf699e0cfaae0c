import math
import os

import numpy as np
import pytest

from diracpd import cli, eigensolver
from diracpd.cli import main
from diracpd.errors import QuadratureFailureError


def pt_full_ladder(alpha, v0, m0, n):
    """Verified approximate-mode poschl_teller level n: (alpha v0/4) sqrt(1 + 16 (s + n)^2)."""
    s = 0.5 + math.sqrt((m0 * v0 / alpha) ** 2 - 1.0 / 16.0)
    return 0.25 * alpha * v0 * math.sqrt(1.0 + 16.0 * (s + n) ** 2)


def write_config(path, **keys):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys.items():
            fh.write(f"{key.replace('__', '.')} = {value}\n")
    return str(path)


def read_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            rows.append(line.rstrip("\n").split(","))
    return rows[0], rows[1:]


class TestSolve:
    def test_cosh_massless_strict(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=0.0, grid__n=2000, solve__k_states=3,
            compare__tol="1e-5", outputs="spectrum",
            out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "constant-u" in out
        header, rows = read_rows(tmp_path / "out" / "spectrum.csv")
        assert header == ["n", "lambda", "E_plus", "E_minus", "nodes",
                          "error_estimate"]
        assert len(rows) == 3
        for k, row in enumerate(rows, start=1):
            assert float(row[2]) == pytest.approx(k * math.pi / 2, rel=1e-6)

    def test_missing_v0_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square",
                           model__alpha=1.0, model__m0=0.0)
        assert main(["solve", "--config", cfg]) == 2
        assert "v0" in capsys.readouterr().err

    def test_unknown_mode_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square",
                           model__alpha=1.0, model__v0=1.0, model__m0=0.0,
                           mode="magic")
        assert main(["solve", "--config", cfg]) == 2

    def test_tiny_grid_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square",
                           model__alpha=1.0, model__v0=1.0, model__m0=0.0,
                           grid__n=32)
        assert main(["solve", "--config", cfg]) == 2
        assert "grid.n" in capsys.readouterr().err

    def test_massless_approximate_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square",
                           model__alpha=1.0, model__v0=1.0, model__m0=0.0,
                           mode="approximate", out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 3

    def test_potential_csv_columns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=200, solve__k_states=1,
            outputs="potential", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg]) == 0
        header, rows = read_rows(tmp_path / "out" / "potential.csv")
        assert header == ["q", "V"]
        assert all(float(r[1]) == 1.0 for r in rows)  # constant-u: V = A^2

    def test_constant_rest(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="constant_rest", model__m0=1.0, model__c=1.0,
            compare__tol="1e-10", outputs="spectrum",
            out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg, "--strict"]) == 0
        _, rows = read_rows(tmp_path / "out" / "spectrum.csv")
        assert float(rows[0][2]) == 1.0
        assert float(rows[0][3]) == -1.0

    def test_linear_singular_no_bound_states_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="linear_singular",
                           model__A=1.0, model__v0=1.0, grid__n=400,
                           solve__k_states=1, out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 3
        assert "confine" in capsys.readouterr().err

    def test_linear_singular_unconfined_without_eigensolve(self, tmp_path, capsys,
                                                            monkeypatch):
        # the exponential reduced potential is rejected from the box edges alone
        calls = [0]
        original = eigensolver.eigh_tridiagonal

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(eigensolver, "eigh_tridiagonal", counted)
        for big_a in (0.3, 1.1, 1.9):
            for v0 in (0.6, 1.3, 1.9):
                cfg = write_config(tmp_path / "c.txt", model__name="linear_singular",
                                   model__A=big_a, model__v0=v0, grid__n=400,
                                   solve__k_states=1, out__dir=str(tmp_path / "out"))
                assert main(["solve", "--config", cfg]) == 3
                err = capsys.readouterr().err
                assert "NonConvergenceError" in err and "does not confine" in err
        assert calls[0] == 0

    @pytest.mark.parametrize("flag", [False, True])
    def test_exact_mode_as_published_exit_2(self, tmp_path, capsys, flag):
        # the published (s+2n) family is an approximate-mode claim
        cfg = write_config(
            tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1.3,
            model__v0=0.8, model__m0=2.1, grid__n=2000, solve__k_states=3,
            analytic__variant="as-published", out__dir=str(tmp_path / "out"),
            **({} if flag else {"mode": "exact"}),
        )
        argv = ["solve", "--config", cfg, "--strict"] + (["--mode", "exact"] if flag else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "analytic.variant" in err and "exact mode" in err
        assert not (tmp_path / "out").exists()

    def test_poschl_teller_as_published_strict_exit_4(self, tmp_path, capsys):
        common = dict(
            model__name="poschl_teller", model__alpha=1.3, model__v0=0.8,
            model__m0=1.1, grid__n=4000, solve__k_states=3,
            compare__tol="1e-4", outputs="spectrum",
        )
        cfg_ok = write_config(tmp_path / "ok.txt", **common,
                              out__dir=str(tmp_path / "out1"))
        assert main(["solve", "--config", cfg_ok, "--strict"]) == 0
        cfg_ap = write_config(tmp_path / "ap.txt", **common,
                              analytic__variant="as-published",
                              out__dir=str(tmp_path / "out2"))
        assert main(["solve", "--config", cfg_ap, "--strict"]) == 4

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_determinism_byte_identical(self, tmp_path, mode):
        name = "poschl_teller" if mode == "exact" else "rational"
        paths = []
        for tag in ("a", "b"):
            cfg = write_config(
                tmp_path / f"{tag}.txt", mode=mode,
                model__name=name, model__alpha=1.0, model__v0=1.0,
                model__m0=1.0, grid__n=500, solve__k_states=2,
                outputs="spectrum, potential, wavefunctions",
                out__dir=str(tmp_path / f"out_{tag}"),
            )
            assert main(["solve", "--config", cfg]) == 0
            paths.append(tmp_path / f"out_{tag}")
        for name in ("spectrum.csv", "potential.csv", "wavefunction_0.csv",
                     "wavefunction_1.csv"):
            a = (paths[0] / name).read_bytes()
            b = (paths[1] / name).read_bytes()
            assert a == b, name

    def test_poschl_teller_exact_strict(self, tmp_path, capsys):
        # exact mode gates on the trigonometric Poschl-Teller ladder g + n + 1/2
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, mode="exact", grid__n=2000, solve__k_states=4,
            outputs="spectrum", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg, "--strict"]) == 0
        assert "interleaved" not in capsys.readouterr().out
        _, rows = read_rows(tmp_path / "out" / "spectrum.csv")
        for k, row in enumerate(rows):
            assert abs(float(row[2]) - (k + 1.5)) <= 1e-12 * (k + 1.5)
            assert int(row[4]) == k

    def test_poschl_teller_strict_gates_every_level(self, tmp_path, capsys):
        # approximate mode gates on the full ladder s + n, odd levels included
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.3, model__v0=0.8,
            model__m0=2.1, grid__n=4000, solve__k_states=4, compare__tol="1e-6",
            outputs="spectrum", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "interleaved" not in out
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        for k, row in enumerate(rows):
            assert float(row[2]) == pytest.approx(pt_full_ladder(1.3, 0.8, 2.1, k), rel=1e-15)
            assert float(row[3]) <= 1e-6

    def test_strict_failure_names_missing_levels(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.3, model__v0=0.8,
            model__m0=1.1, grid__n=1000, solve__k_states=3, compare__tol="1e-4",
            analytic__variant="as-published", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg, "--strict"]) == 4
        err = capsys.readouterr().err
        assert "reference level n=0 not found" in err
        assert "rel dev" not in err

    @pytest.mark.parametrize("name,params", [
        ("linear_singular", dict(model__A=1.0, model__v0=1.0)),
        ("constant_rest", dict(model__m0=1.0, model__c=1.0)),
    ])
    def test_exact_mode_infinite_q_range_exit_3(self, tmp_path, capsys, name, params):
        cfg = write_config(tmp_path / "c.txt", model__name=name, mode="exact",
                           grid__n=400, solve__k_states=1,
                           out__dir=str(tmp_path / "out"), **params)
        assert main(["solve", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "DomainError" in err and "q-range (-inf, inf)" in err

    def test_wavefunction_columns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=300, solve__k_states=1,
            outputs="wavefunctions", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg]) == 0
        header, rows = read_rows(tmp_path / "out" / "wavefunction_0.csv")
        assert header == ["x", "q", "re_psi1", "im_psi1", "re_psi2",
                          "im_psi2", "rho", "j"]
        js = np.array([float(r[7]) for r in rows])
        assert np.max(np.abs(js)) <= 1e-12


class TestWriter:
    def test_columns_byte_identical_to_per_cell_format(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1 / 3, 1e-5,
                  1e16, 1e17, 123456789012345678.0, np.float64(2.5)]
        ints = [np.int64(-7), 3, np.int64(2**62), 0, -1, 10**17, np.int64(1),
                2, 4, 5, 6, np.int64(0)]
        ready = [f"c{i}" for i in range(len(floats))]
        # repeated past two row chunks of the writer
        floats, ints, ready = floats * 700, ints * 700, ready * 700
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["# edge values"], ("f", "i", "s"),
                       (np.array(floats), np.array(ints), ready))
        # the per-cell rule the column writer replaces
        cells = [[f"{c:.17g}" if isinstance(c, float) else str(c) for c in row]
                 for row in zip(floats, ints, ready)]
        expected = "# edge values\nf,i,s\n" + "".join(",".join(r) + "\n" for r in cells)
        assert path.read_bytes() == expected.encode("utf-8")
        assert [cli._fmt(c) for c in floats] == [f"{c:.17g}" for c in floats]

    def test_solve_shares_x_and_q_columns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=300, solve__k_states=3,
            outputs="potential, wavefunctions", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg]) == 0
        args = cli._make_parser().parse_args(["solve", "--config", cfg])
        outcome = cli.run_solve_pipeline(cli.build_run_config(cli.parse_config(cfg), args))
        q = [f"{v:.17g}" for v in outcome.grid.nodes]
        x = [f"{v:.17g}" for v in outcome.tmap.inverse_grid(outcome.grid.nodes)]
        _, rows = read_rows(tmp_path / "out" / "potential.csv")
        assert [r[0] for r in rows] == q
        for k in range(3):
            _, rows = read_rows(tmp_path / "out" / f"wavefunction_{k}.csv")
            assert [r[0] for r in rows] == x
            assert [r[1] for r in rows] == q


class TestScan:
    def test_single_step_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square",
                           model__alpha=1.0, model__v0=1.0, model__m0=0.0,
                           scan__param="m0", scan__min=0.0, scan__max=1.0,
                           scan__steps=1, out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 2
        assert "steps" in capsys.readouterr().err

    def test_mass_shift_column(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=0.0, grid__n=1500, solve__k_states=1,
            scan__param="m0", scan__min=0.0, scan__max=2.0, scan__steps=9,
            out__dir=str(tmp_path / "out"),
        )
        assert main(["scan", "--config", cfg]) == 0
        header, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert header == ["param", "n", "E_numeric", "E_analytic", "status"]
        assert len(rows) == 9
        for row in rows:
            m0 = float(row[0])
            e_num = float(row[2])
            assert e_num ** 2 - (math.pi / 2) ** 2 == pytest.approx(
                m0 ** 2, abs=1e-6)
            assert row[4] == "ok"

    def test_alpha_scan_linear_slope(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=0.0, grid__n=1500, solve__k_states=1,
            scan__param="alpha", scan__min=0.5, scan__max=2.0, scan__steps=7,
            out__dir=str(tmp_path / "out"),
        )
        assert main(["scan", "--config", cfg]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        alphas = np.array([float(r[0]) for r in rows])
        es = np.array([float(r[2]) for r in rows])
        slope, intercept = np.polyfit(alphas, es, 1)
        assert slope == pytest.approx(math.pi / 2, rel=1e-6)
        assert intercept == pytest.approx(0.0, abs=1e-6)

    def test_resume_appends_missing_rows(self, tmp_path):
        kwargs = dict(
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=0.0, grid__n=800, solve__k_states=1,
            scan__param="m0", scan__min=0.0, scan__max=1.0, scan__steps=5,
            out__dir=str(tmp_path / "out"),
        )
        cfg = write_config(tmp_path / "c.txt", **kwargs)
        assert main(["scan", "--config", cfg]) == 0
        full = (tmp_path / "out" / "scan.csv").read_text()
        lines = full.splitlines(keepends=True)
        # drop the last two data rows, as if interrupted
        (tmp_path / "out" / "scan.csv").write_text("".join(lines[:-2]))
        assert main(["scan", "--config", cfg]) == 0
        assert (tmp_path / "out" / "scan.csv").read_text() == full

    def test_axis_flag_override(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=0.0, grid__n=800, solve__k_states=1,
            out__dir=str(tmp_path / "out"),
        )
        assert main(["scan", "--config", cfg, "--axis", "m0=0:1:3"]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert len(rows) == 3

    def test_poschl_teller_reference_is_full_ladder(self, tmp_path):
        # row k's E_analytic is the reference for level k, not the published s + 2k
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.3, model__v0=0.8,
            model__m0=2.0, grid__n=600, solve__k_states=3, mode="approximate",
            scan__param="m0", scan__min=1.7, scan__max=2.5, scan__steps=3,
            out__dir=str(tmp_path / "out"),
        )
        assert main(["scan", "--config", cfg]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert len(rows) == 9
        for row in rows:
            expected = pt_full_ladder(1.3, 0.8, float(row[0]), int(row[1]))
            assert abs(float(row[3]) - expected) <= 1e-12 * expected
            assert abs(float(row[2]) - expected) <= 1e-4 * expected

    def test_unknown_axis_param(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square",
                           model__alpha=1.0, model__v0=1.0, model__m0=0.0,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg, "--axis", "zeta=0:1:3"]) == 2


def count_builds(monkeypatch, fail_first=False):
    """Count cli.build_transform calls; optionally make the first one raise."""
    calls = []
    real = cli.build_transform

    def counted(*args, **kwargs):
        calls.append(args)
        if fail_first and len(calls) == 1:
            raise QuadratureFailureError("forced", partial=0.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_transform", counted)
    return calls


PT_SCAN = dict(model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
               model__m0=1.0, grid__n=600, solve__k_states=2, scan__steps=4)


class TestScanMapReuse:
    def test_m0_scan_builds_map_once(self, tmp_path, monkeypatch):
        calls = count_builds(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, scan__param="m0",
                           scan__min=1.0, scan__max=2.0,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("param", ["alpha", "v0"])
    def test_velocity_scan_builds_map_per_point(self, tmp_path, monkeypatch, param):
        calls = count_builds(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, scan__param=param,
                           scan__min=0.8, scan__max=1.0,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        assert len(calls) == 4

    def test_failed_build_is_not_held(self, tmp_path, monkeypatch):
        calls = count_builds(monkeypatch, fail_first=True)
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, scan__param="m0",
                           scan__min=1.0, scan__max=2.0,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        assert len(calls) == 2
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert rows[0][1:] == ["-", "nan", "nan", "error:QuadratureFailureError"]
        assert all(row[4] == "ok" for row in rows[1:])

    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    def test_m0_scan_matches_fresh_map_solves(self, tmp_path, mode):
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, scan__param="m0",
                           scan__min=1.0, scan__max=2.0, mode=mode,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        args = cli._make_parser().parse_args(["scan", "--config", cfg])
        rc = cli.build_run_config(cli.parse_config(cfg), args)
        expected = []
        for m0 in np.linspace(1.0, 2.0, 4):
            model = cli._build_model(rc, override={"m0": float(m0)})
            outcome = cli.run_solve_pipeline(rc, model=model)
            expected += [[cli._fmt(float(m0)), str(k), cli._fmt(e_plus)]
                         for k, (e_plus, _) in enumerate(outcome.result.energies)]
        assert [row[:3] for row in rows] == expected


class TestBic:
    def test_writes_states(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, bic__energies="1.5, 2.5",
            out__dir=str(tmp_path / "out"),
        )
        assert main(["bic", "--config", cfg]) == 0
        for i in (0, 1):
            header, rows = read_rows(tmp_path / "out" / f"bic_{i}.csv")
            js = np.array([float(r[7]) for r in rows])
            assert np.max(np.abs(js)) <= 1e-12

    def test_requires_energies(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square",
                           model__alpha=1.0, model__v0=1.0, model__m0=1.0)
        assert main(["bic", "--config", cfg]) == 2

    @pytest.mark.parametrize("command,outputs", [("bic", "spectrum"),
                                                 ("solve", "spectrum, bic")])
    def test_outside_constant_u_class_exit_2(self, tmp_path, capsys, command, outputs):
        # poschl_teller's m v_F^2 = m0 v0^2 / sin(alpha x) is not constant
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller",
                           model__alpha=1.0, model__v0=1.0, model__m0=1.0,
                           bic__energies="1.5", outputs=outputs, out__dir=str(out))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "m v_F^2 = A constant" in err and "'poschl_teller'" in err
        assert not out.exists()


class TestReport:
    def test_poschl_teller_report(self, tmp_path, capsys, monkeypatch):
        calls = count_builds(monkeypatch)
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=3000, solve__k_states=5,
            outputs="discrepancy", out__dir=str(tmp_path / "out"),
        )
        assert main(["report", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "interleaved" in out
        assert os.path.exists(tmp_path / "out" / "discrepancy.csv")
        assert len(calls) == 1

    @pytest.mark.parametrize("mode_args", [[], ["--mode", "exact"]])
    def test_discrepancy_header_names_approximate_mode(self, tmp_path, mode_args):
        # the report compares the approximate potential under every mode
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=800, solve__k_states=2,
            outputs="discrepancy", out__dir=str(tmp_path / "out"),
        )
        assert main(["report", "--config", cfg, *mode_args]) == 0
        with open(tmp_path / "out" / "discrepancy.csv", encoding="utf-8") as fh:
            assert "# mode = approximate" in fh.read().splitlines()

    def test_poschl_teller_exact_report(self, tmp_path, capsys):
        # exact mode matches level k to the ladder's n = k, with no published label
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=2000, solve__k_states=4,
            out__dir=str(tmp_path / "out"),
        )
        assert main(["report", "--config", cfg, "--mode", "exact"]) == 0
        out = capsys.readouterr().out
        assert "s+2n" not in out and "interleaved" not in out
        levels = [line.split() for line in out.splitlines()
                  if line.startswith("  level ")]
        assert len(levels) == 4
        for k, words in enumerate(levels):
            assert words[1] == f"{k}:" and words[4] == f"n={k}"

    def test_poschl_teller_levels_beside_published_family(self, tmp_path, capsys):
        # each level matches its full-ladder entry; only even ones are in s + 2n
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="poschl_teller", model__alpha=1.3, model__v0=0.8,
            model__m0=2.1, grid__n=2000, solve__k_states=4,
            out__dir=str(tmp_path / "out"),
        )
        assert main(["report", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "s (verified) = 1.76789556809606" in out
        assert "s (as-published) = 3.21852901400739" in out
        levels = [line for line in out.splitlines() if line.startswith("  level ")]
        assert len(levels) == 4
        for k, line in enumerate(levels):
            assert f"matches n={k} " in line
            assert line.endswith(f", published n={k // 2}" if k % 2 == 0 else ", interleaved")

    @pytest.mark.parametrize("mode_args", [[], ["--mode", "exact"]])
    @pytest.mark.parametrize("name,params,claimed", [
        ("cosh_square", dict(model__alpha=1.0, model__v0=1.0, model__m0=0.7), True),
        ("cosh_square", dict(model__alpha=1.0, model__v0=1.0, model__m0=0.0), False),
        ("rational", dict(model__alpha=1.2, model__v0=0.9, model__m0=1.5), True),
        ("constant_rest", dict(model__m0=1.0, model__c=1.0), True),
    ])
    def test_constant_u_report(self, tmp_path, capsys, name, params, claimed, mode_args):
        cfg = write_config(tmp_path / "c.txt", model__name=name, grid__n=800,
                           outputs="discrepancy", out__dir=str(tmp_path / "out"), **params)
        assert main(["report", "--config", cfg, *mode_args]) == 0
        out = capsys.readouterr().out
        path = tmp_path / "out" / "discrepancy.csv"
        assert path.exists() == claimed
        if claimed:
            assert out.startswith("potential vs constant A^2: ")
            with open(path, encoding="utf-8") as fh:
                assert "# mode = approximate" in fh.read().splitlines()
        else:
            assert "identically zero" in out

    def test_linear_singular_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="linear_singular", model__A=1.0, model__v0=1.0,
            grid__n=800, solve__k_states=3, outputs="discrepancy",
            out__dir=str(tmp_path / "out"),
        )
        assert main(["report", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "as-published" in out or "as_published" in out
        assert "exponential" in out
