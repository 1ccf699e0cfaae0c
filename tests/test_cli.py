import dataclasses
import gc
import math
import os
import types
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from diracpd import (QGrid, build_transform, builtin_model, cli, eigensolver, errors, potential,
                     profiles, spinor, transform)
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


def assert_plain_grid(path):
    """The '#' header of ``path`` names no grid_offset, and its %.17g grid cells
    (which round-trip) give h = (q_hi - q_lo) / (n + 1) exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        header = [line[2:].rstrip("\n") for line in fh if line.startswith("#")]
    assert not any("grid_offset" in line for line in header), header
    cells = dict(line.split(" = ", 1) for line in header if " = " in line)
    assert float(cells["grid_h"]) == ((float(cells["q_hi"]) - float(cells["q_lo"]))
                                      / (int(cells["grid_n"]) + 1)), cells


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

    @pytest.mark.parametrize("key,choices", [("mode", cli._MODES),
                                             ("analytic__variant", cli._VARIANTS),
                                             ("outputs", cli._OUTPUTS)])
    def test_unknown_choice_names_the_choices(self, tmp_path, capsys, key, choices):
        # one check for every key whose values --help lists
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square", model__alpha=1.0,
                           model__v0=1.0, model__m0=0.0, **{key: "magic"})
        assert main(["solve", "--config", cfg]) == 2
        assert (f"config key '{key.replace('__', '.')}': unknown value 'magic' "
                f"(choose from {', '.join(choices)})") in capsys.readouterr().err

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
        # free cases: one level at the rest energy; massless linear_singular's has
        # no closed form (the published radicand is negative), so --strict skips it.
        # Asked for a potential and wavefunctions as well, the run names them as
        # not written and why, writes spectrum.csv alone, and still exits 0
        skipped = ("potential and wavefunctions not written: the free case has no grid "
                   "and no bound state\n")
        for params, rest in ((dict(model__name="constant_rest", model__m0=1.0, model__c=1.0), 1.0),
                             (dict(model__name="linear_singular", model__A=0.0, model__v0=1.0),
                              0.0)):
            for outputs in ("spectrum", "spectrum, potential, wavefunctions"):
                out = tmp_path / params["model__name"] / str(len(outputs))
                cfg = write_config(tmp_path / "c.txt", **params, compare__tol="1e-10",
                                   outputs=outputs, out__dir=str(out))
                assert main(["solve", "--config", cfg, "--strict"]) == 0
                printed = capsys.readouterr().out
                assert "free constant-mass case, no bound spectrum" in printed
                assert "nan" not in printed
                assert (skipped in printed) == ("potential" in outputs)
                assert printed.count("not written") == ("potential" in outputs)
                assert os.listdir(out) == ["spectrum.csv"]
                _, rows = read_rows(out / "spectrum.csv")
                assert len(rows) == 1
                assert float(rows[0][2]) == rest
                assert float(rows[0][3]) == -rest

    def test_rational_approximate_mode_takes_the_wall_grid(self, tmp_path):
        # V = (m0 v0^2)^2 is flat up to the finite q-walls, so the probe must
        # not call them singular: the plain grid puts the walls where they
        # are. Spot-checking the far probe nodes (|x| ~ 1e7) needs the map's
        # integral across the peak of 1/v_F at x = 0, which QUADPACK missed.
        alpha, v0, m0 = 0.8, 1.5, 0.6
        cfg = write_config(tmp_path / "c.txt", model__name="rational", model__alpha=alpha,
                           model__v0=v0, model__m0=m0, mode="approximate", grid__n=2000,
                           solve__k_states=3, outputs="spectrum",
                           out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 0
        assert_plain_grid(tmp_path / "out" / "spectrum.csv")
        _, rows = read_rows(tmp_path / "out" / "spectrum.csv")
        for k, row in enumerate(rows, start=1):
            assert float(row[2]) == pytest.approx(math.hypot(k * alpha * v0, m0 * v0 * v0),
                                                  rel=1e-9)

    def test_band_solve_takes_the_plain_grid(self, tmp_path):
        # g = 0.6, in the g < 1 band of poschl_teller's 1/sin walls: the plain grid
        # meets compare.tol = 1e-5 under --strict (its worst rel dev is about 4e-6)
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1.0,
                           model__v0=1.0, model__m0=0.6, mode="approximate", grid__n=2000,
                           solve__k_states=3, compare__tol="1e-5", outputs="spectrum",
                           out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg, "--strict"]) == 0
        assert_plain_grid(tmp_path / "out" / "spectrum.csv")

    def test_wall_probe_failure_is_not_a_singular_wall(self, tmp_path, capsys, monkeypatch):
        # only a DomainError (probe nodes rounding onto a wall) or a SingularNodeError
        # leaves a wall's coefficient unread; any other failure propagates
        def failing(exc):
            def field_of(probe):
                raise exc
            return field_of

        for exc in (errors.DomainError("on the wall"), errors.SingularNodeError("overflow")):
            assert eigensolver._hardy_check(failing(exc), 0.0, 1.0) is None
        with pytest.raises(QuadratureFailureError):
            eigensolver._hardy_check(failing(QuadratureFailureError("forced", partial=0.0)),
                                     0.0, 1.0)

        def flat(value):
            # V = value on each wall probe, which takes one call
            def field_of(probe):
                assert probe.n == 3
                return types.SimpleNamespace(values=np.full(probe.n, value))
            return field_of

        # a finite or NaN V at the walls reads no c below -1/4
        assert eigensolver._hardy_check(flat(1.0), 0.0, 1.0) is None
        assert eigensolver._hardy_check(flat(math.nan), 0.0, 1.0) is None

        real = eigensolver.approx_potential

        def probe_fails(model, grid, tmap, also=(), **family):
            if 3 in (g.n for g in (grid, *also)):
                raise QuadratureFailureError("forced probe failure", partial=0.0)
            return real(model, grid, tmap, also, **family)

        monkeypatch.setattr(eigensolver, "approx_potential", probe_fails)
        cfg = write_config(tmp_path / "c.txt", model__name="rational", model__alpha=0.8,
                           model__v0=1.5, model__m0=0.6, mode="approximate", grid__n=400,
                           solve__k_states=1, out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "QuadratureFailureError" in err and "forced probe failure" in err

    def test_levels_that_do_not_rise_are_named(self, tmp_path, capsys):
        # at g = 1e6 the states are narrower than a step of n = 400: E2 < E1 is
        # printed as the grid's failure, and --strict adds it to its causes;
        # at n = 2000 the levels rise and no such line is printed
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1,
                           model__v0=1, model__m0=1e6, grid__n=400, solve__k_states=3,
                           out__dir=str(tmp_path / "out"))
        line = ("levels 1 and 2 do not rise: the grid of n = 400 nodes does not resolve "
                "these states")
        assert main(["solve", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert [row.split()[1] for row in captured.out.splitlines()[2:5]] == \
            ["999997.52637705684", "1000007.7509551087", "999987.29264095833"]
        assert captured.out.splitlines()[5] == line and not captured.err
        assert main(["solve", "--config", cfg, "--strict"]) == 4
        captured = capsys.readouterr()
        assert line in captured.out.splitlines()
        assert captured.err == ("strict comparison failed: worst rel dev 1.521e-05 > 1e-05; "
                                + line + "\n")
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1,
                           model__v0=1, model__m0=1e6, grid__n=2000, solve__k_states=3,
                           out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg, "--strict"]) == 0
        assert "do not rise" not in capsys.readouterr().out
        # at g = 1e8 and n = 2000 every level lies within 1e-5 (worst 5.38e-7), yet
        # E2 < E1: --strict fails on that line alone, and without it the run exits 0
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1,
                           model__v0=1, model__m0=1e8, grid__n=2000, solve__k_states=3,
                           out__dir=str(tmp_path / "out"))
        line = ("levels 1 and 2 do not rise: the grid of n = 2000 nodes does not resolve "
                "these states")
        assert main(["solve", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert [row.split()[1] for row in captured.out.splitlines()[3:5]] == \
            ["100000030.82993484", "99999948.665976435"]
        assert captured.out.splitlines()[5] == line and not captured.err
        spectrum = (tmp_path / "out" / "spectrum.csv").read_bytes()
        assert main(["solve", "--config", cfg, "--strict"]) == 4
        assert capsys.readouterr().err == "strict comparison failed: " + line + "\n"
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == spectrum

    def test_a_grid_the_host_cannot_hold_is_a_config_error(self, tmp_path, capsys,
                                                           monkeypatch):
        # numpy's MemoryError (no array is allocated here) exits 2, its byte count kept
        why = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and "
               "data type float64")

        def refuse(*args, **kwargs):
            raise MemoryError(why)

        monkeypatch.setattr(cli, "solve_approximate", refuse)
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1,
                           model__v0=1, model__m0=2, mode="approximate",
                           grid__n=1000000000000, solve__k_states=3,
                           out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: grid.n = 1000000000000: {why}\n"

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

    @pytest.mark.parametrize("mode", ["constant-u", "exact"])
    def test_massless_poschl_teller_strict(self, tmp_path, capsys, mode):
        # m0 = 0: u = 0, so the reference is the free Dirac ladder alpha v0 (n + 1)
        # of the q-box, and --strict compares every level with it
        keys = dict(model__name="poschl_teller", model__alpha=1.3, model__v0=0.8,
                    model__m0=0.0, grid__n=2000, solve__k_states=3, mode=mode,
                    outputs="spectrum", out__dir=str(tmp_path / "out"))
        cfg = write_config(tmp_path / "c.txt", compare__tol="1e-10", **keys)
        assert main(["solve", "--config", cfg, "--strict"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        for k, row in enumerate(rows):  # 1.04, 2.08, 3.12
            assert float(row[2]) == pytest.approx(1.3 * 0.8 * (k + 1), rel=1e-15)
            assert float(row[3]) <= 1e-12
        # a tolerance under the solve's rounding fails: the levels are compared
        cfg = write_config(tmp_path / "c.txt", compare__tol="1e-16", **keys)
        assert main(["solve", "--config", cfg, "--strict"]) == 4

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


def per_cell_csv(header, names, columns):
    """The per-cell rule the writer must reproduce: %.17g for a float, str for anything else."""
    rows = [[f"{c:.17g}" if isinstance(c, float) else str(c) for c in row]
            for row in zip(*columns, strict=True)]
    return ("\n".join([*header, ",".join(names), ""])
            + "".join(",".join(r) + "\n" for r in rows)).encode("utf-8")


@pytest.fixture
def formatted(monkeypatch):
    """|x| of the cells each chunk runs through the digit arithmetic."""
    seen, significands = [], cli._csvfloat._significands
    monkeypatch.setattr(cli._csvfloat, "_significands",
                        lambda v, pow10: seen.append(v.copy()) or significands(v, pow10))
    return seen


def same_cells(formatted, *columns):
    """Whether the formatted cells are, as a multiset, the nonzero cells of ``columns``."""
    cells = np.abs(np.concatenate(columns))
    return np.array_equal(np.sort(np.concatenate(formatted or [[]])), np.sort(cells[cells != 0]))


class TestWriter:
    def write(self, tmp_path, names, columns, *cells):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["# t"], names, columns, *cells)
        assert path.read_bytes() == per_cell_csv(["# t"], names, columns)
        return path

    def test_columns_byte_identical_to_per_cell_format(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1 / 3, 1e-5,
                  1e16, 1e17, 123456789012345678.0, np.float64(2.5)]
        ints = [np.int64(-7), 3, np.int64(2**62), 0, -1, 10**17, np.int64(1),
                2, 4, 5, 6, np.int64(0)]
        ready = [f"c{i}" for i in range(len(floats))]
        # repeated past two row chunks of the writer
        floats, ints, ready = floats * 700, ints * 700, ready * 700
        self.write(tmp_path, ("f", "i", "s"), (np.array(floats), np.array(ints), ready))
        assert [cli._fmt(c) for c in floats] == [f"{c:.17g}" for c in floats]

    def test_zero_columns_keep_their_signs(self, tmp_path):
        signs = np.where(np.arange(3 * cli._CSV_CHUNK) % 7 < 3, -0.0, 0.0)
        with_nan = np.zeros(signs.size)
        with_nan[cli._CSV_CHUNK + 5] = math.nan
        path = self.write(tmp_path, ("z", "n", "p"), (signs, with_nan, -0.0 * with_nan))
        _, rows = read_rows(path)
        assert [r[0] for r in rows] == ["-0" if np.signbit(v) else "0" for v in signs]
        assert rows[cli._CSV_CHUNK + 5][1:] == ["nan", "nan"]
        assert {r[1] for r in rows} == {"0", "nan"} and {r[2] for r in rows} == {"-0", "nan"}

    def test_zero_chunks_beside_nonzero_chunks(self, tmp_path, numpy_chunks, formatted):
        # all zeros of both signs, then nonzero cells, then all -0: only nonzero
        # cells run through the digits, sparse zeros among them
        n = cli._CSV_CHUNK
        values = np.random.default_rng(6).standard_normal(3 * n)
        mixed = np.concatenate([np.where(np.arange(n) % 3, 0.0, -0.0), values[n:2 * n],
                                np.full(n, -0.0)])
        sparse = values.copy()
        sparse[::7], sparse[3::7] = 0.0, -0.0
        self.write(tmp_path, ("m", "s", "v"), (mixed, sparse, values))
        assert len(numpy_chunks) == 3 and all(numpy_chunks)
        assert same_cells(formatted, mixed, sparse, values)

    def test_bit_equal_columns_share_cells(self, tmp_path, formatted):
        a, b, c = np.random.default_rng(7).standard_normal((3, 2 * cli._CSV_CHUNK + 5))
        cells = {}
        self.write(tmp_path, ("a", "b"), (a, b), cells)
        assert same_cells(formatted, a, b)
        formatted.clear()
        # equal columns in distinct arrays, in other places of the table, take the
        # kept cells; a table written without the cells formats them again
        self.write(tmp_path, ("c", "b", "a"), (c, b.copy(), a.copy()), cells)
        assert same_cells(formatted, c)
        formatted.clear()
        self.write(tmp_path, ("a", "b"), (a, b))
        assert same_cells(formatted, a, b)

    def test_a_changed_cell_is_formatted_anew(self, tmp_path, formatted, numpy_chunks):
        n = cli._CSV_CHUNK
        a = np.random.default_rng(8).standard_normal(3 * n)
        a[5] = 0.0
        cells = {}
        self.write(tmp_path, ("a",), (a,), cells)
        # one ulp off, or -0 for 0 (value-equal, not the same cell): that chunk only
        for at, value in ((n + 3, np.nextafter(a[n + 3], np.inf)), (5, -0.0)):
            changed = a.copy()
            changed[at] = value
            formatted.clear()
            self.write(tmp_path, ("a",), (changed,), cells)
            assert same_cells(formatted, changed[at // n * n:(at // n + 1) * n])
        # a NaN sends its chunk to the template; the others take the kept cells
        changed = a.copy()
        changed[n + 5] = math.nan
        formatted.clear()
        numpy_chunks.clear()
        self.write(tmp_path, ("a",), (changed,), cells)
        assert [text is not None for text in numpy_chunks] == [True, False, True]
        assert formatted == []

    @pytest.mark.parametrize("rows", [0, 1, cli._CSV_CHUNK - 1, cli._CSV_CHUNK,
                                      cli._CSV_CHUNK + 1, 2 * cli._CSV_CHUNK + 1])
    def test_row_counts(self, tmp_path, rows):
        values = np.linspace(-1.0, 1.0, rows) ** 3
        self.write(tmp_path, ("f", "z", "i", "s"),
                   (values, np.zeros(rows), np.arange(rows), [f"c{i}" for i in range(rows)]))

    def test_int_and_bool_columns_beside_ready_cells(self, tmp_path):
        rows = cli._CSV_CHUNK + 3
        ints = np.arange(rows, dtype=np.int64) * -(2**40)
        bools = np.arange(rows) % 3 == 0
        self.write(tmp_path, ("s", "i", "b", "t", "f"),
                   ([f"{v:.3f}" for v in range(rows)], ints, bools,
                    tuple(f"t{i}" for i in range(rows)), ints / 7.0))

    @pytest.mark.parametrize("length", [4, 6])
    def test_ragged_table_raises(self, tmp_path, length):
        with pytest.raises(ValueError, match=f"'b' has {length} rows, column 'a' 5"):
            cli._write_csv(str(tmp_path / "t.csv"), [], ("a", "b"),
                           (np.zeros(5), np.ones(length)))

    def test_artifacts_follow_per_cell_format(self, tmp_path, monkeypatch):
        # record each table's (path, header, names, columns) while writing it
        calls, write = [], cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda *args: (calls.append(args), write(*args)))
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=300, solve__k_states=3, bic__energies="1.5, 2.5",
            outputs="spectrum, potential, wavefunctions, bic",
            out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg]) == 0
        cfg = write_config(
            tmp_path / "r.txt",
            model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=800, solve__k_states=2,
            outputs="discrepancy", out__dir=str(tmp_path / "out"),
        )
        assert main(["report", "--config", cfg]) == 0
        written = {os.path.basename(path): args for path, *args in calls}
        assert sorted(written) == sorted(
            ["spectrum.csv", "potential.csv", "discrepancy.csv", "bic_0.csv", "bic_1.csv"]
            + [f"wavefunction_{k}.csv" for k in range(3)])
        negative_zeros = 0
        for name, (header, names, columns, *_) in written.items():
            path = tmp_path / "out" / name
            assert path.read_bytes() == per_cell_csv(header, names, columns), name
            if not name.startswith(("wavefunction_", "bic_")):
                continue
            _, rows = read_rows(path)
            for col in ("re_psi2", "j"):
                values = columns[names.index(col)]
                assert not values.any()
                cells = [r[names.index(col)] for r in rows]
                assert [c == "-0" for c in cells] == np.signbit(values).tolist()
                negative_zeros += int(np.signbit(values).sum())
        assert negative_zeros > 0

    def test_solve_shares_x_and_q_columns(self, tmp_path, monkeypatch, formatted):
        calls, write = [], cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda *args: (calls.append(args), write(*args)))
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
        # the solve formats q once (potential.csv) and x once (wavefunction_0.csv),
        # though each wavefunction holds x and q in arrays of its own
        tables = {os.path.basename(path): columns for path, _, _, columns, *_ in calls}
        grid, field = tables["potential.csv"]
        distinct = [grid, field, tables["wavefunction_0.csv"][0]]
        for k in range(3):
            x_k, q_k, *rest = tables[f"wavefunction_{k}.csv"]
            assert np.array_equal(x_k, distinct[2]) and np.array_equal(q_k, grid)
            assert k == 0 or x_k is not distinct[2]
            distinct += rest
        assert same_cells(formatted, *distinct)

    def test_only_grid_cells_outlive_their_table(self, tmp_path, monkeypatch):
        # n = 2500 (three chunks): after the potential table the cells hold q's
        # chunks alone, after each wavefunction table q's and x's alone, and every
        # table is per-cell exact
        calls, held, write = [], [], cli._write_csv

        def spy(*args):
            held.append({kept.tobytes() for v in args[4].values() for kept, _ in v})
            calls.append(args)
            write(*args)

        monkeypatch.setattr(cli, "_write_csv", spy)
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=2500, solve__k_states=3,
            outputs="potential, wavefunctions", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg]) == 0
        cells = calls[-1][4]
        held.append({kept.tobytes() for v in cells.values() for kept, _ in v})
        x, q = calls[1][3][:2]

        def chunks(column):
            return {column[i:i + cli._CSV_CHUNK].tobytes()
                    for i in range(0, column.size, cli._CSV_CHUNK)}

        assert [os.path.basename(args[0]) for args in calls] == [
            "potential.csv", "wavefunction_0.csv", "wavefunction_1.csv", "wavefunction_2.csv"]
        assert len(chunks(q)) == 3
        assert held == [set(), chunks(q)] + [chunks(q) | chunks(x)] * 3
        for path, header, names, columns, *_ in calls:
            with open(path, "rb") as fh:
                assert fh.read() == per_cell_csv(header, names, columns), path

    def test_two_solves_in_one_process(self, tmp_path, monkeypatch, formatted):
        # each solve's cells live for that solve: the first grid solved again
        # formats as many cells as at first, and every table is per-cell exact
        calls, write = [], cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda *args: (calls.append(args), write(*args)))
        cells = []
        for run, n in enumerate((300, 301, 300)):
            cfg = write_config(
                tmp_path / f"c{run}.txt",
                model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
                model__m0=1.0, grid__n=n, solve__k_states=2,
                outputs="potential, wavefunctions", out__dir=str(tmp_path / f"out{run}"),
            )
            formatted.clear()
            assert main(["solve", "--config", cfg]) == 0
            cells.append(sum(len(v) for v in formatted))
        assert cells[0] == cells[2] != cells[1]
        for path, header, names, columns, *_ in calls:
            with open(path, "rb") as fh:
                assert fh.read() == per_cell_csv(header, names, columns), path
        for name in os.listdir(tmp_path / "out0"):
            assert (tmp_path / "out0" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def float_table(values, columns=8):
    """``values`` cycled into a float64 table past two writer chunks."""
    values = np.asarray(values, dtype=float)
    rows = max(2 * cli._CSV_CHUNK + 1, -(-values.size // columns))
    table = np.resize(values, rows * columns).reshape(rows, columns)
    return [table[:, j] for j in range(columns)]


@pytest.fixture
def numpy_chunks(monkeypatch):
    """Each ``_csvfloat.rows`` result: bytes (formatted in numpy) or None (template)."""
    results, rows = [], cli._csvfloat.rows
    monkeypatch.setattr(cli._csvfloat, "rows", lambda *args: results.append(rows(*args))
                        or results[-1])
    return results


def exact_ties(rng, count):
    """Doubles (2j+1) / 2^(k+1) in [10^(16-k), 10^(17-k)), k = 1..22: times
    10^k each is an integer plus one half, an exact tie at 17 digits."""
    out = []
    for k in range(1, 23):
        lo = math.ceil(Fraction(10) ** (16 - k) * 2 ** k)
        hi = min(math.floor(Fraction(10) ** (17 - k) * 2 ** k), 2 ** 51)
        out.append((2 * rng.integers(lo, hi, count) + 1) / 2.0 ** (k + 1))
    return np.concatenate(out)


class TestFloatTables:
    """Float-only tables, the numpy path's input, against the per-cell oracle."""

    def write(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        names = [f"c{j}" for j in range(len(columns))]
        cli._write_csv(str(path), ["# t"], names, columns)
        cells = [c.tolist() for c in columns]  # the cells as Python floats
        assert path.read_bytes() == per_cell_csv(["# t"], names, cells)

    def test_random_bit_patterns(self, tmp_path, numpy_chunks):
        bits = np.random.default_rng(1).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        self.write(tmp_path, float_table(values))
        # NaN, inf, subnormal or beyond 1e280 in every chunk
        assert numpy_chunks and not any(numpy_chunks)
        numpy_chunks.clear()
        size = np.abs(values)
        self.write(tmp_path, float_table(values[(size >= 1e-280) & (size <= 1e280)]))
        assert len(numpy_chunks) > 2 and all(numpy_chunks)

    def test_forty_ulps_around_every_power_of_ten(self, tmp_path, numpy_chunks):
        powers = np.array([float(f"1e{k}") for k in range(-279, 280)])
        near = np.concatenate([powers.view(np.int64) + d for d in range(-40, 41)])
        values = near.view(np.float64)
        self.write(tmp_path, float_table(np.concatenate([values, -values])))
        # every exact power of ten, 1e20 among them, is formatted in numpy
        numpy_chunks.clear()
        for power in powers:
            self.write(tmp_path, [np.array([power, -power])])
        assert len(numpy_chunks) == powers.size and all(numpy_chunks)

    def test_exact_ties_and_their_eighths(self, tmp_path, numpy_chunks):
        ties = exact_ties(np.random.default_rng(2), 300)
        assert all((Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))).denominator == 2
                   for v in ties[::50])
        self.write(tmp_path, float_table(np.concatenate([ties, -ties, ties / 8])))
        # ties at k = 16 - E <= 22 are decided exactly, in numpy
        assert all(numpy_chunks)
        # the only ties past 10^22, which no double holds: the template decides them
        numpy_chunks.clear()
        inexact = np.array([j / 2.0 ** 24 for j in range(3, 17, 2)] + [2.0 ** -25, 3 / 2.0 ** 25])
        self.write(tmp_path, float_table(inexact))
        assert numpy_chunks and not any(numpy_chunks)

    @pytest.mark.parametrize("digits", range(6))
    def test_short_decimals(self, tmp_path, digits, numpy_chunks):
        values = np.random.default_rng(3 + digits).uniform(-1e4, 1e4, 20_000)
        values = np.round(values * 10.0 ** np.arange(-8, 8).repeat(1250), digits)
        self.write(tmp_path, float_table(values))
        assert all(numpy_chunks)

    def test_edge_values(self, tmp_path, numpy_chunks):
        edges = [0.0, -0.0, 1e-280, -1e-280, 1e280, -1e280, 1e-5, 1e16, 1e17, 0.1]
        self.write(tmp_path, float_table(edges, columns=3))
        assert all(numpy_chunks)
        numpy_chunks.clear()
        beyond = [5e-324, -5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
        self.write(tmp_path, float_table(edges + beyond, columns=4))
        assert numpy_chunks[:2] == [None, None]

    def test_float32_columns(self, tmp_path, numpy_chunks):
        # a float32 cell is written as its (exact) double's %.17g
        values = np.random.default_rng(4).standard_normal(6000) * 10.0 ** np.arange(-30, 30).repeat(100)
        self.write(tmp_path, [c.astype(np.float32) for c in float_table(values, columns=4)])
        assert numpy_chunks == []


class TestNumpyPath:
    def test_solve_formats_every_chunk_in_numpy(self, tmp_path, numpy_chunks):
        cfg = write_config(
            tmp_path / "c.txt",
            model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
            model__m0=1.0, grid__n=600, solve__k_states=3, bic__energies="1.5, 2.5",
            outputs="potential, wavefunctions, bic", out__dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", cfg]) == 0
        chunks = 0
        for path in (tmp_path / "out").iterdir():
            _, rows = read_rows(path)
            chunks += -(-len(rows) // cli._CSV_CHUNK)
        assert chunks > 6 and len(numpy_chunks) == chunks
        assert all(numpy_chunks)

    def test_a_nan_sends_only_its_chunk_to_the_template(self, tmp_path, numpy_chunks):
        columns = float_table(np.random.default_rng(5).standard_normal(3 * cli._CSV_CHUNK * 4),
                              columns=4)
        columns[2][cli._CSV_CHUNK + 7] = math.nan
        TestFloatTables().write(tmp_path, columns)
        assert [text is not None for text in numpy_chunks] == [True, False, True]


class TestSolveReuse:
    """Work a solve does once: u on the interior sample, the base-grid field,
    and in exact mode one inversion of the map."""

    PT = dict(model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
              model__m0=1.0, grid__n=300, solve__k_states=2)

    def test_u_sample_evaluated_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(real):
            def call(model, x):
                if np.size(x) == profiles._SAMPLE_N:
                    calls.append(model.params["m0"])
                return real(model, x)
            return call

        for module in (profiles, potential, eigensolver, spinor):
            for name in ("product_u", "u_values"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(profiles, name)))
        cfg = write_config(tmp_path / "c.txt", **self.PT, out__dir=str(tmp_path / "out"),
                           outputs="spectrum, potential, wavefunctions")
        assert main(["solve", "--config", cfg]) == 0
        assert calls == [1.0]
        args = cli._make_parser().parse_args(["scan", "--config", cfg, "--axis", "m0=1:2:2"])
        rows = cli._scan_point(cli.build_run_config(cli.parse_config(cfg), args), 1.5,
                               cli._Held(None))
        assert [row[4] for row in rows] == ["ok", "ok"]
        assert calls == [1.0, 1.5]

    @pytest.mark.parametrize("name,mode,builder", [
        ("poschl_teller", "approximate", "approx_potential"),
        ("cosh_square", "auto", "constant_u_potential"),
    ])
    def test_potential_export_writes_the_solved_field(self, tmp_path, monkeypatch,
                                                      name, mode, builder):
        grids = []
        # approximate mode builds its potential in the eigensolver, constant-u mode in the cli
        module = eigensolver if builder == "approx_potential" else cli
        real = getattr(module, builder)

        def counted(*args, **kwargs):
            field = real(*args, **kwargs)
            grids.append(field.grid)
            return field

        monkeypatch.setattr(module, builder, counted)
        cfg = write_config(tmp_path / "c.txt", **dict(self.PT, model__name=name), mode=mode,
                           outputs="potential", out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 0
        base = [g for g in grids if g.n == 300]
        assert len(base) == 1
        _, rows = read_rows(tmp_path / "out" / "potential.csv")
        monkeypatch.undo()
        args = cli._make_parser().parse_args(["solve", "--config", cfg])
        outcome = cli.run_solve_pipeline(cli.build_run_config(cli.parse_config(cfg), args))
        assert outcome.grid == base[0]
        fresh = (eigensolver.approx_potential(outcome.model, outcome.grid, outcome.tmap)
                 if builder == "approx_potential"
                 else cli.constant_u_potential(outcome.a_const, outcome.grid))
        assert [r[1] for r in rows] == [cli._fmt(v) for v in fresh.values.tolist()]

    def test_exact_solve_inverts_the_map_once(self, tmp_path, monkeypatch):
        sizes = []
        real = transform.TransformMap._solve

        def counted(tmap, q):
            sizes.append(q.size)
            return real(tmap, q)

        monkeypatch.setattr(transform.TransformMap, "_solve", counted)
        cfg = write_config(tmp_path / "c.txt", **self.PT, mode="exact",
                           outputs="potential, wavefunctions", out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 0
        assert sizes == [4 * 300 + 3]  # the fine lattice only
        # the x column is what a fresh map gives the phi1 nodes, byte for byte
        monkeypatch.undo()
        model = builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=1.0)
        tmap = build_transform(model.velocity, model.anchor)
        nodes = QGrid(tmap.q_lo, tmap.q_hi, 300).nodes
        x = [cli._fmt(v) for v in tmap.inverse_grid(nodes).tolist()]
        for k in range(2):
            _, rows = read_rows(tmp_path / "out" / f"wavefunction_{k}.csv")
            assert [r[0] for r in rows] == x


def spy_eigensolves(monkeypatch):
    """Log each LAPACK level call as (rows, select, select_range, tol, False),
    each vector step as (rows, levels, True) and each closed-form free solve
    as (n, k, computes vectors)."""
    calls = []
    real_tridiag, real_free = eigensolver.eigh_tridiagonal, eigensolver._free_eigs
    real_vectors = eigensolver._eigenvectors

    def tridiag(d, e, **kwargs):
        calls.append((d.size, kwargs["select"], tuple(kwargs["select_range"]),
                      kwargs.get("tol"), False))
        return real_tridiag(d, e, **kwargs)

    def vectors(d, e, w):
        calls.append((d.size, w.size, True))
        return real_vectors(d, e, w)

    def free(grid, k, with_vectors):
        calls.append((grid.n, k, with_vectors))
        return real_free(grid, k, with_vectors)

    monkeypatch.setattr(eigensolver, "eigh_tridiagonal", tridiag)
    monkeypatch.setattr(eigensolver, "_eigenvectors", vectors)
    monkeypatch.setattr(eigensolver, "_free_eigs", free)
    return calls


def solve_config(tmp_path, argv, **keys):
    """The RunConfig of ``solve --config <keys> argv``."""
    cfg = write_config(tmp_path / "c.txt", **keys, out__dir=str(tmp_path / "out"))
    args = cli._make_parser().parse_args(["solve", "--config", cfg, *argv])
    return cli.build_run_config(cli.parse_config(cfg), args)


class TestVectorsOnlyForWavefunctions:
    """Only the wavefunction lift reads eigenvectors: every solve makes the same
    level calls, with wavefunctions a vector step follows them, and the other
    outputs are the same bytes."""

    PT = dict(model__name="poschl_teller", model__alpha=1.0, model__v0=1.0, model__m0=1.0)

    @pytest.mark.parametrize("name,argv,rows", [
        ("poschl_teller", [], 300),  # approximate mode: the 300-node grid
        ("poschl_teller", ["--mode", "exact"], 601),  # the 601-site lattice
        ("cosh_square", [], None),  # constant-u: the DST-I table
    ], ids=["poschl_teller", "poschl_teller_exact", "cosh_square"])
    def test_solve_asks_for_vectors_with_wavefunctions_alone(self, tmp_path, monkeypatch,
                                                             name, argv, rows):
        rc = solve_config(tmp_path, argv, **dict(self.PT, model__name=name),
                          grid__n=300, solve__k_states=3)
        runs = []
        for outputs in (("spectrum", "potential"), ("spectrum", "potential", "wavefunctions")):
            runs.append(spy_eigensolves(monkeypatch))
            assert cli.cmd_solve(dataclasses.replace(rc, outputs=outputs)) == 0
            monkeypatch.undo()
        lean, full = runs
        assert lean and not any(call[-1] for call in lean)
        vectors = [call for call in full if call[-1]]
        if rows is None:  # the DST-I table with vectors in place of the one without
            assert vectors == [(300, 3, True)]
            assert [call[:-1] for call in full] == [call[:-1] for call in lean]
        else:  # the same level calls, then one vector step per parity block, on
            # levels 0 and 2 of one and level 1 of the other
            assert full[:len(lean)] == lean and full[len(lean):] == vectors
            assert sorted(call[1] for call in vectors) == [1, 2]
            assert sum(call[0] for call in vectors) == rows

    def test_scan_and_report_ask_for_no_vectors(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "c.txt", **self.PT, grid__n=300, solve__k_states=3,
                           out__dir=str(tmp_path / "out"))
        for mode in ("approximate", "exact"):
            calls = spy_eigensolves(monkeypatch)
            args = cli._make_parser().parse_args(["scan", "--config", cfg, "--axis", "m0=1:2:2",
                                                  "--mode", mode])
            rows = cli._scan_point(cli.build_run_config(cli.parse_config(cfg), args), 1.5,
                                   cli._Held(None))
            assert [row[4] for row in rows] == ["ok"] * 3
            assert main(["report", "--config", cfg, "--mode", mode]) == 0
            assert "level 2:" in capsys.readouterr().out
            assert calls and not any(call[-1] for call in calls), mode
            monkeypatch.undo()

    @pytest.mark.parametrize("name,params,argv,n", [
        ("cosh_square", dict(model__alpha=1.0, model__v0=1.0, model__m0=1.0), [], 500),
        ("rational", dict(model__alpha=1.2, model__v0=0.9, model__m0=1.5), [], 500),
        ("constant_rest", dict(model__m0=1.0, model__c=1.0), [], 500),
        ("poschl_teller", dict(model__alpha=1.0, model__v0=1.0, model__m0=1.0), [], 500),
        ("poschl_teller", dict(model__alpha=1.0, model__v0=1.0, model__m0=1.0),
         ["--mode", "exact"], 500),
        # the CI config at n = 8000: both runs take the grid ladder
        ("poschl_teller", dict(model__alpha=1.43, model__v0=1.9, model__m0=2.63),
         ["--mode", "approximate"], 8000),
    ], ids=["cosh_square", "rational", "constant_rest", "poschl_teller",
            "poschl_teller_exact", "poschl_teller_8000"])
    def test_levels_byte_identical_without_vectors(self, tmp_path, capsys, name, params, argv,
                                                   n):
        # the nodes column of spectrum.csv and stdout: the certified index
        # without vectors, the vector's sign changes with them
        rc = solve_config(tmp_path, argv, model__name=name, grid__n=n, solve__k_states=4,
                          **params)
        runs = []
        for tag, outputs in (("lean", ("spectrum", "potential")),
                             ("full", ("spectrum", "potential", "wavefunctions"))):
            out_dir = tmp_path / tag
            capsys.readouterr()
            assert cli.cmd_solve(dataclasses.replace(rc, outputs=outputs,
                                                     out_dir=str(out_dir))) == 0
            files = {f: (out_dir / f).read_bytes() for f in os.listdir(out_dir)
                     if not f.startswith("wavefunction_")}
            runs.append((capsys.readouterr().out, files))
        assert "spectrum.csv" in runs[0][1]
        assert runs[0] == runs[1]


class TestCommandLine:
    def test_parser_is_built_once(self):
        assert cli._make_parser() is cli._make_parser()

    def test_consecutive_calls_behave_as_fresh_processes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, grid__n=200, solve__k_states=2,
                           mode="approximate", compare__tol="1e-12", out__dir=str(out))
        runs = [
            (["solve", "--config", cfg, "--strict", "--states", "3"], 4, 3),
            (["solve", "--config", cfg], 0, 2),  # neither --strict nor --states stays
            (["scan", "--config", cfg, "--axis", "m0=1:2:2"], 0, None),
            (["solve", "--config", cfg, "--axis", "m0=1:2:2"], 2, None),
            (["scan", "--config", cfg], 2, None),  # the first scan's axis did not stay
        ]
        fresh = cli._make_parser.__wrapped__()
        for argv, code, levels in runs:
            assert vars(cli._make_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
            capsys.readouterr()
            assert main(argv) == code, argv
            err = capsys.readouterr().err
            if levels is not None:
                assert len(read_rows(out / "spectrum.csv")[1]) == levels
            if code == 2:
                assert err.startswith("config error")
                assert ("--axis" if "--axis" in argv else "scan.param") in err
        _, rows = read_rows(out / "scan.csv")
        assert [row[0] for row in rows] == ["1", "1", "2", "2"]

    @pytest.mark.parametrize("command", ["solve", "bic", "report"])
    def test_axis_outside_scan_exit_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, bic__energies=1.5,
                           out__dir=str(tmp_path / "out"))
        assert main([command, "--config", cfg, "--axis", "m0=0:1:3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "--axis" in err
        assert not (tmp_path / "out").exists()

    def test_help_names_commands_and_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, purpose in [("solve", "solve the spectrum and write artifacts"),
                              ("scan", "solve along one parameter axis"),
                              ("bic", "build continuum-family states at listed energies"),
                              ("report", "potential discrepancy adjudication")]:
            assert f"  {name} " in out and purpose in out
        assert "config keys:" in out and "model.name" in out
        keys = out[out.index("config keys:"):]
        # every mode, output, variant and default, from the constants the parser
        # and build_run_config read
        for word in (*cli._MODES, *cli._OUTPUTS, *cli._VARIANTS, *profiles.MODEL_NAMES):
            assert word in keys
        for key in ("mode", "grid.n", "solve.k_states", "compare.tol", "analytic.variant",
                    "outputs", "out.dir"):
            line = keys[keys.index(f"  {key} "):]
            assert line[:line.index("]") + 1].endswith(f"[{cli._DEFAULTS[key]}]"), key
        for default in ("[auto]", "[2000]", "[3]", "[1e-5]", "[verified]", "[spectrum]", "[out]"):
            assert default in keys
        # and a config that sets none of them runs with those values
        rc = cli.build_run_config({"model.name": "cosh_square"},
                                  cli._make_parser().parse_args(["solve", "--config", "c.txt"]))
        assert (rc.mode, rc.grid_n, rc.k_states, rc.compare_tol, rc.variant, rc.outputs,
                rc.out_dir) == ("auto", 2000, 3, 1e-5, "verified", ("spectrum",), "out")

    @pytest.mark.parametrize("argv", [["simulate", "--config", "c.txt"], ["solve"]])
    def test_bad_command_line_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: diracpd" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-6", "0"])
    def test_tol_quad_is_ignored(self, tmp_path, capsys, value):
        # an unknown key like any other: it enters the config hash and changes
        # no number (0 was a config error while the key was read)
        keys = dict(model__name="poschl_teller", model__alpha=1.43, model__v0=1.9,
                    model__m0=2.63, grid__n=200, mode="exact")
        rows = []
        for name, extra in (("plain", {}), ("quad", {"tol__quad": value})):
            cfg = write_config(tmp_path / f"{name}.txt", **keys, **extra,
                               out__dir=str(tmp_path / name))
            assert main(["solve", "--config", cfg]) == 0
            rows.append(read_rows(tmp_path / name / "spectrum.csv"))
        assert rows[0] == rows[1]
        hashes = [line for name in ("plain", "quad")
                  for line in (tmp_path / name / "spectrum.csv").read_text().splitlines()
                  if line.startswith("# config_hash")]
        assert hashes[0] != hashes[1]


# the error classes the command line reports with exit code 3
NUMERICAL_ERRORS = ["ApproximationInvalidError", "DomainError", "ZetaCrossingError",
                    "NonConvergenceError", "QuadratureFailureError", "ImaginaryEnergyError",
                    "SingularNodeError", "InsufficientResolutionError", "NonNormalizableError",
                    "SubGapError", "UnboundedBelowError"]


class TestExitCodes:
    def test_numerical_error_classes(self):
        classes = errors.NumericalError.__subclasses__()
        assert sorted(c.__name__ for c in classes) == sorted(NUMERICAL_ERRORS)
        # each keeps its builtin base, so existing handlers still catch it
        assert all(issubclass(c, (ValueError, RuntimeError)) for c in classes)

    @pytest.mark.parametrize("name,code,message", [
        *((name, 3, f"numerical failure: {name}: forced\n") for name in NUMERICAL_ERRORS),
        ("ConfigError", 2, "config error: forced\n")])
    def test_error_type_sets_exit_code(self, tmp_path, capsys, monkeypatch, name, code, message):
        def fail(*args, **kwargs):
            raise getattr(errors, name)("forced")

        monkeypatch.setattr(cli, "run_solve_pipeline", fail)
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == code
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("m0,unbounded", [(0.2, True), (0.26, False)])
    def test_wall_below_hardy_names_its_cause(self, tmp_path, capsys, m0, unbounded):
        # poschl_teller's walls have V ~ c / d^2, c = g^2 - 5/16: the wall probe
        # reads c = -0.2725 at g = 0.2, below -1/4, where V is unbounded below.
        # At g = 0.26 (c = -0.2449) V is bounded below and the plain grid solves,
        # its levels off by about 6e-2 (ROADMAP item 1), which --strict gates
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1.0,
                           model__v0=1.0, model__m0=m0, mode="approximate", grid__n=2000,
                           out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == (3 if unbounded else 0)
        err = capsys.readouterr().err
        assert ("UnboundedBelowError" in err) == unbounded
        assert ("unbounded below" in err and "-0.2725" in err) == unbounded
        assert main(["solve", "--config", cfg, "--strict"]) == (3 if unbounded else 4)

    @pytest.mark.parametrize("command,key,value", [
        ("solve", "compare.tol", "nan"), ("bic", "bic.energies", "nan"),
        ("bic", "bic.energies", "1.5, inf"), ("scan", "scan.min", "nan"),
        ("scan", "scan.max", "inf"), ("solve", "model.m0", "-inf")])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, command, key, value):
        # before: compare.tol = nan made --strict unfailable, a NaN energy wrote
        # an all-NaN bic CSV, and a NaN scan bound a scan of error rows, all exit 0
        keys = dict(model__name="cosh_square", model__alpha=1.0, model__v0=1.0,
                    model__m0=1.0, bic__energies=1.5, scan__param="m0", scan__min=0.5,
                    scan__max=1.0, scan__steps=2, out__dir=str(tmp_path / "out"))
        keys[key.replace(".", "__")] = value
        cfg = write_config(tmp_path / "c.txt", **keys)
        assert main([command, "--config", cfg, "--strict"]) == 2
        assert capsys.readouterr().err == f"config error: config key {key!r}: not finite\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_axis_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg, "--axis", "m0=0.5:nan:3"]) == 2
        assert capsys.readouterr().err == "config error: config key 'scan.max': not finite\n"


# exact mode over the five built-ins at edge parameters (n = 400): the model's
# nominal parameters, m0 = 0 (A = 0 for linear_singular), k_states = n // 2 + 1,
# and poschl_teller at g = m0 v0 / alpha in {0.3, 0.5, 1}
EXACT_SWEEP_MODELS = {
    "cosh_square": dict(alpha=1.1, v0=0.9, m0=0.7), "rational": dict(alpha=1.2, v0=1.1, m0=1.5),
    "poschl_teller": dict(alpha=1.0, v0=1.0, m0=2.0), "linear_singular": dict(A=1.0, v0=1.0),
    "constant_rest": dict(m0=1.0, c=1.0)}
RESOLUTION = ("numerical failure: InsufficientResolutionError: cannot resolve 201 states "
              "on 400 nodes")
# (model, edge, command, exit code, the cause: on stderr for an exit 3, else on stdout)
EXACT_SWEEP = [
    *((name, edge, "solve", 0, "mode=exact, grid n=400")
      for name in ("cosh_square", "rational", "poschl_teller")
      for edge in ("nominal", "massless")),
    *((name, "k_max", "solve", 3, RESOLUTION)
      for name in ("cosh_square", "rational", "poschl_teller")),
    # the infinite q-range is named before the resolution, which no n would mend
    *((name, edge, "solve", 3, f"numerical failure: DomainError: exact mode needs a finite "
                               f"q-range; {name} maps onto q-range (-inf, inf)")
      for name in ("linear_singular", "constant_rest")
      for edge in ("nominal", "massless", "k_max")),
    *((name, edge, "report", 0, "potential vs constant A^2: max |dV| = 0")
      for name in ("cosh_square", "rational", "constant_rest") for edge in ("nominal", "k_max")),
    *((name, "massless", "report", 0, "massless model: effective potential is identically zero")
      for name in EXACT_SWEEP_MODELS),
    ("poschl_teller", "nominal", "report", 0, "level 0: E=2.50000000000"),
    ("poschl_teller", "k_max", "report", 3, RESOLUTION),
    ("linear_singular", "nominal", "report", 0, "supports no bound states"),
    ("linear_singular", "k_max", "report", 0, "n=200: E = +/-"),
    ("poschl_teller", "g0.3", "solve", 0, "0  0.80772119515"),
    ("poschl_teller", "g0.3", "report", 0, "level 0: E=0.80772119515"),
    ("poschl_teller", "g0.5", "solve", 0, "0  1.00032598532"),
    ("poschl_teller", "g0.5", "report", 0, "level 0: E=1.00032598532"),
    ("poschl_teller", "g1", "solve", 0, "0  1.50000000000"),
    ("poschl_teller", "g1", "report", 0, "level 0: E=1.50000000000"),
]


class TestExactModeExitSweep:
    @pytest.mark.parametrize("name,edge,command,code,cause", EXACT_SWEEP,
                             ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in EXACT_SWEEP])
    def test_exit_code_and_cause(self, tmp_path, capsys, monkeypatch, name, edge, command, code,
                                 cause):
        params, k = dict(EXACT_SWEEP_MODELS[name]), 3
        if edge == "massless":
            params["A" if name == "linear_singular" else "m0"] = 0.0
        elif edge == "k_max":
            k = 400 // 2 + 1
        elif edge.startswith("g"):
            params["m0"] = float(edge[1:])  # alpha = v0 = 1
        cfg = write_config(tmp_path / "c.txt", model__name=name, grid__n=400, solve__k_states=k,
                           out__dir=str(tmp_path / "out"),
                           **{f"model__{key}": value for key, value in params.items()})
        # a range or resolution error comes before the lattice is built, so before
        # the closed form of a constant u is tried
        tried = []
        real = eigensolver._free_lattice
        monkeypatch.setattr(eigensolver, "_free_lattice",
                            lambda *args: tried.append(1) or real(*args))
        assert main([command, "--config", cfg, "--mode", "exact"]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith(cause + "\n") and not tried
        else:
            assert cause in out and err == ""


FREE_REST = dict(model__name="constant_rest", model__m0=1.0, model__c=1.0)
FREE_LINEAR = dict(model__name="linear_singular", model__A=0.0, model__v0=1.0)
MASSLESS_PT = dict(model__name="poschl_teller", model__alpha=1.0, model__v0=1.0, model__m0=0.0)
BIC_RANGE = ("numerical failure: DomainError: the bic family needs a finite q-range; {} maps "
             "onto q-range (-inf, inf)")
FREE_NOTE = "potential and wavefunctions not written: the free case has no grid and no bound state"
# A = m v_F^2 = 8.1e159 on cosh_square: a finite A whose square overflows, which no grid mends
OVERFLOW = dict(model__name="cosh_square", model__alpha=1.1, model__v0=0.9, model__m0=1e160,
                grid__n=400, solve__k_states=3)
SQUARE_OVERFLOW = ("numerical failure: SingularNodeError: {0} = m v_F^2 reaches 8.1e+159: {0}^2 "
                   "overflows a float, so no grid resolves the levels")
# (id, command, config, exit code, the cause: on stderr for an exit 3, else on stdout)
EDGE_SWEEP = [
    ("bic-infinite-range-constant_rest", "bic", dict(FREE_REST, bic__energies="2.0"), 3,
     BIC_RANGE.format("constant_rest")),
    ("bic-infinite-range-linear_singular", "bic", dict(FREE_LINEAR, bic__energies="2.0"), 3,
     BIC_RANGE.format("linear_singular")),
    ("report-massless-linear_singular", "report", FREE_LINEAR, 0,
     "massless model: effective potential is identically zero\npublished oscillator energies "
     "(as-published; the reduced potential is exponential and supports no bound states):\n"
     "  n=0: published spectrum gives E^2 = -0.0625 < 0 at n=0\n"),
    ("report-massless-poschl_teller", "report", MASSLESS_PT, 0,
     "massless model: effective potential is identically zero\ns (verified) = complex "
     "(radicand < 0), s (as-published) = complex (radicand < 0)\nnumeric levels vs the "
     "verified constant-u-mode reference:\n  level 0: E="),
    ("wall-g0.2-solve", "solve", dict(MASSLESS_PT, model__m0=0.2, mode="approximate", grid__n=2000),
     3, "numerical failure: UnboundedBelowError: wall coefficient c = V d^2 = -0.2725 < -1/4 at "
        "q = -1.5708: V is unbounded below at that wall, so it has no lowest level"),
    # a value just past its bound is printed on its side of it, not rounded onto it
    ("wall-g0.2499999-solve", "solve",
     dict(MASSLESS_PT, model__m0=0.2499999, mode="approximate", grid__n=2000), 3,
     "numerical failure: UnboundedBelowError: wall coefficient c = V d^2 = -0.25000005 < -1/4 "
     "at q = -1.5708: V is unbounded below at that wall, so it has no lowest level"),
    ("bic-subgap-cosh_square", "bic",
     dict(model__name="cosh_square", model__alpha=1.0, model__v0=1.0, model__m0=1.0,
          bic__energies="0.9999999"), 3,
     "numerical failure: SubGapError: E^2 = 0.9999998 < A^2 = 1"),
    ("free-note-constant_rest", "solve",
     dict(FREE_REST, outputs="spectrum, potential, wavefunctions"), 0, FREE_NOTE),
    ("free-note-linear_singular", "solve",
     dict(FREE_LINEAR, outputs="spectrum, potential, wavefunctions"), 0, FREE_NOTE),
    ("free-solve-bic-constant_rest", "solve",
     dict(FREE_REST, outputs="spectrum, bic", bic__energies="2.0"), 3,
     BIC_RANGE.format("constant_rest")),
    ("free-solve-bic-linear_singular", "solve",
     dict(FREE_LINEAR, outputs="spectrum, bic", bic__energies="2.0"), 3,
     BIC_RANGE.format("linear_singular")),
    ("overflow-constant-u", "solve", dict(OVERFLOW, mode="constant-u"), 3,
     SQUARE_OVERFLOW.format("A")),
    ("overflow-default-mode", "solve", OVERFLOW, 3, SQUARE_OVERFLOW.format("A")),
    ("overflow-exact", "solve", dict(OVERFLOW, mode="exact"), 3, SQUARE_OVERFLOW.format("u")),
    # approximate mode checks u on every grid it solves, with no numpy overflow warning
    ("overflow-approximate", "solve", dict(OVERFLOW, mode="approximate"), 3,
     SQUARE_OVERFLOW.format("u")),
    # 1/sin u: u^2 overflows on the wall probes, which read no coefficient there, and
    # the largest u of the solve's grids (the refined grid's, a refined step from the
    # wall) names the overflow
    ("overflow-approximate-poschl_teller", "solve",
     dict(OVERFLOW, model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
          mode="approximate"), 3,
     "numerical failure: SingularNodeError: u = m v_F^2 reaches 2.55285e+162: u^2 overflows "
     "a float, so no grid resolves the levels"),
    # the free case's rest energy A^2 overflows: no E = inf row
    ("overflow-free-constant_rest", "solve", dict(FREE_REST, model__m0=1e160), 3,
     "numerical failure: SingularNodeError: A = m v_F^2 reaches 1e+160: A^2 overflows a "
     "float, so no grid resolves the levels"),
]


class TestExitSweep:
    """Edge cases outside the exact-mode sweep, each with its exit code and the
    cause it names."""

    @pytest.mark.parametrize("command,keys,code,cause", [c[1:] for c in EDGE_SWEEP],
                             ids=[c[0] for c in EDGE_SWEEP])
    def test_exit_code_and_cause(self, tmp_path, capsys, command, keys, code, cause):
        cfg = write_config(tmp_path / "c.txt", out__dir=str(tmp_path / "out"), **keys)
        assert main([command, "--config", cfg]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith(cause + "\n")
        else:
            assert cause in out and err == ""


class TestSolveMemory:
    def test_solve_frees_its_map_without_cyclic_gc(self, tmp_path):
        # the map (inverse cache included) goes with the outcome by reference
        # counting, not at the next run of the cyclic collector
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, grid__n=200, solve__k_states=2,
                           mode="approximate", out__dir=str(tmp_path / "out"))
        rc = cli.build_run_config(cli.parse_config(cfg),
                                  cli._make_parser().parse_args(["solve", "--config", cfg]))
        gc.collect()
        gc.disable()
        try:
            outcome = cli.run_solve_pipeline(rc)
            assert outcome.mode == "approximate"
            tmap = weakref.ref(outcome.tmap)
            del outcome
            assert tmap() is None
        finally:
            gc.enable()


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

    def test_resume_appends_missing_rows(self, tmp_path, monkeypatch):
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
        # a file cut inside a row does not end in a newline: the fragment is
        # dropped, so no row is glued onto it, and the point it belonged to is
        # solved again when the rows left leave it short
        kwargs.update(model__name="poschl_teller", model__m0=2.0, grid__n=400,
                      solve__k_states=2, scan__min=2.0, scan__max=3.0, scan__steps=4)
        cfg = write_config(tmp_path / "c.txt", **kwargs)
        assert main(["scan", "--config", cfg]) == 0
        path = tmp_path / "out" / "scan.csv"
        full = path.read_bytes()
        lines = full.splitlines(keepends=True)
        second = next(i for i, line in enumerate(lines) if line.startswith(b"param")) + 3
        for row in (0, 1):  # cut 9 bytes into the second point's first or second row
            assert lines[second + row].split(b",")[1] == str(row).encode()
            path.write_bytes(b"".join(lines[:second + row]) + lines[second + row][:9])
            assert main(["scan", "--config", cfg]) == 0
            assert path.read_bytes() == full
        # a file that ends in a newline after some of a point's rows: the last
        # point counts as done only with k_states rows (or its one error row),
        # so the second point, holding row 0 of 2, is solved again
        path.write_bytes(b"".join(lines[:second + 1]))
        assert main(["scan", "--config", cfg]) == 0
        assert path.read_bytes() == full

        solves = []
        real, real_approximate = cli.run_solve_pipeline, cli.solve_approximate
        monkeypatch.setattr(cli, "run_solve_pipeline",
                            lambda *a, **kw: solves.append(a) or real(*a, **kw))
        # a point solved from the scan's family calls solve_approximate itself
        monkeypatch.setattr(cli, "solve_approximate", lambda *a, **kw: "family" in kw and
                            solves.append(a) or real_approximate(*a, **kw))
        # the free case writes one row a point, fewer than k_states = 3, so the
        # last point kept is solved again, and the file comes out the same; a
        # last point that holds its one error row (g = 0.1 < 1/4) is done
        for model, rows, kept, again in (
                (dict(model__name="constant_rest", model__c=1.0), 3, 2, 2),
                (dict(model__name="poschl_teller", model__alpha=1.0, model__v0=1.0), 7, 1, 2)):
            cfg = write_config(tmp_path / "c.txt", **model, model__m0=0.1, grid__n=400,
                               solve__k_states=3, scan__param="m0", scan__min=0.1,
                               scan__max=2.0, scan__steps=3, out__dir=str(tmp_path / "out"))
            assert main(["scan", "--config", cfg]) == 0
            full = path.read_bytes()
            lines = full.splitlines(keepends=True)
            first = next(i for i, line in enumerate(lines) if line.startswith(b"param")) + 1
            assert len(lines) == first + rows
            path.write_bytes(b"".join(lines[:first + kept]))
            del solves[:]
            assert main(["scan", "--config", cfg]) == 0
            assert path.read_bytes() == full and len(solves) == again
        assert b",-,nan,nan,error:UnboundedBelowError" in lines[first]

    def test_an_axis_the_host_cannot_hold_is_a_config_error(self, tmp_path, capsys,
                                                             monkeypatch):
        # numpy's MemoryError (no array is allocated here) names scan.steps, not grid.n
        why = ("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and "
               "data type float64")

        def refuse(*args, **kwargs):
            raise MemoryError(why)

        monkeypatch.setattr(np, "linspace", refuse)
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, scan__param="m0", scan__min=1.0,
                           scan__max=2.0, out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: config key 'scan.steps': {why}\n"

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

    def test_as_published_rows_follow_solve(self, tmp_path, capsys):
        # each row's E_analytic is the reference solve prints for that level,
        # nan where solve prints "interleaved" (the s + 2n family skips it)
        keys = dict(model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
                    model__m0=2.0, grid__n=400, solve__k_states=5,
                    analytic__variant="as-published", out__dir=str(tmp_path / "out"))
        cfg = write_config(tmp_path / "c.txt", **keys)
        assert main(["solve", "--config", cfg]) == 0
        table = [line.split() for line in capsys.readouterr().out.splitlines()[2:7]]
        assert main(["scan", "--config", cfg, "--axis", "m0=2:2.5:2"]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert [row[:3] for row in rows[:5]] == [["2", n, e] for n, e, *_ in table]
        written = [row[3] for row in rows[:5]]
        assert written == [ref.replace("interleaved", "nan") for _, _, ref, *_ in table]
        assert written.count("nan") == 2 and "nan" not in written[::2]

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
        # the first build is the reference's, ahead of the loop: it holds no map
        # and no family, so each point builds its own map and is solved afresh
        calls = count_builds(monkeypatch, fail_first=True)
        families = []
        real = cli.solve_approximate
        monkeypatch.setattr(cli, "solve_approximate", lambda *a, **kw:
                            families.append(kw.get("family")) or real(*a, **kw))
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, scan__param="m0",
                           scan__min=1.0, scan__max=2.0,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        assert len(calls) == 5
        assert families == [None] * 4
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert len(rows) == 8 and all(row[4] == "ok" for row in rows)

    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    def test_m0_scan_matches_fresh_map_solves(self, tmp_path, monkeypatch, mode):
        # m0 is poschl_teller's u_scale: in either mode the scan holds the map of
        # its reference, and exact mode holds nothing else
        calls = count_builds(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, scan__param="m0",
                           scan__min=1.0, scan__max=2.0, mode=mode,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        assert len(calls) == 1
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


# an 8-point m0 scan of poschl_teller at n = 2000, k = 3, the harness's shape:
# m0 = 0.75, 1, ..., 2.5 in steps of 1/4 (g = 0.92 to 3.06), r = 2 at m0 = 1.5
FAMILY_SCAN = dict(model__name="poschl_teller", model__alpha=0.9, model__v0=1.1,
                   model__m0=0.75, grid__n=2000, solve__k_states=3, scan__param="m0",
                   scan__min=0.75, scan__max=2.5, scan__steps=8)


def scan_config(tmp_path, **keys):
    return write_config(tmp_path / "c.txt", **dict(FAMILY_SCAN, **keys),
                        out__dir=str(tmp_path / "out"))


def fresh_levels(cfg, value):
    """E_plus cells of a fresh solve at the scan point ``value`` of ``cfg``'s axis."""
    rc = cli.build_run_config(cli.parse_config(cfg),
                              cli._make_parser().parse_args(["scan", "--config", cfg]))
    model = cli._build_model(rc, override={rc.scan_param: value})
    outcome = cli.run_solve_pipeline(rc, model=model, vectors=False)
    return [cli._fmt(e) for e, _ in outcome.result.energies]


def rows_follow_fresh_solves(cfg, rows, values, exact=(0.75, 1.5)):
    """Each point's E_numeric cells lie within 1e-12 of a fresh solve's, and equal
    them bit for bit at the values ``exact`` (the reference, r = 1, and r = 2)."""
    for value in values:
        cells = [row[2] for row in rows if row[0] == cli._fmt(value)]
        fresh = fresh_levels(cfg, value)
        if value in exact:
            assert cells == fresh, value
        for cell, e in zip(cells, fresh, strict=True):
            assert abs(float(cell) - float(e)) <= 1e-12 * float(e), value


class TestScanFamily:
    """A scan over the u scale holds W and S of its reference member, the
    nonzero axis value of least magnitude, and solves each point from
    V = W + r^2 S."""

    def test_rows_follow_fresh_solves(self, tmp_path):
        cfg = scan_config(tmp_path)
        assert main(["scan", "--config", cfg]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert len(rows) == 24 and all(row[4] == "ok" for row in rows)
        rows_follow_fresh_solves(cfg, rows, np.linspace(0.75, 2.5, 8))

    def test_a_descending_scan_holds_its_least_value(self, tmp_path, monkeypatch):
        # the reference is m0 = 0.75, the last point solved: each point is a solve
        # of the m0 = 0.75 model at r = m0 / 0.75, and its rows follow a fresh solve's
        calls = []
        real = cli.solve_approximate
        monkeypatch.setattr(cli, "solve_approximate", lambda model, *a, **kw:
                            calls.append((model.params["m0"], kw.get("r")))
                            or real(model, *a, **kw))
        cfg = scan_config(tmp_path, scan__min=2.5, scan__max=0.75)
        assert main(["scan", "--config", cfg]) == 0
        values = np.linspace(2.5, 0.75, 8)
        assert calls == [(0.75, value / 0.75) for value in values]
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert len(rows) == 24 and all(row[4] == "ok" for row in rows)
        rows_follow_fresh_solves(cfg, rows, values)

    def test_a_descending_scan_writes_what_solve_writes(self, tmp_path):
        # u's spread is relative, so m0 = 1e-14 is no more constant-u than m0 = 1:
        # both resolve approximate, and the least value's point raises what a solve
        # there raises (wall coefficient c = -0.3125 < -1/4: V is unbounded below)
        cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, grid__n=400, solve__k_states=2,
                           scan__param="m0", scan__min=1.0, scan__max=1e-14, scan__steps=2,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert len(rows) == 3 and [row[4] for row in rows[:2]] == ["ok", "ok"]
        assert [row[2] for row in rows[:2] if row[0] == "1"] == fresh_levels(cfg, 1.0)
        with pytest.raises(errors.UnboundedBelowError):
            fresh_levels(cfg, 1e-14)
        assert rows[2] == ["1e-14", "-", "nan", "nan", "error:UnboundedBelowError"]

    @pytest.mark.parametrize("resumed", [False, True])
    def test_v_is_formed_once_per_grid_per_point(self, tmp_path, monkeypatch, resumed):
        # each point forms V on its six grids (base, two probes, two ladder grids,
        # refined) once; the scan makes one pass, the first point's, over all six
        cfg = scan_config(tmp_path)
        if resumed:  # after the fourth point
            assert main(["scan", "--config", cfg]) == 0
            path = tmp_path / "out" / "scan.csv"
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(lines[:lines.index(b"param,n,E_numeric,E_analytic,"
                                                        b"status\n") + 1 + 12]))
        formed, passes = [], []
        real_member, real_pass = potential._member, potential._approx_pass
        monkeypatch.setattr(potential, "_member",
                            lambda *a: formed.append(a[0].size) or real_member(*a))
        monkeypatch.setattr(potential, "_approx_pass",
                            lambda model, grids, tmap: passes.append(len(grids))
                            or real_pass(model, grids, tmap))
        assert main(["scan", "--config", cfg]) == 0
        assert len(formed) == (24 if resumed else 48)
        assert sorted(set(formed)) == [3, 62, 125, 2000, 4001]
        assert passes == [6]

    def test_an_infinite_q_range_holds_no_family(self, tmp_path, monkeypatch):
        # linear_singular's q runs over the whole axis: each A is solved afresh,
        # and its row is the one a fresh solve gives (no bound state)
        families = []
        real = cli.solve_approximate
        monkeypatch.setattr(cli, "solve_approximate", lambda *a, **kw:
                            families.append(kw.get("family")) or real(*a, **kw))
        cfg = write_config(tmp_path / "c.txt", model__name="linear_singular", model__A=0.5,
                           model__v0=1.0, grid__n=400, solve__k_states=1, scan__param="A",
                           scan__min=0.5, scan__max=1.0, scan__steps=2,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        assert families == [None, None]
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        rc = cli.build_run_config(cli.parse_config(cfg),
                                  cli._make_parser().parse_args(["scan", "--config", cfg]))
        for value, row in zip((0.5, 1.0), rows, strict=True):
            with pytest.raises(errors.NumericalError) as info:
                cli.run_solve_pipeline(rc, model=cli._build_model(rc, override={"A": value}),
                                       vectors=False)
            assert row == [cli._fmt(value), "-", "nan", "nan",
                           f"error:{type(info.value).__name__}"]

    @pytest.mark.parametrize("cut", ["after the fourth point", "inside the fifth point"])
    def test_resumed_scan_writes_the_uninterrupted_bytes(self, tmp_path, monkeypatch, cut):
        cfg = scan_config(tmp_path)
        assert main(["scan", "--config", cfg]) == 0
        path = tmp_path / "out" / "scan.csv"
        full = path.read_bytes()
        lines = full.splitlines(keepends=True)
        fifth = next(i for i, line in enumerate(lines) if line.startswith(b"param")) + 1 + 12
        kept = b"".join(lines[:fifth])
        if cut == "inside the fifth point":
            kept += lines[fifth] + lines[fifth + 1][:9]
        path.write_bytes(kept)
        built = count_models(monkeypatch)
        assert main(["scan", "--config", cfg]) == 0
        assert path.read_bytes() == full
        # the reference is built again, not solved; then each point left
        assert len(built) == 1 + 4

    def test_one_pass_per_scan(self, tmp_path, monkeypatch):
        # the map's inversion and u_closed run for the reference's probes and grids
        # only, and u_closed's samples for its verdicts once; every point builds its model
        inversions, counts = [], []
        real_inverse = transform.TransformMap.inverse_grids

        def inverse_grids(self, qs, odd=()):
            inversions.append(len(qs))
            return real_inverse(self, qs, odd)

        def built(params, builder=profiles._BUILTINS["poschl_teller"]):
            model = builder(params)

            def u_closed(x, count, real=model.u_closed):
                counts.append(count)
                return real(x, count)
            return dataclasses.replace(model, u_closed=u_closed)

        monkeypatch.setattr(transform.TransformMap, "inverse_grids", inverse_grids)
        monkeypatch.setitem(profiles._BUILTINS, "poschl_teller", built)
        models = count_models(monkeypatch)
        cfg = scan_config(tmp_path)
        assert main(["scan", "--config", cfg]) == 0
        # one pass: the two wall probes, the 125-node ladder grid and the refined grid
        # inverted, the 62-node ladder grid and the base grid their odd nodes
        assert inversions == [4]
        assert sorted(counts) == [1, 1, 3]
        assert models == ["poschl_teller"] * 8

    @pytest.mark.parametrize("param", ["alpha", "v0"])
    def test_velocity_scans_solve_afresh(self, tmp_path, monkeypatch, param):
        families = []
        real = cli.solve_approximate
        monkeypatch.setattr(cli, "solve_approximate", lambda *a, **kw:
                            families.append(kw.get("family")) or real(*a, **kw))
        cfg = scan_config(tmp_path, scan__param=param, scan__min=0.8, scan__max=1.2,
                          scan__steps=3)
        assert main(["scan", "--config", cfg]) == 0
        assert families == [None] * 3
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        for value in np.linspace(0.8, 1.2, 3):
            assert [row[2] for row in rows if row[0] == cli._fmt(value)] == \
                fresh_levels(cfg, value)

    def test_zero_first_value_is_solved_afresh(self, tmp_path, monkeypatch):
        # m0 = 0 takes the massless path; the reference is the next value
        references = []
        real = cli.solve_approximate
        monkeypatch.setattr(cli, "solve_approximate", lambda model, *a, **kw:
                            references.append((model.params["m0"], kw.get("family") is not None,
                                               kw.get("r"))) or real(model, *a, **kw))
        cfg = scan_config(tmp_path, scan__min=0.0, scan__max=1.5, scan__steps=4)
        assert main(["scan", "--config", cfg]) == 0
        _, rows = read_rows(tmp_path / "out" / "scan.csv")
        assert references == [(0.5, True, 1.0), (0.5, True, 2.0), (0.5, True, 3.0)]
        for value in (0.0, 0.5, 1.0):  # the massless point, the reference and r = 2
            assert [row[2] for row in rows if row[0] == cli._fmt(value)] == \
                fresh_levels(cfg, value)


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

    def test_solve_output_requires_energies(self, tmp_path, capsys):
        # asked for with no energies, the output is a config error, not an empty one
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, outputs="spectrum, bic",
                           out__dir=str(out))
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("config error: config key 'bic.energies' "
                                           "is required for output 'bic'\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("params", [
        dict(model__name="constant_rest", model__m0=1.0, model__c=1.0),
        dict(model__name="linear_singular", model__A=0.0, model__v0=1.0),
    ])
    def test_infinite_q_range_exit_3(self, tmp_path, capsys, params):
        # both maps run over the whole q-axis, where the bic family's grid has no nodes;
        # solve reaches the bic output after its free-case spectrum
        for command, outputs in (("bic", "spectrum"), ("solve", "spectrum, bic")):
            cfg = write_config(tmp_path / "c.txt", bic__energies="2.0", outputs=outputs,
                               out__dir=str(tmp_path / command), **params)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([command, "--config", cfg]) == 3
            err = capsys.readouterr().err
            assert "DomainError" in err and "finite q-range" in err
            assert params["model__name"] in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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

    def test_levels_that_do_not_rise_are_named(self, tmp_path, capsys):
        # as solve names them: at g = 1e6 the states are narrower than a step of
        # n = 400, and E2 < E1 is named after the table; at g = 1.5 no line is
        line = ("levels 1 and 2 do not rise: the grid of n = 400 nodes does not resolve "
                "these states")
        for m0 in (1e6, 1.5):
            cfg = write_config(tmp_path / "c.txt", model__name="poschl_teller", model__alpha=1,
                               model__v0=1, model__m0=m0, grid__n=400, solve__k_states=3,
                               out__dir=str(tmp_path / "out"))
            assert main(["report", "--config", cfg]) == 0
            captured = capsys.readouterr()
            lines = captured.out.splitlines()
            assert not captured.err
            if m0 == 1e6:
                assert lines[-2] == ("  level 2: E=999987.29264095833 matches n=2 rel=1.52e-05, "
                                     "published n=1")
                assert lines[-1] == line
            else:
                assert lines[-1].startswith("  level 2: E=3.98686590240")
                assert "do not rise" not in captured.out

    def test_discrepancy_table_is_the_solve_potential(self, tmp_path):
        # report samples the approximate potential on the grid an approximate solve
        # takes, so its computed column is the solve's V, cell for cell
        params = dict(model__name="poschl_teller", model__alpha=1.0, model__v0=1.0,
                      model__m0=2.0, grid__n=2000, solve__k_states=3)
        cfg = write_config(tmp_path / "r.txt", outputs="discrepancy",
                           out__dir=str(tmp_path / "report"), **params)
        assert main(["report", "--config", cfg]) == 0
        cfg = write_config(tmp_path / "s.txt", outputs="spectrum, potential",
                           out__dir=str(tmp_path / "solve"), **params)
        assert main(["solve", "--config", cfg, "--mode", "approximate"]) == 0
        names, table = read_rows(tmp_path / "report" / "discrepancy.csv")
        assert names[:2] == ["q", "computed"]
        assert read_rows(tmp_path / "solve" / "potential.csv") == (
            ["q", "V"], [row[:2] for row in table])
        assert len(table) == 2000

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
        ("linear_singular", dict(model__A=0.0, model__v0=1.0), False),
        ("poschl_teller", dict(model__alpha=1.0, model__v0=1.0, model__m0=0.0), False),
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
        if name == "poschl_teller":  # its published family, beside the levels
            assert "s (verified) = complex" in out and "  level 2: E=" in out
            # massless: the levels match the free ladder, no published member
            assert "matches n=2 " in out and "published n=" not in out
            # approximate mode has no potential to solve without a mass
            assert main(["report", "--config", cfg, "--mode", "approximate"]) == 3
            assert "requires non-zero mass" in capsys.readouterr().err

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


def count_models(monkeypatch):
    """Record the name of every built-in model build, through each _BUILTINS entry."""
    built = []
    for name, builder in profiles._BUILTINS.items():
        def counted(params, name=name, builder=builder):
            built.append(name)
            return builder(params)
        monkeypatch.setitem(profiles._BUILTINS, name, counted)
    return built


class TestOneModelBuild:
    """The CLI reads references from the model it built; it never builds one again."""

    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    def test_solve(self, tmp_path, monkeypatch, mode):
        built = count_models(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, mode=mode,
                           outputs="spectrum, wavefunctions", out__dir=str(tmp_path / "out"))
        assert main(["solve", "--config", cfg]) == 0
        assert built == ["poschl_teller"]

    @pytest.mark.parametrize("mode_args", [[], ["--mode", "exact"]])
    def test_report(self, tmp_path, monkeypatch, mode_args):
        built = count_models(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", **PT_SCAN, out__dir=str(tmp_path / "out"))
        assert main(["report", "--config", cfg, *mode_args]) == 0
        assert built == ["poschl_teller"]

    def test_bic(self, tmp_path, monkeypatch):
        built = count_models(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", model__name="cosh_square", model__alpha=1.0,
                           model__v0=1.0, model__m0=1.0, bic__energies="1.5, 2.5",
                           out__dir=str(tmp_path / "out"))
        assert main(["bic", "--config", cfg]) == 0
        assert built == ["cosh_square"]

    def test_scan_builds_once_per_point(self, tmp_path, monkeypatch):
        built = count_models(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", **dict(PT_SCAN, scan__steps=8),
                           scan__param="m0", scan__min=1.0, scan__max=2.0,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        assert built == ["poschl_teller"] * 8

    def test_a_finished_scan_builds_nothing(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.txt", **dict(PT_SCAN, grid__n=400, scan__steps=3),
                           scan__param="m0", scan__min=1.0, scan__max=2.0,
                           out__dir=str(tmp_path / "out"))
        assert main(["scan", "--config", cfg]) == 0
        written = (tmp_path / "out" / "scan.csv").read_bytes()
        built, maps = count_models(monkeypatch), count_builds(monkeypatch)
        assert main(["scan", "--config", cfg]) == 0
        assert (built, maps) == ([], [])
        assert (tmp_path / "out" / "scan.csv").read_bytes() == written


# each built-in with its velocity parameter and its mass parameter (u_scale)
SCALED_MODELS = [
    ("cosh_square", dict(alpha=1.1, v0=0.9, m0=0.7), "v0", "m0"),
    ("rational", dict(alpha=0.8, v0=1.5, m0=0.6), "v0", "m0"),
    ("poschl_teller", dict(alpha=1.0, v0=1.0, m0=1.3), "v0", "m0"),
    ("linear_singular", dict(A=0.7, v0=1.3), "v0", "A"),
    ("constant_rest", dict(m0=1.0, c=1.0), "c", "m0"),
]


class TestScaleCovariance:
    """v_F -> 2^j v_F with m -> m / 2^j scales u = m v_F^2, and with it every
    level, by 2^j: the mode resolved, the exit code and every E_plus bit follow."""

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    @pytest.mark.parametrize("name,params,velocity,mass", SCALED_MODELS)
    def test_levels_scale_bit_for_bit(self, tmp_path, name, params, velocity, mass, mode):
        def run(j):
            scaled = dict(params, **{velocity: math.ldexp(params[velocity], j),
                                     mass: math.ldexp(params[mass], -j)})
            out = tmp_path / f"out{j}"
            cfg = write_config(tmp_path / f"c{j}.txt", model__name=name, grid__n=400,
                               solve__k_states=3, outputs="spectrum", mode=mode,
                               out__dir=str(out), **{f"model__{k}": v for k, v in scaled.items()})
            code = main(["solve", "--config", cfg])
            return code, (code or [float(row[2]) for row in read_rows(out / "spectrum.csv")[1]])

        code, levels = run(0)
        for j in (20, -20, 50, -50, 60, -60):
            assert run(j) == (code, levels if code else [math.ldexp(e, j) for e in levels]), j
