"""The CLI end to end, each run in a fresh interpreter: ``python -m diracpd.cli``
with ``PYTHONPATH=src`` and one BLAS/OpenMP thread, as tier-1 CI pins it.

Outside pytest's process, where scipy.linalg is loaded before the package, the
package binds LAPACK's dstebz/dgttrf/dgttrs from scipy's LAPACK extension on
whichever numpy and scipy are installed. RUNS is the scenario table: each row
is one run, in the order given (a resumed scan reads an earlier scan's output),
with the exit code, stderr text and row checks it must meet. A new case is one
more row.
"""

import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the tier-1 job's env, which tests/test_ci.py holds equal to this
BLAS_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ENV = dict(os.environ, **BLAS_PINNING,
           PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                    os.environ.get("PYTHONPATH")])))


@dataclass(frozen=True)
class Run:
    """One CLI run into the directory ``name``; an ``out-*`` one joins the cell check."""
    name: str
    config: Tuple[str, ...]  # config lines; a later key overrides an earlier one
    command: str = "solve"
    flags: Tuple[str, ...] = ()
    exit: int = 0
    stderr: str = ""  # text the run's stderr holds
    same_rows: Optional[str] = None  # a run whose spectrum.csv holds the same rows
    statuses: Tuple[str, ...] = ()  # a scan's rows' statuses, one per row
    carries: Tuple[Tuple[str, str], ...] = ()  # (scan point, run whose E_plus cells it holds)
    resumes: Optional[str] = None  # a scan it completes from a cut to its first point,
    # to the same scan.csv bytes
    plain_grid: bool = False  # its header's grid_h is (q_hi - q_lo) / (n + 1), no grid_offset


PT = ("model.name = poschl_teller", "model.alpha = 1.43", "model.v0 = 1.9", "model.m0 = 2.63",
      "grid.n = 400", "solve.k_states = 3", "outputs = spectrum, potential, wavefunctions")
COSH = ("model.name = cosh_square", "model.alpha = 1.1", "model.v0 = 0.9", "model.m0 = 0.7",
        "grid.n = 400", "solve.k_states = 3", "outputs = spectrum, potential, wavefunctions")


def unit_pt(m0, *lines):
    """poschl_teller at alpha = v0 = 1 (g = m0), n = 2000, k = 3: a scan point's size."""
    return ("model.name = poschl_teller", "model.alpha = 1", "model.v0 = 1", f"model.m0 = {m0}",
            "grid.n = 2000", "solve.k_states = 3", *lines)


SCAN = unit_pt(1, "scan.param = m0", "scan.min = 1", "scan.max = 2", "scan.steps = 3")
STRICT = ("--strict",)
SPECTRUM, WAVES = "outputs = spectrum", "outputs = spectrum, wavefunctions"
LADDER = PT + ("grid.n = 8000", SPECTRUM, "compare.tol = 1e-7")
LATTICE = PT + ("grid.n = 2000", SPECTRUM, "compare.tol = 1e-7")
BAND = unit_pt(0.9, "solve.k_states = 4", SPECTRUM, "compare.tol = 1e-7")

RUNS = (
    # every table an approximate and an exact solve write, the potential's among them
    Run("out-approximate", PT, flags=("--mode", "approximate")),
    Run("out-exact", PT, flags=("--mode", "exact")),
    # constant u: the closed-form levels' Richardson step, and a bic state (20001 rows,
    # three all-zero columns, many writer chunks)
    Run("out-constant-u", COSH + ("outputs = spectrum, potential, wavefunctions, bic",
                                  "bic.energies = 1.5"), flags=("--mode", "constant-u")),
    # the lattice's closed-form levels and vectors for a constant u, no LAPACK call
    Run("out-exact-cosh", COSH, flags=("--mode", "exact", *STRICT)),
    Run("cosh-lean", COSH + (SPECTRUM,), flags=("--mode", "exact", *STRICT),
        same_rows="out-exact-cosh"),
    # g = 2 at n = 2000 takes the grid ladder; the vectors come after the levels
    Run("out-ladder2000", unit_pt(2, SPECTRUM, "compare.tol = 1e-7"),
        flags=("--mode", "approximate", *STRICT)),
    Run("out-ladder2000-wf", unit_pt(2, WAVES, "compare.tol = 1e-7"),
        flags=("--mode", "approximate", *STRICT), same_rows="out-ladder2000"),
    Run("reference", unit_pt(1, SPECTRUM)),
    # a scan over poschl_teller's u_scale holds its reference m0 = 1's map and
    # potential family (V = W + r^2 S): its m0 = 2 rows (r = 2) are bit for bit a solve's
    Run("scan", SCAN, command="scan", statuses=("ok",) * 9,
        carries=(("1", "reference"), ("2", "out-ladder2000"))),
    Run("scan-resumed", SCAN, command="scan", resumes="scan"),
    # run down to m0 = 1e-14, its reference: u's spread is relative, so that point
    # resolves approximate as a solve there does, and exits 3 as it does (c = -0.3125)
    Run("descending", SCAN + ("scan.max = 1e-14", "scan.steps = 2"), command="scan",
        statuses=("ok",) * 3 + ("error:UnboundedBelowError",), carries=(("1", "reference"),)),
    # in exact mode the scan holds its reference's map alone
    Run("exact-scan", SCAN + ("mode = exact",), command="scan", statuses=("ok",) * 9),
    Run("exact-scan-resumed", SCAN + ("mode = exact",), command="scan", resumes="exact-scan"),
    # g = 3.49 at n = 8000: shifted solves (dgttrf/dgttrs) at Richardson predictions,
    # certified by Sturm counts and the Kato-Temple bound; a wrong level exits 4
    Run("ladder", LADDER, flags=("--mode", "approximate", *STRICT)),
    Run("ladder-wf", LADDER + (WAVES,), flags=("--mode", "approximate", *STRICT),
        same_rows="ladder"),
    # the lattice ladder, and in the g < 1 band, whose lattice error is not h^2
    Run("lattice", LATTICE, flags=("--mode", "exact", *STRICT)),
    Run("lattice-wf", LATTICE + (WAVES,), flags=("--mode", "exact", *STRICT), same_rows="lattice"),
    Run("band", BAND, flags=("--mode", "exact", *STRICT)),
    Run("band-wf", BAND + (WAVES,), flags=("--mode", "exact", *STRICT), same_rows="band"),
    # an approximate solve in the band meets compare.tol = 1e-5 on the plain grid
    Run("band-approx", unit_pt(0.6, SPECTRUM, "compare.tol = 1e-5"),
        flags=("--mode", "approximate", *STRICT), plain_grid=True),
    # levels within compare.tol that do not rise (E2 < E1) fail --strict
    Run("unrisen", unit_pt("1e8", SPECTRUM), flags=("--mode", "approximate", *STRICT), exit=4),
    # a bic state just under the gap A = 1 prints E^2 on its side of A^2
    Run("subgap", ("model.name = cosh_square", "model.alpha = 1", "model.v0 = 1",
                   "model.m0 = 1", "bic.energies = 0.9999999"), command="bic", exit=3,
        stderr="E^2 = 0.9999998 < A^2 = 1"),
    # a non-finite config number is a config error, also under --strict
    Run("nan", PT + ("compare.tol = nan",), flags=STRICT, exit=2),
)


def rows(path):
    """The lines of a CSV file that are not '#' comments, its column line first."""
    return [line for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
            if not line.startswith("#")]


def cells(path, column):
    return [line.rstrip("\n").split(",")[column] for line in rows(path)[1:]]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run every row in order; return the base directory and each run's process."""
    base = tmp_path_factory.mktemp("fresh")
    done = {}
    for run in RUNS:
        out, config = base / run.name, base / f"{run.name}.cfg"
        config.write_text("".join(line + "\n" for line in run.config), encoding="utf-8")
        if run.resumes:  # the comment lines, the column line and the first point's rows
            full = base / run.resumes / "scan.csv"
            first = rows(full)[1].split(",")[0]
            out.mkdir()
            (out / "scan.csv").write_text("".join(
                line for line in full.read_text(encoding="utf-8").splitlines(keepends=True)
                if line.startswith(("#", "param,")) or line.split(",")[0] == first),
                encoding="utf-8")
        done[run.name] = subprocess.run(
            [sys.executable, "-m", "diracpd.cli", run.command, "--config", str(config),
             "--out", str(out), *run.flags],
            env=ENV, cwd=base, capture_output=True, text=True, timeout=300)
    return base, done


@pytest.mark.parametrize("run", RUNS, ids=[run.name for run in RUNS])
def test_run(runs, run):
    base, done = runs
    proc = done[run.name]
    assert proc.returncode == run.exit, proc.stderr
    assert run.stderr in proc.stderr
    spectrum = base / run.name / "spectrum.csv"
    if run.same_rows:
        assert rows(spectrum)[1:] and rows(spectrum) == rows(base / run.same_rows / "spectrum.csv")
    scan = base / run.name / "scan.csv"
    if run.statuses:
        assert tuple(cells(scan, 4)) == run.statuses
    for point, solve in run.carries:
        assert [row.split(",")[2] for row in rows(scan)[1:] if row.split(",")[0] == point] \
            == cells(base / solve / "spectrum.csv", 2), point
    if run.resumes:
        assert scan.read_bytes() == (base / run.resumes / "scan.csv").read_bytes()
    if run.plain_grid:
        header = [line[2:].rstrip("\n") for line in spectrum.read_text(encoding="utf-8")
                  .splitlines() if line.startswith("#")]
        assert not any("grid_offset" in line for line in header), header
        keys = dict(line.split(" = ", 1) for line in header if " = " in line)
        assert float(keys["grid_h"]) == ((float(keys["q_hi"]) - float(keys["q_lo"]))
                                         / (int(keys["grid_n"]) + 1)), keys


def test_out_tables_hold_17g_cells(runs):
    # float tables are formatted in numpy (uint64 views, boolean indexing), on
    # whichever numpy is installed: every cell is the %.17g text of its value
    paths = sorted(runs[0].glob("out-*/*.csv"))
    assert len(paths) == 26, paths
    for path in paths:
        table = rows(path)[1:]
        assert table, path
        for line in table:
            for cell in line.rstrip("\n").split(","):
                assert cell == "%.17g" % float(cell), (path, cell)


def test_scipy_linalg_shares_the_packages_lapack():
    # a later import of scipy.linalg binds the extension the package loaded
    code = ("import diracpd, scipy.linalg\n"
            "assert hasattr(scipy.linalg, '_flapack')\n"
            + "".join(f"assert scipy.linalg.lapack.{name} is diracpd.eigensolver._{name}\n"
                      for name in ("dstebz", "dgttrf", "dgttrs")))
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_help_builds_the_parser_through_the_module_entry():
    proc = subprocess.run([sys.executable, "-m", "diracpd.cli", "--help"], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: diracpd")
