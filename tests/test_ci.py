"""The CI workflow parses as YAML, its benchmark runs cover exactly the declared workloads, its
tier-1 job pins the BLAS/OpenMP pools to one thread as the benchmark does and runs one-shot
solves, a scan and its resume, a scipy.linalg import check, a sub-gap bic state and a
non-finite config in a fresh interpreter, and the benchmark's layer tracer still finds every
name it wraps in the package."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workflow_parses_and_runs_declared_workloads():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    runs = "\n".join(step["run"] for job in workflow["jobs"].values()
                     for step in job["steps"] if "run" in step)
    named = re.findall(r"perfbench/run\.py --workload (\S+)", runs)
    declared = {w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    assert named, "the workflow runs no benchmark workload"
    assert set(named) <= declared, f"undeclared workloads: {sorted(set(named) - declared)}"
    # every one runs: exact_sc alone reaches the folded lattice, scan alone resumed scans
    assert declared <= set(named), f"workloads not run: {sorted(declared - set(named))}"
    # and every one runs traced, so that each keeps the tracer's by-name wraps under test
    traced = set(re.findall(r"perfbench/run\.py --workload (\S+) .*--trace 1\b", runs))
    assert declared <= traced, f"workloads never traced: {sorted(declared - traced)}"
    # and every one runs untraced, the timed path the benchmark measures
    untraced = set(re.findall(r"perfbench/run\.py --workload (\S+) .*--trace 0\b", runs))
    assert declared <= untraced, f"workloads never run untraced: {sorted(declared - untraced)}"


def test_tier1_pins_blas_threads():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    env = workflow["jobs"]["tier1"].get("env", {})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert str(env.get(var)) == "1", var
        assert var in (ROOT / "perfbench/run.py").read_text(encoding="utf-8")


def test_tier1_runs_one_shot_solves():
    # outside pytest's process, whose scipy.linalg is loaded before the package, on
    # every matrix entry (the scipy floor among them): approximate and exact mode
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if "python -m diracpd.cli solve" in step.get("run", "")]
    assert len(steps) == 1 and "if" not in steps[0]
    run = steps[0]["run"]
    assert "poschl_teller" in run and "grid.n = 400" in run
    assert re.search(r"for mode in approximate exact\b", run) and '--mode "$mode"' in run
    # a later import of scipy.linalg binds the extension the package loaded
    assert "python -c 'import diracpd, scipy.linalg" in run
    assert 'hasattr(scipy.linalg, "_flapack")' in run
    for routine in ("dstebz", "dgttrf", "dgttrs"):
        assert f"scipy.linalg.lapack.{routine} is diracpd.eigensolver._{routine}" in run
    # every cell of every table both solves write, the potential's among them,
    # is the %.17g text of its value
    assert "'outputs = spectrum, potential, wavefunctions'" in run
    assert 'glob.glob(os.path.join(sys.argv[1], "out-*", "*.csv"))' in run
    # a constant-u solve of cosh_square writes its closed-form levels' Richardson
    # step and a bic state (20001 rows, three all-zero columns) into the same out-*
    # directories, under the same cell check
    assert "'model.name = cosh_square'" in run and "'grid.n = 400'" in run
    assert re.search(r"cat \"\$RUNNER_TEMP/cosh\.cfg\"; echo 'outputs = spectrum, potential, "
                     r"wavefunctions, bic'; \\\s+echo 'bic\.energies = 1\.5'; } "
                     r"> \"\$RUNNER_TEMP/cosh-bic\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/cosh-bic\.cfg" --mode constant-u '
                     r'--out "\$RUNNER_TEMP/out-constant-u"', run)
    # and so does its exact solve under --strict, the lattice's closed form for a
    # constant u, whose spectrum rows equal the same solve's without wavefunctions
    assert re.search(r'--config "\$RUNNER_TEMP/cosh\.cfg" --mode exact --strict '
                     r'--out "\$RUNNER_TEMP/out-exact-cosh"', run)
    assert re.search(r"cat \"\$RUNNER_TEMP/cosh\.cfg\"; echo 'outputs = spectrum'; } "
                     r"> \"\$RUNNER_TEMP/cosh-lean\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/cosh-lean\.cfg" --mode exact --strict '
                     r'--out "\$RUNNER_TEMP/cosh-lean"', run)
    assert re.search(r'same_rows "\$RUNNER_TEMP/cosh-lean/spectrum\.csv" '
                     r'"\$RUNNER_TEMP/out-exact-cosh/spectrum\.csv"', run)
    # an n = 2000 approximate solve of poschl_teller at g = 2 takes the grid ladder
    # under --strict at compare.tol = 1e-7, and writes the same spectrum rows with
    # wavefunctions; its five tables join the cell check
    assert re.search(r"'model\.alpha = 1' 'model\.v0 = 1' \\\s+'model\.m0 = 2' "
                     r"'grid\.n = 2000' 'solve\.k_states = 3' 'outputs = spectrum' \\\s+"
                     r"'compare\.tol = 1e-7' > \"\$RUNNER_TEMP/ladder2000\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/ladder2000\.cfg" --mode approximate --strict '
                     r'--out "\$RUNNER_TEMP/out-ladder2000"', run)
    assert re.search(r"cat \"\$RUNNER_TEMP/ladder2000\.cfg\"; echo 'outputs = spectrum, "
                     r"wavefunctions'; } \\\s+> \"\$RUNNER_TEMP/ladder2000-wf\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/ladder2000-wf\.cfg" --mode approximate --strict '
                     r'--out "\$RUNNER_TEMP/out-ladder2000-wf"', run)
    assert re.search(r'same_rows "\$RUNNER_TEMP/out-ladder2000/spectrum\.csv" '
                     r'"\$RUNNER_TEMP/out-ladder2000-wf/spectrum\.csv"', run)
    assert run.index("out-ladder2000-wf\"") < run.index("glob.glob(")
    assert "assert len(paths) == 26" in run
    assert 'assert cell == "%.17g" % float(cell)' in run
    # an n = 8000 approximate solve of the same poschl_teller (g = 3.49)
    # runs the grid ladder's shifted solves; --strict at compare.tol = 1e-7
    # exits 4 on a wrong level
    assert re.search(r"cat \"\$RUNNER_TEMP/pt\.cfg\"; echo 'grid\.n = 8000'; "
                     r"echo 'outputs = spectrum'; \\\s+echo 'compare\.tol = 1e-7'; } "
                     r"> \"\$RUNNER_TEMP/ladder\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/ladder\.cfg" --mode approximate --strict ', run)
    # the same solve with wavefunctions writes the same spectrum rows: the vectors
    # come after the levels and do not move them
    assert re.search(r"cat \"\$RUNNER_TEMP/ladder\.cfg\"; echo 'outputs = spectrum, "
                     r"wavefunctions'; } \\\s+> \"\$RUNNER_TEMP/ladder-wf\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/ladder-wf\.cfg" --mode approximate --strict '
                     r'--out "\$RUNNER_TEMP/ladder-wf"', run)
    # one shell function compares every pair's spectrum rows
    assert "same_rows() { python -c 'import sys" in run and "' \"$@\"; }" in run
    assert run.index("same_rows() {") < run.index('same_rows "')
    assert 'if not line.startswith("#")]' in run
    assert run.count("assert rows[0] and rows[0] == rows[1], rows") == 1
    assert re.search(r'same_rows "\$RUNNER_TEMP/ladder/spectrum\.csv" '
                     r'"\$RUNNER_TEMP/ladder-wf/spectrum\.csv"', run)
    # an n = 2000 exact solve of the same model takes the lattice ladder, under
    # --strict at compare.tol = 1e-7, and writes the same spectrum rows with
    # wavefunctions
    assert re.search(r"cat \"\$RUNNER_TEMP/pt\.cfg\"; echo 'grid\.n = 2000'; "
                     r"echo 'outputs = spectrum'; \\\s+echo 'compare\.tol = 1e-7'; } "
                     r"> \"\$RUNNER_TEMP/lattice\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/lattice\.cfg" --mode exact --strict ', run)
    assert re.search(r"cat \"\$RUNNER_TEMP/lattice\.cfg\"; echo 'outputs = spectrum, "
                     r"wavefunctions'; } \\\s+> \"\$RUNNER_TEMP/lattice-wf\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/lattice-wf\.cfg" --mode exact --strict '
                     r'--out "\$RUNNER_TEMP/lattice-wf"', run)
    assert re.search(r'same_rows "\$RUNNER_TEMP/lattice/spectrum\.csv" '
                     r'"\$RUNNER_TEMP/lattice-wf/spectrum\.csv"', run)
    # an n = 2000, k = 4 exact solve in the g < 1 band (g = 0.9) takes the lattice
    # ladder under the same checks, with and without wavefunctions
    assert re.search(r"'model\.alpha = 1' 'model\.v0 = 1' \\\s+'model\.m0 = 0\.9' "
                     r"'grid\.n = 2000' 'solve\.k_states = 4' 'outputs = spectrum' \\\s+"
                     r"'compare\.tol = 1e-7' > \"\$RUNNER_TEMP/band\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/band\.cfg" --mode exact --strict '
                     r'--out "\$RUNNER_TEMP/band"', run)
    assert re.search(r"cat \"\$RUNNER_TEMP/band\.cfg\"; echo 'outputs = spectrum, "
                     r"wavefunctions'; } \\\s+> \"\$RUNNER_TEMP/band-wf\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/band-wf\.cfg" --mode exact --strict '
                     r'--out "\$RUNNER_TEMP/band-wf"', run)
    assert re.search(r'same_rows "\$RUNNER_TEMP/band/spectrum\.csv" '
                     r'"\$RUNNER_TEMP/band-wf/spectrum\.csv"', run)
    # an approximate solve in the g < 1 band meets compare.tol = 1e-5 on the plain
    # grid, outside the out-* directories the cell check reads
    assert re.search(r"'model\.m0 = 0\.6' 'grid\.n = 2000' 'solve\.k_states = 3' "
                     r"'outputs = spectrum' \\\s+'compare\.tol = 1e-5' "
                     r"> \"\$RUNNER_TEMP/band-approx\.cfg\"", run)
    assert re.search(r'--config "\$RUNNER_TEMP/band-approx\.cfg" --mode approximate --strict '
                     r'--out "\$RUNNER_TEMP/band-approx"', run)
    # its header names the plain grid: no grid_offset line, h = (q_hi - q_lo) / (n + 1)
    assert 'assert not any("grid_offset" in line for line in header), header' in run
    assert re.search(r'assert float\(cells\["grid_h"\]\) == \(\(float\(cells\["q_hi"\]\) - '
                     r'float\(cells\["q_lo"\]\)\)\s+/ \(int\(cells\["grid_n"\]\) \+ 1\)\), '
                     r'cells\' \\\s+"\$RUNNER_TEMP/band-approx/spectrum\.csv"', run)
    # an approximate solve at g = 1e8 and n = 2000, whose levels meet compare.tol
    # but do not rise, exits 4 under --strict, outside the out-* directories
    assert re.search(r"'model\.alpha = 1' 'model\.v0 = 1' \\\s+'model\.m0 = 1e8' "
                     r"'grid\.n = 2000' 'solve\.k_states = 3' 'outputs = spectrum' \\\s+"
                     r"> \"\$RUNNER_TEMP/unrisen\.cfg\"", run)
    unrisen = re.search(r'--config "\$RUNNER_TEMP/unrisen\.cfg" --mode approximate --strict '
                        r'--out "\$RUNNER_TEMP/unrisen" \|\| status=\$\?\ntest "\$status" -eq 4\n',
                        run)
    assert unrisen and unrisen.start() > run.index("glob.glob(")
    # a bic state of cosh_square just under the gap (E^2 < A^2 = 1) exits 3, and its
    # message prints E^2 on its side of A^2; it too writes outside the out-* directories
    assert re.search(r"'model\.name = cosh_square' 'model\.alpha = 1' 'model\.v0 = 1' \\\s+"
                     r"'model\.m0 = 1' 'bic\.energies = 0\.9999999' "
                     r"> \"\$RUNNER_TEMP/subgap\.cfg\"", run)
    subgap = re.search(r'python -m diracpd\.cli bic \\\s+--config "\$RUNNER_TEMP/subgap\.cfg" '
                       r'--out "\$RUNNER_TEMP/subgap" 2> "\$RUNNER_TEMP/subgap\.err" '
                       r'\|\| status=\$\?\ntest "\$status" -eq 3\n'
                       r"grep -qF 'E\^2 = 0\.9999998 < A\^2 = 1' \"\$RUNNER_TEMP/subgap\.err\"\n",
                       run)
    assert subgap and subgap.start() > run.index("glob.glob(")
    # the scan run down from m0 = 1 to 1e-14 in 2 steps holds its least value as its
    # reference, which resolves to constant-u mode as a solve there does: every row
    # reads ok, and its m0 = 1 rows carry the m0 = 1 solve's E_plus cells; it
    # writes outside the out-* directories
    assert re.search(r"cat \"\$RUNNER_TEMP/scan\.cfg\"; echo 'scan\.max = 1e-14'; "
                     r"echo 'scan\.steps = 2'; } \\\s+> \"\$RUNNER_TEMP/descending\.cfg\"", run)
    descending = re.search(r'python -m diracpd\.cli scan \\\s+--config '
                           r'"\$RUNNER_TEMP/descending\.cfg" '
                           r'--out "\$RUNNER_TEMP/descending"\n', run)
    assert descending and descending.start() > run.index('"$RUNNER_TEMP/reference"\n')
    assert 'assert len(rows) == 6 and all(row[4] == "ok" for row in rows), rows' in run
    assert re.search(r'"\$RUNNER_TEMP/descending/scan\.csv" '
                     r'"\$RUNNER_TEMP/reference/spectrum\.csv"\n', run)
    assert run.count('[row[2] for row in rows if row[0] == "1"] == '
                     '[row[2] for row in reference], rows') == 2
    # a non-finite config number exits 2, also under --strict
    assert "echo 'compare.tol = nan'; } > \"$RUNNER_TEMP/nan.cfg\"" in run
    assert re.search(r'--config "\$RUNNER_TEMP/nan\.cfg" --strict .*\|\| status=\$\?', run)
    assert run.rstrip().endswith('test "$status" -eq 2')


def test_tier1_runs_a_one_shot_scan():
    # a scan in a fresh interpreter, which keeps the map and its reference's
    # potential family between its points: its m0 = 1 rows (the reference) are a
    # solve's levels at m0 = 1, its m0 = 2 rows (r = 2) the ladder2000 solve's,
    # every row reads ok, and a scan.csv cut to its first point resumes to the
    # same bytes; neither its directory nor the m0 = 1 solve's is an out-* one, so
    # the cell check's 26 tables stay those of the solves
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    (step,) = [step for step in workflow["jobs"]["tier1"]["steps"]
               if "python -m diracpd.cli scan" in step.get("run", "")]
    run = step["run"]
    assert re.search(r"'model\.alpha = 1' 'model\.v0 = 1' \\\s+'model\.m0 = 1' "
                     r"'grid\.n = 2000' 'solve\.k_states = 3' 'scan\.param = m0' \\\s+"
                     r"'scan\.min = 1' 'scan\.max = 2' 'scan\.steps = 3' "
                     r"> \"\$RUNNER_TEMP/scan\.cfg\"", run)
    scans = re.findall(r'python -m diracpd\.cli scan \\\s+--config "\$RUNNER_TEMP/scan\.cfg" '
                       r'--out "\$RUNNER_TEMP/scan"', run)
    assert len(scans) == 2
    assert 'assert len(rows) == 9 and all(row[4] == "ok" for row in rows), rows' in run
    assert ('assert [row[2] for row in rows if row[0] == "2"] == '
            '[row[2] for row in spectrum], rows') in run
    assert re.search(r'"\$RUNNER_TEMP/scan/scan\.csv" '
                     r'"\$RUNNER_TEMP/out-ladder2000/spectrum\.csv"', run)
    # the reference: a solve at m0 = 1, run before the scan, outside the out-* directories
    assert re.search(r"'model\.alpha = 1' 'model\.v0 = 1' \\\s+'model\.m0 = 1' "
                     r"'grid\.n = 2000' 'solve\.k_states = 3' 'outputs = spectrum' \\\s+"
                     r"> \"\$RUNNER_TEMP/reference\.cfg\"", run)
    solve = re.search(r'python -m diracpd\.cli solve \\\s+--config "\$RUNNER_TEMP/reference\.cfg" '
                      r'--out "\$RUNNER_TEMP/reference"\n', run)
    assert solve and solve.start() < run.index("python -m diracpd.cli scan")
    assert ('assert [row[2] for row in rows if row[0] == "1"] == '
            '[row[2] for row in reference], rows') in run
    assert re.search(r'"\$RUNNER_TEMP/out-ladder2000/spectrum\.csv" \\\s+'
                     r'"\$RUNNER_TEMP/reference/spectrum\.csv"', run)
    cut = 'head -n -6 "$RUNNER_TEMP/scan-full.csv" > "$RUNNER_TEMP/scan/scan.csv"'
    assert cut in run and run.index("out-ladder2000-wf\"") < run.index("scan.cfg")
    assert run.index(cut) < run.rindex("python -m diracpd.cli scan")
    assert run.rstrip().count('cmp "$RUNNER_TEMP/scan/scan.csv" "$RUNNER_TEMP/scan-full.csv"') == 1
    assert "assert len(paths) == 26" in run and '"out-*", "*.csv"' in run
    # the same scan in exact mode holds the map of m0 = 1 alone (m0 is the model's
    # u_scale): every row reads ok, and cut to its first point it resumes to the
    # same bytes; it writes outside the out-* directories
    assert ("{ cat \"$RUNNER_TEMP/scan.cfg\"; echo 'mode = exact'; } "
            "> \"$RUNNER_TEMP/exact-scan.cfg\"") in run
    exact = re.findall(r'python -m diracpd\.cli scan \\\s+--config "\$RUNNER_TEMP/exact-scan\.cfg" '
                       r'--out "\$RUNNER_TEMP/exact-scan"\n', run)
    assert len(exact) == 2
    assert re.search(r'assert len\(rows\) == 9 and all\(row\[4\] == "ok" for row in rows\), '
                     r"rows' \\\s+\"\$RUNNER_TEMP/exact-scan/scan\.csv\"\n", run)
    cut = 'head -n -6 "$RUNNER_TEMP/exact-scan-full.csv" > "$RUNNER_TEMP/exact-scan/scan.csv"'
    assert run.index('cp "$RUNNER_TEMP/exact-scan/scan.csv" "$RUNNER_TEMP/exact-scan-full.csv"') \
        < run.index(cut) < run.rindex('--config "$RUNNER_TEMP/exact-scan.cfg"')
    assert run.rstrip().count('cmp "$RUNNER_TEMP/exact-scan/scan.csv" '
                              '"$RUNNER_TEMP/exact-scan-full.csv"') == 1


TRACED_APPROXIMATE_SOLVE = """
import tracer
spans = tracer.install().spans
from diracpd import build_transform, builtin_model, eigensolver
model = builtin_model("poschl_teller", alpha=1.0, v0=1.0, m0=1.5)
eigensolver.solve_approximate(model, build_transform(model.velocity, model.anchor), 400, 3)
print(spans["potential.build"][0], spans["eigensolver.solve_fixed"][0])
"""


def test_tracer_installs_against_src():
    # install() raises when a wrapped name (diracpd.eigensolver.eigh_tridiagonal
    # among them) is bound nowhere in the package; an approximate solve then records
    # the calls solve_approximate makes by name: one call of approx_potential (one
    # pass over the wall probes, the ladder and the refined grid, whose V the wall
    # check and solve_fixed read) and one solve_fixed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_APPROXIMATE_SOLVE], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]
