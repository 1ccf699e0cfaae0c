"""The CI workflow parses as YAML, its benchmark runs cover exactly the declared workloads, its
tier-1 job pins the BLAS/OpenMP pools to one thread as the benchmark does and runs one-shot
solves, a scipy.linalg import check and a non-finite config in a fresh interpreter, and the
benchmark's layer tracer still finds every name it wraps in the package."""

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
    assert "scipy.linalg.lapack.dstebz is diracpd.eigensolver._dstebz" in run
    # every cell of every table both solves write, the potential's among them,
    # is the %.17g text of its value
    assert "'outputs = spectrum, potential, wavefunctions'" in run
    assert 'glob.glob(os.path.join(sys.argv[1], "out-*", "*.csv"))' in run
    assert "assert len(paths) == 10" in run
    assert 'assert cell == "%.17g" % float(cell)' in run
    # a non-finite config number exits 2, also under --strict
    assert "echo 'compare.tol = nan'; } > \"$RUNNER_TEMP/nan.cfg\"" in run
    assert re.search(r'--config "\$RUNNER_TEMP/nan\.cfg" --strict .*\|\| status=\$\?', run)
    assert run.rstrip().endswith('test "$status" -eq 2')


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
    # the calls solve_approximate makes by name: two wall probes (the first edge probe
    # finds the 1/sin^2 wall), the grid's potential and one solve_fixed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_APPROXIMATE_SOLVE], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "1"]
