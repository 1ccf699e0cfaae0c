"""The CI workflow parses as YAML, its benchmark runs cover exactly the declared workloads, its
tier-1 job pins the BLAS/OpenMP pools to one thread as the benchmark does and is install plus
pytest (the CLI's fresh-interpreter runs are tests/test_fresh_process.py's table), and the
benchmark's layer tracer still finds every name it wraps in the package."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import test_fresh_process

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
    # the fresh interpreters run under the same pinning
    assert test_fresh_process.BLAS_PINNING == {var: str(value) for var, value in env.items()}


def test_tier1_is_install_plus_pytest():
    # the CLI runs in fresh interpreters from tests/test_fresh_process.py's table,
    # on every matrix entry and in every local tier-1 run, not from a CI step
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    runs = [step["run"] for step in workflow["jobs"]["tier1"]["steps"] if "run" in step]
    assert not any("diracpd.cli" in run for run in runs), runs
    assert len(runs) == 2 and "python -m pytest" in runs[1]
    assert [run.name for run in test_fresh_process.RUNS] == [
        "out-approximate", "out-exact", "out-constant-u", "out-exact-cosh", "cosh-lean",
        "out-ladder2000", "out-ladder2000-wf", "reference", "scan", "scan-resumed",
        "descending", "exact-scan", "exact-scan-resumed", "ladder", "ladder-wf", "lattice",
        "lattice-wf", "band", "band-wf", "band-approx", "unrisen", "subgap", "nan"]


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
