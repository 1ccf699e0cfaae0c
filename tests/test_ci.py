"""The CI workflow parses as YAML, and its benchmark runs name declared workloads."""

import json
import pathlib
import re

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
