"""Check one job's exit code and CSV artifacts against the references.

Failure kinds, counted separately: ``exit_code`` (wrong exit status or
cause), ``tolerance`` (a level beyond compare.tol of its reference),
``artifact`` (missing, extra or malformed output), ``digest`` (bytes differ
from an earlier run of the same job) and ``exception`` (the call raised).
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import Dict, List, Tuple

from workloads import COMPARE_TOL, reference_levels, rel_err


def digests(out_dir: str) -> Tuple[Dict[str, str], int]:
    """sha256 of every CSV in out_dir, and the total bytes of all files."""
    out: Dict[str, str] = {}
    total = 0
    if not os.path.isdir(out_dir):
        return out, 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        total += len(data)
        if name.endswith(".csv"):
            out[name] = hashlib.sha256(data).hexdigest()
    return out, total


def _rows(path: str) -> List[List[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return [line.split(",") for line in lines[1:] if line]


class Verdict:
    """Failures of one job plus the worst level errors, split by band."""

    def __init__(self):
        self.failures: Dict[str, str] = {}
        self.unexpected = False
        self.max_err = 0.0          # levels expected within compare.tol
        self.max_err_defect = 0.0   # levels in the known-defect band

    def fail(self, kind: str, message: str, expected: bool = False) -> None:
        self.failures.setdefault(kind, message)
        self.unexpected = self.unexpected or not expected

    def level(self, label: str, value: float, ref: float, defect: bool) -> None:
        err = rel_err(value, ref)
        if defect:
            self.max_err_defect = max(self.max_err_defect, err)
        else:
            self.max_err = max(self.max_err, err)
        if not err <= COMPARE_TOL:
            self.fail("tolerance", f"{label}: E={value!r} ref={ref!r} rel={err:.3e}",
                      expected=defect)


def _expected_files(job: dict) -> List[str]:
    if job["command"] == "scan":
        return ["scan.csv"]
    if job["model"] == "linear_singular":
        return []
    names = []
    if "spectrum" in job["outputs"]:
        names.append("spectrum.csv")
    if "potential" in job["outputs"]:
        names.append("potential.csv")
    if "wavefunctions" in job["outputs"]:
        names += [f"wavefunction_{k}.csv" for k in range(job["k"])]
    names += [f"bic_{i}.csv" for i in range(job["bic"])]
    return sorted(names)


def check_job(job: dict, code: int, stderr: str, out_dir: str, verdict: Verdict) -> None:
    if code != job["expect_exit"]:
        stalled = (code == 3 and job["mode"] == "exact"
                   and "self-consistent iteration did not converge" in stderr)
        verdict.fail("exit_code", f"exit {code}, expected {job['expect_exit']}: "
                                  f"{stderr.strip()[:200]}", expected=stalled)
        return
    if job["expect_exit"] == 3 and not ("NonConvergenceError" in stderr and (
            "does not confine" in stderr or "did not settle" in stderr)):
        # expand_until_settled is the only source of these two messages
        verdict.fail("exit_code", f"exit 3 for another cause: {stderr.strip()[:200]}")
        return
    present = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if present != _expected_files(job):
        verdict.fail("artifact", f"files {present}, expected {_expected_files(job)}")
        return
    if job["command"] == "scan":
        _check_scan(job, os.path.join(out_dir, "scan.csv"), verdict)
    elif job["expect_exit"] == 0:
        _check_spectrum(job, os.path.join(out_dir, "spectrum.csv"), verdict)
        for name in present:
            if name.startswith("wavefunction_"):
                _check_state(os.path.join(out_dir, name), job["n"], verdict)
            elif name.startswith("bic_"):
                _check_state(os.path.join(out_dir, name), None, verdict)


def _check_spectrum(job: dict, path: str, verdict: Verdict) -> None:
    rows = _rows(path)
    refs = job["reference"]
    if len(rows) != len(refs):
        verdict.fail("artifact", f"{len(rows)} levels, expected {len(refs)}")
        return
    for k, (row, (ref, defect)) in enumerate(zip(rows, refs)):
        if job["model"] != "constant_rest" and int(row[4]) != k:
            verdict.fail("artifact", f"level {k} has {row[4]} nodes")
        verdict.level(f"level {k}", float(row[2]), ref, defect)


def _check_scan(job: dict, path: str, verdict: Verdict) -> None:
    rows = _rows(path)
    keys = list(dict.fromkeys(row[0] for row in rows))
    k_states = job["k"]
    steps = int(job["config"]["scan.steps"])
    if len(keys) != steps:
        verdict.fail("artifact", f"{len(keys)} scan points, expected {steps}")
        return
    if len(rows) != len(keys) * k_states:
        verdict.fail("artifact", f"{len(rows)} scan rows for {len(keys)} points")
        return
    params = dict(job["params"])
    for i, key in enumerate(keys):
        params["m0"] = float(key)
        refs = reference_levels(job["model"], job["mode"], params, k_states)
        for k, (ref, defect) in enumerate(refs):
            row = rows[i * k_states + k]
            if row[1] != str(k) or row[4] != "ok":
                verdict.fail("artifact", f"scan row {row}")
                continue
            verdict.level(f"m0={key} level {k}", float(row[2]), ref, defect)


def _check_state(path: str, nodes, verdict: Verdict) -> None:
    """A wavefunction or bic CSV: finite non-negative density, zero current."""
    rows = _rows(path)
    if not rows or (nodes is not None and len(rows) != nodes):
        verdict.fail("artifact", f"{os.path.basename(path)} has {len(rows)} rows, expected {nodes}")
        return
    rho = [float(r[6]) for r in rows]
    cur = [abs(float(r[7])) for r in rows]
    if not all(math.isfinite(v) for v in rho + cur):
        verdict.fail("artifact", "non-finite density or current")
    elif not (min(rho) >= 0.0 and max(rho) > 0.0 and max(cur) <= 1e-9 * max(rho)):
        # psi_1 is real and psi_2 imaginary, so these states carry no current
        verdict.fail("artifact", "negative or zero density, or non-zero current")
