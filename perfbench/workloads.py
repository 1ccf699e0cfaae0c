"""Seeded job streams, closed-form references and output checks.

A job is one ``diracpd`` command line invocation: a subcommand, a flat
config and the outcome the benchmark expects. Jobs come in blocks; every
block holds the same strata (model, grid size, parameter band) with fresh
seed-drawn parameters, so every run has the same mix.

Parameters are drawn over each model's admissible range, inside the box
alpha, v0, c in [1/2, 2] and m0, A in [0, 2]. ``poschl_teller`` draws
g = m0 v0 / alpha in [1/2, 4], the range in which both references below
hold, as two bands, [1/2, 1) and [1, 4]; the first job of each band sits
on its lower edge (per grid size), where the error is largest.

Two known defects make some jobs fail. Such jobs count as failed, and
none is dropped, but they do not make a run incorrect:

* in the band g in [1/2, 1) the wall exponent drops below one and
  convergence falls below h^2, so levels there may miss ``compare.tol``;
* exact mode's fixed-point self-consistency can settle into a two-cycle
  wider than ``tol.sc`` and exit 3 with "self-consistent iteration did
  not converge".

Any other failure means the outputs are wrong.

References are independent of the package:

* cosh_square      E_n = hypot(n pi alpha v0 / 2, m0 v0^2),  n >= 1
* rational         E_n = hypot(n alpha v0, m0 v0^2),         n >= 1
* poschl_teller    approximate mode: E_n = (alpha v0 / 4) sqrt(1 + 16 (s + n)^2),
                   s = 1/2 + sqrt(g^2 - 1/16);  exact mode (trigonometric
                   Poschl-Teller, g >= 1/2): E_n = m0 v0^2 + alpha v0 (n + 1/2)
* constant_rest    the rest energy m0 c^2
* linear_singular  no bound states: the solve must exit 3
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional, Tuple

COMPARE_TOL = 1e-5
KNOWN_DEFECT_G = 1.0  # poschl_teller levels with g below this may miss COMPARE_TOL

WORKLOADS = ("spectrum", "exact_sc", "scan", "wavefunctions")

# Percentile reported as job_cpu_tail_ms, fixed per workload so that runs of
# different speed stay comparable. MIN_JOBS keeps at least ten timed jobs
# beyond it in every run. spectrum takes p90, not p85 (its run has room for
# more jobs beyond): there p85 falls on the edge between the n = 8000 and
# n = 32000 strata and moved 15 % from seed to seed, p90 9 %.
TAIL_PERCENTILE = {"spectrum": 90, "exact_sc": 85, "scan": 85, "wavefunctions": 85}
MIN_JOBS = {w: int(math.ceil(round(1000 / (100 - p), 9))) + 1 for w, p in TAIL_PERCENTILE.items()}

# Wall seconds of one block at the seed commit on a 2-core x86-64 host. A
# run of ``--seconds s`` times a fixed number of blocks, about s / BLOCK_SECONDS,
# so that one seed always runs the same jobs (and fails the same ones),
# however fast the host happens to be during the run.
BLOCK_SECONDS = {"spectrum": 2.6, "exact_sc": 1.3, "scan": 1.0, "wavefunctions": 1.95}
BLOCK_JOBS = {"spectrum": 15, "exact_sc": 6, "scan": 4, "wavefunctions": 6}
# Each stratum takes at least this many draws, so that its median holds
# still when its cost is bimodal in the parameters (linear_singular at
# n = 32000 takes 0.5 s or 1.1 s depending on v0).
MIN_DRAWS = 9


def measured_blocks(workload: str, seconds: float) -> int:
    """Number of blocks a run of ``seconds`` times."""
    return max(int(math.ceil(MIN_JOBS[workload] / BLOCK_JOBS[workload])), MIN_DRAWS,
               int(round(seconds / BLOCK_SECONDS[workload])))


# Blocks run by each phase of a traced run (a fixed job set, so that the
# per-layer counts repeat exactly for a seed).
TRACE_BLOCKS = {"spectrum": 2, "exact_sc": 2, "scan": 3, "wavefunctions": 2}

SPECTRUM_NS = (2000, 8000, 32000)
WAVEFUNCTION_NS = (2000, 8000)
SCAN_STEPS = 8


def _r(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def reference_levels(model: str, mode: str, params: Dict[str, float],
                     count: int) -> List[Tuple[float, bool]]:
    """(E_ref, known_defect) for levels k = 0..count-1 of the resolved mode."""
    p = params
    if model == "cosh_square":
        a, v0, m0 = p["alpha"], p["v0"], p["m0"]
        return [(math.hypot((k + 1) * math.pi * a * v0 / 2.0, m0 * v0 * v0), False)
                for k in range(count)]
    if model == "rational":
        a, v0, m0 = p["alpha"], p["v0"], p["m0"]
        return [(math.hypot((k + 1) * a * v0, m0 * v0 * v0), False)
                for k in range(count)]
    if model == "poschl_teller":
        a, v0, m0 = p["alpha"], p["v0"], p["m0"]
        g = m0 * v0 / a
        defect = g < KNOWN_DEFECT_G * (1.0 - 1e-12)  # g = 1 itself, to rounding, is not
        if mode == "exact":
            return [(m0 * v0 * v0 + a * v0 * (k + 0.5), defect) for k in range(count)]
        s = 0.5 + math.sqrt(g * g - 1.0 / 16.0)
        return [((a * v0 / 4.0) * math.sqrt(1.0 + 16.0 * (s + k) ** 2), defect)
                for k in range(count)]
    if model == "constant_rest":
        return [(p["m0"] * p["c"] ** 2, False)]
    raise ValueError(f"no reference for {model}")


def rel_err(value: float, ref: float) -> float:
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


# ---------------------------------------------------------------------------
# Parameter draws
# ---------------------------------------------------------------------------

class Sampler:
    """Seeded parameter draws, spread evenly over each model's sampling box.

    Every (model, stratum) pair draws from its own Latin hypercube of
    MIN_DRAWS points, a new one each MIN_DRAWS draws: in each coordinate,
    every 1/MIN_DRAWS-wide bin gets exactly one draw per hypercube, at a
    random place in the bin and in random order. A run's draws therefore
    cover the box in the same proportions whatever the seed, so that costly
    corners (the slow half of linear_singular at n = 32000, the per-point
    inverse fallback) take the same share of jobs from seed to seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._streams: Dict[tuple, list] = {}

    def unit(self, key: tuple, dims: int) -> List[float]:
        stream = self._streams.setdefault(key, [[], 0])
        if not stream[0]:
            cols = [self.rng.sample(range(MIN_DRAWS), MIN_DRAWS) for _ in range(dims)]
            stream[0] = [[(col[i] + self.rng.random()) / MIN_DRAWS for col in cols]
                         for i in range(MIN_DRAWS)]
        stream[1] += 1
        return stream[0].pop()

    def first(self, key: tuple) -> bool:
        """Whether the last draw from ``key`` was its first."""
        return self._streams[key][1] == 1

    def params(self, model: str, stratum=None, defect_band: bool = False) -> Dict[str, float]:
        key = (model, stratum, defect_band)

        def box(*ranges):
            u = self.unit(key, len(ranges))
            return [lo + (hi - lo) * x for x, (lo, hi) in zip(u, ranges)]

        if model in ("cosh_square", "rational"):
            a, v0, m0 = box((0.5, 2.0), (0.5, 2.0), (0.0, 2.0))
            return {"alpha": a, "v0": v0, "m0": m0}
        if model == "poschl_teller":
            g_range = (0.5, KNOWN_DEFECT_G) if defect_band else (KNOWN_DEFECT_G, 4.0)
            a, v0, g = box((0.5, 2.0), (0.5, 2.0), g_range)
            if self.first(key):
                g = g_range[0]  # the band edge, where the error is largest
            return {"alpha": a, "v0": v0, "m0": g * a / v0}
        if model == "linear_singular":
            big_a, v0 = box((0.0, 2.0), (0.5, 2.0))
            return {"A": big_a, "v0": v0}
        if model == "constant_rest":
            m0, c = box((0.0, 2.0), (0.5, 2.0))
            return {"m0": m0, "c": c}
        raise ValueError(model)


def _resolved_mode(model: str, mode: str) -> str:
    if mode != "auto":
        return mode
    return "approximate" if model == "poschl_teller" else "constant-u"


def _solve_job(model: str, params: Dict[str, float], n: int, k: int, mode: str,
               outputs: str, bic: Optional[List[float]] = None) -> dict:
    cfg = {"model.name": model, "mode": mode, "grid.n": str(n),
           "solve.k_states": str(k), "compare.tol": _r(COMPARE_TOL), "outputs": outputs}
    cfg.update({f"model.{key}": _r(val) for key, val in params.items()})
    if bic:
        cfg["bic.energies"] = ", ".join(_r(e) for e in bic)
    job = {"command": "solve", "model": model, "params": params, "n": n, "k": k,
           "mode": _resolved_mode(model, mode), "config": cfg, "points": 1,
           "outputs": outputs.split(","), "bic": len(bic or ())}
    if model == "linear_singular":
        job["expect_exit"] = 3
    else:
        job["expect_exit"] = 0
        levels = k if model != "constant_rest" else 1
        job["reference"] = reference_levels(model, job["mode"], params, levels)
    return job


def _scan_job(sampler: Sampler) -> dict:
    ua, uv, ulo, uspan = sampler.unit(("scan",), 4)
    a, v0 = 0.5 + 1.5 * ua, 0.5 + 1.5 * uv
    # the scan starts in [1/2, 3/2), the first one at the band edge g = 1,
    # and spans 1 to 2.5 in g
    g_lo = KNOWN_DEFECT_G if sampler.first(("scan",)) else 0.5 + ulo
    g_hi = g_lo + 1.0 + 1.5 * uspan
    params = {"alpha": a, "v0": v0, "m0": g_lo * a / v0}
    cfg = {"model.name": "poschl_teller", "mode": "auto", "grid.n": "2000",
           "solve.k_states": "3", "compare.tol": _r(COMPARE_TOL),
           "scan.param": "m0", "scan.min": _r(params["m0"]),
           "scan.max": _r(g_hi * a / v0), "scan.steps": str(SCAN_STEPS)}
    cfg.update({f"model.{key}": _r(val) for key, val in params.items()})
    return {"command": "scan", "model": "poschl_teller", "params": params, "n": 2000,
            "k": 3, "mode": "approximate", "config": cfg, "points": SCAN_STEPS,
            "expect_exit": 0, "outputs": ["scan"], "bic": 0}


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def _spectrum_block(sampler: Sampler, b: int) -> List[dict]:
    jobs = []
    for i, n in enumerate(SPECTRUM_NS):
        for model in ("cosh_square", "rational", "poschl_teller", "linear_singular",
                      "constant_rest"):
            band = model == "poschl_teller" and (b + i) % 3 == 0
            params = sampler.params(model, n, defect_band=band)
            jobs.append(_solve_job(model, params, n, 5, "auto", "spectrum"))
    return jobs


def _wavefunctions_block(sampler: Sampler, b: int) -> List[dict]:
    jobs = []
    for i, n in enumerate(WAVEFUNCTION_NS):
        for model in ("cosh_square", "rational", "poschl_teller"):
            band = model == "poschl_teller" and (b + i) % 3 == 0
            params = sampler.params(model, n, defect_band=band)
            outputs, bic = "spectrum,potential,wavefunctions", None
            if model != "poschl_teller" and n == WAVEFUNCTION_NS[0]:
                # constant-u models also write one continuum state above the gap m0 v0^2
                (u,) = sampler.unit(("bic energy", model, n), 1)
                outputs, bic = outputs + ",bic", [params["m0"] * params["v0"] ** 2 + 0.1 + 2.9 * u]
            jobs.append(_solve_job(model, params, n, 3, "auto", outputs, bic))
    return jobs


def _exact_block(sampler: Sampler, b: int) -> List[dict]:
    jobs = []
    for model, band in (("poschl_teller", True), ("poschl_teller", False),
                        ("cosh_square", False), ("poschl_teller", True),
                        ("poschl_teller", False), ("rational", False)):
        jobs.append(_solve_job(model, sampler.params(model, 2000, band), 2000, 4,
                               "exact", "spectrum"))
    return jobs


def _scan_block(sampler: Sampler, b: int) -> List[dict]:
    jobs = [_scan_job(sampler) for _ in range(3)]
    # resume the first scan from a file that holds its first half
    resume = dict(jobs[0])
    resume["resume_keep"] = SCAN_STEPS // 2
    resume["points"] = SCAN_STEPS - SCAN_STEPS // 2
    jobs.insert(1, resume)
    return jobs


_BLOCKS = {"spectrum": _spectrum_block, "exact_sc": _exact_block, "scan": _scan_block,
           "wavefunctions": _wavefunctions_block}

_WARMUP = {
    "spectrum": lambda s: _solve_job("cosh_square", s.params("cosh_square"),
                                     2000, 5, "auto", "spectrum"),
    "exact_sc": lambda s: _solve_job("poschl_teller", s.params("poschl_teller"),
                                     2000, 4, "exact", "spectrum"),
    "scan": _scan_job,
    "wavefunctions": lambda s: _solve_job("cosh_square", s.params("cosh_square"), 2000, 3,
                                          "auto", "spectrum,potential,wavefunctions"),
}


def blocks(workload: str, seed: int) -> Iterator[List[dict]]:
    """Endless stream of job blocks; the same seed gives the same jobs."""
    sampler = Sampler(random.Random(f"perfbench:{workload}:{seed}"))
    b = 0
    while True:
        block = _BLOCKS[workload](sampler, b)
        assert len(block) == BLOCK_JOBS[workload]
        for i, job in enumerate(block):
            job["id"] = f"b{b}j{i}"
            job["slot"] = i  # the job's stratum: same slot, same model and size
        yield block
        b += 1


def warmup_job(workload: str, seed: int) -> dict:
    job = _WARMUP[workload](Sampler(random.Random(f"perfbench:{workload}:{seed}:warmup")))
    job["id"] = "warmup"
    job["slot"] = -1
    return job
