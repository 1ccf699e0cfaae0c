"""Config-driven command line runner.

Configs are flat key = value text with dotted sections, e.g.::

    model.name = cosh_square
    model.alpha = 1.0
    model.v0 = 1.0
    model.m0 = 0.0
    mode = auto
    grid.n = 2000
    solve.k_states = 3
    compare.tol = 1e-5
    outputs = spectrum, potential
    out.dir = out

Subcommands: ``solve`` (spectrum + artifacts), ``scan`` (one parameter axis),
``bic`` (continuum-family states at listed energies), ``report`` (potential
discrepancy adjudication). Exit codes: 0 success, 2 config error,
3 numerical failure, 4 comparison beyond tolerance under --strict.

Runs are deterministic: identical configs produce byte-identical outputs,
and every artifact records the config hash and resolved grid in '#' header
lines.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from . import analytic
from .eigensolver import (
    SpectrumResult,
    energies_from_lambda,
    expand_until_settled,
    solve_fixed,
    solve_self_consistent,
)
from .errors import (
    ApproximationInvalidError,
    ConfigError,
    DomainError,
    ImaginaryEnergyError,
    InsufficientResolutionError,
    InvalidParameterError,
    NonConvergenceError,
    NonNormalizableError,
    QuadratureFailureError,
    SingularNodeError,
    SubGapError,
    ZetaCrossingError,
)
from .potential import (
    QGrid,
    approx_potential,
    constant_u_potential,
    exact_potential,
    potential_discrepancy_report,
)
from .profiles import ModelSpec, builtin_model, detect_constant_u
from .spinor import bic_family, normalize, observables, reconstruct
from .transform import TransformMap, build_transform

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_COMPARE = 4

_NUMERICAL_ERRORS = (
    ApproximationInvalidError,
    DomainError,
    ZetaCrossingError,
    NonConvergenceError,
    QuadratureFailureError,
    ImaginaryEnergyError,
    SingularNodeError,
    InsufficientResolutionError,
    NonNormalizableError,
    SubGapError,
)

_MODES = ("auto", "exact", "approximate", "constant-u")
_OUTPUTS = ("spectrum", "wavefunctions", "potential", "bic", "discrepancy")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_config(path: str) -> Dict[str, str]:
    """Read flat ``key = value`` lines; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    out: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass
class RunConfig:
    raw: Dict[str, str]
    model_name: str
    model_params: Dict[str, float]
    mode: str
    grid_n: int
    k_states: int
    quad_tol: float
    sc_tol: float
    max_iter: int
    compare_tol: float
    outputs: Tuple[str, ...]
    out_dir: str
    strict: bool
    variant: str
    bic_energies: Tuple[float, ...]
    scan_param: Optional[str] = None
    scan_min: float = 0.0
    scan_max: float = 0.0
    scan_steps: int = 0

    def config_hash(self) -> str:
        # identifies the computation; the output location does not belong
        canon = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw)
                          if k != "out.dir")
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _get_float(cfg: Dict[str, str], key: str, default: float) -> float:
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: not a number: {cfg[key]!r}") from exc


def _get_int(cfg: Dict[str, str], key: str, default: int) -> int:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: not an integer: {cfg[key]!r}") from exc


def build_run_config(cfg: Dict[str, str], args: argparse.Namespace) -> RunConfig:
    cfg = dict(cfg)
    if args.mode is not None:
        cfg["mode"] = args.mode
    if args.states is not None:
        cfg["solve.k_states"] = str(args.states)
    if args.out is not None:
        cfg["out.dir"] = args.out
    if getattr(args, "axis", None):
        try:
            name, rng = args.axis.split("=", 1)
            lo, hi, steps = rng.split(":")
            cfg["scan.param"] = name.strip()
            cfg["scan.min"] = lo
            cfg["scan.max"] = hi
            cfg["scan.steps"] = steps
        except ValueError as exc:
            raise ConfigError(
                f"--axis expects name=min:max:steps, got {args.axis!r}"
            ) from exc

    if "model.name" not in cfg:
        raise ConfigError("config key 'model.name' is required")
    model_name = cfg["model.name"]
    params: Dict[str, float] = {}
    for key, value in cfg.items():
        if key.startswith("model.") and key != "model.name":
            try:
                params[key[len("model."):]] = float(value)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: not a number: {value!r}") from exc

    mode = cfg.get("mode", "auto").strip().lower().replace("_", "-")
    if mode not in _MODES:
        raise ConfigError(f"config key 'mode': unknown mode {mode!r}")

    grid_n = _get_int(cfg, "grid.n", 2000)
    if grid_n < 64:
        raise ConfigError("config key 'grid.n': node count must be >= 64")
    k_states = _get_int(cfg, "solve.k_states", 3)
    if k_states < 1:
        raise ConfigError("config key 'solve.k_states': must be >= 1")

    tols = {
        "tol.quad": _get_float(cfg, "tol.quad", 1e-12),
        "tol.sc": _get_float(cfg, "tol.sc", 1e-10),
        "compare.tol": _get_float(cfg, "compare.tol", 1e-5),
    }
    for key, val in tols.items():
        if val <= 0:
            raise ConfigError(f"config key {key!r}: tolerance must be > 0")
    max_iter = _get_int(cfg, "tol.max_iter", 60)
    if max_iter < 1:
        raise ConfigError("config key 'tol.max_iter': must be >= 1")

    outputs_raw = cfg.get("outputs", "spectrum")
    outputs = tuple(tok.strip() for tok in outputs_raw.split(",") if tok.strip())
    for tok in outputs:
        if tok not in _OUTPUTS:
            raise ConfigError(
                f"config key 'outputs': unknown artifact {tok!r} "
                f"(choose from {', '.join(_OUTPUTS)})"
            )

    variant = cfg.get("analytic.variant", "verified").strip().lower().replace("_", "-")
    if variant not in ("verified", "as-published"):
        raise ConfigError("config key 'analytic.variant': verified or as-published")

    bic_energies: List[float] = []
    if "bic.energies" in cfg:
        for tok in cfg["bic.energies"].split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                bic_energies.append(float(tok))
            except ValueError as exc:
                raise ConfigError(
                    f"config key 'bic.energies': not a number: {tok!r}") from exc

    rc = RunConfig(
        raw=cfg,
        model_name=model_name,
        model_params=params,
        mode=mode,
        grid_n=grid_n,
        k_states=k_states,
        quad_tol=tols["tol.quad"],
        sc_tol=tols["tol.sc"],
        max_iter=max_iter,
        compare_tol=tols["compare.tol"],
        outputs=outputs,
        out_dir=cfg.get("out.dir", "out"),
        strict=bool(args.strict),
        variant=variant,
        bic_energies=tuple(bic_energies),
        scan_param=cfg.get("scan.param"),
        scan_min=_get_float(cfg, "scan.min", 0.0),
        scan_max=_get_float(cfg, "scan.max", 0.0),
        scan_steps=_get_int(cfg, "scan.steps", 0),
    )
    return rc


def _build_model(rc: RunConfig, override: Optional[Dict[str, float]] = None) -> ModelSpec:
    params = dict(rc.model_params)
    if override:
        params.update(override)
    try:
        return builtin_model(rc.model_name, **params)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

def _resolve_mode(rc: RunConfig, model: ModelSpec) -> str:
    if rc.mode != "auto":
        return rc.mode
    if detect_constant_u(model, tol=1e-10) is not None:
        return "constant-u"
    return "approximate"


def _wall_singular(builder, lo: float, hi: float) -> bool:
    width = hi - lo
    try:
        mid_vals = builder(QGrid(lo + 0.4 * width, hi - 0.4 * width, 3, offset=True)).values
        center = float(np.max(np.abs(mid_vals[np.isfinite(mid_vals)]), initial=0.0))
        for probes in (QGrid(lo, lo + 3e-8 * width, 3, offset=True),
                       QGrid(hi - 3e-8 * width, hi, 3, offset=True)):
            edge_vals = builder(probes).values
            if not np.all(np.isfinite(edge_vals)):
                return True
            if float(np.max(np.abs(edge_vals))) > 1e6 * (1.0 + center):
                return True
    except _NUMERICAL_ERRORS:
        return True
    return False


@dataclass
class SolveOutcome:
    model: ModelSpec
    tmap: TransformMap
    mode: str
    grid: Optional[QGrid]
    result: Optional[SpectrumResult]
    iterations: Tuple[int, ...]
    rest_energy: Optional[Tuple[float, float]] = None  # free constant-mass case


def run_solve_pipeline(rc: RunConfig, model: Optional[ModelSpec] = None,
                       tmap: Optional[TransformMap] = None) -> SolveOutcome:
    """profiles -> transform -> potential -> eigensolver, per resolved mode.

    A given ``tmap`` must be the map of ``model.velocity`` anchored at
    ``model.anchor`` with ``rc.quad_tol``; without one it is built here.
    """
    if model is None:
        model = _build_model(rc)
    if tmap is None:
        tmap = build_transform(model.velocity, model.anchor, rc.quad_tol)
    mode = _resolve_mode(rc, model)
    finite_q = math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi)

    if mode == "constant-u":
        a_const = detect_constant_u(model, tol=1e-10)
        if a_const is None:
            raise ConfigError(
                f"mode constant-u requires m v_F^2 constant; model "
                f"{model.name!r} is not in that class"
            )
        if not finite_q:
            # free particle: no bound states, only the rest energies
            rest = energies_from_lambda(0.0, a_const * a_const)
            return SolveOutcome(model, tmap, mode, None, None, (), rest_energy=rest)
        grid = QGrid(tmap.q_lo, tmap.q_hi, rc.grid_n, offset=False)
        result = solve_fixed(constant_u_potential(a_const, grid), rc.k_states)
        return SolveOutcome(model, tmap, mode, grid, result, result.iterations)

    if mode == "approximate":
        def builder(g: QGrid):
            return approx_potential(model, g, tmap)
    else:  # exact: grid shape probed with the potential at the initial energy
        e_probe = _initial_energies(rc, model, tmap)[0]

        def builder(g: QGrid):
            return exact_potential(model, e_probe, g, tmap)

    if finite_q:
        offset = _wall_singular(builder, tmap.q_lo, tmap.q_hi)
        grid = QGrid(tmap.q_lo, tmap.q_hi, rc.grid_n, offset=offset)
    else:
        lo0 = tmap.q_lo if math.isfinite(tmap.q_lo) else None
        hi0 = tmap.q_hi if math.isfinite(tmap.q_hi) else None

        def box_builder(L: float):
            lo = lo0 if lo0 is not None else -L
            hi = hi0 if hi0 is not None else L
            return builder(QGrid(lo, hi, rc.grid_n, offset=True))

        result, L = expand_until_settled(box_builder, rc.k_states)
        grid = result.pairs[0].grid
        if mode == "approximate":
            return SolveOutcome(model, tmap, mode, grid, result, result.iterations)
        # fall through to self-consistency on the settled grid

    if mode == "approximate":
        result = solve_fixed(builder(grid), rc.k_states)
        return SolveOutcome(model, tmap, mode, grid, result, result.iterations)

    # exact mode: one self-consistent solve per requested state
    e_inits = _initial_energies(rc, model, tmap)
    pairs = []
    energies = []
    iters = []
    for k in range(rc.k_states):
        pair, e_conv, history = solve_self_consistent(
            model, tmap, grid, k, e_inits[k], tol=rc.sc_tol, max_iter=rc.max_iter
        )
        pairs.append(pair)
        energies.append((abs(e_conv), -abs(e_conv)))
        iters.append(len(history) - 1)
    result = SpectrumResult(pairs=tuple(pairs), energies=tuple(energies),
                            mode="exact", offset=0.0, iterations=tuple(iters))
    return SolveOutcome(model, tmap, "exact", grid, result, tuple(iters))


def _initial_energies(rc: RunConfig, model: ModelSpec, tmap: TransformMap) -> List[float]:
    """Self-consistency seeds: closed form when available, else box estimates."""
    seeds = []
    for k in range(rc.k_states):
        n = k + 1 if model.name in ("cosh_square", "rational") else k
        try:
            seeds.append(analytic.spectrum_value(model.name, n, model.params)[0])
        except (InvalidParameterError, ImaginaryEnergyError):
            width = tmap.q_hi - tmap.q_lo
            if math.isfinite(width):
                seeds.append((k + 1) * math.pi / width)
            else:
                seeds.append(float(k + 1))
    return seeds


def _analytic_reference(rc: RunConfig, model: ModelSpec, count: int) -> List[Optional[analytic.AnalyticSpectrum]]:
    as_pub = rc.variant == "as-published"
    out = []
    for k in range(count):
        n = k + 1 if model.name in ("cosh_square", "rational") else k
        try:
            out.append(analytic.spectrum_entry(model.name, n, model.params,
                                               as_published=as_pub))
        except (InvalidParameterError, ImaginaryEnergyError):
            out.append(None)
    return out


def _match_levels(numeric: Sequence[float],
                  reference: Sequence[Optional[analytic.AnalyticSpectrum]],
                  interleave: bool) -> List[Tuple[int, float, Optional[float], float, str]]:
    """Rows (index, E_num, E_ref, rel_dev, note).

    With ``interleave`` (hole-type spectra) each numeric level is matched to
    the nearest reference level; unmatched numeric levels are reported as
    interleaved rather than failed.
    """
    rows = []
    ref_vals = [r.e_plus if r is not None else None for r in reference]
    for idx, e_num in enumerate(numeric):
        if interleave:
            candidates = [(abs(e_num - rv), rv) for rv in ref_vals if rv is not None]
            if not candidates:
                rows.append((idx, e_num, None, math.nan, ""))
                continue
            dev, rv = min(candidates)
            rel = dev / max(abs(rv), 1e-300)
            note = "interleaved" if rel > 1e-3 else ""
            rows.append((idx, e_num, rv if note == "" else None,
                         rel if note == "" else math.nan, note))
        else:
            rv = ref_vals[idx] if idx < len(ref_vals) else None
            if rv is None:
                rows.append((idx, e_num, None, math.nan, ""))
            else:
                rows.append((idx, e_num, rv, abs(e_num - rv) / max(abs(rv), 1e-300), ""))
    return rows


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _header_lines(rc: RunConfig, artifact: str, mode: str,
                  grid: Optional[QGrid]) -> List[str]:
    lines = [
        f"# diracpd {artifact}",
        f"# config_hash = {rc.config_hash()}",
        f"# mode = {mode}",
    ]
    if grid is not None:
        lines += [
            f"# grid_n = {grid.n}",
            f"# grid_h = {_fmt(grid.h)}",
            f"# q_lo = {_fmt(grid.lo)}",
            f"# q_hi = {_fmt(grid.hi)}",
            f"# grid_offset = {str(grid.offset).lower()}",
        ]
    return lines


def _write_csv(path: str, header: List[str], columns: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [_fmt(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")


def _write_wavefunction(path: str, rc: RunConfig, mode: str, grid: Optional[QGrid],
                        spinor, obs) -> None:
    qcol = spinor.q if spinor.q is not None else np.full_like(spinor.x, math.nan)
    rows = [
        (float(x), float(q), float(p1.real), float(p1.imag),
         float(p2.real), float(p2.imag), float(r), float(j))
        for x, q, p1, p2, r, j in zip(spinor.x, qcol, spinor.psi1, spinor.psi2,
                                      obs.rho, obs.current)
    ]
    _write_csv(path, _header_lines(rc, "wavefunction", mode, grid),
               ("x", "q", "re_psi1", "im_psi1", "re_psi2", "im_psi2", "rho", "j"),
               rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(rc: RunConfig) -> int:
    outcome = run_solve_pipeline(rc)
    model, tmap, mode, grid = outcome.model, outcome.tmap, outcome.mode, outcome.grid
    os.makedirs(rc.out_dir, exist_ok=True)

    if outcome.rest_energy is not None:
        e_plus, e_minus = outcome.rest_energy
        ref = _analytic_reference(rc, model, 1)[0]
        rel = (abs(e_plus - ref.e_plus) / max(abs(ref.e_plus), 1e-300)
               if ref is not None else math.nan)
        print(f"{model.label}: free constant-mass case, no bound spectrum")
        print("  n  E_numeric              E_analytic             rel_dev    nodes  iters")
        ref_s = _fmt(ref.e_plus) if ref is not None else "-"
        print(f"  0  {_fmt(e_plus):22s} {ref_s:22s} {rel:.2e}   -      -")
        if "spectrum" in rc.outputs:
            _write_csv(os.path.join(rc.out_dir, "spectrum.csv"),
                       _header_lines(rc, "spectrum", mode, None),
                       ("n", "lambda", "E_plus", "E_minus", "nodes", "error_estimate"),
                       [(0, 0.0, e_plus, e_minus, 0, 0.0)])
        if rc.strict and not (rel <= rc.compare_tol):
            print(f"strict comparison failed: rel dev {rel:.3e} > {rc.compare_tol:g}",
                  file=sys.stderr)
            return EXIT_COMPARE
        return EXIT_OK

    result = outcome.result
    numeric = [e[0] for e in result.energies]
    reference = _analytic_reference(rc, model, max(rc.k_states + 3, len(numeric)))
    interleave = model.name == "poschl_teller"
    rows = _match_levels(numeric, reference, interleave)

    print(f"{model.label}: mode={mode}, grid n={grid.n} h={grid.h:.3e} "
          f"offset={grid.offset}")
    print("  n  E_numeric              E_analytic             rel_dev    nodes  iters")
    worst = 0.0
    for (idx, e_num, e_ref, rel, note), pair in zip(rows, result.pairs):
        ref_s = _fmt(e_ref) if e_ref is not None else (note or "-")
        rel_s = f"{rel:.2e}" if math.isfinite(rel) else "-"
        iters = outcome.iterations[idx] if idx < len(outcome.iterations) else 1
        print(f"  {idx}  {_fmt(e_num):22s} {ref_s:22s} {rel_s:9s}  {pair.nodes:5d}  {iters}")
        if math.isfinite(rel):
            worst = max(worst, rel)

    missing = _unmatched_reference(numeric, reference, rc.compare_tol) if interleave else []
    for n_ref, e_ref in missing:
        print(f"  reference level n={n_ref} (E={_fmt(e_ref)}) not found numerically")

    if "spectrum" in rc.outputs:
        _write_csv(os.path.join(rc.out_dir, "spectrum.csv"),
                   _header_lines(rc, "spectrum", mode, grid),
                   ("n", "lambda", "E_plus", "E_minus", "nodes", "error_estimate"),
                   [(k, p.lam, result.energies[k][0], result.energies[k][1],
                     p.nodes, p.error_estimate)
                    for k, p in enumerate(result.pairs)])
    if "potential" in rc.outputs:
        f = _potential_for_export(rc, model, tmap, mode, grid, numeric[0])
        _write_csv(os.path.join(rc.out_dir, "potential.csv"),
                   _header_lines(rc, "potential", mode, grid), ("q", "V"),
                   list(zip(grid.nodes.tolist(), f.values.tolist())))
    if "wavefunctions" in rc.outputs:
        for k, pair in enumerate(result.pairs):
            spin = normalize(reconstruct(pair, model, tmap, numeric[k]))
            obs = observables(spin, model)
            _write_wavefunction(os.path.join(rc.out_dir, f"wavefunction_{k}.csv"),
                                rc, mode, grid, spin, obs)
    if "bic" in rc.outputs and rc.bic_energies:
        _emit_bic(rc, model, tmap, mode)

    if rc.strict and (worst > rc.compare_tol or missing):
        print(f"strict comparison failed: worst rel dev {worst:.3e} > "
              f"{rc.compare_tol:g}", file=sys.stderr)
        return EXIT_COMPARE
    return EXIT_OK


def _unmatched_reference(numeric, reference, tol) -> List[Tuple[int, float]]:
    out = []
    top = max(numeric) if numeric else 0.0
    for ref in reference:
        if ref is None or ref.e_plus > top * (1.0 + 10 * tol):
            continue
        best = min(abs(ref.e_plus - e) / max(abs(ref.e_plus), 1e-300) for e in numeric)
        if best > tol:
            out.append((ref.n, ref.e_plus))
    return out


def _potential_for_export(rc: RunConfig, model, tmap, mode, grid, e0):
    if mode == "constant-u":
        a_const = detect_constant_u(model, tol=1e-10)
        return constant_u_potential(a_const, grid)
    if mode == "exact":
        return exact_potential(model, e0, grid, tmap)
    return approx_potential(model, grid, tmap)


def _emit_bic(rc: RunConfig, model: ModelSpec, tmap: TransformMap, mode: str) -> None:
    for i, e in enumerate(rc.bic_energies):
        spin = bic_family(model, e, tmap=tmap)
        obs = observables(spin, model)
        path = os.path.join(rc.out_dir, f"bic_{i}.csv")
        _write_wavefunction(path, rc, mode, None, spin, obs)
        print(f"bic E={_fmt(e)}: total_prob={obs.total_prob:.12g} "
              f"max|j|={float(np.max(np.abs(obs.current))):.3e}")


def cmd_bic(rc: RunConfig) -> int:
    if not rc.bic_energies:
        raise ConfigError("config key 'bic.energies' is required for the bic command")
    model = _build_model(rc)
    tmap = build_transform(model.velocity, model.anchor, rc.quad_tol)
    os.makedirs(rc.out_dir, exist_ok=True)
    _emit_bic(rc, model, tmap, _resolve_mode(rc, model))
    return EXIT_OK


# the one (ModelSpec.map_key, map) pair a scan holds between points
_HeldMap = Tuple[Optional[Hashable], Optional[TransformMap]]


def cmd_scan(rc: RunConfig) -> int:
    if not rc.scan_param:
        raise ConfigError("config key 'scan.param' is required for the scan command")
    if rc.scan_steps < 2:
        raise ConfigError("config key 'scan.steps': need at least 2 steps")
    if rc.scan_param not in rc.model_params:
        raise ConfigError(
            f"config key 'scan.param': model has no parameter {rc.scan_param!r}"
        )
    values = np.linspace(rc.scan_min, rc.scan_max, rc.scan_steps)
    os.makedirs(rc.out_dir, exist_ok=True)
    path = os.path.join(rc.out_dir, "scan.csv")

    done = set()
    header = _header_lines(rc, "scan", rc.mode, None)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if any(line == header[1] for line in lines):
            for line in lines:
                if line.startswith("#") or line.startswith("param"):
                    continue
                done.add(line.split(",", 1)[0])
        else:
            os.remove(path)

    new_file = not os.path.exists(path)
    held: _HeldMap = (None, None)
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        if new_file:
            for line in header:
                fh.write(line + "\n")
            fh.write("param,n,E_numeric,E_analytic,status\n")
        for val in values:
            key = _fmt(float(val))
            if key in done:
                continue
            rows, held = _scan_point(rc, float(val), held)
            for row in rows:
                fh.write(",".join(row) + "\n")
            fh.flush()
    print(f"scan over {rc.scan_param}: {rc.scan_steps} points -> {path}")
    return EXIT_OK


def _scan_point(rc: RunConfig, value: float,
                held: _HeldMap) -> Tuple[List[Tuple[str, ...]], _HeldMap]:
    """Rows for one scan point, and the (map_key, map) pair to hold for the next.

    The held map is reused when the point's model has the same non-None
    ``map_key``; a map whose build raised is never held.
    """
    key = _fmt(value)
    try:
        model = _build_model(rc, override={rc.scan_param: value})
        if model.map_key is None or model.map_key != held[0]:
            held = (model.map_key,
                    build_transform(model.velocity, model.anchor, rc.quad_tol))
        outcome = run_solve_pipeline(rc, model=model, tmap=held[1])
        if outcome.rest_energy is not None:
            ref = _analytic_reference(rc, model, 1)[0]
            ref_s = _fmt(ref.e_plus) if ref else "nan"
            return [(key, "0", _fmt(outcome.rest_energy[0]), ref_s, "ok")], held
        reference = _analytic_reference(rc, model, rc.k_states)
        rows = []
        for k, (e_plus, _) in enumerate(outcome.result.energies):
            ref = reference[k]
            ref_s = _fmt(ref.e_plus) if ref is not None else "nan"
            rows.append((key, str(k), _fmt(e_plus), ref_s, "ok"))
        return rows, held
    except (_NUMERICAL_ERRORS + (ConfigError, InvalidParameterError)) as exc:
        return [(key, "-", "nan", "nan", f"error:{type(exc).__name__}")], held


def cmd_report(rc: RunConfig) -> int:
    model = _build_model(rc)
    tmap = build_transform(model.velocity, model.anchor, rc.quad_tol)
    os.makedirs(rc.out_dir, exist_ok=True)
    p = model.params

    if model.name == "poschl_teller":
        a, v0, m0 = p["alpha"], p["v0"], p["m0"]
        s_ver = analytic.s_parameter(a, v0, m0)
        x0 = model.anchor  # q is anchored at the hole center, x = x0 + v0 q

        def claimed(q):
            coeff = m0 * m0 * v0 ** 4 - 5.0 * a * a * v0 * v0 / 16.0
            return a * a * v0 * v0 / 16.0 + coeff / np.sin(a * (x0 + v0 * q)) ** 2

        grid = QGrid(tmap.q_lo, tmap.q_hi, rc.grid_n, offset=True)
        rep = potential_discrepancy_report(model, claimed, grid, tmap)
        print(f"potential vs closed form (verified coefficient): {rep.summary()}")
        print(f"s (verified) = {_fmt(s_ver)}", end="")
        try:
            s_ap = analytic.s_parameter(a, v0, m0, as_published=True)
            print(f", s (as-published) = {_fmt(s_ap)}")
        except InvalidParameterError:
            print(", s (as-published) = complex (radicand < 0)")
        outcome = run_solve_pipeline(rc, model=model, tmap=tmap)
        numeric = [e[0] for e in outcome.result.energies]
        print("numeric levels vs published (s+2n) sequence "
              "(interleaved levels are genuine states the published "
              "solution family skips):")
        reference = _analytic_reference(rc, model, rc.k_states + 2)
        for idx, e_num, e_ref, rel, note in _match_levels(numeric, reference, True):
            tag = note or (f"matches n={_ref_index(reference, e_ref)} "
                           f"rel={rel:.2e}" if e_ref is not None else "")
            print(f"  level {idx}: E={_fmt(e_num)} {tag}")
    elif model.name == "linear_singular":
        big_a, v0 = p["A"], p["v0"]

        def claimed_exp(q):
            return big_a ** 2 * v0 ** 4 * np.exp(2.0 * v0 * q) - v0 * v0 / 16.0

        def claimed_harm(q):
            omega = 2.0 * big_a * v0 ** 3
            return 0.25 * omega * omega * q * q

        grid = QGrid(-4.0, 4.0, rc.grid_n, offset=True)
        rep_exp = potential_discrepancy_report(model, claimed_exp, grid, tmap)
        rep_harm = potential_discrepancy_report(model, claimed_harm, grid, tmap)
        print(f"potential vs exponential closed form: {rep_exp.summary()}")
        print(f"potential vs published harmonic form: {rep_harm.summary()}")
        print("published oscillator energies (as-published; the reduced "
              "potential is exponential and supports no bound states):")
        for n in range(rc.k_states):
            try:
                e_plus, _ = analytic.spectrum_value(model.name, n, p)
                print(f"  n={n}: E = +/-{_fmt(e_plus)} [as_published]")
            except ImaginaryEnergyError as exc:
                print(f"  n={n}: {exc}")
        rep = rep_harm
    else:
        a_const = detect_constant_u(model, tol=1e-10)
        if a_const is None:
            raise ConfigError(f"no discrepancy report defined for {model.name!r}")

        def claimed_const(q):
            return np.full_like(np.asarray(q, dtype=float), a_const * a_const)

        lo = tmap.q_lo if math.isfinite(tmap.q_lo) else -8.0
        hi = tmap.q_hi if math.isfinite(tmap.q_hi) else 8.0
        grid = QGrid(lo, hi, rc.grid_n, offset=True)
        if a_const == 0.0:
            print("massless model: effective potential is identically zero")
            rep = None
        else:
            rep = potential_discrepancy_report(model, claimed_const, grid, tmap)
            print(f"potential vs constant A^2: {rep.summary()}")

    if rep is not None and "discrepancy" in rc.outputs:
        _write_csv(os.path.join(rc.out_dir, "discrepancy.csv"),
                   _header_lines(rc, "discrepancy", rc.mode, grid),
                   ("q", "computed", "claimed", "residual"),
                   list(zip(rep.q.tolist(), rep.computed.tolist(),
                            rep.claimed.tolist(), rep.residual.tolist())))
    return EXIT_OK


def _ref_index(reference, e_ref):
    for ref in reference:
        if ref is not None and ref.e_plus == e_ref:
            return ref.n
    return "?"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_CONFIG_KEYS_HELP = """\
config keys:
  model.name            cosh_square | rational | poschl_teller |
                        linear_singular | constant_rest
  model.<param>         model parameters (alpha, v0, m0, A, c as applicable)
  mode                  auto | exact | approximate | constant-u  [auto]
  grid.n                interior nodes, >= 64                    [2000]
  solve.k_states        number of states                         [3]
  tol.quad              map quadrature tolerance                 [1e-12]
  tol.sc                self-consistency tolerance               [1e-10]
  tol.max_iter          self-consistency budget                  [60]
  compare.tol           strict-mode comparison tolerance         [1e-5]
  analytic.variant      verified | as-published                  [verified]
  outputs               spectrum,wavefunctions,potential,bic,discrepancy
  out.dir               output directory                         [out]
  bic.energies          comma list of energies for bic states
  scan.param/min/max/steps   scan axis
"""


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracpd",
        description="Bound states of the 1D Dirac equation with "
                    "position-dependent mass and Fermi velocity.",
        epilog=_CONFIG_KEYS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the spectrum and write artifacts"),
        ("scan", "solve along one parameter axis"),
        ("bic", "build continuum-family states at listed energies"),
        ("report", "potential discrepancy adjudication"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to key=value config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--mode", default=None, choices=_MODES)
        cmd.add_argument("--states", type=int, default=None,
                         help="override solve.k_states")
        cmd.add_argument("--strict", action="store_true",
                         help="exit 4 when comparison exceeds compare.tol")
        if name == "scan":
            cmd.add_argument("--axis", default=None,
                             help="scan axis as name=min:max:steps")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        rc = build_run_config(cfg, args)
        if args.command == "solve":
            return cmd_solve(rc)
        if args.command == "scan":
            return cmd_scan(rc)
        if args.command == "bic":
            return cmd_bic(rc)
        return cmd_report(rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
