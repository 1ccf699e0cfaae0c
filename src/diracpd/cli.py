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

Commands: ``solve`` (spectrum + artifacts), ``scan`` (one parameter axis),
``bic`` (continuum-family states at listed energies), ``report`` (potential
discrepancy adjudication). One flat parser reads the command as its first
positional argument; all four share ``--config``, ``--out``, ``--mode``,
``--states`` and ``--strict``, and ``--axis`` belongs to ``scan`` alone (with
any other command it is a config error). The parser is built once per
process, on the first ``main`` call, and keeps nothing between calls. Exit
codes: 0 success, 2 config error (also a grid.n whose arrays the host
cannot hold), 3 numerical failure (any ``errors.NumericalError``), 4
comparison beyond tolerance, or levels that do not rise, under --strict.

Runs are deterministic: identical configs produce byte-identical outputs,
and every artifact records the config hash and resolved grid in '#' header
lines.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import sys
import textwrap
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _csvfloat
from .eigensolver import (
    EigenPair,
    SpectrumResult,
    energies_from_lambda,
    solve_approximate,
    solve_exact,
    solve_fixed,
)
from .errors import (
    ConfigError,
    ImaginaryEnergyError,
    InvalidParameterError,
    NumericalError,
)
from .potential import (
    CONSTANT_U,
    QGrid,
    constant_u_potential,
    exact_potential,
    potential_discrepancy_report,
    square_finite,
)
from .profiles import (AS_PUBLISHED, MODEL_NAMES, AnalyticSpectrum, ModelSpec, builtin_model,
                       detect_constant_u)
from .spinor import bic_family, normalize, observables, reconstruct
from .transform import TransformMap, build_transform

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_COMPARE = 4

_MODES = ("auto", "exact", "approximate", "constant-u")
_OUTPUTS = ("spectrum", "wavefunctions", "potential", "bic", "discrepancy")
_VARIANTS = ("verified", "as-published")
# the value a config key takes when left out, as config text; --help shows those it lists
_DEFAULTS = {"mode": "auto", "grid.n": "2000", "solve.k_states": "3", "compare.tol": "1e-5",
             "analytic.variant": "verified", "outputs": "spectrum", "out.dir": "out",
             "scan.min": "0", "scan.max": "0", "scan.steps": "0"}
# rows formatted and written at a time: in alternated `wavefunctions` benchmark
# pairs on a 2-core x86-64 host, 1024 rows beat 256 in 3 of 4 and were level with
# 512 and 2048, and 2048 raised the peak RSS by 2.4 MB
_CSV_CHUNK = 1024


# 17 significant digits round-trip every double; the same bytes as f"{x:.17g}"
_fmt = "%.17g".__mod__


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


def _number(key: str, text: str, kind=float):
    try:
        value = kind(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r}: not {what}: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: not finite")
    return value


def _get_number(cfg: Dict[str, str], key: str, kind=float):
    return _number(key, cfg.get(key, _DEFAULTS[key]), kind)


def _choice(key: str, word: str, choices: Sequence[str]) -> str:
    if word not in choices:
        raise ConfigError(f"config key {key!r}: unknown value {word!r} "
                          f"(choose from {', '.join(choices)})")
    return word


def _get_choice(cfg: Dict[str, str], key: str, choices: Sequence[str]) -> str:
    return _choice(key, cfg.get(key, _DEFAULTS[key]).strip().lower().replace("_", "-"), choices)


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
            cfg["scan.min"], cfg["scan.max"], cfg["scan.steps"] = rng.split(":")
            cfg["scan.param"] = name.strip()
        except ValueError as exc:
            raise ConfigError(f"--axis expects name=min:max:steps, got {args.axis!r}") from exc

    if "model.name" not in cfg:
        raise ConfigError("config key 'model.name' is required")
    model_name = cfg["model.name"]
    params = {key[len("model."):]: _number(key, value) for key, value in cfg.items()
              if key.startswith("model.") and key != "model.name"}

    mode = _get_choice(cfg, "mode", _MODES)

    grid_n = _get_number(cfg, "grid.n", int)
    if grid_n < 64:
        raise ConfigError("config key 'grid.n': node count must be >= 64")
    k_states = _get_number(cfg, "solve.k_states", int)
    if k_states < 1:
        raise ConfigError("config key 'solve.k_states': must be >= 1")

    compare_tol = _get_number(cfg, "compare.tol")
    if compare_tol <= 0:
        raise ConfigError("config key 'compare.tol': tolerance must be > 0")

    outputs = tuple(_choice("outputs", tok.strip(), _OUTPUTS)
                    for tok in cfg.get("outputs", _DEFAULTS["outputs"]).split(",") if tok.strip())

    variant = _get_choice(cfg, "analytic.variant", _VARIANTS)
    if variant == "as-published" and mode == "exact":
        raise ConfigError("config keys 'mode' and 'analytic.variant': the as-published "
                          "level family is an approximate-mode claim; exact mode has none")

    bic_energies = [_number("bic.energies", tok.strip())
                    for tok in cfg.get("bic.energies", "").split(",") if tok.strip()]

    return RunConfig(
        raw=cfg,
        model_name=model_name,
        model_params=params,
        mode=mode,
        grid_n=grid_n,
        k_states=k_states,
        compare_tol=compare_tol,
        outputs=outputs,
        out_dir=cfg.get("out.dir", _DEFAULTS["out.dir"]),
        strict=bool(args.strict),
        variant=variant,
        bic_energies=tuple(bic_energies),
        scan_param=cfg.get("scan.param"),
        scan_min=_get_number(cfg, "scan.min"),
        scan_max=_get_number(cfg, "scan.max"),
        scan_steps=_get_number(cfg, "scan.steps", int),
    )


def _build_model(rc: RunConfig, override: Optional[Dict[str, float]] = None) -> ModelSpec:
    try:
        return builtin_model(rc.model_name, **{**rc.model_params, **(override or {})})
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

def _resolve_mode(rc: RunConfig, model: ModelSpec) -> Tuple[str, Optional[float]]:
    """The mode to run, and A when m v_F^2 = A (None outside the constant-u class)."""
    a_const = detect_constant_u(model)
    if rc.mode != "auto":
        return rc.mode, a_const
    return ("constant-u" if a_const is not None else "approximate"), a_const


def _require_constant_u(model: ModelSpec, a_const: Optional[float], what: str) -> None:
    if a_const is None:
        raise ConfigError(f"{what} requires m v_F^2 = A constant; model "
                          f"{model.name!r} is not in that class")


@dataclass
class SolveOutcome:
    model: ModelSpec
    tmap: TransformMap
    mode: str
    a_const: Optional[float]  # A when m v_F^2 = A, else None
    result: SpectrumResult

    @property
    def grid(self) -> Optional[QGrid]:
        """The base grid the levels were solved on; None in the free case."""
        return self.result.pairs[0].grid


def run_solve_pipeline(rc: RunConfig, model: Optional[ModelSpec] = None,
                       tmap: Optional[TransformMap] = None, vectors: bool = True) -> SolveOutcome:
    """profiles -> transform -> potential -> eigensolver, per resolved mode.

    A given ``tmap`` must be the map of ``model.velocity`` anchored at
    ``model.anchor``; without one it is built here.
    ``vectors`` asks the eigensolver for eigenvectors (see solve_fixed).
    """
    if model is None:
        model = _build_model(rc)
    if tmap is None:
        tmap = build_transform(model.velocity, model.anchor)
    mode, a_const = _resolve_mode(rc, model)
    if mode == "exact":
        result = solve_exact(model, tmap, rc.grid_n, rc.k_states, vectors=vectors)
    elif mode == "approximate":
        result = solve_approximate(model, tmap, rc.grid_n, rc.k_states, vectors=vectors)
    else:
        _require_constant_u(model, a_const, "mode constant-u")
        if math.isfinite(tmap.q_lo) and math.isfinite(tmap.q_hi):
            field = constant_u_potential(a_const, QGrid(tmap.q_lo, tmap.q_hi, rc.grid_n))
            result = solve_fixed(field, rc.k_states, vectors=vectors)
        else:
            # free particle: no bound states, one level at lambda 0 with the rest energies
            square_finite(a_const, "A")
            rest = a_const * a_const
            result = SpectrumResult((EigenPair(0.0, None, None, 0, 0.0),),
                                    (energies_from_lambda(0.0, rest),), CONSTANT_U, rest)
    return SolveOutcome(model, tmap, mode, a_const, result)


Reference = List[Optional[AnalyticSpectrum]]


def _paired_levels(rc: RunConfig, outcome: SolveOutcome):
    """(E_plus of each level, reference, _match_levels rows) of a solve: the one
    pairing solve, report and scan show. The reference holds the closed-form
    entries 0.. of the resolved mode, None where undefined: k_states + 3 of
    them, or one per level if that is more, so that an as-published family
    holds a member near every level it has."""
    numeric = [e[0] for e in outcome.result.energies]
    facts, reference = outcome.model.facts, []
    for k in range(max(rc.k_states + 3, len(numeric))):
        try:
            reference.append(facts.level(facts.first_level + k, exact=outcome.mode == "exact",
                                         as_published=rc.variant == "as-published"))
        except (InvalidParameterError, ImaginaryEnergyError):
            reference.append(None)
    return numeric, reference, _match_levels(numeric, reference)


def _interleaved(reference: Reference) -> bool:
    """An as-published family may skip numeric levels, so it is matched by nearest member."""
    return any(r is not None and r.provenance == AS_PUBLISHED for r in reference)


def _match_levels(numeric: Sequence[float], reference: Reference
                  ) -> List[Tuple[int, float, Optional[AnalyticSpectrum], float, str]]:
    """Rows (index, E_num, reference entry, rel_dev, note).

    Level k is matched to entry k, or, for an as-published family, to its
    nearest member; a level no member is near is noted as interleaved.
    """
    rows = []
    interleave = _interleaved(reference)
    for idx, e_num in enumerate(numeric):
        candidates = [r for r in (reference if interleave else reference[idx:idx + 1])
                      if r is not None]
        ref = min(candidates, key=lambda r: abs(e_num - r.e_plus), default=None)
        rel = abs(e_num - ref.e_plus) / max(abs(ref.e_plus), 1e-300) if ref else math.nan
        if interleave and rel > 1e-3:
            rows.append((idx, e_num, None, math.nan, "interleaved"))
        else:
            rows.append((idx, e_num, ref, rel, ""))
    return rows


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _header_lines(rc: RunConfig, artifact: str, mode: str,
                  grid: Optional[QGrid]) -> List[str]:
    lines = [f"# diracpd {artifact}", f"# config_hash = {rc.config_hash()}", f"# mode = {mode}"]
    if grid is not None:
        lines += [f"# grid_n = {grid.n}", f"# grid_h = {_fmt(grid.h)}", f"# q_lo = {_fmt(grid.lo)}",
                  f"# q_hi = {_fmt(grid.hi)}"]
    return lines


def _write_csv(path: str, header: List[str], names: Sequence[str],
               columns: Sequence, cells: Optional[dict] = None) -> None:
    """Write a table: float array columns as %.17g cells, other arrays and
    lists of ready cells as str.

    A chunk of a table whose columns are all float64 arrays is formatted in
    numpy (``_csvfloat.rows``), byte for byte what the template gives; any
    other chunk, and one holding a cell that path does not decide, is
    formatted by one %-template. Chunks keep the text of a long table from
    raising the peak memory. ``cells`` is passed to ``_csvfloat.rows``.
    """
    rows = len(columns[0])
    for name, column in zip(names, columns):
        if len(column) != rows:
            raise ValueError(f"ragged table: column {name!r} has {len(column)} rows, "
                             f"column {names[0]!r} {rows}")
    fast = all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns)
    row = ",".join("%.17g" if isinstance(c, np.ndarray) and c.dtype.kind == "f" else "%s"
                   for c in columns) + "\n"
    k = len(columns)
    with open(path, "wb") as fh:
        fh.write("\n".join([*header, ",".join(names), ""]).encode())
        for i in range(0, rows, _CSV_CHUNK):
            chunk = [c[i:i + _CSV_CHUNK] for c in columns]
            text = _csvfloat.rows(chunk, cells) if fast else None
            if text is None:
                m = len(chunk[0])
                flat = [None] * (m * k)
                for j, column in enumerate(chunk):
                    flat[j::k] = column.tolist() if isinstance(column, np.ndarray) else column
                text = ((row * m) % tuple(flat)).encode()
            fh.write(text)


def _write_spectrum(rc: RunConfig, mode: str, grid: Optional[QGrid],
                    rows: Sequence[Tuple]) -> None:
    _write_csv(os.path.join(rc.out_dir, "spectrum.csv"),
               _header_lines(rc, "spectrum", mode, grid),
               ("n", "lambda", "E_plus", "E_minus", "nodes", "error_estimate"),
               [np.array(column) for column in zip(*rows)])


def _write_wavefunction(path: str, rc: RunConfig, mode: str, grid: Optional[QGrid],
                        spinor, obs, cells: Optional[dict] = None) -> None:
    _write_csv(path, _header_lines(rc, "wavefunction", mode, grid),
               ("x", "q", "re_psi1", "im_psi1", "re_psi2", "im_psi2", "rho", "j"),
               (spinor.x, spinor.q, spinor.psi1.real, spinor.psi1.imag, spinor.psi2.real,
                spinor.psi2.imag, obs.rho, obs.current), cells)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(rc: RunConfig) -> int:
    if "bic" in rc.outputs and not rc.bic_energies:
        raise ConfigError("config key 'bic.energies' is required for output 'bic'")
    # only the wavefunction lift reads eigenvectors; a vectorless level's
    # nodes column is its certified index (see eigensolver)
    outcome = run_solve_pipeline(rc, vectors="wavefunctions" in rc.outputs)
    model, tmap, mode, grid = outcome.model, outcome.tmap, outcome.mode, outcome.grid
    result = outcome.result
    if "bic" in rc.outputs:
        _require_constant_u(model, outcome.a_const, "output 'bic'")
    os.makedirs(rc.out_dir, exist_ok=True)

    numeric, reference, rows = _paired_levels(rc, outcome)

    print(f"{model.label}: " + (f"mode={mode}, grid n={grid.n} h={grid.h:.3e}" if grid else
                                "free constant-mass case, no bound spectrum"))
    print("  n  E_numeric              E_analytic             rel_dev    nodes")
    worst = 0.0
    for (idx, e_num, e_ref, rel, note), pair in zip(rows, result.pairs):
        ref_s = _fmt(e_ref.e_plus) if e_ref is not None else (note or "-")
        rel_s = f"{rel:.2e}" if math.isfinite(rel) else "-"
        nodes_s = f"{pair.nodes:5d}" if grid else "-"  # the free level has no state
        print(f"  {idx}  {_fmt(e_num):22s} {ref_s:22s} {rel_s:9s}  {nodes_s}")
        if math.isfinite(rel):
            worst = max(worst, rel)

    unresolved = _unrisen(numeric, grid)
    for line in unresolved:
        print(line)
    missing = (_unmatched_reference(numeric, reference, rc.compare_tol)
               if _interleaved(reference) else [])
    for n_ref, e_ref in missing:
        print(f"  reference level n={n_ref} (E={_fmt(e_ref)}) not found numerically")

    if "spectrum" in rc.outputs:
        _write_spectrum(rc, mode, grid,
                        [(k, p.lam, *result.energies[k], p.nodes, p.error_estimate)
                         for k, p in enumerate(result.pairs)])
    # the free case writes neither, and one fixed line names both
    if not grid and {"potential", "wavefunctions"} & set(rc.outputs):
        print("potential and wavefunctions not written: the free case has no grid "
              "and no bound state")
    cells: dict = {}  # the grid's x and q, formatted once for every table below
    if "potential" in rc.outputs and grid:
        f = result.field
        if f is None:
            f = exact_potential(model, numeric[0], grid, tmap)
        _write_csv(os.path.join(rc.out_dir, "potential.csv"),
                   _header_lines(rc, "potential", mode, grid), ("q", "V"),
                   (grid.nodes, f.values), cells)
        _csvfloat.keep(cells, [grid.nodes], _CSV_CHUNK)  # a solve repeats only x and q
    if "wavefunctions" in rc.outputs and grid:
        for k, pair in enumerate(result.pairs):
            spin = normalize(reconstruct(pair, model, tmap, numeric[k]))
            obs = observables(spin, model)
            _write_wavefunction(os.path.join(rc.out_dir, f"wavefunction_{k}.csv"),
                                rc, mode, grid, spin, obs, cells)
            _csvfloat.keep(cells, [grid.nodes, spin.x], _CSV_CHUNK)
    if "bic" in rc.outputs:
        _emit_bic(rc, model, tmap, mode)

    if rc.strict and (worst > rc.compare_tol or missing or unresolved):
        causes = [f"reference level n={n} not found" for n, _ in missing]
        if worst > rc.compare_tol:
            causes.insert(0, f"worst rel dev {worst:.3e} > {rc.compare_tol:g}")
        causes += unresolved
        print("strict comparison failed: " + "; ".join(causes), file=sys.stderr)
        return EXIT_COMPARE
    return EXIT_OK


def _unrisen(numeric, grid: QGrid) -> List[str]:
    """A line naming the first two levels that do not rise (states narrower than a grid step)."""
    return [f"levels {k - 1} and {k} do not rise: the grid of n = {grid.n} nodes does "
            f"not resolve these states" for k in range(1, len(numeric))
            if not numeric[k] > numeric[k - 1]][:1]


def _unmatched_reference(numeric, reference, tol) -> List[Tuple[int, float]]:
    """(n, E) of each reference level in the numeric range that no level is within tol of."""
    top = max(numeric) if numeric else 0.0
    return [(r.n, r.e_plus) for r in reference
            if r is not None and not r.e_plus > top * (1.0 + 10 * tol)
            and min(abs(r.e_plus - e) / max(abs(r.e_plus), 1e-300) for e in numeric) > tol]


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
    mode, a_const = _resolve_mode(rc, model)
    _require_constant_u(model, a_const, "the bic command")
    tmap = build_transform(model.velocity, model.anchor)
    os.makedirs(rc.out_dir, exist_ok=True)
    _emit_bic(rc, model, tmap, mode)
    return EXIT_OK


@dataclass(frozen=True)
class _Held:
    """What a scan holds, decided before its loop, and built only when a point is
    left: the ``model`` of its reference ``ref``, the nonzero axis value of least
    |value|; over its ``u_scale``, which leaves q(x) unchanged, the ``tmap`` every
    point solves on and, in approximate mode on a finite q-range, the ``family``
    each nonzero point solves from (the first point solved fills it). With
    |r| >= 1 its verdicts hold at each point."""
    tmap: Optional[TransformMap] = None
    ref: Optional[float] = None
    model: Optional[ModelSpec] = None
    family: Optional[dict] = None


def cmd_scan(rc: RunConfig) -> int:
    if not rc.scan_param:
        raise ConfigError("config key 'scan.param' is required for the scan command")
    if rc.scan_steps < 2:
        raise ConfigError("config key 'scan.steps': need at least 2 steps")
    if rc.scan_param not in rc.model_params:
        raise ConfigError(f"config key 'scan.param': model has no parameter {rc.scan_param!r}")
    try:
        values = np.linspace(rc.scan_min, rc.scan_max, rc.scan_steps)
    except MemoryError as exc:  # numpy's message names the bytes the axis asked for
        raise ConfigError(f"config key 'scan.steps': {exc}") from exc
    os.makedirs(rc.out_dir, exist_ok=True)
    path = os.path.join(rc.out_dir, "scan.csv")

    done = set()
    header = _header_lines(rc, "scan", rc.mode, None)
    columns = "param,n,E_numeric,E_analytic,status\n"
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # a row cut short has no final newline: it is dropped
        lines = text[:text.rfind("\n") + 1].splitlines(keepends=True)
        keys = [None if line.startswith(("#", "param")) else line.split(",", 1)[0]
                for line in lines]
        if header[1] + "\n" in lines and columns in lines:
            # the last point is done when it holds k_states rows or its one
            # error row; else its rows are dropped and it is solved again
            last = len(keys)
            while last and keys[last - 1] is not None and keys[last - 1] == keys[-1]:
                last -= 1
            if not (len(keys) - last in (0, rc.k_states) or ",-,nan,nan,error:" in lines[-1]):
                del lines[last:], keys[last:]
            if "".join(lines) != text:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.writelines(lines)
            done = set(keys) - {None}
        else:
            os.remove(path)

    new_file = not os.path.exists(path)
    left = [float(val) for val in values if _fmt(float(val)) not in done]
    held = _Held(ref=min((float(val) for val in values if val), key=abs, default=None))
    with contextlib.suppress(NumericalError, ConfigError, InvalidParameterError):
        if held.ref and left:
            model = _build_model(rc, override={rc.scan_param: held.ref})
            held = replace(held, model=model)
            if model.facts.u_scale == rc.scan_param:
                held = replace(held, tmap=build_transform(model.velocity, model.anchor))
                if (_resolve_mode(rc, model) == ("approximate", None)
                        and math.isfinite(held.tmap.q_lo) and math.isfinite(held.tmap.q_hi)):
                    held = replace(held, family={})
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        if new_file:
            fh.write("".join(line + "\n" for line in header) + columns)
        for val in left:
            fh.writelines(",".join(row) + "\n" for row in _scan_point(rc, val, held))
            fh.flush()
    print(f"scan over {rc.scan_param}: {rc.scan_steps} points -> {path}")
    return EXIT_OK


def _scan_point(rc: RunConfig, value: float, held: _Held) -> List[Tuple[str, ...]]:
    """Rows for one scan point, solved on what the scan holds (_Held).

    Each point has its model, whose references its rows carry; the reference
    point's is the one held. Without a held map the point builds its own. With
    a family held, a nonzero point is a solve of the reference model at
    r = value / ref, V = W + r^2 S: bit for bit a fresh solve's V at r = 1 and
    at a power of two.
    """
    key = _fmt(value)
    try:
        model = (held.model if value == held.ref and held.model
                 else _build_model(rc, override={rc.scan_param: value}))
        if held.family is not None and value:
            result = solve_approximate(held.model, held.tmap, rc.grid_n, rc.k_states,
                                       vectors=False, family=held.family, r=value / held.ref)
            outcome = SolveOutcome(model, held.tmap, "approximate", None, result)
        else:
            outcome = run_solve_pipeline(rc, model=model, tmap=held.tmap, vectors=False)
        # row k holds level k beside the entry solve prints for it: nan when none
        # is defined or the level is interleaved in an as-published family
        return [(key, str(k), _fmt(e_num), _fmt(ref.e_plus) if ref else "nan", "ok")
                for k, e_num, ref, _, _ in _paired_levels(rc, outcome)[2]]
    except (NumericalError, ConfigError, InvalidParameterError) as exc:
        return [(key, "-", "nan", "nan", f"error:{type(exc).__name__}")]


def cmd_report(rc: RunConfig) -> int:
    model = _build_model(rc)
    tmap = build_transform(model.velocity, model.anchor)
    os.makedirs(rc.out_dir, exist_ok=True)
    facts = model.facts
    grid = QGrid(tmap.q_lo if math.isfinite(tmap.q_lo) else -facts.q_bound,
                 tmap.q_hi if math.isfinite(tmap.q_hi) else facts.q_bound,
                 rc.grid_n)
    rep = None
    for label, claimed in facts.claims:
        rep = potential_discrepancy_report(model, claimed, grid, tmap)
        print(f"potential vs {label}: {rep.summary()}")
    if not facts.claims and detect_constant_u(model) == 0.0:
        print("massless model: effective potential is identically zero")
    if facts.published:
        _report_levels(rc, model, tmap)

    if rep is not None and "discrepancy" in rc.outputs:
        # the last claim's table; the report always compares the approximate potential
        _write_csv(os.path.join(rc.out_dir, "discrepancy.csv"),
                   _header_lines(rc, "discrepancy", "approximate", grid),
                   ("q", "computed", "claimed", "residual"),
                   (rep.q, rep.computed, rep.claimed, rep.residual))
    return EXIT_OK


def _report_levels(rc: RunConfig, model: ModelSpec, tmap: TransformMap) -> None:
    """The model's as-published level family: listed alone when no verified
    ladder exists, else set beside the numeric levels and their references."""
    facts = model.facts
    values = []
    for label, value in facts.parameters:
        try:
            values.append(f"{label} = {_fmt(value())}")
        except InvalidParameterError:
            values.append(f"{label} = complex (radicand < 0)")
    if values:
        print(", ".join(values))
    if not facts.published_stride:
        print(f"{facts.published}:")
        for n in range(rc.k_states):
            try:
                entry = facts.level(facts.first_level + n)
                print(f"  n={n}: E = +/-{_fmt(entry.e_plus)} [{entry.provenance}]")
            except ImaginaryEnergyError as exc:
                print(f"  n={n}: {exc}")
        return
    outcome = run_solve_pipeline(rc, model=model, tmap=tmap, vectors=False)
    numeric, reference, rows = _paired_levels(rc, outcome)
    as_pub = _interleaved(reference)
    # the published family is a claim about approximate-mode levels
    stride = 0 if as_pub or outcome.mode != "approximate" else facts.published_stride
    print(f"numeric levels vs the {'as-published' if as_pub else 'verified'} "
          f"{outcome.mode}-mode reference" + (f", beside the {facts.published}:" if stride else ":"))
    for idx, e_num, ref, rel, note in rows:
        tag = note or (f"matches n={ref.n} rel={rel:.2e}" if ref is not None else "")
        if stride and ref is not None:
            k = ref.n - facts.first_level
            tag += f", published n={k // stride}" if k % stride == 0 else ", interleaved"
        print(f"  level {idx}: E={_fmt(e_num)} {tag}")
    for line in _unrisen(numeric, outcome.grid):
        print(line)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {  # name: (runner, what it does)
    "solve": (cmd_solve, "solve the spectrum and write artifacts"),
    "scan": (cmd_scan, "solve along one parameter axis (--axis belongs here only)"),
    "bic": (cmd_bic, "build continuum-family states at listed energies"),
    "report": (cmd_report, "potential discrepancy adjudication"),
}

_KEYS = (  # (config key, what it holds); a key in _DEFAULTS also shows its default
    ("model.name", " | ".join(MODEL_NAMES)),
    ("model.<param>", "model parameters (alpha, v0, m0, A, c as applicable)"),
    ("mode", " | ".join(_MODES)),
    ("grid.n", "interior nodes, >= 64"),
    ("solve.k_states", "number of states"),
    ("compare.tol", "strict-mode comparison tolerance"),
    ("analytic.variant", " | ".join(_VARIANTS)),
    ("outputs", ",".join(_OUTPUTS)),
    ("out.dir", "output directory"),
    ("bic.energies", "comma list of energies for bic states"),
    ("scan.param/min/max/steps", "scan axis"),
)

_EPILOG = "\n".join([
    "commands:", *(f"  {name:22s}{text}" for name, (_, text) in _COMMANDS.items()),
    "", "config keys:",
    *(textwrap.fill(f"{text:39s}  [{_DEFAULTS[key]}]" if key in _DEFAULTS else text, 78,
                    initial_indent=f"  {key:21s} ", subsequent_indent=" " * 24)
      for key, text in _KEYS), ""])


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    # one flat parser, built on the first call and shared by every later one:
    # parse_args keeps nothing between calls, and building it took about a
    # tenth of a small solve (a subparser per command would cost 1 ms more)
    parser = argparse.ArgumentParser(
        prog="diracpd",
        description="Bound states of the 1D Dirac equation with "
                    "position-dependent mass and Fermi velocity.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=list(_COMMANDS),
                        help="what to run (see commands below)")
    parser.add_argument("--config", required=True, help="path to key=value config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--mode", default=None, choices=_MODES)
    parser.add_argument("--states", type=int, default=None, help="override solve.k_states")
    parser.add_argument("--strict", action="store_true",
                        help="exit 4 when comparison exceeds compare.tol or levels do not rise")
    parser.add_argument("--axis", default=None,
                        help="scan only: scan axis as name=min:max:steps")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    rc = None
    try:
        if args.axis is not None and args.command != "scan":
            raise ConfigError(f"--axis belongs to the scan command, not {args.command!r}")
        rc = build_run_config(parse_config(args.config), args)
        return _COMMANDS[args.command][0](rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the bytes the grid asked for
        if rc is None:
            raise
        print(f"config error: grid.n = {rc.grid_n}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
