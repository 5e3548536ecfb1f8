"""Command-line front end: scenario runs, CSV/SVG emission, verification.

Usage:
    qslbound <entanglement|modular|battery|verify> [flags]

Exit codes: 0 success, 1 usage or configuration error, 2 numeric or I/O
failure.  Identical configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .bounds import BoundCurve
from .dynamics import TimeGrid
from .emit import fmt, render_csv, render_svg
from .presets import PRESETS, build_preset_curves, build_scenario, run_scenario

MIN_STEPS = 16

SCENARIO_KINDS = ("entanglement", "modular", "battery")

_SCENARIO_FLAGS = {
    "entanglement": ("p", "theta", "mu3"),
    "modular": ("p", "theta", "mu3"),
    "battery": ("omega", "Omega", "J", "mode"),
}

_DEFAULTS = {
    "p": 0.1,
    "theta": 1.0,
    "mu3": 0.0,
    "omega": 2.0,
    "Omega": 1.0,
    "J": 1.0,
    "mode": None,
    "t_max": 1.0,
    "steps": None,
    "format": "csv",
}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one CLI invocation."""

    kind: str
    params: dict
    t_max: float
    steps: Optional[int]
    out: Optional[Path]
    format: str
    preset: Optional[str]

    @property
    def grid(self) -> TimeGrid:
        if self.steps is not None:
            return TimeGrid(self.t_max, self.steps)
        return TimeGrid.with_resolution(self.t_max)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qslbound", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in SCENARIO_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} case study")
        if kind in ("entanglement", "modular"):
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--theta", type=float, default=None)
            p.add_argument("--mu3", type=float, default=None)
        else:
            p.add_argument("--omega", type=float, default=None)
            p.add_argument("--Omega", type=float, default=None)
            p.add_argument("--J", type=float, default=None)
            p.add_argument("--mode", choices=("parallel", "collective", "coupled", "decoupled"), default=None)
        p.add_argument("--t-max", dest="t_max", type=float, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "csv+svg"), default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("--steps", type=int, default=None)
    v.add_argument("--out", type=str, default=None, help="write a JSON report here")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a flat JSON object")
    return {str(k).replace("-", "_"): v for k, v in doc.items()}


def _finite(flag: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"flag --{flag} needs a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise UsageError(f"flag --{flag} must be finite, got {value!r}")
    return number


def parse_config(argv) -> RunConfig:
    """Parse flags (and an optional JSON config file; flags win) into a
    validated RunConfig.  Raises UsageError on any violation."""
    args = _build_parser().parse_args(argv)
    kind = args.kind
    if kind == "verify":
        return RunConfig(
            kind="verify",
            params={},
            t_max=1.0,
            steps=args.steps,
            out=Path(args.out) if args.out else None,
            format="csv",
            preset=None,
        )

    file_values = _load_config_file(args.config) if args.config else {}

    def pick(name, flag_value):
        if flag_value is not None:
            return flag_value
        if name in file_values:
            return file_values[name]
        return _DEFAULTS[name]

    params = {}
    for name in _SCENARIO_FLAGS[kind]:
        value = pick(name, getattr(args, name))
        if name == "mode":
            if value is None:
                value = "parallel" if float(params.get("J", 1.0)) == 0.0 else "collective"
            params[name] = str(value)
        else:
            params[name] = _finite(name, value)

    t_max = _finite("t-max", pick("t_max", args.t_max))
    steps = pick("steps", args.steps)
    if steps is not None and (isinstance(steps, bool) or not isinstance(steps, int)):
        raise UsageError(f"--steps needs an integer, got {steps!r}")
    out_format = str(pick("format", args.format))
    out = args.out or file_values.get("out") or f"{kind}.csv"
    preset = args.preset or file_values.get("preset")

    if t_max <= 0.0:
        raise UsageError(f"--t-max must be positive, got {t_max}")
    if steps is not None and steps < MIN_STEPS:
        raise UsageError(f"--steps must be >= {MIN_STEPS}, got {steps}")
    if out_format not in ("csv", "csv+svg"):
        raise UsageError(f"--format must be csv or csv+svg, got {out_format!r}")
    if preset is not None:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r}")
        if PRESETS[preset].kind != kind:
            raise UsageError(
                f"preset {preset!r} belongs to the {PRESETS[preset].kind} scenario"
            )

    cfg = RunConfig(
        kind=kind,
        params=params,
        t_max=t_max,
        steps=steps,
        out=Path(out),
        format=out_format,
        preset=preset,
    )
    if preset is None:
        # Validate scenario preconditions now so bad parameters exit with 1.
        try:
            build_scenario(kind, cfg.params, cfg.grid)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return cfg


def _metadata(cfg: RunConfig, label: Optional[str]) -> list[tuple[str, str]]:
    meta = [("scenario", cfg.kind)]
    if label:
        meta.append(("curve", label))
    for key in sorted(cfg.params):
        meta.append((key, str(cfg.params[key])))
    grid = cfg.grid
    meta.append(("t_max", fmt(grid.t_max)))
    meta.append(("steps", str(grid.n_steps)))
    return meta


def emit_curves(curve: BoundCurve, cfg: RunConfig, label: Optional[str] = None) -> list[Path]:
    """Write the CSV (and optional SVG) for one curve; returns the paths."""
    if label:
        path = cfg.out.with_name(f"{cfg.out.stem}_{label}{cfg.out.suffix or '.csv'}")
    else:
        path = cfg.out if cfg.out.suffix else cfg.out.with_suffix(".csv")
    meta = _metadata(cfg, label) + [
        ("warnings", str(len(curve.warnings))),
        ("quad_error", fmt(curve.quad_error)),
    ]
    path.write_text(render_csv(curve, meta), encoding="utf-8", newline="\n")
    written = [path]
    if cfg.format == "csv+svg":
        svg_path = path.with_suffix(".svg")
        title = f"{cfg.kind}" + (f" ({label})" if label else "")
        svg_path.write_text(render_svg(curve, title), encoding="utf-8", newline="\n")
        written.append(svg_path)
    return written


def _run_scenarios(cfg: RunConfig) -> list[Path]:
    if cfg.preset is None:
        scenario = build_scenario(cfg.kind, cfg.params, cfg.grid)
        return emit_curves(run_scenario(cfg.kind, scenario), cfg)
    written = []
    for label, params, curve in build_preset_curves(cfg.preset, n_steps=cfg.steps):
        run_cfg = replace(cfg, params=params, t_max=curve.grid.t_max)
        written.extend(emit_curves(curve, run_cfg, label=label))
    return written


def _run_verify(cfg: RunConfig) -> int:
    from .verify import format_report, run_verify

    results = run_verify(n_steps=cfg.steps)
    sys.stdout.write(format_report(results))
    if cfg.out is not None:
        payload = [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in results
        ]
        cfg.out.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n"
        )
    return 2 if any(r.status == "fail" for r in results) else 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"qslbound: error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.kind == "verify":
            return _run_verify(cfg)
        written = _run_scenarios(cfg)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"qslbound: failure: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
