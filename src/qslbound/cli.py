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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .bounds import BoundCurve
from .dynamics import MIN_GRID_STEPS, TimeGrid
from .emit import fmt, render_csv, render_svg
from .presets import KINDS, PRESETS, build_preset_curves, build_scenario, plain_run


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
        return TimeGrid.with_resolution(self.t_max, self.steps)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qslbound", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, spec in KINDS.items():
        p = sub.add_parser(kind, help=f"run the {kind} case study", allow_abbrev=False)
        for param in spec.params:
            p.add_argument(f"--{param.flag}", type=float)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "csv+svg"))
        p.add_argument("--config")
        p.add_argument("--preset", choices=sorted(PRESETS))
    v = sub.add_parser("verify", help="run the invariant suite", allow_abbrev=False)
    v.add_argument("--steps", type=int)
    v.add_argument("--out", help="write a JSON report here")
    return parser


def _load_config_file(path: str, keys: set) -> dict:
    """The flat JSON object in ``path``; every key must be one of ``keys``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a flat JSON object")
    values = {str(k).replace("-", "_"): v for k, v in doc.items()}
    unknown = sorted(set(values) - keys)
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {', '.join(unknown)}")
    return values


def _finite(flag: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"flag --{flag} needs a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise UsageError(f"flag --{flag} must be finite, got {value!r}")
    return number


def _text(flag: str, value) -> Optional[str]:
    if value is not None and not (isinstance(value, str) and value):
        raise UsageError(f"--{flag} needs a non-empty string, got {value!r}")
    return value


def _steps(value) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"--steps needs an integer, got {value!r}")
    if value < MIN_GRID_STEPS:
        raise UsageError(f"--steps must be >= {MIN_GRID_STEPS}, got {value}")
    return value


def parse_config(argv) -> RunConfig:
    """Parse flags (and an optional JSON config file; flags win) into a
    validated RunConfig.  Raises UsageError on any violation."""
    args = _build_parser().parse_args(argv)
    kind = args.kind
    if kind == "verify":
        out = _text("out", args.out)
        out = Path(out) if out else None
        return RunConfig("verify", {}, 1.0, _steps(args.steps), out, "csv", None)

    flags = vars(args)
    # A config file may set every flag of the subcommand but --config.
    keys = set(flags) - {"kind", "config"}
    file_values = _load_config_file(args.config, keys) if args.config else {}

    def pick(name, default):
        return file_values.get(name, default) if flags[name] is None else flags[name]

    preset = _text("preset", pick("preset", None))
    if preset is not None:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r}")
        if PRESETS[preset].kind != kind:
            raise UsageError(
                f"preset {preset!r} belongs to the {PRESETS[preset].kind} scenario"
            )
        # A preset fixes the scenario and its window; only the grid
        # resolution and the output stay settable.
        fixed = [p.flag for p in KINDS[kind].params] + ["t_max"]
        given = [name for name in fixed if flags[name] is not None or name in file_values]
        if given:
            names = ", ".join("--" + name.replace("_", "-") for name in given)
            raise UsageError(f"preset {preset!r} fixes {names}; drop them or the preset")

    params = {p.flag: _finite(p.flag, pick(p.flag, p.default)) for p in KINDS[kind].params}
    t_max = _finite("t-max", pick("t_max", 1.0))
    steps = _steps(pick("steps", None))
    out_format = _text("format", pick("format", "csv"))

    if t_max <= 0.0:
        raise UsageError(f"--t-max must be positive, got {t_max}")
    if out_format not in ("csv", "csv+svg"):
        raise UsageError(f"--format must be csv or csv+svg, got {out_format!r}")

    out = Path(_text("out", pick("out", None)) or f"{kind}.csv")
    cfg = RunConfig(kind, params, t_max, steps, out, out_format, preset)
    if preset is None:
        # Validate scenario preconditions now so bad parameters exit with 1.
        try:
            build_scenario(kind, params, cfg.grid)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return cfg


def emit_curves(
    curve: BoundCurve, cfg: RunConfig, label: Optional[str], params: dict
) -> list[Path]:
    """Write the CSV (and optional SVG) for one curve; returns the paths."""
    if label:
        path = cfg.out.with_name(f"{cfg.out.stem}_{label}{cfg.out.suffix or '.csv'}")
    else:
        path = cfg.out if cfg.out.suffix else cfg.out.with_suffix(".csv")
    meta = [("scenario", cfg.kind)] + ([("curve", label)] if label else [])
    meta += [(key, str(params[key])) for key in sorted(params)]
    meta += [
        ("t_max", fmt(curve.grid.t_max)),
        ("steps", str(curve.grid.n_steps)),
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
    preset = PRESETS[cfg.preset] if cfg.preset else plain_run(cfg.kind, cfg.params, cfg.t_max)
    written = []
    for label, params, curve in build_preset_curves(preset, cfg.steps):
        written.extend(emit_curves(curve, cfg, label, params))
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
        if cfg.kind == "verify":
            return _run_verify(cfg)
        written = _run_scenarios(cfg)
    except UsageError as exc:
        print(f"qslbound: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        # MemoryError: a grid too long to allocate.
        print(f"qslbound: failure: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
