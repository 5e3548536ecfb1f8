"""The case studies as one table, and their figure-reproduction runs.

``KINDS`` declares each scenario kind once: its scenario class, its runner,
and for each parameter the CLI flag (also the config-file and CSV header
key), the dataclass field and the default.  ``PRESETS`` holds the curves of
the paper's figures; a plain CLI run is a one-curve, unlabelled preset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .bounds import BoundCurve
from .dynamics import TimeGrid
from .scenarios import (
    BatteryScenario,
    EntanglementScenario,
    run_battery_scenario,
    run_entanglement_scenario,
    run_modular_scenario,
)


class Param(NamedTuple):
    flag: str
    field: str
    default: float


class Kind(NamedTuple):
    scenario: type
    runner: Callable[..., BoundCurve]
    params: tuple[Param, ...]


_TWO_QUBIT = (Param("p", "p", 0.1), Param("theta", "theta", 1.0), Param("mu3", "mu3", 0.0))

KINDS: dict[str, Kind] = {
    "entanglement": Kind(EntanglementScenario, run_entanglement_scenario, _TWO_QUBIT),
    "modular": Kind(EntanglementScenario, run_modular_scenario, _TWO_QUBIT),
    "battery": Kind(
        BatteryScenario,
        run_battery_scenario,
        (Param("omega", "omega", 2.0), Param("Omega", "big_omega", 1.0), Param("J", "j", 1.0)),
    ),
}


@dataclass(frozen=True)
class PresetRun:
    """One curve of a preset: a label plus the scenario parameters, keyed
    by flag.  Keys that are no parameter of the kind (the battery ``mode``)
    are labels for the CSV header only."""

    label: Optional[str]
    params: dict
    t_max: float


@dataclass(frozen=True)
class Preset:
    kind: str
    runs: tuple[PresetRun, ...]


PRESETS: dict[str, Preset] = {
    "fig2": Preset(
        "entanglement",
        (PresetRun(None, {"p": 0.1, "theta": 1.0, "mu3": 0.0}, 1.0),),
    ),
    "fig3": Preset(
        "entanglement",
        tuple(
            PresetRun(f"theta{theta:g}", {"p": 0.1, "theta": theta, "mu3": 0.0}, 1.0)
            for theta in (0.5, 1.0, 1.5, 2.0)
        ),
    ),
    "fig5": Preset(
        "modular",
        (PresetRun(None, {"p": 0.1, "theta": 1.0, "mu3": 0.0}, 1.0),),
    ),
    "fig6": Preset(
        "modular",
        tuple(
            PresetRun(f"theta{theta:g}", {"p": 0.1, "theta": theta, "mu3": 0.0}, 1.0)
            for theta in (0.5, 1.0)
        ),
    ),
    "fig7": Preset(
        "battery",
        (
            PresetRun("coupled", {"omega": 2.0, "Omega": 1.0, "J": 1.0, "mode": "coupled"}, 2.0),
            PresetRun("decoupled", {"omega": 2.0, "Omega": 4.0, "J": 1.0, "mode": "decoupled"}, 2.0),
        ),
    ),
    "fig8": Preset(
        "battery",
        (
            PresetRun("coupled", {"omega": 2.0, "Omega": 1.0, "J": 1.0, "mode": "coupled"}, 6.0),
            PresetRun("decoupled", {"omega": 2.0, "Omega": 4.0, "J": 1.0, "mode": "decoupled"}, 6.0),
        ),
    ),
}


def plain_run(kind: str, params: dict, t_max: float) -> Preset:
    """One unlabelled curve from flag values.  A battery curve is labelled
    like the figures: ``parallel`` cells without exchange, else
    ``collective``."""
    if kind == "battery":
        params = {**params, "mode": "parallel" if params["J"] == 0.0 else "collective"}
    return Preset(kind, (PresetRun(None, params, t_max),))


def build_scenario(kind: str, params: dict, grid: TimeGrid):
    spec = KINDS[kind]
    return spec.scenario(grid=grid, **{p.field: params[p.flag] for p in spec.params})


def run_scenario(kind: str, scenario) -> BoundCurve:
    return KINDS[kind].runner(scenario)


def build_preset_curves(
    preset: Preset, n_steps: Optional[int]
) -> list[tuple[Optional[str], dict, BoundCurve]]:
    """All curves of a preset as (label, parameters, curve) triples, on
    grids of n_steps intervals, or of the default resolution for None."""
    out = []
    for run in preset.runs:
        grid = TimeGrid.with_resolution(run.t_max, n_steps)
        scenario = build_scenario(preset.kind, run.params, grid)
        out.append((run.label, dict(run.params), run_scenario(preset.kind, scenario)))
    return out
