"""Quantum-speed-limit bounds for observables (QSLO and the stronger SQSLO).

Dense linear algebra for small Hilbert spaces, entropy-like measures,
unitary dynamics, the bounds engine, and three two-qubit case studies
(entanglement generation, modular energy, quantum-battery charging) with
closed-form oracles and a CLI front end.  The package namespace carries the
case-study surface; the building blocks live in their modules.
"""

from .bounds import BoundCurve
from .dynamics import TimeGrid
from .scenarios import (
    BatteryScenario,
    EntanglementScenario,
    run_battery_scenario,
    run_entanglement_scenario,
    run_modular_scenario,
)
from .states import DegenerateObservableError

__version__ = "0.1.0"

__all__ = [
    "BatteryScenario",
    "BoundCurve",
    "DegenerateObservableError",
    "EntanglementScenario",
    "TimeGrid",
    "run_battery_scenario",
    "run_entanglement_scenario",
    "run_modular_scenario",
]
