"""The invariant registry behind ``qslbound verify``, run as tests.

Every registered check is one test at default resolution.  The checks share
one RunContext, as in a ``qslbound verify`` run, so each preset is built
once.
"""

import pytest

import qslbound.dynamics as dynamics
from qslbound import verify

EXPECTED = {
    "operator-core/eig-reconstruction": "pass",
    "operator-core/propagator-unitarity": "pass",
    "operator-core/partial-trace-density": "pass",
    "operator-core/tensor-product-trace": "pass",
    "quantum-state/perpendicular-orthogonality": "pass",
    "quantum-state/moments-density-crosscheck": "pass",
    "quantum-state/two-qubit-schmidt-rank": "pass",
    "info-measures/capacity-equals-modular-variance": "pass",
    "info-measures/entropy-unitary-invariance": "pass",
    "info-measures/ergotropy-bruteforce": "pass",
    "dynamics/picture-equivalence": "pass",
    "dynamics/derivative-consistency": "pass",
    "dynamics/energy-conservation": "pass",
    "speed-limits/uncertainty-fuzz-holds": "pass",
    "speed-limits/optimal-branch-saturation": "pass",
    "speed-limits/single-qubit-saturation": "pass",
    "scenarios/closed-forms": "pass",
    "scenarios/hierarchy-presets": "pass",
    "scenarios/modular-saturation": "pass",
    "scenarios/battery-saturation-overlap": "pass",
    "scenarios/battery-qslo-parallel-collective": "pass",
    "scenarios/ergotropy-j-independence": "pass",
    "scenarios/entanglement-rate-bound": "pass",
    "cli/determinism": "pass",
    "fixtures/battery-coupled-r": "pass",
    # The recorded form carries the frequencies of an Omega = 2 run.
    "fixtures/battery-decoupled-r": "known-discrepancy",
    "fixtures/battery-parallel-r": "pass",
    "fixtures/entanglement-r": "pass",
    "fixtures/entanglement-perp": "pass",
    "fixtures/modular-perp": "pass",
    "fixtures/battery-coupled-perp": "pass",
}


@pytest.fixture(scope="module")
def run():
    return verify.RunContext()


def test_registry_holds_the_pinned_checks_in_order():
    assert [check.name for check in verify.CHECKS] == list(EXPECTED)


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_invariant(check, run):
    result = verify.run_check(check, run)
    assert result.status == EXPECTED[check.name], result.detail


def test_preset_curves_do_not_outlive_a_run(monkeypatch):
    # A first run builds clean preset curves; a run after a sign error in
    # the commutator must rebuild them and fail the checks that read them.
    assert not any(r.status == "fail" for r in verify.run_verify(n_steps=64))
    monkeypatch.setattr(dynamics, "commutator", lambda a, b: a @ b + b @ a)
    statuses = {r.name: r.status for r in verify.run_verify(n_steps=64)}
    assert statuses["scenarios/modular-saturation"] == "fail"
    assert statuses["scenarios/battery-saturation-overlap"] == "fail"
