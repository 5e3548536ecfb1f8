"""The invariant registry behind ``qslbound verify``, run as tests.

Every registered check is one test at default resolution.  The checks run
on the test session's shared context (``run`` in conftest), as in a
``qslbound verify`` run, so each preset is built once and each check runs
once however many tests name it.  Tests that patch code build fresh
contexts and never read that memo.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest
from test_stacks import real_phases

import qslbound.dynamics as dynamics
from qslbound import reference_forms as ref
from qslbound import scenarios, verify
from qslbound.cli import main

EXPECTED = {
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
    "scenarios/direct-form-saturation": "pass",
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


def test_registry_holds_the_pinned_checks_in_order():
    assert [check.name for check in verify.CHECKS] == list(EXPECTED)


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_invariant(check, run):
    result = run.result(check)
    assert result.status == EXPECTED[check.name], result.detail


def test_no_verdict_reads_the_clock(monkeypatch):
    # A clock that jumps 1e3 s per call: a check's seconds are reported,
    # never gated, so every check keeps its pinned status.
    for name in ("monotonic", "perf_counter"):
        monkeypatch.setattr(time, name, itertools.count(step=1e3).__next__)
    results = verify.run_verify(n_steps=64)
    assert {r.name: r.status for r in results} == EXPECTED
    assert all(r.seconds >= 1e3 for r in results)


def test_preset_curves_do_not_outlive_a_run(monkeypatch):
    # A first run builds clean preset curves; a run after the phases lose
    # their sine must rebuild them and fail the check that reads them.
    check = next(check for check in verify.CHECKS if check.name == "scenarios/direct-form-saturation")
    assert verify.run_check(check, verify.RunContext(64)).status == "pass"
    monkeypatch.setattr(dynamics, "_phases", real_phases(dynamics._phases))
    assert verify.run_check(check, verify.RunContext(64)).status == "fail"


@pytest.mark.parametrize(
    "form, name",
    [
        ("r_battery_parallel_printed", "fixtures/battery-parallel-r"),
        ("perp_modular_printed", "fixtures/modular-perp"),
    ],
)
def test_a_broken_recorded_form_fails_the_run(form, name, monkeypatch, capsys):
    # A recorded form off by 0.01 must fail its check and the run, never
    # read as a known discrepancy.
    original = getattr(ref, form)
    monkeypatch.setattr(ref, form, lambda *args: original(*args) + 0.01)
    assert main(["verify", "--steps", "64"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert next(line for line in lines if f" {name} " in line).startswith("FAIL ")
    assert lines[-1].endswith("1 failed, 1 known discrepancies")


def test_a_one_percent_shrink_of_the_sqslo_fails_the_run(monkeypatch, capsys):
    # t_sqslo = max(t_qslo, 0.99 t_sqslo) in qsl_integral: every
    # direct-integral curve drops 1% below the diagonal it saturates,
    # including the integrated entanglement rate bound.
    original = verify.qsl_integral

    def shrunk(*args):
        curve = original(*args)
        return dataclasses.replace(curve, t_sqslo=np.maximum(curve.t_qslo, 0.99 * curve.t_sqslo))

    for module in (scenarios, verify):
        monkeypatch.setattr(module, "qsl_integral", shrunk)
    assert main(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAIL ")}
    assert failed == {"scenarios/direct-form-saturation", "scenarios/entanglement-rate-bound"}


def test_a_loose_entanglement_rate_bound_fails_its_check(monkeypatch):
    # 2 sqrt(C_E) dH (1 - 0.99 r) still caps |dS/dt|, so the check's <= side
    # passes it; the bound is an equality along the canonical evolution, so
    # the tightness gate must not.
    def loose(c_e, delta_h, r):
        return 2.0 * np.sqrt(c_e) * delta_h * (1.0 - 0.99 * np.clip(r, 0.0, 1.0))

    monkeypatch.setattr(verify, "entanglement_rate_bound", loose)
    check = next(check for check in verify.CHECKS if check.name == "scenarios/entanglement-rate-bound")
    result = verify.run_check(check, verify.RunContext())
    assert result.status == "fail" and "tightness gap 1.00e+00" in result.detail, result.detail
