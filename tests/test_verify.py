"""The invariant registry behind ``qslbound verify``, run as tests.

Every registered check is one test at default resolution.  The checks run
on the test session's shared context (``run`` in conftest), as in a
``qslbound verify`` run, so each preset is built once and each check runs
once however many tests name it.  Tests that patch code build fresh
contexts and never read that memo.
"""

import dataclasses

import numpy as np
import pytest

import qslbound.dynamics as dynamics
from qslbound import reference_forms as ref
from qslbound import scenarios, verify
from qslbound.cli import main

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


def test_registry_holds_the_pinned_checks_in_order():
    assert [check.name for check in verify.CHECKS] == list(EXPECTED)


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_invariant(check, run):
    result = run.result(check)
    assert result.status == EXPECTED[check.name], result.detail


def assert_fails_on_comparison(name):
    """The check ``name`` fails on its comparison, not on an exception."""
    check = next(check for check in verify.CHECKS if check.name == name)
    result = verify.run_check(check, verify.RunContext())
    assert result.status == "fail" and not result.detail.startswith("raised "), result.detail


def test_preset_curves_do_not_outlive_a_run(monkeypatch):
    # A first run builds clean preset curves; a run after a sign error in
    # the commutator must rebuild them and fail the checks that read them.
    names = ("scenarios/modular-saturation", "scenarios/battery-saturation-overlap")
    checks = [check for check in verify.CHECKS if check.name in names]

    def statuses():
        run = verify.RunContext(64)
        return [verify.run_check(check, run).status for check in checks]

    assert statuses() == ["pass", "pass"]
    monkeypatch.setattr(dynamics, "commutator", lambda a, b: a @ b + b @ a)
    assert statuses() == ["fail", "fail"]


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


@pytest.mark.parametrize(
    "name, form, broken",
    [
        # Every recorded value out of [0, 1], or every recorded state NaN:
        # nothing is left to compare, which must not read as a match.
        (
            "fixtures/battery-decoupled-r",
            "r_battery_decoupled_printed",
            lambda t: (np.full_like(t, 2.0), np.full_like(t, 3.0)),
        ),
        (
            "fixtures/battery-coupled-perp",
            "perp_battery_coupled_printed",
            lambda t: np.full(4, np.nan),
        ),
    ],
    ids=["battery-decoupled-r", "battery-coupled-perp"],
)
def test_a_recorded_form_with_nothing_to_compare_fails(name, form, broken, monkeypatch):
    monkeypatch.setattr(ref, form, broken)
    assert_fails_on_comparison(name)


def test_a_coupled_sample_without_an_in_range_branch_fails(monkeypatch):
    # One sample where the pipeline has r but the recorded form offers no
    # in-range branch must fail the check, not drop out of the comparison.
    original = ref.r_battery_coupled_branches

    def first_sample_out_of_range(t):
        at_first = t == verify._FIXTURE_TIMES[0]
        return tuple(np.where(at_first, bad, v) for bad, v in zip((2.0, 3.0), original(t)))

    monkeypatch.setattr(ref, "r_battery_coupled_branches", first_sample_out_of_range)
    assert_fails_on_comparison("fixtures/battery-coupled-r")


def test_an_entanglement_sample_without_a_pipeline_r_fails(monkeypatch):
    # A NaN pipeline r where the printed value is in range must fail the
    # check, not drop out of the comparison.
    original = verify.sample_entanglement

    def losing_one(*args):
        samples = original(*args)
        r = samples.r.copy()
        in_range = ref.in_range(ref.r_entanglement_printed(0.1, 1.0, args[-1]))
        r[np.flatnonzero(in_range)[0]] = np.nan
        return samples._replace(r=r)

    monkeypatch.setattr(verify, "sample_entanglement", losing_one)
    assert_fails_on_comparison("fixtures/entanglement-r")


def test_an_all_nan_tensor_product_fails_its_check(monkeypatch):
    # A NaN deviation must fail the check, not drop out of its maximum.
    monkeypatch.setattr(verify, "tensor_product", lambda a, b: np.full((6, 6), np.nan))
    assert_fails_on_comparison("operator-core/tensor-product-trace")


def test_a_one_percent_shrink_of_the_sqslo_fails_the_run(monkeypatch, capsys):
    # t_sqslo = max(t_qslo, 0.99 t_sqslo) in qsl_integral: every
    # direct-integral curve drops 1% below the diagonal it saturates.
    original = verify.qsl_integral

    def shrunk(*args):
        curve = original(*args)
        return dataclasses.replace(curve, t_sqslo=np.maximum(curve.t_qslo, 0.99 * curve.t_sqslo))

    for module in (scenarios, verify):
        monkeypatch.setattr(module, "qsl_integral", shrunk)
    assert main(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAIL ")}
    assert failed == {"scenarios/modular-saturation", "scenarios/battery-saturation-overlap"}
