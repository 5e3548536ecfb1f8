"""Acceptance suite: one test per acceptance criterion of the paper's contract.

Each criterion is defined once, as one or more checks of the invariant
registry behind ``qslbound verify``; a test here names the criterion and
runs the checks that hold it at default resolution.  Criterion 9 (CLI file
determinism of every preset) is
``tests/test_cli.py::TestEmission::test_every_preset_is_byte_identical_across_runs``.
"""

import pytest

from qslbound import verify

BY_NAME = {check.name: check for check in verify.CHECKS}


@pytest.fixture(scope="module")
def run():
    return verify.RunContext()


def assert_pass(run, *names):
    for name in names:
        result = verify.run_check(BY_NAME[name], run)
        assert result.status == "pass", f"{name}: {result.detail}"


def test_criterion_1_hierarchy_all_presets(run):
    assert_pass(run, "scenarios/hierarchy-presets")


def test_criterion_2_entanglement_improvement(run):
    # fig2: t_sqslo > t_qslo at every interior point, ratio > 1.05 at T = 1.
    assert_pass(run, "scenarios/hierarchy-presets")


def test_criterion_3_modular_saturation(run):
    assert_pass(run, "scenarios/modular-saturation")


def test_criterion_4_battery_saturation_and_overlap(run):
    assert_pass(
        run,
        "scenarios/battery-saturation-overlap",
        "scenarios/battery-qslo-parallel-collective",
    )


def test_criterion_5_closed_form_oracles(run):
    assert_pass(run, "scenarios/closed-forms")


def test_criterion_6_uncertainty_fuzzing(run):
    assert_pass(
        run,
        "speed-limits/uncertainty-fuzz-holds",
        "speed-limits/optimal-branch-saturation",
    )


def test_criterion_7_single_qubit_sanity(run):
    assert_pass(run, "speed-limits/single-qubit-saturation")


def test_criterion_8_entanglement_rate_bound(run):
    assert_pass(run, "scenarios/entanglement-rate-bound")
