"""Acceptance suite: one test per acceptance criterion of the paper's contract.

Each criterion is defined once, as one or more checks of the invariant
registry behind ``qslbound verify``; a test here names the criterion and
reads the checks that hold it at default resolution.  Criterion 9 (CLI file
determinism of every preset) is
``tests/test_cli.py::TestEmission::test_every_preset_is_byte_identical_across_runs``.
"""

from conftest import assert_check


def test_criterion_1_hierarchy_all_presets(run):
    assert_check(run, "scenarios/hierarchy-presets")


def test_criterion_2_entanglement_improvement(run):
    # fig2: t_sqslo > t_qslo at every interior point, ratio > 1.05 at T = 1.
    assert_check(run, "scenarios/hierarchy-presets")


def test_criterion_3_modular_saturation(run):
    assert_check(run, "scenarios/modular-saturation")


def test_criterion_4_battery_saturation_and_overlap(run):
    assert_check(run, "scenarios/battery-saturation-overlap")
    assert_check(run, "scenarios/battery-qslo-parallel-collective")


def test_criterion_5_closed_form_oracles(run):
    assert_check(run, "scenarios/closed-forms")


def test_criterion_6_uncertainty_fuzzing(run):
    assert_check(run, "speed-limits/uncertainty-fuzz-holds")
    assert_check(run, "speed-limits/optimal-branch-saturation")


def test_criterion_7_single_qubit_sanity(run):
    assert_check(run, "speed-limits/single-qubit-saturation")


def test_criterion_8_entanglement_rate_bound(run):
    assert_check(run, "scenarios/entanglement-rate-bound")
