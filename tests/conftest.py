"""Shared helpers for the test suite."""

from __future__ import annotations

from functools import partial

import pytest

from qslbound import verify

random_density, random_hermitian, random_state = (
    partial(verify._random, kind) for kind in (verify._density, verify._hermitian, verify._state)
)


class SessionRun(verify.RunContext):
    """The run behind every named check of a test session: each check runs
    once, on first request, and its result is kept for the session."""

    def __init__(self):
        super().__init__()
        self.results: dict[str, verify.CheckResult] = {}

    def result(self, check: verify.Check) -> verify.CheckResult:
        if check.name not in self.results:
            self.results[check.name] = verify.run_check(check, self)
        return self.results[check.name]


@pytest.fixture(scope="session")
def run():
    return SessionRun()


def assert_check(run, name, expected="pass"):
    """Require ``expected`` of the verify-registry check ``name``, the one
    place its invariant is written."""
    result = run.result(next(c for c in verify.CHECKS if c.name == name))
    assert result.status == expected, f"{name}: {result.detail}"
