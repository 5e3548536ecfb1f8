"""The eigenbasis sampler against the scalar reference implementations.

For random (H, O, psi) and a few times t, the sampler's mean, spread,
derivative and correction factor must equal ``moments``, the commutator
form d<O>/dt = i <psi| [H, O] |psi> and ``correction_r`` evaluated one
sample at a time, in both pictures.
"""

import numpy as np
from conftest import random_hermitian, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

from qslbound.bounds import correction_r
from qslbound.dynamics import (
    SAMPLE_BLOCK,
    propagator_family,
    sample_entanglement,
    sample_heisenberg,
)
from qslbound.linalg import commutator, tensor_product
from qslbound.measures import modular_hamiltonian
from qslbound.states import DegenerateObservableError, moments, reduced_state

ATOL = 1e-10

seeds = st.integers(0, 2**32 - 1)
times = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4)
bipartitions = st.tuples(st.integers(2, 8), st.integers(2, 8)).filter(
    lambda dims: dims[0] * dims[1] <= 16
)
examples = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def scalar_reference(obs, h, psi):
    """(mean, spread, d<O>/dt, r) from the scalar functions, r NaN if undefined."""
    m = moments(obs, psi)
    try:
        r = correction_r(obs, h, psi).r
    except DegenerateObservableError:
        r = np.nan
    return m.mean, m.std_dev, (1j * np.vdot(psi, commutator(h, obs) @ psi)).real, r


def assert_matches(samples, expected):
    got = np.column_stack(
        [samples.means, samples.std_devs, samples.derivatives, samples.r]
    )
    np.testing.assert_allclose(got, np.array(expected), rtol=0.0, atol=ATOL)


@examples
@given(d=st.integers(2, 16), seed=seeds, ts=times)
def test_heisenberg_matches_scalar_reference(d, seed, ts):
    rng = np.random.default_rng(seed)
    h, obs, psi = random_hermitian(rng, d), random_hermitian(rng, d), random_state(rng, d)
    u_of_t = propagator_family(h)
    expected = [
        scalar_reference(u.conj().T @ obs @ u, h, psi) for u in map(u_of_t, ts)
    ]
    assert_matches(sample_heisenberg(h, obs, psi, ts), expected)


@examples
@given(dims=bipartitions, seed=seeds, ts=times)
def test_schroedinger_matches_scalar_reference(dims, seed, ts):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    h, psi = random_hermitian(rng, d), random_state(rng, d)
    u_of_t = propagator_family(h)
    expected = []
    for t in ts:
        psi_t = u_of_t(t) @ psi
        k = modular_hamiltonian(reduced_state(psi_t, dims, "A"))
        expected.append(scalar_reference(tensor_product(k, np.eye(dims[1])), h, psi_t))
    assert_matches(sample_entanglement(h, psi, dims, ts), expected)


def test_rank_deficient_reduced_state_matches_the_clamped_reference():
    # A product state has a pure reduced state at t = 0, where -log rho_A is
    # finite only through the clamp of measures.modular_hamiltonian.
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    psi = np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex)
    u_of_t = propagator_family(h)
    expected = []
    for t in (0.0, 0.5):
        psi_t = u_of_t(t) @ psi
        k = modular_hamiltonian(reduced_state(psi_t, (2, 2), "A"))
        expected.append(scalar_reference(tensor_product(k, np.eye(2)), h, psi_t))
    assert_matches(sample_entanglement(h, psi, (2, 2), [0.0, 0.5]), expected)


@examples
@given(d=st.integers(2, 16), seed=seeds)
def test_samples_carry_the_energy_spread(d, seed):
    # dH of H in psi0, taken once per curve, in both pictures.
    rng = np.random.default_rng(seed)
    h, obs, psi = random_hermitian(rng, d), random_hermitian(rng, d), random_state(rng, d)
    expected = moments(h, psi).std_dev
    runs = [sample_heisenberg(h, obs, psi, [0.0, 1.0])]
    if d % 2 == 0:
        runs.append(sample_entanglement(h, psi, (2, d // 2), [0.0, 1.0]))
    for samples in runs:
        np.testing.assert_allclose(samples.delta_h, expected, rtol=1e-14, atol=0.0)


def test_blocks_join_seamlessly():
    # A grid spanning several blocks equals the samples taken one at a time.
    rng = np.random.default_rng(5)
    h, obs, psi = random_hermitian(rng, 4), random_hermitian(rng, 4), random_state(rng, 4)
    ts = np.linspace(0.0, 3.0, 2 * SAMPLE_BLOCK + 7)
    whole = sample_heisenberg(h, obs, psi, ts)
    for k in (0, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, ts.size - 1):
        single = sample_heisenberg(h, obs, psi, ts[k : k + 1])
        np.testing.assert_allclose(
            [field[k] for field in whole[:-1]], [field[0] for field in single[:-1]],
            rtol=0.0, atol=1e-13,
        )
