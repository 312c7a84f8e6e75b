import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacsim import errors, fock
from spacsim.fock import CoherentParams, StateVector, adaptive_dim, spacs_state
from spacsim.observables import (
    analytic_q_initial,
    analytic_s_initial,
    distribution_moments,
    edge_tail_mass,
    mandel_q,
    photon_distribution,
    squeezing,
)

from _reference import apply, coherent_state, fock_state, normalize, phase_quadrature

PI = math.pi

R_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
THETA_GRID = (0.0, PI / 9, PI / 2)
PHI_GRID = (0.0, PI / 4, PI / 2)


def random_state(dim: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    return normalize(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def spacs_at_adaptive_dim(r: float, theta: float = 0.0) -> StateVector:
    alpha = CoherentParams(r, theta)
    return spacs_state(alpha, adaptive_dim(alpha, 0.0))


# ---------------------------------------------------------------- distribution

def test_distribution_single_photon():
    probs = photon_distribution(spacs_state(CoherentParams(0.0), 6))
    expected = np.zeros(6)
    expected[1] = 1.0
    np.testing.assert_array_equal(probs, expected)


def test_distribution_coherent_poisson_mean():
    alpha = CoherentParams(2.0)
    probs = photon_distribution(coherent_state(alpha, adaptive_dim(alpha, 0.0)))
    mean, var = distribution_moments(probs)
    assert mean == pytest.approx(4.0, abs=1e-10)
    assert var == pytest.approx(4.0, abs=1e-9)


def test_distribution_normalized():
    probs = photon_distribution(spacs_at_adaptive_dim(2.0, PI / 9))
    assert abs(float(np.sum(probs)) - 1.0) < 1e-10
    assert np.all(probs >= 0.0)


# ---------------------------------------------------------------- Mandel Q

def test_q_zero_for_coherent():
    for r, theta in ((0.7, 0.0), (2.0, 1.1), (3.5, 4.0)):
        alpha = CoherentParams(r, theta)
        state = coherent_state(alpha, adaptive_dim(alpha, 0.0))
        assert abs(mandel_q(state)) < 1e-9


def test_q_minus_one_for_fock_states():
    for n in (1, 2, 5, 11):
        assert mandel_q(fock_state(n, 16)) == -1.0


def test_q_undefined_for_vacuum():
    with pytest.raises(errors.UndefinedQError):
        mandel_q(fock_state(0, 8))


def test_q_matches_closed_form_r2():
    assert mandel_q(spacs_at_adaptive_dim(2.0)) == pytest.approx(
        analytic_q_initial(CoherentParams(2.0)), abs=1e-8
    )


def test_analytic_q_endpoints():
    assert analytic_q_initial(CoherentParams(0.0)) == -1.0
    assert analytic_q_initial(CoherentParams(1.0)) == pytest.approx(-0.5, abs=1e-15)
    assert analytic_q_initial(CoherentParams(2.0)) == pytest.approx(-41.0 / 145.0, abs=1e-15)


def test_analytic_q_asymptotics():
    # Q -> -2/r^2 from below as r grows
    assert abs(analytic_q_initial(CoherentParams(100.0))) < 3e-4
    assert analytic_q_initial(CoherentParams(100.0)) < 0.0


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("theta", THETA_GRID)
def test_q_pairing_grid(r, theta):
    state = spacs_at_adaptive_dim(r, theta)
    assert mandel_q(state) == pytest.approx(analytic_q_initial(CoherentParams(r, theta)), abs=1e-8)


def test_q_phase_independent():
    values = [mandel_q(spacs_at_adaptive_dim(1.5, theta)) for theta in (0.0, 0.8, 2.9, 5.1)]
    assert max(values) - min(values) < 1e-10


@settings(max_examples=40)
@given(st.integers(min_value=3, max_value=30), st.integers(0, 2**31))
def test_q_lower_bound(dim, seed):
    assert mandel_q(random_state(dim, seed)) >= -1.0


# ---------------------------------------------------------------- squeezing

def test_squeezing_zero_for_vacuum_and_coherent():
    for phi in (0.0, 0.9, PI / 2):
        assert abs(squeezing(fock_state(0, 12), phi)) < 1e-10
    alpha = CoherentParams(1.8, 0.7)
    state = coherent_state(alpha, adaptive_dim(alpha, 0.0))
    for phi in (0.0, 0.9, PI / 2):
        assert abs(squeezing(state, phi)) < 1e-10


def test_squeezing_matched_phase_r2():
    state = spacs_at_adaptive_dim(2.0, PI / 2)
    assert squeezing(state, PI / 2) == pytest.approx(-0.12, abs=1e-8)


def test_squeezing_threshold_r1():
    state = spacs_at_adaptive_dim(1.0, 0.6)
    assert squeezing(state, 0.6) == pytest.approx(0.0, abs=1e-10)


def test_analytic_s_fock_limit():
    # r = 0 gives the |1> quadrature variance 3/2, so S = 1 at every phase
    for phi in (0.0, 1.0, 2.5):
        assert analytic_s_initial(CoherentParams(0.0), phi) == 1.0
        assert squeezing(fock_state(1, 12), phi) == pytest.approx(1.0, abs=1e-12)


def test_analytic_s_quarter_turn_positive():
    for r in (0.5, 2.0, 10.0):
        alpha = CoherentParams(r, 0.3)
        value = analytic_s_initial(alpha, 0.3 + PI / 4)
        assert value == pytest.approx(fock.spacs_gamma_sq(r * r) ** 2, abs=1e-15)
        assert value > 0.0


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("phi", PHI_GRID)
def test_s_pairing_grid(r, theta, phi):
    state = spacs_at_adaptive_dim(r, theta)
    assert squeezing(state, phi) == pytest.approx(
        analytic_s_initial(CoherentParams(r, theta), phi), abs=1e-8
    )


@settings(max_examples=40)
@given(
    st.integers(min_value=3, max_value=30),
    st.floats(min_value=0.0, max_value=2 * PI),
    st.integers(0, 2**31),
)
def test_squeezing_lower_bound(dim, phi, seed):
    assert squeezing(random_state(dim, seed), phi) >= -0.5


@settings(max_examples=40)
@given(
    st.integers(min_value=3, max_value=24),
    st.floats(min_value=0.0, max_value=2 * PI),
    st.integers(0, 2**31),
)
def test_squeezing_pi_periodic(dim, phi, seed):
    state = random_state(dim, seed)
    assert abs(squeezing(state, phi) - squeezing(state, phi + PI)) < 1e-12


def dense_squeezing(state: StateVector, phi: float) -> float:
    """Reference: the dense phase_quadrature matrix applied to the state."""
    shifted = apply(phase_quadrature(state.dim, phi), state)
    mean = float(np.vdot(state.amplitudes, shifted).real)
    centered = shifted - mean * state.amplitudes
    return float(np.vdot(centered, centered).real) - 0.5


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=80),
    st.floats(min_value=-2 * PI, max_value=2 * PI),
    st.integers(0, 2**31),
)
def test_squeezing_matches_dense_quadrature(dim, phi, seed):
    state = random_state(dim, seed)
    reference = dense_squeezing(state, phi)
    assert abs(squeezing(state, phi) - reference) <= 1e-12 * max(1.0, abs(reference))


# ---------------------------------------------------------------- diagnostics

def test_edge_tail_mass_converged_state():
    assert edge_tail_mass(spacs_at_adaptive_dim(2.0)) < 1e-15


def test_edge_tail_mass_detects_edge_occupation():
    assert edge_tail_mass(fock_state(9, 10)) == 1.0
