import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spacsim import errors, fock
from spacsim.fock import (
    CoherentParams,
    StateVector,
    adaptive_dim,
    displacement_matrix,
    inner_product,
    spacs_state,
)

from _reference import (
    _displaced_spacs_profile,
    apply,
    coherent_state,
    expectation,
    fock_state,
    ladder_ops,
    normalize,
    phase_quadrature,
    probe_adaptive_dim,
    quadrature_ops,
    unitarity_defect,
)


def random_state(dim: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return normalize(amps)


# ---------------------------------------------------------------- ladder ops

def test_ladder_dim2_single_entry():
    a, _ = ladder_ops(2)
    expected = np.zeros((2, 2), complex)
    expected[0, 1] = 1.0
    np.testing.assert_array_equal(a, expected)


def test_ladder_commutator_corner_dim4():
    a, adag = ladder_ops(4)
    comm = a @ adag - adag @ a
    expected = np.eye(4, dtype=complex)
    expected[3, 3] = -3.0
    # products of irrational square roots are exact only to the ulp
    np.testing.assert_allclose(comm, expected, atol=1e-12, rtol=0)


def test_creation_on_vacuum():
    _, adag = ladder_ops(5)
    assert apply(adag, fock_state(0, 5))[1] == 1.0


def test_ladder_rejects_small_dim():
    with pytest.raises(errors.InvalidDimensionError):
        ladder_ops(1)


@given(st.integers(min_value=2, max_value=60))
def test_commutator_truncation_law(dim):
    # identity everywhere except the corner, which is -(dim-1)
    a, adag = ladder_ops(dim)
    comm = a @ adag - adag @ a
    expected = np.eye(dim, dtype=complex)
    expected[-1, -1] = -(dim - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-12, rtol=0)


# ---------------------------------------------------------------- quadratures

def test_quadratures_hermitian():
    x, p = quadrature_ops(8, sigma=1.0)
    assert np.max(np.abs(x - x.conj().T)) < 1e-15
    assert np.max(np.abs(p - p.conj().T)) < 1e-15


def test_quadrature_canonical_commutator():
    dim = 10
    x, p = quadrature_ops(dim)
    comm = x @ p - p @ x
    block = comm[: dim - 1, : dim - 1]
    np.testing.assert_allclose(block, 1j * np.eye(dim - 1), atol=1e-14)


def test_quadrature_sigma_scaling():
    x1, _ = quadrature_ops(6, sigma=1.0)
    xh, _ = quadrature_ops(6, sigma=0.5)
    np.testing.assert_allclose(xh, 0.5 * x1, atol=0)


def test_quadrature_rejects_bad_sigma():
    with pytest.raises(errors.InvalidParameterError):
        quadrature_ops(6, sigma=0.0)


def test_phase_quadrature_at_zero():
    a, adag = ladder_ops(7)
    np.testing.assert_allclose(phase_quadrature(7, 0.0), (a + adag) / math.sqrt(2), atol=1e-16)


def test_phase_quadrature_conjugate_pair_commutator():
    dim = 12
    phi = 0.7
    x1 = phase_quadrature(dim, phi)
    x2 = phase_quadrature(dim, phi + math.pi / 2)
    comm = (x1 @ x2 - x2 @ x1)[: dim - 1, : dim - 1]
    np.testing.assert_allclose(comm, 1j * np.eye(dim - 1), atol=1e-14)


@given(st.floats(min_value=-10, max_value=10))
def test_phase_quadrature_antiperiodic(phi):
    np.testing.assert_allclose(
        phase_quadrature(6, phi + math.pi), -phase_quadrature(6, phi), atol=1e-14
    )


@settings(max_examples=25)
@given(st.integers(min_value=3, max_value=20), st.floats(min_value=0, max_value=7), st.integers(0, 2**31))
def test_variance_pi_periodic(dim, phi, seed):
    # Var(X_{phi+pi}) = Var(X_phi) since X_{phi+pi} = -X_phi
    state = random_state(dim, seed)

    def variance(angle):
        op = phase_quadrature(dim, angle)
        mean = expectation(op, state).real
        return expectation(op @ op, state).real - mean * mean

    assert abs(variance(phi) - variance(phi + math.pi)) < 1e-12


# ---------------------------------------------------------------- states

def test_coherent_vacuum():
    state = coherent_state(CoherentParams(0.0), 8)
    np.testing.assert_array_equal(state.amplitudes, fock_state(0, 8).amplitudes)


def test_coherent_mean_photon():
    alpha = CoherentParams(2.0)
    dim = adaptive_dim(alpha, 0.0)
    state = coherent_state(alpha, dim)
    nop = np.diag(np.arange(dim, dtype=float)).astype(complex)
    assert abs(expectation(nop, state).real - 4.0) < 1e-9


def test_coherent_eigenstate_residual():
    alpha = CoherentParams(2.0)
    dim = adaptive_dim(alpha, 0.0)
    state = coherent_state(alpha, dim)
    a, _ = ladder_ops(dim)
    residual = apply(a, state) - alpha.alpha * state.amplitudes
    assert np.linalg.norm(residual) < 1e-6


def test_coherent_poisson_law():
    alpha = CoherentParams(1.7, 0.9)
    dim = adaptive_dim(alpha, 0.0)
    probs = np.abs(coherent_state(alpha, dim).amplitudes) ** 2
    x = alpha.mod_sq
    n = np.arange(dim)
    from scipy.special import gammaln

    reference = np.exp(-x + n * math.log(x) - gammaln(n + 1.0))
    assert np.max(np.abs(probs - reference)) < 1e-10


def test_log_factorial_table_matches_scipy_gammaln():
    from scipy.special import gammaln

    size = 2 * fock.DIM_CAP + 2
    half_log_factorial = fock._ladder(size)[2][:size]
    want = 0.5 * gammaln(np.arange(size) + 1.0)
    np.testing.assert_allclose(half_log_factorial, want, rtol=1e-15, atol=0.0)


def test_ladder_sizes_agree_bit_for_bit():
    # a sweep reads the same log(n!) whatever size of table an earlier width grew
    small, large = fock._ladder(1), fock._ladder(4096)
    assert [t.size for t in small] == [256] * 4 and [t.size for t in large] == [4096] * 4
    for table_small, table_large in zip(small, large):
        assert table_small.tobytes() == table_large[:256].tobytes()
        assert not table_small.flags.writeable
    assert fock._ladder(257)[0].size == 512 and fock._ladder(256) is small


def test_coherent_truncation_error():
    with pytest.raises(errors.TruncationError):
        coherent_state(CoherentParams(3.0), 8)


def test_spacs_at_zero_is_single_photon():
    state = spacs_state(CoherentParams(0.0), 6)
    np.testing.assert_array_equal(state.amplitudes, fock_state(1, 6).amplitudes)


def test_spacs_mean_photon_brute_force():
    # brute-force <n> in the truncated basis against (r^4 + 3 r^2 + 1)/(1 + r^2)
    alpha = CoherentParams(2.0)
    state = spacs_state(alpha, 60)
    nop = np.diag(np.arange(60, dtype=float)).astype(complex)
    mean = expectation(nop, state).real
    assert abs(mean - 5.8) < 1e-8
    closed = (2.0**4 + 3 * 2.0**2 + 1) / (1 + 2.0**2)
    assert abs(mean - closed) < 1e-8


@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
def test_spacs_vacuum_amplitude_zero(r, theta):
    state = spacs_state(CoherentParams(r, theta), 70)
    assert state.amplitudes[0] == 0.0


def test_coherent_params_validation():
    with pytest.raises(errors.InvalidParameterError):
        CoherentParams(-0.5)
    assert CoherentParams(1.0, -math.pi / 2).theta == pytest.approx(1.5 * math.pi)


# ---------------------------------------------------------------- displacement

def test_displacement_zero_is_identity():
    np.testing.assert_array_equal(displacement_matrix(0.0, 17), np.eye(17, dtype=complex))


def test_displacement_column_zero_matches_coherent():
    column = displacement_matrix(0.5, 60)[:, 0]
    reference = coherent_state(CoherentParams(0.5), 60).amplitudes
    assert np.max(np.abs(column - reference)) < 1e-10


def test_displacement_inverse_product():
    product = displacement_matrix(1.0, 60) @ displacement_matrix(-1.0, 60)
    block = product[:30, :30]
    assert np.max(np.abs(block - np.eye(30))) < 1e-9


@pytest.mark.parametrize("beta", [0.5, 1.0 + 0.5j, 2.0, 3.0, -0.3 + 1.2j])
def test_displacement_unitarity_defect(beta):
    # twice the adaptive dimension for twice the displacement reach keeps
    # the retained half block unitary to well below 1e-9
    dim = 2 * adaptive_dim(CoherentParams(2 * abs(beta), float(np.angle(beta))), 0.0)
    defect = unitarity_defect(displacement_matrix(beta, dim))
    assert defect < 1e-9


def test_displacement_matches_coherent_shift():
    # D(beta)|0> reproduces the coherent amplitudes for complex beta too
    beta = 0.8 * np.exp(1j * 0.6)
    column = displacement_matrix(beta, 50)[:, 0]
    reference = coherent_state(CoherentParams(0.8, 0.6), 50).amplitudes
    assert np.max(np.abs(column - reference)) < 1e-12


# ---------------------------------------------------------------- closed-form displaced states

@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=24.0),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from((0.5, -0.5, 1.0)),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
@example(r=1.0, theta=5e-324, s=1.0, fraction=0.5, shift_angle=0.0)  # angle underflows
def test_displaced_spacs_matches_dense_displacement(r, theta, s, fraction, shift_angle):
    # fraction +-1/2 gives the two measurement branches, 1 the adaptive_dim probe
    alpha = CoherentParams(r, theta)
    dim = adaptive_dim(alpha, s)
    b = fraction * s * np.exp(1j * shift_angle)
    [[closed]], _ = fock.displaced_spacs([alpha], [(b,)], [dim])
    dense = displacement_matrix(b, dim) @ spacs_state(alpha, dim).amplitudes
    assert np.max(np.abs(closed - dense)) <= 1e-12


def test_displaced_spacs_at_zero_shift_is_the_pointer():
    alpha = CoherentParams(2.0, 0.7)
    np.testing.assert_array_equal(
        fock.displaced_spacs([alpha], [(0.0,)], [45])[0][0, 0], spacs_state(alpha, 45).amplitudes
    )


def test_displaced_spacs_through_the_vacuum():
    # alpha + b = 0 leaves (a_dag - b*)|0> for the closed form to build
    alpha = CoherentParams(0.75, 0.4)
    b = -alpha.alpha
    [[closed]], _ = fock.displaced_spacs([alpha], [(b,)], [30])
    dense = displacement_matrix(b, 30) @ spacs_state(alpha, 30).amplitudes
    assert np.max(np.abs(closed - dense)) <= 1e-12


def test_displaced_spacs_batch_rows_equal_lone_builds():
    # mixed dims, the vacuum, a zero shift and a truncated pointer in one batch:
    # each row holds the bytes of its own one-pointer call, then exact zeros
    alphas = [CoherentParams(0.0), CoherentParams(4.0, math.pi / 9), CoherentParams(2.0, 1.0),
              CoherentParams(4.0)]
    shifts, dims = [(0.5, -0.5), (0.0, 1j), (0.25, -0.25), (0.5, -0.5)], [20, 95, 44, 16]
    batch, faults = fock.displaced_spacs(alphas, shifts, dims)
    assert batch.shape == (2, 4, 95)
    assert [type(fault) for fault in faults] == [type(None)] * 3 + [errors.TruncationError]
    for p, (alpha, shift, dim) in enumerate(zip(alphas, shifts, dims)):
        lone, _ = fock.displaced_spacs([alpha], [shift], [dim])
        assert batch[:, p, :dim].tobytes() == lone[:, 0].tobytes()
        assert not batch[:, p, dim:].any()


# ---------------------------------------------------------------- adaptive dim

def test_adaptive_dim_floor_bound():
    assert adaptive_dim(CoherentParams(0.0), 0.0) == 20


def test_adaptive_dim_leaves_tiny_tail():
    alpha = CoherentParams(4.0)
    dim = adaptive_dim(alpha, 2.0)
    reference = spacs_state(alpha, 4 * dim)
    shifted = displacement_matrix(2.0, 4 * dim) @ reference.amplitudes
    tail = float(np.sum(np.abs(shifted[dim:]) ** 2))
    assert tail < 1e-10


def test_adaptive_dim_nondecreasing_in_s():
    alpha = CoherentParams(2.0)
    assert adaptive_dim(alpha, 0.1) <= adaptive_dim(alpha, 10.0)


def test_adaptive_dim_cap():
    with pytest.raises(errors.ConvergenceError):
        adaptive_dim(CoherentParams(60.0), 0.0)


def test_adaptive_dim_huge_reach_hits_cap_before_overflow():
    # (r + s)^2 overflows to inf here; the cap check must come first
    with pytest.raises(errors.ConvergenceError):
        adaptive_dim(CoherentParams(1e200), 0.0)
    with pytest.raises(errors.ConvergenceError):
        adaptive_dim(CoherentParams(1.0), 1e300)


def _dim_or_cap(choose, *args):
    try:
        return choose(*args)
    except errors.ConvergenceError:
        return "cap"


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=58.0),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=-12.0, max_value=-4.0),
)
@example(r=28.0, theta=0.0, s=3.0, log_tol=-9.0)  # dim 1291
@example(r=0.0, theta=0.0, s=0.0, log_tol=-9.0)  # dim 20
def test_adaptive_dim_matches_doubling_probe(r, theta, s, log_tol):
    # the probe doubles until it meets tol; adaptive_dim certifies TAIL_TOL
    # only, and one dimension serves every tol in [1e-12, 1e-4]
    alpha, tol = CoherentParams(r, theta), 10.0**log_tol
    assert _dim_or_cap(adaptive_dim, alpha, s) == _dim_or_cap(probe_adaptive_dim, alpha, s, tol)


@pytest.mark.parametrize("r", [36.55, 36.59, 47.3, 59.0])
def test_truncation_tolerance_keeps_its_margin(r):
    # r = 36.55 and 36.59 failed the pointer tail check at a 1e-12 tolerance
    alpha = CoherentParams(r)
    dim = adaptive_dim(alpha, 0.0)
    spacs_state(alpha, dim)
    added = fock._photon_added(fock._coherent_amplitudes([(r, 0.0)], dim))
    [kept_norm], _ = fock._retained([alpha], [dim], added)
    assert 1.0 - kept_norm**2 / (1.0 + r * r) < fock.TAIL_TOL / 100


def test_adaptive_dim_raises_when_certificate_fails(monkeypatch):
    adaptive_dim.cache_clear()
    monkeypatch.setattr(fock, "_doubling_bound", lambda reach, s, dim: 1.0)
    with pytest.raises(errors.ConvergenceError):
        adaptive_dim(CoherentParams(1.0), 0.0)


@pytest.mark.parametrize("r", [0.3, 1.0, 2.0, 4.0, 10.0, 28.0])
@pytest.mark.parametrize("s", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("theta", [0.0, 1.1, math.pi / 2])
def test_doubling_bound_covers_probe_below_start(r, s, theta):
    # between reach^2 (where the Chernoff bound starts to hold) and the start
    # dimension, the tails are large enough to measure
    alpha = CoherentParams(r, theta)
    reach = r + s
    start = int(math.floor(reach * reach + 10.0 * reach + 20.0))
    checked = 0
    for dim in range(int(reach * reach) + 4, start, max(1, start // 40)):
        mass_lo, mean_lo = _displaced_spacs_profile(alpha, s, dim)
        mass_hi, mean_hi = _displaced_spacs_profile(alpha, s, 2 * dim)
        mass_change = abs(mass_hi - mass_lo)
        mean_change = abs(mean_hi - mean_lo) / max(1.0, mean_hi)
        if max(mass_change, mean_change) > 1e-13:
            checked += 1
            assert fock._doubling_bound(reach, s, dim) >= max(mass_change, mean_change), dim
    assert checked > 0


# ---------------------------------------------------------------- linalg ops

def test_vacuum_inner_product():
    assert inner_product(fock_state(0, 4), fock_state(0, 4)) == 1.0


def test_inner_product_conjugates_first_argument():
    u = StateVector(np.array([1j, 0.0]))
    v = StateVector(np.array([1.0, 0.0]))
    assert inner_product(u, v) == pytest.approx(-1j)


def test_expectation_number_state():
    dim = 8
    a, adag = ladder_ops(dim)
    value = expectation(adag @ a, fock_state(3, dim))
    assert value.real == pytest.approx(3.0, abs=1e-14)
    assert value.imag == pytest.approx(0.0, abs=1e-14)


def test_displaced_coherent_overlap_modulus():
    # |<alpha|alpha - s>| = exp(-s^2/2), via the direct amplitude sum
    s = 0.8
    alpha = CoherentParams(1.5, 0.4)
    shifted = CoherentParams(abs(alpha.alpha - s), float(np.angle(alpha.alpha - s)))
    dim = adaptive_dim(alpha, s)
    overlap = inner_product(coherent_state(alpha, dim), coherent_state(shifted, dim))
    assert abs(abs(overlap) - math.exp(-0.5 * s * s)) < 1e-12


def test_dimension_mismatch_errors():
    with pytest.raises(errors.DimensionMismatchError):
        inner_product(fock_state(0, 4), fock_state(0, 5))
    with pytest.raises(errors.DimensionMismatchError):
        apply(np.eye(4), fock_state(0, 5))


def test_normalize_zero_vector_rejected():
    with pytest.raises(errors.InvalidParameterError):
        normalize(np.zeros(3, complex))


def test_state_vector_must_be_normalized():
    for amps in ([1.0, 1.0], [np.nan, 0.0], [0.0, 0.0]):
        with pytest.raises(errors.InvalidParameterError):
            StateVector(np.array(amps))


def test_state_vector_immutable():
    state = fock_state(0, 3)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0
