"""Reference helpers that only the tests use.

The package's main path works on O(dim) amplitude vectors; these build
or apply dense operators and plain truncated states, so the tests can
compare the fast paths against a direct computation.  The numeric
doubling probe is the reference for the closed-form dimension choice,
the one-column oracle for the batched one, the complex-arithmetic
dense exponential for the real one, and the point-by-point sweep loop
for the sweep that evaluates each shared pointer once.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from spacsim import fock, observables
from spacsim.errors import (
    ConvergenceError,
    DegeneratePostselectionError,
    DimensionMismatchError,
    InvalidParameterError,
    SpacsimError,
    TruncationError,
)
from spacsim.experiments import (
    PointResult,
    SweepRow,
    SweepSpec,
    _error_row,
    evaluate_point,
)
from spacsim.fock import (
    DIM_CAP,
    TAIL_TOL,
    CoherentParams,
    StateVector,
    _check_dim,
    _coherent_amplitudes,
    require_finite,
)
from spacsim.measurement import SIGMA_X, SelectionConfig

#: generator 1-norm one expm_multiply call of single_selection_oracle covers
REFERENCE_STEP_NORM = 4.0


def ladder_ops(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices (a, a_dagger) with a[n-1, n] = sqrt(n)."""
    dim = _check_dim(dim)
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)
    return a, a.conj().T


def quadrature_ops(dim: int, sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum quadratures X = sigma*(a_dag + a), P = i/(2 sigma)*(a_dag - a)."""
    if sigma <= 0:
        raise InvalidParameterError(f"beam width sigma must be > 0, got {sigma}")
    a, adag = ladder_ops(dim)
    x = sigma * (adag + a)
    p = (0.5j / sigma) * (adag - a)
    return x, p


def fock_state(n: int, dim: int) -> StateVector:
    """Number state |n> in a dim-dimensional basis."""
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise InvalidParameterError(f"Fock index {n} outside basis of dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps)


def normalize(amps: np.ndarray) -> StateVector:
    """The state with amplitudes proportional to amps."""
    n = float(np.linalg.norm(amps))
    if n < 1e-150:
        raise InvalidParameterError("cannot normalize a zero state vector")
    return StateVector(amps / n)


def phase_quadrature(dim: int, phi: float) -> np.ndarray:
    """Rotated quadrature X_phi = (a e^{-i phi} + a_dag e^{i phi}) / sqrt(2)."""
    a, adag = ladder_ops(dim)
    ph = complex(math.cos(phi), math.sin(phi))
    return (a * ph.conjugate() + adag * ph) / math.sqrt(2.0)


def coherent_state(alpha: CoherentParams, dim: int) -> StateVector:
    """Coherent state |alpha>, renormalized over the truncated basis.

    Raises TruncationError when the discarded tail mass exceeds TAIL_TOL.
    """
    dim = _check_dim(dim)
    [raw] = _coherent_amplitudes([(alpha.r, alpha.theta)], dim)
    kept = float(np.sum(np.abs(raw) ** 2))
    tail = max(0.0, 1.0 - kept)
    if tail > TAIL_TOL:
        raise TruncationError(
            f"coherent state r={alpha.r} keeps tail mass {tail:.3e} at dim={dim} "
            f"(tolerance {TAIL_TOL:.3e})"
        )
    return StateVector(raw / math.sqrt(kept))


def unitarity_defect(matrix: np.ndarray) -> float:
    """max |U^dag U - I| over the upper-left half block.

    Truncation artifacts concentrate near the basis edge; the retained
    half block of an adequately dimensioned displacement matrix is
    unitary to near machine precision.
    """
    dim = matrix.shape[0]
    half = dim // 2
    defect = matrix.conj().T @ matrix - np.eye(dim, dtype=np.complex128)
    return float(np.max(np.abs(defect[:half, :half])))


def apply(op: np.ndarray, state: StateVector) -> np.ndarray:
    """op @ state as an (unnormalized) amplitude array.

    Uses einsum rather than BLAS so results are bit-identical across
    thread counts.
    """
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {op.shape}")
    if op.shape[1] != state.dim:
        raise DimensionMismatchError(
            f"operator dimension {op.shape[1]} does not match state dimension {state.dim}"
        )
    return np.einsum("ij,j->i", np.asarray(op, dtype=np.complex128), state.amplitudes)


def expectation(op: np.ndarray, state: StateVector) -> complex:
    """<state|op|state>."""
    return complex(np.vdot(state.amplitudes, apply(op, state)))


def _displaced_spacs_profile(alpha: CoherentParams, s: float, dim: int) -> tuple[float, float]:
    """(retained mass, mean photon number) of D(s) a_dag|alpha> at this truncation.

    |D(s) a_dag|alpha>| = |(a_dag - s)|alpha + s>| over the pointer's retained
    norm, as displaced_spacs gives it, but without that function's pointer
    tail check, which the dimensions below the start dimension fail.
    """
    [pointer] = fock._photon_added(_coherent_amplitudes([(alpha.r, alpha.theta)], dim))
    beta = alpha.alpha + s
    [raw] = _coherent_amplitudes([(abs(beta), math.atan2(beta.imag, beta.real) % fock.TWO_PI)], dim)
    probs = np.abs(fock._photon_added(raw) - s * raw) ** 2 / float(np.sum(np.abs(pointer) ** 2))
    mass = float(np.sum(probs))
    mean = float(np.sum(np.arange(dim) * probs)) / mass
    return mass, mean


def probe_adaptive_dim(alpha: CoherentParams, s: float, tol: float = 1e-9) -> int:
    """Smallest probed dimension whose doubling moves the displaced-state
    observables (retained mass and mean photon number) by less than tol.

    The numeric doubling probe that fock.adaptive_dim replaced with a
    closed-form bound, kept as its reference (uncached).  Starts from
    floor((|alpha|+s)^2 + 10(|alpha|+s) + 20) and doubles.
    """
    if tol <= 0:
        raise InvalidParameterError(f"tolerance must be > 0, got {tol}")
    require_finite(s=s)
    if s < 0:
        raise InvalidParameterError(f"coupling strength must be >= 0, got {s}")
    reach = alpha.r + s
    dim = int(math.floor(min(reach * reach + 10.0 * reach + 20.0, DIM_CAP + 1)))
    while True:
        if dim > DIM_CAP:
            raise ConvergenceError(
                f"adaptive truncation for r={alpha.r}, s={s} exceeded cap {DIM_CAP}"
            )
        mass_lo, mean_lo = _displaced_spacs_profile(alpha, s, dim)
        mass_hi, mean_hi = _displaced_spacs_profile(alpha, s, 2 * dim)
        if abs(mass_hi - mass_lo) <= tol and abs(mean_hi - mean_lo) <= tol * max(1.0, mean_hi):
            return dim
        dim *= 2


def complex_joint_unitary_dense(dim: int, s: float) -> np.ndarray:
    """exp(-i g sigma_x (x) P) on the 2*dim joint space via scaling-and-squaring.

    The complex-arithmetic form measurement.joint_unitary_dense had before
    it took the exponential of the real generator; kept as its reference.
    """
    _, p = quadrature_ops(dim, sigma=1.0)
    return expm(-1j * s * np.kron(SIGMA_X, p))


def single_selection_oracle(
    pointer: StateVector, sel: SelectionConfig, s: float
) -> tuple[StateVector, float]:
    """Sparse joint evolution of |psi_i> (x) |pointer>, then projection onto |H>.

    scipy.sparse.linalg.expm_multiply on one column, the form the oracle
    had before it evolved |H> and |V> together with its own Taylor
    propagator; kept as its reference.  The evolution runs in equal parts,
    each of generator 1-norm at most REFERENCE_STEP_NORM: in one call,
    expm_multiply's own rounding reached 1.9e-13 in the probability at dims
    1000-1300 (against a long-double evaluation), above the 1e-13 the tests
    hold the oracle to; in parts it stayed within about 5e-15.  Below a
    1-norm of 6.4 for one column expm_multiply works from the exact norm,
    so it draws no random numbers.
    """
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    dim = pointer.dim
    root_n = np.sqrt(np.arange(1, dim, dtype=np.float64))
    # <n|P|n-1> = (i/2) sqrt(n) from a_dag, <n-1|P|n> = -(i/2) sqrt(n) from a
    momentum = sparse.diags([0.5j * root_n, -0.5j * root_n], [-1, 1], format="csr")
    generator = sparse.kron(SIGMA_X, -1j * s * momentum, format="csr")
    parts = max(1, math.ceil(sparse.linalg.norm(generator, 1) / REFERENCE_STEP_NORM))
    joint = np.kron(sel.preselected, pointer.amplitudes)
    for _ in range(parts):
        joint = expm_multiply(generator / parts, joint)
    block = joint[:dim]  # <H| component in the system (x) pointer ordering
    probability = float(np.vdot(block, block).real)
    if probability < 1e-24:
        raise DegeneratePostselectionError(
            f"oracle postselection probability vanished at s={s}"
        )
    projected = StateVector(block / math.sqrt(probability))
    return projected, probability


# ---------------------------------------------------------------- sweeps
#
# The sweep loop run_sweep had before it grouped points by pointer: one
# evaluate_point call per row (per series for photon numbers), in
# series-major order; kept as its reference.

def _series_label(series: str, value: float) -> str:
    return f"{series}={value:.17g}"


def _scalar_value(point: PointResult, spec: SweepSpec, phi_quad: float) -> float:
    if spec.observable == "mandel_q":
        return observables.mandel_q(point.state)
    if spec.observable == "squeezing":
        return observables.squeezing(point.state, phi_quad)
    return point.true_prob  # postselection_prob


def _row_maker(spec: SweepSpec, series_value: float, label: str):
    """x -> SweepRow for one series; both steps may raise SpacsimError.

    Each point's ParamSet is built whole, from the fixed record with the
    series and swept values, so its first invalid input is the one
    reported.  A photon-number series evaluates its single point up front
    and reads every grid value from that distribution.
    """
    series = {spec.series: series_value}
    if spec.swept != "n":
        def scalar_row(x: float) -> SweepRow:
            params = replace(spec.fixed, **series, **{spec.swept: x})
            point = evaluate_point(params)
            return SweepRow(label, x, _scalar_value(point, spec, params.phi_quad), point.tail_mass,
                            point.true_prob)
        return scalar_row
    point = evaluate_point(replace(spec.fixed, **series))
    probs = observables.photon_distribution(point.state)

    def photon_row(x: float) -> SweepRow:
        fock.require_finite(n=x)
        n = int(round(x))
        if n < 0:
            raise InvalidParameterError(f"photon number must be >= 0, got {x!r}")
        value = float(probs[n]) if n < point.state.dim else 0.0
        return SweepRow(label, float(n), value, point.tail_mass, point.true_prob)
    return photon_row


def _evaluate_series(spec: SweepSpec, series_value: float) -> list[SweepRow]:
    label = _series_label(spec.series, series_value)
    try:
        row_at = _row_maker(spec, series_value, label)
    except SpacsimError as exc:
        return [_error_row(label, x, exc) for x in spec.grid]
    rows = []
    for x in spec.grid:
        try:
            rows.append(row_at(x))
        except SpacsimError as exc:
            rows.append(_error_row(label, x, exc))
    return rows


def point_by_point_sweep(spec: SweepSpec) -> tuple[SweepRow, ...]:
    """Evaluate a sweep one point after another, in series-major order."""
    return tuple(row for value in spec.series_values for row in _evaluate_series(spec, value))
