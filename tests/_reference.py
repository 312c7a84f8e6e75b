"""Dense reference helpers that only the tests use.

The package's main path works on O(dim) amplitude vectors; these build
or apply dense operators and plain truncated states, so the tests can
compare the fast paths against a direct computation.
"""

import math

import numpy as np

from spacsim.errors import DimensionMismatchError, TruncationError
from spacsim.fock import (
    TAIL_TOL,
    CoherentParams,
    StateVector,
    _check_dim,
    _coherent_amplitudes,
    ladder_ops,
)


def phase_quadrature(dim: int, phi: float) -> np.ndarray:
    """Rotated quadrature X_phi = (a e^{-i phi} + a_dag e^{i phi}) / sqrt(2)."""
    a, adag = ladder_ops(dim)
    ph = complex(math.cos(phi), math.sin(phi))
    return (a * ph.conjugate() + adag * ph) / math.sqrt(2.0)


def coherent_state(
    alpha: CoherentParams, dim: int, tail_tol: float | None = TAIL_TOL
) -> StateVector:
    """Coherent state |alpha>, renormalized over the truncated basis.

    Raises TruncationError when the discarded tail mass exceeds tail_tol;
    pass tail_tol=None to skip the check.
    """
    dim = _check_dim(dim)
    raw = _coherent_amplitudes(alpha, dim)
    kept = float(np.sum(np.abs(raw) ** 2))
    tail = max(0.0, 1.0 - kept)
    if tail_tol is not None and tail > tail_tol:
        raise TruncationError(
            f"coherent state r={alpha.r} keeps tail mass {tail:.3e} at dim={dim} "
            f"(tolerance {tail_tol:.3e})"
        )
    return StateVector(raw / math.sqrt(kept), normalized=True)


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


def apply(op: np.ndarray, state: StateVector) -> StateVector:
    """op @ state as a new (unnormalized) StateVector.

    Uses einsum rather than BLAS so results are bit-identical across
    thread counts.
    """
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {op.shape}")
    if op.shape[1] != state.dim:
        raise DimensionMismatchError(
            f"operator dimension {op.shape[1]} does not match state dimension {state.dim}"
        )
    amps = np.einsum("ij,j->i", np.asarray(op, dtype=np.complex128), state.amplitudes)
    return StateVector(amps, normalized=False)


def expectation(op: np.ndarray, state: StateVector) -> complex:
    """<state|op|state>."""
    return complex(np.vdot(state.amplitudes, apply(op, state).amplitudes))
