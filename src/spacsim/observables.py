"""Photon statistics and quadrature squeezing.

Number-operator moments come straight from |c_n|^2 sums (exact, O(dim));
the tridiagonal quadrature acts as two shifted sqrt(n) vectors (O(dim),
no operator matrix).  Quadrature variances are centered so they are
nonnegative term by term, which makes the bounds Q >= -1 and S >= -1/2
structural rather than numerical accidents.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock
from .errors import UndefinedQError
from .fock import CoherentParams, StateVector


def photon_distribution(state: StateVector) -> np.ndarray:
    """P(n) = |<n|state>|^2."""
    return np.abs(state.amplitudes) ** 2


def distribution_moments(probs: np.ndarray) -> tuple[float, float]:
    """(mean, centered variance) of a photon-number distribution."""
    n = np.arange(probs.shape[0], dtype=np.float64)
    mean = float((n * probs).sum())
    var = float(((n - mean) ** 2 * probs).sum())
    return mean, var


def mandel_q(state: StateVector) -> float:
    """Mandel Q = (<n^2> - <n>^2 - <n>) / <n>; negative means sub-Poissonian."""
    mean, var = distribution_moments(photon_distribution(state))
    if mean == 0.0:
        raise UndefinedQError("Mandel Q is undefined for the vacuum state")
    return (var - mean) / mean


def analytic_q_initial(alpha: CoherentParams) -> float:
    """Closed-form Mandel Q of the photon-added coherent state.

    -gamma^2 (1 + 2|alpha|^2 + 2|alpha|^4) / (1 + 3|alpha|^2 + |alpha|^4),
    a function of |alpha| only.
    """
    x = alpha.mod_sq
    return -fock.spacs_gamma_sq(x) * (1.0 + 2.0 * x + 2.0 * x * x) / (1.0 + 3.0 * x + x * x)


def squeezing(state: StateVector, phi: float) -> float:
    """Squeezing parameter S_phi = Var(X_phi) - 1/2.

    X_phi = (a e^{-i phi} + a_dag e^{i phi}) / sqrt(2) is applied on the
    truncated basis as two shifted sqrt(n) vectors, the same truncation
    as the dense (dim, dim) X_phi matrix, without building it.  S_phi < 0
    certifies squeezing of the phi quadrature below the vacuum variance
    1/2.
    """
    amps = state.amplitudes
    ph = complex(math.cos(phi), math.sin(phi)) / math.sqrt(2.0)
    root_n = np.sqrt(np.arange(1, state.dim, dtype=np.float64))
    shifted = np.zeros_like(amps)
    shifted[:-1] = ph.conjugate() * root_n * amps[1:]  # a: sqrt(n+1) c_{n+1}
    shifted[1:] += ph * root_n * amps[:-1]  # a_dag: sqrt(n) c_{n-1}
    mean = float(np.vdot(amps, shifted).real)
    centered = shifted - mean * amps
    variance = float(np.vdot(centered, centered).real)
    return variance - 0.5


def analytic_s_initial(alpha: CoherentParams, phi: float) -> float:
    """Closed-form squeezing of the photon-added coherent state.

    gamma^4 [1 - |alpha|^2 cos 2(phi - theta)]; negative only when
    |alpha|^2 > 1 with phi = theta.
    """
    x = alpha.mod_sq
    g2 = fock.spacs_gamma_sq(x)
    return g2 * g2 * (1.0 - x * math.cos(2.0 * (phi - alpha.theta)))


def edge_tail_mass(state: StateVector) -> float:
    """Probability mass in the top tenth of the retained basis.

    A truncation diagnostic: well-converged states hold essentially no mass
    near the basis edge.  fock.states sums it in the normalization check.
    """
    return state.edge_tail
