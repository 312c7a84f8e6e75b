"""Truncated Fock-space core: states, closed-form displaced states,
displacement matrices, and the choice of Fock dimension from a
closed-form Poisson tail bound.

Conventions: basis states are |0>..|dim-1> and amplitudes are complex128
ndarrays.  A StateVector is always normalized; unnormalized amplitudes
stay plain arrays.  The main path works on O(dim) amplitude vectors only:
displaced photon-added coherent states come in closed form from
``displaced_spacs``, and ``adaptive_dim`` builds no state at all.  The
dense complex (dim, dim) displacement matrices serve the criterion-3
identity check and the tests as references.  Both read log(n!) from one
math.lgamma table (``_ladder``), built once per power-of-two size.  All
values are immutable after construction and every function is pure, so
everything here is safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    TruncationError,
)

TWO_PI = 2.0 * math.pi

#: the one cap on the Fock dimension adaptive_dim returns
DIM_CAP = 4096

#: the truncation tolerance: the pre-normalization tail mass state
#: constructors accept and the doubling change adaptive_dim certifies
TAIL_TOL = 1e-9

#: the smallest _ladder size; every preset and check fits in it
_LADDER_WIDTH = 256


def require_finite(**values: float) -> None:
    """Raise InvalidParameterError naming the first non-finite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def check_coupling(s: float) -> None:
    """Raise InvalidParameterError unless the coupling strength s is finite and >= 0."""
    if not 0.0 <= s < math.inf:
        require_finite(s=s)
        raise InvalidParameterError(f"coupling strength must be >= 0, got {s}")


def _check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidDimensionError(f"Fock dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


@dataclass(frozen=True)
class CoherentParams:
    """Coherent amplitude alpha = r * exp(i*theta), stored in polar form.

    r must be nonnegative; theta is reduced to [0, 2*pi).
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        require_finite(r=self.r, theta=self.theta)
        if self.r < 0:
            raise InvalidParameterError(f"coherent modulus must be >= 0, got {self.r}")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    @property
    def alpha(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))

    @property
    def mod_sq(self) -> float:
        return self.r * self.r


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude list over the Fock basis, and its edge tail.

    Construction checks that the squared amplitudes sum to 1 within 1e-12.
    """

    amplitudes: np.ndarray
    edge_tail: float = field(init=False, repr=False, compare=False)  # mass in the top tenth

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise InvalidParameterError("state amplitudes must be one-dimensional")
        [state] = states(amps[None], [_check_dim(amps.shape[0])])
        vars(self).update(vars(state))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def states(rows: np.ndarray, dims: Sequence[int]) -> list[StateVector]:
    """StateVector(rows[k, :dims[k]]) per row of a (rows, width) array zero past each dim,
    squared and checked as one array; each state owns a read-only copy of its row."""
    probs = np.abs(rows) ** 2
    for total in probs.sum(axis=1).tolist():
        if not abs(total - 1.0) <= 1e-12:  # also rejects nan
            raise InvalidParameterError(f"state is not normalized: sum |c_n|^2 = {total!r}")
    built = [object.__new__(StateVector) for _ in dims]
    for state, row, p, dim in zip(built, rows, probs, dims):
        vars(state).update(amplitudes=row[:dim].copy(),
                           edge_tail=float(p[math.ceil(0.9 * dim):dim].sum()))
        state.amplitudes.setflags(write=False)
    return built


def spacs_gamma_sq(mod_sq: float) -> float:
    """Squared normalization constant of a_dag|alpha>: 1 / (1 + |alpha|^2)."""
    return 1.0 / (1.0 + mod_sq)


def _ladder(width: int) -> tuple[np.ndarray, ...]:
    """n, i n, log(n!) / 2 and sqrt(n) for n below the next power of two >= width and
    _LADDER_WIDTH: read-only tables, each size built once, equal wherever two sizes overlap."""
    return _ladder_of_size(1 << (max(width, _LADDER_WIDTH) - 1).bit_length())


@lru_cache(maxsize=None)  # powers of two: five sizes up to DIM_CAP
def _ladder_of_size(size: int) -> tuple[np.ndarray, ...]:
    n = np.arange(size, dtype=np.float64)
    known = _ladder_of_size(size // 2)[2] if size > _LADDER_WIDTH else n[:0]  # grown, not rebuilt
    half_log_factorial = np.concatenate(
        [known, 0.5 * np.array(list(map(math.lgamma, (n[known.size:] + 1.0).tolist())))])
    return tuple(np.frombuffer(t.tobytes(), t.dtype)  # read-only, as the cache shares them
                 for t in (n, 1j * n, half_log_factorial, np.sqrt(n)))


def _coherent_amplitudes(polar: Sequence[tuple[float, float]], width: int) -> np.ndarray:
    """Raw amplitudes exp(-r^2/2) alpha^n / sqrt(n!), n < width, in log space, a row per
    (r, theta) from per-row (rows, 1) scalar columns; an r = 0 row is the vacuum."""
    vacuum = [k for k, (r, _) in enumerate(polar) if r == 0.0]
    n, i_n, half_log_factorial, _ = _ladder(width)
    row = np.array([(-0.5 * r * r, math.log(r) if r else 0.0, t) for r, t in polar])[..., None]
    amps = np.exp(i_n[:width] * row[:, 2])
    amps *= np.exp(row[:, 0] + n[:width] * row[:, 1] - half_log_factorial[:width])
    if vacuum:
        amps[vacuum] = np.eye(1, width)
    return amps


def _photon_added(raw: np.ndarray) -> np.ndarray:
    """a_dag applied over the truncated basis: component n is sqrt(n) raw[n-1], per row."""
    width, added = raw.shape[-1], np.zeros_like(raw)
    np.multiply(_ladder(width)[3][1:width], raw[..., :-1], out=added[..., 1:])
    return added


def _retained(alphas: Sequence[CoherentParams], dims: Sequence[int], added: np.ndarray) -> tuple:
    """Each a_dag|alpha> row's norm over its own dim, and its TruncationError, else None."""
    kept, faults = [], []
    for alpha, dim, probs in zip(alphas, dims, np.abs(added) ** 2):
        mass = float(probs[:dim].sum())
        tail = max(0.0, 1.0 - mass / (1.0 + alpha.mod_sq))
        kept.append(math.sqrt(mass) or 1.0)
        faults.append(None if tail <= TAIL_TOL else TruncationError(
            f"photon-added coherent state r={alpha.r} keeps tail mass {tail:.3e} "
            f"at dim={dim} (tolerance {TAIL_TOL:.3e})"))
    return kept, faults


def spacs_state(alpha: CoherentParams, dim: int) -> StateVector:
    """Normalized single-photon-added coherent state a_dag|alpha>.

    The exact normalization constant is (1 + |alpha|^2)^(-1/2); the
    returned amplitudes are normalized numerically over the truncated
    basis, so that constant never enters the numerics.  c_0 = 0 always.
    """
    added = _photon_added(_coherent_amplitudes([(alpha.r, alpha.theta)], _check_dim(dim)))
    [kept_norm], [fault] = _retained([alpha], [dim], added)
    if fault:
        raise fault
    return StateVector(added[0] / kept_norm)


def displaced_spacs(
    alphas: Sequence[CoherentParams], shifts: Sequence[tuple[complex, ...]], dims: Sequence[int]
) -> tuple[np.ndarray, list[TruncationError | None]]:
    """D(b)|Psi_p>, |Psi_p> = spacs_state(alphas[p], dims[p]), for the k-th b in shifts[p] at
    [k, p] of a (shift, pointer, max(dims)) array zero past each dim; and each TruncationError.

    Closed form, O(dim) per shift and no displacement matrix:
    D(b) a_dag|alpha> = e^{(b alpha* - b* alpha)/2} (a_dag - b*)|alpha + b>,
    because D(b)^dag a_dag D(b) = a_dag + b* (Agarwal and Tara, PRA 43,
    492 (1991)).  Component n is the exact amplitude, truncated rather
    than renormalized: every branch is divided by the retained norm that
    spacs_state divides by, so b = 0 returns the pointer's amplitudes
    exactly and the retained mass of a branch measures its truncation.
    """
    dims, count, per = [_check_dim(dim) for dim in dims], len(alphas), len(shifts[0])
    a = [alpha.alpha for alpha in alphas] * per
    b = [complex(y) for kth in zip(*shifts) for y in kth]  # row k * count + p
    # math.atan2, not cmath.phase: the latter raises when the angle underflows
    raw = _coherent_amplitudes([(alpha.r, alpha.theta) for alpha in alphas] + [
        (abs(z), math.atan2(z.imag, z.real) % TWO_PI) for z in map(complex.__add__, a, b)],
        max(dims))
    added = _photon_added(raw)
    kept, faults = _retained(alphas, dims, added[:count])
    row = np.array([(cmath.exp(1j * (y * x.conjugate()).imag), y.conjugate(), norm)
                    for x, y, norm in zip(a, b, kept * per)])[..., None]
    branches = np.subtract(added[count:], row[:, 1] * raw[count:], out=raw[count:])
    np.multiply(row[:, 0], branches, out=branches)  # phase first: operand order sets the bytes
    branches /= row[:, 2]
    for k, y in enumerate(b):
        if y == 0:  # D(0) leaves the pointer's own amplitudes
            branches[k] = added[k % count] / kept[k % count]
        branches[k, dims[k % count]:] = 0.0
    return branches.reshape(per, count, -1), faults


def _fill_displacement_band(out: np.ndarray, beta: complex, lower: bool) -> None:
    """Fill one triangle of <m|D(beta)|n> via the scaled Laguerre recurrence.

    Matrix elements on the k-th diagonal are E_n = sqrt(n!/(n+k)!) beta^k
    e^{-x/2} L_n^{(k)}(x) with x = |beta|^2.  Folding the log-factorial
    prefactor into the three-term Laguerre recurrence keeps every
    intermediate bounded by 1, so no overflow or underflow-to-nan occurs
    at any dimension.
    """
    dim = out.shape[0]
    x = abs(beta) ** 2
    k, _, half_log_factorial, _ = (table[:dim] for table in _ladder(dim))
    logmag = -0.5 * x - half_log_factorial + k * math.log(abs(beta))
    m_prev = np.exp(logmag) * np.exp(1j * k * np.angle(beta))  # E_0 over diagonals
    m_prevprev = np.zeros(dim, dtype=np.complex128)
    if lower:
        out[:, 0] = m_prev
    else:
        out[0, 1:] = m_prev[1:]
    for j in range(1, dim):
        coeff1 = 2.0 * j - 1.0 + k - x
        coeff2 = math.sqrt(j - 1.0) * np.sqrt(j + k - 1.0)
        denom = math.sqrt(j) * np.sqrt(j + k)
        m_new = (coeff1 * m_prev - coeff2 * m_prevprev) / denom
        m_prevprev, m_prev = m_prev, m_new
        if lower:
            out[j:, j] = m_new[: dim - j]
        elif j + 1 < dim:
            out[j, j + 1 :] = m_new[1 : dim - j]


def displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    """Dense matrix of D(beta) = exp(beta a_dag - beta* a) on the truncated basis.

    Built from the analytic matrix-element formula, never from a matrix
    exponential.  D(0) is the exact identity.  Accuracy degrades
    gracefully with truncation, from the basis edge inward.  O(dim^2)
    memory and time: the main path uses displaced_spacs instead.
    """
    dim = _check_dim(dim)
    beta = complex(beta)
    if beta == 0:
        return np.eye(dim, dtype=np.complex128)
    out = np.zeros((dim, dim), dtype=np.complex128)
    _fill_displacement_band(out, beta, lower=True)
    # upper triangle: <m|D(beta)|n> for m < n equals the lower-triangle
    # formula evaluated at -conj(beta) with the roles of m, n swapped
    _fill_displacement_band(out, -beta.conjugate(), lower=False)
    return out


def _doubling_bound(reach: float, s: float, dim: int) -> float:
    """Closed-form bound on both changes adaptive_dim tests at dim; see there."""
    lam, k = reach * reach, dim - 3
    log_tail = k - lam + k * math.log(lam / k) if lam / k else -math.inf  # lam / k may underflow
    t = (lam * (lam + 3.0 + s * s) + 1.0) * math.exp(log_tail)
    return 4.0 * t / (1.0 - 2.0 * t) if t < 0.5 else math.inf


@lru_cache(maxsize=4096)
def adaptive_dim(alpha: CoherentParams, s: float) -> int:
    """Fock dimension at which doubling moves the retained mass and mean
    photon number of D(s) a_dag|alpha> by at most TAIL_TOL.

    The dimension is floor((|alpha|+s)^2 + 10(|alpha|+s) + 20), clamped to
    DIM_CAP + 1 so a huge reach fails the cap check instead of overflowing.  It
    is accepted when _doubling_bound certifies TAIL_TOL / 2 there (the other
    half absorbs rounding) and is a ConvergenceError otherwise; below the
    cap the bound is at most 2e-14, so only the cap ever fails.
    D(s) a_dag|alpha> = e^{i phi} (a_dag - s)|alpha + s> and a_dag|alpha> have
    Poisson photon tails at means up to lam = (|alpha|+s)^2, which also cover
    the +-s/2 branches used downstream.  By factorial moments each tail past
    dim, weighted by 1 or n, is at most 2t, t = (lam (lam + 3 + s^2) + 1)
    P(N >= dim - 3), so the mass moves by at most 4t / (1 - t) and the mean by
    2t / (1 - 2t).  P is the Chernoff bound e^{-lam} (e lam / k)^k, valid for
    k > lam, which the start dimension ensures.
    """
    check_coupling(s)
    reach = alpha.r + s
    dim = int(math.floor(min(reach * reach + 10.0 * reach + 20.0, DIM_CAP + 1)))
    if dim > DIM_CAP or _doubling_bound(reach, s, dim) > 0.5 * TAIL_TOL:
        raise ConvergenceError(
            f"adaptive truncation for r={alpha.r}, s={s} exceeded cap {DIM_CAP}")
    return dim


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket>, conjugate-linear in the first argument."""
    if bra.dim != ket.dim:
        raise DimensionMismatchError(f"dimensions differ: {bra.dim} vs {ket.dim}")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))
