"""Weak values, postselection, and the post-measurement pointer state.

The measured system is a polarization qubit preselected to
|psi_i> = cos(phi/2)|H> + e^{i delta} sin(phi/2)|V>, coupled impulsively
to the pointer through sigma_x (x) momentum with strength s, and
postselected onto |H>.  Because sigma_x squares to the identity the
joint unitary splits into two displaced branches, so the conditioned
pointer state is

    |Phi> ~ (1 + w) D(s/2)|Psi> + (1 - w) D(-s/2)|Psi>

with w the weak value of sigma_x.  ``postselected_pointer`` is the one
builder of that state: it builds both displaced branches of a pointer once
for all its selections, since only w depends on them, in closed form in
O(dim) and in batches of pointers (``fock.displaced_spacs``, no
displacement matrix); ``branch_superposition`` then superposes them per
selection into one normalized StateVector and its exact postselection
probability.  Sweeps, single points and the checks all go through it.
The closed-form normalization is kept as a cross-check, and an
independent oracle evolves the full qubit (x) pointer space with a banded
numpy Taylor propagator for validation, at any dimension; it evolves the
pointer once for any number of selections and shares no code with the
closed-form branches.  The same propagator applied to the identity gives
the dense unitary kept only for the two-branch unitary identity check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy  # noqa: F401  loads no submodule; perfbench/child.py:44 reads
# sys.modules["scipy"].__version__ until ROADMAP item 1 reads it from the metadata

from . import fock
from .errors import (
    DegeneratePostselectionError,
    InvalidParameterError,
    SpacsimError,
    UndefinedWeakValueError,
)
from .fock import CoherentParams, StateVector, displacement_matrix, require_finite

#: keeps the naive postselection probability representable and the
#: branch cancellations benign
PHI_PRE_CAP = 0.999 * math.pi

#: most pointers x padded width one fock.displaced_spacs call builds; bounds memory
BATCH_AMPLITUDES = 1024

#: Al-Mohy and Higham's theta_40 for double precision: the 1-norm one Taylor step of
#: degree 40 covers (theta_55 = 9.9 left up to 5e-14 of rounding at dim 1291, this 1e-15)
_TAYLOR_THETA, _TAYLOR_DEGREE = 6.0, 40

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


@dataclass(frozen=True)
class SelectionConfig:
    """Pre/postselection angles: polar angle phi_pre and relative phase delta.

    phi_pre = pi makes the preselection orthogonal to the postselected
    |H> and is rejected; so is anything above PHI_PRE_CAP = 0.999*pi.
    """

    phi_pre: float
    delta: float = 0.0

    def __post_init__(self):
        require_finite(phi_pre=self.phi_pre, delta=self.delta)
        if self.phi_pre == math.pi:
            raise UndefinedWeakValueError(
                "phi_pre = pi: pre- and postselection are orthogonal, "
                "the weak value is undefined"
            )
        if not 0.0 <= self.phi_pre <= PHI_PRE_CAP:
            raise InvalidParameterError(
                f"phi_pre must lie in [0, 0.999*pi], got {self.phi_pre}"
            )

    @property
    def preselected(self) -> np.ndarray:
        """|psi_i> as a 2-vector in the (|H>, |V>) basis."""
        half = 0.5 * self.phi_pre
        return np.array(
            [math.cos(half), cmath.exp(1j * self.delta) * math.sin(half)],
            dtype=np.complex128,
        )


def weak_value(sel: SelectionConfig) -> complex:
    """Weak value of sigma_x: e^{i delta} tan(phi_pre / 2)."""
    return cmath.exp(1j * sel.delta) * math.tan(0.5 * sel.phi_pre)


def naive_postselection_probability(sel: SelectionConfig) -> float:
    """|<psi_f|psi_i>|^2 = cos^2(phi_pre / 2), ignoring the interaction."""
    return math.cos(0.5 * sel.phi_pre) ** 2


def branch_superposition(plus: np.ndarray, minus: np.ndarray, sel: SelectionConfig, s: float
                         ) -> tuple[StateVector, float] | DegeneratePostselectionError:
    """(1+w) D(s/2)|Psi> + (1-w) D(-s/2)|Psi>, normalized, and its exact postselection
    probability, for the weak value w of sel and a pointer's branches D(+-s/2)|Psi> from
    fock.displaced_spacs cut to its dim; a DegeneratePostselectionError when they cancel."""
    w = weak_value(sel)
    amps = (1.0 + w) * plus + (1.0 - w) * minus
    size = float(np.linalg.norm(amps))
    if size < 1e-12 * ((abs(1.0 + w) + abs(1.0 - w)) or 1.0):
        return DegeneratePostselectionError(
            f"displaced branches cancel for weak value {w!r} at s={s}")
    return StateVector(amps / size), naive_postselection_probability(sel) * 0.25 * size**2


def postselected_pointer(
    pointers: Sequence[tuple[CoherentParams, int, float, tuple[SelectionConfig, ...]]],
) -> Iterator[tuple[StateVector, float] | SpacsimError]:
    """Conditioned pointer state and exact postselection probability per selection.

    A pointer (alpha, dim, s, selections) is a_dag|alpha> on dim Fock states, held to
    fock.TAIL_TOL as spacs_state(alpha, dim) holds it, coupled with strength s (at s = 0 each
    state is the pointer and its probability cos^2(phi_pre/2)).  Pointers go, in input order,
    into fock.displaced_spacs batches of at most BATCH_AMPLITUDES pointers x largest dim (or
    one pointer).  Outcomes are yielded lazily, one per selection in input order, so one
    conditioned state is held at a time; a slot holds its pointer's TruncationError, or its
    own DegeneratePostselectionError when the branches cancel, instead.
    """
    batches, width = [[]], 0
    for pointer in pointers:
        fock.check_coupling(pointer[2])
        width = max(width, pointer[1])
        if batches[-1] and (len(batches[-1]) + 1) * width > BATCH_AMPLITUDES:
            batches.append([])
            width = pointer[1]
        batches[-1].append(pointer)
    for batch in filter(None, batches):
        alphas, dims, ss, selections = zip(*batch)
        (plus, minus), faults = fock.displaced_spacs(alphas, [(s / 2, -s / 2) for s in ss], dims)
        for p, (dim, s, fault, sels) in enumerate(zip(dims, ss, faults, selections)):
            for sel in sels:
                yield fault or branch_superposition(plus[p, :dim], minus[p, :dim], sel, s)


def analytic_beta(alpha: CoherentParams, w: complex, s: float) -> float:
    """Closed-form normalization of the two-branch pointer superposition.

    Equals the reciprocal norm of (1+w) D(s/2)|Psi> + (1-w) D(-s/2)|Psi>
    for the photon-added coherent pointer: the branch overlap is
    <Psi|D(-s)|Psi> = gamma^2 e^{-s^2/2} e^{2 i s Im(alpha)}
    (1 + (alpha* + s)(alpha - s)), and |1+w|^2 + |1-w|^2 = 2(1 + |w|^2)
    supplies the leading 1/sqrt(2).
    """
    fock.check_coupling(s)
    a = alpha.alpha
    overlap = (
        fock.spacs_gamma_sq(alpha.mod_sq)
        * math.exp(-0.5 * s * s)
        * cmath.exp(2j * s * a.imag)
        * (1.0 + (a.conjugate() + s) * (a - s))
    )
    bracket = 1.0 + abs(w) ** 2 + ((1.0 + w).conjugate() * (1.0 - w) * overlap).real
    return 1.0 / math.sqrt(2.0 * bracket)


def _coupling_propagate(y: np.ndarray, s: float) -> np.ndarray:
    """exp(A) y, A = s sigma_x (x) (a_dag - a) / 2, for a real (2 dim, k) block y, in Taylor steps.

    Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011): ceil(||A||_1 / _TAYLOR_THETA)
    steps, ||A||_1 = s (sqrt(dim-1) + sqrt(dim-2)) / 2 exactly for the two sqrt(n) bands, each
    summing at most _TAYLOR_DEGREE terms and stopping when two successive terms fall below
    unit roundoff relative to the sum.  Elementwise numpy only: no BLAS call, no RNG.
    """
    dim = y.shape[0] // 2
    steps = math.ceil(0.5 * s * (math.sqrt(dim - 1) + math.sqrt(dim - 2)) / _TAYLOR_THETA)
    root_n = np.sqrt(np.arange(1.0, dim)) * (0.5 * s / max(steps, 1))  # A / steps on a band
    total = y.T.reshape(-1, 2, dim)  # (column, qubit, n)
    for _ in range(steps):
        term, small = total, np.abs(total).sum(axis=0).max()
        for j in range(1, _TAYLOR_DEGREE + 1):
            flipped, band, term = term[:, ::-1], root_n / j, np.zeros_like(term)  # sigma_x flips
            np.multiply(band, flipped[..., :-1], out=term[..., 1:])  # <n|a_dag|n-1> = sqrt(n)
            term[..., :-1] -= band * flipped[..., 1:]  # <n-1|a|n> = sqrt(n)
            total = total + term
            size = np.abs(term).sum(axis=0).max()
            if small + size <= 2.0**-53 * np.abs(total).sum(axis=0).max():
                break
            small = size
    return np.ascontiguousarray(total.reshape(-1, 2 * dim).T)


def joint_unitary_dense(dim: int, s: float) -> np.ndarray:
    """exp(-i g sigma_x (x) P) on the 2*dim joint space as a dense matrix.

    With sigma = 1 the strength g equals s.  P = (i/2)(a_dag - a), so the
    exponent is the real s sigma_x (x) (a_dag - a) / 2, and the matrix is the
    Taylor propagator applied to the identity, in real arithmetic.  This path
    shares no code with the displacement matrices.
    """
    return _coupling_propagate(np.eye(2 * dim), s).astype(np.complex128)


def joint_unitary_branches(dim: int, s: float) -> np.ndarray:
    """Two-branch decomposition (I+sigma_x)/2 (x) D(s/2) + (I-sigma_x)/2 (x) D(-s/2)."""
    eye2 = np.eye(2, dtype=np.complex128)
    return 0.5 * np.kron(eye2 + SIGMA_X, displacement_matrix(0.5 * s, dim)) + 0.5 * np.kron(
        eye2 - SIGMA_X, displacement_matrix(-0.5 * s, dim)
    )


def joint_evolution_project(
    pointer: StateVector, selections: tuple[SelectionConfig, ...], s: float
) -> list[tuple[StateVector, float]]:
    """Independent oracle: joint evolution, then projection onto |H>.

    Applies exp(-i s sigma_x (x) P) = exp(s sigma_x (x) (a_dag - a) / 2) to
    |H> (x) |pointer> and |V> (x) |pointer> as one two-column block, with the
    banded Taylor propagator _coupling_propagate.  The evolution is linear in
    the qubit state, so each selection's projected pointer is the dim x 2 <H|
    block applied to its |psi_i>.  It shares no code with the displacement
    matrices or the closed-form branches, draws no random numbers, and costs
    O(dim) per Taylor term, so it accepts every dimension adaptive_dim can
    return.

    Returns the normalized projected pointer and the postselection
    probability for each selection, in order.
    """
    dim = pointer.dim
    # columns |H> (x) |pointer> and |V> (x) |pointer>, each as its real and imaginary part
    columns = np.kron(np.eye(2), pointer.amplitudes[:, None]).view(np.float64)
    joint = _coupling_propagate(columns, s).view(np.complex128)
    block = joint[:dim]  # <H| rows in the system (x) pointer ordering
    projected = [block @ sel.preselected for sel in selections]
    probabilities = [float(np.vdot(v, v).real) for v in projected]
    if any(p < 1e-24 for p in probabilities):
        raise DegeneratePostselectionError(
            f"oracle postselection probability vanished at s={s}"
        )
    return [(StateVector(v / math.sqrt(p)), p) for v, p in zip(projected, probabilities)]
