"""Numerical simulator for postselected von Neumann measurement with a
single-photon-added coherent pointer state.

Builds the conditioned pointer state after an impulsive qubit-pointer
coupling followed by postselection, and evaluates its photon-number
distribution, Mandel Q factor, and quadrature squeezing, with an
independent joint-evolution oracle (a banded Taylor propagator) for
validation.
"""

from .errors import (
    ConvergenceError,
    DegeneratePostselectionError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    SpacsimError,
    TruncationError,
    UndefinedQError,
    UndefinedWeakValueError,
)
from .experiments import (
    ParamSet,
    PointResult,
    SweepRow,
    SweepSpec,
    evaluate_point,
    figure_preset,
    run_sweep,
)
from .fock import CoherentParams, StateVector, adaptive_dim, spacs_state
from .measurement import (
    SelectionConfig,
    analytic_beta,
    branch_superposition,
    joint_evolution_project,
    naive_postselection_probability,
    postselected_pointer,
    weak_value,
)
from .observables import (
    analytic_q_initial,
    analytic_s_initial,
    edge_tail_mass,
    mandel_q,
    photon_distribution,
    squeezing,
)

__version__ = "0.1.0"
