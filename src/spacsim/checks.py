"""Self-verification suite behind the ``check`` command.

Three families: closed-form pairings (numeric observables of the
photon-added coherent state against their analytic expressions), the
oracle grid against the sparse ``expm_multiply`` joint evolution
(conditioned state, postselection probability, and normalization
constant; one evolution per pointer serves all six selections, 27 for
the 162 points), and the qualitative trend assertions.  Every outcome
carries its worst-case numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import experiments, fock, measurement, observables
from .fock import CoherentParams
from .measurement import MeasurementConfig, SelectionConfig

PI = math.pi

PAIRING_TOL = 1e-8
ORACLE_FIDELITY_TOL = 1e-9
ORACLE_PROB_TOL = 1e-9
BETA_TOL = 1e-8
EQ4_TOL = 1e-8

R_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
THETA_GRID = (0.0, PI / 9, PI / 2)
PHI_QUAD_GRID = (0.0, PI / 4, PI / 2)

ORACLE_R = (0.5, 2.0, 4.0)
ORACLE_THETA = (0.0, PI / 9, PI / 2)
ORACLE_DELTA = (0.0, PI / 4)
ORACLE_PHI = (PI / 9, PI / 3, 2 * PI / 3)
ORACLE_S = (0.1, 1.0, 2.0)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def check_q_pairing(tol: float = PAIRING_TOL) -> CheckOutcome:
    """Numeric Mandel Q of the photon-added coherent state vs closed form."""
    worst = 0.0
    worst_at = ""
    for r in R_GRID:
        for theta in THETA_GRID:
            alpha = CoherentParams(r, theta)
            state = fock.spacs_state(alpha, fock.adaptive_dim(alpha, 0.0))
            diff = abs(observables.mandel_q(state) - observables.analytic_q_initial(alpha))
            if diff > worst:
                worst, worst_at = diff, f"r={r}, theta={theta:.6g}"
    return CheckOutcome(
        "mandel-q-closed-form", worst <= tol,
        f"max |numeric - analytic| = {worst:.3e} at {worst_at} (tol {tol:.1e})",
    )


def check_s_pairing(tol: float = PAIRING_TOL) -> CheckOutcome:
    """Numeric squeezing of the photon-added coherent state vs closed form."""
    worst = 0.0
    worst_at = ""
    for r in R_GRID:
        for theta in THETA_GRID:
            alpha = CoherentParams(r, theta)
            state = fock.spacs_state(alpha, fock.adaptive_dim(alpha, 0.0))
            for phi in PHI_QUAD_GRID:
                diff = abs(
                    observables.squeezing(state, phi)
                    - observables.analytic_s_initial(alpha, phi)
                )
                if diff > worst:
                    worst, worst_at = diff, f"r={r}, theta={theta:.6g}, phi={phi:.6g}"
    return CheckOutcome(
        "squeezing-closed-form", worst <= tol,
        f"max |numeric - analytic| = {worst:.3e} at {worst_at} (tol {tol:.1e})",
    )


def check_eq4_identity(dim: int = 40, tol: float = EQ4_TOL) -> CheckOutcome:
    """Dense exponential of the coupling vs its two-branch decomposition."""
    half = dim // 2
    pointer_part = np.arange(2 * dim) % dim
    mask = (pointer_part[:, None] < half) & (pointer_part[None, :] < half)
    worst = 0.0
    for s in (0.1, 1.0, 2.0):
        diff = np.abs(
            measurement.joint_unitary_dense(dim, s)
            - measurement.joint_unitary_branches(dim, s)
        )
        worst = max(worst, float(diff[mask].max()))
    return CheckOutcome(
        "two-branch-unitary-identity", worst <= tol,
        f"max entry difference on retained blocks = {worst:.3e} (tol {tol:.1e})",
    )


def check_oracle_grid() -> CheckOutcome:
    """Main-path conditioned state vs the joint-evolution oracle, 162 points."""
    selections = tuple(
        SelectionConfig(phi_pre, delta) for delta in ORACLE_DELTA for phi_pre in ORACLE_PHI
    )
    worst_infid = 0.0
    worst_prob = 0.0
    worst_beta = 0.0
    worst_at = ""
    for r in ORACLE_R:
        for theta in ORACLE_THETA:
            alpha = CoherentParams(r, theta)
            for s in ORACLE_S:
                dim = fock.adaptive_dim(alpha, s)
                mconf = MeasurementConfig(s)
                oracle = measurement.joint_evolution_project(
                    fock.spacs_state(alpha, dim), selections, mconf
                )
                for sel, (oracle_state, oracle_prob) in zip(selections, oracle):
                    w = measurement.weak_value(sel)
                    final, prob = measurement.postselected_pointer(alpha, dim, sel, mconf)
                    infid = 1.0 - abs(fock.inner_product(oracle_state, final))
                    prob_diff = abs(prob - oracle_prob)
                    # prob = naive * ||superposition||^2 / 4 gives 1/||superposition||
                    naive = measurement.naive_postselection_probability(sel)
                    beta_diff = abs(
                        measurement.analytic_beta(alpha, w, s) - 0.5 * math.sqrt(naive / prob)
                    )
                    if max(infid, prob_diff, beta_diff) > max(worst_infid, worst_prob, worst_beta):
                        worst_at = f"r={r}, theta={theta:.4g}, delta={sel.delta:.4g}, phi={sel.phi_pre:.4g}, s={s}"
                    worst_infid = max(worst_infid, infid)
                    worst_prob = max(worst_prob, prob_diff)
                    worst_beta = max(worst_beta, beta_diff)
    passed = (
        worst_infid <= ORACLE_FIDELITY_TOL
        and worst_prob <= ORACLE_PROB_TOL
        and worst_beta <= BETA_TOL
    )
    return CheckOutcome(
        "oracle-equivalence-grid", passed,
        f"max infidelity {worst_infid:.3e}, probability diff {worst_prob:.3e}, "
        f"beta diff {worst_beta:.3e}, worst at {worst_at}",
    )


def check_trends() -> CheckOutcome:
    report = experiments.trend_checks()
    failed = [a for a in report.assertions if not a.passed]
    if failed:
        detail = "; ".join(f"{a.name}: {a.detail}" for a in failed)
    else:
        detail = f"all {len(report.assertions)} assertions hold"
    return CheckOutcome("trend-assertions", report.all_passed, detail)


def run_all(quick: bool = False) -> list[CheckOutcome]:
    """Every check, oracle grid last; ``quick`` skips the oracle grid."""
    outcomes = [
        check_q_pairing(),
        check_s_pairing(),
        check_eq4_identity(),
        check_trends(),
    ]
    if not quick:
        outcomes.append(check_oracle_grid())
    return outcomes
