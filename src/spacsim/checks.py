"""Self-verification suite behind the ``check`` command.

Three families: closed-form pairings (numeric observables of the
photon-added coherent state, and the log-factorial table), the oracle
grid against a banded Taylor propagator's joint evolution (state,
probability and normalization constant; one evolution per (dim, s)
pointer block, one ``postselected_pointer`` call per pointer), and five
trend assertions read from the figure presets.  Every outcome is a
``CheckOutcome`` carrying its worst-case numbers; an error held in a
conditioned-state slot is raised, and fails its check in ``run_all``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import experiments, fock, measurement, observables
from .errors import SpacsimError
from .fock import CoherentParams
from .measurement import SelectionConfig

PI = math.pi

PAIRING_TOL = 1e-8
LADDER_TOL = 1e-9  # rounding leaves 1.04e-11 below 4096 (6 ulp); a wrong entry moves log 2
ORACLE_FIDELITY_TOL = 1e-9
ORACLE_PROB_TOL = 1e-9
BETA_TOL = 1e-8
EQ4_TOL = 1e-8
EQ4_DIM = 40

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


def check_q_pairing() -> tuple[bool, str]:
    """Numeric Mandel Q vs closed form, and 2 (h[n] - h[n-1]) = log n for every entry
    h[n] = log(n!) / 2 of the fock._ladder table that any dimension reads."""
    n, _, half_log_factorial, _ = fock._ladder(fock.DIM_CAP)
    ladder = float(np.abs(2.0 * np.diff(half_log_factorial) - np.log(n[1:])).max())
    worst = 0.0
    worst_at = ""
    for r in R_GRID:
        for theta in THETA_GRID:
            alpha = CoherentParams(r, theta)
            state = fock.spacs_state(alpha, fock.adaptive_dim(alpha, 0.0))
            diff = abs(observables.mandel_q(state) - observables.analytic_q_initial(alpha))
            if diff > worst:
                worst, worst_at = diff, f"r={r}, theta={theta:.6g}"
    detail = f"max |numeric - analytic| = {worst:.3e} at {worst_at} (tol {PAIRING_TOL:.1e})"
    if not ladder <= LADDER_TOL:
        return False, f"{detail}; log-factorial table off by {ladder:.3e} (tol {LADDER_TOL:.1e})"
    return worst <= PAIRING_TOL, detail


def check_s_pairing() -> tuple[bool, str]:
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
    return (
        worst <= PAIRING_TOL,
        f"max |numeric - analytic| = {worst:.3e} at {worst_at} (tol {PAIRING_TOL:.1e})",
    )


def check_eq4_identity() -> tuple[bool, str]:
    """Dense exponential of the coupling vs its two-branch decomposition."""
    half = EQ4_DIM // 2
    pointer_part = np.arange(2 * EQ4_DIM) % EQ4_DIM
    mask = (pointer_part[:, None] < half) & (pointer_part[None, :] < half)
    worst = 0.0
    for s in (0.1, 1.0, 2.0):
        diff = np.abs(
            measurement.joint_unitary_dense(EQ4_DIM, s)
            - measurement.joint_unitary_branches(EQ4_DIM, s)
        )
        worst = max(worst, float(diff[mask].max()))
    return (
        worst <= EQ4_TOL,
        f"max entry difference on retained blocks = {worst:.3e} (tol {EQ4_TOL:.1e})",
    )


def check_oracle_grid() -> tuple[bool, str]:
    """Main-path conditioned state vs the joint-evolution oracle, 162 points."""
    selections = tuple(SelectionConfig(phi_pre, delta)
                       for delta in ORACLE_DELTA for phi_pre in ORACLE_PHI)
    points = [(r, theta, s, CoherentParams(r, theta))
              for r in ORACLE_R for theta in ORACLE_THETA for s in ORACLE_S]
    groups = {}  # adaptive_dim reads |alpha| and s only: one evolution per (r, s)
    for r, theta, s, alpha in points:
        groups.setdefault((fock.adaptive_dim(alpha, s), s), []).append(alpha)
    oracle = {}
    for (dim, s), alphas in groups.items():
        evolved = measurement.joint_evolution_project(
            tuple(fock.spacs_state(alpha, dim) for alpha in alphas), selections, s)
        oracle.update(((alpha, s), (dim, states)) for alpha, states in zip(alphas, evolved))
    worst_infid = worst_prob = worst_beta = 0.0
    worst_at = ""
    for r, theta, s, alpha in points:
        dim, states = oracle[alpha, s]
        outcomes = measurement.postselected_pointer([(alpha, dim, s, selections)])
        for sel, (oracle_state, oracle_prob), out in zip(selections, states, outcomes):
            if isinstance(out, SpacsimError):
                raise out
            final, prob = out
            w = measurement.weak_value(sel)
            infid = 1.0 - abs(fock.inner_product(oracle_state, final))
            prob_diff = abs(prob - oracle_prob)
            # prob = naive * ||superposition||^2 / 4 gives 1/||superposition||
            naive = measurement.naive_postselection_probability(sel)
            beta_diff = abs(measurement.analytic_beta(alpha, w, s) - 0.5 * math.sqrt(naive / prob))
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
    return (
        passed,
        f"max infidelity {worst_infid:.3e}, probability diff {worst_prob:.3e}, "
        f"beta diff {worst_beta:.3e}, worst at {worst_at}",
    )


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


def _strictly(values, increasing: bool) -> bool:
    pairs = zip(values, values[1:])
    return all(b > a for a, b in pairs) if increasing else all(b < a for a, b in pairs)


def trend_assertions() -> list[CheckOutcome]:
    """Five qualitative assertions about the measurement's effect.

    1. broadening of P(n) with coupling strength (fig1a parameters);
    2. suppression of the modal P(n) with weak value at s = 0.1 (fig1b);
    3. Mandel Q rising toward 0 with coupling strength at r = 2 (fig2a);
    4. Mandel Q dropping with weak value at r = 2, s = 0.1 (fig2b);
    5. squeezing appearing at theta != phi_quad for some s > 0 at r = 4
       even though the initial state is unsqueezed there (fig4a).

    Assertions 3-5 read their numbers from run_sweep on the preset spec
    (fig2a and fig2b narrowed to r = 2); 1 and 2 need full distributions
    and evaluate points directly.  Each assertion reports its computed
    numbers verbatim whether it passes or fails.
    """
    outcomes = []

    fig1a = experiments.figure_preset("fig1a")
    variances = []
    for s in fig1a.series_values:
        point = experiments.evaluate_point(replace(fig1a.fixed, s=s))
        variances.append(observables.distribution_moments(
            observables.photon_distribution(point.state))[1])
    outcomes.append(CheckOutcome(
        "distribution-broadens-with-s",
        _strictly(variances, increasing=True),
        f"P(n) variance over s={_fmt(fig1a.series_values)}: {_fmt(variances)}",
    ))

    fig1b = experiments.figure_preset("fig1b")
    initial = fock.spacs_state(
        fig1b.fixed.alpha, fock.adaptive_dim(fig1b.fixed.alpha, fig1b.fixed.s))
    modal_n = int(np.argmax(observables.photon_distribution(initial)))
    peaks, variances1b = [], []
    for phi_pre in fig1b.series_values:
        point = experiments.evaluate_point(replace(fig1b.fixed, phi_pre=phi_pre))
        probs = observables.photon_distribution(point.state)
        peaks.append(float(probs[modal_n]))
        variances1b.append(observables.distribution_moments(probs)[1])
    outcomes.append(CheckOutcome(
        "peak-probability-drops-with-weak-value",
        _strictly(peaks, increasing=False),
        f"P(n={modal_n}) over phi_pre={_fmt(fig1b.series_values)}: {_fmt(peaks)}; "
        f"variances {_fmt(variances1b)} (variance grows at these parameters)",
    ))

    fig2a = replace(experiments.figure_preset("fig2a"), grid=(2.0,))
    qs_vs_s = [row.value for row in experiments.run_sweep(fig2a)]
    outcomes.append(CheckOutcome(
        "sub-poissonianity-attenuates-with-s",
        _strictly(qs_vs_s, increasing=True),
        f"Q at r=2 over s={_fmt(fig2a.series_values)}: {_fmt(qs_vs_s)}",
    ))

    fig2b = replace(experiments.figure_preset("fig2b"), grid=(2.0,))
    qs_vs_w = [row.value for row in experiments.run_sweep(fig2b)]
    outcomes.append(CheckOutcome(
        "sub-poissonianity-grows-with-weak-value",
        _strictly(qs_vs_w, increasing=False),
        f"Q at r=2, s=0.1 over phi_pre={_fmt(fig2b.series_values)}: {_fmt(qs_vs_w)}",
    ))

    fig4a = experiments.figure_preset("fig4a")
    s_initial = observables.analytic_s_initial(fig4a.fixed.alpha, fig4a.fixed.phi_quad)
    best = (float("inf"), 0.0, 0.0)  # (S, phi_pre, s)
    points = itertools.product(fig4a.series_values, fig4a.grid)  # series-major, as the rows
    for (phi_pre, s), row in zip(points, experiments.run_sweep(fig4a)):
        if s != 0.0 and row.value < best[0]:
            best = (row.value, phi_pre, s)
    outcomes.append(CheckOutcome(
        "squeezing-without-phase-matching",
        best[0] < 0.0 < s_initial,
        f"initial S={s_initial:.6g} > 0; minimum measured S={best[0]:.6g} "
        f"at phi_pre={best[1]:.6g}, s={best[2]:.6g}",
    ))

    return outcomes


def check_trends() -> tuple[bool, str]:
    outcomes = trend_assertions()
    failed = [o for o in outcomes if not o.passed]
    if failed:
        detail = "; ".join(f"{o.name}: {o.detail}" for o in failed)
    else:
        detail = f"all {len(outcomes)} assertions hold"
    return not failed, detail


def run_all() -> list[CheckOutcome]:
    """Every check in its fixed order, the oracle grid last.

    A check that raises SpacsimError fails under its name, with the error as its detail.
    """
    table = (("mandel-q-closed-form", check_q_pairing), ("squeezing-closed-form", check_s_pairing),
             ("two-branch-unitary-identity", check_eq4_identity),
             ("trend-assertions", check_trends), ("oracle-equivalence-grid", check_oracle_grid))
    outcomes = []
    for name, check in table:  # per call: wrapped check_* names run
        try:
            passed, detail = check()
        except SpacsimError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        outcomes.append(CheckOutcome(name, passed, detail))
    return outcomes
