"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its worst-case numbers (run with -s to see them on
success).  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from spacsim import checks, fock
from spacsim.cli import main as cli_main
from spacsim.fock import CoherentParams, adaptive_dim, spacs_state
from spacsim.measurement import joint_unitary_branches, joint_unitary_dense
from spacsim.observables import (
    analytic_q_initial,
    analytic_s_initial,
    mandel_q,
    squeezing,
)

from _reference import coherent_state, fock_state

PI = math.pi

Q_TOL = 1e-8
S_TOL = 1e-8
EQ4_TOL = 1e-8
FIDELITY_TOL = 1e-9
BETA_TOL = 1e-8
COHERENT_Q_TOL = 1e-9
COHERENT_S_TOL = 1e-10

R_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
THETA_GRID = (0.0, PI / 9, PI / 2)
PHI_GRID = (0.0, PI / 4, PI / 2)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def initial_spacs(r: float, theta: float = 0.0):
    alpha = CoherentParams(r, theta)
    return spacs_state(alpha, adaptive_dim(alpha, 0.0))


def test_criterion_1_mandel_q_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for r in R_GRID:
        diff = abs(mandel_q(initial_spacs(r)) - analytic_q_initial(CoherentParams(r)))
        worst = max(worst, diff)
    endpoints_ok = (
        analytic_q_initial(CoherentParams(0.0)) == -1.0
        and abs(analytic_q_initial(CoherentParams(1.0)) + 0.5) < 1e-15
        and abs(analytic_q_initial(CoherentParams(2.0)) + 41.0 / 145.0) < 1e-15
    )
    elapsed = time.perf_counter() - start
    report(
        "1 closed-form-Q",
        worst <= Q_TOL and endpoints_ok and elapsed < 1.0,
        f"max diff {worst:.3e} (tol {Q_TOL:.0e}), endpoints ok={endpoints_ok}, {elapsed:.2f}s",
    )


def test_criterion_2_squeezing_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for r in R_GRID:
        for theta in THETA_GRID:
            state = initial_spacs(r, theta)
            for phi in PHI_GRID:
                diff = abs(
                    squeezing(state, phi) - analytic_s_initial(CoherentParams(r, theta), phi)
                )
                worst = max(worst, diff)
    matched = initial_spacs(2.0, PI / 2)
    point_ok = abs(squeezing(matched, PI / 2) + 0.12) < S_TOL
    elapsed = time.perf_counter() - start
    report(
        "2 closed-form-squeezing",
        worst <= S_TOL and point_ok and elapsed < 1.0,
        f"max diff {worst:.3e} on 5x3x3 grid (tol {S_TOL:.0e}), "
        f"r=2 matched-phase ok={point_ok}, {elapsed:.2f}s",
    )


def test_criterion_3_two_branch_identity():
    start = time.perf_counter()
    dim = 40
    half = dim // 2
    pointer_part = np.arange(2 * dim) % dim
    mask = (pointer_part[:, None] < half) & (pointer_part[None, :] < half)
    worst = 0.0
    for s in (0.1, 1.0, 2.0):
        diff = np.abs(joint_unitary_dense(dim, s) - joint_unitary_branches(dim, s))
        worst = max(worst, float(diff[mask].max()))
    elapsed = time.perf_counter() - start
    report(
        "3 unitary-decomposition",
        worst <= EQ4_TOL and elapsed < 5.0,
        f"max entry diff {worst:.3e} at dim=40, s in (0.1, 1, 2) (tol {EQ4_TOL:.0e}), "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_oracle_grid():
    start = time.perf_counter()
    passed, detail = checks.check_oracle_grid()
    elapsed = time.perf_counter() - start
    report(
        "4 oracle-consistency-162-grid",
        passed and elapsed < 60.0,
        f"{detail}, {elapsed:.1f}s",
    )


def test_criterion_5_baseline_sanity():
    worst_q = 0.0
    worst_s = 0.0
    for r, theta in ((0.8, 0.0), (2.0, 1.0), (3.0, 4.5)):
        alpha = CoherentParams(r, theta)
        state = coherent_state(alpha, adaptive_dim(alpha, 0.0))
        worst_q = max(worst_q, abs(mandel_q(state)))
        for phi in (0.0, 0.7, PI / 2, 2.9):
            worst_s = max(worst_s, abs(squeezing(state, phi)))
    fock_exact = all(mandel_q(fock_state(n, 14)) == -1.0 for n in (1, 2, 7))
    report(
        "5 baseline-sanity",
        worst_q <= COHERENT_Q_TOL and worst_s <= COHERENT_S_TOL and fock_exact,
        f"coherent |Q| max {worst_q:.2e} (tol 1e-9), |S| max {worst_s:.2e} (tol 1e-10), "
        f"Fock Q exactly -1: {fock_exact}",
    )


def test_criterion_6_trend_assertions():
    letter = checks.trend_assertions()
    for assertion in letter:
        status = "pass" if assertion.passed else "FAIL"
        print(f"  trend {assertion.name}: {status} -- {assertion.detail}")
    report(
        "6 trend-assertions",
        all(a.passed for a in letter),
        f"{sum(a.passed for a in letter)}/5 hold; details above",
    )


def test_criterion_7_determinism(tmp_path):
    runner = CliRunner()
    paths = [tmp_path / name for name in ("run1.csv", "run2.csv", "run_parallel.csv")]
    for path, env in ((paths[0], None), (paths[1], None), (paths[2], {"SPACS_THREADS": "4"})):
        result = runner.invoke(
            cli_main, ["figure", "fig2a", "--out", str(path)],
            env=env, catch_exceptions=False,
        )
        assert result.exit_code == 0
    repeat_identical = paths[0].read_bytes() == paths[1].read_bytes()
    parallel_identical = paths[0].read_bytes() == paths[2].read_bytes()
    # the emitted s=0 series must also reproduce the closed-form Q curve
    import csv

    with open(paths[0], newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["series"] == "s=0"]
    closed_form_diff = max(
        abs(float(row["value"]) - analytic_q_initial(CoherentParams(float(row["x"]))))
        for row in rows
    )
    report(
        "7 determinism",
        repeat_identical and parallel_identical and closed_form_diff <= Q_TOL,
        f"consecutive runs identical={repeat_identical}, "
        f"parallel matches serial={parallel_identical}, "
        f"s=0 series vs closed form max diff {closed_form_diff:.3e}",
    )


def test_criterion_8_fault_sensitivity(monkeypatch):
    # inject the literal normalization typo gamma = (1+|alpha|^2)^-1, whose
    # square then differs from the shipped 1/(1+|alpha|^2)
    monkeypatch.setattr(fock, "spacs_gamma_sq", lambda x: (1.0 / (1.0 + x)) ** 2)
    q_diffs = [
        abs(mandel_q(initial_spacs(r)) - analytic_q_initial(CoherentParams(r)))
        for r in R_GRID
        if r > 0
    ]
    # phi - theta = pi/4 makes S = gamma^4 exactly, sensitive to the typo
    # at every r > 0 (the matched phase at r = 1 gives S = 0 for any gamma)
    s_diffs = [
        abs(
            squeezing(initial_spacs(r), PI / 4)
            - analytic_s_initial(CoherentParams(r), PI / 4)
        )
        for r in R_GRID
        if r > 0
    ]
    q_detects = all(diff > Q_TOL for diff in q_diffs)
    s_detects = all(diff > S_TOL for diff in s_diffs)
    report(
        "8 fault-sensitivity",
        q_detects and s_detects,
        f"with faulty gamma the pairings break: min Q diff {min(q_diffs):.3e}, "
        f"min S diff {min(s_diffs):.3e} (both must exceed 1e-8)",
    )
