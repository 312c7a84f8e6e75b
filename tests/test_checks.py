"""The verification suite behind ``spacsim check``: cost and repeatability."""

import cmath
from types import SimpleNamespace

import numpy as np
import pytest

from spacsim import checks, fock, measurement
from spacsim.fock import CoherentParams
from spacsim.measurement import SelectionConfig


def test_oracle_grid_evolves_each_pointer_once(monkeypatch):
    # 3 r x 3 s blocks of the three theta, which share a dim; six selections per evolution
    calls, evolved = [], []
    oracle = measurement.joint_evolution_project

    def counted(pointers, selections, s):
        calls.append((len(pointers), len(selections)))
        evolved.extend((s, pointer.amplitudes.tobytes()) for pointer in pointers)
        return oracle(pointers, selections, s)

    monkeypatch.setattr(measurement, "joint_evolution_project", counted)
    assert checks.check_oracle_grid()[0]
    assert calls == [(3, 6)] * 9
    assert len(set(evolved)) == len(evolved) == 27


def test_grouped_oracle_matches_each_pointer_alone():
    # every grid pointer gets from its (dim, s) block what it gets evolved on its own
    selections = tuple(SelectionConfig(phi_pre, delta)
                       for delta in checks.ORACLE_DELTA for phi_pre in checks.ORACLE_PHI)
    for r in checks.ORACLE_R:
        for s in checks.ORACLE_S:
            alphas = [CoherentParams(r, theta) for theta in checks.ORACLE_THETA]
            [dim] = {fock.adaptive_dim(alpha, s) for alpha in alphas}
            pointers = tuple(fock.spacs_state(alpha, dim) for alpha in alphas)
            grouped = measurement.joint_evolution_project(pointers, selections, s)
            assert len(grouped) == 3
            for pointer, together in zip(pointers, grouped):
                [alone] = measurement.joint_evolution_project((pointer,), selections, s)
                assert len(together) == len(alone) == 6
                for (state, prob), (ref_state, ref_prob) in zip(together, alone):
                    assert np.max(np.abs(state.amplitudes - ref_state.amplitudes)) <= 1e-15
                    assert abs(prob - ref_prob) <= 1e-15


def test_oracle_grid_builds_each_pointers_branches_once(monkeypatch):
    # one builder call per pointer serves its six selections from one pair of branches
    selections_per_call = []
    builds = []
    pointer = measurement.postselected_pointer
    displaced = fock.displaced_spacs

    def counted(pointers):
        selections_per_call.append([len(selections) for *_, selections in pointers])
        return pointer(pointers)

    monkeypatch.setattr(measurement, "postselected_pointer", counted)
    monkeypatch.setattr(fock, "displaced_spacs", lambda *a: builds.append(a) or displaced(*a))
    assert checks.check_oracle_grid()[0]
    assert selections_per_call == [[6]] * 27
    assert len(builds) == 27


def test_run_all_is_repeatable():
    assert checks.run_all() == checks.run_all()


def _rewrite_ladder(monkeypatch, rewrite):
    """fock._ladder with rewrite(n, i n, log(n!) / 2, sqrt(n)) in place of its tables."""
    ladder = fock._ladder
    monkeypatch.setattr(fock, "_ladder", lambda width: rewrite(*ladder(width)))


@pytest.mark.parametrize("n", [1, 10, 40, 62, 63, 500, 1000])
def test_a_wrong_log_factorial_entry_fails_a_check(monkeypatch, n):
    # fault matrix: log((n+1)!) in place of log(n!) in the one table every
    # coherent amplitude and displacement matrix reads, in every size holding n
    def wrong_entry(n_table, i_n, half_log_factorial, root_n):
        wrong = half_log_factorial.copy()
        if n + 1 < wrong.size:
            wrong[n] = half_log_factorial[n + 1]
        return n_table, i_n, wrong, root_n

    _rewrite_ladder(monkeypatch, wrong_entry)
    outcomes = checks.run_all()
    assert len(outcomes) == 5  # every check reports: a raising one as a FAIL line
    assert any(not o.passed for o in outcomes)


MUTATIONS = {
    # alpha* in place of alpha in every coherent amplitude
    "coherent-phase-sign": lambda mp: _rewrite_ladder(
        mp, lambda n, i_n, h, root_n: (n, -i_n, h, root_n)),
    # a_dag|n-1> with sqrt(n + 1) in place of sqrt(n)
    "photon-addition-sqrt-n-plus-1": lambda mp: _rewrite_ladder(
        mp, lambda n, i_n, h, root_n: (n, i_n, h, np.sqrt(n + 1.0))),
    # the conjugate phase e^{-(b alpha* - b* alpha)/2} on every displaced branch
    "branch-phase-sign": lambda mp: mp.setattr(
        fock, "cmath", SimpleNamespace(exp=lambda z: cmath.exp(z).conjugate())),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_mutated_builder_fails_a_check(monkeypatch, mutation):
    # fault matrix: each mutation of the main path's builders makes run_all report a FAIL
    MUTATIONS[mutation](monkeypatch)
    outcomes = checks.run_all()
    assert len(outcomes) == 5
    failed = {o.name for o in outcomes if not o.passed}
    assert failed
    if mutation == "branch-phase-sign":  # of the five checks, only the grid catches this one
        assert "oracle-equivalence-grid" in failed
