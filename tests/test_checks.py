"""The verification suite behind ``spacsim check``: cost and repeatability."""

import pytest

from spacsim import checks, fock, measurement


def test_oracle_grid_evolves_each_pointer_once(monkeypatch):
    # 3 r x 3 theta x 3 s pointers; the six selections share one evolution
    calls = []
    oracle = measurement.joint_evolution_project

    def counted(pointer, selections, s):
        calls.append(len(selections))
        return oracle(pointer, selections, s)

    monkeypatch.setattr(measurement, "joint_evolution_project", counted)
    assert checks.check_oracle_grid()[0]
    assert calls == [6] * 27


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


@pytest.mark.parametrize("n", [1, 10, 40])
def test_a_wrong_log_factorial_entry_fails_a_check(monkeypatch, n):
    # fault matrix: log((n+1)!) in place of log(n!) in the one table every
    # coherent amplitude and displacement matrix reads
    ladder = fock._ladder

    def corrupted(width):
        n_table, i_n, half_log_factorial, root_n = ladder(width)
        wrong = half_log_factorial.copy()
        wrong[n] = half_log_factorial[n + 1]
        return n_table, i_n, wrong, root_n

    monkeypatch.setattr(fock, "_ladder", corrupted)
    outcomes = checks.run_all()
    assert len(outcomes) == 5  # every check reports: a raising one as a FAIL line
    assert any(not o.passed for o in outcomes)
