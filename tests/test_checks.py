"""The verification suite behind ``spacsim check``: cost and repeatability."""

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
