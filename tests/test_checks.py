"""The verification suite behind ``spacsim check``: cost and repeatability."""

from spacsim import checks, measurement


def test_oracle_grid_evolves_each_pointer_once(monkeypatch):
    # 3 r x 3 theta x 3 s pointers; the six selections share one evolution
    calls = []
    oracle = measurement.joint_evolution_project

    def counted(pointer, selections, m):
        calls.append(len(selections))
        return oracle(pointer, selections, m)

    monkeypatch.setattr(measurement, "joint_evolution_project", counted)
    assert checks.check_oracle_grid().passed
    assert calls == [6] * 27


def test_run_all_is_repeatable():
    assert checks.run_all() == checks.run_all()
