import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spacsim import checks, errors, experiments, fock, measurement
from spacsim.experiments import (
    FIGURE_IDS,
    ParamSet,
    SweepSpec,
    evaluate_point,
    figure_preset,
    run_sweep,
)
from spacsim.fock import CoherentParams
from spacsim.measurement import SelectionConfig
from spacsim.observables import analytic_q_initial, analytic_s_initial, squeezing

from _reference import point_by_point_sweep

PI = math.pi

# frozen by the first dense-oracle run: P(n) of the conditioned state at
# delta=pi/4, r=2, theta=pi/9, phi_pre=pi/3 for n in (0, 3, 6, 10, 15)
FIG1A_REFERENCE = {
    0.0: (0.0, 0.087915066665924108, 0.1875521422206381,
          0.026462383382100635, 0.00016919006358186164),
    0.5: (1.7350591415088409e-05, 0.070628793387866345, 0.1783783387327991,
          0.042386244284582521, 0.00068888364028677504),
    1.0: (0.00034458478110691704, 0.068646425455350019, 0.13326274149389675,
          0.072637531023226301, 0.0042041444433768144),
    2.0: (0.010966801476601187, 0.042287399553776736, 0.0087753797423183177,
          0.11529011153119438, 0.047601554161077808),
}


def test_evaluate_point_measurement_off_reduces_to_initial_state():
    params = ParamSet(r=1.0, theta=0.4, phi_pre=0.0, s=0.0)
    point = evaluate_point(params)
    assert measurement.weak_value(params.selection) == 0.0
    assert measurement.naive_postselection_probability(params.selection) == 1.0
    assert point.true_prob == pytest.approx(1.0, abs=1e-12)
    from spacsim.observables import mandel_q

    assert mandel_q(point.state) == pytest.approx(-0.5, abs=1e-9)


def test_single_point_sweep_matches_closed_form():
    spec = SweepSpec(
        swept="r", grid=(1.5,), series="s", series_values=(0.0,),
        fixed=ParamSet(theta=0.3, delta=0.0, phi_pre=PI / 9), observable="mandel_q",
    )
    rows = run_sweep(spec)
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "ok"
    assert row.value == pytest.approx(analytic_q_initial(CoherentParams(1.5)), abs=1e-8)


def test_zero_coupling_series_matches_closed_forms():
    q_spec = SweepSpec(
        swept="r", grid=tuple(np.linspace(0.0, 4.0, 9)), series="s", series_values=(0.0,),
        fixed=ParamSet(theta=PI / 4, delta=0.0, phi_pre=PI / 9), observable="mandel_q",
    )
    for row in run_sweep(q_spec):
        assert row.value == pytest.approx(analytic_q_initial(CoherentParams(row.x)), abs=1e-8)
    s_spec = SweepSpec(
        swept="r", grid=tuple(np.linspace(0.0, 4.0, 9)), series="s", series_values=(0.0,),
        fixed=ParamSet(theta=PI / 2, delta=0.0, phi_pre=PI / 9, phi_quad=PI / 2),
        observable="squeezing",
    )
    for row in run_sweep(s_spec):
        assert row.value == pytest.approx(
            analytic_s_initial(CoherentParams(row.x, PI / 2), PI / 2), abs=1e-8
        )


def test_row_ordering_series_major():
    spec = SweepSpec(
        swept="r", grid=(0.5, 1.0, 2.0), series="s", series_values=(0.0, 1.0),
        fixed=ParamSet(phi_pre=PI / 9), observable="mandel_q",
    )
    rows = run_sweep(spec)
    assert [(row.series, row.x) for row in rows] == [
        ("s=0", 0.5), ("s=0", 1.0), ("s=0", 2.0),
        ("s=1", 0.5), ("s=1", 1.0), ("s=1", 2.0),
    ]


def test_error_rows_instead_of_abort():
    # r = 60 needs dim 4220, past fock.DIM_CAP; that point fails alone
    spec = SweepSpec(
        swept="r", grid=(0.5, 60.0), series="s", series_values=(0.0,),
        fixed=ParamSet(phi_pre=PI / 9), observable="mandel_q",
    )
    rows = run_sweep(spec)
    assert rows[0].status == "ok"
    assert rows[1].status == "ConvergenceError"
    assert math.isnan(rows[1].value)


PARAM_FIELDS = ("r", "theta", "delta", "phi_pre", "s", "phi_quad")
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PARAM_FIELDS), NON_FINITE)
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(errors.InvalidParameterError, match=field):
        ParamSet(**{field: value})
    library_types = {
        "r": lambda: CoherentParams(value),
        "theta": lambda: CoherentParams(1.0, value),
        "delta": lambda: SelectionConfig(0.0, value),
        "phi_pre": lambda: SelectionConfig(value),
        "s": lambda: fock.adaptive_dim(CoherentParams(1.0), value),
    }
    if field in library_types:
        with pytest.raises(errors.InvalidParameterError, match=field):
            library_types[field]()


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(("r", "s", "phi_pre")), NON_FINITE)
def test_non_finite_grid_value_becomes_status_row(swept, value):
    grid = {"r": (1.0, 2.0), "s": (0.5, 1.0), "phi_pre": (PI / 9, PI / 3)}[swept]
    series = "phi_pre" if swept != "phi_pre" else "s"
    base = SweepSpec(
        swept=swept, grid=grid, series=series, series_values=(0.5,),
        fixed=ParamSet(r=1.0, phi_pre=PI / 9, s=0.5), observable="mandel_q",
    )
    clean = run_sweep(base)
    rows = run_sweep(replace(base, grid=(grid[0], value, grid[1])))
    assert rows[1].status == "InvalidParameterError"
    assert math.isnan(rows[1].value)
    assert (rows[0], rows[2]) == clean


def test_non_finite_series_and_photon_number_become_status_rows():
    spec = SweepSpec(
        swept="n", grid=(0.0, math.nan, 2.0), series="s", series_values=(math.inf, 0.5),
        fixed=ParamSet(r=1.0, phi_pre=PI / 9), observable="p_of_n",
    )
    rows = run_sweep(spec)
    assert [row.status for row in rows] == [
        "InvalidParameterError", "InvalidParameterError", "InvalidParameterError",
        "ok", "InvalidParameterError", "ok",
    ]
    clean = run_sweep(replace(spec, grid=(0.0, 2.0), series_values=(0.5,)))
    assert (rows[3], rows[5]) == clean


def test_negative_photon_number_becomes_status_row():
    spec = SweepSpec(
        swept="n", grid=(-3.0, -1.0, 0.0, 500.0), series="s", series_values=(0.0,),
        fixed=ParamSet(r=1.0), observable="p_of_n",
    )
    rows = run_sweep(spec)
    assert [row.status for row in rows] == ["InvalidParameterError"] * 2 + ["ok", "ok"]
    assert math.isnan(rows[0].value)
    assert rows[3].value == 0.0  # n beyond the retained basis reads 0


def test_phi_pre_series_above_cap_gives_error_rows():
    spec = SweepSpec(
        swept="r", grid=(1.0, 2.0), series="phi_pre", series_values=(0.9999 * PI, PI / 3),
        fixed=ParamSet(s=0.1), observable="mandel_q",
    )
    rows = run_sweep(spec)
    assert [row.status for row in rows[:2]] == ["InvalidParameterError"] * 2
    assert [row.status for row in rows[2:]] == ["ok", "ok"]


def test_photon_number_sweep_full_distribution():
    spec = figure_preset("fig1b")
    rows = run_sweep(spec)
    assert len(rows) == len(spec.grid) * len(spec.series_values)
    for series_value in spec.series_values:
        label = f"phi_pre={series_value:.17g}"
        total = sum(row.value for row in rows if row.series == label)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_fig1a_frozen_distribution_regression():
    spec = figure_preset("fig1a")
    rows = run_sweep(spec)
    picks = (0, 3, 6, 10, 15)
    for s, expected in FIG1A_REFERENCE.items():
        label = f"s={s:.17g}"
        values = {int(row.x): row.value for row in rows if row.series == label}
        for n, reference in zip(picks, expected):
            assert values[n] == pytest.approx(reference, abs=1e-9), (s, n)


def test_spec_validation():
    fixed = ParamSet(phi_pre=PI / 9)
    with pytest.raises(errors.InvalidParameterError):
        SweepSpec(swept="r", grid=(1.0,), series="r", series_values=(1.0,),
                  fixed=fixed, observable="mandel_q")
    with pytest.raises(errors.InvalidParameterError):
        SweepSpec(swept="r", grid=(), series="s", series_values=(0.0,),
                  fixed=fixed, observable="mandel_q")
    with pytest.raises(errors.InvalidParameterError):
        SweepSpec(swept="r", grid=(1.0,), series="s", series_values=(0.0,),
                  fixed=fixed, observable="wigner")
    with pytest.raises(errors.InvalidParameterError):
        SweepSpec(swept="n", grid=(0.0, 1.0), series="s", series_values=(0.0,),
                  fixed=fixed, observable="mandel_q")
    with pytest.raises(errors.InvalidParameterError):
        figure_preset("fig9z")


def test_figure_presets_cover_caption_parameters():
    assert set(FIGURE_IDS) == {
        "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d",
        "fig4a", "fig4b",
    }
    fig2a = figure_preset("fig2a")
    assert fig2a.fixed.delta == 0.0
    assert fig2a.fixed.theta == pytest.approx(PI / 4)
    assert fig2a.fixed.phi_pre == pytest.approx(PI / 9)
    assert fig2a.observable == "mandel_q"
    assert fig2a.swept == "r"
    assert fig2a.grid[0] == 0.0 and fig2a.grid[-1] == 4.0 and len(fig2a.grid) == 81
    fig1a = figure_preset("fig1a")
    assert fig1a.fixed.delta == pytest.approx(PI / 4)
    assert fig1a.fixed.r == 2.0
    assert fig1a.fixed.theta == pytest.approx(PI / 9)
    assert fig1a.fixed.phi_pre == pytest.approx(PI / 3)
    assert fig1a.series_values == (0.0, 0.5, 1.0, 2.0)
    fig3a = figure_preset("fig3a")
    assert fig3a.fixed.phi_pre == pytest.approx(PI / 9)
    assert fig3a.fixed.theta == pytest.approx(PI / 2)
    assert fig3a.fixed.phi_quad == pytest.approx(PI / 2)
    assert fig3a.observable == "squeezing"
    fig4b = figure_preset("fig4b")
    assert fig4b.fixed.r == 4.0
    assert fig4b.fixed.theta == pytest.approx(PI / 2)
    assert fig4b.swept == "s"
    for fig_id in FIGURE_IDS:
        assert figure_preset(fig_id) is experiments._PRESETS[fig_id]


def test_all_presets_run_clean_on_thinned_grids():
    for fig_id in FIGURE_IDS:
        spec = figure_preset(fig_id)
        thinned = replace(spec, grid=spec.grid[::8] or spec.grid[:1])
        rows = run_sweep(thinned)
        assert all(row.status == "ok" for row in rows), fig_id
        assert len(rows) == len(thinned.grid) * len(thinned.series_values)
        for row in rows:
            if row.series == "s=0" and thinned.observable == "mandel_q":
                expected = analytic_q_initial(CoherentParams(row.x, thinned.fixed.theta))
                assert row.value == pytest.approx(expected, abs=1e-8), fig_id
            if row.series == "s=0" and thinned.observable == "squeezing":
                expected = analytic_s_initial(
                    CoherentParams(row.x, thinned.fixed.theta), thinned.fixed.phi_quad
                )
                assert row.value == pytest.approx(expected, abs=1e-8), fig_id


def test_trend_report_structure():
    report = checks.trend_assertions()
    names = [a.name for a in report]
    assert names == [
        "distribution-broadens-with-s",
        "peak-probability-drops-with-weak-value",
        "sub-poissonianity-attenuates-with-s",
        "sub-poissonianity-grows-with-weak-value",
        "squeezing-without-phase-matching",
    ]
    for assertion in report:
        assert assertion.detail  # numbers are always reported


def test_point_memory_stays_linear_in_dim():
    # dim 1151 here: one dense (dim, dim) complex matrix alone would be 21 MB
    params = ParamSet(r=28.0, phi_pre=PI / 3, s=1.0, phi_quad=PI / 2)
    fock.adaptive_dim.cache_clear()  # so the dimension choice runs inside the trace
    tracemalloc.start()
    try:
        point = evaluate_point(params)
        squeezing(point.state, params.phi_quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert point.state.dim == 1151
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ------------------------------------------------- one build per shared pointer

def comparable(rows):
    """Row fields with NaN as None, so NaN-valued error rows compare equal."""
    return [
        tuple(None if isinstance(v, float) and math.isnan(v) else v for v in astuple(row))
        for row in rows
    ]


_PHI = st.sampled_from([0.0, -0.0, PI / 9, PI / 3, PI / 2, 0.9 * PI, 0.999 * PI, 0.9995 * PI, PI])
_R = st.sampled_from([0.0, -0.0, 0.5, 2.0, 4.0, 60.0, 99999.0, -1.0, math.nan])
_S = st.sampled_from([0.0, -0.0, 0.1, 1.0, 2.5, -0.5, math.inf])
_N = st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.4, 7.0, 25.0, 200.0, math.nan])
_VALUES = {"phi_pre": _PHI, "r": _R, "s": _S, "n": _N}


@st.composite
def sweep_specs(draw):
    swept, series = draw(st.sampled_from([
        ("r", "phi_pre"), ("s", "phi_pre"),  # series over phi_pre
        ("r", "s"), ("s", "r"),  # r against s, as in fig2a, fig3a and fig3d
        ("phi_pre", "r"), ("phi_pre", "s"),  # grids over phi_pre
        ("n", "phi_pre"), ("n", "s"), ("n", "r"),  # photon-number series
    ]))
    values = lambda name: tuple(draw(st.lists(_VALUES[name], min_size=1, max_size=5)))
    observable = "p_of_n" if swept == "n" else draw(
        st.sampled_from(["mandel_q", "squeezing", "postselection_prob"]))
    fixed = ParamSet(
        r=draw(st.sampled_from([0.0, 1.0, 3.0])),
        theta=draw(st.sampled_from([0.0, PI / 9, PI / 2])),
        delta=draw(st.sampled_from([0.0, PI / 4])),
        phi_pre=draw(st.sampled_from([0.0, PI / 3])),
        s=draw(st.sampled_from([0.0, 0.5])),
        phi_quad=draw(st.sampled_from([0.0, PI / 2])),
    )
    return SweepSpec(
        swept=swept, grid=values(swept), series=series, series_values=values(series),
        fixed=fixed, observable=observable,
    )


@settings(max_examples=150, deadline=None)
@given(sweep_specs())
@example(SweepSpec(  # series r = +-0 share one pointer group
    swept="phi_pre", grid=(0.0, PI / 3, PI), series="r", series_values=(-0.0, 0.0, 2.0, -0.0),
    fixed=ParamSet(theta=PI / 9, delta=PI / 4, s=0.5, phi_quad=PI / 2), observable="squeezing",
))
@example(SweepSpec(  # duplicate grid values; +-0 couplings
    swept="s", grid=(0.0, -0.0, 1.0, 1.0), series="phi_pre", series_values=(PI / 3, 0.0, PI / 3),
    fixed=ParamSet(r=2.0, theta=PI / 9), observable="mandel_q",
))
@example(SweepSpec(  # one batch of mixed dims: r = 0 (dim 20) beside r = 4; s = 0 series;
    # r = 60 fails adaptive_dim with ConvergenceError in its own cells only
    swept="r", grid=(0.0, 4.0, 60.0, 2.0), series="s", series_values=(0.0, 0.5, 1.0),
    fixed=ParamSet(theta=PI / 9, delta=PI / 4, phi_pre=PI / 3, phi_quad=PI / 2),
    observable="squeezing",
))
@example(SweepSpec(  # photon numbers at and past dim 25 (r = 0, s = 0.5) beside r = 4
    swept="n", grid=(0.0, 3.0, 24.0, 25.0, 200.0), series="r", series_values=(0.0, 4.0, 0.0),
    fixed=ParamSet(theta=PI / 9, delta=PI / 4, phi_pre=PI / 3, s=0.5), observable="p_of_n",
))
@example(SweepSpec(  # cells with both values bad: a non-finite r beats phi_pre = pi, which
    # beats r = -1
    swept="r", grid=(-1.0, math.nan, 1.0), series="phi_pre", series_values=(PI, 0.0),
    fixed=ParamSet(s=0.5, phi_quad=PI / 2), observable="squeezing",
))
@example(SweepSpec(  # negative and non-finite r against negative and non-finite s
    swept="s", grid=(-0.5, math.inf, 0.5), series="r", series_values=(-1.0, math.nan, 1.0),
    fixed=ParamSet(phi_pre=PI / 3), observable="mandel_q",
))
def test_grouped_sweep_rows_equal_point_by_point_reference(spec):
    assert comparable(run_sweep(spec)) == comparable(point_by_point_sweep(spec))


def record_builds(monkeypatch):
    """The (alpha, shifts) of each pointer of each fock.displaced_spacs call, one list per batch."""
    calls = []
    displaced = fock.displaced_spacs
    monkeypatch.setattr(fock, "displaced_spacs", lambda alphas, shifts, dims: calls.append(
        list(zip(alphas, shifts, dims))) or displaced(alphas, shifts, dims))
    return calls


@pytest.mark.parametrize("limit", [1, 3, 256])
def test_long_phi_pre_grids_build_one_branch_pair_per_chunk(monkeypatch, limit):
    # two pointers (s = 0.5 at dim 51, s = 1 at dim 59) of seven selections each:
    # a batch of at most `limit` pointers at the wider dim, and each pointer's
    # branches built once in the one batch that holds it, however many selections
    spec = SweepSpec(
        swept="phi_pre", grid=tuple(np.linspace(0.0, 0.9 * PI, 7)), series="s",
        series_values=(0.5, 1.0), fixed=ParamSet(r=2.0, phi_quad=PI / 2), observable="squeezing",
    )
    expected = comparable(point_by_point_sweep(spec))
    monkeypatch.setattr(measurement, "BATCH_AMPLITUDES", limit * 59)
    calls = record_builds(monkeypatch)
    assert comparable(run_sweep(spec)) == expected
    assert [len(pointers) for pointers in calls] == ([1, 1] if limit == 1 else [2])
    assert sorted(shifts for pointers in calls for _, shifts, _ in pointers) == [
        (0.25, -0.25), (0.5, -0.5)]


def test_long_phi_pre_grid_holds_a_bounded_number_of_states():
    # 1000 selections share one pointer at dim 319: all their states at once
    # peak above 10 MiB; a sweep holds one conditioned state at a time
    spec = SweepSpec(
        swept="phi_pre", grid=tuple(np.linspace(0.0, 0.9 * PI, 1000)), series="s",
        series_values=(1.0,), fixed=ParamSet(r=12.0), observable="postselection_prob",
    )
    tracemalloc.start()
    try:
        rows = run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(row.status == "ok" for row in rows)
    assert peak < 7 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("spec", [
    SweepSpec(  # the high_r grid: 18 pointers at dims 671-1151
        swept="r", grid=tuple(float(r) for r in range(20, 29)), series="s",
        series_values=(0.5, 1.0), fixed=ParamSet(phi_pre=PI / 3, phi_quad=PI / 2),
        observable="squeezing",
    ),
    SweepSpec(  # 1000 selections of one pointer at dim 319
        swept="phi_pre", grid=tuple(np.linspace(0.0, 0.9 * PI, 1000)), series="s",
        series_values=(1.0,), fixed=ParamSet(r=12.0), observable="postselection_prob",
    ),
    SweepSpec(  # fig3a's 324 pointers at dims 20-139
        swept="r", grid=experiments._R_GRID, series="s", series_values=experiments._S_SERIES,
        fixed=ParamSet(theta=PI / 2, phi_pre=PI / 9, phi_quad=PI / 2), observable="squeezing",
    ),
], ids=["high-r", "long-phi-pre", "fig3a"])
def test_sweep_batches_stay_within_the_amplitude_budget(monkeypatch, spec):
    calls = record_builds(monkeypatch)
    rows = run_sweep(spec)
    assert all(row.status == "ok" for row in rows)
    built = [(alpha, shifts) for pointers in calls for alpha, shifts, _ in pointers]
    assert len(built) == len(set(built))  # each pointer in one batch only
    for pointers in calls:
        width = max(dim for *_, dim in pointers)
        assert len(pointers) * width <= measurement.BATCH_AMPLITUDES or len(pointers) == 1


def test_fig3b_builds_one_branch_pair_per_pointer(monkeypatch):
    # 81 r values x 4 phi_pre series at s = 1: the four selections share each
    # pointer, whose branches are built once, in the one batch that holds it
    calls = record_builds(monkeypatch)
    rows = run_sweep(figure_preset("fig3b"))
    assert len(rows) == 324
    built = sorted(alpha.r for pointers in calls for alpha, _, _ in pointers)
    assert built == sorted(figure_preset("fig3b").grid)
    assert len(calls) > 1


def test_fig3b_builds_one_state_per_conditioned_point(monkeypatch):
    # every StateVector, built alone or as a batch row, comes from one fock.states row
    built = []
    batch = fock.states
    monkeypatch.setattr(fock, "states", lambda rows, dims: built.extend(dims) or batch(rows, dims))
    rows = run_sweep(figure_preset("fig3b"))
    assert len(rows) == 324
    assert len(built) == 324


@pytest.mark.parametrize("fields,error,message", [
    ({"r": -1.0, "s": -1.0, "phi_pre": PI}, errors.UndefinedWeakValueError, "orthogonal"),
    ({"r": -1.0, "s": -1.0, "phi_pre": 4.0}, errors.InvalidParameterError, "phi_pre must lie"),
    ({"r": -1.0, "s": -1.0}, errors.InvalidParameterError, "coupling strength"),
    ({"r": -1.0}, errors.InvalidParameterError, "coherent modulus"),
    ({"r": -1.0, "s": -1.0, "phi_pre": PI, "phi_quad": math.nan},
     errors.InvalidParameterError, "phi_quad must be finite"),
], ids=["weak-value-undefined", "phi-pre-above-cap", "negative-s", "negative-r", "non-finite"])
def test_param_set_reports_the_first_bad_input(fields, error, message):
    # finiteness, then selection, then coupling, then amplitude
    with pytest.raises(error, match=message):
        ParamSet(**fields)


def count_builds(monkeypatch):
    """Builds of each of ParamSet, SelectionConfig and CoherentParams, counted by name."""
    built = {name: 0 for name in ("ParamSet", "SelectionConfig", "CoherentParams")}
    def counted_post_init(self, _post_init=ParamSet.__post_init__):
        built["ParamSet"] += 1
        _post_init(self)
    monkeypatch.setattr(ParamSet, "__post_init__", counted_post_init)
    for name in ("SelectionConfig", "CoherentParams"):
        def counted(*args, _name=name, _cls=getattr(experiments, name)):
            built[_name] += 1
            return _cls(*args)
        monkeypatch.setattr(experiments, name, counted)
    return built


def test_each_sweep_axis_value_builds_its_parts_once(monkeypatch):
    # 2 couplings x 3 selections: six cells in two pointer groups, five axis values
    spec = SweepSpec(
        swept="phi_pre", grid=(0.0, PI / 3, PI / 2), series="s", series_values=(0.5, 1.0),
        fixed=ParamSet(r=2.0, phi_quad=PI / 2), observable="squeezing",
    )
    built = count_builds(monkeypatch)
    rows = run_sweep(spec)
    assert [row.status for row in rows] == ["ok"] * 6
    assert built == {name: 5 for name in built}


def test_fig3b_checks_each_axis_value_once(monkeypatch):
    # 81 r values and 4 phi_pre values: 85 checked parameter sets for 324 cells
    built = count_builds(monkeypatch)
    rows = run_sweep(figure_preset("fig3b"))
    assert len(rows) == 324
    assert built == {name: 85 for name in built}


def test_degenerate_selection_is_a_status_row_for_that_selection_only(monkeypatch):
    # no physical selection cancels the two branches, so stand-in branches
    # v and -v of the one pointer make w = 0 cancel while w = 1 keeps 2v
    alpha = CoherentParams(1.0)
    pointer = fock.spacs_state(alpha, fock.adaptive_dim(alpha, 0.1)).amplitudes
    monkeypatch.setattr(fock, "displaced_spacs",
                        lambda *a: (np.array([[pointer], [-pointer]]), [None]))
    spec = SweepSpec(
        swept="r", grid=(1.0,), series="phi_pre", series_values=(0.0, PI / 2),
        fixed=ParamSet(s=0.1, phi_quad=PI / 2), observable="postselection_prob",
    )
    degenerate, kept = run_sweep(spec)
    assert degenerate.status == "DegeneratePostselectionError"
    assert kept.status == "ok" and 0.0 < kept.value <= 1.0
