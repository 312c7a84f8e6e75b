"""Declarative parameter sweeps, figure presets, and trend checks.

A sweep varies one of {r, s, phi_pre, n} over a grid while a second
variable indexes the curve family, everything else held fixed.  Points
are evaluated serially in series-major order; a point that fails
becomes a status row instead of aborting the sweep.  The trend checks
read their numbers from the figure-preset sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fock, measurement, observables
from .errors import InvalidParameterError, SpacsimError
from .fock import CoherentParams, StateVector
from .measurement import MeasurementConfig, SelectionConfig

SWEPT_VARIABLES = ("r", "s", "phi_pre", "n")
SERIES_VARIABLES = ("r", "s", "phi_pre")
OBSERVABLES = ("p_of_n", "mandel_q", "squeezing", "postselection_prob")

PI = math.pi


@dataclass(frozen=True)
class ParamSet:
    """One full parameter point: pointer, selection, coupling, quadrature."""

    r: float = 0.0
    theta: float = 0.0
    delta: float = 0.0
    phi_pre: float = 0.0
    s: float = 0.0
    phi_quad: float = 0.0

    def __post_init__(self):
        fock.require_finite(**vars(self))

    @property
    def alpha(self) -> CoherentParams:
        return CoherentParams(self.r, self.theta)

    @property
    def selection(self) -> SelectionConfig:
        return SelectionConfig(self.phi_pre, self.delta)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep: swept variable, grid, curve family, fixed record."""

    swept: str
    grid: tuple[float, ...]
    series: str
    series_values: tuple[float, ...]
    fixed: ParamSet
    observable: str
    tol: float = 1e-9
    max_dim: int = fock.DIM_CAP
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.swept not in SWEPT_VARIABLES:
            raise InvalidParameterError(f"unknown swept variable {self.swept!r}")
        if self.series not in SERIES_VARIABLES:
            raise InvalidParameterError(f"unknown series variable {self.series!r}")
        if self.swept == self.series:
            raise InvalidParameterError("swept and series variables must differ")
        if not self.grid or not self.series_values:
            raise InvalidParameterError("sweep grids must be nonempty")
        if self.observable not in OBSERVABLES:
            raise InvalidParameterError(f"unknown observable {self.observable!r}")
        if (self.swept == "n") != (self.observable == "p_of_n"):
            raise InvalidParameterError(
                "photon-number grids pair exactly with the p_of_n observable"
            )
        object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))
        object.__setattr__(self, "series_values", tuple(float(x) for x in self.series_values))


@dataclass(frozen=True)
class SweepRow:
    series: str
    x: float
    value: float
    tail_mass: float
    true_postselection_prob: float
    status: str = "ok"


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    @property
    def max_tail_mass(self) -> float:
        tails = [row.tail_mass for row in self.rows if row.status == "ok"]
        return max(tails) if tails else float("nan")


@dataclass(frozen=True)
class PointResult:
    """Everything a single parameter point produces."""

    params: ParamSet
    dim: int
    weak_value: complex
    naive_prob: float
    true_prob: float
    state: StateVector
    tail_mass: float


def evaluate_point(
    params: ParamSet, tol: float = 1e-9, max_dim: int = fock.DIM_CAP
) -> PointResult:
    """Build the pointer, couple, postselect; return the conditioned state."""
    sel = params.selection
    mconf = MeasurementConfig(params.s, tol=tol)
    alpha = params.alpha
    dim = fock.adaptive_dim(alpha, params.s, tol=tol, cap=max_dim)
    w = measurement.weak_value(sel)
    final, true_prob = measurement.postselected_pointer(alpha, dim, sel, mconf)
    return PointResult(
        params=params,
        dim=dim,
        weak_value=w,
        naive_prob=measurement.naive_postselection_probability(sel),
        true_prob=true_prob,
        state=final,
        tail_mass=observables.edge_tail_mass(final),
    )


def _series_label(series: str, value: float) -> str:
    return f"{series}={value:.17g}"


def _with(params: ParamSet, name: str, value: float) -> ParamSet:
    return replace(params, **{name: value})


def _scalar_value(point: PointResult, spec: SweepSpec) -> float:
    if spec.observable == "mandel_q":
        return observables.mandel_q(point.state)
    if spec.observable == "squeezing":
        return observables.squeezing(point.state, point.params.phi_quad)
    return point.true_prob  # postselection_prob


def _error_row(label: str, x: float, exc: SpacsimError) -> SweepRow:
    nan = float("nan")
    return SweepRow(label, x, nan, nan, nan, status=type(exc).__name__)


def _row_maker(spec: SweepSpec, base: ParamSet, label: str):
    """x -> SweepRow for one series; both steps may raise SpacsimError.

    A photon-number series evaluates its single point up front and reads
    every grid value from that distribution.
    """
    if spec.swept != "n":
        def scalar_row(x: float) -> SweepRow:
            point = evaluate_point(_with(base, spec.swept, x), tol=spec.tol, max_dim=spec.max_dim)
            return SweepRow(label, x, _scalar_value(point, spec), point.tail_mass, point.true_prob)
        return scalar_row
    point = evaluate_point(base, tol=spec.tol, max_dim=spec.max_dim)
    probs = observables.photon_distribution(point.state)

    def photon_row(x: float) -> SweepRow:
        fock.require_finite(n=x)
        n = int(round(x))
        value = float(probs[n]) if 0 <= n < point.dim else 0.0
        return SweepRow(label, float(n), value, point.tail_mass, point.true_prob)
    return photon_row


def _evaluate_series(spec: SweepSpec, series_value: float) -> list[SweepRow]:
    label = _series_label(spec.series, series_value)
    try:
        row_at = _row_maker(spec, _with(spec.fixed, spec.series, series_value), label)
    except SpacsimError as exc:
        return [_error_row(label, x, exc) for x in spec.grid]
    rows = []
    for x in spec.grid:
        try:
            rows.append(row_at(x))
        except SpacsimError as exc:
            rows.append(_error_row(label, x, exc))
    return rows


def run_sweep(spec: SweepSpec, threads: int | None = None) -> SweepResult:
    """Evaluate a sweep serially; per-point failures become status rows, not aborts.

    ``threads`` (and the SPACS_THREADS variable) are accepted and have no
    effect; rows come out in series-major order.
    """
    rows = tuple(row for value in spec.series_values for row in _evaluate_series(spec, value))
    return SweepResult(spec=spec, rows=rows)


FIGURE_IDS = (
    "fig1a", "fig1b", "fig2a", "fig2b",
    "fig3a", "fig3b", "fig3c", "fig3d",
    "fig4a", "fig4b",
)

_N_GRID = tuple(float(n) for n in range(26))
_R_GRID = tuple(np.linspace(0.0, 4.0, 81))
_S_GRID = tuple(np.linspace(0.0, 3.0, 61))
_S_SERIES = (0.0, 0.5, 1.0, 2.0)
_PHI_SERIES_WIDE = (PI / 9, PI / 3, PI / 2, 2 * PI / 3)
_PHI_SERIES_LARGE = (PI / 2, 2 * PI / 3, 5 * PI / 6, 8 * PI / 9)

_DEFAULT_NOTE = "series grid and x grid are package defaults, not caption values"


def figure_preset(fig_id: str) -> SweepSpec:
    """Sweep spec for one of the bundled figure presets fig1a..fig4b.

    Fixed parameters come from the figure captions; the series grids and
    the x grids of fig3b-fig3d and fig4 are package defaults, recorded in
    the spec metadata.
    """
    presets = {
        "fig1a": SweepSpec(
            swept="n", grid=_N_GRID, series="s", series_values=_S_SERIES,
            fixed=ParamSet(r=2.0, theta=PI / 9, delta=PI / 4, phi_pre=PI / 3),
            observable="p_of_n",
        ),
        "fig1b": SweepSpec(
            swept="n", grid=_N_GRID, series="phi_pre", series_values=_PHI_SERIES_LARGE,
            fixed=ParamSet(r=2.0, theta=PI / 9, delta=PI / 4, s=0.1),
            observable="p_of_n",
        ),
        "fig2a": SweepSpec(
            swept="r", grid=_R_GRID, series="s", series_values=_S_SERIES,
            fixed=ParamSet(theta=PI / 4, delta=0.0, phi_pre=PI / 9),
            observable="mandel_q",
        ),
        "fig2b": SweepSpec(
            swept="r", grid=_R_GRID, series="phi_pre", series_values=_PHI_SERIES_LARGE,
            fixed=ParamSet(theta=PI / 4, delta=0.0, s=0.1),
            observable="mandel_q",
        ),
        "fig3a": SweepSpec(
            swept="r", grid=_R_GRID, series="s", series_values=_S_SERIES,
            fixed=ParamSet(theta=PI / 2, delta=0.0, phi_pre=PI / 9, phi_quad=PI / 2),
            observable="squeezing",
        ),
        "fig3b": SweepSpec(
            swept="r", grid=_R_GRID, series="phi_pre", series_values=_PHI_SERIES_WIDE,
            fixed=ParamSet(theta=PI / 2, delta=0.0, s=1.0, phi_quad=PI / 2),
            observable="squeezing",
        ),
        "fig3c": SweepSpec(
            swept="s", grid=_S_GRID, series="phi_pre", series_values=_PHI_SERIES_WIDE,
            fixed=ParamSet(r=2.0, theta=PI / 2, delta=0.0, phi_quad=PI / 2),
            observable="squeezing",
        ),
        "fig3d": SweepSpec(
            swept="r", grid=_R_GRID, series="s", series_values=_S_SERIES,
            fixed=ParamSet(theta=0.0, delta=0.0, phi_pre=PI / 9, phi_quad=PI / 2),
            observable="squeezing",
        ),
        "fig4a": SweepSpec(
            swept="s", grid=_S_GRID, series="phi_pre", series_values=_PHI_SERIES_WIDE,
            fixed=ParamSet(r=4.0, theta=0.0, delta=0.0, phi_quad=PI / 2),
            observable="squeezing",
        ),
        "fig4b": SweepSpec(
            swept="s", grid=_S_GRID, series="phi_pre", series_values=_PHI_SERIES_WIDE,
            fixed=ParamSet(r=4.0, theta=PI / 2, delta=0.0, phi_quad=PI / 2),
            observable="squeezing",
        ),
    }
    try:
        preset = presets[fig_id]
    except KeyError:
        raise InvalidParameterError(
            f"unknown figure id {fig_id!r}; expected one of {', '.join(FIGURE_IDS)}"
        ) from None
    return replace(preset, metadata=(("preset", fig_id), ("note", _DEFAULT_NOTE)))


@dataclass(frozen=True)
class TrendAssertion:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class TrendReport:
    assertions: tuple[TrendAssertion, ...]

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


def _strictly(values, increasing: bool) -> bool:
    pairs = zip(values, values[1:])
    return all(b > a for a, b in pairs) if increasing else all(b < a for a, b in pairs)


def trend_checks(tol: float = 1e-9, max_dim: int = fock.DIM_CAP) -> TrendReport:
    """Five qualitative assertions about the measurement's effect.

    1. broadening of P(n) with coupling strength (fig1a parameters);
    2. suppression of the modal P(n) with weak value at s = 0.1 (fig1b);
    3. Mandel Q rising toward 0 with coupling strength at r = 2 (fig2a);
    4. Mandel Q dropping with weak value at r = 2, s = 0.1 (fig2b);
    5. squeezing appearing at theta != phi_quad for some s > 0 at r = 4
       even though the initial state is unsqueezed there (fig4a).

    Assertions 3-5 read their numbers from run_sweep on the preset spec
    (fig2a and fig2b narrowed to r = 2); 1 and 2 need full distributions
    and evaluate single points.  Each assertion reports its computed
    numbers verbatim whether it passes or fails.
    """
    report = []

    fig1a = figure_preset("fig1a")
    variances = []
    for s in fig1a.series_values:
        point = evaluate_point(_with(fig1a.fixed, "s", s), tol=tol, max_dim=max_dim)
        variances.append(observables.distribution_moments(
            observables.photon_distribution(point.state))[1])
    report.append(TrendAssertion(
        "distribution-broadens-with-s",
        _strictly(variances, increasing=True),
        f"P(n) variance over s={_fmt(fig1a.series_values)}: {_fmt(variances)}",
    ))

    fig1b = figure_preset("fig1b")
    initial = fock.spacs_state(fig1b.fixed.alpha, fock.adaptive_dim(
        fig1b.fixed.alpha, fig1b.fixed.s, tol=tol, cap=max_dim))
    modal_n = int(np.argmax(observables.photon_distribution(initial)))
    peaks, variances1b = [], []
    for phi_pre in fig1b.series_values:
        point = evaluate_point(_with(fig1b.fixed, "phi_pre", phi_pre), tol=tol, max_dim=max_dim)
        probs = observables.photon_distribution(point.state)
        peaks.append(float(probs[modal_n]))
        variances1b.append(observables.distribution_moments(probs)[1])
    report.append(TrendAssertion(
        "peak-probability-drops-with-weak-value",
        _strictly(peaks, increasing=False),
        f"P(n={modal_n}) over phi_pre={_fmt(fig1b.series_values)}: {_fmt(peaks)}; "
        f"variances {_fmt(variances1b)} (variance grows at these parameters)",
    ))

    fig2a = replace(figure_preset("fig2a"), grid=(2.0,), tol=tol, max_dim=max_dim)
    qs_vs_s = [row.value for row in run_sweep(fig2a).rows]
    report.append(TrendAssertion(
        "sub-poissonianity-attenuates-with-s",
        _strictly(qs_vs_s, increasing=True),
        f"Q at r=2 over s={_fmt(fig2a.series_values)}: {_fmt(qs_vs_s)}",
    ))

    fig2b = replace(figure_preset("fig2b"), grid=(2.0,), tol=tol, max_dim=max_dim)
    qs_vs_w = [row.value for row in run_sweep(fig2b).rows]
    report.append(TrendAssertion(
        "sub-poissonianity-grows-with-weak-value",
        _strictly(qs_vs_w, increasing=False),
        f"Q at r=2, s=0.1 over phi_pre={_fmt(fig2b.series_values)}: {_fmt(qs_vs_w)}",
    ))

    fig4a = replace(figure_preset("fig4a"), tol=tol, max_dim=max_dim)
    s_initial = observables.analytic_s_initial(fig4a.fixed.alpha, fig4a.fixed.phi_quad)
    best = (float("inf"), 0.0, 0.0)  # (S, phi_pre, s)
    points = itertools.product(fig4a.series_values, fig4a.grid)  # series-major, as the rows
    for (phi_pre, s), row in zip(points, run_sweep(fig4a).rows):
        if s != 0.0 and row.value < best[0]:
            best = (row.value, phi_pre, s)
    report.append(TrendAssertion(
        "squeezing-without-phase-matching",
        best[0] < 0.0 < s_initial,
        f"initial S={s_initial:.6g} > 0; minimum measured S={best[0]:.6g} "
        f"at phi_pre={best[1]:.6g}, s={best[2]:.6g}",
    ))

    return TrendReport(tuple(report))
