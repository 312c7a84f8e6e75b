"""Declarative parameter sweeps and figure presets.

A sweep varies one of {r, s, phi_pre, n} over a grid while a second
variable indexes the curve family, everything else held fixed.  Points
are evaluated serially in series-major order; a point that fails
becomes a status row instead of aborting the sweep.
"""

from __future__ import annotations

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
    tol: float = fock.TAIL_TOL
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
    params: ParamSet, tol: float = fock.TAIL_TOL, max_dim: int = fock.DIM_CAP
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
        if n < 0:
            raise InvalidParameterError(f"photon number must be >= 0, got {x!r}")
        value = float(probs[n]) if n < point.dim else 0.0
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
