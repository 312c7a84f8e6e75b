"""Declarative parameter sweeps and figure presets.

A sweep varies one of {r, s, phi_pre, n} over a grid while a second
variable indexes the curve family, everything else held fixed.  Points
that share a pointer are built together by measurement.postselected_pointer,
the one builder of conditioned states, and each is then evaluated alone;
run_sweep returns its rows in series-major order, and a point that fails
becomes a status row instead of aborting the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fock, measurement, observables
from .errors import InvalidParameterError, SpacsimError
from .fock import CoherentParams, StateVector
from .measurement import SelectionConfig

SWEPT_VARIABLES = ("r", "s", "phi_pre", "n")
SERIES_VARIABLES = ("r", "s", "phi_pre")
OBSERVABLES = ("p_of_n", "mandel_q", "squeezing", "postselection_prob")

PI = math.pi


@dataclass(frozen=True)
class ParamSet:
    """One checked parameter point: finiteness, then its selection, s and alpha, in that order."""

    r: float = 0.0
    theta: float = 0.0
    delta: float = 0.0
    phi_pre: float = 0.0
    s: float = 0.0
    phi_quad: float = 0.0
    selection: SelectionConfig = field(init=False, repr=False, compare=False)
    alpha: CoherentParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fock.require_finite(**vars(self))
        object.__setattr__(self, "selection", SelectionConfig(self.phi_pre, self.delta))
        fock.check_coupling(self.s)
        object.__setattr__(self, "alpha", CoherentParams(self.r, self.theta))


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep: swept variable, grid, curve family, fixed record."""

    swept: str
    grid: tuple[float, ...]
    series: str
    series_values: tuple[float, ...]
    fixed: ParamSet
    observable: str

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
class PointResult:
    """What a single parameter point produces beyond its parameters."""

    true_prob: float
    state: StateVector
    tail_mass: float


def evaluate_point(point: ParamSet | tuple[StateVector, float]) -> PointResult:
    """Evaluate a ParamSet, built as a batch of one, or the (state, probability) a batch built."""
    if isinstance(point, ParamSet):
        [point] = measurement.postselected_pointer(
            [(point.alpha, fock.adaptive_dim(point.alpha, point.s), point.s, (point.selection,))])
    if isinstance(point, SpacsimError):
        raise point
    return PointResult(point[1], point[0], observables.edge_tail_mass(point[0]))


def _value(spec: SweepSpec, point: PointResult, probs, x: float) -> tuple[float, float]:
    """(x as reported, observable) at one grid value; may raise SpacsimError."""
    if spec.observable == "mandel_q":
        return x, observables.mandel_q(point.state)
    if spec.observable == "squeezing":
        return x, observables.squeezing(point.state, spec.fixed.phi_quad)
    if spec.observable == "postselection_prob":
        return x, point.true_prob
    fock.require_finite(n=x)
    n = int(round(x))
    if n < 0:
        raise InvalidParameterError(f"photon number must be >= 0, got {x!r}")
    return float(n), float(probs[n]) if n < point.state.dim else 0.0


def _error_row(label: str, x: float, exc: SpacsimError) -> SweepRow:
    nan = float("nan")
    return SweepRow(label, x, nan, nan, nan, status=type(exc).__name__)


def _point_rows(spec: SweepSpec, point, label: str, xs: tuple[float, ...]) -> list[SweepRow]:
    """The rows one evaluated point (or its error) serves in series ``label``."""
    if isinstance(point, SpacsimError):
        return [_error_row(label, x, point) for x in xs]
    probs = observables.photon_distribution(point.state) if spec.swept == "n" else None
    rows = []
    for x in xs:
        try:
            rows.append(SweepRow(label, *_value(spec, point, probs, x), point.tail_mass,
                                 point.true_prob))
        except SpacsimError as exc:
            rows.append(_error_row(label, x, exc))
    return rows


def _checked(fixed: ParamSet, name: str, value: float) -> ParamSet | SpacsimError:
    """``replace(fixed, name=value)``, or the SpacsimError it raises."""
    try:
        return replace(fixed, **{name: value})
    except SpacsimError as exc:
        return exc


def run_sweep(spec: SweepSpec) -> tuple[SweepRow, ...]:
    """A sweep's rows in series-major order; failures become status rows, not aborts.

    Each grid and series value is checked once, against spec.fixed.  No check reads two swept
    fields, so a cell takes alpha, s and selection from its two values, or, if one failed, is
    checked whole and names ParamSet's first error.  Points that share (r, theta, s) share a
    pointer, built by rising dim; a photon-number series is one point for its whole grid.
    """
    grid = [(spec.grid, {}, spec.fixed)] if spec.swept == "n" else [
        ((x,), {spec.swept: x}, _checked(spec.fixed, spec.swept, x)) for x in spec.grid]
    rows, pointers = [], {}  # pointers: (alpha, dim, s) -> [(row index, label, xs, selection)]
    for value in spec.series_values:
        label, curve = f"{spec.series}={value:.17g}", _checked(spec.fixed, spec.series, value)
        for xs, swept, at in grid:
            try:
                if not (isinstance(curve, ParamSet) and isinstance(at, ParamSet)):
                    replace(spec.fixed, **{spec.series: value}, **swept)  # raises the first error
                alpha = (at if spec.swept == "r" else curve).alpha
                s = (at if spec.swept == "s" else curve).s
                pointers.setdefault((alpha, fock.adaptive_dim(alpha, s), s), []).append(
                    (len(rows), label, xs, (at if spec.swept == "phi_pre" else curve).selection))
                rows.append(None)
            except SpacsimError as exc:
                rows.append(_point_rows(spec, exc, label, xs))
    order = sorted(pointers, key=lambda key: key[1])
    outcomes = measurement.postselected_pointer(
        [(*key, tuple(selection for *_, selection in pointers[key])) for key in order])
    for key in order:
        for i, label, xs, _ in pointers.pop(key):  # releases each pointer's cells
            out = next(outcomes)
            point = out if isinstance(out, SpacsimError) else evaluate_point(out)
            rows[i] = _point_rows(spec, point, label, xs)
    return tuple(row for cell in rows for row in cell)


_N_GRID = tuple(float(n) for n in range(26))
_R_GRID = tuple(np.linspace(0.0, 4.0, 81))
_S_GRID = tuple(np.linspace(0.0, 3.0, 61))
_S_SERIES = (0.0, 0.5, 1.0, 2.0)
_PHI_SERIES_WIDE = (PI / 9, PI / 3, PI / 2, 2 * PI / 3)
_PHI_SERIES_LARGE = (PI / 2, 2 * PI / 3, 5 * PI / 6, 8 * PI / 9)

#: the bundled figure presets, built once at import
_PRESETS = {
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

FIGURE_IDS = tuple(_PRESETS)


def figure_preset(fig_id: str) -> SweepSpec:
    """Sweep spec for one of the bundled figure presets fig1a..fig4b.

    Fixed parameters come from the figure captions; the series grids and
    the x grids of fig3b-fig3d and fig4 are package defaults.  The spec
    returned is the bundled one itself; it is frozen.
    """
    try:
        return _PRESETS[fig_id]
    except KeyError:
        raise InvalidParameterError(
            f"unknown figure id {fig_id!r}; expected one of {', '.join(FIGURE_IDS)}"
        ) from None
