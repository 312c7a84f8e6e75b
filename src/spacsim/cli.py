"""Command-line front end.

Commands: ``state`` (single-point record), ``sweep`` (custom sweep),
``figure <id>`` (bundled presets fig1a..fig4b), ``check`` (self
verification).  Angles accept rational-pi strings such as ``pi/9`` or
``2pi/3`` so preset parameters can be reproduced bit-exactly.  A
``--config`` file's ``key=value`` lines become option defaults, so click
converts them with each option's own type and explicit flags win.  Exit
codes: 0 success, 1 failed check, 2 usage, validation or file I/O
error, 3 numerical convergence failure; ``_Command`` maps library errors
to 2 or 3.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

import click

from . import checks, experiments, measurement, observables, serialize
from .errors import SpacsimError
from .experiments import ParamSet, SweepSpec, figure_preset, run_sweep

_PI_PATTERN = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$",
    re.IGNORECASE,
)

#: most rows a sweep may ask for (grid points times series values), and so
#: also most points a start:stop:step range may expand to
MAX_GRID_POINTS = 100_000

#: what ``figure`` reports about every preset's grids
_PRESET_NOTE = "series grid and x grid are package defaults, not caption values"

#: keys a ``--config`` file may set on a command with that option, ``-`` or ``_`` alike
_CONFIG_KEYS = ("r", "theta", "delta", "phi_pre", "s", "phi_quad", "format", "out")


class NumericFailure(click.ClickException):
    exit_code = 3


class FileFailure(click.ClickException):
    """A config file that cannot be read or an output that cannot be written."""

    exit_code = 2


class _Command(click.Command):
    """Maps library errors to exit codes: ValueError subclasses 2, the rest 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SpacsimError as exc:
            if isinstance(exc, ValueError):
                raise click.UsageError(str(exc), ctx)
            raise NumericFailure(str(exc))


class _Group(click.Group):
    command_class = _Command


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"cannot parse number {text!r}")


def parse_angle(text: str) -> float:
    """Angle in radians from a decimal or a rational multiple of pi."""
    text = text.strip()
    match = _PI_PATTERN.match(text)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coeff = float(match.group(2)) if match.group(2) else 1.0
        value = sign * coeff * math.pi
        if match.group(3):
            divisor = float(match.group(3))
            if divisor == 0.0:
                raise click.UsageError(f"angle {text!r} divides by zero")
            value /= divisor
        return value
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"cannot parse angle {text!r}; use a number or e.g. pi/9")


class _Angle(click.ParamType):
    name = "angle"

    def convert(self, value, param, ctx):
        try:
            return value if isinstance(value, float) else parse_angle(value)
        except click.UsageError as exc:
            self.fail(str(exc), param, ctx)


def _load_config(ctx, _param, path: str | None) -> None:
    """Make the file's values the option defaults, converted by each option's type."""
    if path is None:
        return
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFailure(f"cannot read config {path}: {exc}")
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise click.UsageError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    names = {"format" if p.name == "fmt" else p.name for p in ctx.command.params}
    for key in values:
        if key not in _CONFIG_KEYS or key not in names:
            raise click.UsageError(f"unknown config key {key!r} for {ctx.command.name}")
    ctx.default_map = {"fmt" if key == "format" else key: value for key, value in values.items()}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(out).write_bytes(text.encode("utf-8"))
        except OSError as exc:
            raise FileFailure(f"cannot write {out}: {exc}")


def _param_options(fn):
    for key in ("phi_quad", "s", "phi_pre", "delta", "theta", "r"):
        fn = click.option("--" + key.replace("_", "-"), key, default=0.0, help=f"parameter {key}",
                          type=float if key in ("r", "s") else _Angle())(fn)
    return fn


def _common_options(fn):
    fn = click.option("--config", type=click.Path(exists=True), is_eager=True,
                      expose_value=False, callback=_load_config,
                      help="flat key=value file merged under explicit flags")(fn)
    fn = click.option("--format", "fmt", default="csv",
                      type=click.Choice(["csv", "json"]), help="output format")(fn)
    fn = click.option("--out", default=None, help="output path (default: stdout)")(fn)
    return fn


@click.group(cls=_Group)
def main():
    """Postselected von Neumann measurement with a photon-added coherent pointer."""


@main.command()
@_param_options
@_common_options
def state(out, fmt, **flags):
    """Evaluate one parameter point and emit its record."""
    params = ParamSet(**flags)
    point = experiments.evaluate_point(params)
    probs = observables.photon_distribution(point.state)
    mean, _ = observables.distribution_moments(probs)
    w = measurement.weak_value(params.selection)
    record = {
        "weak_value_re": w.real,
        "weak_value_im": w.imag,
        "naive_postselection_prob": measurement.naive_postselection_probability(params.selection),
        "true_postselection_prob": point.true_prob,
        "mean_photon": mean,
        "mandel_q": observables.mandel_q(point.state),
        "squeezing": observables.squeezing(point.state, params.phi_quad),
        "tail_mass": point.tail_mass,
        "dim": point.state.dim,
    }
    _emit(serialize.render(fmt, serialize.STATE_COLUMNS, [record]), out)


def _parse_grid(text: str, angle: bool) -> tuple[float, ...]:
    text = text.strip()
    parse = parse_angle if angle else _number
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"grid {text!r} must be start:stop:step or a comma list")
        start, stop, step = map(parse, parts)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise click.UsageError(f"bad grid bounds {text!r}")
        # a float first: a tiny step gives inf here, not an OverflowError in int()
        steps = (stop - start) / step
        if not steps + 1.0 <= MAX_GRID_POINTS:
            raise click.UsageError(
                f"grid {text!r} asks for {steps + 1.0:.3g} points; at most {MAX_GRID_POINTS}"
            )
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise click.UsageError(f"grid {text!r}: step does not divide stop - start")
        count = int(round(steps)) + 1
        return tuple(start + (stop - start) * i / (count - 1) for i in range(count)) \
            if count > 1 else (start,)
    return tuple(parse(part) for part in text.split(","))


@main.command()
@click.option("--var", "swept", required=True,
              type=click.Choice(list(experiments.SWEPT_VARIABLES)), help="swept variable")
@click.option("--grid", required=True, help="start:stop:step or comma-separated values")
@click.option("--series", required=True,
              type=click.Choice(list(experiments.SERIES_VARIABLES)), help="curve family variable")
@click.option("--series-values", required=True, help="comma-separated series values")
@click.option("--observable", required=True,
              type=click.Choice(list(experiments.OBSERVABLES)))
@_param_options
@_common_options
def sweep(swept, grid, series, series_values, observable, out, fmt, **flags):
    """Run a custom parameter sweep and emit its rows."""
    fixed = ParamSet(**flags)
    grid_v = _parse_grid(grid, angle=swept == "phi_pre")
    series_v = _parse_grid(series_values, angle=series == "phi_pre")
    if len(grid_v) * len(series_v) > MAX_GRID_POINTS:
        raise click.UsageError(
            f"sweep asks for {len(grid_v) * len(series_v)} rows; at most {MAX_GRID_POINTS}"
        )
    rows = run_sweep(SweepSpec(swept=swept, grid=grid_v, series=series, series_values=series_v,
                               fixed=fixed, observable=observable))
    _emit(serialize.render(fmt, serialize.SWEEP_COLUMNS, serialize.sweep_rows(rows)), out)


@main.command()
@click.argument("fig_id", type=click.Choice(list(experiments.FIGURE_IDS)))
@_common_options
def figure(fig_id, out, fmt):
    """Run a bundled figure preset and write its rows to a file."""
    rows = run_sweep(figure_preset(fig_id))
    target = out if out is not None else f"{fig_id}.{fmt}"
    _emit(serialize.render(fmt, serialize.SWEEP_COLUMNS, serialize.sweep_rows(rows)), target)
    max_tail = max((row.tail_mass for row in rows if row.status == "ok"), default=math.nan)
    click.echo(f"{fig_id}: {len(rows)} rows -> {target}")
    click.echo(f"max tail mass {max_tail:.3e}; preset: {fig_id}; note: {_PRESET_NOTE}")


@main.command()
def check():
    """Run the self-verification suite; exit 0 only if everything passes."""
    outcomes = checks.run_all()
    failed = [o for o in outcomes if not o.passed]
    for outcome in outcomes:
        tag = "PASS" if outcome.passed else "FAIL"
        click.echo(f"{tag} {outcome.name}: {outcome.detail}")
    if failed:
        click.echo(f"{len(failed)} of {len(outcomes)} checks failed: "
                   + ", ".join(o.name for o in failed), err=True)
        sys.exit(1)
    click.echo(f"all {len(outcomes)} checks passed")


if __name__ == "__main__":
    main()
