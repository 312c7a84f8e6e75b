"""Command-line front end.

Commands: ``state`` (single-point record), ``sweep`` (custom sweep),
``figure <id>`` (bundled presets fig1a..fig4b), ``check`` (self
verification).  Angles accept rational-pi strings such as ``pi/9`` or
``2pi/3`` so preset parameters can be reproduced bit-exactly.  Exit
codes: 0 success, 1 failed check, 2 usage, validation or file I/O
error, 3 numerical convergence failure.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import checks, experiments, fock, observables, serialize
from .errors import SpacsimError
from .experiments import ParamSet, SweepSpec, figure_preset, run_sweep

_PI_PATTERN = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$",
    re.IGNORECASE,
)

_DEFAULTS = {
    "r": "0", "theta": "0", "delta": "0", "phi_pre": "0", "s": "0", "phi_quad": "0",
    "tol": str(fock.TAIL_TOL), "max_dim": str(fock.DIM_CAP), "format": "csv",
}


#: most points a start:stop:step range may expand to
MAX_GRID_POINTS = 100_000


class NumericFailure(click.ClickException):
    exit_code = 3


class FileFailure(click.ClickException):
    """A config file that cannot be read or an output that cannot be written."""

    exit_code = 2


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


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
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
    return values


def _merge(flag_values: dict[str, str | None], config: dict[str, str]) -> dict[str, str]:
    """Explicit flags win over the config file, which wins over defaults."""
    merged = dict(_DEFAULTS)
    for key, value in config.items():
        if key not in merged and key != "out":
            raise click.UsageError(f"unknown config key {key!r}")
        merged[key] = value
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    if merged["format"] not in ("csv", "json"):
        raise click.UsageError(f"format must be csv or json, got {merged['format']!r}")
    return merged


def _build_params(merged: dict[str, str]) -> ParamSet:
    angles = {key: parse_angle(merged[key]) for key in ("theta", "delta", "phi_pre", "phi_quad")}
    try:
        params = ParamSet(r=_number(merged["r"]), s=_number(merged["s"]), **angles)
        params.selection  # the library enforces the phi_pre rules
    except SpacsimError as exc:
        _guard(exc)
    return params


def _truncation(merged: dict[str, str]) -> tuple[float, int]:
    try:
        tol = float(merged["tol"])
        max_dim = int(merged["max_dim"])
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if not 0.0 < tol <= 1e-4:
        raise click.UsageError(f"tol must be in (0, 1e-4], got {tol}")
    if not 2 <= max_dim <= fock.DIM_CAP:
        raise click.UsageError(
            f"max-dim must be at least 2 and at most {fock.DIM_CAP}, got {max_dim}"
        )
    return tol, max_dim


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(out).write_bytes(text.encode("utf-8"))
        except OSError as exc:
            raise FileFailure(f"cannot write {out}: {exc}")


def _guard(exc: SpacsimError):
    if isinstance(exc, ValueError):
        raise click.UsageError(str(exc))
    raise NumericFailure(str(exc))


def _param_options(fn):
    for decl, key in [
        ("--phi-quad", "phi_quad"), ("--s", "s"), ("--phi-pre", "phi_pre"),
        ("--delta", "delta"), ("--theta", "theta"), ("--r", "r"),
    ]:
        fn = click.option(decl, key, default=None, help=f"parameter {key}")(fn)
    return fn


def _common_options(fn):
    fn = click.option("--config", default=None, type=click.Path(exists=True),
                      help="flat key=value file merged under explicit flags")(fn)
    fn = click.option("--format", "fmt", default=None,
                      type=click.Choice(["csv", "json"]), help="output format")(fn)
    fn = click.option("--out", default=None, help="output path (default: stdout)")(fn)
    fn = click.option("--max-dim", "max_dim", default=None, help="truncation cap")(fn)
    fn = click.option("--tol", default=None, help="truncation tolerance")(fn)
    return fn


@click.group()
def main():
    """Postselected von Neumann measurement with a photon-added coherent pointer."""


@main.command()
@_param_options
@_common_options
def state(tol, max_dim, out, fmt, config, **flags):
    """Evaluate one parameter point and emit its record."""
    merged = _merge({**flags, "tol": tol, "max_dim": max_dim, "format": fmt}, _read_config(config))
    params = _build_params(merged)
    tol_v, max_dim_v = _truncation(merged)
    try:
        point = experiments.evaluate_point(params, tol=tol_v, max_dim=max_dim_v)
        probs = observables.photon_distribution(point.state)
        mean, _ = observables.distribution_moments(probs)
        record = {
            "weak_value_re": point.weak_value.real,
            "weak_value_im": point.weak_value.imag,
            "naive_postselection_prob": point.naive_prob,
            "true_postselection_prob": point.true_prob,
            "mean_photon": mean,
            "mandel_q": observables.mandel_q(point.state),
            "squeezing": observables.squeezing(point.state, params.phi_quad),
            "tail_mass": point.tail_mass,
            "dim": point.dim,
        }
    except SpacsimError as exc:
        _guard(exc)
    _emit(serialize.render(merged["format"], serialize.STATE_COLUMNS, [record]),
          merged.get("out") if out is None else out)


def _parse_grid(text: str, angle: bool) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"grid {text!r} must be start:stop:step or a comma list")
        start, stop, step = map(_number, parts)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise click.UsageError(f"bad grid bounds {text!r}")
        # a float first: a tiny step gives inf here, not an OverflowError in int()
        steps = (stop - start) / step
        if not steps + 1.0 <= MAX_GRID_POINTS:
            raise click.UsageError(
                f"grid {text!r} asks for {steps + 1.0:.3g} points; at most {MAX_GRID_POINTS}"
            )
        count = int(round(steps)) + 1
        return tuple(start + (stop - start) * i / (count - 1) for i in range(count)) \
            if count > 1 else (start,)
    parse = parse_angle if angle else _number
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
def sweep(swept, grid, series, series_values, observable, tol, max_dim, out, fmt, config, **flags):
    """Run a custom parameter sweep and emit its rows."""
    merged = _merge({**flags, "tol": tol, "max_dim": max_dim, "format": fmt}, _read_config(config))
    fixed = _build_params(merged)
    tol_v, max_dim_v = _truncation(merged)
    angle_like = {"phi_pre"}
    try:
        spec = SweepSpec(
            swept=swept,
            grid=_parse_grid(grid, angle=swept in angle_like),
            series=series,
            series_values=_parse_grid(series_values, angle=series in angle_like),
            fixed=fixed,
            observable=observable,
            tol=tol_v,
            max_dim=max_dim_v,
        )
        result = run_sweep(spec)
    except SpacsimError as exc:
        _guard(exc)
    _emit(serialize.render(merged["format"], serialize.SWEEP_COLUMNS, serialize.sweep_rows(result)),
          out if out is not None else merged.get("out"))


@main.command()
@click.argument("fig_id", type=click.Choice(list(experiments.FIGURE_IDS)))
@_common_options
def figure(fig_id, tol, max_dim, out, fmt, config):
    """Run a bundled figure preset and write its rows to a file."""
    merged = _merge({"tol": tol, "max_dim": max_dim, "format": fmt}, _read_config(config))
    tol_v, max_dim_v = _truncation(merged)
    fmt_v = merged["format"]
    try:
        spec = replace(figure_preset(fig_id), tol=tol_v, max_dim=max_dim_v)
        result = run_sweep(spec)
    except SpacsimError as exc:
        _guard(exc)
    target = out if out is not None else merged.get("out", f"{fig_id}.{fmt_v}")
    _emit(serialize.render(fmt_v, serialize.SWEEP_COLUMNS, serialize.sweep_rows(result)), target)
    notes = "; ".join(f"{key}: {value}" for key, value in spec.metadata)
    click.echo(f"{fig_id}: {len(result.rows)} rows -> {target}")
    click.echo(f"max tail mass {result.max_tail_mass:.3e}; {notes}")


@main.command()
@click.option("--quick", is_flag=True, help="skip the expm_multiply oracle grid")
def check(quick):
    """Run the self-verification suite; exit 0 only if everything passes."""
    outcomes = checks.run_all(quick=quick)
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
