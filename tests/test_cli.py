import csv
import io
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from spacsim import checks, cli, errors, experiments, fock, measurement
from spacsim.cli import main, parse_angle

PI = math.pi


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


# ---------------------------------------------------------------- angle parsing

@pytest.mark.parametrize(
    "text,expected",
    [
        ("0.5", 0.5),
        ("-1.25e-3", -1.25e-3),
        ("pi", PI),
        ("-pi", -PI),
        ("pi/9", PI / 9),
        ("2pi/3", 2 * PI / 3),
        ("5pi/6", 5 * PI / 6),
        ("3*pi/4", 3 * PI / 4),
        ("0.5pi", 0.5 * PI),
        ("2pi", 2 * PI),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == expected


def test_parse_angle_rejects_garbage():
    import click

    with pytest.raises(click.UsageError):
        parse_angle("three pies")


# ---------------------------------------------------------------- state

def test_state_record_fields_and_frozen_values(runner):
    result = invoke(runner, [
        "state", "--r", "2", "--theta", "pi/9", "--delta", "pi/4",
        "--phi-pre", "pi/3", "--s", "0.1", "--phi-quad", "pi/2",
    ])
    assert result.exit_code == 0
    header, row = result.output.strip().split("\n")
    assert header == ("weak_value_re,weak_value_im,naive_postselection_prob,"
                      "true_postselection_prob,mean_photon,mandel_q,squeezing,"
                      "tail_mass,dim")
    record = dict(zip(header.split(","), row.split(",")))
    # frozen from the first dense-oracle run
    assert float(record["weak_value_re"]) == pytest.approx(0.40824829046386296, abs=1e-12)
    assert float(record["weak_value_im"]) == pytest.approx(0.40824829046386296, abs=1e-12)
    assert float(record["naive_postselection_prob"]) == pytest.approx(0.75, abs=1e-12)
    assert float(record["true_postselection_prob"]) == pytest.approx(0.7947326528021802, abs=1e-9)
    assert float(record["mean_photon"]) == pytest.approx(5.9076801424147067, abs=1e-9)
    assert float(record["mandel_q"]) == pytest.approx(-0.27774067271684966, abs=1e-9)
    assert float(record["squeezing"]) == pytest.approx(0.15384096842480877, abs=1e-9)
    assert float(record["tail_mass"]) < 1e-12
    assert int(record["dim"]) >= 45


def test_state_measurement_off_gives_initial_q(runner):
    result = invoke(runner, ["state", "--s", "0", "--phi-pre", "0", "--r", "1", "--format", "json"])
    assert result.exit_code == 0
    record = json.loads(result.output)[0]
    assert record["mandel_q"] == pytest.approx(-0.5, abs=1e-9)
    assert record["naive_postselection_prob"] == 1.0


def test_state_rejects_orthogonal_selection(runner):
    result = runner.invoke(main, ["state", "--phi-pre", "pi"])
    assert result.exit_code == 2
    assert "undefined" in result.output.lower()


def test_state_caps_phi_pre(runner):
    result = runner.invoke(main, ["state", "--phi-pre", "0.9999pi"])
    assert result.exit_code == 2
    assert "0.999" in result.output


def test_state_convergence_failure_exit_code(runner):
    result = runner.invoke(main, ["state", "--r", "60"])
    assert result.exit_code == 3


@pytest.mark.parametrize("flag", ["--r", "--theta", "--delta", "--phi-pre", "--s", "--phi-quad"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_state_rejects_non_finite(runner, flag, value):
    result = runner.invoke(main, ["state", flag, value])
    assert result.exit_code == 2
    assert "must be finite" in result.output


def test_state_huge_r_is_convergence_failure(runner):
    result = runner.invoke(main, ["state", "--r", "1e200"])
    assert result.exit_code == 3


def test_sweep_caps_phi_pre_series_values(runner):
    result = invoke(runner, [
        "sweep", "--var", "r", "--grid", "1,2", "--series", "phi_pre",
        "--series-values", "0.9999pi", "--observable", "mandel_q", "--s", "0.1",
    ])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [row["status"] for row in rows] == ["InvalidParameterError"] * 2


def test_sweep_negative_photon_numbers_are_error_rows(runner):
    result = invoke(runner, [
        "sweep", "--var", "n", "--grid=-3:-1:1", "--series", "s",
        "--series-values", "0", "--observable", "p_of_n", "--r", "1",
    ])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [row["status"] for row in rows] == ["InvalidParameterError"] * 3


@pytest.mark.parametrize("grid", ["nan:2:0.5", "0:inf:1", "0:2:nan"])
def test_sweep_rejects_non_finite_grid_bounds(runner, grid):
    result = runner.invoke(main, [
        "sweep", "--var", "r", "--grid", grid, "--series", "s",
        "--series-values", "0.5", "--observable", "mandel_q",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("grid", ["0:1:1e-320", "0:1:1e-9", "0:10:1e-4"])
def test_sweep_rejects_oversized_range_grid(runner, grid):
    # rejected from the float point count, before any grid is allocated
    for grid_arg, series_arg in ((grid, "0.5"), ("1,2", grid)):
        result = runner.invoke(main, [
            "sweep", "--var", "r", "--grid", grid_arg, "--series", "s",
            "--series-values", series_arg, "--observable", "mandel_q",
        ])
        assert result.exit_code == 2
        assert "at most 100000" in result.output


@pytest.mark.parametrize("swept", ["r", "n"], ids=["var-r", "var-n"])
@pytest.mark.parametrize("flag,value,message", [
    ("--r", "-1", "coherent modulus must be >= 0"),
    ("--s", "-1", "coupling strength must be >= 0"),
    ("--delta", "nan", "delta must be finite"),
], ids=["negative-r", "negative-s", "nan-delta"])
def test_sweep_rejects_bad_fixed_parameter_before_any_computation(
    runner, monkeypatch, flag, value, message, swept
):
    # checked even where the sweep overrides it, as --phi-pre is
    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the fixed parameters were checked")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    observable = "p_of_n" if swept == "n" else "mandel_q"
    result = runner.invoke(main, [
        "sweep", "--var", swept, "--grid", "0,1,2", "--series", "s",
        "--series-values", "0,1", "--observable", observable, flag, value,
    ])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


@pytest.mark.parametrize("args,message", [
    (["--r", "-1"], "coherent modulus must be >= 0"),
    (["--s", "-1"], "coupling strength must be >= 0"),
], ids=["negative-r", "negative-s"])
def test_state_rejects_bad_parameter_before_any_computation(runner, monkeypatch, args, message):
    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the parameters were checked")

    monkeypatch.setattr(experiments, "evaluate_point", refuse)
    result = runner.invoke(main, ["state"] + args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


# --max-dim is gone (fock.DIM_CAP is the only cap): every value is a usage error
def test_state_rejects_excessive_max_dim(runner):
    result = runner.invoke(main, ["state", "--r", "1", "--max-dim", "8192"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("max_dim", ["1", "0", "-5"])
def test_state_rejects_max_dim_below_two(runner, max_dim):
    result = runner.invoke(main, ["state", "--r", "1", "--max-dim", max_dim])
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_state_rejects_angle_divided_by_zero(runner):
    result = runner.invoke(main, ["state", "--theta", "pi/0"])
    assert result.exit_code == 2
    assert "divides by zero" in result.output


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unparseable_angle_names_its_option(runner, tmp_path, source):
    config = tmp_path / "theta.conf"
    config.write_text("theta=x\n")
    extra = ["--theta", "x"] if source == "flag" else ["--config", str(config)]
    result = runner.invoke(main, ["state"] + extra)
    assert result.exit_code == 2
    assert "Invalid value for '--theta'" in result.output
    assert "cannot parse angle 'x'" in result.output


@pytest.mark.parametrize("grid,series_values", [
    ("1,,2", "0.5"),
    ("1,x", "0.5"),
    ("1:2:x", "0.5"),
    ("1,2", ""),
    ("1,2", "0:1:"),
])
def test_sweep_rejects_unparseable_grid_entry(runner, grid, series_values):
    result = runner.invoke(main, [
        "sweep", "--var", "r", "--grid", grid, "--series", "s",
        "--series-values", series_values, "--observable", "mandel_q",
    ])
    assert result.exit_code == 2
    assert "cannot parse number" in result.output


def assert_one_line_file_error(result):
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")


# ---------------------------------------------------------------- config file

def test_config_file_merged_under_flags(runner, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("r=2\ntheta=pi/9\ndelta=pi/4\nphi_pre=pi/3\ns=0.1\nphi_quad=pi/2\n")
    from_config = invoke(runner, ["state", "--config", str(config)])
    from_flags = invoke(runner, [
        "state", "--r", "2", "--theta", "pi/9", "--delta", "pi/4",
        "--phi-pre", "pi/3", "--s", "0.1", "--phi-quad", "pi/2",
    ])
    assert from_config.output == from_flags.output
    # explicit flag wins over the config value
    overridden = invoke(runner, ["state", "--config", str(config), "--s", "0"])
    record = dict(zip(*(line.split(",") for line in overridden.output.strip().split("\n"))))
    assert float(record["true_postselection_prob"]) == pytest.approx(0.75, abs=1e-12)


def test_config_rejects_unknown_key(runner, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("wavelength=780\n")
    result = runner.invoke(main, ["state", "--config", str(config)])
    assert result.exit_code == 2


def test_config_rejects_directory(runner, tmp_path):
    assert_one_line_file_error(runner.invoke(main, ["state", "--config", str(tmp_path)]))


def test_config_rejects_non_utf8_file(runner, tmp_path):
    config = tmp_path / "latin1.conf"
    config.write_bytes(b"r=2\ntheta=\xe9\n")
    assert_one_line_file_error(runner.invoke(main, ["state", "--config", str(config)]))


@pytest.mark.parametrize("args", [
    ["state", "--r", "1"],
    ["sweep", "--var", "r", "--grid", "1,2", "--series", "s",
     "--series-values", "0.5", "--observable", "mandel_q"],
    ["figure", "fig1a"],
])
def test_unwritable_out_is_a_file_error(runner, tmp_path, args):
    target = str(tmp_path / "missing" / "out.csv")
    assert_one_line_file_error(runner.invoke(main, args + ["--out", target]))
    config = tmp_path / "run.conf"
    config.write_text(f"out={target}\n")
    assert_one_line_file_error(runner.invoke(main, args + ["--config", str(config)]))


@pytest.mark.parametrize("args, computation", [
    (["state", "--r", "1"], (experiments, "evaluate_point")),
    (["sweep", "--var", "r", "--grid", "1,2", "--series", "s",
      "--series-values", "0.5", "--observable", "mandel_q"], (cli, "run_sweep")),
    (["figure", "fig1a"], (cli, "run_sweep")),
], ids=["state", "sweep", "figure"])
def test_config_format_is_a_usage_error_before_any_computation(
    runner, tmp_path, monkeypatch, args, computation
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the format was checked")

    monkeypatch.setattr(*computation, refuse)
    config = tmp_path / "run.conf"
    config.write_text("format=xml\n")
    result = runner.invoke(main, args + ["--config", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    message = result.output.strip().splitlines()[-1]
    assert "format" in message and "csv" in message and "json" in message and "xml" in message
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- figure

def test_figure_writes_deterministic_csv(runner, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    spec_args = ["figure", "fig3c"]
    res1 = invoke(runner, spec_args + ["--out", str(out1)])
    res2 = invoke(runner, spec_args + ["--out", str(out2)])
    assert res1.exit_code == 0 and res2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "rows" in res1.output and "tail mass" in res1.output
    text = out1.read_text()
    assert text.startswith("series,x,value,tail_mass,true_postselection_prob,status\n")
    assert "\r" not in text


def test_figure_parallel_matches_serial(runner, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    invoke(runner, ["figure", "fig1a", "--out", str(serial)])
    invoke(runner, ["figure", "fig1a", "--out", str(parallel)],
           env={"SPACS_THREADS": "4"})
    assert serial.read_bytes() == parallel.read_bytes()


def test_figure_json_distributions_sum_to_one(runner, tmp_path):
    out = tmp_path / "fig1b.json"
    result = invoke(runner, ["figure", "fig1b", "--format", "json", "--out", str(out)])
    assert result.exit_code == 0
    rows = json.loads(out.read_text())
    assert set(rows[0]) == {"series", "x", "value", "tail_mass",
                            "true_postselection_prob", "status"}
    sums = {}
    for row in rows:
        sums[row["series"]] = sums.get(row["series"], 0.0) + row["value"]
    assert len(sums) == 4
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_figure_default_output_name(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = invoke(runner, ["figure", "fig1a", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(open("fig1a.json").read())
        assert rows


def test_figure_fig4a_reaches_negative_squeezing(runner, tmp_path):
    out = tmp_path / "fig4a.csv"
    invoke(runner, ["figure", "fig4a", "--out", str(out)])
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    negatives = [row for row in rows
                 if row["status"] == "ok" and float(row["x"]) > 0 and float(row["value"]) < 0]
    assert negatives


def test_figure_rejects_unknown_id(runner):
    result = runner.invoke(main, ["figure", "fig7x"])
    assert result.exit_code == 2


def test_csv_floats_full_precision(runner, tmp_path):
    out = tmp_path / "fig3c.csv"
    invoke(runner, ["figure", "fig3c", "--out", str(out)])
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    # 17 significant digits survive a float round-trip bit-exactly
    for row in rows[:8]:
        assert float(row["value"]) == float(format(float(row["value"]), ".17g"))


# ---------------------------------------------------------------- sweep

def test_sweep_to_stdout(runner):
    result = invoke(runner, [
        "sweep", "--var", "r", "--grid", "0,1,2", "--series", "s",
        "--series-values", "0,0.5", "--observable", "mandel_q",
        "--phi-pre", "pi/9", "--theta", "pi/4",
    ])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 6
    zero_coupling_r1 = [r for r in rows if r["series"] == "s=0" and float(r["x"]) == 1.0]
    assert float(zero_coupling_r1[0]["value"]) == pytest.approx(-0.5, abs=1e-8)


def test_sweep_colon_grid(runner):
    result = invoke(runner, [
        "sweep", "--var", "s", "--grid", "0:1:0.5", "--series", "phi_pre",
        "--series-values", "pi/9,pi/2", "--observable", "postselection_prob",
        "--r", "1",
    ])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [float(r["x"]) for r in rows] == [0.0, 0.5, 1.0, 0.0, 0.5, 1.0]


@pytest.mark.parametrize("axis", ["grid", "series"])
def test_phi_pre_range_accepts_pi_strings(runner, axis):
    def run(values):
        if axis == "grid":
            spec = ["--var", "phi_pre", "--grid", values, "--series", "s", "--series-values", "0.5"]
        else:
            spec = ["--var", "s", "--grid", "0.5", "--series", "phi_pre", "--series-values", values]
        return invoke(runner, ["sweep", *spec, "--observable", "mandel_q", "--r", "1"])

    ranged = run("0:pi/2:pi/4")
    assert ranged.exit_code == 0
    assert len(list(csv.DictReader(io.StringIO(ranged.output)))) == 3
    assert ranged.output == run("0,pi/4,pi/2").output


@pytest.mark.parametrize("grid", ["0:1:0.4", "0:1:0.3"])
def test_sweep_rejects_range_step_that_does_not_divide_span(runner, monkeypatch, grid):
    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the grid was checked")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    result = runner.invoke(main, [
        "sweep", "--var", "r", "--grid", grid, "--series", "s",
        "--series-values", "0", "--observable", "mandel_q",
    ])
    assert result.exit_code == 2
    assert repr(grid) in result.output


@pytest.mark.parametrize("grid,count", [("0:3:0.05", 61), ("0:1:0.5", 3), ("0:1:2e-5", 50001)])
def test_range_grid_keeps_steps_that_divide_span(grid, count):
    # (3 - 0) / 0.05 is 59.999..., within rounding of 60
    values = cli._parse_grid(grid, angle=False)
    assert len(values) == count
    assert values[0] == 0.0 and values[-1] == float(grid.split(":")[1])


def test_sweep_rejects_same_swept_and_series(runner):
    result = runner.invoke(main, [
        "sweep", "--var", "r", "--grid", "0,1", "--series", "r",
        "--series-values", "1", "--observable", "mandel_q",
    ])
    assert result.exit_code == 2


# ---------------------------------------------------------------- check

# --quick is gone: check always runs the whole suite, the oracle grid included
def test_check_quick_is_a_usage_error(runner, monkeypatch):
    def refuse():
        raise AssertionError("checked before the arguments were parsed")

    monkeypatch.setattr(checks, "run_all", refuse)
    result = runner.invoke(main, ["check", "--quick"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "No such option" in result.output


# the id "full" names the whole suite, the oracle grid included
@pytest.mark.parametrize("args", [["check"]], ids=["full"])
def test_check_reports_a_raising_check_as_a_fail_line(runner, monkeypatch, args):
    # eq4 chooses no dimension; every other check raises at its first choice
    def refuse(*_args):
        raise errors.ConvergenceError("stub cap")

    monkeypatch.setattr(fock, "adaptive_dim", refuse)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    # each under the name its passing line uses
    failed = ["mandel-q-closed-form", "squeezing-closed-form", "trend-assertions",
              "oracle-equivalence-grid"]
    assert [line for line in result.stdout.splitlines() if line.startswith("FAIL")] == [
        f"FAIL {name}: raised ConvergenceError: stub cap" for name in failed]
    assert "PASS two-branch-unitary-identity" in result.stdout


def test_check_reports_a_cancelled_selection_as_fail_lines(runner, monkeypatch):
    # no physical selection cancels its branches, so every superposition stands in
    # as cancelled: each check that reads a conditioned state fails, none crashes
    def cancel(_plus, _minus, _dims, ss, slots):
        return [errors.DegeneratePostselectionError(f"stub cancel at s={ss[p]}") for p, _ in slots]

    monkeypatch.setattr(measurement, "branch_superposition", cancel)
    result = runner.invoke(main, ["check"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    failed = [line for line in result.stdout.splitlines() if line.startswith("FAIL")]
    assert [line.split(": raised DegeneratePostselectionError: stub cancel")[0]
            for line in failed] == ["FAIL trend-assertions", "FAIL oracle-equivalence-grid"]
    assert "Traceback" not in result.output


def test_sweep_rejects_too_many_rows_before_any_computation(runner, monkeypatch):
    # 50 001 grid points pass the per-range cap; times three series they do not
    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the row count was checked")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    result = runner.invoke(main, [
        "sweep", "--var", "r", "--grid", "0:1:2e-5", "--series", "s",
        "--series-values", "0,0.5,1", "--observable", "mandel_q",
    ])
    assert result.exit_code == 2
    assert "at most 100000" in result.output


# ---------------------------------------------------------------- config keys

CONFIG_KEYS = {"r", "theta", "delta", "phi_pre", "s", "phi_quad", "format", "out"}
#: a key is accepted only on a command that has that option
COMMAND_KEYS = {"state": CONFIG_KEYS, "sweep": CONFIG_KEYS, "figure": {"format", "out"}}

COMMANDS = {
    "state": ["state", "--r", "2", "--theta", "pi/9", "--phi-pre", "pi/3", "--s", "0.1"],
    "sweep": ["sweep", "--var", "s", "--grid", "0,0.5", "--series", "phi_pre",
              "--series-values", "pi/9,0.9999pi", "--observable", "mandel_q", "--r", "2"],
    "figure": ["figure", "fig1a"],
}


def run_isolated(runner, tmp_path, args, config=None):
    """Exit code, output and every file written, from a fresh directory."""
    if config is not None:
        (tmp_path / "run.conf").write_text(config)
        args = args + ["--config", str(tmp_path / "run.conf")]
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        result = runner.invoke(main, args)
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir())}
    return result.exit_code, result.output, files


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("key,value,other", [
    ("format", "json", "csv"),
    ("out", "from_config.txt", "from_flag.txt"),
])
def test_config_value_matches_flag_and_flag_wins(runner, tmp_path, command, key, value, other):
    args = COMMANDS[command]
    flag = "--" + key.replace("_", "-")
    from_config = run_isolated(runner, tmp_path, args, f"{key}={value}\n")
    from_flag = run_isolated(runner, tmp_path, args + [flag, value])
    assert from_config == from_flag
    assert from_flag != run_isolated(runner, tmp_path, args)
    overridden = run_isolated(runner, tmp_path, args + [flag, other], f"{key}={value}\n")
    assert overridden == run_isolated(runner, tmp_path, args + [flag, other])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_accepts_exactly_the_option_keys(runner, tmp_path, monkeypatch, command):
    def refuse(*_args, **_kwargs):
        raise RuntimeError("stub")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    monkeypatch.setattr(experiments, "evaluate_point", refuse)
    candidates = CONFIG_KEYS | {"fmt", "config", "threads", "wavelength"}
    for cmd in (cli.state, cli.sweep, cli.figure):
        for param in cmd.params:
            candidates |= {param.name} | {opt.lstrip("-") for opt in param.opts}
    assert {"var", "grid", "config", "fmt"} <= candidates
    for key in sorted(candidates):
        exit_code, output, _ = run_isolated(runner, tmp_path, COMMANDS[command], f"{key}=1\n")
        normalized = key.replace("-", "_")
        if normalized in COMMAND_KEYS[command]:
            assert "unknown config key" not in output, key
        else:
            assert exit_code == 2 and f"unknown config key {normalized!r}" in output, key


def test_figure_config_rejects_a_parameter_key(runner, tmp_path, monkeypatch):
    # a preset fixes every parameter: the key must not be dropped without a word
    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the config keys were checked")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    exit_code, output, files = run_isolated(runner, tmp_path, ["figure", "fig1a"], "r=5\n")
    assert exit_code == 2
    assert "unknown config key 'r' for figure" in output
    assert files == {}


#: settings that are constants now: the truncation tolerance fock.TAIL_TOL
#: and the dimension cap fock.DIM_CAP; the tol cases keep their first ids
REMOVED_OPTIONS = {"tol": "1e-9", "max_dim": "40"}


@pytest.mark.parametrize("option,source,command", [
    pytest.param(option, source, command,
                 id="-".join(([] if option == "tol" else [option]) + [source, command]))
    for option in REMOVED_OPTIONS for source in ("flag", "config") for command in sorted(COMMANDS)
])
def test_tol_is_a_usage_error_before_any_computation(
    runner, tmp_path, monkeypatch, option, source, command
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("computed before the arguments were checked")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    monkeypatch.setattr(experiments, "evaluate_point", refuse)
    config = tmp_path / "removed.conf"
    config.write_text(f"{option}={REMOVED_OPTIONS[option]}\n")
    extra = ["--" + option.replace("_", "-"), REMOVED_OPTIONS[option]] if source == "flag" \
        else ["--config", str(config)]
    result = runner.invoke(main, COMMANDS[command] + extra + ["--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    expected = "No such option" if source == "flag" else f"unknown config key {option!r}"
    assert expected in result.output
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- fuzz

FUZZ_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "5e-324", "pi/0", "0.9999pi", "", "abc", "1e3"]
) | st.floats().map(repr)
PARAM_FLAGS = ("--r", "--theta", "--delta", "--phi-pre", "--s", "--phi-quad")
#: --max-dim and the key max-dim are removed; any input with them must exit 2
COMMON_FLAGS = ("--max-dim", "--format")
# every accepted key but out (which writes a file) and two unknown keys
FUZZ_KEYS = tuple(sorted(CONFIG_KEYS - {"out"})) + ("max-dim", "wavelength")


@st.composite
def cli_inputs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if command == "figure":
        args = ["figure", draw(st.sampled_from(experiments.FIGURE_IDS)), "--out", "fig.out"]
        flags = COMMON_FLAGS
    else:
        args = [command]
        flags = PARAM_FLAGS + COMMON_FLAGS
    if command == "sweep":
        small_grid = st.lists(FUZZ_VALUES, min_size=1, max_size=3).map(",".join)
        args += ["--var", draw(st.sampled_from(experiments.SWEPT_VARIABLES)),
                 "--grid", draw(small_grid | st.just("0:1:0.5")),
                 "--series", draw(st.sampled_from(experiments.SERIES_VARIABLES)),
                 "--series-values", draw(small_grid),
                 "--observable", draw(st.sampled_from(experiments.OBSERVABLES))]
    for flag, value in draw(st.lists(st.tuples(st.sampled_from(flags), FUZZ_VALUES), max_size=3)):
        args += [flag, value]
    config_line = st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES).map("=".join) | FUZZ_VALUES
    lines = draw(st.none() | st.lists(config_line, max_size=3))
    return args, lines


@settings(max_examples=150, deadline=None)
@given(cli_inputs())
def test_cli_fuzz_exits_with_a_documented_code(inputs):
    args, lines = inputs
    runner = CliRunner()
    with runner.isolated_filesystem(), pytest.MonkeyPatch.context() as patch:
        if args[0] == "figure":
            small = experiments.run_sweep(experiments.SweepSpec(
                swept="r", grid=(1.0,), series="s", series_values=(0.5,),
                fixed=experiments.ParamSet(), observable="mandel_q",
            ))
            patch.setattr(cli, "run_sweep", lambda _spec: small)
        if lines is not None:
            Path("run.conf").write_text("".join(line + "\n" for line in lines))
            args = args + ["--config", "run.conf"]
        result = runner.invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, lines, result.output)
    if "--max-dim" in args or any(line.startswith("max-dim=") for line in lines or ()):
        assert result.exit_code == 2, (args, lines, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, lines)
