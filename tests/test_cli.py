import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from spacsim import cli, experiments
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


def test_sweep_rejects_non_finite_fixed_parameter(runner):
    result = runner.invoke(main, [
        "sweep", "--var", "r", "--grid", "1,2", "--series", "s",
        "--series-values", "0.5", "--observable", "mandel_q", "--delta", "nan",
    ])
    assert result.exit_code == 2


def test_state_rejects_bad_tol(runner):
    result = runner.invoke(main, ["state", "--r", "1", "--tol", "0.5"])
    assert result.exit_code == 2


def test_state_rejects_excessive_max_dim(runner):
    result = runner.invoke(main, ["state", "--r", "1", "--max-dim", "8192"])
    assert result.exit_code == 2


@pytest.mark.parametrize("max_dim", ["1", "0", "-5"])
def test_state_rejects_max_dim_below_two(runner, max_dim):
    result = runner.invoke(main, ["state", "--r", "1", "--max-dim", max_dim])
    assert result.exit_code == 2
    assert "at least 2" in result.output


def test_state_rejects_angle_divided_by_zero(runner):
    result = runner.invoke(main, ["state", "--theta", "pi/0"])
    assert result.exit_code == 2
    assert "divides by zero" in result.output


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
    spec_args = ["figure", "fig3c", "--tol", "1e-9"]
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


def test_sweep_rejects_same_swept_and_series(runner):
    result = runner.invoke(main, [
        "sweep", "--var", "r", "--grid", "0,1", "--series", "r",
        "--series-values", "1", "--observable", "mandel_q",
    ])
    assert result.exit_code == 2


# ---------------------------------------------------------------- check

def test_check_quick_passes(runner):
    result = invoke(runner, ["check", "--quick"])
    assert result.exit_code == 0
    assert "oracle-equivalence-grid" not in result.output
    for name in ("mandel-q-closed-form", "squeezing-closed-form",
                 "two-branch-unitary-identity", "trend-assertions"):
        assert f"PASS {name}" in result.output
