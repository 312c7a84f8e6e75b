"""Every number the simulator prints, against recorded values.

The ten figure presets are compared with the CSVs recorded at the seed
commit in ``perfbench/reference/presets`` (read, never rewritten); the
current values lie within 3.9e-14 of them.  ``spacsim state`` at the
README point and ``spacsim check`` were recorded from the current code
and are held to tighter bounds.  Floats are compared with a tolerance
rather than by bytes, because numpy's vectorized exp and log may differ
in the last bit between CPUs; text, status columns and row order are
compared exactly.  A change that moves a number on purpose shows the
move here.  The two summary lines ``spacsim figure`` prints for each
preset, recorded likewise, are compared as text.
"""

import csv
import io
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from spacsim import experiments, serialize
from spacsim.cli import main

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "presets"

PRESET_ABS_TOL = 1e-13
FLOAT_COLUMNS = ("x", "value", "tail_mass", "true_postselection_prob")

README_STATE_ARGS = [
    "state", "--r", "2", "--theta", "pi/9", "--delta", "pi/4",
    "--phi-pre", "pi/3", "--s", "0.1", "--phi-quad", "pi/2",
]
RECORDED_STATE = (
    "weak_value_re,weak_value_im,naive_postselection_prob,true_postselection_prob,"
    "mean_photon,mandel_q,squeezing,tail_mass,dim\n"
    "0.40824829046386302,0.40824829046386296,0.75000000000000011,0.79473265280218053,"
    "5.907680142414705,-0.27774067271685005,0.15384096842480921,7.9095799141713088e-25,45\n"
)

RECORDED_CHECK = """\
PASS mandel-q-closed-form: max |numeric - analytic| = 4.996e-16 at r=2.0, theta=0 (tol 1.0e-08)
PASS squeezing-closed-form: max |numeric - analytic| = 6.661e-16 at r=0.5, theta=0.349066, \
phi=0 (tol 1.0e-08)
PASS two-branch-unitary-identity: max entry difference on retained blocks = 7.883e-15 \
(tol 1.0e-08)
PASS trend-assertions: all 5 assertions hold
PASS oracle-equivalence-grid: max infidelity 4.441e-16, probability diff 3.775e-15, \
beta diff 2.442e-15, worst at r=4.0, theta=0, delta=0.7854, phi=0.3491, s=0.1
all 5 checks passed
"""

# (rows, max tail mass) in the summary ``spacsim figure`` prints
RECORDED_FIGURE_SUMMARY = {
    "fig1a": (104, "2.418e-24"),
    "fig1b": (104, "5.977e-24"),
    "fig2a": (324, "5.672e-21"),
    "fig2b": (324, "3.958e-21"),
    "fig3a": (324, "5.672e-21"),
    "fig3b": (324, "4.746e-32"),
    "fig3c": (244, "3.610e-24"),
    "fig3d": (324, "5.672e-21"),
    "fig4a": (244, "4.810e-21"),
    "fig4b": (244, "2.532e-21"),
}
PRESET_NOTE = "series grid and x grid are package defaults, not caption values"

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _same_float(a: float, b: float, rel: float, abs_: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


@pytest.mark.parametrize("fig_id", experiments.FIGURE_IDS)
def test_preset_rows_match_seed_reference(fig_id):
    result = experiments.run_sweep(experiments.figure_preset(fig_id))
    rows = _read_csv(serialize.render(
        "csv", serialize.SWEEP_COLUMNS, serialize.sweep_rows(result)))
    reference = _read_csv((REFERENCE_DIR / f"{fig_id}.csv").read_text(encoding="utf-8"))
    assert [(r["series"], r["status"]) for r in rows] == [
        (r["series"], r["status"]) for r in reference
    ]
    for row, ref in zip(rows, reference):
        assert float(row["x"]) == float(ref["x"])  # row order within each series
        for column in FLOAT_COLUMNS:
            got, want = float(row[column]), float(ref[column])
            assert _same_float(got, want, 0.0, PRESET_ABS_TOL), (fig_id, row, column, want)


def test_state_at_readme_point_matches_recording():
    result = CliRunner().invoke(main, README_STATE_ARGS, catch_exceptions=False)
    assert result.exit_code == 0
    (got,), (want,) = _read_csv(result.output), _read_csv(RECORDED_STATE)
    assert list(got) == list(want)
    assert got["dim"] == want["dim"]
    for column in serialize.STATE_COLUMNS[:-1]:
        assert _same_float(float(got[column]), float(want[column]), 1e-14, 1e-15), column


def test_check_stdout_matches_recording():
    result = CliRunner().invoke(main, ["check"], catch_exceptions=False)
    assert result.exit_code == 0
    got, want = result.output.splitlines(), RECORDED_CHECK.splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        # the text around the numbers exactly, each number within 1e-14
        assert _NUMBER.sub("#", got_line) == _NUMBER.sub("#", want_line)
        for a, b in zip(_NUMBER.findall(got_line), _NUMBER.findall(want_line)):
            assert _same_float(float(a), float(b), 0.0, 1e-14), (got_line, want_line)


@pytest.mark.parametrize("fig_id", experiments.FIGURE_IDS)
def test_figure_summary_matches_recording(fig_id, tmp_path):
    out = tmp_path / f"{fig_id}.csv"
    result = CliRunner().invoke(main, ["figure", fig_id, "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 0
    rows, max_tail = RECORDED_FIGURE_SUMMARY[fig_id]
    assert result.output.splitlines() == [
        f"{fig_id}: {rows} rows -> {out}",
        f"max tail mass {max_tail}; preset: {fig_id}; note: {PRESET_NOTE}",
    ]
