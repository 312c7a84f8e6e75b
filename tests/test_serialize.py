import dataclasses
import json
import math

from spacsim.experiments import SweepRow
from spacsim.serialize import SWEEP_COLUMNS, render, rows_to_csv, rows_to_json

ROWS = [
    {"series": "s=0.5", "x": 1.0, "value": -0.2827586206896552,
     "tail_mass": 2.5e-24, "true_postselection_prob": 0.75, "status": "ok"},
    {"series": "s=0.5", "x": 2.0, "value": float("nan"),
     "tail_mass": float("nan"), "true_postselection_prob": float("nan"),
     "status": "ConvergenceError"},
]


def test_csv_and_json_carry_identical_values():
    csv_text = rows_to_csv(SWEEP_COLUMNS, ROWS)
    json_rows = json.loads(rows_to_json(SWEEP_COLUMNS, ROWS))
    csv_lines = csv_text.strip().split("\n")
    assert csv_lines[0] == ",".join(SWEEP_COLUMNS)
    for line, obj in zip(csv_lines[1:], json_rows):
        cells = dict(zip(SWEEP_COLUMNS, line.split(",")))
        for column in SWEEP_COLUMNS:
            csv_value = cells[column]
            json_value = obj[column]
            if isinstance(json_value, float):
                if math.isnan(json_value):
                    assert csv_value == "nan"
                else:
                    # 17 significant digits round-trip float64 exactly
                    assert float(csv_value) == json_value
            else:
                assert csv_value == str(json_value)


def test_csv_uses_lf_and_trailing_newline():
    text = rows_to_csv(SWEEP_COLUMNS, ROWS)
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_render_dispatch():
    assert render("csv", SWEEP_COLUMNS, ROWS) == rows_to_csv(SWEEP_COLUMNS, ROWS)
    assert render("json", SWEEP_COLUMNS, ROWS) == rows_to_json(SWEEP_COLUMNS, ROWS)


def test_sweep_columns_are_the_sweep_row_fields():
    assert SWEEP_COLUMNS == tuple(field.name for field in dataclasses.fields(SweepRow))
