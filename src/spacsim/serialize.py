"""Single serializer for tabular results.

Both output formats are produced from the same (columns, rows) pair so
CSV and JSON can never disagree.  CSV carries floats at 17 significant
digits with LF line endings; JSON is an array of flat objects whose
field names equal the CSV headers.  Output bytes are deterministic.
"""

from __future__ import annotations

import json

SWEEP_COLUMNS = ("series", "x", "value", "tail_mass", "true_postselection_prob", "status")

STATE_COLUMNS = (
    "weak_value_re",
    "weak_value_im",
    "naive_postselection_prob",
    "true_postselection_prob",
    "mean_photon",
    "mandel_q",
    "squeezing",
    "tail_mass",
    "dim",
)


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[name]) for name in columns))
    return "\n".join(lines) + "\n"


def rows_to_json(columns: tuple[str, ...], rows: list[dict]) -> str:
    ordered = [{name: row[name] for name in columns} for row in rows]
    return json.dumps(ordered, indent=2) + "\n"


def render(fmt: str, columns: tuple[str, ...], rows: list[dict]) -> str:
    if fmt == "csv":
        return rows_to_csv(columns, rows)
    if fmt == "json":
        return rows_to_json(columns, rows)
    raise ValueError(f"unknown output format {fmt!r}")


def sweep_rows(rows) -> list[dict]:
    """run_sweep's rows as serializable dicts, in their deterministic order."""
    return [{name: getattr(row, name) for name in SWEEP_COLUMNS} for row in rows]
