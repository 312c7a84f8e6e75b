"""Record the reference values the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``reference/presets/<fig>.csv`` (the CSV ``spacsim figure <fig>``
prints) and ``reference/high_r.csv`` (every r that any seed of the
high_r workload can pick).  Run it only on a commit whose outputs are
known good; the files in the repository were recorded at the commit
that added the benchmark.  Each high_r offset group runs in its own
process, because the displacement cache of one process holding all 50
points would need several GB.
"""

from __future__ import annotations

import subprocess
import sys

import workloads
from workloads import REFERENCE_DIR


def _high_r_group(offset: float) -> str:
    from spacsim import experiments, serialize

    grid = tuple(r for r in workloads.high_r_candidates() if (r - 20.0) % 1.0 == offset % 1.0)
    result = experiments.run_sweep(workloads.high_r_spec(experiments, grid))
    return serialize.render("csv", serialize.SWEEP_COLUMNS, serialize.sweep_rows(result))


def main() -> None:
    from spacsim import experiments, serialize

    (REFERENCE_DIR / "presets").mkdir(parents=True, exist_ok=True)
    for fig_id in experiments.FIGURE_IDS:
        result = experiments.run_sweep(experiments.figure_preset(fig_id))
        text = serialize.render("csv", serialize.SWEEP_COLUMNS, serialize.sweep_rows(result))
        (REFERENCE_DIR / "presets" / f"{fig_id}.csv").write_text(text, encoding="utf-8")

    rows = []
    for offset in workloads.HIGH_R_OFFSETS:
        text = subprocess.run(
            [sys.executable, __file__, repr(offset)],
            check=True, capture_output=True, text=True,
        ).stdout
        rows += workloads.parse_csv(text)
    rows.sort(key=lambda row: (row["series"], row["x"]))
    (REFERENCE_DIR / "high_r.csv").write_text(
        serialize.render("csv", serialize.SWEEP_COLUMNS, rows), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.stdout.write(_high_r_group(float(sys.argv[1])))
    else:
        main()
