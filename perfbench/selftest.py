"""Tests of the benchmark's own logic: the correctness gate and the tracer.

    python3 perfbench/selftest.py

Uses spacsim from ``src/`` of this checkout.  Not collected by the
package's pytest suite; ``python3 -m pytest perfbench/selftest.py``
runs it too.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from child import MODULES  # noqa: E402

SP = SimpleNamespace(**{name: importlib.import_module(f"spacsim.{name}") for name in MODULES})


def reference_presets() -> dict[str, str]:
    return {
        fig_id: (workloads.REFERENCE_DIR / "presets" / f"{fig_id}.csv").read_text()
        for fig_id in SP.experiments.FIGURE_IDS
    }


def replace_cell(text: str, line: int, column: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


class GateTest(unittest.TestCase):
    def test_reference_outputs_pass(self):
        attempted, failures = workloads.gate("presets", reference_presets(), SP)
        self.assertEqual(attempted, 2560)
        self.assertEqual(failures, [])

    def test_one_wrong_row_raises_fail_ratio(self):
        outputs = reference_presets()
        value = float(outputs["fig3c"].splitlines()[7].split(",")[2])
        outputs["fig3c"] = replace_cell(outputs["fig3c"], 7, 2, repr(value * (1 + 1e-6)))
        attempted, failures = workloads.gate("presets", outputs, SP)
        self.assertGreater(len(failures) / attempted, 0)
        self.assertEqual(len(failures), 1)

    def test_drift_within_tolerance_passes(self):
        outputs = reference_presets()
        value = float(outputs["fig4a"].splitlines()[3].split(",")[2])
        outputs["fig4a"] = replace_cell(outputs["fig4a"], 3, 2, repr(value * (1 + 1e-12)))
        self.assertEqual(workloads.gate("presets", outputs, SP)[1], [])

    def test_error_status_fails(self):
        outputs = reference_presets()
        outputs["fig1a"] = replace_cell(outputs["fig1a"], 2, 5, "TruncationError")
        self.assertEqual(len(workloads.gate("presets", outputs, SP)[1]), 1)

    def test_initial_state_series_checked_against_closed_form(self):
        # fig2a line 1 is the s = 0 series at r = 0, where Q = -1 exactly
        outputs = reference_presets()
        self.assertEqual(outputs["fig2a"].splitlines()[1].split(",")[:3], ["s=0", "0", "-1"])
        row = workloads.parse_csv(outputs["fig2a"])[0]
        row["value"] = -1.0 + 1e-7
        fixed = SP.experiments.figure_preset("fig2a").fixed
        self.assertIsNotNone(workloads.initial_state_failure(row, fixed, "mandel_q", SP))

    def test_failed_check_counts(self):
        outcome = SP.checks.CheckOutcome
        output = [outcome("a", True, ""), outcome("b", False, "off by 1")]
        self.assertEqual(workloads.gate("verify", output, SP), (2, ["b: off by 1"]))

    def test_high_r_grid(self):
        self.assertEqual(workloads.high_r_grid(0), tuple(float(r) for r in range(20, 29)))
        reference = workloads.load_reference("high_r.csv")
        for seed in range(1, 50):
            grid = workloads.high_r_grid(seed)
            self.assertEqual(len(set(grid)), 9)
            self.assertTrue(all(20.0 <= r <= 28.0 for r in grid))
            for r in grid:
                self.assertIn(("s=1", r), reference)


class TracerTest(unittest.TestCase):
    def test_nested_self_time(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 7.0])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap("m.inner", lambda: None)
        outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
        outer()
        # outer 0..7 holds inner 1..3 and 4..4.5
        self.assertEqual(tracing.self_times(tracer.spans), [7.0 - 2.0 - 0.5, 2.0, 0.5])
        table = tracing.layer_table(tracer, ["m.outer", "m.inner"])
        self.assertEqual(table["m.inner.calls"], 2)
        self.assertEqual(table["m.outer.self_s"], 4.5)
        self.assertEqual(table["trace.self_s"], 7.0)

    def test_tiny_sweep_self_time_within_wall(self):
        spec = SP.experiments.SweepSpec(
            swept="r", grid=(0.5, 1.0, 1.5), series="s", series_values=(0.0, 1.0),
            fixed=SP.experiments.ParamSet(phi_pre=0.3, phi_quad=0.5), observable="squeezing")
        tracer = tracing.Tracer()
        traced, patched = tracing.install(tracer, tracing.spacsim_modules())
        try:
            start = time.perf_counter()
            SP.experiments.run_sweep(spec)
            wall = time.perf_counter() - start
        finally:
            tracing.uninstall(patched)
        table = tracing.layer_table(tracer, traced)
        self.assertEqual(table["experiments.evaluate_point.calls"], 6)
        self.assertEqual(table["observables.squeezing.calls"], 6)
        self.assertLessEqual(table["trace.self_s"], wall)
        self.assertGreater(table["fock.adaptive_dim.calls"], 0)

    def test_wraps_every_binding_and_restores(self):
        original = SP.experiments.run_sweep
        tracer = tracing.Tracer()
        _, patched = tracing.install(tracer, tracing.spacsim_modules())
        try:
            # cli and the package bind run_sweep through `from ... import`
            self.assertIsNot(SP.cli.run_sweep, original)
            self.assertIs(SP.cli.run_sweep, SP.experiments.run_sweep)
            self.assertIs(sys.modules["spacsim"].run_sweep, SP.experiments.run_sweep)
        finally:
            tracing.uninstall(patched)
        self.assertIs(SP.cli.run_sweep, original)
        self.assertIs(sys.modules["spacsim"].run_sweep, original)

    def test_missing_function_drops_out(self):
        measurement = types.ModuleType("fake.measurement")
        measurement.branch_superposition = lambda: 1
        fock = types.ModuleType("fake.fock")
        fock.adaptive_dim = lambda: 2
        traced, patched = tracing.install(
            tracing.Tracer(), {"measurement": measurement, "fock": fock})
        self.assertEqual(traced, ["fock.adaptive_dim", "measurement.branch_superposition"])
        self.assertEqual(fock.adaptive_dim(), 2)
        tracing.uninstall(patched)
        self.assertIsNone(tracing.cache_hit_ratio(fock.adaptive_dim))

    def test_cache_hit_ratio(self):
        ratio = tracing.cache_hit_ratio(SP.fock.adaptive_dim)
        self.assertTrue(0.0 <= ratio <= 1.0)


if __name__ == "__main__":
    unittest.main()
