"""In-memory spans around the public functions of spacsim's modules.

The benchmark wraps functions from its own code; nothing under ``src/``
knows about tracing.  A span is ``[name, start, end, parent]`` where
``parent`` is the index of the enclosing span (-1 for a root).  The
run is single-threaded, so a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

#: (module, function) pairs whose spans the per-layer table reports.
#: Every ``check_*`` function of ``spacsim.checks`` is added at install
#: time, so new checks are traced without a change here.
TARGETS = (
    ("experiments", "run_sweep"),
    ("experiments", "evaluate_point"),
    ("fock", "adaptive_dim"),
    ("fock", "spacs_state"),
    ("measurement", "postselected_pointer"),
    ("measurement", "branch_superposition"),
    ("measurement", "joint_evolution_project"),
    ("observables", "squeezing"),
    ("observables", "mandel_q"),
    ("observables", "edge_tail_mass"),
    ("observables", "photon_distribution"),
    ("serialize", "render"),
)

#: functions whose per-call latency percentiles are reported
LATENCY_TARGETS = ("experiments.run_sweep", "experiments.evaluate_point")


def spacsim_modules() -> dict:
    """The imported spacsim modules by short name (``"spacsim"`` for the package)."""
    return {
        key.partition(".")[2] or "spacsim": module
        for key, module in list(sys.modules.items())
        if key == "spacsim" or key.startswith("spacsim.")
    }


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.returns: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep_return=None):
        """``fn`` with a span around each call.

        ``keep_return`` maps a return value to a number kept under
        ``name`` in ``self.returns``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = self.clock()
            if keep_return is not None:
                self.returns[name].append(keep_return(result))
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _) in enumerate(spans)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def cache_hit_ratio(fn) -> float | None:
    """Hits over lookups of an ``lru_cache`` function; None without a cache."""
    cache_info = getattr(fn, "cache_info", None)
    if cache_info is None:
        return None
    info = cache_info()
    looked_up = info.hits + info.misses
    return info.hits / looked_up if looked_up else 0.0


def _keep_for(name: str):
    if name == "fock.adaptive_dim":
        return int
    if name == "serialize.render":
        return lambda text: len(text.encode("utf-8"))
    return None


def install(tracer: Tracer, package_modules: dict) -> tuple[list[str], list]:
    """Wrap every target on each module that binds it.

    ``package_modules`` maps short names (``"fock"``) to the imported
    spacsim modules, and must include every module whose code calls a
    target: ``from .fock import phase_quadrature`` binds the function in
    ``observables`` too, so patching only ``fock`` would miss those
    calls.  Targets that no longer exist are skipped.  Returns the traced
    names and the ``(module, attribute, original)`` triples to restore.
    """
    targets = list(TARGETS)
    checks = package_modules.get("checks")
    if checks is not None:
        targets += [
            ("checks", attr) for attr, value in sorted(vars(checks).items())
            if attr.startswith("check_") and callable(value)
            and getattr(value, "__module__", None) == checks.__name__
        ]
    traced, patched = [], []
    for short, attr in targets:
        home = package_modules.get(short)
        original = getattr(home, attr, None) if home is not None else None
        if original is None or not callable(original):
            continue
        name = f"{short}.{attr}"
        wrapper = tracer.wrap(name, original, _keep_for(name))
        for module in package_modules.values():
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)
                    patched.append((module, binding, original))
        traced.append(name)
    return traced, patched


def uninstall(patched: list) -> None:
    for module, binding, original in reversed(patched):
        setattr(module, binding, original)


def layer_table(tracer: Tracer, traced: list[str]) -> dict[str, float]:
    """Per-function calls and self time, plus latency and return-value stats."""
    selfs = self_times(tracer.spans)
    calls = dict.fromkeys(traced, 0)
    self_s = dict.fromkeys(traced, 0.0)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), own in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += own
        durations[name].append(end - start)
    table: dict[str, float] = {}
    for name in traced:
        table[f"{name}.calls"] = calls[name]
        table[f"{name}.self_s"] = self_s[name]
        if name in LATENCY_TARGETS:
            table[f"{name}.p50_ms"] = 1e3 * percentile(durations[name], 50)
            table[f"{name}.p99_ms"] = 1e3 * percentile(durations[name], 99)
    if "serialize.render" in traced:
        table["serialize.render.bytes"] = sum(tracer.returns["serialize.render"])
    if "fock.adaptive_dim" in traced:
        dims = tracer.returns["fock.adaptive_dim"]
        table["fock.dim.p50"] = percentile(dims, 50)
        table["fock.dim.max"] = max(dims, default=0)
    table["trace.self_s"] = sum(selfs)
    return table
