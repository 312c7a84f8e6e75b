"""One cold-process iteration of a benchmark workload.

Usage: child.py MODE WORKLOAD SEED SPAWN_TIME [SPANS_PATH]

MODE is ``probe`` (import spacsim, report set-up time, exit), ``plain``
(time the workload) or ``traced`` (time it with spans around every
traced function, then write the spans to SPANS_PATH).  SPAWN_TIME is
the parent's ``time.monotonic()`` just before it started this process;
the system-wide monotonic clock makes the two readings comparable.
The result is one JSON object on standard output.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

MODULES = ("cli", "checks", "experiments", "fock", "measurement", "observables", "serialize")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    mode, workload, seed, spawn = argv[0], argv[1], int(argv[2]), float(argv[3])
    sp = SimpleNamespace(**{
        name: importlib.import_module(f"spacsim.{name}") for name in MODULES
    })
    setup_s = time.monotonic() - spawn
    src = (Path(__file__).parents[1] / "src").resolve()
    if Path(sp.cli.__file__).resolve().parents[1] != src:
        print(f"spacsim imported from {sp.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {
        "setup_s": setup_s,
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    if mode == "probe":
        print(json.dumps(result))
        return 0

    import tracing
    import workloads

    tracer = patched = None
    if mode == "traced":
        tracer = tracing.Tracer()
        traced, patched = tracing.install(tracer, tracing.spacsim_modules())

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    output = workloads.run(workload, seed, sp)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    if tracer is not None:
        tracing.uninstall(patched)
        layers = tracing.layer_table(tracer, traced)
        ratio = tracing.cache_hit_ratio(getattr(sp.fock, "adaptive_dim", None))
        if ratio is not None:
            layers["fock.adaptive_dim.cache_hit_ratio"] = ratio
        result["layers"] = layers
        Path(argv[4]).write_text(json.dumps(tracer.spans), encoding="utf-8")

    attempted, failures = workloads.gate(workload, output, sp)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted,
        failures=failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
