"""spacsim benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload presets --seed 0 --seconds 40 --trace 0

Each iteration starts a fresh Python process that imports spacsim,
runs one workload with cold in-process caches (as every ``spacsim``
command does), checks its output and exits.  The loop is closed: one
client, one process at a time, serial sweeps (``SPACS_THREADS`` unset)
and BLAS threads capped at the number of usable cores.  Iterations
repeat until the next one would overrun ``--seconds`` (at least two);
metrics are medians over them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
plain and traced iterations and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits 1 when an
output fails the correctness gate and 2 when it cannot run at all.
See README.md in this directory for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SEEDLESS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: set-up-only processes started per run, on top of one per iteration
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPACS_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cap = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def run_child(mode: str, workload: str, seed: int, env: dict, spans_path: Path | None = None) -> dict:
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), repr(spawn)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} {workload} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} {workload} child printed no result")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - spawn
    return result


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, env: dict, child: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload not in SEEDLESS,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "scipy": child["scipy"],
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "spacs_threads": env.get("SPACS_THREADS", "unset"),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def iterate(args, env: dict) -> tuple[list[dict], list[dict]]:
    """(plain iterations, traced iterations) run within ``--seconds``.

    An untraced run makes at least two iterations, so its medians never
    rest on one sample; a traced run makes at least one plain and one
    traced iteration.
    """
    plain, traced = [], []
    modes = ("plain", "traced") if args.trace else ("plain",)
    min_rounds = 1 if args.trace else 2
    start = time.monotonic()
    while True:
        for mode in modes:
            spans = OUT_DIR / f"spans-{args.workload}.json" if mode == "traced" else None
            result = run_child(mode, args.workload, args.seed, env, spans)
            (traced if mode == "traced" else plain).append(result)
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if len(plain) >= min_rounds and elapsed + per_round > args.seconds:
            return plain, traced


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def end_to_end(plain: list[dict], probes: list[dict]) -> dict[str, float]:
    return {
        "wall_s": _median(plain, "wall_s"),
        "cpu_s": _median(plain, "cpu_s"),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "setup_s": _median(plain + probes, "setup_s"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = sorted(set().union(*(r["layers"] for r in traced)))
    layers = {
        name: statistics.median(r["layers"][name] for r in traced if name in r["layers"])
        for name in names
    }
    traced_wall = _median(traced, "wall_s")
    plain_wall = _median(plain, "wall_s")
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = plain_wall
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.self_share"] = layers.pop("trace.self_s") / traced_wall
    return layers


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {
        "calls": "count", "bytes": "bytes", "p50_ms": "ms", "p99_ms": "ms",
        "cache_hit_ratio": "ratio", "self_share": "ratio", "p50": "dim", "max": "dim",
    }.get(suffix, "s")


def declared_layer_metrics() -> list[str]:
    """Per-layer names BENCHMARK.json lists; a refactor may remove some."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    return [metric["name"] for metric in json.loads(path.read_text())["per_layer"]]


def report(args, env_record, plain, traced, probes) -> int:
    results = plain + traced
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, probes)
    fail_ratio = len(failures) / attempted
    record = {
        "environment": env_record, "metrics": metrics, "fail_ratio": fail_ratio,
        "failures": failures, "iterations": {"plain": plain, "traced": traced, "probes": probes},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"{args.workload}: {len(plain)} plain and {len(traced)} traced iterations, "
          f"{len(probes)} set-up probes")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if args.trace:
        for name in declared_layer_metrics():
            if name not in metrics:
                print(f"  {name:<48} {'absent':>14}")
    print(f"  {'fail_ratio':<48} {fail_ratio:>14.6g} ratio ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        samples = ""
        if name.endswith(("p50_ms", "p99_ms")):
            samples = f" (n={metrics[name.rsplit('.', 1)[0] + '.calls']:g})"
        print(f"  {name:<48} {value:>14.6g} {unit_of(name)}{samples}")
    walls = sorted(r["wall_s"] for r in plain)
    print(f"  {'wall_s max (plain iterations)':<48} {walls[-1]:>14.6g} s (n={len(walls)})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spacsim" / "__init__.py").is_file():
        print(f"no spacsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        probes = [run_child("probe", args.workload, args.seed, env)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        plain, traced = iterate(args, env)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return report(args, environment(args, env, plain[0]), plain, traced, probes)


if __name__ == "__main__":
    sys.exit(main())
