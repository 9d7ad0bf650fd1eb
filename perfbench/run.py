"""The repository benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload smm-train --seed 0 --seconds 10 --trace 0

Each untraced run times three set-ups of the workload in fresh
interpreters (two set-up-only ones, then the measured one), runs the
measured one's rounds, checks every round, and prints a report whose
last line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the
per-layer ones.  ``--out PATH`` also writes the full record (with
provenance, parameters and every round time) as JSON to ``PATH``.  The
exit code is 0 only if every round and check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import SPANS, Tracer  # noqa: E402
from worker import PROBE_MARKER, RESULT_MARKER, SETUP_MARKER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3
#: Median ``worker.speed_probe()`` time on the reference host (2-vCPU
#: Intel Xeon VM, Python 3.11).  Time metrics are scaled to it.
PROBE_REF_S = 0.015
#: A run must finish within this many seconds.
DEADLINE_S = 170.0
PHASES = ("advertise", "share-keys", "masked-input", "unmask")

#: Spans that must record calls on a workload (the layers the workload
#: is meant to exercise), and spans that must record none.
EXPECTED_SPANS = {
    "smm-train": ("sampling.skellam", "sampling.round", "linalg.rotation",
                  "core.clipping", "mechanisms.estimate_sum",
                  "secagg.blackbox", "fl.gradients"),
    "sim-train": ("core.encode", "core.decode", "fl.gradients",
                  "accounting.charge", "secagg.prg"),
    "tree-secagg": ("secagg.prg", "secagg.keys", "secagg.shamir.split",
                    "secagg.shamir.reconstruct", "secagg.seal",
                    "secagg.wire.encode", "secagg.wire.decode",
                    "secagg.session.client", "secagg.session.server",
                    "secagg.recover", "simulation.round",
                    "simulation.shard", "secagg.compose"),
}
ABSENT_SPANS = {
    "smm-train": ("secagg.prg", "secagg.keys", "secagg.shamir.split",
                  "secagg.shamir.reconstruct"),
}

UNITS = {"rounds_per_s": "rounds/s", "setup_s": "s", "peak_rss_mib": "MiB",
         "wire_bytes_per_round": "bytes"}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = Tracer().units()
    units["round.included_ratio"] = "ratio"
    for phase in PHASES:
        units[f"wire.bytes.{phase}"] = "bytes/round"
    for step in ("import", "data", "calibrate"):
        units[f"setup.{step}.s"] = "s"
    units["trace.rounds_per_s"] = "rounds/s"
    units["trace.untraced_rounds_per_s"] = "rounds/s"
    units["trace.overhead_pct"] = "%"
    return units


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, float, dict | None]:
    """Run one worker.

    Returns:
        ``(seconds from process start to the first round, host-speed
        probe seconds right after it, result or None)``.
    """
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    # One BLAS thread: the workloads are single-threaded closed loops, and
    # a fixed thread count keeps float reductions, so digests, identical
    # across hosts.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), process.kill)
    watchdog.start()
    setup_s = probe_s = math.nan
    result = None
    try:
        for line in process.stdout:
            if line.startswith(SETUP_MARKER):
                setup_s = time.perf_counter() - started
            elif line.startswith(PROBE_MARKER):
                probe_s = float(line[len(PROBE_MARKER):])
            elif line.startswith(RESULT_MARKER):
                result = json.loads(line[len(RESULT_MARKER):])
            else:
                sys.stderr.write(line)
        process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or math.isnan(setup_s) or math.isnan(probe_s):
        raise RuntimeError(
            f"worker for {args.workload} exited with {process.returncode}"
        )
    if not setup_only and result is None:
        raise RuntimeError(f"worker for {args.workload} printed no result")
    return setup_s, probe_s, result


def rate(durations: list[float]) -> float:
    """Rounds per second from the median round time."""
    return 1.0 / statistics.median(durations) if durations else math.nan


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics, times scaled to the reference host speed.

    Args:
        result: The measured worker's result.
        setups: ``(set-up seconds, probe seconds)`` per set-up.
    """
    # Each round is scaled by the probe taken just before it.
    scaled = [
        seconds * PROBE_REF_S / probe
        for seconds, probe in zip(result["durations"], result["probes"])
    ]
    return {
        "rounds_per_s": rate(scaled),
        "setup_s": statistics.median(
            seconds * PROBE_REF_S / probe for seconds, probe in setups
        ),
        "peak_rss_mib": result["peak_rss_mib"],
        "wire_bytes_per_round": statistics.fmean(result["wire_bytes"]),
    }


def per_layer(result: dict) -> dict[str, float]:
    metrics = dict(result["layers"])
    metrics["round.included_ratio"] = statistics.fmean(result["included"])
    for phase in PHASES:
        metrics[f"wire.bytes.{phase}"] = result["phase_bytes"].get(phase, 0.0)
    for step, seconds in result["setup"].items():
        metrics[f"setup.{step}.s"] = seconds
    traced = [d for d, t in zip(result["durations"], result["traced"]) if t]
    plain = [d for d, t in zip(result["durations"], result["traced"]) if not t]
    metrics["trace.rounds_per_s"] = rate(traced)
    metrics["trace.untraced_rounds_per_s"] = rate(plain)
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.untraced_rounds_per_s"] / metrics["trace.rounds_per_s"] - 1.0
    )
    return metrics


def coverage_failures(workload: str, metrics: dict[str, float]) -> list[str]:
    """Spans that recorded no calls where they must, or calls where not."""
    failures = [
        f"{span} recorded no calls"
        for span in EXPECTED_SPANS[workload]
        if metrics[f"{span}.calls"] == 0
    ]
    failures += [
        f"{span} recorded calls"
        for span in ABSENT_SPANS.get(workload, ())
        if metrics[f"{span}.calls"] != 0
    ]
    return failures


def provenance() -> dict:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_rev": rev, "nproc": os.cpu_count(), "cpu": cpu}


def report(args, record: dict) -> None:
    """The human-readable part of the output (every line but the last)."""
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    env = record["provenance"]
    print(f"  rev={env['git_rev']} nproc={env['nproc']} cpu={env['cpu']!r} "
          + " ".join(f"{k}={v}" for k, v in env["versions"].items())
          + f" x25519={env['x25519_available']}")
    print(f"  params {json.dumps(record['params'])}")
    rounds = len(record["durations"])
    print(f"  {rounds} rounds timed; set-up timed {len(record['setups'])} times; "
          f"host-speed probe {statistics.median(record['probes']):.5f} s "
          f"(reference {PROBE_REF_S} s)")
    print(f"  unscaled: rounds_per_s {record['raw']['rounds_per_s']:.6g} rounds/s, "
          f"setup_s {record['raw']['setup_s']:.6g} s")
    metrics = record["metrics"]
    shown = set()
    if args.trace:
        print(f"  {'layer (per traced round)':<28} {'calls':>9} {'busy s':>10} "
              f"{'self s':>10} {'work':>12}")
        ranked = sorted(SPANS, key=lambda s: -metrics[f"{s.name}.self_s"]["value"])
        for span in ranked:
            names = [f"{span.name}.{field}" for field in
                     ("calls", "s", "self_s", span.unit)]
            shown.update(names)
            calls, busy, own, work = (metrics[name]["value"] for name in names)
            if calls:
                print(f"  {span.name:<28} {calls:>9.5g} {busy:>10.4g} "
                      f"{own:>10.4g} {work:>12.5g} {span.unit}")
    for name, metric in metrics.items():
        if name not in shown:
            print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    quality = record["quality"]
    if "test_accuracy" in quality:
        note = "" if args.workload == "smm-train" else " (not steady across seeds)"
        print(f"  {'test_accuracy':<34} {quality['test_accuracy']:>16.6g} "
              f"fraction{note}")
    if "epsilon_spent" in quality:
        print(f"  {'epsilon_spent':<34} {quality['epsilon_spent']:>16.6g} "
              "epsilon at delta=1e-5")
    if args.trace:
        traced = sum(record["traced"])
        print(f"  tracing overhead: traced "
              f"{metrics['trace.rounds_per_s']['value']:.4g} rounds/s over "
              f"{traced} rounds, untraced "
              f"{metrics['trace.untraced_rounds_per_s']['value']:.4g} rounds/s "
              f"over {rounds - traced} rounds")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  attempted={record['attempted']} failed={record['failed']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args()
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    # The traced run reports set-up phases from its measured process only.
    extra_setups = 0 if args.trace else SETUPS - 1
    setups = [spawn(args, True, deadline)[:2] for _ in range(extra_setups)]
    setup_s, probe_s, result = spawn(args, False, deadline)
    setups.append((setup_s, probe_s))

    if args.trace:
        metrics = per_layer(result)
        units = layer_units()
        failures = coverage_failures(args.workload, metrics)
    else:
        metrics = end_to_end(result, setups)
        units = UNITS
        failures = []
    checks = dict(result["checks"])
    if args.trace:
        checks["span_coverage"] = not failures
    for failure in failures:
        print(f"perfbench: span coverage: {failure}", file=sys.stderr)
    correct = (
        result["error"] is None
        and result["failed"] == 0
        and all(checks.values())
        and all(math.isfinite(metrics[name]) for name in units)
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": result["params"],
        "provenance": {
            **provenance(),
            "versions": result["versions"],
            "x25519_available": result["x25519_available"],
        },
        "setups": [seconds for seconds, _ in setups],
        "setup_probes": [probe for _, probe in setups],
        "raw": {
            "rounds_per_s": rate(result["durations"]),
            "setup_s": statistics.median(seconds for seconds, _ in setups),
        },
        "durations": result["durations"],
        "traced": result["traced"],
        "probes": result["probes"],
        "quality": result["quality"],
        "checks": checks,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    report(args, record)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
