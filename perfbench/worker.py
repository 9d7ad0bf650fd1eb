"""Run one workload in this (fresh) interpreter; ``run.py`` starts it.

Prints ``perfbench-setup-done`` as the first timed round is about to
start, then ``perfbench-probe <seconds>`` (the host-speed probe at that
moment) and, at the end, one ``perfbench-result <json>`` line with the
raw measurements.  With ``--setup-only`` it exits after the probe, so
the caller can time several set-ups of the same workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Outcome

SETUP_MARKER = "perfbench-setup-done"
PROBE_MARKER = "perfbench-probe "
RESULT_MARKER = "perfbench-result "
#: Speed probes run right after set-up; their median scales ``setup_s``.
SETUP_PROBES = 5


class SetupComplete(Exception):
    """Raised at the first round of a ``--setup-only`` run."""


_PROBE_PRIME = (1 << 61) - 1
_PROBE_MATRIX = np.arange(128 * 128, dtype=np.float64).reshape(128, 128) / 1e4


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter, big-int, hash and BLAS work.

    Run after set-up and before every round, outside the round's timing,
    it measures how fast the host is running at that moment.  ``run.py``
    scales the time metrics by it (see README.md, "Host-speed probe").
    """
    started = time.perf_counter()
    table = {}
    value = 3
    for index in range(3000):
        value = pow(value, 65537, _PROBE_PRIME)
        table[index] = value.to_bytes(8, "little")
    hashlib.sha256(b"".join(table.values())).digest()
    _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - started


class Timeline:
    """Wall time of each round, with every other round traced.

    ``begin()`` opens a round and closes the previous one, so workloads
    whose rounds run inside a library loop can call it from a
    round-start hook; ``end()`` closes the last round.  With a tracer,
    odd-numbered rounds run with the span wrappers installed and even
    ones without, which measures the tracing overhead in the same
    process.
    """

    def __init__(self, tracer: Tracer | None, on_first_round) -> None:
        self.tracer = tracer
        self.durations: list[float] = []
        self.traced: list[bool] = []
        self.probes: list[float] = []
        self._on_first_round = on_first_round
        self._opened: float | None = None
        self._tracing = False

    def begin(self) -> None:
        self.end()
        if not self.durations:
            self._on_first_round()
        self.probes.append(speed_probe())
        self._tracing = self.tracer is not None and len(self.durations) % 2 == 1
        if self._tracing:
            self.tracer.begin_round()
        self._opened = time.perf_counter()

    def end(self) -> None:
        if self._opened is None:
            return
        wall = time.perf_counter() - self._opened
        self._opened = None
        if self._tracing:
            self.tracer.end_round(wall)
        self.durations.append(wall)
        self.traced.append(self._tracing)


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    setup = {}
    started = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    setup["import"] = time.perf_counter() - started
    source = Path(__file__).resolve().parent.parent / "src"
    loaded_from = Path(sys.modules["repro"].__file__).resolve()
    if source not in loaded_from.parents:
        raise RuntimeError(f"repro was imported from {loaded_from}, not {source}")

    started = time.perf_counter()
    workload.build(args.seed)
    built = time.perf_counter()
    setup["data"] = built - started

    def first_round() -> None:
        setup["calibrate"] = time.perf_counter() - built
        print(SETUP_MARKER, flush=True)
        probes = sorted(speed_probe() for _ in range(SETUP_PROBES))
        print(PROBE_MARKER + repr(probes[SETUP_PROBES // 2]), flush=True)
        if args.setup_only:
            raise SetupComplete

    tracer = Tracer() if args.trace else None
    timeline = Timeline(tracer, first_round)
    error = None
    try:
        outcome = workload.run(args.seconds, timeline)
    except SetupComplete:
        return 0
    except Exception:  # Reported as a failed run, with its traceback.
        error = traceback.format_exc()
        sys.stderr.write(error)
        outcome = Outcome(attempted=max(1, len(timeline.durations)))
        outcome.failed = outcome.attempted

    from repro.secagg.keys import x25519_available
    import numpy

    result = {
        "workload": workload.name,
        "params": workload.params,
        "durations": timeline.durations,
        "traced": timeline.traced,
        "probes": timeline.probes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "error": error,
        "included": outcome.included,
        "wire_bytes": outcome.wire_bytes,
        "phase_bytes": outcome.phase_bytes,
        "quality": outcome.quality,
        "setup": setup,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.per_round() if tracer is not None else None,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": _version("scipy"),
            "cryptography": _version("cryptography"),
        },
        "x25519_available": x25519_available(),
    }
    print(RESULT_MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
