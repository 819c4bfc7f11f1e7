"""One cold pass of a workload, in a fresh interpreter.

    python3 bench/one_pass.py WORKLOAD SEED PASS_ID SPAWNED_NS [--setup-only] [--trace FILE]

SPAWNED_NS is the parent's ``time.monotonic_ns()`` just before it started
this process, so set-up time counts interpreter start-up, ``import qgap``
and making the inputs, up to the first library call.  ``--setup-only`` stops
there.  ``--trace FILE`` wraps the qgap layers in spans and writes them to
FILE when the pass ends.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_REF_A = [pow(7, 60 + i, 10**60) for i in range(24)]
_REF_B = [pow(3, 80 + i, 10**60) for i in range(24)]


def reference_loop():
    """A fixed sample of the arithmetic qgap spends its time on: a bigint
    convolution and a chain of Fraction operations.  It does not use qgap,
    so a change to qgap cannot change its cost."""
    out = [0] * 47
    for i, x in enumerate(_REF_A):
        for j, y in enumerate(_REF_B):
            out[i + j] += x * y
    f = Fraction(1, 3)
    for k in range(1, 25):
        f = f * Fraction(k, k + 2) + Fraction(1, k)
    return out, f


class Metronome:
    """Times ``reference_loop`` every ``interval`` seconds during a pass, in
    the pass's own thread (from SIGALRM), plus once before and once after.
    Each tick runs the loop twice and times the second run, so the sample
    measures the processor's speed rather than cache refills after qgap.

    The speed of a shared machine drifts by tens of percent within seconds,
    and it drifts nearly alike for qgap and for this loop.  Pass time
    divided by the loop's mean time is therefore steady where raw wall time
    is not."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # time in ticks while the timer runs

    def _tick(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        reference_loop()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        return t2 - t0

    def _timed_tick(self, *_):
        self.spent += self._tick()

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._timed_tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False

    @property
    def unit_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("pass_id", type=int)
    ap.add_argument("spawned_ns", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args()

    if not (SRC / "qgap" / "__init__.py").is_file():
        print(f"one_pass: no qgap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qgap.congruence, qgap.quadratic, qgap.siegel  # noqa: E401,F401
    import oracles
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_id)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s}
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.pass_id)
        tracer.install()
        t0 = time.perf_counter()
        result = workloads.drive(args.workload, inputs)
        out["wall_s"] = time.perf_counter() - t0
        tracer.write(args.trace, {"workload": args.workload, "seed": args.seed,
                                  "wall_s": out["wall_s"]})
    else:
        with Metronome() as metronome:
            t0 = time.perf_counter()
            result = workloads.drive(args.workload, inputs)
            raw = time.perf_counter() - t0
        out["wall_s"] = raw - metronome.spent
        out["wall_ref"] = out["wall_s"] / metronome.unit_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    attempted, failed, notes = oracles.ORACLES[args.workload](
        workloads.reduce(args.workload, result), reference)
    out.update(attempted=attempted, failed=failed, notes=notes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
