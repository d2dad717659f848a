"""One benchmark process: set up one workload, then run its ops.

Run from the repository root as `python3 -m perfbench.worker --workload W
--seed N --mode setup|measure|trace [--seconds S]`.  After set-up it prints
`ready` and flushes, so the parent can time set-up from process start; the
last line it prints is a JSON report.

- setup: set up and stop.
- measure: run ops, untraced, for about `--seconds` of op time, with the
  host's speed sampled all through them.
- trace: run the workload's fixed traced op list twice, untraced and then
  with every `sblinks` layer wrapped, so call counts repeat exactly and the
  wall-time ratio of the two passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Host-speed sampling.  On a shared host the speed of a core drifts by tens
# of percent over seconds to minutes, and CPU time drifts with it.  So a
# fixed piece of pure-Python work is timed all through the measured ops
# (HostSampler) and once right after set-up (host_slowness).  Slowness is
# the time of one unit of that work over REF_UNIT_S, its time on a 2.1 GHz
# vCPU; a time divided by it reads as seconds at that reference speed.
REF_UNIT_S = 0.0039
SAMPLE_PERIOD_S = 0.2  # one sample of SAMPLE_UNITS units per period of ops
SAMPLE_UNITS = 4
SETUP_CALIB_S = 0.3


def _calibration_polys(n=16, terms=12, seed=0):
    rng = random.Random(seed)
    return [
        {
            (rng.randint(0, 5), rng.randint(0, 5)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 9)
            )
            for _ in range(terms)
        }
        for _ in range(n)
    ]


_CALIB_POLYS = _calibration_polys()


def _calibration_unit():
    """Products of bivariate polynomials stored as dicts of exponents with
    `Fraction` coefficients: the kind of work `sblinks.multipoly` does, and
    so slowed by the host much as the ops are."""
    terms = 0
    for p, q in zip(_CALIB_POLYS[::2], _CALIB_POLYS[1::2]):
        r = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                k = (a + d, b + e)
                r[k] = r.get(k, 0) + c * f
        terms += len(r)
    return terms


def host_slowness(min_s, clock=time.perf_counter):
    """Run calibration units for at least `min_s` seconds and return the
    time of one unit over REF_UNIT_S."""
    units, t0 = 0, clock()
    while True:
        _calibration_unit()
        units += 1
        elapsed = clock() - t0
        if elapsed >= min_s:
            return elapsed / units / REF_UNIT_S


class HostSampler:
    """While active, a SIGALRM every SAMPLE_PERIOD_S of wall time runs
    SAMPLE_UNITS calibration units inside the op that is running and adds
    their time to `busy_s`.  An op's own time is its wall time minus the
    `busy_s` it accrued; the run's slowness is `busy_s` per unit over
    REF_UNIT_S, the host's speed sampled evenly over the ops."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.busy_s = 0.0
        self.units = 0
        self._inside = False

    def _sample(self, signum, frame):
        if self._inside:
            return
        self._inside = True
        t0 = self.clock()
        for _ in range(SAMPLE_UNITS):
            _calibration_unit()
        self.busy_s += self.clock() - t0
        self.units += SAMPLE_UNITS
        self._inside = False

    def slowness(self) -> float:
        if not self.units:  # a run shorter than one period
            self._sample(None, None)
        return self.busy_s / self.units / REF_UNIT_S

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def import_sblinks():
    """Import the `sblinks` of this checkout, and `sympy_bridge`, which the
    library otherwise imports lazily inside the first base-locus solve."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sblinks
    import sblinks.sympy_bridge  # noqa: F401

    if Path(sblinks.__file__).resolve().parent != src / "sblinks":
        raise ImportError(f"imported sblinks from {sblinks.__file__}, not {src}")
    return sblinks


def run_ops(workload, inputs, seconds, clock=time.perf_counter, sampler=None):
    """Run ops over `inputs` in order.  With `seconds`, stop once the next
    op, taken to last the median op time so far, would make the op time
    end further past `seconds` than stopping now falls short of it.  An op
    fails when it raises an `SblinksError` or its check does not hold.
    With a running HostSampler, op times leave out its samples, and each
    op's `ref_op_s` is its time divided by the host's slowness over the
    samples it ran (over the whole run for an op too short to run one)."""
    from sblinks.errors import SblinksError

    durations, op_samples, verified = [], [], 0
    for inp in inputs:
        busy0, units0 = (sampler.busy_s, sampler.units) if sampler else (0.0, 0)
        t0 = clock()
        try:
            ok = workload.check(inp, workload.build(inp)) is True
        except SblinksError:
            traceback.print_exc()
            ok = False
        t1 = clock()
        if sampler is None:
            durations.append(t1 - t0)
        else:
            durations.append(t1 - t0 - (sampler.busy_s - busy0))
            op_samples.append((sampler.busy_s - busy0, sampler.units - units0))
        verified += ok
        if seconds is not None and (
            sum(durations) + statistics.median(durations) / 2 > seconds
        ):
            break
    run = {
        "wall_s": sum(durations),
        "op_s": durations,
        "attempted": len(durations),
        "verified": verified,
    }
    if sampler is not None:
        run["slowness"] = sampler.slowness()
        run["samples"] = sampler.units // SAMPLE_UNITS
        run["op_slowness"] = [
            busy / units / REF_UNIT_S if units else run["slowness"]
            for busy, units in op_samples
        ]
        run["ref_op_s"] = [d / s for d, s in zip(durations, run["op_slowness"])]
    return run


def run_traced(workload, inputs):
    from perfbench.tracer import Tracer

    untraced = run_ops(workload, inputs, None)
    tracer = Tracer()
    with tracer:
        traced = run_ops(workload, inputs, None)
    op_wall = sum(traced["op_s"])
    remainder = op_wall - tracer.top_level_s()
    snap = tracer.snapshot()
    self_total = sum(v["self_s"] for v in snap["layers"].values())
    snap["trace"] = {
        "overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
        "op_wall_s": op_wall,
        "remainder_s": remainder,
        "accounted_frac": (self_total + remainder) / op_wall,
    }
    return {"untraced": untraced, "traced": traced, "layers": snap}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)

    import_sblinks()
    import sympy

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    seconds = None if args.mode == "trace" else args.seconds
    inputs, attempts = workload.setup(args.seed, workload.inputs_for(seconds))
    print("ready", flush=True)

    report = {
        "setup_slowness": host_slowness(SETUP_CALIB_S),
        "inputs": len(inputs),
        "input_attempts": attempts,
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
    }
    if args.mode == "measure":
        with HostSampler() as sampler:
            report["run"] = run_ops(workload, inputs, seconds, sampler=sampler)
    elif args.mode == "trace":
        report.update(run_traced(workload, inputs))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
