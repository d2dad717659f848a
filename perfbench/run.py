"""Benchmark of the exact constructions in `sblinks`.

    python3 perfbench/run.py --workload link3|link6|hexagon|models \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own
single-threaded worker process, one process at a time.  With `--trace 0`
SETUP_SAMPLES workers set up, the last of which also runs ops for about
`S` seconds of op time, and the last line printed holds the end-to-end
metrics named in BENCHMARK.json; `setup_s` is the median over the workers.
Times are scaled to a reference host speed, sampled during the ops and
right after each set-up (see `worker.HostSampler`).  With
`--trace 1` one worker runs the workload's fixed traced op list and the
last line holds the per-layer metrics.  The line before it gives the
provenance of the result; the full report, with every op time and every
traced layer, is written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("link3", "link6", "hexagon", "models")
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes
DEADLINE_S = 170  # the whole run, workers included, ends by then


class BenchError(RuntimeError):
    pass


def spawn_worker(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return (set-up seconds measured from
    just before the process is started, the worker's report)."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    finally:
        timer.cancel()
        if proc.poll() is None:  # only when this run is being stopped
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    if first.strip() != "ready" or not lines:
        raise BenchError(f"{mode} worker printed no report")
    return setup_s, json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "sblinks").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def end_to_end(setups: list, report: dict) -> dict:
    """The end-to-end metrics from the set-up samples, each a pair of
    (seconds, host slowness just after), and the measuring worker's report.
    Times are divided by the host slowness measured next to them."""
    run = report["run"]
    return {
        "setup_s": statistics.median(s / slow for s, slow in setups),
        "ops_per_s": run["verified"] / sum(run["ref_op_s"]),
        "op_p50_s": statistics.median(run["ref_op_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def unscaled(setups: list, report: dict) -> dict:
    """The same time metrics as measured, before the host-speed scaling."""
    run = report["run"]
    return {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": run["verified"] / run["wall_s"],
        "op_p50_s": statistics.median(run["op_s"]),
    }


def per_layer(names, layers: dict) -> dict:
    out = {}
    for name in names:
        if name.startswith("trace."):
            out[name] = layers["trace"][name[len("trace."):]]
        elif name in layers["counters"]:
            out[name] = layers["counters"][name]
        else:
            layer, _, kind = name.rpartition(".")
            if kind not in ("calls", "self_s"):
                raise BenchError(f"unknown per-layer metric {name}")
            out[name] = layers["layers"].get(layer, {}).get(kind, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sblinks" / "__init__.py").is_file():
        raise BenchError(f"no sblinks sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        _, report = spawn_worker(args, "trace", deadline)
        values = per_layer([m["name"] for m in declared], report["layers"])
        runs = [report["untraced"], report["traced"]]
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, setup_report = spawn_worker(args, "setup", deadline)
            setups.append((setup_s, setup_report["setup_slowness"]))
        setup_s, report = spawn_worker(args, "measure", deadline)
        setups.append((setup_s, report["setup_slowness"]))
        report["setup_s_samples"] = setups
        values = end_to_end(setups, report)
        report["unscaled"] = unscaled(setups, report)
        runs = [report["run"]]

    attempted = sum(r["attempted"] for r in runs)
    failed = attempted - sum(r["verified"] for r in runs)
    report["failed_ops_frac"] = failed / attempted
    report["provenance"] = {
        "commit": git_commit(),
        "sblinks_sha256": source_digest(),
        "python": report["python"],
        "sympy": report["sympy"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "clock": "time.perf_counter",
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "provenance": report["provenance"],
        "failed_ops_frac": report["failed_ops_frac"],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


def _stop(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
