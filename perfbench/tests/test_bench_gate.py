"""The output gate, seeded input generation and the run contract."""

import copy
import shutil
import signal
import subprocess
import sys
import time

import pytest

import sblinks
from sblinks.birational import apply_matrix
from sblinks.linalg import mat
from perfbench.run import end_to_end
from perfbench.worker import HostSampler, run_ops
from perfbench.workloads import InputError, WORKLOADS, Workload

from conftest import ROOT


def _tamper(link):
    """The link with its backward map replaced by diag(1, 1, 2) after it,
    built without the constructors so that their checks do not run."""
    L = link.forward.map.tower
    zero, one = L.zero(), L.one()
    diag = mat([[one, zero, zero], [zero, one, zero], [zero, zero, L.scalar(2)]])
    backward = copy.copy(link.backward)
    object.__setattr__(backward, "map", apply_matrix(diag, link.backward.map))
    out = copy.copy(link)
    object.__setattr__(out, "backward", backward)
    return out


def test_tampered_link_counts_as_failed():
    workload = WORKLOADS["link3"]()
    inputs, _ = workload.setup(11, 1)
    link = workload.build(inputs[0])
    assert workload.check(inputs[0], link) is True
    tampered = _tamper(link)
    assert workload.check(inputs[0], tampered) is False

    workload.build = lambda point: tampered
    run = run_ops(workload, inputs, None)
    assert run["attempted"] == 1 and run["verified"] == 0
    run["ref_op_s"] = run["op_s"]
    metrics = end_to_end([(1.0, 1.0)], {"run": run, "peak_rss_mb": 1.0})
    assert metrics["ops_per_s"] == 0.0


class _Clocked(Workload):
    """Each op takes one second of a fake clock."""

    name = "clocked"

    def __init__(self, clock):
        self.clock = clock

    def build(self, inp):
        self.clock.now += 1.0
        return inp

    def check(self, inp, out):
        return True


def test_run_ends_nearest_its_seconds():
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    for seconds, ops in ((3.4, 3), (3.6, 4), (0.1, 1)):
        clock = Clock()
        run = run_ops(_Clocked(clock), range(10), seconds, clock=clock)
        assert run["attempted"] == ops
        assert run["wall_s"] == pytest.approx(float(ops))


class _Spin(Workload):
    """Each op spins for half a second of wall time, samples included."""

    name = "spin"

    def build(self, inp):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        return inp

    def check(self, inp, out):
        return True


def test_host_samples_are_left_out_of_op_time():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSampler() as sampler:
        run = run_ops(_Spin(), range(2), None, sampler=sampler)
    assert run["samples"] >= 2 and run["slowness"] > 0
    assert run["ref_op_s"] == [d / s for d, s in zip(run["op_s"], run["op_slowness"])]
    assert sampler.busy_s > 0
    assert sum(run["op_s"]) == pytest.approx(1.0 - sampler.busy_s, abs=0.05)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_same_seed_same_inputs():
    a, na = WORKLOADS["link3"]().setup(5, 4)
    b, nb = WORKLOADS["link3"]().setup(5, 4)
    assert na == nb >= 4
    assert [p.component_set() for p in a] == [p.component_set() for p in b]
    assert len({frozenset(p.components) for p in a}) == 4


class _Rejecting(Workload):
    name = "rejecting"

    def candidate(self, rng):
        return None


class _Raising(Workload):
    name = "raising"

    def candidate(self, rng):
        raise TypeError("a bug, not a rejected input")


class _Degenerate(Workload):
    name = "degenerate"

    def candidate(self, rng):
        raise sblinks.errors.NotAnOrbit("rejected input")


def test_input_generation_is_capped_and_loud():
    with pytest.raises(InputError):
        _Rejecting().setup(1, 3)
    with pytest.raises(InputError):
        _Degenerate().setup(1, 3)
    with pytest.raises(TypeError):
        _Raising().setup(1, 3)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
