"""The tracer: self time of nested and recursive spans, reach of the
wrapping, restoration of every original, and call counts that repeat."""

import json
import os
import subprocess
import sys

import pytest

import sblinks
import sblinks.sympy_bridge  # noqa: F401  (loaded before the tracer installs)
from perfbench.tracer import METHODS, Tracer
from perfbench.worker import run_traced
from perfbench.workloads import WORKLOADS

from conftest import ROOT


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.now += 2.0

    inner = tr.span("m.inner", inner)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 3.0
        inner()

    outer = tr.span("m.outer", outer)
    outer()
    assert tr.calls == {"m.outer": 1, "m.inner": 2}
    assert tr.self_s["m.outer"] == pytest.approx(4.0)
    assert tr.self_s["m.inner"] == pytest.approx(4.0)
    assert tr.top_level_s() == pytest.approx(8.0)


def test_self_time_of_recursive_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def gcd(n):
        clock.now += 1.0
        if n:
            gcd(n - 1)
        clock.now += 0.5

    gcd = tr.span("m.gcd", gcd)
    gcd(4)
    assert tr.calls["m.gcd"] == 5
    # each level's self time is its own 1.5, never its callees'
    assert tr.self_s["m.gcd"] == pytest.approx(7.5)
    assert tr.top_level_s() == pytest.approx(7.5)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    boom = tr.span("m.boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tr.calls["m.boom"] == 1
    assert tr.self_s["m.boom"] == pytest.approx(1.0)
    assert tr.top_level_s() == pytest.approx(1.0)


def _sblinks_modules():
    return [
        m
        for n, m in sys.modules.items()
        if (n == "sblinks" or n.startswith("sblinks.")) and m is not None
    ]


def _namespaces():
    state = {}
    for m in _sblinks_modules():
        for k, v in vars(m).items():
            state[(m.__name__, k)] = v
    for (mod, cls, meth) in METHODS:
        owner = getattr(sys.modules[f"sblinks.{mod}"], cls)
        state[(owner.__qualname__, meth)] = owner.__dict__[meth]
    return state


def test_wrapping_reaches_reexports_and_lazy_imports():
    from sblinks import birational, word_algebra
    from sblinks.multipoly import MPoly

    original = birational.compose
    with Tracer() as tr:
        assert sblinks.compose is birational.compose
        assert word_algebra.compose is birational.compose
        assert birational.compose is not original
        assert birational.compose.__wrapped__ is original

        K = sblinks.TowerField.rational(2)
        L = K.extend("u", 3, K.t_var(0))
        one = L.one()
        # x^2 - t2 has base coefficients, so _factor_over_base imports
        # factor_univariate_over_k lazily from sympy_bridge
        p = MPoly(1, {(2,): one, (0,): -K.t_var(1).lift_to(L)})
        factors = birational._factor_over_base(p, L)
    assert len(factors) == 1
    assert tr.calls["sympy_bridge.factor_univariate_over_k"] == 1
    assert birational.compose is original


def test_uninstall_restores_every_original():
    before = _namespaces()
    tr = Tracer()
    tr.install()
    during = _namespaces()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("sblinks.birational", "compose") in changed
    assert ("FieldElement", "__mul__") in changed
    tr.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_only_public_functions_are_wrapped():
    with Tracer():
        from sblinks import birational

        assert not hasattr(birational._normalize_coords, "__wrapped__")
        assert isinstance(birational.RationalMap, type)


def test_traced_op_accounts_for_its_wall_time():
    workload = WORKLOADS["hexagon"]()
    inputs, _ = workload.setup(7, 1)
    out = run_traced(workload, inputs)
    trace = out["layers"]["trace"]
    assert out["traced"]["verified"] == 1
    assert abs(trace["accounted_frac"] - 1.0) <= 0.05
    assert trace["remainder_s"] >= 0.0
    assert out["layers"]["layers"]["word_algebra.hexagon"]["calls"] == 1


@pytest.mark.parametrize("workload", ["hexagon", "link3"])
def test_call_counts_repeat_across_traced_runs(workload):
    """Two traced worker processes on one seed, under different hash seeds,
    count every call the same."""
    reports = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", "--workload", workload,
             "--seed", "3", "--mode", "trace"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode == 0, out.stderr
        reports.append(json.loads(out.stdout.splitlines()[-1])["layers"])
    a, b = reports
    assert {n: v["calls"] for n, v in a["layers"].items()} == {
        n: v["calls"] for n, v in b["layers"].items()
    }
    assert a["counters"] == b["counters"]
    assert a["layers"]["field_tower.mul"]["calls"] > 0
