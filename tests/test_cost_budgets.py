"""Deterministic cost budgets: upper bounds on the exact operation counts of
a traced bench op.  Wall times drift with the host, but traced call counts
repeat exactly, so a change that adds work to an op fails here even when
nobody runs the benchmark.  A change that must raise a bound says so, with
the reason; lowering one after a gain is routine."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The counts of the traced seed-1 ops when these bounds were set.  Each
# bound is the count plus a margin of a tenth, rounded down.

# link3: one link, its round trip and its base locus; both round trips
# (the link's and the check's compose) are decided in the free ring by
# `field_tower.substitute_triple`, with no projective gcd
LINK3_COUNTS = {
    "multipoly.gcd_many_homogeneous": 0,
    "multipoly.gcd": 185,
    "multipoly.subst": 13,
    "field_tower.mul": 620,
    "field_tower.inverse": 36,
    "scalars.qzeta_mul": 2080,
}

# link6: one link, its round trip and the bench's check, whose round trips
# take no projective gcd either
LINK6_COUNTS = {
    "multipoly.gcd_many_homogeneous": 0,
    "multipoly.gcd": 1543,
    "multipoly.exact_div": 1196,
    "field_tower.mul": 5991,
    "field_tower.inverse": 128,
    "scalars.qzeta_mul": 2022,
}

# hexagon: the merged hexagon at the coordinate and unit points (three
# links built, the square closed by one span solve) and the bench's check,
# whose six composites are all reduced in the flat ring
HEXAGON_COUNTS = {
    "multipoly.gcd_many_homogeneous": 0,
    "multipoly.gcd": 1419,
    "multipoly.exact_div": 1327,
    "field_tower.mul": 4678,
    "field_tower.inverse": 204,
    "scalars.qzeta_mul": 2309,
}

# models: both cubic models with their checks (sigma o psi's equivariance
# and the lines on the cubic derived, not re-checked), and the order-3 map (its
# second link aligned by one span solve, its backward map built in the free
# ring); only the section, whose coefficients carry radicals, takes the
# gcd over the tower, and rho-hat and the check's composites the flat ring
MODELS_COUNTS = {
    "multipoly.gcd_many_homogeneous": 1,
    "multipoly.gcd": 2804,
    "multipoly.exact_div": 2385,
    "field_tower.mul": 8050,
    "field_tower.inverse": 221,
    "scalars.qzeta_mul": 8828,
}


def _traced_calls(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", workload,
         "--seed", str(seed), "--mode", "trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    layers = json.loads(out.stdout.splitlines()[-1])["layers"]["layers"]
    return {name: v["calls"] for name, v in layers.items()}


def _over_budget(calls: dict, counts: dict) -> dict:
    return {
        name: calls.get(name, 0)
        for name, count in counts.items()
        if calls.get(name, 0) > count + count // 10
    }


def test_link3_op_stays_within_its_budget():
    calls = _traced_calls("link3", 1)
    assert _over_budget(calls, LINK3_COUNTS) == {}
    assert calls["birational.base_points"] == 1
    # the link's round trip and the check's compose, one free walk each
    assert calls["field_tower.substitute_triple"] == 2


def test_link6_op_stays_within_its_budget():
    calls = _traced_calls("link6", 1)
    assert _over_budget(calls, LINK6_COUNTS) == {}
    # conics through five components of p and of q, quintics double at
    # p and at q, and the check's quintics at p: one elimination each
    assert calls["birational.curves_through"] == 5
    assert calls["field_tower.substitute_triple"] == 2


def test_hexagon_op_stays_within_its_budget():
    calls = _traced_calls("hexagon", 1)
    assert _over_budget(calls, HEXAGON_COUNTS) == {}
    # the hexagon solves no base locus
    assert calls.get("birational.base_points", 0) == 0


def test_models_op_stays_within_its_budget():
    calls = _traced_calls("models", 1)
    assert _over_budget(calls, MODELS_COUNTS) == {}
    assert calls["cubic_models.section_of_contraction"] == 1
