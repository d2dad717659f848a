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
    "multipoly.gcd": 171,
    "multipoly.subst": 10,
    "field_tower.mul": 560,
    "field_tower.inverse": 34,
    "scalars.qzeta_mul": 1884,
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
    "multipoly.gcd": 1284,
    "multipoly.exact_div": 1093,
    "field_tower.mul": 4060,
    "field_tower.inverse": 150,
    "scalars.qzeta_mul": 2089,
}

# models: both cubic models with their checks (sigma o psi's equivariance
# and the lines on the cubic derived, not re-checked), and the order-3 map (its
# second link aligned by one span solve, its backward map built in the free
# ring); only the section, whose coefficients carry radicals, takes the
# gcd over the tower, and rho-hat and the check's composites the flat ring
MODELS_COUNTS = {
    "multipoly.gcd_many_homogeneous": 1,
    "multipoly.gcd": 2639,
    "multipoly.exact_div": 2172,
    "field_tower.mul": 7750,
    "field_tower.inverse": 193,
    "scalars.qzeta_mul": 7456,
}

# Exact counts of the calls that prove a link's or a point's facts: the
# forward map's equivariance, the orbit table of a seed, the orbit of given
# components and the splitting field read off a stabiliser.  A normal-form
# 3-link derives its equivariance, and every 3-link's inverse base point and
# every point a certified link carries inherit their orbit data, so only
# fresh points and the descent or 6-link forward maps reach these.
PROOFS = (
    "birational.is_equivariant",
    "severi_brauer.closed_point_from_seed",
    "severi_brauer.make_closed_point",
    "severi_brauer.splitting_descriptor",
)


def _proofs(calls: dict) -> tuple:
    return tuple(calls.get(name, 0) for name in PROOFS)


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
    assert _proofs(calls) == (0, 0, 0, 0)
    # the link's round trip and the check's compose, one free walk each
    assert calls["field_tower.substitute_triple"] == 2


def test_link6_op_stays_within_its_budget():
    calls = _traced_calls("link6", 1)
    assert _over_budget(calls, LINK6_COUNTS) == {}
    # conics through five components of p and of q, quintics double at
    # p and at q, and the check's quintics at p: one elimination each
    assert calls["birational.curves_through"] == 5
    # the descent's forward map, and q read off one orbit table
    assert _proofs(calls) == (1, 1, 0, 1)
    assert calls["field_tower.substitute_triple"] == 2


def test_hexagon_op_stays_within_its_budget():
    calls = _traced_calls("hexagon", 1)
    assert _over_budget(calls, HEXAGON_COUNTS) == {}
    # the hexagon solves no base locus
    assert calls.get("birational.base_points", 0) == 0
    assert _proofs(calls) == (0, 0, 0, 0)


def test_models_op_stays_within_its_budget():
    calls = _traced_calls("models", 1)
    assert _over_budget(calls, MODELS_COUNTS) == {}
    assert calls["cubic_models.section_of_contraction"] == 1
    # sigma o psi and the two links' descents; the coordinate point and
    # the images of E3, E4, E5 are fresh points
    assert _proofs(calls) == (3, 0, 2, 2)
