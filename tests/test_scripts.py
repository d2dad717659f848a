"""The walkthroughs in scripts/ run end to end and print what they verify."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("verify_identities.py",),
            [
                "norm test xi = t2: no",
                "3-link at the unit orbit: degree 2, roundtrip identity: True",
                "6-link from sqrt(t2): degree 5, roundtrip identity: True",
                "hexagon relation: 6 links, identity: True, word: 1, merged: True",
            ],
        ),
        (
            ("hexagon_walk.py", "1", "1", "1"),
            ["composite is identity: True", "Psi(chain) = 1", "merged square core: True"],
        ),
        (
            ("hexagon_walk.py",),  # the general-position point [1:1:2]
            ["merged square core: False", "composite is identity: True", "Psi(chain) = 1"],
        ),
    ],
    ids=["verify_identities", "hexagon_walk", "hexagon_walk_general_position"],
)
def test_script_runs(argv, expected):
    done = _run(*argv)
    assert done.returncode == 0, done.stderr
    for line in expected:
        assert line in done.stdout
