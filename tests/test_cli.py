import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sblinks.cli import run
from sblinks.errors import ParseError
from sblinks.exprparse import parse_element
from sblinks.field_tower import TowerField


def test_bound_pass(capsys):
    assert run(["bound", "--m", "2", "--d", "6", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "5/2" in out


def test_bound_json(capsys):
    assert run(["bound", "--json", "--m", "2", "--d", "6", "--n", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    for line in lines:
        obj = json.loads(line)
        assert obj["status"] == "pass"
        assert obj["payload"]["bound"] == "5/2"


def test_json_before_or_after_subcommand(capsys):
    for argv in (
        ["--json", "norm-test", "--xi", "t2"],
        ["norm-test", "--json", "--xi", "t2"],
        ["--json", "bound", "--a", "4"],
        ["bound", "--a", "4", "--json"],
    ):
        assert run(argv) == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["status"] == "pass"
    assert run(["norm-test", "--xi", "t2"]) == 0
    assert capsys.readouterr().out.startswith("[PASS")


def test_bound_small_e_fails(capsys):
    assert run(["bound", "--m", "2", "--d", "3", "--n", "2"]) == 1


def test_norm_test_no(capsys):
    assert run(["norm-test", "--xi", "t2", "--lambda", "t1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["payload"]["result"] == "no"
    assert obj["payload"]["certificate"]["kind"] == "norm-degree"


def test_norm_test_yes(capsys):
    assert run(["norm-test", "--xi", "t1", "--lambda", "t1"]) == 0
    assert "yes" in capsys.readouterr().out


def test_norm_test_unknown_exit_code(capsys):
    # 1 + t1 is a norm, but lies outside the decidable fragment
    assert run(["norm-test", "--xi", "1+t1", "--lambda", "t1"]) == 2


def test_usage_error_exit_64(capsys):
    assert run(["nonsense-command"]) == 64
    assert run(["bound", "--m", "2"]) == 64


def test_non_positive_counts_are_usage_errors(capsys):
    for argv in (
        ["norm-test", "--n-vars", "-1", "--lambda", "2", "--xi", "3"],
        ["norm-test", "--n-vars", "0"],
        ["cocycle", "--count", "-5"],
        ["cocycle", "--count", "0"],
        ["psi", "--count", "-3"],
        ["psi", "--count", "0"],
    ):
        assert run(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive integer" in captured.err


def test_parse_error_exit_65(capsys):
    assert run(["norm-test", "--xi", "t9", "--lambda", "t1"]) == 65
    assert run(["norm-test", "--xi", "t2 +", "--lambda", "t1"]) == 65
    # literals must stay in the base field
    assert run(["norm-test", "--xi", "cbrt(t2)", "--lambda", "t1"]) == 65


def test_zero_to_a_negative_power_is_a_parse_error(capsys):
    for text in ("0^-1", "(t1 - t1)^-2", "2*0^-3"):
        assert run(["norm-test", "--xi", text, "--lambda", "t1"]) == 65
        assert "zero to a negative power" in capsys.readouterr().err
    with pytest.raises(ParseError, match="zero to a negative power"):
        parse_element("0^-1", TowerField.rational(1))
    assert run(["norm-test", "--xi", "t2^-1*0^0", "--lambda", "t1"]) == 0


def test_zero_radicand_and_zero_xi_are_usage_errors(capsys):
    for argv, flag in (
        (["norm-test", "--lambda", "0"], "--lambda"),
        (["hexagon", "--lambda", "t1 - t1"], "--lambda"),
        (["point", "--kind", "coords", "--xi", "0"], "--xi"),
        (["link3", "--xi", "0*t2"], "--xi"),
    ):
        assert run(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be nonzero" in captured.err


def test_zero_unit_literals_are_usage_errors(capsys):
    """Every literal that must be a unit is checked before the check runs,
    in the subcommands that build inside it too."""
    for argv, message in (
        (["model-smooth", "--lambda", "0"], "--lambda must be nonzero"),
        (["model-smooth", "--mu", "0"], "--mu must be nonzero"),
        (["order3", "--mu", "t1 - t1"], "--mu must be nonzero"),
        (["model-smooth", "--xi", "0"], "--xi must be nonzero"),
        (["order3", "--xi", "8", "--nu", "2"], "--xi equals --nu^3, so mu = 0"),
        (["norm-test", "--xi", "0"], "--xi must be nonzero"),
        (["model-singular", "--lambda", "0"], "--lambda must be nonzero"),
        (["model-singular", "--xi", "0"], "--xi must be nonzero"),
        (["surface-iso", "--xi2", "0"], "--xi2 must be nonzero"),
        (["link6", "--alpha", "0"], "--alpha must be nonzero"),
        (["point", "--kind", "six", "--alpha", "0"], "--alpha must be nonzero"),
    ):
        assert run(argv + ["--json"]) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    # nu is not a unit the library needs: nu = 0 builds the model
    assert run(["model-smooth", "--nu", "0"]) == 0


def test_literals_are_parsed_before_the_check(capsys):
    for argv in (
        ["point", "--kind", "six", "--alpha", "t9"],
        ["model-smooth", "--mu", "t9"],
        ["order3", "--nu", "t9"],
        ["model-smooth", "--xi", "t9"],
    ):
        assert run(argv + ["--json"]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "variable t9 out of range" in captured.err
    # --alpha is read only for the six-point, so a one-variable base with
    # the default alpha t2 still builds the coordinate point
    assert run(["point", "--kind", "coords", "--n-vars", "1", "--xi", "2"]) == 0


def test_literals_are_elements_of_the_tower_they_are_parsed_in():
    K = TowerField.rational(2)
    t1 = K.t_var(0)
    assert parse_element("t1^2 - zeta/3", K) == t1 ** 2 - K.zeta() / K.scalar(3)
    for text in ("cbrt(t2)", "sqrt(t1)", "u"):
        with pytest.raises(ParseError, match="unknown name"):
            parse_element(text, K)


def _seed_of_report(capsys):
    return json.loads(capsys.readouterr().out)["parameters"]["seed"]


def test_cocycle(monkeypatch, capsys):
    monkeypatch.setenv("SBK_SEED", "12345")
    assert run(["cocycle", "--json", "--count", "5", "--seed", "7"]) == 0
    assert _seed_of_report(capsys) == 7


def test_surface_iso(capsys):
    assert run(["surface-iso", "--xi", "t2", "--xi2", "1/t2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["payload"]["result"] == "no"


def test_point_six_records_alpha(capsys):
    """--alpha decides the six-point, so its report records it, also when
    the point cannot be built; the other kinds do not read it."""
    assert run(["point", "--kind", "six", "--alpha", "4", "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["parameters"] == {"lambda": "t1", "xi": "t2", "kind": "six", "alpha": "4"}
    assert obj["payload"]["error"].startswith("AlphaIsSquare")
    assert run(["point", "--kind", "six", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["alpha"] == "t2"
    assert run(["point", "--kind", "coords", "--alpha", "4", "--json"]) == 0
    assert "alpha" not in json.loads(capsys.readouterr().out)["parameters"]


def test_point_second(capsys):
    assert run(["point", "--kind", "second"]) == 0
    out = capsys.readouterr().out
    assert "degree=3" in out


def test_psi(monkeypatch, capsys):
    monkeypatch.setenv("SBK_SEED", "12345")
    assert run(["psi", "--json", "--count", "100", "--seed", "3"]) == 0
    assert _seed_of_report(capsys) == 3


def test_link3(capsys):
    for point in ("coords", "unit"):
        assert run(["link3", "--point", point, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["base_points_match"] is True


# Runs `sblinks --json link3 --point unit` in a fresh interpreter and says
# afterwards whether sympy was imported.
_LINK3_WITHOUT_SYMPY = """
import sys
from sblinks.cli import run
code = run(["--json", "link3", "--point", "unit"])
print("sympy imported" if "sympy" in sys.modules else "sympy not imported")
sys.exit(code)
"""


def test_link3_cli_does_not_import_sympy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _LINK3_WITHOUT_SYMPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report, verdict = done.stdout.splitlines()
    assert json.loads(report)["payload"]["base_points_match"] is True
    assert verdict == "sympy not imported"


def test_expression_grammar(capsys):
    # rationals, zeta, powers, parentheses; the constant ratio 2/3 is outside
    # the decidable norm fragment, so the check may legitimately be undecided
    rc = run(["surface-iso", "--xi", "(2/3)*t2^2", "--xi2", "t2^2", "--json"])
    assert rc in (0, 2)
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["status"] in ("pass", "unknown")
    # a fragment-decidable literal with all grammar pieces
    assert (
        run(["surface-iso", "--xi", "8*t2^3*(t1 - t1)+t2", "--xi2", "t2", "--json"])
        == 0
    )
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["payload"]["result"] == "yes"


def test_one_report_of_valid_json(capsys):
    assert run(["bound", "--json", "--a", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["check"] == "bound"


def test_sbk_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("SBK_SEED", "12345")
    assert run(["cocycle", "--json", "--count", "3"]) == 0
    assert _seed_of_report(capsys) == 12345
    monkeypatch.setenv("SBK_SEED", "999")
    assert run(["psi", "--json", "--count", "50"]) == 0
    assert _seed_of_report(capsys) == 999


def test_non_integer_sbk_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SBK_SEED", "abc")
    assert run(["cocycle", "--count", "1"]) == 64
    assert "SBK_SEED must be an integer" in capsys.readouterr().err


def test_seed_only_on_randomized_suites(capsys):
    assert run(["link3", "--seed", "1"]) == 64


# payload keys of the subcommands that no other test runs
PAYLOAD_KEYS = {
    "link6": {"rank", "forward_degree", "splitting"},
    "hexagon": {
        "links", "composite_identity", "word_trivial", "merged_square", "descriptors",
    },
    "model-singular": {
        "factorization",
        "singular_points",
        "psi_equivariant_to_op",
        "sigma_psi_equivariant",
        "fibration_specialization",
        "equation",
    },
    "model-smooth": {
        "xi_norm_status",
        "lines_on_cubic",
        "lines_disjoint",
        "galois_orbits",
        "incidence_table",
        "aaa_identity",
        "fundamental_identity",
        "contraction_equivariant",
    },
    "order3": {"rho_degree", "chi1_splitting", "chi2_splitting", "psi_word"},
}


@pytest.mark.parametrize("command", PAYLOAD_KEYS)
def test_subcommand_json_report(command, capsys):
    assert run([command, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["check"] == command
    assert obj["status"] == "pass"
    assert set(obj["payload"]) == PAYLOAD_KEYS[command]


def test_link6_at_a_non_monomial_radicand(capsys):
    assert run(["--json", "link6", "--alpha", "t2 + 1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["check"] == "link6"
    assert obj["status"] == "pass"
    assert set(obj["payload"]) == PAYLOAD_KEYS["link6"]
