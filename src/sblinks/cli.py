"""Command-line front end: named verification suites with machine-readable
reports.

Each invocation runs one check and prints one report.  Exit codes: 0 the
check passes, 1 it fails, 2 it is undecided, 64 usage error, 65 literal
parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ParseError, SblinksError
from .exprparse import parse_element
from .field_tower import (
    CubicExtension,
    TowerField,
    is_norm,
    norm,
    recheck_norm_certificate,
)
from .genus_bounds import covgen_from_min_degree, covgen_lower_bound


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


@dataclass
class Report:
    check: str
    parameters: dict
    status: str  # pass | fail | unknown
    payload: dict = dc_field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self):
        return {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
            "payload": self.payload,
            "elapsed": round(self.elapsed, 4),
        }

    def human(self):
        extra = ""
        if self.payload:
            extra = " " + ", ".join(f"{k}={v}" for k, v in self.payload.items())
        return f"[{self.status.upper():7s}] {self.check} ({self.elapsed:.2f}s){extra}"


def _timed(check, params, fn):
    t0 = time.perf_counter()
    try:
        status, payload = fn()
    except SblinksError as e:
        status, payload = "fail", {"error": f"{type(e).__name__}: {e}"}
    return Report(check, params, status, payload, time.perf_counter() - t0)


def _base(args) -> TowerField:
    return TowerField.rational(args.n_vars)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get("SBK_SEED", "20240611")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"SBK_SEED must be an integer, not {text!r}") from None


def _random_base_monomial(rng, tower: TowerField):
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        c = -c
    e = tower.scalar(c)
    for i in range(tower.nvars):
        e = e * tower.t_var(i) ** rng.randint(0, 2)
    if e.is_zero():
        return tower.one()
    return e


def _nonzero(text: str, base: TowerField, flag: str):
    """The literal of a flag that must be a unit of K; zero is a usage
    error, found before the check runs."""
    x = parse_element(text, base)
    if x.is_zero():
        raise UsageError(f"{flag} must be nonzero")
    return x


def _extension(args):
    """The base field K and the extension L = K[cbrt lambda] of --lambda."""
    base = _base(args)
    lam = _nonzero(args.lam, base, "--lambda")
    return base, CubicExtension(base.extend("u", 3, lam), "u")


def _surface_for(args):
    from .severi_brauer import make_surface

    base, ext = _extension(args)
    xi = _nonzero(args.xi, base, "--xi")
    return make_surface(ext, xi.lift_to(ext.tower)), base


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_norm_test(args):
    base, ext = _extension(args)
    xi = _nonzero(args.xi, base, "--xi").lift_to(ext.tower)

    def run():
        res = is_norm(ext, xi)
        payload = {"result": res.status}
        if res.status == "yes":
            ok = norm(ext, res.witness) == xi
            payload["witness"] = repr(res.witness)
            return ("pass" if ok else "fail"), payload
        if res.status == "no":
            ok = recheck_norm_certificate(ext, xi, res.certificate)
            payload["certificate"] = res.certificate
            return ("pass" if ok else "fail"), payload
        return "unknown", payload

    return _timed("norm-test", {"lambda": args.lam, "xi": args.xi}, run)


def cmd_cocycle(args):
    from .severi_brauer import make_surface

    base, ext = _extension(args)
    seed = _seed(args)
    rng = random.Random(seed)

    def run():
        # each surface checks its cocycle on construction and raises
        # SblinksError when nu g(nu) g^2(nu) is not scalar
        for _ in range(args.count):
            make_surface(ext, _random_base_monomial(rng, base).lift_to(ext.tower))
        return "pass", {"count": args.count}

    params = {"lambda": args.lam, "count": args.count, "seed": seed}
    return _timed("cocycle", params, run)


def cmd_surface_iso(args):
    from .severi_brauer import is_isomorphic, make_surface

    base, ext = _extension(args)
    xi1 = _nonzero(args.xi, base, "--xi")
    xi2 = _nonzero(args.xi2, base, "--xi2")

    def run():
        s1 = make_surface(ext, xi1.lift_to(ext.tower))
        s2 = make_surface(ext, xi2.lift_to(ext.tower))
        res = is_isomorphic(s1, s2)
        if res.status == "unknown":
            return "unknown", {"result": "unknown"}
        return "pass", {"result": res.status}

    return _timed(
        "surface-iso", {"lambda": args.lam, "xi": args.xi, "xi2": args.xi2}, run
    )


def cmd_point(args):
    from .severi_brauer import (
        coordinate_3point,
        second_3point,
        sixpoint_from_sqrt,
        unit_3point,
    )

    surface, base = _surface_for(args)
    alpha = _nonzero(args.alpha, base, "--alpha") if args.kind == "six" else None

    def run():
        if args.kind == "coords":
            pt = coordinate_3point(surface)
        elif args.kind == "unit":
            pt = unit_3point(surface)
        elif args.kind == "second":
            pt = second_3point(surface)
        else:
            pt = sixpoint_from_sqrt(surface, alpha.lift_to(surface.tower))
        return "pass", {
            "degree": pt.degree,
            "splitting": list(pt.descriptor),
            "components": len(pt.components),
        }

    params = {"lambda": args.lam, "xi": args.xi, "kind": args.kind}
    if args.kind == "six":
        params["alpha"] = args.alpha
    return _timed("point", params, run)


def cmd_link3(args):
    from .birational import base_points, link_from_3point
    from .severi_brauer import coordinate_3point, unit_3point

    surface, base = _surface_for(args)

    def run():
        pt = (
            coordinate_3point(surface)
            if args.point == "coords"
            else unit_3point(surface)
        )
        # raises unless the forward degree is 2, backward o forward = id and
        # both base points have one splitting field
        link = link_from_3point(surface, pt)
        bp_match = set(base_points(link.forward.map)) == link.base_point.component_set()
        payload = {
            "forward_degree": link.forward.map.degree,
            "roundtrip_identity": True,
            "splitting": list(link.base_point.descriptor),
            "base_points_match": bp_match,
        }
        return ("pass" if bp_match else "fail"), payload

    return _timed(
        "link3", {"lambda": args.lam, "xi": args.xi, "point": args.point}, run
    )


def cmd_link6(args):
    from .birational import link_from_6point
    from .severi_brauer import sixpoint_from_sqrt

    surface, base = _surface_for(args)
    alpha = _nonzero(args.alpha, base, "--alpha")

    def run():
        pt = sixpoint_from_sqrt(surface, alpha.lift_to(surface.tower))
        # raises SpecialPosition unless the double-point system has rank 18,
        # and SblinksError unless the forward degree is 5 and the raw
        # backward o forward is proportional to (x, y, z), the round trip
        link = link_from_6point(surface, pt)
        return "pass", {
            "rank": 18,
            "forward_degree": link.forward.map.degree,
            "splitting": list(pt.descriptor),
        }

    return _timed(
        "link6", {"lambda": args.lam, "xi": args.xi, "alpha": args.alpha}, run
    )


def cmd_hexagon(args):
    from .severi_brauer import coordinate_3point, unit_3point
    from .word_algebra import hexagon

    surface, base = _surface_for(args)

    def run():
        p = coordinate_3point(surface)
        q = unit_3point(surface)
        links, report = hexagon(surface, p, q)
        ok = report.ok() and len(links) == 6
        return ("pass" if ok else "fail"), {
            "links": len(links),
            "composite_identity": report.composite_identity,
            "word_trivial": report.word.is_empty(),
            "merged_square": report.merged_square,
            "descriptors": [list(d) for d in report.descriptors],
        }

    return _timed("hexagon", {"lambda": args.lam, "xi": args.xi}, run)


def cmd_model_singular(args):
    from .cubic_models import build_singular_model, verify_singular_model

    base = _base(args)
    lam = _nonzero(args.lam, base, "--lambda")
    xi = _nonzero(args.xi, base, "--xi")

    def run():
        model = build_singular_model(lam, xi)
        report = verify_singular_model(model)
        payload = dict(report)
        payload["equation"] = model.equation_string()
        return "pass", payload

    return _timed("model-singular", {"lambda": args.lam, "xi": args.xi}, run)


def _smooth_model_builder(args):
    """Parse the literals of a smooth-model subcommand; return the function
    that builds the model, run inside the timed check."""
    from .cubic_models import build_smooth_model

    base = _base(args)
    lam = _nonzero(args.lam, base, "--lambda")
    nu = parse_element(args.nu, base)
    if args.mu is not None:
        mu = _nonzero(args.mu, base, "--mu")
    elif args.xi is None:
        raise UsageError("model-smooth needs --mu or --xi")
    else:
        xi = _nonzero(args.xi, base, "--xi")
        mu = (xi - nu ** 3) / (base.scalar(27) * lam)
        if mu.is_zero():
            raise UsageError("--xi equals --nu^3, so mu = 0")
    return lambda: build_smooth_model(lam, mu, nu)


def cmd_model_smooth(args):
    from .cubic_models import verify_smooth_model

    build = _smooth_model_builder(args)

    def run():
        model = build()
        report = verify_smooth_model(model)
        return "pass", report

    return _timed(
        "model-smooth",
        {"lambda": args.lam, "mu": args.mu, "nu": args.nu, "xi": args.xi},
        run,
    )


def cmd_order3(args):
    from .cubic_models import order3_selfmap, verify_smooth_model
    from .word_algebra import psi_compose

    build = _smooth_model_builder(args)

    def run():
        model = build()
        verify_smooth_model(model)
        rho, chi1, chi2 = order3_selfmap(model)
        word = psi_compose([chi1, chi2])
        distinct = (
            chi1.base_point.descriptor != chi2.base_point.descriptor
        )
        return ("pass" if distinct else "fail"), {
            "rho_degree": rho.map.degree,
            "chi1_splitting": list(chi1.base_point.descriptor),
            "chi2_splitting": list(chi2.base_point.descriptor),
            "psi_word": word.to_json(),
        }

    return _timed(
        "order3",
        {"lambda": args.lam, "nu": args.nu, "xi": args.xi, "mu": args.mu},
        run,
    )


def cmd_psi(args):
    from .word_algebra import (
        LinkClass,
        project_basepoint,
        reduce as word_reduce,
        word_from_list,
    )

    seed = _seed(args)
    rng = random.Random(seed)
    classes = [LinkClass(3, (f"3:c{i}",)) for i in range(4)] + [
        LinkClass(6, (f"6:q{i}",), invariant_only=True) for i in range(3)
    ]

    def run():
        for _ in range(args.count):
            word = tuple(
                (rng.choice(classes), rng.randint(-4, 4)) for _ in range(rng.randint(0, 9))
            )
            reduced = word_reduce(word)
            if word_reduce(reduced.syllables) != reduced:
                return "fail", {"word": [str(w) for w in word]}
            cut = rng.randint(0, len(word))
            left = word_reduce(word[:cut])
            right = word_reduce(word[cut:])
            if left * right != reduced:
                return "fail", {"assoc": [str(w) for w in word]}
        c0, c1 = classes[0], classes[1]
        if not word_from_list([(c0, 3), (c1, -3)]).is_empty():
            return "fail", {"case": "3x - 3y"}
        if project_basepoint(
            word_from_list([(c0, 1), (c1, -1)]), c0
        ) != word_from_list([(c1, -1)]):
            return "fail", {"case": "projection"}
        return "pass", {"count": args.count}

    return _timed("psi", {"count": args.count, "seed": seed}, run)


def cmd_bound(args):
    def run():
        if args.a is not None:
            b = covgen_from_min_degree(args.a)
            return "pass", {"a": args.a, "bound": str(b)}
        if args.m is None or args.d is None or args.n is None:
            raise UsageError("bound needs --m, --d and --n (or --a)")
        e, b = covgen_lower_bound(args.m, args.d, args.n)
        return "pass", {"e": e, "bound": str(b)}

    params = {"m": args.m, "d": args.d, "n": args.n, "a": args.a}
    return _timed("bound", params, run)


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> _Parser:
    p = _Parser(prog="sblinks", description=__doc__)
    p.add_argument("--json", action="store_true", help="one JSON report per line")
    sub = p.add_subparsers(dest="command", required=True)

    def json_flag(sp):
        # no default here, or the subcommand would overwrite a --json given
        # before it
        sp.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    def common(sp, xi=True):
        json_flag(sp)
        sp.add_argument("--lambda", dest="lam", default="t1")
        if xi:
            sp.add_argument("--xi", default="t2")
        sp.add_argument("--n-vars", type=positive_int, default=2)

    sp = sub.add_parser("norm-test", help="norm membership with certificates")
    common(sp)
    sp.set_defaults(fn=cmd_norm_test)

    sp = sub.add_parser("cocycle", help="cocycle condition on random twists")
    common(sp, xi=False)
    sp.add_argument("--count", type=positive_int, default=20)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_cocycle)

    sp = sub.add_parser("surface-iso", help="twist isomorphism test")
    common(sp)
    sp.add_argument("--xi2", required=True)
    sp.set_defaults(fn=cmd_surface_iso)

    sp = sub.add_parser("point", help="closed point constructions")
    common(sp)
    sp.add_argument("--kind", choices=["coords", "unit", "second", "six"], default="second")
    sp.add_argument("--alpha", default="t2")
    sp.set_defaults(fn=cmd_point)

    sp = sub.add_parser("link3", help="Sarkisov 3-link construction and checks")
    common(sp)
    sp.add_argument("--point", choices=["coords", "unit"], default="unit")
    sp.set_defaults(fn=cmd_link3)

    sp = sub.add_parser("link6", help="Sarkisov 6-link construction and checks")
    common(sp)
    sp.add_argument("--alpha", default="t2")
    sp.set_defaults(fn=cmd_link6)

    sp = sub.add_parser("hexagon", help="the six-link elementary relation")
    common(sp)
    sp.set_defaults(fn=cmd_hexagon)

    sp = sub.add_parser("model-singular", help="singular cubic model identities")
    common(sp)
    sp.set_defaults(fn=cmd_model_singular)

    sp = sub.add_parser("model-smooth", help="smooth cubic model identities")
    common(sp)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--nu", default="1")
    sp.set_defaults(fn=cmd_model_smooth)

    sp = sub.add_parser("order3", help="order-3 self-map and its two links")
    common(sp)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--nu", default="1")
    sp.set_defaults(fn=cmd_order3)

    sp = sub.add_parser("psi", help="word algebra self-checks")
    json_flag(sp)
    sp.add_argument("--count", type=positive_int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_psi)

    sp = sub.add_parser("bound", help="covering genus lower bounds")
    json_flag(sp)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.set_defaults(fn=cmd_bound)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    try:
        report = args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 65
    print(json.dumps(report.to_json(), default=str) if args.json else report.human())
    return {"fail": 1, "unknown": 2}.get(report.status, 0)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
