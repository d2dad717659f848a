#!/usr/bin/env python3
"""End-to-end verification run over K = Q(zeta)(t1, t2).

Builds the standard twisted surface S_{t2} over K[cbrt t1], checks the norm
certificate, both cubic models, a 3-link, the 6-link and the hexagon
relation, and prints a one-line summary per stage.
"""

import time

from sblinks.birational import (
    RationalMap,
    compose,
    equals,
    link_from_3point,
    link_from_6point,
)
from sblinks.cubic_models import (
    build_singular_model,
    build_smooth_model,
    order3_selfmap,
    verify_singular_model,
    verify_smooth_model,
)
from sblinks.field_tower import CubicExtension, TowerField, is_norm
from sblinks.severi_brauer import (
    coordinate_3point,
    make_surface,
    sixpoint_from_sqrt,
    unit_3point,
)
from sblinks.word_algebra import hexagon, psi_compose


def stage(name, fn):
    t0 = time.perf_counter()
    result = fn()
    print(f"[{time.perf_counter() - t0:6.2f}s] {name}: {result}")


def main():
    K = TowerField.rational(2)
    t1, t2 = K.t_var(0), K.t_var(1)
    L = K.extend("u", 3, t1)
    ext = CubicExtension(L, "u")
    surface = make_surface(ext, t2.lift_to(L))
    print(f"surface: {surface}")

    stage("norm test xi = t2", lambda: is_norm(ext, t2.lift_to(L)).status)

    def singular():
        model = build_singular_model(t1, t2)
        verify_singular_model(model)
        return model.equation_string()

    stage("singular cubic model", singular)

    def smooth():
        mu = (t2 - K.one()) / (K.scalar(27) * t1)
        model = build_smooth_model(t1, mu, K.one())
        verify_smooth_model(model)
        rho, chi1, chi2 = order3_selfmap(model)
        word = psi_compose([chi1, chi2])
        return f"rho^3 = id, Psi(rho) = {word}"

    stage("smooth cubic model + order-3 map", smooth)

    def link3():
        link = link_from_3point(surface, unit_3point(surface))
        rt = compose(link.backward.map, link.forward.map)
        return f"degree {link.forward.map.degree}, roundtrip identity: " + str(
            equals(rt, RationalMap.identity(L))
        )

    stage("3-link at the unit orbit", link3)

    def link6():
        p6 = sixpoint_from_sqrt(surface, t2)
        link = link_from_6point(surface, p6)
        rt = compose(link.backward.map, link.forward.map)
        return f"degree {link.forward.map.degree}, roundtrip identity: " + str(
            equals(rt, RationalMap.identity(p6.tower))
        )

    stage("6-link from sqrt(t2)", link6)

    def hexagon_run():
        links, report = hexagon(
            surface, coordinate_3point(surface), unit_3point(surface)
        )
        return (
            f"{len(links)} links, identity: {report.composite_identity}, "
            f"word: {report.word}, merged: {report.merged_square}"
        )

    stage("hexagon relation", hexagon_run)


if __name__ == "__main__":
    main()
