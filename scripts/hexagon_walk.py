#!/usr/bin/env python3
"""Walk the hexagon relation for a configurable second point.

Usage:
    python scripts/hexagon_walk.py            # general-position point [1:1:2]
    python scripts/hexagon_walk.py 1 1 1      # the merged (square-core) pair
"""

import sys
import time

from sblinks.field_tower import CubicExtension, TowerField
from sblinks.severi_brauer import (
    closed_point_from_seed,
    coordinate_3point,
    make_surface,
)
from sblinks.word_algebra import hexagon


def main():
    coords = [int(a) for a in sys.argv[1:4]] or [1, 1, 2]
    K = TowerField.rational(2)
    t1, t2 = K.t_var(0), K.t_var(1)
    L = K.extend("u", 3, t1)
    surface = make_surface(CubicExtension(L, "u"), t2.lift_to(L))
    p = coordinate_3point(surface)
    q = closed_point_from_seed(
        surface, tuple(L.scalar(c) for c in coords), L
    )
    print(f"p  = coordinate points, splitting {p.descriptor}")
    print(f"p' = orbit of {coords}, splitting {q.descriptor}")
    t0 = time.perf_counter()
    links, report = hexagon(surface, p, q)
    print(f"built {len(links)} links in {time.perf_counter() - t0:.1f}s")
    for i, link in enumerate(links, 1):
        print(
            f"  chi_{i}: {link.forward.source.xi!r} -> {link.forward.target.xi!r}"
            f"   base splitting {link.base_point.descriptor[0]}"
        )
    print(f"composite is identity: {report.composite_identity}")
    print(f"Psi(chain) = {report.word}")
    print(f"merged square core: {report.merged_square}")


if __name__ == "__main__":
    main()
