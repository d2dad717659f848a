import hashlib
import json

import pytest
from hypothesis import settings

from sblinks.field_tower import CubicExtension, TowerField
from sblinks.severi_brauer import (
    coordinate_3point,
    make_surface,
    sixpoint_from_sqrt,
    unit_3point,
)

# Every run draws the same examples: each test's seed is derived from the
# test itself (and no example database is replayed).
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


@pytest.fixture(scope="session")
def K2():
    return TowerField.rational(2)


@pytest.fixture(scope="session")
def t_vars(K2):
    return K2.t_var(0), K2.t_var(1)


@pytest.fixture(scope="session")
def L(K2, t_vars):
    t1, _ = t_vars
    return K2.extend("u", 3, t1)


@pytest.fixture(scope="session")
def ext(L):
    return CubicExtension(L, "u")


@pytest.fixture(scope="session")
def surface(ext, t_vars, L):
    _, t2 = t_vars
    return make_surface(ext, t2.lift_to(L))


@pytest.fixture(scope="session")
def coord_point(surface):
    return coordinate_3point(surface)


@pytest.fixture(scope="session")
def unit_point(surface):
    return unit_3point(surface)


@pytest.fixture(scope="session")
def six_point(surface, t_vars):
    _, t2 = t_vars
    return sixpoint_from_sqrt(surface, t2)


@pytest.fixture(scope="session")
def link_at_coords(surface, coord_point):
    from sblinks.birational import link_from_3point

    return link_from_3point(surface, coord_point)


@pytest.fixture(scope="session")
def link_at_unit(surface, unit_point):
    from sblinks.birational import link_from_3point

    return link_from_3point(surface, unit_point)


@pytest.fixture(scope="session")
def six_link(surface, six_point):
    from sblinks.birational import link_from_6point

    return link_from_6point(surface, six_point)


def _link_json(link):
    return {
        "forward": link.forward.to_json(),
        "backward": link.backward.to_json(),
        "base_point": link.base_point.to_json(),
        "inverse_base_point": link.inverse_base_point.to_json(),
        "degree_class": link.degree_class,
    }


@pytest.fixture(scope="session")
def link_json():
    """A link's JSON form: both twisted maps, both base points and the
    degree class."""
    return _link_json


@pytest.fixture(scope="session")
def link_sha():
    """SHA-256 of a link's JSON form."""

    def sha(link):
        text = json.dumps(_link_json(link), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    return sha


@pytest.fixture(scope="session")
def assert_link_facts():
    """Assert every fact of a link independently of how it was made: both
    maps are equivariant between swapped surfaces, backward o forward and
    forward o backward are the identity on the raw composites, the base
    points share a splitting field and the forward degree fits the class."""
    from sblinks.birational import RationalMap, _composes_to, is_equivariant

    def check(link):
        fwd, bwd = link.forward, link.backward
        assert (bwd.source, bwd.target) == (fwd.target, fwd.source)
        assert is_equivariant(fwd.map, fwd.source, fwd.target)
        assert is_equivariant(bwd.map, bwd.source, bwd.target)
        identity = RationalMap.identity(fwd.map.tower).coords
        assert _composes_to(bwd.map, fwd.map, identity)
        assert _composes_to(fwd.map, bwd.map, identity)
        assert link.base_point.descriptor == link.inverse_base_point.descriptor
        assert fwd.map.degree == {3: 2, 6: 5}[link.degree_class]

    return check


@pytest.fixture(scope="session")
def assert_orbit_data_rebuilt():
    """Assert the orbit data that a 3-link derives against the references
    that prove them: its forward map is equivariant, its inverse base point
    is the orbit table's point on its first component, and each point it
    carries, given as (point, carried), is `transport_point`'s rebuild.
    Cycle elements are compared too, since `ClosedPoint.__eq__` skips them."""
    from sblinks.birational import is_equivariant, transport_point
    from sblinks.severi_brauer import closed_point_from_seed

    def same(point, ref):
        assert point == ref
        assert point.cycle_element == ref.cycle_element

    def check(link, carried=()):
        fwd = link.forward
        assert is_equivariant(fwd.map, fwd.source, fwd.target)
        q = link.inverse_base_point
        same(q, closed_point_from_seed(fwd.target, q.components[0], q.tower))
        for point, moved in carried:
            same(moved, transport_point(fwd.map, point, fwd.target))

    return check


@pytest.fixture(scope="session")
def assert_coprime():
    """Assert that the coordinates of each map share no common factor: the
    constructor trusts them to, and does not check.  A certificate by one
    image mod p, rechecked, proves it; the projective gcd runs only when no
    certificate is found."""
    from sblinks.modular import coprime_certificate, recheck_coprime_certificate
    from sblinks.multipoly import gcd_many_homogeneous

    def check(*maps):
        for f in maps:
            cert = coprime_certificate(f.coords)
            if cert is None:
                assert gcd_many_homogeneous([c for c in f.coords if not c.is_zero()]).is_const()
            else:
                assert recheck_coprime_certificate(cert, f.coords)

    return check
