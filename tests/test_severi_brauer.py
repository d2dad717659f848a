import dataclasses
import hashlib
import json
import random

import pytest

import sblinks.severi_brauer as severi_brauer

from sblinks.errors import (
    AlphaIsSquare,
    BadDegree,
    Collinear,
    ExtensionMismatch,
    NotAnOrbit,
    SblinksError,
    SplittingFieldMismatch,
    XiIsCube,
    ZeroXi,
)
from sblinks.field_tower import CubicExtension, GaloisAction
from sblinks.linalg import inverse3, mat_galois, mat_identity, mat_mul
from sblinks.severi_brauer import (
    SBSurface,
    auto_between_3points,
    closed_point_from_seed,
    has_rational_point,
    is_isomorphic,
    make_closed_point,
    make_surface,
    normalize_3point,
    opposite,
    second_3point,
    sixpoint_from_sqrt,
    splitting_descriptor,
    _is_scalar_matrix,
    _nu_matrix,
)


def test_make_surface_and_cocycle(ext, L, t_vars):
    _, t2 = t_vars
    s = make_surface(ext, t2.lift_to(L))
    assert s.nu[0][2] == t2.lift_to(L)
    g = ext.generator
    prod = mat_mul(
        s.nu, mat_mul(mat_galois(s.nu, g), mat_galois(mat_galois(s.nu, g), g))
    )
    assert _is_scalar_matrix(prod)
    with pytest.raises(ZeroXi):
        make_surface(ext, L.zero())


def test_cocycle_for_xi_one_is_permutation(ext, L):
    s = make_surface(ext, L.one())
    one, zero = L.one(), L.zero()
    assert s.nu == ((zero, zero, one), (one, zero, zero), (zero, one, zero))


def test_has_rational_point(surface, ext, L, t_vars):
    t1, _ = t_vars
    assert has_rational_point(surface).status == "no"
    s1 = make_surface(ext, L.one())
    r = has_rational_point(s1)
    one = L.one()
    assert r.status == "yes" and r.witness == (one, one, one)
    sl = make_surface(ext, t1.lift_to(L))
    assert has_rational_point(sl).status == "yes"


def test_is_isomorphic(surface, ext, L, t_vars):
    t1, t2 = t_vars
    assert is_isomorphic(surface, surface).status == "yes"
    # S_xi vs S_{xi * norm(a)} for a = t2 * cbrt(t1): norm = t1 t2^3
    u = L.gen("u")
    from sblinks.field_tower import norm as fnorm

    a = t2.lift_to(L) * u
    n = fnorm(ext, a)
    s2 = make_surface(ext, surface.xi * n)
    r = is_isomorphic(surface, s2)
    assert r.status == "yes"
    # a norm witness outside the monomial fragment stays undecided, never "no"
    n2 = fnorm(ext, L.one() + u)
    s3 = make_surface(ext, surface.xi * n2)
    assert is_isomorphic(surface, s3).status in ("yes", "unknown")
    # S_{t2} vs S_{1/t2}: t2^2 fails the degree certificate
    sop = opposite(surface)
    assert is_isomorphic(surface, sop).status == "no"
    bigger = L.extend("w9", 3, (t2 + K_one(L)).lift_to(L))
    other = SBSurface(CubicExtension(bigger, "w9"), surface.xi.lift_to(bigger))
    with pytest.raises(ExtensionMismatch):
        is_isomorphic(surface, other)


def K_one(L):
    from sblinks.field_tower import TowerField

    return TowerField.rational(L.nvars).one()


def test_opposite(surface):
    sop = opposite(surface)
    assert sop.xi == surface.xi.inverse()
    assert sop.side == -surface.side
    assert opposite(sop).xi == surface.xi
    assert is_isomorphic(opposite(sop), surface).status == "yes"


def test_coordinate_point_is_twisted_orbit(surface, coord_point):
    p = coord_point
    assert p.degree == 3
    # twisted action cycles the coordinate points
    v = p.components[0]
    w = surface.twisted_apply({"u": 1}, v, p.tower)
    assert w == p.components[1]


def test_make_closed_point_errors(surface, coord_point, L):
    comps = coord_point.components
    with pytest.raises(BadDegree):
        make_closed_point(surface, [comps[0], comps[1]], L)
    one, zero, two = L.one(), L.zero(), L.scalar(2)
    with pytest.raises(NotAnOrbit):
        make_closed_point(
            surface, [(one, zero, zero), (zero, one, zero), (two, two, one)], L
        )


def test_point_revalidation(surface, coord_point, unit_point, six_point):
    for pt in (coord_point, unit_point, six_point):
        again = make_closed_point(pt.surface, pt.components, pt.tower)
        assert again.component_set() == pt.component_set()
        assert again.degree == pt.degree
        assert again.descriptor == pt.descriptor
        assert pt.degree in (3, 6)


def test_normalize_3point_coordinates(surface, coord_point, L):
    phi, xi_p, _ = normalize_3point(surface, coord_point)
    assert phi == mat_identity(L)
    assert xi_p == surface.xi


def test_normalize_3point_unit_orbit(surface, unit_point, ext):
    phi, xi_p, tower = normalize_3point(surface, unit_point)
    g = ext.generator
    assert g.apply(xi_p) == xi_p
    assert xi_p.in_base()
    # building the surface with xi' stays in the same isomorphism class
    s2 = make_surface(ext, xi_p.to_base().lift_to(tower))
    assert is_isomorphic(surface, s2).status in ("yes", "unknown")


def test_normalize_3point_collinear(surface, L):
    one, zero = L.one(), L.zero()
    with pytest.raises((Collinear, NotAnOrbit)):
        pt = make_closed_point(
            surface,
            [(one, zero, zero), (zero, one, zero), (one, one, zero)],
            L,
        )
        normalize_3point(surface, pt)


def test_auto_between_3points_example(surface, coord_point, unit_point, L, t_vars):
    _, t2 = t_vars
    alpha = auto_between_3points(surface, coord_point, unit_point)
    one = L.one()
    t2L = t2.lift_to(L)
    assert alpha.matrix == (
        (one, t2L, t2L),
        (one, one, t2L),
        (one, one, one),
    )
    # commutation M . A_g = A_g . g(M), exactly
    g = surface.ext.generator
    lhs = mat_mul(alpha.matrix, surface.nu)
    rhs = mat_mul(surface.nu, mat_galois(alpha.matrix, g))
    assert lhs == rhs
    # bijection on components
    image = {alpha.apply_point(v) for v in coord_point.components}
    assert image == unit_point.component_set()


def test_auto_identity_when_equal(surface, coord_point, L):
    alpha = auto_between_3points(surface, coord_point, coord_point)
    assert alpha.matrix == mat_identity(L)


def test_auto_splitting_mismatch(surface, coord_point):
    q = second_3point(surface)
    with pytest.raises(SplittingFieldMismatch):
        auto_between_3points(surface, coord_point, q)


def test_second_3point(surface, coord_point, ext):
    q = second_3point(surface)
    assert q.degree == 3
    assert q.descriptor != coord_point.descriptor
    # the twisted action cycles the components p_i -> p_{i+1}
    tau = q.cycle_element
    v = q.components[0]
    assert surface.twisted_apply(tau, v, q.tower) == q.components[1]


def test_second_3point_rejects_cube(ext, L, K2):
    s8 = make_surface(ext, K2.scalar(8).lift_to(L))
    with pytest.raises(XiIsCube):
        second_3point(s8)


def test_sixpoint(surface, six_point, t_vars):
    _, t2 = t_vars
    assert six_point.degree == 6
    assert len(six_point.components) == 6
    with pytest.raises(AlphaIsSquare):
        sixpoint_from_sqrt(surface, t2 ** 2)
    # splitting field has degree 6 over K: descriptor mixes a cubic and a
    # quadratic radical class
    degrees = {e.split(":")[0] for e in six_point.descriptor}
    assert degrees == {"2", "3"}


def test_random_orbits_are_valid_points(surface, L):
    rng = random.Random(97)
    made = 0
    while made < 5:
        seed = tuple(L.scalar(rng.randint(1, 7)) for _ in range(3))
        try:
            pt = closed_point_from_seed(surface, seed, L)
        except (NotAnOrbit, BadDegree):
            continue
        assert pt.degree in (3, 6)
        made += 1


def test_serialization(surface, coord_point):
    data = surface.to_json()
    s2 = SBSurface.from_json(data)
    assert s2 == surface
    pdata = coord_point.to_json()
    assert pdata["splitting"] == list(coord_point.descriptor)


def test_auto_fallback_with_zero_coordinates(surface, coord_point, L):
    """Every component of the target orbit meets a coordinate line, forcing
    the role-swapped construction."""
    q = closed_point_from_seed(surface, (L.zero(), L.one(), L.one()), L)
    assert q.descriptor == coord_point.descriptor
    alpha = auto_between_3points(surface, coord_point, q)
    image = {alpha.apply_point(v) for v in coord_point.components}
    assert image == q.component_set()


def test_radicand_classes_canonical(K2, t_vars):
    from sblinks.severi_brauer import radicand_class_string

    t1, t2 = t_vars
    a = radicand_class_string(t2.base_rf(), 3)
    b = radicand_class_string((t2 * K2.scalar(8) * (K2.one() + t1) ** 3).base_rf(), 3)
    assert a == b
    # squares: zeta and -3 are absorbed
    assert radicand_class_string(K2.scalar(-3).base_rf(), 2) == radicand_class_string(
        K2.one().base_rf(), 2
    )


def test_splitting_field_equal_for_xi_and_xi_squared(ext, L, t_vars):
    """K[cbrt(xi)] and K[cbrt(xi^2)] are the same field; the descriptors of
    the second points agree."""
    _, t2 = t_vars
    s1 = make_surface(ext, t2.lift_to(L))
    s2 = make_surface(ext, (t2 ** 2).lift_to(L))
    q1 = second_3point(s1)
    q2 = second_3point(s2)
    assert q1.descriptor == q2.descriptor


def _mixed_cycle_point(surface):
    """The second 3-point, cycled by the element that moves both radicals:
    u fixes its first component, so u v1 cycles the three components as v1
    does, and its twist is nu, not the identity."""
    sp = second_3point(surface)
    c = {surface.ext.radical_name: 1, sp.tower.radicals[-1].name: 1}
    v0 = sp.components[0]
    v1 = surface.twisted_apply(c, v0, sp.tower)
    v2 = surface.twisted_apply(c, v1, sp.tower)
    assert {v0, v1, v2} == sp.component_set() and len({v0, v1, v2}) == 3
    return dataclasses.replace(sp, components=(v0, v1, v2), cycle_element=c)


@pytest.mark.parametrize("kind", ["coords", "unit", "seed", "mixed"])
def test_normalize_3point_gives_the_standard_twist(kind, surface, coord_point, unit_point, L):
    """phi . A_tau . tau(phi)^-1 is exactly nu_{xi'}: the normal form that
    normalize_3point reads xi' off without building."""
    if kind == "seed":  # as the link3 bench draws its points
        point = closed_point_from_seed(surface, tuple(L.scalar(c) for c in (2, 3, 5)), L)
    else:
        point = {"coords": coord_point, "unit": unit_point}.get(kind) or _mixed_cycle_point(surface)
    assert point.degree == 3
    phi, xi_p, tower = normalize_3point(surface, point)
    tau = point.cycle_element
    act = GaloisAction(tower, tau)
    A_tau = surface.twist_matrix(tau, tower)
    assert mat_mul(phi, mat_mul(A_tau, mat_galois(inverse3(phi), act))) == _nu_matrix(tower, xi_p)


def test_normalize_3point_inverts_one_matrix(monkeypatch, surface, unit_point):
    calls = []

    def counted(m):
        calls.append(m)
        return inverse3(m)

    monkeypatch.setattr(severi_brauer, "inverse3", counted)
    normalize_3point(surface, unit_point)
    assert len(calls) == 1


def test_normalized_xi_stays_isomorphic_on_random_points(surface, L):
    import random

    rng = random.Random(3131)
    checked = 0
    attempts = 40
    for _ in range(attempts):
        seed = tuple(L.scalar(rng.randint(1, 8)) for _ in range(3))
        try:
            pt = closed_point_from_seed(surface, seed, L)
        except SblinksError:
            continue
        if pt.degree != 3:
            continue
        phi, xi_p, tower = normalize_3point(surface, pt)
        s2 = make_surface(surface.ext, xi_p.to_base().lift_to(tower))
        assert is_isomorphic(surface, s2).status in ("yes", "unknown")
        checked += 1
        if checked == 4:
            break
    assert checked == 4, f"only {checked} of 4 points in {attempts} seeds"


def test_three_variable_base_field():
    from sblinks.birational import RationalMap, compose, equals, link_from_3point
    from sblinks.field_tower import TowerField, is_norm

    K3 = TowerField.rational(3)
    L3 = K3.extend("u", 3, K3.t_var(0))
    ext3 = CubicExtension(L3, "u")
    r = is_norm(ext3, K3.t_var(2).lift_to(L3))
    assert r.status == "no"
    s3 = make_surface(ext3, K3.t_var(2).lift_to(L3))
    link = link_from_3point(s3, coordinate_3point_local(s3))
    rt = compose(link.backward.map, link.forward.map)
    assert equals(rt, RationalMap.identity(L3))


def coordinate_3point_local(surface):
    from sblinks.severi_brauer import coordinate_3point

    return coordinate_3point(surface)


def test_orbit_closure_stops_at_the_group_order(surface, L, monkeypatch):
    """A twisted action that never closes an orbit raises NotAnOrbit once
    there are more points than Galois group elements."""
    made = []

    def fresh_point(self, exps, v, tower):
        made.append(v)
        return (L.scalar(len(made) + 1), L.one(), L.one())

    monkeypatch.setattr(SBSurface, "twisted_apply", fresh_point)
    with pytest.raises(NotAnOrbit):
        closed_point_from_seed(surface, (L.one(), L.one(), L.one()), L)
    assert len(made) + 1 <= L.extension_degree() + 1


def test_splitting_descriptor_of_two_cube_roots(K2, t_vars):
    """The radical exponents fixed by a stabilizer are solved modulo p: in
    K[cbrt t1][cbrt t2] the diagonal subgroup fixes u v^2 and u^2 v, whose
    exponents sum to 3."""
    t1, t2 = t_vars
    T = K2.extend("u", 3, t1).extend("v", 3, t2)
    diagonal = [{}, {"u": 1, "v": 1}, {"u": 2, "v": 2}]
    assert splitting_descriptor(T, diagonal) == ("3:(1)*t1*t2^2", "3:(1)*t1^2*t2")
    assert splitting_descriptor(T, [{}, {"u": 1}, {"u": 2}]) == (
        "3:(1)*t2",
        "3:(1)*t2^2",
    )
    assert len(splitting_descriptor(T, [{}])) == 8
    S = K2.extend("u", 3, t1).extend("s", 2, t2)
    assert splitting_descriptor(S, [{}, {"u": 1, "s": 1}]) == ()


def _closed_points(surface, L, t_vars):
    """Closed points built through every construction path: seeded orbits
    over L, the two six-points, the second 3-point and the two points of
    the order-3 self-map over the smooth model's tower."""
    from sblinks.cubic_models import _image_of_contracted_line, build_smooth_model
    from sblinks.severi_brauer import coordinate_3point

    t1, t2 = t_vars
    K = t1.tower
    u, one, zero = L.gen("u"), L.one(), L.zero()
    seeds = {
        "unit": (one, one, one),
        "zero_one_one": (zero, one, one),
        "one_two_three": (one, L.scalar(2), L.scalar(3)),
        "u_one_zero": (u, one, zero),
        "u_u2_one": (u, u * u, one),
    }
    points = {k: closed_point_from_seed(surface, v, L) for k, v in seeds.items()}
    points["six_t2"] = sixpoint_from_sqrt(surface, t2)
    points["six_t1t2"] = sixpoint_from_sqrt(surface, t1 * t2)
    points["second"] = second_3point(surface)
    model = build_smooth_model(t1, (t2 - K.one()) / (K.scalar(27) * t1), K.one())
    lines = [_image_of_contracted_line(model, model.lines[i]) for i in range(3, 6)]
    points["models_p"] = coordinate_3point(model.surface())
    points["models_q0"] = make_closed_point(model.surface(), lines, model.tower)
    return points


# SHA-256 of the JSON of each closed point together with its cycle element
CLOSED_POINT_PINS = {
    "unit": "770cabc3fe9528850e6cbfd7a45b8497d63ed941d06e20aab077ad9fd57aa215",
    "zero_one_one": "f2e53d14223a43d983ec0cf1af1cde8a99c0a257bc2421e04f7a482465ad0758",
    "one_two_three": "51ae577994eb2b6a32792a7f8b2a395c9e306fb9cb76cb0c2a17f3486ead4ae8",
    "u_one_zero": "49710dd41952b459cbb9564fb6c1d34e4268c4f54957f2caed4994619c74cb6c",
    "u_u2_one": "0a2ec6da41b6dc84dfec7c8951459580875c0ea0401cf0198d8828f7a14cd375",
    "six_t2": "904d31447b689b8322edb360c054491f42d51b0a402f81c5cad226ba5e6dc861",
    "six_t1t2": "43d8be0c103fa6da91dc4b3cee9ab1f371b8e95360e6650f50dc946305a58cd9",
    "second": "389ff906eb77715fbc4938ad633dbfdf5409f05bb73dca3700ac134e47ceb4f7",
    "models_p": "51d88eef72f363b21d4ca4a9145f2b1a3fd270df4b67ccd401a2b1c4cda9919f",
    "models_q0": "053d8ae3fd3f95264d14e4034c371d4b06c2d2a4a15b04dcd977cd83b5aa00f0",
}


def test_closed_point_pins(surface, L, t_vars):
    got = {}
    for name, pt in _closed_points(surface, L, t_vars).items():
        text = json.dumps(
            {"point": pt.to_json(), "cycle_element": pt.cycle_element}, sort_keys=True
        )
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == CLOSED_POINT_PINS


def test_one_twisted_application_per_group_element(surface, L, t_vars, monkeypatch):
    """A closed point is read off one table of the twisted action over the
    Galois group: at most |G| twisted applications per point."""
    calls = []
    apply = SBSurface.twisted_apply

    def counted(self, exps, v, tower):
        calls.append(tower)
        return apply(self, exps, v, tower)

    monkeypatch.setattr(SBSurface, "twisted_apply", counted)
    t1, t2 = t_vars
    T = L.extend("s", 2, (t1 * t2).lift_to(L))
    one, zero, s = T.one(), T.zero(), T.gen("s")
    six = closed_point_from_seed(surface, (zero, one, s), T)
    assert six.degree == 6 and len(calls) <= T.extension_degree() == 6
    for pt in (six, second_3point(surface)):
        del calls[:]
        again = make_closed_point(surface, pt.components[::-1], pt.tower)
        assert again.component_set() == pt.component_set()
        assert len(calls) <= pt.tower.extension_degree()
    del calls[:]
    u = L.gen("u")
    assert closed_point_from_seed(surface, (u, L.one(), L.zero()), L).degree == 3
    assert len(calls) <= L.extension_degree() == 3
