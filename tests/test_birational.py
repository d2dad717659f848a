import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sblinks.errors import (
    BaseLocusNotSplit,
    Collinear,
    IdenticallyZero,
    NonFiniteBaseLocus,
    NotAnOrbit,
    NotEquivariant,
    SblinksError,
    SpecialPosition,
)
from sblinks.birational import (
    RationalMap,
    TwistedMap,
    _certified,
    _coefficient_rows,
    _columns,
    _composes_to,
    _composite,
    _constant_multiple,
    _conic_points,
    _CREMONA_FREE_PAIRS,
    _cremona,
    _cremona_free,
    _cremona_scales,
    _cremona_tower,
    _followed_by_linear,
    _express_in_span,
    _factor_over_base,
    _free_terms,
    _image_at,
    _independent_subset,
    _inherited,
    _inverse_by_values,
    _linear_forms,
    _mat_times,
    _monomials,
    _normalize_coords,
    _radical_roots,
    _sigma_forms,
    _twisted_action,
    _univariate_roots,
    apply_matrix,
    base_points,
    compose,
    conic_through_five,
    curves_through,
    equals,
    is_equivariant,
    link_from_3point,
    link_from_6point,
    subst_linear,
    transport_point,
)
from sblinks.field_tower import CubicExtension, GaloisAction, TowerField, to_flat
from sblinks.linalg import (
    _proportional,
    adjugate3,
    det3,
    inverse3,
    mat_galois,
    mat_identity,
    mat_mul,
    rank,
)
from sblinks.multipoly import MPoly, exact_div, gcd_many_homogeneous
from sblinks.severi_brauer import (
    ClosedPoint,
    _nu_matrix,
    auto_between_3points,
    closed_point_from_seed,
    make_surface,
    normalize_point,
    opposite,
    sixpoint_from_sqrt,
    unit_3point,
)


def test_compose_standard_involution(L):
    sig = RationalMap.standard_involution(L)
    assert equals(compose(sig, sig), RationalMap.identity(L))
    assert equals(compose(sig, RationalMap.identity(L)), sig)


def test_compose_collapses(L):
    one = L.one()
    # [x^2 : xy : y^2] composed into a map landing in its base point [0:0:1]
    f = RationalMap(
        L,
        (
            MPoly.monomial(3, (2, 0, 0), one),
            MPoly.monomial(3, (1, 1, 0), one),
            MPoly.monomial(3, (0, 2, 0), one),
        ),
    )
    zero_map = RationalMap(
        L,
        (
            MPoly.zero(3),
            MPoly.zero(3),
            MPoly.monomial(3, (0, 0, 1), one),
        ),
    )
    with pytest.raises(IdenticallyZero):
        compose(f, zero_map)


def test_equals_projective(L):
    f = RationalMap.identity(L)
    two = L.scalar(2)
    g = apply_matrix(
        tuple(tuple(two if i == j else L.zero() for j in range(3)) for i in range(3)),
        f,
    )
    assert equals(f, g)
    sig = RationalMap.standard_involution(L)
    assert not equals(sig, f)
    # [yz:xz:xy] equals [1/x:1/y:1/z] after clearing denominators
    assert equals(sig, sig)


def test_maps_over_different_towers_are_not_compared(L, t_vars):
    _, t2 = t_vars
    M = L.extend("s", 2, t2.lift_to(L))
    with pytest.raises(SblinksError, match="same tower"):
        equals(RationalMap.identity(L), RationalMap.identity(M))


def test_transport_needs_one_tower(link_at_coords, six_point):
    fwd = link_at_coords.forward
    assert fwd.map.tower != six_point.tower
    with pytest.raises(SblinksError, match="same tower"):
        transport_point(fwd.map, six_point, fwd.target)


def test_is_equivariant(surface, L):
    sig = RationalMap.standard_involution(L)
    sop = opposite(surface)
    assert is_equivariant(sig, surface, sop)
    assert not is_equivariant(RationalMap.identity(L), surface, sop)
    assert is_equivariant(RationalMap.identity(L), surface, surface)


def _equivariant_by_cross_products(f, src, tgt):
    """is_equivariant's reference: the same two sides, compared by
    `_proportional`'s 2x2 cross products."""
    tower = f.tower
    for rad in tower.radicals:
        exps = {rad.name: 1}
        act = GaloisAction(tower, exps)
        forms = _linear_forms(src.twist_matrix(exps, tower))
        lhs = [c.subst(forms) for c in f.coords]
        moved = [c.map_coeffs(act.apply) for c in f.coords]
        if not _proportional(lhs, _mat_times(tgt.twist_matrix(exps, tower), moved)):
            return False
    return True


@pytest.mark.parametrize("name", ["link_at_coords", "link_at_unit", "six_link"])
def test_one_constant_agrees_with_cross_products(name, request):
    """On the coprime maps of the fixture links, and on their triples scaled
    by constants with t-denominators and radicals, comparison by one
    constant answers as the cross products do, and so does `is_equivariant`;
    `equals` on stored triples agrees with both.  A one-coefficient
    mutation fails every one."""
    link = request.getfixturevalue(name)
    tower = link.forward.map.tower
    t1 = tower.t_var(0)
    r = tower.gen(tower.radicals[-1].name)
    scales = (tower.one(), tower.scalar(-3), t1 / (tower.t_var(1) + tower.one()), r + t1)
    maps = (link.forward.map, link.backward.map)
    for f in maps:
        for g in maps:
            same = f == g  # stored triples are canonical
            assert equals(f, g) == _proportional(f.coords, g.coords) == same
            for k in scales:
                scaled = [c.scale(k) for c in g.coords]
                assert _constant_multiple(f.coords, scaled) == same
                assert _proportional(f.coords, scaled) == same
        bad = _perturbed(f)
        assert not _constant_multiple(f.coords, bad.coords)
        assert not _proportional(f.coords, bad.coords)
        assert not equals(f, bad)
    for twisted in (link.forward, link.backward):
        f, src, tgt = twisted.map, twisted.source, twisted.target
        assert is_equivariant(f, src, tgt) and _equivariant_by_cross_products(f, src, tgt)
        bad = _perturbed(f)
        assert not is_equivariant(bad, src, tgt)
        assert not _equivariant_by_cross_products(bad, src, tgt)


def test_link_at_coordinates(surface, link_at_coords, L):
    link = link_at_coords
    sig = RationalMap.standard_involution(L)
    assert equals(link.forward.map, sig)
    assert link.forward.map.degree == 2
    assert link.forward.target.xi == surface.xi.inverse()
    assert link.base_point.descriptor == link.inverse_base_point.descriptor
    rt = compose(link.backward.map, link.forward.map)
    assert equals(rt, RationalMap.identity(L))


def test_link_at_unit_point(surface, link_at_unit, unit_point, L):
    link = link_at_unit
    assert link.forward.map.degree == 2
    assert is_equivariant(link.forward.map, surface, link.forward.target)
    assert is_equivariant(link.backward.map, link.forward.target, surface)
    rt = compose(link.backward.map, link.forward.map)
    assert equals(rt, RationalMap.identity(L))
    assert link.base_point.descriptor == link.inverse_base_point.descriptor


def test_base_points_sigma(link_at_coords, coord_point):
    bp = base_points(link_at_coords.forward.map)
    assert set(bp) == coord_point.component_set()


def test_base_points_unit_link(link_at_unit, unit_point):
    bp = base_points(link_at_unit.forward.map)
    assert set(bp) == unit_point.component_set()
    bpi = base_points(link_at_unit.backward.map)
    assert set(bpi) == link_at_unit.inverse_base_point.component_set()


def test_base_points_rejects_common_factor(L):
    one = L.one()
    f = RationalMap(
        L,
        (
            MPoly.monomial(3, (2, 0, 0), one),
            MPoly.monomial(3, (1, 1, 0), one),
            MPoly.monomial(3, (1, 0, 1), one),
        ),
    )
    with pytest.raises(NonFiniteBaseLocus):
        base_points(f)


@pytest.mark.parametrize("name", ["coords", "unit", "random0", "random1", "random2"])
def test_3link_base_points_need_no_factoring(monkeypatch, name, closed_form_links):
    """The radical formulas split the base locus of a 3-link at both ends,
    so sympy is never asked to factor."""
    import sblinks.sympy_bridge as bridge

    def fail(*args, **kwargs):
        raise AssertionError("a 3-link base locus was factored")

    monkeypatch.setattr(bridge, "factor_univariate_over_k", fail)
    link = closed_form_links[name]
    assert set(base_points(link.forward.map)) == link.base_point.component_set()
    assert set(base_points(link.backward.map)) == link.inverse_base_point.component_set()


def _factor_first_roots(p, tower):
    """The reference root set of a univariate p: the root 0 divided out,
    the factors over K, then the radical formulas on each factor."""
    roots = []
    me = p.min_exps()
    if me[0] > 0:
        roots.append(tower.zero())
    q = p.shift_down(me)
    if q.total_degree() > 0:
        for fac in _factor_over_base(q.monic(), tower):
            roots.extend(_radical_roots(fac, tower))
    return {r for r in roots if p.eval([r]).is_zero()}


ROOT_CASES = ["split over K", "split over L", "K-root and no quadratic root", "no root"]


@pytest.mark.parametrize("case", ROOT_CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_radical_roots_first_match_factoring_first(case, L, data):
    """Radical formulas on the unfactored polynomial, with the factoring
    fallback, find the roots that factoring first finds, on products of
    chosen factors with base-field coefficients (u^3 = t1, t2 is neither a
    square nor a cube in L)."""
    one, z, u, t1, t2 = L.one(), L.zeta(), L.gen("u"), L.t_var(0), L.t_var(1)
    x = MPoly.variable(1, 0, one)
    base = st.sampled_from([L.zero(), one, L.scalar(-2), z, t1, t2, t1 + z, one / (t2 + one)])
    unit = st.sampled_from([one, L.scalar(2), -z, t1, one / (t1 + one)])

    def minus(r):
        return x - MPoly.const(1, r)

    if case == "split over K":
        roots = data.draw(st.lists(base, min_size=1, max_size=3), label="roots")
        p = minus(roots[0])
        for r in roots[1:]:
            p = p * minus(r)
        expected = set(roots)
    elif case == "split over L":
        # (x - a)^3 = s^3 t1 at x = a + s u zeta^k
        a, s = data.draw(base, label="a"), data.draw(unit, label="s")
        p = minus(a) ** 3 - MPoly.const(1, s ** 3 * t1)
        expected = {a + s * u * z ** k for k in range(3)}
    elif case == "K-root and no quadratic root":
        r, c = data.draw(base, label="r"), data.draw(unit, label="c")
        p = minus(r) * (x * x - MPoly.const(1, c * t2))
        expected = {r}
    else:
        c, d = data.draw(unit, label="c"), data.draw(st.integers(2, 3), label="degree")
        p = x ** d - MPoly.const(1, c * t2)
        expected = set()
    assert set(_univariate_roots(p, L)) == _factor_first_roots(p, L) == expected


# seeds tried before a randomised loop fails instead of running on
ATTEMPTS = 40


def test_random_3links_roundtrip(surface, L):
    rng = random.Random(12345)
    made = 0
    for _ in range(ATTEMPTS):
        seed = tuple(L.scalar(rng.randint(1, 9)) for _ in range(3))
        try:
            pt = closed_point_from_seed(surface, seed, L)
        except SblinksError:
            continue
        if pt.degree != 3:
            continue
        link = link_from_3point(surface, pt)
        rt = compose(link.backward.map, link.forward.map)
        assert equals(rt, RationalMap.identity(L))
        assert link.forward.map.degree == 2
        made += 1
        if made == 5:
            break
    assert made == 5, f"only {made} of 5 links in {ATTEMPTS} seeds"


def test_transport_preserves_degree(surface, link_at_coords, unit_point):
    moved = transport_point(
        link_at_coords.forward.map, unit_point, link_at_coords.forward.target
    )
    assert moved.degree == 3
    assert moved.descriptor == unit_point.descriptor


def test_link_conjugation_by_automorphism(surface, coord_point, unit_point):
    """Links at p and at alpha(p) are conjugate (the matrix-level equivalence
    criterion for links with the same class)."""
    alpha = auto_between_3points(surface, coord_point, unit_point)
    link_p = link_from_3point(surface, coord_point)
    link_q = link_from_3point(surface, unit_point)
    m_alpha = RationalMap.from_matrix(surface.tower, alpha.matrix)
    lhs = compose(link_q.forward.map, m_alpha)
    # lhs and link_p.forward differ by a linear automorphism of the target
    diff = compose(lhs, link_p.backward.map)
    assert diff.degree == 1


def test_six_link(surface, six_point, six_link):
    assert six_link.forward.map.degree == 5
    _, rows = curves_through(six_point.tower, six_point.components, 5, double=True)
    assert rank(rows) == 18
    rt = compose(six_link.backward.map, six_link.forward.map)
    assert equals(rt, RationalMap.identity(six_point.tower))
    assert six_link.base_point.descriptor == six_link.inverse_base_point.descriptor
    assert is_equivariant(six_link.forward.map, surface, six_link.forward.target)


def _rows_by_monomial(tower, components, degree):
    """The double-point rows with each entry evaluated on its own."""
    monos = sorted(
        (a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)
    )
    rows = []
    for v in components:
        rows.append(tuple(MPoly.monomial(3, e, tower.one()).eval(list(v)) for e in monos))
        pivot = max(i for i in range(3) if not v[i].is_zero())
        for var in (i for i in range(3) if i != pivot):
            rows.append(tuple(
                MPoly.monomial(3, e, tower.one()).derivative(var).eval_zero_ok(list(v), tower.zero())
                for e in monos
            ))
    return rows


def test_curves_through_rows_match_monomialwise_evaluation(six_point, coord_point):
    for point, degree in ((six_point, 5), (coord_point, 2), (six_point, 1)):
        _, rows = curves_through(point.tower, point.components, degree, double=True)
        assert rows == _rows_by_monomial(point.tower, point.components, degree)


def test_six_link_base_points(six_link, six_point):
    bp = base_points(six_link.forward.map)
    assert set(bp) == six_point.component_set()


def test_six_link_special_position(surface, L, t_vars):
    # six points containing three collinear ones are rejected
    t1, t2 = t_vars
    one, zero = L.one(), L.zero()
    tl = t2.lift_to(L)
    comps = [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
        (one, one, one),
        (tl, one, one),
        (tl, tl, one),
    ]

    from sblinks.severi_brauer import ClosedPoint

    fake = ClosedPoint(surface, L, tuple(normalize_point(c) for c in comps), 6, ("x",), {})
    with pytest.raises(SpecialPosition):
        link_from_6point(surface, fake)


def test_twisted_map_validates(surface, L):
    sig = RationalMap.standard_involution(L)
    assert not is_equivariant(sig, surface, surface)  # sigma maps S_xi to S_{1/xi}
    assert is_equivariant(sig, surface, opposite(surface))


def test_link_at_second_point(surface, L):
    """A 3-link at a point whose splitting field differs from the surface's
    presentation field (equivariant basis found by descent)."""
    from sblinks.severi_brauer import second_3point

    sp = second_3point(surface)
    link = link_from_3point(surface, sp)
    assert link.forward.map.degree == 2
    rt = compose(link.backward.map, link.forward.map)
    assert equals(rt, RationalMap.identity(sp.tower))
    assert link.base_point.descriptor == sp.descriptor
    assert is_equivariant(link.forward.map, surface, link.forward.target)


# ---------------------------------------------------------------------------
# maps whose coordinates are known to be coprime are only rescaled


def _diag(L, *entries):
    z = L.zero()
    return tuple(
        tuple(L.scalar(e) if i == j else z for j in range(3)) for i, e in enumerate(entries)
    )


def _random_invertible(rng, L, radical=True):
    """Small integers, some shifted by t2 or by the radical u.  Without u
    the entries lie in K: after a substitution with u in it, the reference
    gcd over L takes minutes."""
    extras = (L.zero(), L.zero(), L.t_var(1)) + ((L.gen("u"),) if radical else ())

    def entry():
        return L.scalar(rng.randint(-3, 3)) + rng.choice(extras)

    while True:
        m = tuple(tuple(entry() for _ in range(3)) for _ in range(3))
        if not det3(m).is_zero():
            return m


def _raw_apply(m, coords):
    return [
        sum((p.scale(c) for c, p in zip(row, coords)), MPoly.zero(coords[0].nvars))
        for row in m
    ]


def _raw_forms(m):
    return [
        sum((MPoly.variable(3, k, c) for k, c in enumerate(row) if not c.is_zero()), MPoly.zero(3))
        for row in m
    ]


def _reduced(tower, raw):
    """The reference map of a raw triple: its nonzero coordinates divided by
    their projective gcd, taken here by `gcd_many_homogeneous` and exact
    division, not by the library's reducer."""
    g = gcd_many_homogeneous([c for c in raw if not c.is_zero()])
    return RationalMap(tower, [c if c.is_zero() else exact_div(c, g) for c in raw])


def test_coprime_paths_match_full_gcd(L, link_at_coords, link_at_unit):
    """apply_matrix, subst_linear and sigma o phi take no gcd for invertible
    matrices; the result must be the map the full gcd gives."""
    rng = random.Random(20240612)
    maps = [
        link_at_coords.forward.map,
        link_at_unit.forward.map,
        link_at_unit.backward.map,
    ]
    for f in maps:
        m = _random_invertible(rng, L)
        assert apply_matrix(m, f) == _reduced(L, _raw_apply(m, f.coords))
        m = _random_invertible(rng, L, radical=False)
        forms = _raw_forms(m)
        assert subst_linear(f, m) == _reduced(L, [c.subst(forms) for c in f.coords])
    for _ in range(3):
        m = _random_invertible(rng, L)
        l0, l1, l2 = _raw_forms(m)
        sigma_phi = RationalMap(L, _sigma_forms(m))
        assert sigma_phi == _reduced(L, (l1 * l2, l0 * l2, l0 * l1))


def test_linear_constructors_refuse_singular_matrices(L):
    """A singular matrix would leave a common factor, (yz, xz, xz) after
    sigma, which the constructor does not look for: it is refused."""
    sig = RationalMap.standard_involution(L)
    one, zero = L.one(), L.zero()
    m = ((one, zero, zero), (zero, one, zero), (zero, one, zero))
    for build in (
        lambda: apply_matrix(m, sig),
        lambda: subst_linear(sig, m),
        lambda: RationalMap.from_matrix(L, m),
    ):
        with pytest.raises(SblinksError, match="singular"):
            build()


def _denominators(coords):
    return [c.den for p in coords for c in p.terms.values()]


def _matrix_with_denominators(rng, tower):
    """An invertible matrix over K whose entries carry t2-denominators."""
    t2 = tower.t_var(1)

    def entry():
        shift = t2 + tower.scalar(rng.randint(1, 4))
        return tower.scalar(rng.randint(-3, 3)) + tower.scalar(rng.randint(1, 3)) / shift

    while True:
        m = tuple(tuple(entry() for _ in range(3)) for _ in range(3))
        if not det3(m).is_zero():
            return m


def _assert_cleared_compose(f, h):
    """Every stored coefficient is free of t-denominators, and compose,
    which substitutes the stored triples, gives the map of the raw
    substitution."""
    assert all(d.is_const() for d in _denominators(f.coords + h.coords))
    raw = [c.subst(list(h.coords)) for c in f.coords]
    assert compose(f, h) == _reduced(f.tower, raw)


def test_stored_triple_is_one_per_map(L, link_at_unit):
    """A map built from its canonical triple scaled by 1/(t2 + 3), or by a
    Q(zeta) constant, is the same map: equal, with one hash, one repr and
    one JSON, and its stored triple is the canonical one cleared."""
    f = link_at_unit.forward.map
    canonical = f.canonical
    assert not all(d.is_const() for d in _denominators(canonical))
    assert all(d.is_const() for d in _denominators(f.coords))
    assert _proportional(canonical, f.coords)
    for scale in ((L.t_var(1) + L.scalar(3)).inverse(), L.zeta() * L.scalar(2)):
        g = RationalMap(L, [p.scale(scale) for p in canonical])
        assert g == f and hash(g) == hash(f)
        assert g.coords == f.coords and g.canonical == canonical
        assert repr(g) == repr(f)
        assert g.to_json() == f.to_json()


def test_constructor_refusals(L):
    one = L.one()
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    with pytest.raises(SblinksError, match="exactly 3 coordinates"):
        RationalMap(L, (x, y))
    with pytest.raises(IdenticallyZero):
        RationalMap(L, (MPoly.zero(3),) * 3)
    with pytest.raises(SblinksError, match="share one degree"):
        RationalMap(L, (x, y, z * z))


def test_cleared_compose_over_L(L, link_at_coords, link_at_unit):
    rng = random.Random(20240614)
    # denominators in the outer map, then in the inner one; maps over L with
    # the radical in their coefficients and a composite of degree above 1
    # take minutes to normalise, so the first composite is linear
    m = _matrix_with_denominators(rng, L)
    _assert_cleared_compose(
        apply_matrix(m, link_at_unit.backward.map), link_at_unit.forward.map
    )
    m = _matrix_with_denominators(rng, L)
    _assert_cleared_compose(
        link_at_coords.backward.map, apply_matrix(m, link_at_coords.forward.map)
    )


def test_cleared_compose_over_two_radicals(six_link):
    # the round trip over K[cbrt t1][sqrt t2]; the forward map carries
    # t-denominators in 11 of its 18 coefficients
    _assert_cleared_compose(six_link.backward.map, six_link.forward.map)


def _with_backward(link, bwd_map):
    """The link with its backward map replaced, as a record."""
    bwd = TwistedMap(bwd_map, link.backward.source, link.backward.target)
    return dataclasses.replace(link, backward=bwd)


def test_tampered_maps_fail_checks(surface, L, link_at_unit):
    link = link_at_unit
    bad = apply_matrix(_diag(L, 1, 1, 2), link.backward.map)
    assert bad != link.backward.map
    _certified(_with_backward(link, link.backward.map))
    with pytest.raises(SblinksError):
        _certified(_with_backward(link, bad))
    fwd = link.forward
    assert is_equivariant(fwd.map, fwd.source, fwd.target)
    assert not is_equivariant(apply_matrix(_diag(L, 1, 1, 2), fwd.map), fwd.source, fwd.target)


# composites that are one polynomial times monomials


def _monomial_triple(tower, exps, scales=None):
    one = tower.one()
    scales = scales or (one,) * 3
    return tuple(
        MPoly.zero(len(e)) if c.is_zero() else MPoly.monomial(len(e), e, c)
        for e, c in zip(exps, scales)
    )


def _shape_towers(L):
    """L; L[sqrt t2]; and the models tower K[cbrt t1][cbrt mu], whose
    radicand mu = (t2 - 1) / (27 t1) has a t-denominator."""
    t1, t2 = L.t_var(0).to_base(), L.t_var(1).to_base()
    K = t1.tower
    mu = (t2 - K.one()) / (K.scalar(27) * t1)
    return {
        "L": L,
        "L[sqrt t2]": L.extend("s", 2, t2),
        "models": K.extend("u", 3, t1).extend("m", 3, mu),
    }


def _coefficient_pool(tower):
    """Nonzero coefficients with and without radicals and t."""
    one = tower.one()
    pool = [one, tower.scalar(-2), tower.scalar(Fraction(1, 2)), tower.zeta(),
            tower.t_var(1) + one]
    for rad in tower.radicals:
        r = tower.gen(rad.name)
        pool += [r, r * r + tower.t_var(0)]
    return pool


# outer monomial maps, as exponent triples: the identity, sigma, (x^2, xy, yz)
_OUTER = {
    "identity": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "sigma": ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    "x2-xy-yz": ((2, 0, 0), (1, 1, 0), (0, 1, 1)),
}


def _inner_map(tower, name):
    """Inner maps: the identity, sigma, the top radical on x (which gives
    the coordinates free forms that differ by radical factors), and the
    monomial map (xy, yz, zw) from P^3."""
    one = tower.one()
    if name == "identity":
        return RationalMap.identity(tower)
    if name == "sigma":
        return RationalMap.standard_involution(tower)
    if name == "radical-on-x":
        r = tower.gen(tower.radicals[-1].name)
        return RationalMap(tower, _monomial_triple(tower, _OUTER["identity"], (r, one, one)))
    return RationalMap(
        tower, _monomial_triple(tower, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)))
    )


def _gcd_route(f, h):
    """The reference compose: the raw composite by `MPoly.subst`, divided by
    `gcd_many_homogeneous` with `exact_div`."""
    return _reduced(f.tower, [c.subst(list(h.coords)) for c in f.coords])


def _same_bytes(a, b):
    return repr(a) == repr(b) and json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monomial_composites_match_the_gcd_route(L, data):
    """compose of (c_i . P . x^(a_i)) after a monomial or radical-diagonal
    map, P a random polynomial, is byte for byte the map that the full gcd
    route gives, over three towers.  Unequal c_i, radicals on x and zero
    coordinates give free forms that differ across coordinates: those fall
    back to the fold and still agree."""
    towers = _shape_towers(L)
    tower = towers[data.draw(st.sampled_from(sorted(towers)))]
    pool = _coefficient_pool(tower)
    one, zero = tower.one(), tower.zero()
    monos = _monomials(3, data.draw(st.integers(0, 2)))
    chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    P = MPoly(3, {e: data.draw(st.sampled_from(pool)) for e in chosen})
    if data.draw(st.booleans()):
        scales = (one,) * 3
    else:
        scales = tuple(data.draw(st.sampled_from(pool + [zero])) for _ in range(3))
        if all(c.is_zero() for c in scales):
            scales = (one, zero, one)
    outer = _monomial_triple(tower, _OUTER[data.draw(st.sampled_from(sorted(_OUTER)))], scales)
    f = RationalMap(tower, [P * m for m in outer])
    h = _inner_map(tower, data.draw(
        st.sampled_from(["identity", "sigma", "radical-on-x", "from-P3"])
    ))
    expected = _gcd_route(f, h)
    assert _same_bytes(compose(f, h), expected)
    assert _composes_to(f, h, expected.coords)


def test_shape_rule_takes_the_monomial_path_and_falls_back(L):
    """The rule fires on x^(m_i) . S with one free S, and only there: the
    same fold reached by different free forms (u^3 against t1), a factor
    1/2 that changes only the free denominator, and a zero coordinate all
    fold first, and every answer is the gcd route's."""
    one, zero = L.one(), L.zero()
    u, t1 = L.gen("u"), L.t_var(0)
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    P = x + y.scale(L.zeta())
    cubes = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    radical_x = RationalMap(L, _monomial_triple(L, _OUTER["identity"], (u, one, one)))
    identity = RationalMap.identity(L)
    cases = [
        (RationalMap(L, [P * x, P * y, P * z]), identity, True),
        (RationalMap(L, [P * y, P * z, (P * x).scale(L.scalar(Fraction(1, 2)))]), identity, False),
        (RationalMap(L, _monomial_triple(L, cubes, (one, t1, t1))), radical_x, False),
        (RationalMap(L, [P * x, MPoly.zero(3), P * z]), identity, False),
    ]
    for f, h, coprime in cases:
        coords, found = _composite(f, h)
        assert found is coprime
        expected = _gcd_route(f, h)
        assert _same_bytes(compose(f, h), expected)
        assert _composes_to(f, h, expected.coords)
    # the factor 1/2 is kept: the map is (2y : 2z : x), not (y : z : x)
    f = cases[1][0]
    assert compose(f, identity) != RationalMap(L, (y, z, x))


def test_common_factor_that_folds_to_zero_collapses(L):
    """f = P . (y, y, z) after (u x, x, y), P = x^3 - t1 y^3: every free
    coordinate is x^(m_i) (u^3 - t1), which folds to zero, so compose
    raises IdenticallyZero rather than return (x : x : y)."""
    one = L.one()
    u, t1 = L.gen("u"), L.t_var(0)
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    P = x * x * x - (y * y * y).scale(t1)
    f = RationalMap(L, [P * y, P * y, P * z])
    h = RationalMap(L, [x.scale(u), x, y])
    with pytest.raises(IdenticallyZero):
        compose(f, h)
    with pytest.raises(IdenticallyZero):
        _composes_to(f, h, RationalMap.identity(L).coords)


# the projective gcd in the flat ring Q(zeta)[t, x] and over the tower


def _tower_route(coords):
    """The reference reducer: the nonzero coordinates divided by their gcd
    over the tower, `gcd_many_homogeneous`, with `exact_div`."""
    g = gcd_many_homogeneous([c for c in coords if not c.is_zero()])
    return [c if c.is_zero() else exact_div(c, g) for c in coords]


def _assert_routes_agree(tower, coords, flat):
    assert (to_flat(tower, coords) is not None) is flat
    assert RationalMap(tower, _normalize_coords(coords)) == RationalMap(
        tower, _tower_route(coords)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flat_gcd_matches_the_tower_gcd(K2, data):
    """Over K = Q(zeta)(t1, t2), triples G . m . s . (A0, A1, A2): G a cubic
    with x^3, y^3 and z^3 and constant coefficients, m a monomial, s a
    t-factor, and the A_i of degree 1 or 2 with coefficients of t-degree at
    most 1, one of them maybe zero.  The t-factor's degree may exceed every
    x's, and then an x leads the flat remainder sequence.
    `_normalize_coords` takes the flat ring, and its map is the one that the
    gcd over the tower gives."""
    one = K2.one()
    t1, t2, zeta = K2.t_var(0), K2.t_var(1), K2.zeta()
    constants = [one, K2.scalar(-2), K2.scalar(Fraction(1, 3)), zeta]
    linear = constants + [t1, t2, t1 + one, zeta * t2 - K2.scalar(3)]
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    G = MPoly.zero(3)
    extra = data.draw(st.lists(st.sampled_from(_monomials(3, 3)), max_size=2, unique=True))
    for e in [(3, 0, 0), (0, 3, 0), (0, 0, 3)] + extra:
        G = G + MPoly.monomial(3, e, data.draw(st.sampled_from(constants)))
    monos = _monomials(3, data.draw(st.integers(1, 2)))
    cofactors = []
    for _ in range(3):
        chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        cofactors.append(MPoly(3, {e: data.draw(st.sampled_from(linear)) for e in chosen}))
    if data.draw(st.booleans()):
        cofactors[data.draw(st.integers(0, 2))] = MPoly.zero(3)
    m = data.draw(st.sampled_from([x, z, x * y]))
    s = data.draw(st.sampled_from([t1 + one, t2 - zeta, t1 * t2, t1**8 * t2**8 + t2 - one]))
    coords = [(G * m * a).scale(s) for a in cofactors]
    _assert_routes_agree(K2, coords, flat=True)


def test_flat_route_rule(K2, L):
    """The rule sends a triple to the tower when a coefficient has a
    t-denominator or carries a radical.  Every other triple goes flat with
    a variable of least degree first: x when every t has a higher degree
    (t1^4 against x of degree 3), an x when no t occurs, t2 when it has the
    least degree, and over L a triple whose coefficients lie in K.  Every
    answer is the tower gcd's map."""
    one = K2.one()
    t1, t2 = K2.t_var(0), K2.t_var(1)
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    P = x * x + y * y + z * z
    t_den = [(P * x).scale(t1.inverse()), P * y, P * z]
    _assert_routes_agree(K2, t_den, flat=False)
    t14 = t1 * t1 * t1 * t1
    low_x = [(P * x).scale(t14), (P * y).scale(t14 + one), P * z]
    _assert_routes_agree(K2, low_x, flat=True)
    polys, hom, _ = to_flat(K2, low_x)
    # the flat ring is (x, t1, t2, y, z): x has degree 3 and goes first
    assert [p.deg_in(0) for p in polys] == [3, 2, 2] and hom == [0, 3]
    no_t = [(P * x).scale(K2.scalar(2)), P * y, P * z]
    _assert_routes_agree(K2, no_t, flat=True)
    assert to_flat(K2, no_t)[1] == [0, 3]
    t2_first = [(P * x).scale(t1 * t1 + t2), (P * y).scale(t1 * t1), P * z]
    _assert_routes_agree(K2, t2_first, flat=True)
    polys, hom, _ = to_flat(K2, t2_first)
    # the flat ring is (t2, t1, x, y, z): t2 has degree 1 and goes first
    assert [p.deg_in(0) for p in polys] == [1, 0, 0] and hom == [2, 3]
    # over K = Q(zeta)(t1, t2, t3) the flat ring is (t3, t1, t2, x, y, z),
    # whose t-fields are a cycle of K's
    K3 = TowerField.rational(3)
    s1, s2, s3 = (K3.t_var(i) for i in range(3))
    P3 = _monomial_triple(K3, ((2, 1, 0), (0, 2, 1), (1, 0, 2)))
    G3 = P3[0] + P3[1].scale(s1 * s2) + P3[2]
    cycled = [(G3 * f).scale(c) for f, c in zip(_monomial_triple(K3, _OUTER["sigma"]), (
        s1 * s1 * s3 + s2, s2 * s2 - s1 * s3, s1 * s2 * s3 + K3.one()))]
    _assert_routes_agree(K3, cycled, flat=True)
    polys, hom, _ = to_flat(K3, cycled)
    assert [p.deg_in(0) for p in polys] == [1, 1, 1] and hom == [3, 4]
    lone, u = L.one(), L.gen("u")
    xl, yl, zl = (MPoly.variable(3, i, lone) for i in range(3))
    Q = xl * xl + yl * yl + zl * zl
    radical = [(Q * xl).scale(u), Q * yl, (Q * zl).scale(L.t_var(1))]
    _assert_routes_agree(L, radical, flat=False)
    in_k = [(Q * xl).scale(L.t_var(0)), Q * yl, Q * zl]
    _assert_routes_agree(L, in_k, flat=True)


@pytest.mark.parametrize("name", ["link_at_coords", "link_at_unit", "six_link"])
def test_round_trips_take_no_gcd_division_or_fold(monkeypatch, name, request):
    """backward o forward is x^(e_i) . S with one free S: compose and
    `_certified` decide it with no projective gcd, no exact division and no
    fold of the composite."""
    import sblinks.birational as birational
    import sblinks.field_tower as field_tower

    link = request.getfixturevalue(name)

    def forbidden(*args):
        raise AssertionError("an identity composite took a gcd, a division or a fold")

    for module, helper in (
        (birational, "gcd_many_homogeneous"),
        (birational, "exact_div"),
        (field_tower, "_free_fold"),
    ):
        monkeypatch.setattr(module, helper, forbidden)
    fwd, bwd = link.forward.map, link.backward.map
    assert compose(bwd, fwd) == RationalMap.identity(fwd.tower)
    assert _certified(link) is link


@pytest.mark.parametrize("name", ["link_at_unit", "six_link"])
def test_tampered_round_trips_are_refused(name, request):
    """The backward map after diag(1, 1, 2), whose composite falls back to
    the fold, or after swapping x and y, whose composite is monomial but
    not the identity: `_certified` refuses both, and neither composes with
    the forward map to the identity."""
    link = request.getfixturevalue(name)
    L = link.forward.map.tower
    one, zero = L.one(), L.zero()
    swap = ((zero, one, zero), (one, zero, zero), (zero, zero, one))
    identity = RationalMap.identity(L)
    for m in (_diag(L, 1, 1, 2), swap):
        bad = apply_matrix(m, link.backward.map)
        with pytest.raises(SblinksError, match="backward o forward is not the identity"):
            _certified(_with_backward(link, bad))
        assert compose(bad, link.forward.map) != identity


def test_base_points_sympy_failure_is_loud(monkeypatch, six_link):
    """The six-link's base locus is solved through two quartics, which only
    sympy factors."""

    def fail(*args, **kwargs):
        raise NotImplementedError("factorisation unavailable")

    monkeypatch.setattr(sympy, "factor_list", fail)
    with pytest.raises(BaseLocusNotSplit) as info:
        base_points(six_link.forward.map)
    assert isinstance(info.value.__cause__, NotImplementedError)


@pytest.mark.parametrize("value", [sympy.Float(0.1), sympy.sqrt(2)])
def test_sympy_coefficient_outside_qzeta_is_loud(monkeypatch, value, six_link):
    """A coefficient that sympy leaves as a float or an irrational is not
    read as a rational: base_points raises BaseLocusNotSplit."""
    from sblinks.sympy_bridge import _expr_to_qzeta

    monkeypatch.setattr(sympy, "nsimplify", lambda *args, **kwargs: value)
    with pytest.raises(BaseLocusNotSplit, match="outside Q"):
        _expr_to_qzeta(sympy.Integer(1))
    with pytest.raises(BaseLocusNotSplit, match="outside Q"):
        base_points(six_link.forward.map)


def test_followed_by_identity_is_the_link(L, link_at_unit):
    """Following a link by the identity matrix changes nothing; hexagon
    relies on this to skip the closing step when the chain already closes."""
    link = link_at_unit
    assert _followed_by_linear(link, mat_identity(L), link.forward.target) == link


def test_followed_by_linear_needs_a_k_map(L, link_at_coords):
    """diag(1, 1, u) with u = cbrt(t1) is not defined over K."""
    one, zero = L.one(), L.zero()
    m = ((one, zero, zero), (zero, one, zero), (zero, zero, L.gen("u")))
    link = link_at_coords
    with pytest.raises(NotEquivariant):
        _followed_by_linear(link, m, link.forward.target)


def test_independent_subset_is_the_greedy_subset(L):
    """One elimination keeps the same vectors, in the same order, as adding
    each vector that raises the rank."""

    def greedy(vectors):
        out = []
        for v in vectors:
            if rank(out + [v]) > len(out):
                out.append(v)
        return out

    rng = random.Random(7)
    u = L.gen("u")

    def entry():
        return L.scalar(rng.randint(-3, 3)) + L.scalar(rng.randint(-3, 3)) * u

    assert _independent_subset([]) == []
    for dim in (2, 3, 4, 4, 4):
        vectors = [tuple(entry() for _ in range(dim)) for _ in range(3)]
        a, b = entry(), entry()
        vectors.append(tuple(a * x + b * y for x, y in zip(vectors[0], vectors[1])))
        vectors += [(L.zero(),) * dim, vectors[1], tuple(entry() for _ in range(dim))]
        rng.shuffle(vectors)
        assert _independent_subset(vectors) == greedy(vectors)


def test_express_in_span(L):
    one, zero, u = L.one(), L.zero(), L.gen("u")
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    basis = [x * y, y * z]
    inside = (x * y).scale(u) - y * z
    assert _express_in_span([x * z], basis, L) is None
    assert _express_in_span([inside], basis, L) == ((u, -one),)
    # several polynomials from one elimination: a row each, or None when
    # any one of them lies outside the span
    assert _express_in_span([x * y, inside, z * y], basis, L) == (
        (one, zero), (u, -one), (zero, one),
    )
    assert _express_in_span([inside, x * z], basis, L) is None


@pytest.fixture(scope="module")
def two_radical_surface(K2, t_vars):
    """S_{t2} over K[cbrt t1][sqrt t2] and its unit 3-point, whose cycle
    element {u: 1, s: 0} sends its 3-link through the descent."""
    t1, t2 = t_vars
    M = K2.extend("u", 3, t1).extend("s", 2, t2)
    S = make_surface(CubicExtension(M, "u"), t2.lift_to(M))
    return S, unit_3point(S)


def _action_from_definition(src, tgt, basis, tower, name, V):
    """sigma^-1(A_tgt^-1 (c o A_src)) for the triple c = V . basis, as
    coordinates over the basis."""
    exps = {name: 1}
    forms = _linear_forms(src.twist_matrix(exps, tower))
    pulled = [p.subst(forms) for p in _mat_times(V, basis)]
    mixed = _mat_times(inverse3(tgt.twist_matrix(exps, tower)), pulled)
    act_inv = GaloisAction(tower, {name: -1})
    return tuple(
        _express_in_span([q.map_coeffs(act_inv.apply)], basis, tower)[0] for q in mixed
    )


@pytest.mark.parametrize("system", ["quintics", "conics"])
def test_twisted_action_matches_its_definition(
    system, surface, six_point, two_radical_surface
):
    """The matrix form B . sigma^-1(V) . P^T equals the operator applied to
    the triple V . w, for random coefficient matrices V with radical entries,
    for each generator sigma."""
    if system == "quintics":
        src, comps, degree, double = surface, six_point.components, 5, True
        tower = six_point.tower
    else:
        src, point = two_radical_surface
        comps, degree, double, tower = point.components, 2, False, point.tower
    tgt = opposite(src)
    basis, _ = curves_through(tower, comps, degree, double)
    assert len(basis) == 3
    u, s = (tower.gen(rad.name) for rad in tower.radicals)
    pool = [
        tower.zero(), tower.one(), tower.scalar(-2), u, s, u * s,
        u * u + tower.one(), tower.zeta(),
    ]
    rng = random.Random(11)
    for rad in tower.radicals:
        G = _twisted_action(src, tgt, basis, tower, rad.name)
        for _ in range(2):
            V = tuple(tuple(rng.choice(pool) for _ in basis) for _ in range(3))
            expected = _action_from_definition(src, tgt, basis, tower, rad.name, V)
            assert G(sum(V, ())) == sum(expected, ())


def test_descent_link_bytes_pinned(two_radical_surface, link_json):
    S, point = two_radical_surface
    assert point.cycle_element == {"u": 1, "s": 0}
    link = link_from_3point(S, point)
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (json.dumps(link_json(link), sort_keys=True), repr(link))
    )
    assert digests == (
        "2128b3ddbf7988cca0f21e9bd60803cbe040d174e9d29170a5e44a04b9dd97a6",
        "fed01b79295a845fd754cc223ff383dd520231120caeb3c0eb9026fee5c611a0",
    )


# ---------------------------------------------------------------------------
# closed-form backward maps of 3-links


def _seeded_3points(surface, L, count, seed):
    rng = random.Random(seed)
    points = []
    for _ in range(ATTEMPTS):
        triple = tuple(L.scalar(rng.randint(1, 9)) for _ in range(3))
        try:
            pt = closed_point_from_seed(surface, triple, L)
        except SblinksError:
            continue
        if pt.degree == 3:
            points.append(pt)
            if len(points) == count:
                return points
    raise AssertionError(f"only {len(points)} of {count} 3-points in {ATTEMPTS} seeds")


def _models_model():
    """The smooth cubic model of the models tower K[cbrt t1][cbrt mu]."""
    from sblinks.cubic_models import build_smooth_model
    from sblinks.field_tower import TowerField

    K = TowerField.rational(2)
    t1, t2 = K.t_var(0), K.t_var(1)
    return build_smooth_model(t1, (t2 - K.one()) / (K.scalar(27) * t1), K.one())


def _models_two_links(model):
    """The two links of `order3_selfmap`, the second before its alignment:
    at the coordinate points, then at the transported images of E3, E4, E5."""
    from sblinks.cubic_models import _two_links

    return _two_links(model, model.surface())


@pytest.fixture(scope="module")
def closed_form_links(surface, L, link_at_coords, link_at_unit):
    links = {"coords": link_at_coords, "unit": link_at_unit}
    for i, pt in enumerate(_seeded_3points(surface, L, 3, 20240613)):
        links[f"random{i}"] = link_from_3point(surface, pt)
    links["models_chi2"] = _models_two_links(_models_model())[1]
    return links


def _absorb_linear(b0: RationalMap, forward: RationalMap) -> RationalMap:
    """The reference inverse: compose(b0, forward) is linear, and the linear
    factor is divided out by the projective gcd of the composite."""
    m = compose(b0, forward)
    if m.degree != 1:
        raise SblinksError(
            f"candidate backward map composes to degree {m.degree}, not 1"
        )
    return apply_matrix(inverse3(m.matrix()), b0)


def _absorbed_backward(link):
    """The reference backward map: sigma after the inverse of the matrix of
    the inverse base point, with its linear factor divided out of the
    composite with the forward map by the projective gcd."""
    fwd = link.forward.map
    m = _columns(link.inverse_base_point.components)
    return _absorb_linear(RationalMap(fwd.tower, _sigma_forms(inverse3(m))), fwd)


@pytest.mark.parametrize(
    "name", ["coords", "unit", "random0", "random1", "random2", "models_chi2"]
)
def test_closed_form_backward_matches_absorbed(name, closed_form_links):
    link = closed_form_links[name]
    reference = _absorbed_backward(link)
    assert link.backward.map == reference
    assert link.backward.map.to_json() == reference.to_json()


def _inverse_quintics(link, extra=None):
    """The candidate b0 of a 6-link: the quintics double at the components
    of its inverse base point, or at the first five and the point extra."""
    q = link.inverse_base_point
    comps = list(q.components) if extra is None else list(q.components[:5]) + [extra]
    basis, _ = curves_through(q.tower, comps, 5, double=True)
    assert len(basis) == 3
    return RationalMap(q.tower, tuple(basis))


def test_6link_backward_matches_absorbed(six_link):
    """The backward map that three values of b0 o forward build is the one
    that the projective gcd of the composite gives."""
    reference = _absorb_linear(_inverse_quintics(six_link), six_link.forward.map)
    assert six_link.backward.map == reference
    assert six_link.backward.map.to_json() == reference.to_json()


def _perturbed(b0):
    """b0 with one coefficient of its first coordinate raised by one: a
    one-coefficient mutation."""
    c0 = b0.coords[0]
    e, c = max(c0.tuple_terms().items())
    bumped = c0 + MPoly.monomial(c0.nvars, e, c.one())
    return RationalMap(b0.tower, (bumped,) + b0.coords[1:])


def _mutated_inverse_data(name, link):
    fwd = link.forward.map
    if name == "coefficient":
        return _perturbed(_inverse_quintics(link)), fwd
    if name == "double_point":
        zero = fwd.tower.zero()
        off = (zero, zero, zero.one())
        assert off not in link.inverse_base_point.component_set()
        return _inverse_quintics(link, off), fwd
    f0, _, f2 = fwd.coords
    return _inverse_quintics(link), RationalMap(fwd.tower, (f0, f0, f2))


@pytest.mark.parametrize(
    "name, match",
    [
        ("coefficient", "backward o forward is not the identity"),
        ("double_point", "singular 3x3 matrix"),
        ("zero_jacobian", "Jacobian vanishes at the trial points"),
    ],
    ids=["coefficient", "double_point", "zero_jacobian"],
)
def test_6link_division_rejects_mutations(name, match, six_link):
    """A candidate b0 with one coefficient changed gives a backward map that
    fails the round trip, one double at a K-point in place of one component
    of q gives singular values, and a forward triple with two equal
    coordinates has zero Jacobian at every trial point: each raises
    SblinksError, not an arithmetic error, from the backward map's values
    followed by `_certified`."""
    b0, fwd = _mutated_inverse_data(name, six_link)
    forward = TwistedMap(fwd, six_link.forward.source, six_link.forward.target)
    with pytest.raises(SblinksError, match=match):
        bwd = _inverse_by_values(b0, fwd)
        _certified(_with_backward(dataclasses.replace(six_link, forward=forward), bwd))


def _backward_by_jacobian_division(b0, forward):
    """The reference backward map eta^-1 . b0: eta from the raw b0 o forward
    divided exactly by J^2, J the Jacobian determinant of forward."""
    fc = forward.coords
    jac = det3([[c.derivative(i) for i in range(3)] for c in fc])
    jac2 = jac * jac
    eta = [exact_div(c.subst(list(fc)), jac2) for c in b0.coords]
    assert all(q.total_degree() == 1 for q in eta)
    return apply_matrix(inverse3(_coefficient_rows(forward.tower, eta)), b0)


@pytest.mark.parametrize("moved", [False, True], ids=["fixture", "base-point-at-e0"])
def test_6link_backward_by_values_matches_jacobian_division(moved, six_link, six_point):
    """The backward map read off three values is byte for byte the one that
    the exact division of b0 o forward by J^2 gives: on the fixture's
    forward map, and on that map moved by `subst_linear` so that the first
    component of p sits at (1 : 0 : 0), where J vanishes and a grid point
    stands in for the coordinate point."""
    b0 = _inverse_quintics(six_link)
    fwd = six_link.forward.map
    if moved:
        tower = six_point.tower
        one, zero = tower.one(), tower.zero()
        e0, e1, e2 = (tuple(one if i == j else zero for i in range(3)) for j in range(3))
        p0 = six_point.components[0]
        # m e0 = p0, the other columns two coordinate points that keep m invertible
        m = next(
            m
            for m in (_columns([p0, a, b]) for a, b in ((e1, e2), (e0, e2), (e0, e1)))
            if not det3(m).is_zero()
        )
        fwd = subst_linear(fwd, m)
        jac = det3(
            [[c.derivative(i).eval_zero_ok(list(e0), zero) for i in range(3)] for c in fwd.coords]
        )
        assert jac.is_zero()
    bwd = _inverse_by_values(b0, fwd)
    reference = _backward_by_jacobian_division(b0, fwd)
    assert repr(bwd) == repr(reference)
    assert json.dumps(bwd.to_json(), sort_keys=True) == json.dumps(
        reference.to_json(), sort_keys=True
    )


def _line_images(forward, components):
    """Images of the lines through pairs of the three components, ordered so
    that line_i misses component_i, each line evaluated at c_j + 2 c_k, not
    at the point c_j + c_k where the constructor evaluates it."""
    out = []
    for i in range(3):
        j, k = [a for a in range(3) if a != i]
        cj, ck = components[j], components[k]
        out.append(forward.evaluate(tuple(a + b + b for a, b in zip(cj, ck))))
    return out


@pytest.mark.parametrize("name", ["coords", "unit", "random0", "models_chi2"])
def test_3link_inverse_base_point_is_the_line_images(name, closed_form_links):
    """The twisted orbit of one line image is every line image, and its
    component i is the image of the line that misses base component i, here
    at a second point of each line."""
    link = closed_form_links[name]
    images = _line_images(link.forward.map, link.base_point.components)
    assert list(link.inverse_base_point.components) == images


def test_6link_inverse_base_point_is_the_conic_images(six_link, six_point):
    """The twisted orbit of one conic image is the images of all six conics
    through five of the six components, each conic evaluated with its line
    directions in reverse order, so the constructor's conic at a second
    point."""
    fwd = six_link.forward.map
    comps = six_point.components
    tower = six_point.tower
    images = set()
    for i in range(6):
        others = [comps[j] for j in range(6) if j != i]
        conic = conic_through_five(tower, others)
        points = list(_conic_points(conic, others[0], tower))[::-1]
        images.add(_image_at(fwd.coords, points, tower))
    assert len(images) == 6
    assert six_link.inverse_base_point.component_set() == images


def test_6link_rejects_a_conic_image_off_a_degree_6_orbit(
    monkeypatch, surface, six_point
):
    """A conic image whose twisted orbit is not of degree 6 stops the link
    before its backward map is built."""
    import sblinks.birational as birational

    tower = six_point.tower
    one, zero = tower.one(), tower.zero()
    monkeypatch.setattr(birational, "_image_at", lambda *args: (one, zero, zero))
    with pytest.raises(SblinksError, match="orbit of degree 3, not 6"):
        link_from_6point(surface, six_point)


def test_3link_round_trip_refuses_a_point_off_the_contracted_line(monkeypatch):
    """The inverse base point is proposed by one evaluation and proved only
    by the round trip: the forward map's value at c1 + c2 + (1, 2, 5), off
    the contracted line, is a degree-3 orbit too, and each of the four
    seed-1 link3 bench inputs then fails backward o forward = id."""
    import sblinks.birational as birational
    from perfbench.workloads import Link3

    work = Link3()
    points, _ = work.setup(1, 4)
    real = birational._image_at

    def shifted(coords, points, tower):
        (p,) = points
        off = tuple(a + tower.scalar(k) for a, k in zip(p, (1, 2, 5)))
        return real(coords, (off,), tower)

    monkeypatch.setattr(birational, "_image_at", shifted)
    for point in points:
        with pytest.raises(SblinksError, match="backward o forward is not the identity"):
            link_from_3point(work.S, point)


def _bench_3points(seed, n=4):
    """The surface of the link3 bench workload and its first n points at a
    seed, as a run draws them."""
    from perfbench.workloads import Link3

    work = Link3()
    points, _ = work.setup(seed, n)
    return work.S, points


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_3link_orbit_data_match_the_references(seed, assert_orbit_data_rebuilt):
    """On the link3 bench points of a seed, each normal-form forward map is
    equivariant and each inverse base point, derived as (q0, c q0, c^2 q0)
    with p's orbit data, is the orbit table's point on q0."""
    surface, points = _bench_3points(seed)
    for point in points:
        assert point.cycle_element == {"u": 1}  # the normal-form path
        assert_orbit_data_rebuilt(link_from_3point(surface, point))


def test_models_links_orbit_data_match_the_references(
    monkeypatch, assert_orbit_data_rebuilt
):
    """chi1 and chi2 of the order-3 map descend over the models tower; their
    inverse base points and the images of E3, E4, E5 that chi1 carries keep
    the orbit data that the orbit table and `transport_point` rebuild."""
    import sblinks.cubic_models as cubic_models

    carried = []
    real = cubic_models._inherited

    def recorded(point, target, comps):
        out = real(point, target, comps)
        carried.append((point, out))
        return out

    monkeypatch.setattr(cubic_models, "_inherited", recorded)
    chi1, chi2 = _models_two_links(_models_model())
    assert len(carried) == 1 and carried[0][1] == chi2.base_point
    assert_orbit_data_rebuilt(chi1, carried)
    assert_orbit_data_rebuilt(chi2)


def test_inherited_refuses_colliding_components(coord_point, link_at_coords):
    """Distinct images are what make the stabilisers equal: a carried point
    whose images coincide is refused."""
    target = link_at_coords.forward.target
    v0, v1, _ = coord_point.components
    with pytest.raises(NotAnOrbit, match="not pairwise distinct"):
        _inherited(coord_point, target, (v0, v1, v0))


@pytest.mark.parametrize("mutant", ["shear", "diagonal"])
def test_3link_trusts_only_the_scaling_of_the_normal_form(
    monkeypatch, mutant, surface, coord_point, unit_point
):
    """The normal-form path derives sigma o phi's equivariance from
    `normalize_3point`, and checks only p's shape, xi' in K and the round
    trip.  A phi moved by a shear no longer sends p to the coordinate points,
    and the link is refused.  A phi moved by a diagonal matrix, here
    diag(1, 2, 1), still does: the line images stay the coordinate points,
    and the round trip holds, so only phi's twist, the identity
    `test_normalize_3point_gives_the_standard_twist` pins, tells it apart.
    The reference `is_equivariant` refuses that forward map."""
    import sblinks.birational as birational

    real = birational.normalize_3point

    def moved(surface, point):
        phi, xi_p, tower = real(surface, point)
        o, z = tower.one(), tower.zero()
        shear = ((o, o, z), (z, o, z), (z, z, o))
        e = shear if mutant == "shear" else _diag(tower, 1, 2, 1)
        return mat_mul(e, phi), xi_p, tower

    monkeypatch.setattr(birational, "normalize_3point", moved)
    for point in (coord_point, unit_point):
        if mutant == "shear":
            with pytest.raises(SblinksError):
                link_from_3point(surface, point)
            continue
        phi, xi_p, tower = moved(surface, point)
        act = GaloisAction(tower, point.cycle_element)
        twist = surface.twist_matrix(point.cycle_element, tower)
        conjugated = mat_mul(phi, mat_mul(twist, mat_galois(inverse3(phi), act)))
        assert conjugated != _nu_matrix(tower, xi_p)
        fwd = link_from_3point(surface, point).forward
        assert not is_equivariant(fwd.map, fwd.source, fwd.target)


@pytest.mark.parametrize("name", ["unit", "random0", "models_chi2"])
def test_cremona_free_path_matches_tower_path(monkeypatch, name, closed_form_links):
    """P . D . sigma(adj(Q) x) as one free-ring substitution and by tower
    products is the link's backward map either way; the free-term rule
    picks the free ring for chi2 over the two-radical models tower only."""
    import sblinks.birational as birational

    link = closed_form_links[name]
    fwd = link.forward.map
    tower = fwd.tower
    P = _columns(link.base_point.components)
    adj_q = adjugate3(_columns(link.inverse_base_point.components))
    d = _cremona_scales(fwd, P, adj_q)
    PD = tuple(tuple(x * y for x, y in zip(row, d)) for row in P)
    free = RationalMap(tower, _cremona_free(tower, PD, adj_q))
    assert free == RationalMap(tower, _cremona_tower(PD, adj_q)) == link.backward.map
    taken = []

    def counted(*args):
        taken.append(args)
        return _cremona_free(*args)

    monkeypatch.setattr(birational, "_cremona_free", counted)
    assert _cremona(tower, P, d, adj_q) == link.backward.map
    assert bool(taken) is (name == "models_chi2")
    assert (_free_terms(PD) * _free_terms(adj_q) > _CREMONA_FREE_PAIRS) is bool(taken)


@pytest.mark.parametrize("name", ["unit", "models_chi2"])
def test_subst_linear_clears_the_matrix(monkeypatch, name, closed_form_links):
    """A matrix with t-denominators is cleared by one lcm before the
    substitution, which then walks the free ring: the stored triple is the
    one the uncleared substitution gives, over L and the models tower."""
    import sblinks.field_tower as field_tower

    link = closed_form_links[name]
    tower = link.forward.map.tower
    m = _matrix_with_denominators(random.Random(20240615), tower)
    assert not all(d.is_const() for row in m for d in (c.den for c in row))
    walked = []
    real = field_tower._free_subst

    def counted(*args):
        out = real(*args)
        walked.append(out is not None)
        return out

    for f in (link.forward.map, link.backward.map):
        uncleared = RationalMap(tower, [c.subst(_linear_forms(m)) for c in f.coords])
        monkeypatch.setattr(field_tower, "_free_subst", counted)
        assert subst_linear(f, m) == uncleared
        monkeypatch.setattr(field_tower, "_free_subst", real)
    assert walked == [True] * 6


def test_followed_by_linear_takes_one_determinant(monkeypatch, L, link_at_unit):
    """Following a link by m checks m once: adj(m) is invertible with it,
    det(adj m) = det(m)^2.  A scalar matrix leaves the link unchanged."""
    import sblinks.birational as birational

    calls = []

    def counted(m):
        calls.append(m)
        return det3(m)

    monkeypatch.setattr(birational, "det3", counted)
    link = link_at_unit
    assert _followed_by_linear(link, _diag(L, 2, 2, 2), link.forward.target) == link
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["random0", "random1", "models_chi2"])
def test_swapped_cremona_scales_fail_the_round_trip(name, closed_form_links):
    """Swapping two entries of D in bwd = P . D . sigma(adj(Q) x) leaves a map
    that the link's round-trip certificate rejects."""
    link = closed_form_links[name]
    fwd = link.forward.map
    P = _columns(link.base_point.components)
    Q = _columns(link.inverse_base_point.components)
    adj_q = adjugate3(Q)
    d = _cremona_scales(fwd, P, adj_q)
    assert _cremona(fwd.tower, P, d, adj_q) == link.backward.map
    swapped = (d[1], d[0], d[2])
    assert not _proportional(d, swapped)
    bad = _cremona(fwd.tower, P, swapped, adj_q)
    with pytest.raises(SblinksError, match="backward o forward is not the identity"):
        _certified(_with_backward(link, bad))


def test_3link_takes_no_compose(monkeypatch, surface, coord_point, unit_point, L):
    """The backward map of a 3-link comes from 3x3 matrices alone: neither
    compose nor the 6-link's `_inverse_by_values` runs, on either
    construction path."""
    import sblinks.birational as birational

    def forbidden(*args):
        raise AssertionError("link_from_3point composed maps")

    monkeypatch.setattr(birational, "compose", forbidden)
    monkeypatch.setattr(birational, "_inverse_by_values", forbidden)
    (random_point,) = _seeded_3points(surface, L, 1, 20240613)
    for pt in (coord_point, unit_point, random_point):
        assert link_from_3point(surface, pt).forward.map.degree == 2


def test_6link_takes_no_compose(monkeypatch, surface, six_point, link_json):
    """The backward map of a 6-link comes from three values of b0 o forward,
    and its raw round trip is the certificate: compose never runs, and the
    link is the pinned one."""
    import sblinks.birational as birational
    from test_serialization_pins import LINK_PINS, _digests

    def forbidden(*args):
        raise AssertionError("link_from_6point composed maps")

    monkeypatch.setattr(birational, "compose", forbidden)
    link = link_from_6point(surface, six_point)
    assert _digests(link_json(link), repr(link)) == LINK_PINS["six_link"]


@pytest.mark.parametrize("name", ["coords", "unit", "models", "six"])
def test_links_take_no_gcd(
    monkeypatch, name, surface, coord_point, unit_point, six_point, link_sha
):
    """The link constructors trust their triples to be coprime and find the
    inverse base point by evaluation, on the pure-g 3-link branch
    (coordinate and unit points), the descent branch (the models tower's two
    links) and for a 6-link: no projective gcd runs, neither the reducer nor
    `gcd_many_homogeneous` nor `gcd`, and each link is the one pinned or
    built without the guard."""
    import sblinks.birational as birational

    builds = {
        "coords": lambda: [link_from_3point(surface, coord_point)],
        "unit": lambda: [link_from_3point(surface, unit_point)],
        "six": lambda: [link_from_6point(surface, six_point)],
    }
    if name == "models":
        model = _models_model()
        builds["models"] = lambda: _models_two_links(model)
    expected = [link_sha(link) for link in builds[name]()]

    def forbidden(*args):
        raise AssertionError("a link construction took a gcd")

    for helper in ("_normalize_coords", "gcd_many_homogeneous", "gcd"):
        monkeypatch.setattr(birational, helper, forbidden)
    assert [link_sha(link) for link in builds[name]()] == expected


@pytest.mark.parametrize("name", ["link_at_coords", "link_at_unit", "six_link"])
def test_pinned_link_maps_are_coprime(name, request, assert_coprime):
    link = request.getfixturevalue(name)
    assert_coprime(link.forward.map, link.backward.map)


@pytest.mark.parametrize("defect", ["collinear", "conic"])
def test_6link_checks_q_before_b0(monkeypatch, defect, surface, six_point):
    """An inverse base point q in special position, forced here by the
    general-position check reporting one at q, raises SpecialPosition before
    b0 is built: the quintics double at q are never solved for.  The conic
    defect hands the check the conic through q's first five components in
    place of the one through its last five, so it passes through the first."""
    import sblinks.birational as birational

    p = list(six_point.components)
    real_general, real_curves = birational._in_general_position, birational.curves_through
    real_conic = birational.conic_through_five
    quintics_at, sixes = [], []

    def general(points):
        if len(points) == 6:
            sixes.append(list(points))
        return real_general(points) and (defect != "collinear" or list(points) == p)

    def curves(tower, comps, degree, double=False):
        if degree == 5:
            quintics_at.append(list(comps))
        return real_curves(tower, comps, degree, double)

    def conic(tower, five):
        if defect == "conic" and sixes[-1] != p:
            return real_conic(tower, sixes[-1][:5])
        return real_conic(tower, five)

    monkeypatch.setattr(birational, "_in_general_position", general)
    monkeypatch.setattr(birational, "curves_through", curves)
    monkeypatch.setattr(birational, "conic_through_five", conic)
    with pytest.raises(SpecialPosition):
        link_from_6point(surface, six_point)
    assert quintics_at == [p]


# SHA-256 of the link's JSON form as the projective-gcd route built it
# (`_absorb_linear` above)
SIX_LINK_T2_PLUS_1_SHA = "77c6559bb488c26c0afac768ce7b43102ac3f3c89b0c50089d0b27cbef011d27"


def test_6link_at_a_non_monomial_radicand(surface, t_vars, assert_link_facts, link_sha):
    """alpha = t2 + 1, whose square root the link6 bench workload leaves out:
    the link is the pinned one and keeps every link fact."""
    _, t2 = t_vars
    link = link_from_6point(surface, sixpoint_from_sqrt(surface, t2 + t2.one()))
    assert link_sha(link) == SIX_LINK_T2_PLUS_1_SHA
    assert_link_facts(link)


def test_each_link_fact_is_checked_once(
    monkeypatch,
    surface,
    coord_point,
    unit_point,
    six_point,
    two_radical_surface,
    assert_link_facts,
):
    """A normal-form 3-link derives its forward map's equivariance and its
    inverse base point's orbit data, and checks neither.  The descent
    3-link checks its forward map once and derives q; the 6-link checks
    its forward map once and reads q off one orbit table.  The normal form
    needs a tower of height 1: over the two-radical tower the 3-link does
    not reach `normalize_3point`.  A link derived from a certified one (its
    inverse, or it followed by a linear map over K) checks no map and
    substitutes nothing, yet keeps every fact."""
    import sblinks.birational as birational

    names = ("is_equivariant", "closed_point_from_seed", "normalize_3point")
    calls = {name: 0 for name in names}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in names:
        monkeypatch.setattr(birational, name, counted(name, getattr(birational, name)))
    S2, p2 = two_radical_surface
    links = []
    for build, src, pt, expected in (
        (link_from_3point, surface, coord_point, (0, 0, 1)),
        (link_from_3point, surface, unit_point, (0, 0, 1)),
        (link_from_3point, S2, p2, (1, 0, 0)),
        (link_from_6point, surface, six_point, (1, 1, 0)),
    ):
        calls.update(dict.fromkeys(names, 0))
        links.append(build(src, pt))
        assert tuple(calls[name] for name in names) == expected
    alpha = auto_between_3points(surface, coord_point, unit_point)

    def forbidden(*args):
        raise AssertionError("a derived link re-checked a certified fact")

    monkeypatch.setattr(birational, "is_equivariant", forbidden)
    monkeypatch.setattr(birational, "_substituted", forbidden)
    monkeypatch.setattr(birational, "_composite", forbidden)
    back = links[0].inverse()
    moved = _followed_by_linear(back, alpha.matrix, surface)
    monkeypatch.undo()
    assert moved.forward.map != back.forward.map
    for link in links + [back, moved]:
        assert_link_facts(link)


@pytest.mark.parametrize("cycle", [{}, {"u": 1}])
def test_collinear_3point_is_rejected(cycle, surface, L, t_vars):
    """Components on one line are rejected before any map is built, on the
    descent path and on the normal-form path alike."""
    _, t2 = t_vars
    one, zero = L.one(), L.zero()
    comps = [(one, zero, zero), (zero, one, zero), (one, t2.lift_to(L), zero)]
    fake = ClosedPoint(
        surface, L, tuple(normalize_point(c) for c in comps), 3, ("x",), cycle
    )
    with pytest.raises(Collinear, match="the three components are collinear"):
        link_from_3point(surface, fake)
