import dataclasses
import hashlib
import json
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sblinks.errors import (
    BaseLocusNotSplit,
    Collinear,
    IdenticallyZero,
    NonFiniteBaseLocus,
    NotEquivariant,
    SblinksError,
    SpecialPosition,
)
from sblinks.birational import (
    RationalMap,
    TwistedMap,
    _absorb_linear,
    _certified,
    _cleared,
    _columns,
    _cremona,
    _cremona_scales,
    _followed_by_linear,
    _express_in_span,
    _factor_over_base,
    _independent_subset,
    _linear_forms,
    _mat_times,
    _radical_roots,
    _sigma_after,
    _twisted_action,
    _univariate_roots,
    apply_matrix,
    base_points,
    compose,
    conic_through_five,
    curves_through,
    equals,
    image_of_conic,
    image_of_line,
    is_equivariant,
    link_from_3point,
    link_from_6point,
    subst_linear,
    transport_point,
)
from sblinks.field_tower import CubicExtension, GaloisAction
from sblinks.linalg import _proportional, adjugate3, det3, inverse3, mat_identity, rank
from sblinks.multipoly import MPoly
from sblinks.severi_brauer import (
    ClosedPoint,
    auto_between_3points,
    closed_point_from_seed,
    make_closed_point,
    make_surface,
    normalize_point,
    opposite,
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
        normalize=False,
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
        normalize=False,
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


def test_coprime_paths_match_full_gcd(L, link_at_coords, link_at_unit):
    """apply_matrix, subst_linear and sigma o phi skip the gcd for invertible
    matrices; the result must be the map the full gcd gives."""
    rng = random.Random(20240612)
    maps = [
        link_at_coords.forward.map,
        link_at_unit.forward.map,
        link_at_unit.backward.map,
    ]
    for f in maps:
        m = _random_invertible(rng, L)
        assert apply_matrix(m, f) == RationalMap(L, _raw_apply(m, f.coords))
        m = _random_invertible(rng, L, radical=False)
        forms = _raw_forms(m)
        assert subst_linear(f, m) == RationalMap(L, [c.subst(forms) for c in f.coords])
    for _ in range(3):
        m = _random_invertible(rng, L)
        l0, l1, l2 = _raw_forms(m)
        assert _sigma_after(L, m) == RationalMap(L, (l1 * l2, l0 * l2, l0 * l1))


def test_singular_matrix_takes_full_gcd(L):
    sig = RationalMap.standard_involution(L)
    one, zero = L.one(), L.zero()
    # (yz, xz, xz): the common factor z must still be removed
    m = ((one, zero, zero), (zero, one, zero), (zero, one, zero))
    g = apply_matrix(m, sig)
    assert g.degree == 1
    assert g == RationalMap(L, _raw_apply(m, sig.coords))
    # sigma(x, x, z) = (xz, xz, x^2): the common factor x must be removed
    m = ((one, zero, zero), (one, zero, zero), (zero, zero, one))
    h = subst_linear(sig, m)
    assert h.degree == 1
    forms = _raw_forms(m)
    assert h == RationalMap(L, [c.subst(forms) for c in sig.coords])


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
    """_cleared scales a whole triple by one base-field denominator: no
    coefficient keeps a t-denominator and the map stays the same; compose,
    which substitutes cleared triples, gives the map of the raw substitution."""
    assert not all(d.is_const() for d in _denominators(f.coords + h.coords))
    for g in (f, h):
        cleared = _cleared(g.coords)
        assert all(d.is_const() for d in _denominators(cleared))
        assert _proportional(cleared, g.coords)
    raw = [c.subst(list(h.coords)) for c in f.coords]
    assert compose(f, h) == RationalMap(f.tower, raw)


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
    one, u = L.one(), L.gen("u")
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    basis = [x * y, y * z]
    assert _express_in_span(x * z, basis, L) is None
    assert _express_in_span((x * y).scale(u) - y * z, basis, L) == (u, -one)


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
        _express_in_span(q.map_coeffs(act_inv.apply), basis, tower) for q in mixed
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


def _models_second_link():
    """The second link of `order3_selfmap`, before its alignment: at the
    transported images of E3, E4, E5, over the models tower."""
    from sblinks.cubic_models import _image_of_contracted_line, build_smooth_model
    from sblinks.field_tower import TowerField
    from sblinks.severi_brauer import coordinate_3point

    K = TowerField.rational(2)
    t1, t2 = K.t_var(0), K.t_var(1)
    model = build_smooth_model(t1, (t2 - K.one()) / (K.scalar(27) * t1), K.one())
    surface = model.surface()
    chi1 = link_from_3point(surface, coordinate_3point(surface))
    comps = [_image_of_contracted_line(model, model.lines[i]) for i in range(3, 6)]
    q0 = make_closed_point(surface, comps, model.tower)
    q1 = transport_point(chi1.forward.map, q0, chi1.forward.target)
    return link_from_3point(chi1.forward.target, q1)


@pytest.fixture(scope="module")
def closed_form_links(surface, L, link_at_coords, link_at_unit):
    links = {"coords": link_at_coords, "unit": link_at_unit}
    for i, pt in enumerate(_seeded_3points(surface, L, 3, 20240613)):
        links[f"random{i}"] = link_from_3point(surface, pt)
    links["models_chi2"] = _models_second_link()
    return links


def _absorbed_backward(link):
    """The reference backward map: sigma after the inverse of the matrix of
    the inverse base point, with its linear factor divided out of the
    composite with the forward map by the projective gcd."""
    fwd = link.forward.map
    m = _columns(link.inverse_base_point.components)
    return _absorb_linear(_sigma_after(fwd.tower, inverse3(m)), fwd)


@pytest.mark.parametrize(
    "name", ["coords", "unit", "random0", "random1", "random2", "models_chi2"]
)
def test_closed_form_backward_matches_absorbed(name, closed_form_links):
    link = closed_form_links[name]
    reference = _absorbed_backward(link)
    assert link.backward.map == reference
    assert link.backward.map.to_json() == reference.to_json()


def _line_images(forward, components):
    """Images of the lines through pairs of the three components, ordered so
    that line_i misses component_i, each line substituted on its own."""
    out = []
    for i in range(3):
        j, k = [a for a in range(3) if a != i]
        out.append(image_of_line(forward, components[j], components[k]))
    return out


@pytest.mark.parametrize("name", ["coords", "unit", "random0", "models_chi2"])
def test_3link_inverse_base_point_is_the_line_images(name, closed_form_links):
    """The twisted orbit of one line image is every line image, and its
    component i is the image of the line that misses base component i."""
    link = closed_form_links[name]
    images = _line_images(link.forward.map, link.base_point.components)
    assert list(link.inverse_base_point.components) == images


def test_6link_inverse_base_point_is_the_conic_images(six_link, six_point):
    """The twisted orbit of one conic image is the images of all six conics
    through five of the six components."""
    fwd = six_link.forward.map
    comps = six_point.components
    images = set()
    for i in range(6):
        others = [comps[j] for j in range(6) if j != i]
        conic = conic_through_five(six_point.tower, others)
        images.add(image_of_conic(fwd, conic, others[0], six_point.tower))
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
    monkeypatch.setattr(birational, "image_of_conic", lambda *args: (one, zero, zero))
    with pytest.raises(SblinksError, match="orbit of degree 3, not 6"):
        link_from_6point(surface, six_point)


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
    compose nor _absorb_linear runs, on either construction path."""
    import sblinks.birational as birational

    def forbidden(*args):
        raise AssertionError("link_from_3point composed maps")

    monkeypatch.setattr(birational, "compose", forbidden)
    monkeypatch.setattr(birational, "_absorb_linear", forbidden)
    (random_point,) = _seeded_3points(surface, L, 1, 20240613)
    for pt in (coord_point, unit_point, random_point):
        assert link_from_3point(surface, pt).forward.map.degree == 2


def test_each_link_fact_is_checked_once(
    monkeypatch, surface, coord_point, unit_point, six_point, assert_link_facts
):
    """A constructed link checks its forward map's equivariance once; a link
    derived from a certified one (its inverse, or it followed by a linear map
    over K) checks no map and substitutes nothing, yet keeps every fact."""
    import sblinks.birational as birational

    calls = []
    real = birational.is_equivariant

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(birational, "is_equivariant", counted)
    links = []
    for build, pt in (
        (link_from_3point, coord_point),
        (link_from_3point, unit_point),
        (link_from_6point, six_point),
    ):
        calls.clear()
        links.append(build(surface, pt))
        assert len(calls) == 1
    alpha = auto_between_3points(surface, coord_point, unit_point)

    def forbidden(*args):
        raise AssertionError("a derived link re-checked a certified fact")

    monkeypatch.setattr(birational, "is_equivariant", forbidden)
    monkeypatch.setattr(birational, "_substituted", forbidden)
    back = links[0].inverse()
    moved = _followed_by_linear(back, alpha.matrix, surface)
    monkeypatch.undo()
    assert moved.forward.map != back.forward.map
    for derived in (back, moved):
        assert_link_facts(derived)


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
