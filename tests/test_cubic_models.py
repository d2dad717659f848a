import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import sblinks.birational as birational
import sblinks.cubic_models as cubic_models
from sblinks.birational import (
    _coefficient_rows,
    _express_in_span,
    _substituted,
    compose,
)
from sblinks.errors import (
    DegenerateTower,
    IdentityFails,
    LambdaIsCube,
    SblinksError,
    SectionNotFound,
    ZeroXi,
)
from sblinks.cubic_models import (
    _lines_meet,
    _pluecker,
    _squares_to,
    _two_links,
    build_singular_model,
    build_smooth_model,
    order3_selfmap,
    reduce_mod_cubic,
    section_of_contraction,
    verify_singular_model,
    verify_smooth_model,
)
from sblinks.field_tower import TowerField
from sblinks.linalg import _proportional, nullspace, rank
from sblinks.multipoly import MPoly
from sblinks.severi_brauer import _nu_matrix, radicand_class_string


@pytest.fixture(scope="module")
def K2m():
    return TowerField.rational(2)


@pytest.fixture(scope="module")
def singular(K2m):
    return build_singular_model(K2m.t_var(0), K2m.t_var(1))


@pytest.fixture(scope="module")
def smooth(K2m):
    t1, t2 = K2m.t_var(0), K2m.t_var(1)
    nu = K2m.one()
    mu = (t2 - K2m.one()) / (K2m.scalar(27) * t1)
    return build_smooth_model(t1, mu, nu)


def test_singular_model_identities(singular):
    report = verify_singular_model(singular)
    assert report["factorization"]
    assert report["singular_points"]
    assert report["psi_equivariant_to_op"]
    assert report["sigma_psi_equivariant"]
    assert report["fibration_specialization"]


def test_singular_points_values(singular):
    zeta = singular.tower.zeta()
    u = singular.ext.root()
    for k, pt in enumerate(singular.singular_points):
        lam_k = zeta ** k * u
        expected = (singular.tower.zero(), singular.tower.one(), lam_k, lam_k ** 2)
        from sblinks.severi_brauer import normalize_point

        assert pt == normalize_point(expected)


def test_fibration_equation_string(singular):
    s = singular.equation_string()
    assert "w^3" in s and "3*x*y*z" in s
    assert singular.is_fibration_specialization()


def test_singular_negative_control(singular):
    bad_factors = (
        singular.factors[0],
        singular.factors[1] + MPoly.const(3, singular.tower.one()),
        singular.factors[2],
    )
    bad = dataclasses.replace(singular, factors=bad_factors)
    with pytest.raises(IdentityFails):
        verify_singular_model(bad)
    # tampering with psi breaks the equivariance identity
    bad_psi = (singular.psi[0], singular.psi[1], singular.psi[0])
    bad2 = dataclasses.replace(singular, psi=bad_psi)
    with pytest.raises(IdentityFails, match="psi is not equivariant") as e:
        verify_singular_model(bad2)
    residue = e.value.residue
    assert not residue.is_zero()
    assert reduce_mod_cubic(residue, singular.equation) == residue


def test_smooth_negative_control(smooth):
    f = smooth.contraction
    bad = dataclasses.replace(smooth, contraction=(f[0], f[1], f[0]))
    with pytest.raises(IdentityFails, match="contraction is not g-equivariant") as e:
        verify_smooth_model(bad)
    residue = e.value.residue
    assert not residue.is_zero()
    assert reduce_mod_cubic(residue, smooth.cubic) == residue


# ---------------------------------------------------------------------------
# facts derived from checked identities, not checked again


def test_singular_check_reduces_only_psi_minors(monkeypatch, singular):
    """sigma o psi's equivariance is derived from psi's and the involution's
    twist identity: only psi's three minors are reduced modulo the cubic."""
    reduced = []
    reduce = cubic_models.reduce_mod_cubic

    def counted(p, cubic):
        reduced.append(p)
        return reduce(p, cubic)

    monkeypatch.setattr(cubic_models, "reduce_mod_cubic", counted)
    assert verify_singular_model(singular)["sigma_psi_equivariant"]
    assert len(reduced) == 3


def test_sigma_psi_is_equivariant_modulo_the_cubic(singular):
    """The derived fact, checked directly: sigma o psi is nu_xi . g(sigma o psi)
    projectively modulo the cubic."""
    p = singular.psi
    sig_psi = (p[1] * p[2], p[0] * p[2], p[0] * p[1])
    cubic_models._check_equivariant_mod(
        sig_psi,
        _nu_matrix(singular.tower, singular.xi),
        singular.ext.generator,
        singular.equation,
        "sigma o psi is not equivariant towards S_xi",
    )


def test_singular_refuses_a_failed_twist_identity(monkeypatch, singular):
    monkeypatch.setattr(cubic_models, "is_equivariant", lambda *args: False)
    with pytest.raises(IdentityFails, match="sigma does not carry"):
        verify_singular_model(singular)


def test_smooth_check_substitutes_nothing_into_the_cubic(monkeypatch, smooth):
    """That the lines lie on the cubic is derived from the two product
    identities: nothing is substituted into the cubic."""
    substituted = []
    subst = MPoly.subst

    def counted(self, values):
        if self == smooth.cubic:
            substituted.append(values)
        return subst(self, values)

    monkeypatch.setattr(MPoly, "subst", counted)
    assert verify_smooth_model(smooth) == SMOOTH_REPORT
    assert substituted == []


def test_smooth_refuses_a_perturbed_d_plane(smooth):
    D = smooth.D
    w = MPoly.variable(4, 0, smooth.tower.one())
    bad = dataclasses.replace(smooth, D=(D[0], D[1] + w, D[2]))
    with pytest.raises(IdentityFails, match="xi C0C1C2 - D0D1D2") as e:
        verify_smooth_model(bad)
    assert not e.value.residue.is_zero()


def test_smooth_refuses_a_line_off_the_plane_families(smooth):
    lines = ((smooth.A[0], smooth.C[0]),) + smooth.lines[1:]
    bad = dataclasses.replace(smooth, lines=lines)
    with pytest.raises(IdentityFails, match="E_0 breaks the plane-family rule"):
        verify_smooth_model(bad)


def test_smooth_refuses_planes_that_cut_out_no_line(monkeypatch, smooth):
    zero = smooth.tower.zero()
    monkeypatch.setattr(cubic_models, "_pluecker", lambda tower, pair: (zero,) * 6)
    with pytest.raises(IdentityFails, match="E_0 do not cut out a line"):
        verify_smooth_model(smooth)


def _line_on_cubic(tower, pair, cubic) -> bool:
    """The reference: the cubic vanishes on the line {f1 = f2 = 0},
    parametrised by a basis of the planes' common kernel."""
    basis = nullspace(_coefficient_rows(tower, pair), tower)
    if len(basis) != 2:
        return False
    s, r = (MPoly.variable(2, i, tower.one()) for i in range(2))
    return cubic.subst([s.scale(x) + r.scale(y) for x, y in zip(*basis)]).is_zero()


@pytest.mark.parametrize("params", ["bench", "t1,t2,1", "t1,t2,t1+2", "3t2,t1,5"])
def test_lines_lie_on_the_cubic(K2m, smooth, params):
    """The derived fact, checked directly on four models."""
    t1, t2, one = K2m.t_var(0), K2m.t_var(1), K2m.one()
    model = {
        "bench": lambda: smooth,
        "t1,t2,1": lambda: build_smooth_model(t1, t2, one),
        "t1,t2,t1+2": lambda: build_smooth_model(t1, t2, t1 + K2m.scalar(2)),
        "3t2,t1,5": lambda: build_smooth_model(K2m.scalar(3) * t2, t1, K2m.scalar(5)),
    }[params]()
    assert verify_smooth_model(model)["lines_on_cubic"]
    assert all(_line_on_cubic(model.tower, e, model.cubic) for e in model.lines)


def test_singular_rejects_cube_lambda(K2m):
    with pytest.raises(LambdaIsCube):
        build_singular_model(K2m.scalar(8), K2m.t_var(1))


def test_randomized_singular_models(K2m):
    rng = random.Random(55)
    t1, t2 = K2m.t_var(0), K2m.t_var(1)
    for _ in range(3):
        lam = t1 ** rng.choice([1, 2]) * t2 ** rng.choice([0, 3])
        xi = t2 ** rng.choice([1, 2]) * K2m.scalar(rng.randint(1, 5))
        model = build_singular_model(lam, xi)
        report = verify_singular_model(model)
        assert report["factorization"] and report["psi_equivariant_to_op"]


# the report of `verify_smooth_model` on the `smooth` fixture
SMOOTH_REPORT = {
    "fundamental_identity": True,
    "aaa_identity": True,
    "lines_on_cubic": True,
    "lines_disjoint": True,
    "incidence_table": [[1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1], [1, 0, 1, 1, 1, 1]],
    "galois_orbits": True,
    "contraction_equivariant": True,
    "xi_norm_status": "no",
}


def test_smooth_model_identities(smooth, K2m):
    report = verify_smooth_model(smooth)
    assert report == SMOOTH_REPORT
    assert report["fundamental_identity"]
    assert report["aaa_identity"]
    assert report["lines_on_cubic"]
    assert report["lines_disjoint"]
    assert report["incidence_table"] == [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 1],
        [1, 0, 1, 1, 1, 1],
    ]
    assert report["galois_orbits"]
    assert report["contraction_equivariant"]
    assert report["xi_norm_status"] == "no"
    assert smooth.xi == K2m.t_var(1).lift_to(smooth.tower)


def test_smooth_rejects_degenerate_tower(K2m):
    with pytest.raises(DegenerateTower):
        build_smooth_model(K2m.t_var(0), K2m.t_var(0), K2m.one())
    with pytest.raises(DegenerateTower):
        build_smooth_model(K2m.t_var(0), K2m.scalar(8), K2m.one())


def test_smooth_rejects_zero_xi(K2m):
    t1 = K2m.t_var(0)
    # 27 lam mu + nu^3 = 0 with lam = t1, mu = -1/(27 t1), nu = 1
    mu = -(K2m.scalar(27) * t1).inverse()
    with pytest.raises(ZeroXi):
        build_smooth_model(t1, mu, K2m.one())


def test_reduce_mod_cubic(smooth):
    r = reduce_mod_cubic(smooth.cubic, smooth.cubic)
    assert r.is_zero()


@pytest.fixture(scope="module")
def smooth_plain(K2m):
    """The smooth model at (lam, mu, nu) = (t1, t2, 1)."""
    return build_smooth_model(K2m.t_var(0), K2m.t_var(1), K2m.one())


def test_section(smooth, smooth_plain):
    """On both models the section lies on the cubic and is a right inverse
    of the contraction: contraction o section is proportional to
    (u0, u1, u2)."""
    for model in (smooth, smooth_plain):
        section = list(section_of_contraction(model))
        assert model.cubic.subst(section).is_zero()
        one = model.tower.one()
        u = [MPoly.variable(3, i, one) for i in range(3)]
        assert _proportional([f.subst(section) for f in model.contraction], u)


def test_section_does_not_depend_on_the_gcd_scalar(monkeypatch, smooth):
    """The gcd of the minors fixes the section only up to a scalar of K,
    which depends on the ring the gcd runs in; the section is scaled
    canonically, so a reducer whose quotients carry another scalar gives
    the same section."""
    section = section_of_contraction(smooth)
    reduce = cubic_models._normalize_coords
    s = smooth.tower.t_var(0) + smooth.tower.scalar(3)
    monkeypatch.setattr(
        cubic_models, "_normalize_coords", lambda c: tuple(p.scale(s) for p in reduce(c))
    )
    assert section_of_contraction(smooth) == section


def _swapped(triple, i, j):
    out = list(triple)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


@pytest.mark.parametrize("mutation", ["swap-B1-B2", "swap-A0-A2", "cubic"])
def test_section_refuses_a_changed_model(smooth, mutation):
    """Swapping two lines of a family, or changing the cubic, breaks the
    identities the section rests on, and its sanity checks refuse it."""
    if mutation == "swap-B1-B2":
        model = dataclasses.replace(smooth, B=_swapped(smooth.B, 1, 2))
        message = "right inverse"
    elif mutation == "swap-A0-A2":
        model = dataclasses.replace(smooth, A=_swapped(smooth.A, 0, 2))
        message = "right inverse"
    else:
        x3 = MPoly.monomial(4, (0, 3, 0, 0), smooth.tower.one())
        model = dataclasses.replace(smooth, cubic=smooth.cubic + x3)
        message = "cubic equation"
    with pytest.raises(SectionNotFound, match=message):
        section_of_contraction(model)


# SHA-256 of the JSON of rho-hat, chi1 and chi2 for the `smooth` model
ORDER3_PINS = (
    "5b8335f52731bc879c4fa111603f4376c2228f99aa054d1defd9881aa3a686cc",
    "294d47d8bffa8eb18c52b78e03b6870117293039f27f2b3b3f55f1919b7ddcb9",
    "4b3f2c6ee503e3f2f12089035dc1e67c4f133edcf60f3f2315cd4f2df8516fe8",
)


@pytest.fixture(scope="module")
def order3(smooth):
    return order3_selfmap(smooth)


def test_order3_selfmap(smooth, order3, link_sha):
    rho, chi1, chi2 = order3
    rho_sha = hashlib.sha256(json.dumps(rho.to_json(), sort_keys=True).encode())
    assert (rho_sha.hexdigest(), link_sha(chi1), link_sha(chi2)) == ORDER3_PINS
    from sblinks.birational import RationalMap, compose, equals

    Lh = smooth.tower
    ident = RationalMap.identity(Lh)
    assert equals(compose(rho.map, compose(rho.map, rho.map)), ident)
    assert equals(compose(chi2.forward.map, chi1.forward.map), rho.map)
    # splitting fields: K[cbrt lam] and K[cbrt mu]
    lam_class = {
        f"3:{radicand_class_string(smooth.lam.base_rf(), 3)}",
        f"3:{radicand_class_string((smooth.lam ** 2).base_rf(), 3)}",
    }
    mu_class = {
        f"3:{radicand_class_string(smooth.mu.base_rf(), 3)}",
        f"3:{radicand_class_string((smooth.mu ** 2).base_rf(), 3)}",
    }
    assert set(chi1.base_point.descriptor) == lam_class
    assert set(chi2.base_point.descriptor) == mu_class

    from sblinks.word_algebra import psi_compose

    word = psi_compose([chi1, chi2])
    assert len(word.syllables) == 2
    (c1, e1), (c2, e2) = word.syllables
    assert c1 != c2 and c1.degree == 3 and c2.degree == 3
    assert e1 != 0 and e2 != 0


def test_order3_maps_are_coprime(order3, assert_coprime):
    rho, chi1, chi2 = order3
    assert_coprime(rho.map, chi1.forward.map, chi1.backward.map)
    assert_coprime(chi2.forward.map, chi2.backward.map)


def test_order3_links_keep_every_fact(order3, assert_link_facts):
    """chi1, and chi2 after its alignment by a linear map, keep every link
    fact."""
    _, chi1, chi2 = order3
    for link in (chi1, chi2):
        assert_link_facts(link)


def test_randomized_smooth_models(K2m):
    rng = random.Random(91)
    t1, t2 = K2m.t_var(0), K2m.t_var(1)
    for _ in range(2):
        lam = t1 * K2m.scalar(rng.randint(1, 4))
        mu = t2 ** rng.choice([1, 2]) * K2m.scalar(rng.randint(1, 4))
        nu = K2m.scalar(rng.randint(1, 3))
        model = build_smooth_model(lam, mu, nu)
        report = verify_smooth_model(model)
        assert report["fundamental_identity"]
        assert report["lines_disjoint"]
        assert report["contraction_equivariant"]


# ---------------------------------------------------------------------------
# line incidences by Pluecker coordinates, against the rank of four planes


def lines_meet_by_rank(tower, pair1, pair2):
    """The reference: 0 or 1 from the rank of the four planes, which raises
    when the two lines coincide."""
    rk = rank(_coefficient_rows(tower, pair1 + pair2))
    if rk <= 2:
        raise SblinksError("the two lines coincide")
    return 1 if rk == 3 else 0


def _meet_outcome(meet, *args):
    try:
        return meet(*args)
    except SblinksError as e:
        return f"raises: {e}"


def test_model_incidences_match_ranks(smooth):
    """All 33 pairs that `verify_smooth_model` decides: 15 among E0..E5 and
    18 of an auxiliary line with one of them."""
    Lh = smooth.tower
    aux = (smooth.l01, smooth.conic0, smooth.conic1)
    pairs = [
        (smooth.lines[i], smooth.lines[j]) for i in range(6) for j in range(i + 1, 6)
    ] + [(a, e) for a in aux for e in smooth.lines]
    meets = 0
    for a, b in pairs:
        got = _lines_meet(Lh, a, b, _pluecker(Lh, a), _pluecker(Lh, b))
        assert got == lines_meet_by_rank(Lh, a, b)
        meets += got
    assert len(pairs) == 33 and meets == 12


def _plane(coeffs):
    """The linear form in (w, x, y, z) with the given coefficients."""
    one = {k: tuple(int(i == k) for i in range(4)) for k in range(4)}
    return MPoly(4, {one[k]: c for k, c in enumerate(coeffs) if not c.is_zero()})


@pytest.mark.parametrize("kind", ["skew", "meeting", "coincident", "degenerate"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pluecker_incidence_matches_rank(smooth, kind, data):
    """Over the models tower: random plane pairs (mostly skew), a second
    line inside a plane through the first (meeting), the first line cut out
    by two other planes of its pencil (coincident: both raise), and two
    proportional planes (degenerate).

    Each plane has coefficients in K times one radical monomial, which moves
    no plane: elimination over sums of radicals swells in this tower (a
    4x4 rank over such entries did not finish in 10 s)."""
    Lh = smooth.tower
    one, t1, t2, z = Lh.one(), Lh.t_var(0), Lh.t_var(1), Lh.zeta()
    u, m = Lh.gen(smooth.ext.radical_name), Lh.gen(smooth.mu_radical)
    entry = st.sampled_from(
        [Lh.zero(), one, -one, Lh.scalar(2), t1, t2 - one, z, z + one]
    )
    scalar = entry.filter(lambda c: not c.is_zero())
    radical = st.sampled_from([one, u, m, z * u, u * m, u * u * m])

    def plane():
        return [data.draw(entry) for _ in range(4)]

    def comb(x, a, y, b):
        return [x * p + y * q for p, q in zip(a, b)]

    a, b = plane(), plane()
    if kind == "skew":
        c, d = plane(), plane()
    elif kind == "meeting":
        c, d = comb(data.draw(scalar), a, data.draw(entry), b), plane()
    elif kind == "coincident":
        x, y, v, w = (data.draw(entry) for _ in range(4))
        c, d = comb(x, a, y, b), comb(v, a, w, b)
    else:
        b = [data.draw(scalar) * p for p in a]
        c, d = plane(), plane()

    def line(*planes):
        scales = [data.draw(radical) for _ in planes]
        return tuple(_plane([r * x for x in p]) for p, r in zip(planes, scales))

    first, second = line(a, b), line(c, d)
    if data.draw(st.booleans(), label="swap"):
        first, second = second, first
    got = _meet_outcome(
        _lines_meet, Lh, first, second, _pluecker(Lh, first), _pluecker(Lh, second)
    )
    assert got == _meet_outcome(lines_meet_by_rank, Lh, first, second)


def test_smooth_model_needs_no_rank(monkeypatch, smooth):
    """Every incidence of the smooth model is decided by the Pluecker
    pairing: the rank fallback is never reached."""

    def fail(*args, **kwargs):
        raise AssertionError("an incidence fell back to the rank")

    monkeypatch.setattr(cubic_models, "rank", fail)
    assert verify_smooth_model(smooth) == SMOOTH_REPORT


# ---------------------------------------------------------------------------
# the order-3 certificates


def test_proposed_alignment_is_the_normalised_composite(smooth, order3):
    """The alignment read off rho-hat's coefficients over the raw composite
    chi2 o chi1 of the unaligned links is, up to scale, the matrix of the
    normalised composite rho-hat o chi1^-1 o chi2^-1."""
    rho = order3[0].map
    chi1, chi2 = _two_links(smooth, smooth.surface())
    composite = _substituted(chi2.forward.map, chi1.forward.map)
    m = _express_in_span(rho.coords, composite, smooth.tower)
    reference = compose(compose(rho, chi1.backward.map), chi2.backward.map)
    assert reference.degree == 1
    assert _proportional(sum(m, ()), sum(reference.matrix(), ()))


def test_order3_check_rejects_the_forward_pair(order3):
    rho, chi1, chi2 = order3
    assert _squares_to(rho.map, chi1.backward.map, chi2.backward.map)
    assert not _squares_to(rho.map, chi1.forward.map, chi2.forward.map)


@pytest.mark.parametrize("solve", ["perturbed", "none"])
def test_wrong_alignment_fails_loudly(monkeypatch, smooth, solve):
    """A perturbed alignment matrix, or none found by the span solve, raises
    IdentityFails: the perturbed one is not defined over K."""

    def solved(polys, basis, tower):
        if solve == "none":
            return None
        m = [list(row) for row in _express_in_span(polys, basis, tower)]
        m[0][0] = m[0][0] + tower.one()
        return tuple(map(tuple, m))

    monkeypatch.setattr(cubic_models, "_express_in_span", solved)
    message = {"perturbed": "not defined over K", "none": "not a linear image"}
    with pytest.raises(IdentityFails, match=message[solve]):
        order3_selfmap(smooth)


def test_order3_needs_no_compose(monkeypatch, smooth, link_sha):
    """order3_selfmap composes no maps (only rho-hat's raw triple is
    normalised), and its output is still pinned."""

    def fail(*args, **kwargs):
        raise AssertionError("order3_selfmap reached compose")

    monkeypatch.setattr(birational, "compose", fail)
    rho, chi1, chi2 = order3_selfmap(smooth)
    rho_sha = hashlib.sha256(json.dumps(rho.to_json(), sort_keys=True).encode())
    assert (rho_sha.hexdigest(), link_sha(chi1), link_sha(chi2)) == ORDER3_PINS
