import dataclasses
import hashlib
import json
import random

import pytest

from sblinks.errors import DegenerateTower, IdentityFails, LambdaIsCube, ZeroXi
from sblinks.cubic_models import (
    build_singular_model,
    build_smooth_model,
    order3_selfmap,
    reduce_mod_cubic,
    section_of_contraction,
    verify_singular_model,
    verify_smooth_model,
)
from sblinks.field_tower import TowerField
from sblinks.multipoly import MPoly
from sblinks.severi_brauer import radicand_class_string


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


def test_smooth_model_identities(smooth, K2m):
    report = verify_smooth_model(smooth)
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


def test_section(smooth):
    section = section_of_contraction(smooth)
    assert smooth.cubic.subst(list(section)).is_zero()


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
