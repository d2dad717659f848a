"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import sys
import time
from fractions import Fraction

from sblinks.errors import SblinksError
from sblinks.birational import (
    RationalMap,
    compose,
    curves_through,
    equals,
    is_equivariant,
    link_from_3point,
    link_from_6point,
)
from sblinks.field_tower import (
    CubicExtension,
    TowerField,
    is_norm,
    recheck_norm_certificate,
)
from sblinks.genus_bounds import covgen_from_min_degree, covgen_lower_bound
from sblinks.linalg import mat_galois, mat_mul, rank
from sblinks.severi_brauer import (
    auto_between_3points,
    closed_point_from_seed,
    coordinate_3point,
    make_closed_point,
    make_surface,
    second_3point,
    sixpoint_from_sqrt,
    unit_3point,
    _is_scalar_matrix,
)
from sblinks.word_algebra import (
    LinkClass,
    hexagon,
    project_basepoint,
    psi_compose,
    reduce as word_reduce,
    word_from_list,
)

SEED = 20240611
# seeds tried before a randomised loop fails instead of running on
ATTEMPTS = 40


class Criterion:
    def __init__(self, number, name, budget):
        self.number = number
        self.name = name
        self.budget = budget
        self.t0 = None

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        line = f"ACCEPTANCE {self.number} ({self.name}): {status} [{elapsed:.2f}s]\n"
        sys.stdout.write(line)
        sys.stdout.flush()
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def fresh_surface():
    K = TowerField.rational(2)
    t1, t2 = K.t_var(0), K.t_var(1)
    L = K.extend("u", 3, t1)
    ext = CubicExtension(L, "u")
    return make_surface(ext, t2.lift_to(L)), K, L, ext


def random_base_monomial(rng, K):
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        c = -c
    e = K.scalar(c)
    for i in range(K.nvars):
        e = e * K.t_var(i) ** rng.randint(0, 2)
    return e


def test_criterion_1_norm_certificate():
    with Criterion(1, "norm certificate", 1.0):
        surface, K, L, ext = fresh_surface()
        xi = K.t_var(1).lift_to(L)
        res = is_norm(ext, xi)
        assert res.status == "no"
        assert res.certificate["kind"] == "norm-degree"
        assert res.certificate["weighted_degree"] % 3 != 0
        assert recheck_norm_certificate(ext, xi, res.certificate)


def test_criterion_2_cocycle_validity():
    with Criterion(2, "cocycle validity", 1.0):
        _, K, L, ext = fresh_surface()
        g = ext.generator
        rng = random.Random(SEED)
        for _ in range(20):
            xi = random_base_monomial(rng, K).lift_to(L)
            s = make_surface(ext, xi)
            prod = mat_mul(
                s.nu,
                mat_mul(mat_galois(s.nu, g), mat_galois(mat_galois(s.nu, g), g)),
            )
            assert _is_scalar_matrix(prod)


def test_criterion_3_opposite_conjugation():
    with Criterion(3, "opposite-surface conjugation", 5.0):
        _, K, L, ext = fresh_surface()
        sig = RationalMap.standard_involution(L)
        rng = random.Random(SEED + 1)
        for _ in range(10):
            xi = random_base_monomial(rng, K).lift_to(L)
            s = make_surface(ext, xi)
            sop = make_surface(ext, xi.inverse(), side=-1)
            assert is_equivariant(sig, s, sop)


def test_criterion_4_automorphism_transport():
    with Criterion(4, "automorphism transport", 5.0):
        surface, K, L, ext = fresh_surface()
        p = coordinate_3point(surface)
        q = unit_3point(surface)
        alpha = auto_between_3points(surface, p, q)
        g = ext.generator
        assert mat_mul(alpha.matrix, surface.nu) == mat_mul(
            surface.nu, mat_galois(alpha.matrix, g)
        )
        image = {alpha.apply_point(v) for v in p.components}
        assert image == q.component_set()
        assert len(image) == 3


def test_criterion_5_two_splitting_fields():
    with Criterion(5, "two splitting fields", 5.0):
        surface, K, L, ext = fresh_surface()
        p = coordinate_3point(surface)
        q = second_3point(surface)
        assert q.descriptor != p.descriptor
        revalidated = make_closed_point(surface, q.components, q.tower)
        assert revalidated.component_set() == q.component_set()
        assert revalidated.degree == 3


def test_criterion_6_link_roundtrips():
    with Criterion(6, "link round-trips", 60.0):
        surface, K, L, ext = fresh_surface()
        rng = random.Random(SEED + 2)
        ident = RationalMap.identity(L)
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
            assert link.forward.map.degree == 2
            assert equals(compose(link.backward.map, link.forward.map), ident)
            made += 1
            if made == 5:
                break
        assert made == 5, f"only {made} of 5 links in {ATTEMPTS} seeds"
        p6 = sixpoint_from_sqrt(surface, K.t_var(1))
        _, rows = curves_through(p6.tower, p6.components, 5, double=True)
        assert rank(rows) == 18
        link6 = link_from_6point(surface, p6)
        assert link6.forward.map.degree == 5
        rt = compose(link6.backward.map, link6.forward.map)
        assert equals(rt, RationalMap.identity(p6.tower))


def test_criterion_7_hexagon_relation():
    with Criterion(7, "hexagon relation", 60.0):
        surface, K, L, ext = fresh_surface()
        p = coordinate_3point(surface)
        q = unit_3point(surface)
        links, report = hexagon(surface, p, q)
        assert len(links) == 6
        # independent re-composition of the returned chain
        comp = links[0].forward.map
        for lk in links[1:]:
            comp = compose(lk.forward.map, comp)
        assert equals(comp, RationalMap.identity(L))
        assert report.composite_identity
        word = psi_compose(links)
        assert word.is_empty()
        descs = [lk.base_point.descriptor for lk in links]
        assert descs[0] == descs[2] == descs[4] == p.descriptor
        assert descs[1] == descs[3] == descs[5] == q.descriptor


def test_criterion_8_singular_model():
    with Criterion(8, "singular cubic model", 10.0):
        import dataclasses

        from sblinks.cubic_models import build_singular_model, verify_singular_model
        from sblinks.errors import IdentityFails
        from sblinks.multipoly import MPoly

        K = TowerField.rational(2)
        model = build_singular_model(K.t_var(0), K.t_var(1))
        report = verify_singular_model(model)
        assert report["factorization"]
        assert report["singular_points"]
        assert report["psi_equivariant_to_op"]
        assert report["sigma_psi_equivariant"]
        assert report["fibration_specialization"]
        bad = dataclasses.replace(
            model,
            factors=(
                model.factors[0],
                model.factors[1] + MPoly.const(3, model.tower.one()),
                model.factors[2],
            ),
        )
        try:
            verify_singular_model(bad)
            raise AssertionError("tampered model passed verification")
        except IdentityFails:
            pass


def test_criterion_9_smooth_model():
    with Criterion(9, "smooth cubic model and order-3 map", 120.0):
        from sblinks.cubic_models import (
            build_smooth_model,
            order3_selfmap,
            verify_smooth_model,
        )
        from sblinks.severi_brauer import radicand_class_string

        K = TowerField.rational(2)
        t1, t2 = K.t_var(0), K.t_var(1)
        nu = K.one()
        mu = (t2 - K.one()) / (K.scalar(27) * t1)
        model = build_smooth_model(t1, mu, nu)
        report = verify_smooth_model(model)
        assert report["fundamental_identity"]
        assert report["incidence_table"] == [
            [1, 1, 0, 0, 0, 0],
            [0, 1, 1, 1, 1, 1],
            [1, 0, 1, 1, 1, 1],
        ]
        rho, chi1, chi2 = order3_selfmap(model)
        Lh = model.tower
        ident = RationalMap.identity(Lh)
        assert equals(compose(rho.map, compose(rho.map, rho.map)), ident)
        assert equals(compose(chi2.forward.map, chi1.forward.map), rho.map)
        lam_class = {
            f"3:{radicand_class_string(model.lam.base_rf(), 3)}",
            f"3:{radicand_class_string((model.lam ** 2).base_rf(), 3)}",
        }
        mu_class = {
            f"3:{radicand_class_string(model.mu.base_rf(), 3)}",
            f"3:{radicand_class_string((model.mu ** 2).base_rf(), 3)}",
        }
        assert set(chi1.base_point.descriptor) == lam_class
        assert set(chi2.base_point.descriptor) == mu_class


def test_criterion_10_word_algebra():
    with Criterion(10, "word algebra", 10.0):
        rng = random.Random(SEED + 3)
        classes = [LinkClass(3, (f"3:c{i}",)) for i in range(4)] + [
            LinkClass(6, (f"6:q{i}",), invariant_only=True) for i in range(3)
        ]
        for _ in range(1000):
            word = tuple(
                (rng.choice(classes), rng.randint(-4, 4))
                for _ in range(rng.randint(0, 9))
            )
            reduced = word_reduce(word)
            assert word_reduce(reduced.syllables) == reduced
            cut = rng.randint(0, len(word))
            assert word_reduce(word[:cut]) * word_reduce(word[cut:]) == reduced

        surface, K, L, ext = fresh_surface()
        link1 = link_from_3point(surface, coordinate_3point(surface))
        link2 = link_from_3point(surface, unit_3point(surface))
        pool_fwd = [link1, link2]
        pool_bwd = [lk.inverse() for lk in pool_fwd]

        def random_chain(n, side):
            chain = []
            for _ in range(n):
                chain.append(rng.choice(pool_fwd if side == 1 else pool_bwd))
                side = -side
            return chain, side

        for _ in range(100):
            u, mid = random_chain(rng.randint(1, 4), 1)
            v, _ = random_chain(rng.randint(1, 4), mid)
            assert psi_compose(u + v) == psi_compose(u) * psi_compose(v)

        # trivial relations die
        assert psi_compose([link1, link1.inverse()]).is_empty()
        assert psi_compose([link2, link2.inverse()]).is_empty()

        # projection surjectivity witness: 1_p - 1_q -> -1_q
        cp, cq = classes[0], classes[1]
        assert project_basepoint(
            word_from_list([(cp, 1), (cq, -1)]), cp
        ) == word_from_list([(cq, -1)])


def test_criterion_11_bounds():
    with Criterion(11, "covering genus bounds", 1.0):
        e, b = covgen_lower_bound(2, 6, 2)
        assert e == 3 and b == Fraction(5, 2)
        rng = random.Random(SEED + 4)
        checked = 0
        while checked < 100:
            m = rng.randint(2, 7)
            d = rng.randint(1, 9)
            n = rng.randint(2, 7)
            if (m - 1) * d - n - 1 < 1:
                continue
            e, b = covgen_lower_bound(m, d, n)
            assert b == covgen_from_min_degree(e)
            checked += 1
