import json
import random
from fractions import Fraction

import pytest

from sblinks.errors import ActionMismatch, ZeroInverse
from sblinks.field_tower import (
    CubicExtension,
    FieldElement,
    RationalFunction,
    TowerField,
    cbrt_in_tower,
    is_cube,
    is_norm,
    is_square,
    norm,
    recheck_norm_certificate,
    recheck_power_certificate,
    sqrt_in_tower,
)
from sblinks.multipoly import MPoly, exact_div, gcd
from sblinks.scalars import QZeta


def rand_element(rng, tower, max_coeff=5):
    """A random element with small monomial coordinates."""
    e = tower.zero()
    pool = [tower.one()] + [tower.t_var(i) for i in range(tower.nvars)]
    for rad in tower.radicals:
        pool.append(tower.gen(rad.name))
    for _ in range(rng.randint(1, 4)):
        c = tower.scalar(Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3)))
        term = c
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(pool)
        e = e + term
    return e


def test_normalize_examples(K2, L):
    t1 = K2.t_var(0)
    t2 = K2.t_var(1)
    u = L.gen("u")
    # (cbrt t1)^3 = t1
    assert u ** 3 == t1.lift_to(L)
    # zeta^2 + zeta + 1 = 0
    z = K2.zeta()
    assert (z * z + z + K2.one()).is_zero()
    # gcd cancellation
    assert (t1 * t1 - t2 * t2) / (t1 - t2) == t1 + t2


def test_invert_examples(K2, L):
    u = L.gen("u")
    t1 = K2.t_var(0).lift_to(L)
    # cbrt(t1)^-1 = t1^-1 (cbrt t1)^2
    assert u.inverse() == t1.inverse() * u * u
    assert (K2.one() + K2.zeta()).inverse() == -K2.zeta()
    with pytest.raises(ZeroInverse):
        L.zero().inverse()


def test_invert_involution(L):
    rng = random.Random(11)
    for _ in range(20):
        e = rand_element(rng, L)
        if e.is_zero():
            continue
        assert e.inverse().inverse() == e
        assert (e * e.inverse()).is_one()


def test_galois_examples(K2, L, ext):
    g = ext.generator
    u = L.gen("u")
    assert g.apply(u) == L.zeta() * u
    c = (K2.t_var(0) + K2.scalar(3)).lift_to(L)
    assert g.apply(c) == c
    with pytest.raises(ActionMismatch):
        g.apply(K2.one())


def test_galois_order_three_on_sample(L, ext):
    g = ext.generator
    rng = random.Random(23)
    for _ in range(100):
        e = rand_element(rng, L)
        assert g.apply(g.apply(g.apply(e))) == e


def test_galois_ring_homomorphism(L, ext):
    g = ext.generator
    rng = random.Random(5)
    for _ in range(15):
        a = rand_element(rng, L)
        b = rand_element(rng, L)
        assert g.apply(a + b) == g.apply(a) + g.apply(b)
        assert g.apply(a * b) == g.apply(a) * g.apply(b)
        assert g.apply(a - b) == g.apply(a) - g.apply(b)
        if not b.is_zero():
            assert g.apply(a / b) == g.apply(a) / g.apply(b)


def test_norm_examples(K2, L, ext):
    u = L.gen("u")
    t1 = K2.t_var(0).lift_to(L)
    assert norm(ext, u) == t1
    c = (K2.t_var(1) + K2.scalar(2)).lift_to(L)
    assert norm(ext, c) == c ** 3


def test_norm_one_plus_cbrt2():
    # independent oracle: convolution in Q(zeta)[a]/(a^3 - 2)
    K0 = TowerField.rational(0)
    L0 = K0.extend("a", 3, K0.scalar(2))
    a = L0.gen("a")
    got = norm(CubicExtension(L0, "a"), L0.one() + a)

    # (1 + a)(1 + za)(1 + z^2 a) expanded by hand as coefficient vectors
    z = QZeta.zeta()
    one = QZeta.one()

    def mul3(p, q):  # multiply coefficient triples modulo a^3 = 2
        out = [QZeta.zero() for _ in range(3)]
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                k = i + j
                c = pi * qj
                if k >= 3:
                    k -= 3
                    c = c * QZeta(2)
                out[k] = out[k] + c
        return out

    prod = mul3(mul3([one, one, QZeta.zero()], [one, z, QZeta.zero()]),
                [one, z * z, QZeta.zero()])
    assert prod[1].is_zero() and prod[2].is_zero()
    assert got == L0.scalar(3)
    assert prod[0] == QZeta(3)


def test_norm_multiplicative(L, ext):
    rng = random.Random(17)
    for _ in range(12):
        a = rand_element(rng, L)
        b = rand_element(rng, L)
        if a.is_zero() or b.is_zero():
            continue
        assert norm(ext, a * b) == norm(ext, a) * norm(ext, b)


def test_is_cube(K2):
    t1, t2 = K2.t_var(0), K2.t_var(1)
    r = is_cube(t1)
    assert r.status == "no" and r.certificate["kind"] == "degree"
    assert recheck_power_certificate(t1, r.certificate)
    r = is_cube(t1 ** 3 * t2 ** 3)
    assert r.status == "yes" and r.witness == t1 * t2
    r = is_cube(K2.scalar(8))
    assert r.status == "yes" and r.witness == K2.scalar(2)
    r = is_cube(K2.scalar(-27))
    assert r.status == "yes"
    c = (t1 + t2) ** 2 * (t1 - t2)  # degree 0 mod 3, multiplicities 2 and 1
    r = is_cube(c)
    assert r.status == "no" and r.certificate["kind"] == "multiplicity"
    assert recheck_power_certificate(c, r.certificate)


def test_is_square(K2):
    t2 = K2.t_var(1)
    assert is_square(t2).status == "no"
    r = is_square(t2 ** 2)
    assert r.status == "yes" and r.witness == t2
    # -3 is a square in Q(zeta)
    assert is_square(K2.scalar(-3)).status == "yes"


def test_recheck_refuses_false_constant_certificates(K2):
    # the value must be lc(num)/lc(den) of c, without an n-th root in
    # Q(zeta): 4 = 2^2, 8 t1^3 = (2 t1)^3, and -3 = (1 + 2 zeta)^2
    t1 = K2.t_var(0)
    for c, value, n in [
        (K2.scalar(4), "2", 2),
        (K2.scalar(8) * t1 ** 3, "2", 3),
        (K2.scalar(-3), "-3", 2),
    ]:
        cert = {"kind": "constant", "value": value, "n": n}
        assert not recheck_power_certificate(c, cert)
    # 0 = 0^n: not even a certificate that its own degrees satisfy holds
    zero_degree = {"kind": "degree", "num_degree": -1, "den_degree": 0, "n": 2}
    assert not recheck_power_certificate(K2.zero(), zero_degree)
    # (2 + zeta)^4 = 9 zeta: certificates come only for squares and cubes
    nine_zeta = K2.scalar(QZeta(0, 9))
    for n in (4, 5):
        cert = {"kind": "constant", "value": repr(QZeta(0, 9)), "n": n}
        assert not recheck_power_certificate(nine_zeta, cert)
    r = is_cube(K2.scalar(2) * t1 ** 3)
    assert r.status == "no" and r.certificate == {"kind": "constant", "value": "2", "n": 3}
    assert recheck_power_certificate(K2.scalar(2) * t1 ** 3, r.certificate)


def test_recheck_refuses_a_constant_multiplicity_factor(K2):
    """A multiplicity certificate whose factor is a constant is refused at
    once: a constant divides every polynomial, so counting its divisions
    would never end."""
    c = K2.t_var(0) ** 2 * K2.t_var(1)
    r = is_cube(c)
    assert r.status == "no" and r.certificate["kind"] == "multiplicity"
    assert recheck_power_certificate(c, r.certificate)
    one = [{"monomial": [0, 0], "coeff": QZeta(1).to_json()}]
    assert not recheck_power_certificate(c, dict(r.certificate, factor=one))


def test_mixed_constants_are_certified_non_cubes(K2):
    # the norm of 2 + zeta is 3, not a cube, so 2 + zeta has no cube root
    # in Q(zeta), and neither has the leading coefficient of any cube root
    # of (2 + zeta) t1^3
    z = K2.scalar(QZeta(2, 1))
    for c in (z, z * K2.t_var(0) ** 3):
        r = is_cube(c)
        assert r.status == "no"
        assert r.certificate == {"kind": "constant", "value": "(2 + zeta)", "n": 3}
        assert recheck_power_certificate(c, r.certificate)
        changed = dict(r.certificate, value="(1 + zeta)")
        assert not recheck_power_certificate(c, changed)
        assert not recheck_power_certificate(c * K2.scalar(8), r.certificate)


def test_is_norm(K2, L, ext):
    t1, t2 = K2.t_var(0), K2.t_var(1)
    r = is_norm(ext, t2.lift_to(L))
    assert r.status == "no"
    assert recheck_norm_certificate(ext, t2.lift_to(L), r.certificate)
    r = is_norm(ext, t1.lift_to(L))
    assert r.status == "yes" and r.witness == L.gen("u")
    r = is_norm(ext, (t2 ** 3).lift_to(L))
    assert r.status == "yes"
    assert norm(ext, r.witness) == (t2 ** 3).lift_to(L)


def test_is_norm_yes_reverifies(K2, L, ext):
    rng = random.Random(3)
    for _ in range(10):
        a = rand_element(rng, L)
        if a.is_zero():
            continue
        n = norm(ext, a)
        r = is_norm(ext, n)
        # the fragment may fail to decide, but must never answer wrongly
        assert r.status in ("yes", "unknown")
        if r.status == "yes":
            assert norm(ext, r.witness) == n


def test_tower_roots(K2, L):
    t1 = K2.t_var(0)
    got = cbrt_in_tower(t1.lift_to(L))
    assert got is not None and got ** 3 == t1.lift_to(L)
    M = K2.extend("s", 2, K2.t_var(1))
    s = M.gen("s")
    tgt = (M.one() + s) ** 2
    got = sqrt_in_tower(tgt)
    assert got is not None and got ** 2 == tgt


def test_serialization_roundtrip(K2, L):
    rng = random.Random(31)
    for _ in range(10):
        e = rand_element(rng, L)
        data = json.loads(json.dumps(e.to_json()))
        assert FieldElement.from_json(data) == e
    t = json.loads(json.dumps(L.to_json()))
    assert TowerField.from_json(t) == L


def test_concurrent_arithmetic(L):
    # values are immutable; shared use across threads is safe
    import concurrent.futures

    rng = random.Random(41)
    elems = [rand_element(rng, L) for _ in range(8)]

    def work(e):
        return e * e + e

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as exe:
        results = list(exe.map(work, elems))
    for e, r in zip(elems, results):
        assert r == e * e + e


# hypothesis coverage of the tower field axioms, over the single-cubic tower L
# and two two-radical towers: K[cbrt t1][sqrt t2] (the shape of the 6-link
# towers) and K[cbrt t1][cbrt((t2 - 1)/(27 t1))] (the shape of the smooth
# cubic model, a radicand with a denominator)

from hypothesis import given, settings, strategies as st

_K_h = TowerField.rational(2)
_t1_h, _t2_h = _K_h.t_var(0), _K_h.t_var(1)
_mu_h = (_t2_h - _K_h.one()) / (_K_h.scalar(27) * _t1_h)
_L_h = _K_h.extend("u", 3, _t1_h)
_S_h = _K_h.extend("s", 2, _t2_h)
_V_h = _K_h.extend("v", 3, _mu_h)
_TWO_RADICALS = [_L_h.extend("s", 2, _t2_h), _L_h.extend("v", 3, _mu_h)]
# subtowers lifted into each two-radical tower: the base, the prefix L and
# the subtower of the top radical alone, which is not a prefix
_SUBTOWERS = {
    _TWO_RADICALS[0]: (_K_h, _L_h, _S_h),
    _TWO_RADICALS[1]: (_K_h, _L_h, _V_h),
}

_small = st.integers(-4, 4)
_towers = st.sampled_from([_L_h] + _TWO_RADICALS)
_two_radical_towers = st.sampled_from(_TWO_RADICALS)


@st.composite
def elements_of(draw, tower, max_terms=3):
    """Sums of up to max_terms monomials c * t^a * r^e with small c."""
    e = tower.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = tower.scalar(draw(_small))
        for i in range(tower.nvars):
            term = term * tower.t_var(i) ** draw(st.integers(0, 1))
        for r in tower.radicals:
            term = term * tower.gen(r.name) ** draw(st.integers(0, r.degree - 1))
        e = e + term
    return e


@given(st.data())
@settings(max_examples=45, deadline=None)
def test_tower_field_axioms(data):
    M = data.draw(_towers)
    a, c = data.draw(elements_of(M)), data.draw(elements_of(M))
    b = data.draw(elements_of(M))
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a


@given(st.data())
@settings(max_examples=45, deadline=None)
def test_galois_is_field_homomorphism(data):
    M = data.draw(_towers)
    a, b = (data.draw(elements_of(M)) for _ in range(2))
    for rad in M.radicals:
        g = M.galois_generator(rad.name)
        assert g.apply(a + b) == g.apply(a) + g.apply(b)
        assert g.apply(a * b) == g.apply(a) * g.apply(b)
        # order exactly the degree: g^k moves the radical for 0 < k < degree
        x, r = a, M.gen(rad.name)
        for _ in range(rad.degree - 1):
            x, r = g.apply(x), g.apply(r)
            assert r != M.gen(rad.name)
        assert g.apply(x) == a and g.apply(r) == M.gen(rad.name)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_lift_is_a_ring_map(data):
    M = data.draw(_two_radical_towers)
    for sub in _SUBTOWERS[M]:
        a, b = (data.draw(elements_of(sub)) for _ in range(2))
        assert (a + b).lift_to(M) == a.lift_to(M) + b.lift_to(M)
        assert (a * b).lift_to(M) == a.lift_to(M) * b.lift_to(M)
        for rad in sub.radicals:
            assert sub.gen(rad.name).lift_to(M) == M.gen(rad.name)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_two_radical_json_roundtrip(data):
    M = data.draw(_two_radical_towers)
    top = M.gen(M.radicals[-1].name)
    # coordinates with denominators, from the radicand and from the divisor
    a = data.draw(elements_of(M)) * top * top / (M.t_var(0) + M.scalar(2))
    back = FieldElement.from_json(json.loads(json.dumps(a.to_json())))
    assert back == a and hash(back) == hash(a) and repr(back) == repr(a)


@pytest.mark.parametrize("degree, radicand, root", [(3, 8, 2), (2, 4, 2)])
def test_zero_norm_in_reducible_tower(degree, radicand, root):
    # K[cbrt 8] and K[sqrt 4] are not fields: a - 2 divides zero
    K = TowerField.rational(1)
    R = K.extend("a", degree, K.scalar(radicand))
    a = R.gen("a")
    with pytest.raises(ZeroInverse):
        (a - R.scalar(root)).inverse()
    unit = a + R.one()  # norm radicand + 1 or 1 - radicand, nonzero
    assert (unit * unit.inverse()).is_one()


def test_models_tower_inverse():
    # the shape of the smooth cubic model's tower, with the radicand's
    # t-denominator entering the norm through v^3 = (t2 - 1)/(27 t1)
    V = _TWO_RADICALS[1]
    t1, t2 = V.t_var(0), V.t_var(1)
    u, v = V.gen("u"), V.gen("v")
    x = V.scalar(-4) * t2 * u * u + (V.scalar(4) - t1 * u * u) * v * v
    assert (x * x.inverse()).is_one()


# a per-coefficient reference: an element as a map from radical exponents to
# reduced fractions of K, with the tower arithmetic done coefficient by
# coefficient; the stored form over one shared denominator must agree with
# it on every operation, and JSON and repr keep its layout.  A fraction is a
# pair of polynomials reduced by one `multipoly.gcd`, so the reference
# shares no code with the tower's own sums, products and reductions.


class _Frac:
    """num / den over Q(zeta)[t], with gcd(num, den) = 1 and den monic."""

    def __init__(self, num, den):
        if num.is_zero():
            den = MPoly.const(num.nvars, QZeta.one())
        else:
            g = gcd(num, den)
            num, den = exact_div(num, g), exact_div(den, g)
        c = den.lc().inverse()
        self.num, self.den = num.scale(c), den.scale(c)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return _Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return _Frac(-self.num, self.den)

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)

    def scale(self, c):
        return _Frac(self.num.scale(c), self.den)

    def inverse(self):
        return _Frac(self.den, self.num)

    def view(self):
        """The fraction as the library prints it."""
        return RationalFunction(self.num, self.den, reduce=False)


def _frac(rf):
    return _Frac(rf.num, rf.den)


def _ref_of(x):
    """The reference of a tower element, read from its coefficients."""
    return {e: _frac(c) for e, c in x.coefficients().items()}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out[e] + c if e in out else c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _ref_mul(tower, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = [x + y for x, y in zip(ea, eb)]
            c = ca * cb
            for j, r in enumerate(tower.radicals):
                if e[j] >= r.degree:
                    e[j] -= r.degree
                    c = c * _frac(r.radicand.base_rf())
            out = _ref_add(out, {tuple(e): c})
    return out


def _ref_galois(tower, j, k, a):
    """The action r_j -> unity^k r_j, unity zeta or -1 by the degree."""
    d = tower.radicals[j].degree
    out = {}
    for e, c in a.items():
        unity = QZeta.zeta_pow(k * e[j]) if d == 3 else QZeta((-1) ** (k * e[j]))
        out[e] = c.scale(unity)
    return out


def _ref_inverse(tower, a):
    one = MPoly.const(tower.nvars, QZeta.one())
    n, conj = a, {tower.origin: _Frac(one, one)}
    for j in reversed(range(tower.height())):
        if not any(e[j] for e in n):
            continue
        c = _ref_galois(tower, j, 1, n)
        if tower.radicals[j].degree == 3:
            c = _ref_mul(tower, c, _ref_galois(tower, j, 2, n))
        n = _ref_mul(tower, n, c)
        conj = _ref_mul(tower, conj, c)
    assert set(n) == {tower.origin}
    return _ref_mul(tower, conj, {tower.origin: n[tower.origin].inverse()})


def _ref_layout(tower, a, leaf, node):
    """The nested coordinate layout, the last radical outermost."""

    def go(h, suffix):
        if h == 0:
            return leaf(a.get(suffix))
        parts = [go(h - 1, (i,) + suffix) for i in range(tower.degrees[h - 1])]
        return node(h - 1, parts)

    return go(tower.height(), ())


def _ref_repr(tower, a):
    names = [r.name for r in tower.radicals]

    def node(level, parts):
        power = ["", names[level], f"{names[level]}^2"]
        bits = [
            x if i == 0 else f"({x})*{power[i]}"
            for i, x in enumerate(parts)
            if x != "0"
        ]
        return " + ".join(bits) if bits else "0"

    return _ref_layout(tower, a, lambda c: "0" if c is None else repr(c.view()), node)


def _ref_json(tower, a):
    zero = _Frac(MPoly.zero(tower.nvars), MPoly.const(tower.nvars, QZeta.one()))
    coords = _ref_layout(
        tower, a, lambda c: (zero if c is None else c).view().to_json(), lambda _, p: p
    )
    return {"tower": tower.to_json(), "coords": coords}


def _assert_matches(x, ref):
    """x is canonical, and agrees with the reference in value, repr, JSON,
    the JSON round trip and the hash."""
    unit = x.tower.unit
    assert all(not p.is_zero() for p in x.nums.values())
    assert x.den.lc().is_one()
    g = x.den
    for p in x.nums.values():
        g = gcd(g, p)
    assert g.is_const()
    if x.den.is_const():
        assert x.den is unit
    if not ref:
        assert x.nums == {} and x.den is unit
    assert x.coefficients() == {e: c.view() for e, c in ref.items()}
    assert repr(x) == _ref_repr(x.tower, ref)
    data = x.to_json()
    assert data == _ref_json(x.tower, ref)
    back = FieldElement.from_json(json.loads(json.dumps(data)))
    assert back == x and hash(back) == hash(x)


@st.composite
def fractions_of(draw, tower, max_terms=3):
    """elements_of times a power of the top radical, whose cube or square
    brings in the radicand's denominator, over a divisor such as t1 + 2."""
    e = draw(elements_of(tower, max_terms))
    e = e * tower.gen(tower.radicals[-1].name) ** draw(st.integers(0, 2))
    t1, t2 = tower.t_var(0), tower.t_var(1)
    divisor = draw(st.sampled_from([tower.one(), t1 + tower.scalar(2), t2 + tower.one()]))
    return e / divisor


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_arithmetic_matches_per_coefficient_reference(data):
    M = data.draw(_towers)
    a = data.draw(fractions_of(M))
    b = data.draw(fractions_of(M, max_terms=2))
    ra, rb = _ref_of(a), _ref_of(b)
    _assert_matches(a, ra)
    _assert_matches(a + b, _ref_add(ra, rb))
    neg_b = {e: -c for e, c in rb.items()}
    _assert_matches(a - b, _ref_add(ra, neg_b))
    _assert_matches(-b, neg_b)
    _assert_matches(a - a, {})
    # denominators that share a factor, and a sum in which it cancels
    _assert_matches((a + b) - b, ra)
    _assert_matches(a * b, _ref_mul(M, ra, rb))
    if not b.is_zero():
        inv = _ref_inverse(M, rb)
        _assert_matches(b.inverse(), inv)
        _assert_matches(a / b, _ref_mul(M, ra, inv))


def test_base_field_arithmetic_matches_fraction_reference():
    """Sums, products and inverses over K = Q(zeta)(t1, t2) agree with the
    fraction reference on denominators that share a factor, coprime and
    equal ones, and zero operands.  The operands are built in K and in the
    reference apart, so a result that is not reduced would compare
    unequal."""
    K = TowerField.rational(2)
    t1, t2, one = K.t_var(0), K.t_var(1), K.one()
    T1, T2 = (MPoly.variable(2, i, QZeta.one()) for i in range(2))
    ONE = MPoly.const(2, QZeta.one())
    a = (one / (t1 * (t2 + one)), {(): _Frac(ONE, T1 * (T2 + ONE))})
    b = (one / (t1 * t2), {(): _Frac(ONE, T1 * T2)})
    c = (one / (t2 + one), {(): _Frac(ONE, T2 + ONE)})
    minus_a = (-a[0], {(): -a[1][()]})
    zero = (K.zero(), {})
    for x, rx in (a, b, c, minus_a, zero):
        _assert_matches(x, rx)
    pairs = [(a, b), (a, c), (b, c), (a, a), (a, minus_a), (zero, a), (b, zero), (zero, zero)]
    for (x, rx), (y, ry) in pairs:
        _assert_matches(x + y, _ref_add(rx, ry))
        _assert_matches(x * y, _ref_mul(K, rx, ry))
        if ry:
            _assert_matches(y.inverse(), _ref_inverse(K, ry))
    # the shared factor t1 enters the denominator once
    assert a[0] + b[0] == (t2 + t2 + one) / (t1 * t2 * (t2 + one))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_galois_and_lift_match_per_coefficient_reference(data):
    M = data.draw(_two_radical_towers)
    a = data.draw(fractions_of(M))
    for j, rad in enumerate(M.radicals):
        g = M.galois_generator(rad.name)
        _assert_matches(g.apply(a), _ref_galois(M, j, 1, _ref_of(a)))
    for sub in _SUBTOWERS[M]:
        x = data.draw(fractions_of(sub)) if sub.radicals else data.draw(elements_of(sub))
        pos = [M.radical_index(r.name) for r in sub.radicals]
        ref = {}
        for e, c in _ref_of(x).items():
            k = list(M.origin)
            for i, v in zip(pos, e):
                k[i] = v
            ref[tuple(k)] = c
        _assert_matches(x.lift_to(M), ref)


# substitution in the free ring: the integer walk of `MPoly.subst` over a
# tower against the per-coefficient walk of `_horner` over FieldElement, on
# the four towers of the suite; the hexagon tower is K[cbrt(c t_i)]

from sblinks.field_tower import _free_subst
from sblinks.multipoly import _horner, _poly

_HEX_h = _K_h.extend("u", 3, _K_h.scalar(Fraction(-3, 2)) * _t2_h)
_SUBST_TOWERS = [_L_h, *_TWO_RADICALS, _HEX_h]
# nonzero constants of Q(zeta) with denominators 1 to 4 and 3
_constants = st.builds(
    QZeta,
    st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4)),
    st.sampled_from([0, 0, Fraction(1, 3), -2]),
)


@st.composite
def free_coefficients(draw, tower):
    """Sums of one or two terms c * t^a * r^e, with c a rational constant of
    Q(zeta), so the pieces of a sum carry different integer denominators."""
    e = tower.zero()
    for _ in range(draw(st.integers(1, 2))):
        term = tower.scalar(draw(_constants))
        for i in range(tower.nvars):
            term = term * tower.t_var(i) ** draw(st.integers(0, 2))
        for r in tower.radicals:
            term = term * tower.gen(r.name) ** draw(st.integers(0, r.degree - 1))
        e = e + term
    return e


@st.composite
def free_polys(draw, tower, nvars, degree=None, max_terms=3):
    """A polynomial in nvars variables over the tower, homogeneous of the
    given degree or of mixed degree up to 2."""
    def exps():
        if degree is None:
            return st.tuples(*[st.integers(0, 2 // nvars + 1)] * nvars)
        return st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree).map(
            lambda vs: tuple(vs.count(i) for i in range(nvars))
        )

    terms = draw(st.dictionaries(exps(), free_coefficients(tower), min_size=1, max_size=max_terms))
    return MPoly(nvars, {e: c for e, c in terms.items() if not c.is_zero()})


def _pairwise(f, g):
    """f * g over the tower, summed pair by pair of terms: the reference for
    every path of `MPoly.__mul__`."""
    terms = {}
    for ea, ca in f.tuple_terms().items():
        for eb, cb in g.tuple_terms().items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            terms[e] = terms[e] + c if e in terms else c
    return MPoly(f.nvars, {e: c for e, c in terms.items() if not c.is_zero()})


class _Pairwise:
    """A polynomial whose products are `_pairwise`, so that a walk over it
    takes neither the one-term nor the free-ring path of `MPoly.__mul__`."""

    def __init__(self, p):
        self.p = p

    def __add__(self, other):
        return _Pairwise(self.p + other.p)

    def __mul__(self, other):
        return _Pairwise(_pairwise(self.p, other.p))


def _per_coefficient(f, values):
    nv = values[0].nvars
    walk = _horner(f, [_Pairwise(v) for v in values], lambda c: _Pairwise(_poly(nv, {0: c})))
    return walk.p


def _assert_same(out, ref):
    assert out == ref
    assert repr(out) == repr(ref)
    assert [(e, c.to_json()) for e, c in out.sorted_terms()] == [
        (e, c.to_json()) for e, c in ref.sorted_terms()
    ]


def _assert_free_walk_matches(f, values):
    tower = f.some_coeff().tower
    out = _free_subst(tower, f, values)
    assert out is not None  # every coefficient is denominator-free
    ref = _per_coefficient(f, values)
    _assert_same(out, ref)
    assert f.subst(values) == ref
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_free_walk_matches_per_coefficient_walk(data):
    M = data.draw(st.sampled_from(_SUBST_TOWERS))
    nv = data.draw(st.integers(1, 3))
    f = data.draw(free_polys(M, 3, degree=data.draw(st.integers(1, 3))))
    if f.is_zero():
        return
    values = [data.draw(free_polys(M, nv)) for _ in range(3)]
    # (1 + r^(k-1)) x_0 with r the top radical, of degree k: powers of the
    # first value mix exponents of r above and below k in one x-monomial,
    # where the fold brings the terms over one power of the radicand's
    # denominator
    top = M.radicals[-1]
    mixed = M.one() + M.gen(top.name) ** (top.degree - 1)
    values[0] = values[0] + MPoly.variable(nv, 0, mixed)
    # a zero coordinate
    if data.draw(st.booleans()):
        values[data.draw(st.integers(0, 2))] = MPoly.zero(nv)
    if all(v.is_zero() for v in values):
        values[0] = MPoly.variable(nv, 0, M.one())
    _assert_free_walk_matches(f, values)

    # an input that cancels to zero: f times (c x - y), at a y that is c x;
    # c carries a power of the first radical only, whose radicand has no
    # t-denominator, so that f times c keeps none
    c = M.scalar(data.draw(_constants)) * M.t_var(1) * M.gen("u") ** data.draw(st.integers(0, 2))
    x, y = (MPoly.variable(3, i, M.one()) for i in range(2))
    g = f * (x.scale(c) - y)
    if values[0].is_zero():
        values[0] = MPoly.variable(nv, 0, M.one())
    values[1] = values[0].scale(c)
    assert _assert_free_walk_matches(g, values).is_zero()


def test_free_walk_folds_radicand_denominators():
    # the top radical of the models tower has radicand (t2 - 1)/(27 t1):
    # terms of one x-monomial whose radical exponents reach 3 and 6 meet
    # terms where they do not, so each is brought over t1^2
    M = _TWO_RADICALS[1]
    u, v, one = M.gen("u"), M.gen("v"), M.one()
    x, y = (MPoly.variable(2, i, one) for i in range(2))
    f = MPoly(2, {(2, 0): v * v, (1, 1): M.scalar(Fraction(2, 3)) * u, (0, 2): one})
    values = [x.scale(v * v) + y, x.scale(u * v) - y.scale(M.zeta())]
    out = _assert_free_walk_matches(f, values)
    assert any(c.den is not M.unit for c in out.terms.values())


def test_free_walk_raises_at_the_packing_bound():
    # keys pack the x, radical and t exponents, the radical ones unreduced,
    # under one total degree that must stay below 2^15: a product whose
    # total degree reaches it raises OverflowError, even where the reduced
    # element would fit
    one, u, t1 = _L_h.one(), _L_h.gen("u"), _L_h.t_var(0)
    x = MPoly.variable(1, 0, one)
    f = MPoly(1, {(2,): one})
    below = [x.scale(t1 ** (2 ** 14 - 3) * u)]  # degree 2^14 - 1, squared
    assert _assert_free_walk_matches(f, below).total_degree() == 2
    at = [x.scale(t1 ** (2 ** 14 - 2) * u)]  # degree 2^14, squared
    with pytest.raises(OverflowError):
        f.subst(at)
    # the exponent of u unreduced: (u x)^(2^14) has degree 2^15 in u and x
    with pytest.raises(OverflowError):
        MPoly(1, {(2 ** 14,): one}).subst([x.scale(u)])


# products by operand shape: `MPoly.__mul__` sends a product of more than
# `_FREE_PAIRS` pairs of terms over a tower to the free ring, and one-term
# operands to shortcuts; each path against `_pairwise` or the general one

import sblinks.field_tower as field_tower
import sblinks.multipoly as multipoly
from sblinks.errors import SblinksError
from sblinks.field_tower import _cross, _free_mul
from sblinks.multipoly import _FREE_PAIRS, NotDivisible

# heights 0, 1 and 2: K, L = K[cbrt t1], the link6 tower L[sqrt t2], the
# models tower L[cbrt((t2 - 1)/(27 t1))] and the hexagon tower
_PRODUCT_TOWERS = [_K_h, *_SUBST_TOWERS]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_free_product_matches_pairwise_reference(data):
    M = data.draw(st.sampled_from(_PRODUCT_TOWERS))
    nv = data.draw(st.integers(1, 3))
    f = data.draw(free_polys(M, nv, max_terms=6))
    g = data.draw(free_polys(M, nv, max_terms=6))
    ref = _pairwise(f, g)
    out = _free_mul(M, f, g)
    assert out is not None  # every coefficient is denominator-free
    _assert_same(out, ref)
    _assert_same(f * g, ref)
    # (c x + y + w)(c x - y - w) = c^2 x^2 - (y + w)^2: the terms in x y
    # and x cancel
    c = data.draw(free_coefficients(M))
    w = MPoly.const(2, data.draw(free_coefficients(M)))
    x, y = (MPoly.variable(2, i, M.one()) for i in range(2))
    p, q = x.scale(c) + y + w, x.scale(c) - y - w
    out = _free_mul(M, p, q)
    _assert_same(out, _pairwise(p, q))
    assert len(out.terms) == 4


def test_free_product_folds_radicand_denominators():
    # over the models tower v^3 = (t2 - 1)/(27 t1): products whose terms
    # reach v^3 and v^6 next to terms that do not come over t1^2
    M = _TWO_RADICALS[1]
    u, v, one = M.gen("u"), M.gen("v"), M.one()
    f = MPoly(2, {(2, 0): v * v, (1, 1): u * v, (0, 2): one, (1, 0): v})
    g = MPoly(2, {(1, 0): v * v, (0, 1): M.zeta() * v, (0, 0): u * u})
    assert len(f.terms) * len(g.terms) > _FREE_PAIRS
    out = _free_mul(M, f, g)
    _assert_same(out, _pairwise(f, g))
    _assert_same(f * g, out)
    assert any(c.den is not M.unit for c in out.terms.values())


def test_products_and_substitution_share_one_fold(monkeypatch):
    """A tower product with a many-term operand, a free-ring product and a
    free-ring substitution all bring the radicals down in `_fold_radicals`.
    Over the models tower u^3 = t1 and v^3 = (t2 - 1)/(27 t1): in the
    element product some pairs of terms overflow u only, some v only and
    some neither, so the terms that do not reach v^3 come over t1 too."""
    M = _TWO_RADICALS[1]
    u, v, one, t2 = M.gen("u"), M.gen("v"), M.one(), M.t_var(1)
    a = u * u + v * v + t2
    b = u + M.scalar(2) * v + one
    overflows = {
        tuple(x >= k for x, k in zip(map(sum, zip(ea, eb)), M.degrees))
        for ea in a.nums
        for eb in b.nums
    }
    assert overflows == {(True, False), (False, True), (False, False)}
    x, y = (MPoly.variable(2, i, one) for i in range(2))
    f = MPoly(2, {(2, 0): v * v, (1, 1): u * v, (0, 2): one, (1, 0): v})
    g = MPoly(2, {(1, 0): v * v, (0, 1): M.zeta() * v, (0, 0): u * u})
    values = [x.scale(v * v) + y, x.scale(u * v) - y.scale(M.zeta())]

    folds = []
    fold = field_tower._fold_radicals

    def counted(tower, *args):
        folds.append(tower)
        return fold(tower, *args)

    monkeypatch.setattr(field_tower, "_fold_radicals", counted)
    product = a * b
    assert folds == [M]
    assert product.den is not M.unit
    _assert_matches(product, _ref_mul(M, _ref_of(a), _ref_of(b)))
    for path in (lambda: _free_mul(M, f, g), lambda: _free_subst(M, f, values)):
        folds.clear()
        out = path()
        assert folds and set(folds) == {M} and not out.is_zero()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_one_term_products_match_pairwise_reference(data):
    M = data.draw(st.sampled_from(_PRODUCT_TOWERS))
    nv = data.draw(st.integers(1, 3))
    # radical exponents that overflow: r^(k-1) times r^(k-1)
    big = M.one()
    for r in M.radicals:
        big = big * M.gen(r.name) ** (r.degree - 1)
    m = MPoly.monomial(nv, data.draw(st.tuples(*[st.integers(0, 2)] * nv)), big * data.draw(free_coefficients(M)))
    n = MPoly.monomial(nv, data.draw(st.tuples(*[st.integers(0, 2)] * nv)), big)
    f = data.draw(free_polys(M, nv, max_terms=5))
    for a, b in ((m, n), (m, f), (f, m)):
        _assert_same(a * b, _pairwise(a, b))
    one = MPoly.const(nv, M.one())
    assert one * f == f == f * one


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_one_term_division_matches_the_general_path(data):
    M = data.draw(st.sampled_from(_PRODUCT_TOWERS))
    nv = data.draw(st.integers(1, 3))
    f = data.draw(free_polys(M, nv, max_terms=4))
    c = data.draw(free_coefficients(M))
    e = data.draw(st.tuples(*[st.integers(0, 2)] * nv))
    m = MPoly.monomial(nv, e, c)
    # two terms in the divisor take the general path to the same quotient
    h = MPoly.variable(nv, 0, M.one()) + MPoly.const(nv, M.t_var(1))
    q = exact_div(f * m, m)
    assert q == f == exact_div(f * m * h, m * h)
    _assert_same(q, f)
    # a monomial that misses some term of f
    x = MPoly.variable(nv, nv - 1, M.one())
    g = f * m + MPoly.const(nv, M.one())
    with pytest.raises(NotDivisible) as info:
        exact_div(g, m * x)
    assert str(info.value) == f"{m * x!r} does not divide {g!r}"


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_gcd_with_a_constant_is_one(data):
    M = data.draw(st.sampled_from(_PRODUCT_TOWERS))
    nv = data.draw(st.integers(1, 3))
    f = data.draw(free_polys(M, nv, max_terms=4))
    c = MPoly.const(nv, data.draw(free_coefficients(M)))
    one = MPoly.const(nv, M.one())
    # the general one-term path: the fieldwise-minimum monomial of both
    want = MPoly.monomial(nv, tuple(map(min, (0,) * nv, f.min_exps())), M.one())
    assert gcd(f, c) == gcd(c, f) == gcd(c, c) == want == one


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_one_term_cancellation_matches_gcd(data):
    """`_cross` cancels a monomial over a monomial, or any one-term
    operand, through the one-term paths of `gcd` and `exact_div`: it leaves
    a monic denominator coprime to the numerator, the shared unit when it
    is 1."""
    unit = _K_h.unit
    draw_e = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def poly(k):
        return MPoly(2, data.draw(st.dictionaries(draw_e, _constants, min_size=k, max_size=k)))

    kn, kd = data.draw(st.sampled_from([(1, 1), (1, 3), (3, 1)]))
    n, d = poly(kn), poly(kd).monic()
    if d.is_const():
        return  # a denominator 1 is the unit, and is never cancelled
    cn, cd = _cross(n, unit, unit, d, unit)
    g = gcd(n, d)
    assert cn == exact_div(n, g) and cd == exact_div(d, g)
    assert cd.lc().is_one() and gcd(cn, cd).is_const()
    if cd.is_const():
        assert cd is unit
    # and through the tower: one-term elements over monomial denominators
    M = data.draw(st.sampled_from(_PRODUCT_TOWERS))
    a = M.from_poly(n) / M.from_poly(poly(1).monic())
    b = M.from_poly(d) / M.from_poly(poly(1))
    _assert_matches(a * b, _ref_mul(M, _ref_of(a), _ref_of(b)))
    assert (a * b).den is M.unit or (a * b).den.lc().is_one()


# guards: which path a product takes


def test_6link_jacobian_square_takes_the_free_path(monkeypatch, six_link):
    """J^2 of the 6-link's forward map, 784 pairs of terms, is one integer
    convolution: it multiplies no two tower elements."""
    from sblinks.linalg import det3

    fc = six_link.forward.map.coords
    jac = det3([[c.derivative(i) for i in range(3)] for c in fc])
    assert len(jac.terms) ** 2 == 784
    ref = _pairwise(jac, jac)

    def forbidden(*args):
        raise AssertionError("a tower product in the free path")

    monkeypatch.setattr(FieldElement, "__mul__", forbidden)
    _assert_same(jac * jac, ref)


def test_products_with_t_denominators_take_the_pair_loop(monkeypatch):
    M = _TWO_RADICALS[0]
    u, s = M.gen("u"), M.gen("s")
    inv = M.one() / (M.t_var(0) + M.one())  # a t-denominator
    x, y = (MPoly.variable(2, i, M.one()) for i in range(2))
    f = x.scale(u) + y.scale(inv) + MPoly.const(2, s)
    g = x.scale(s) + y.scale(u * u) + MPoly.const(2, M.t_var(1))
    assert len(f.terms) * len(g.terms) > _FREE_PAIRS
    assert _free_mul(M, f, g) is None
    ref = _pairwise(f, g)

    def forbidden(*args):
        raise AssertionError("the free ring with a t-denominator")

    monkeypatch.setattr(field_tower, "_free_fold", forbidden)
    _assert_same(f * g, ref)


def test_products_across_towers_still_raise():
    L, M = _L_h, _TWO_RADICALS[0]
    x, y = (MPoly.variable(2, i, L.one()) for i in range(2))
    f = x + y + MPoly.const(2, L.gen("u"))
    g = MPoly(2, {(1, 0): M.gen("s"), (0, 1): M.one(), (0, 0): M.t_var(0)})
    assert len(f.terms) * len(g.terms) > _FREE_PAIRS
    with pytest.raises(SblinksError, match="tower mismatch"):
        f * g
    with pytest.raises(SblinksError, match="tower mismatch"):
        g * f


def test_degree_check_fires_before_either_path(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a product path ran past the degree bound")

    monkeypatch.setattr(field_tower, "_free_mul", forbidden)
    one = _L_h.one()
    high = MPoly.monomial(2, (2 ** 14, 0), one)
    x, y = (MPoly.variable(2, i, one) for i in range(2))
    big = high + high.mul_monomial((0, 1), one) + x + y + MPoly.const(2, one)
    assert len(big.terms) ** 2 > _FREE_PAIRS
    for a, b in ((big, big), (high, high), (high, big)):
        with pytest.raises(OverflowError):
            a * b
    monkeypatch.setattr(multipoly, "_poly", forbidden)
    with pytest.raises(OverflowError):
        high * high
