import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sblinks.field_tower import poly_to_json
from sblinks.multipoly import (
    MPoly,
    NotDivisible,
    _coeffs_in,
    bareiss_det,
    exact_div,
    gcd,
    gcd_many,
    gcd_many_homogeneous,
    lc_in,
    mod_reduce,
    prem,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)
from sblinks.scalars import QZeta


def P(nvars, *terms):
    d = {}
    for exps, c in terms:
        d[tuple(exps)] = QZeta(c)
    return MPoly(nvars, d)


def rand_poly(rng, nvars=2, nterms=3, deg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        terms[e] = QZeta(rng.randint(-5, 5), rng.randint(-2, 2))
    terms = {e: c for e, c in terms.items() if not c.is_zero()}
    return MPoly(nvars, terms)


def test_arith_basics():
    x = MPoly.variable(2, 0, QZeta.one())
    y = MPoly.variable(2, 1, QZeta.one())
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + x * y.scale(QZeta(2)) + y * y


def test_exact_div():
    x = MPoly.variable(2, 0, QZeta.one())
    y = MPoly.variable(2, 1, QZeta.one())
    f = (x + y) * (x * x + y)
    assert exact_div(f, x + y) == x * x + y
    with pytest.raises(NotDivisible):
        exact_div(f + MPoly.const(2, QZeta.one()), x + y)


def test_exact_div_one_term_quotient(K2):
    """A one-term quotient over coefficients with t-denominators, f with as
    many terms as g; a changed coefficient of f is NotDivisible."""
    t1, t2 = K2.t_var(0), K2.t_var(1)
    x, y, z = (MPoly.variable(3, i, K2.one()) for i in range(3))
    g = x.scale(t1 / (t2 + K2.one())) + y.scale(t2) + z.scale(K2.scalar(3))
    q = MPoly.monomial(3, (2, 1, 0), K2.one() / (t1 * t1 - t2))
    f = g * q
    assert len(f.terms) == len(g.terms)
    assert exact_div(f, g) == q
    changed = f + MPoly.monomial(3, (2, 2, 0), K2.one())
    assert len(changed.terms) == len(g.terms)
    with pytest.raises(NotDivisible):
        exact_div(changed, g)


def test_exact_div_same_length_operands():
    """(x^2 - y^2) / (x + y): as many terms, but the quotient x - y is not
    one term; x^2 + 2 x y has the keys of x (x + y) and is NotDivisible."""
    x = MPoly.variable(2, 0, QZeta.one())
    y = MPoly.variable(2, 1, QZeta.one())
    assert exact_div(x * x - y * y, x + y) == x - y
    with pytest.raises(NotDivisible):
        exact_div(x * x + (x * y).scale(QZeta(2)), x + y)


def test_gcd_known_factor():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = gcd(a * c, b * c)
        # gcd must be divisible by c (up to the unit) whenever gcd(a, b) = 1
        if gcd(a, b).is_const():
            assert exact_div(g, c.monic()) is not None


def test_gcd_coprime():
    x = MPoly.variable(2, 0, QZeta.one())
    y = MPoly.variable(2, 1, QZeta.one())
    assert gcd(x, y).is_const()
    assert gcd(x + y, x - y).is_const()


def test_gcd_cancellation_example():
    # (t1^2 - t2^2) / (t1 - t2) = t1 + t2
    x = MPoly.variable(2, 0, QZeta.one())
    y = MPoly.variable(2, 1, QZeta.one())
    g = gcd(x * x - y * y, x - y)
    assert g == (x - y).monic()


def test_squarefree_decomposition():
    x = MPoly.variable(2, 0, QZeta.one())
    y = MPoly.variable(2, 1, QZeta.one())
    f = (x + y) ** 3 * (x - y) * MPoly.const(2, QZeta(6))
    const, parts = squarefree_decomposition(f)
    assert const == QZeta(6)
    assert sorted(k for _, k in parts) == [1, 3]
    rebuilt = MPoly.const(2, const)
    for g, k in parts:
        rebuilt = rebuilt * g ** k
    assert rebuilt == f
    assert squarefree_part(f) == ((x + y) * (x - y)).monic()


def test_resultant_common_root():
    x = MPoly.variable(2, 0, QZeta.one())
    y = MPoly.variable(2, 1, QZeta.one())
    # f = (x - y)(x + y), g = (x - y)(x + 2y): share x = y, resultant 0
    f = (x - y) * (x + y)
    g = (x - y) * (x + y.scale(QZeta(2)))
    assert resultant(f, g, 0).is_zero()
    # coprime case: nonzero resultant
    h = x + y.scale(QZeta(3))
    assert not resultant(f, h, 0).is_zero()


def test_mod_reduce_cubic():
    # reduce w^3 modulo w^3 - x y z (variables w, x, y, z)
    one = QZeta.one()
    w3 = MPoly.monomial(4, (3, 0, 0, 0), one)
    rel = w3 - MPoly.monomial(4, (0, 1, 1, 1), one)
    red = mod_reduce(w3, rel, (3, 0, 0, 0))
    assert red == MPoly.monomial(4, (0, 1, 1, 1), one)
    # w^4 -> w x y z
    w4 = MPoly.monomial(4, (4, 0, 0, 0), one)
    assert mod_reduce(w4, rel, (3, 0, 0, 0)) == MPoly.monomial(4, (1, 1, 1, 1), one)


def test_gcd_many_homogeneous():
    x = MPoly.variable(3, 0, QZeta.one())
    y = MPoly.variable(3, 1, QZeta.one())
    z = MPoly.variable(3, 2, QZeta.one())
    c = x * y + y * z
    polys = [c * x, c * z, c * (x + y)]
    g = gcd_many_homogeneous(polys)
    assert g == c.monic()


# ---------------------------------------------------------------------------
# differential tests: the packed MPoly against a tuple-keyed reference

BOUND = 2 ** 15  # exponents and total degrees stay below it


def grlex(e):
    return (sum(e), e)


def add_exps(a, b):
    return tuple(x + y for x, y in zip(a, b))


class Ref:
    """Sparse polynomial keyed by exponent tuples, computed the direct way."""

    def __init__(self, n, terms):
        self.n = n
        self.t = {tuple(e): c for e, c in terms.items() if not c.is_zero()}

    @staticmethod
    def of(p: MPoly) -> "Ref":
        return Ref(p.nvars, p.tuple_terms())

    def __eq__(self, other):
        return self.n == other.n and self.t == other.t

    def __add__(self, other):
        t = dict(self.t)
        for e, c in other.t.items():
            t[e] = t[e] + c if e in t else c
        return Ref(self.n, t)

    def __neg__(self):
        return Ref(self.n, {e: -c for e, c in self.t.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        t = {}
        for ea, ca in self.t.items():
            for eb, cb in other.t.items():
                e = add_exps(ea, eb)
                t[e] = t[e] + ca * cb if e in t else ca * cb
        return Ref(self.n, t)

    def mul_monomial(self, m, c):
        return Ref(self.n, {add_exps(e, m): k * c for e, k in self.t.items()})

    def shift_down(self, m):
        return Ref(self.n, {tuple(x - y for x, y in zip(e, m)): c for e, c in self.t.items()})

    def min_exps(self):
        return tuple(min(col) for col in zip(*self.t))

    def deg_in(self, i):
        return max((e[i] for e in self.t), default=-1)

    def total_degree(self):
        return max((sum(e) for e in self.t), default=-1)

    def leading(self):
        e = max(self.t, key=grlex)
        return e, self.t[e]

    def derivative(self, i):
        return Ref(self.n, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * QZeta(e[i]) for e, c in self.t.items() if e[i]
        })

    def lc_in(self, v):
        d = self.deg_in(v)
        return Ref(self.n, {e[:v] + (0,) + e[v + 1:]: c for e, c in self.t.items() if e[v] == d})

    def div(self, g):
        """The exact quotient by g, or None when g does not divide."""
        ge, gc = g.leading()
        q, r = {}, self
        while r.t:
            re, rc = r.leading()
            de = tuple(x - y for x, y in zip(re, ge))
            if min(de) < 0:
                return None
            q[de] = rc * gc.inverse()
            r = r - g.mul_monomial(de, q[de])
        return Ref(self.n, q)

    def mod_reduce(self, d, lead):
        tail = Ref(self.n, {e: c for e, c in d.t.items() if e != lead})
        inv = d.t[lead].inverse()
        cur = self
        while True:
            hits = [e for e in cur.t if all(x >= y for x, y in zip(e, lead))]
            if not hits:
                return cur
            e = max(hits, key=grlex)
            de = tuple(x - y for x, y in zip(e, lead))
            rest = Ref(self.n, {f: c for f, c in cur.t.items() if f != e})
            cur = rest - tail.mul_monomial(de, cur.t[e] * inv)

    def prem(self, g, v):
        one = QZeta.one()
        dg, lg, r = g.deg_in(v), g.lc_in(v), self
        while r.t and r.deg_in(v) >= dg:
            shift = tuple(r.deg_in(v) - dg if i == v else 0 for i in range(self.n))
            r = r * lg - (g * r.lc_in(v)).mul_monomial(shift, one)
        return r

    def subst(self, values, m):
        out = Ref(m, {})
        for e, c in self.t.items():
            piece = Ref(m, {(0,) * m: c})
            for v, k in zip(values, e):
                for _ in range(k):
                    piece = piece * v
            out = out + piece
        return out

    def eval(self, values):
        acc = QZeta.zero()
        for e, c in self.t.items():
            for v, k in zip(values, e):
                for _ in range(k):
                    c = c * v
            acc = acc + c
        return acc

    def sorted_terms(self):
        return sorted(self.t.items(), key=lambda t: grlex(t[0]), reverse=True)

    def repr(self):
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"t{i+1}^{k}" if k > 1 else f"t{i+1}" for i, k in enumerate(e) if k)
            bits.append(f"({c!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits) or "0"

    def to_json(self):
        return [{"monomial": list(e), "coeff": c.to_json()} for e, c in self.sorted_terms()]

    def sympy_poly(self, gens):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.re.numerator, c.re.denominator) for e, c in self.t.items()},
            *gens,
            domain="QQ",
        )


COEFFS = st.builds(QZeta, st.integers(-3, 3), st.integers(-2, 2))
RATIONALS = st.builds(QZeta, st.integers(-4, 4))


def exps(n, top):
    """Exponent tuples, each exponent either small or up to top."""
    one = st.integers(0, 3) if top <= 3 else st.one_of(st.integers(0, 3), st.integers(0, top))
    return st.tuples(*[one] * n)


def terms(n, top, coeffs=COEFFS, size=5):
    return st.dictionaries(exps(n, top), coeffs, max_size=size)


def as_pair(n, t):
    return MPoly(n, {e: c for e, c in t.items() if not c.is_zero()}), Ref(n, t)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_matches_reference_up_to_the_bound(data):
    n = data.draw(st.integers(1, 5))
    top = (BOUND // 2 - 1) // n  # a product of two polynomials stays below the bound
    f, rf = as_pair(n, data.draw(terms(n, top)))
    g, rg = as_pair(n, data.draw(terms(n, top)))
    m = data.draw(exps(n, top))
    c = data.draw(COEFFS)

    assert Ref.of(f + g) == rf + rg
    assert Ref.of(f - g) == rf - rg
    assert Ref.of(f * g) == rf * rg
    assert Ref.of(f.scale(c)) == Ref(n, {e: k * c for e, k in rf.t.items()})
    assert Ref.of(f.mul_monomial(m, c)) == rf.mul_monomial(m, c)
    for i in range(n):
        assert f.deg_in(i) == rf.deg_in(i)
        assert Ref.of(f.derivative(i)) == rf.derivative(i)
    assert f.total_degree() == rf.total_degree()
    assert f.sorted_terms() == rf.sorted_terms()
    assert repr(f) == rf.repr()
    assert poly_to_json(f) == rf.to_json()
    if f.is_zero():
        return
    assert f.leading() == rf.leading()
    assert f.lc() == rf.leading()[1]
    assert f.min_exps() == rf.min_exps()
    assert Ref.of(f.shift_down(f.min_exps())) == rf.shift_down(rf.min_exps())
    for i in range(n):
        assert Ref.of(lc_in(f, i)) == rf.lc_in(i)
    if not g.is_zero():
        assert Ref.of(exact_div(f * g, g)) == rf


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_division_and_substitution_match_reference(data):
    n = data.draw(st.integers(1, 5))
    f, rf = as_pair(n, data.draw(terms(n, 3)))
    g, rg = as_pair(n, data.draw(terms(n, 3, size=3)))
    if g.is_zero():
        return
    q = rf.div(rg)
    if q is None:
        with pytest.raises(NotDivisible):
            exact_div(f, g)
    else:
        assert Ref.of(exact_div(f, g)) == q
    v = data.draw(st.integers(0, n - 1))
    assert Ref.of(prem(f, g, v)) == rf.prem(rg, v)

    # d = lead + lower-degree tail, so lead is d's grlex leader
    lead = data.draw(exps(n, 3).filter(any))
    tail = {e: k for e, k in data.draw(terms(n, 3, size=3)).items() if sum(e) < sum(lead)}
    d, rd = as_pair(n, {**tail, lead: data.draw(COEFFS.filter(lambda k: not k.is_zero()))})
    assert Ref.of(mod_reduce(f, d, lead)) == rf.mod_reduce(rd, lead)

    m = data.draw(st.integers(1, 3))
    pairs = [as_pair(m, data.draw(terms(m, 2, size=3))) for _ in range(n)]
    assert Ref.of(f.subst([p for p, _ in pairs])) == rf.subst([r for _, r in pairs], m)
    point = [data.draw(COEFFS) for _ in range(n)]
    assert f.eval_zero_ok(point, QZeta.zero()) == rf.eval(point)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_gcd_matches_sympy(data):
    n = data.draw(st.integers(1, 4))
    a, b, c = (as_pair(n, data.draw(terms(n, 2, RATIONALS, size=3))) for _ in range(3))
    f, g = a[0] * c[0], b[0] * c[0]
    if f.is_zero() or g.is_zero():
        return
    gens = sympy.symbols(f"x0:{n}")
    expected = (a[1] * c[1]).sympy_poly(gens).gcd((b[1] * c[1]).sympy_poly(gens))
    want = {e: QZeta(Fraction(int(k.p), int(k.q))) for e, k in expected.terms()}
    lead = want[max(want, key=grlex)]
    assert gcd(f, g).tuple_terms() == {e: k * lead.inverse() for e, k in want.items()}


@given(st.data())
def test_packed_keys_sort_in_grlex_order(data):
    n = data.draw(st.integers(1, 5))
    es = data.draw(st.lists(exps(n, (BOUND - 1) // n), min_size=2, max_size=8, unique=True))
    keys = {next(iter(MPoly.monomial(n, e, QZeta.one()).terms)): e for e in es}
    assert [keys[k] for k in sorted(keys)] == sorted(es, key=grlex)


def test_overflow_at_the_bound():
    one = QZeta.one()
    top = MPoly.monomial(2, (BOUND - 1, 0), one)
    assert top.total_degree() == BOUND - 1
    for bad in ((BOUND,), (0, BOUND, 0), (BOUND // 2, BOUND // 2)):
        with pytest.raises(OverflowError):
            MPoly.monomial(len(bad), bad, one)
        with pytest.raises(OverflowError):
            MPoly(len(bad), {bad: one})
    x = MPoly.variable(2, 0, one)
    y = MPoly.variable(2, 1, one)
    half = MPoly.monomial(2, (0, BOUND // 2), one)
    with pytest.raises(OverflowError):
        top * y
    with pytest.raises(OverflowError):
        half * (half + x)
    with pytest.raises(OverflowError):
        top.mul_monomial((1, 0), one)
    with pytest.raises(OverflowError):
        top._shift_key(next(iter(x.terms)))
    with pytest.raises(OverflowError):
        x ** BOUND
    assert (half * MPoly.monomial(2, (BOUND // 2 - 1, 0), one)).total_degree() == BOUND - 1


def test_unit_monomial_product_rekeys_the_coefficients(L):
    """A product with c = 1 times a monomial re-keys the terms and keeps
    each coefficient object; any other c multiplies them."""
    one, u, t1 = L.one(), L.gen("u"), L.t_var(0)
    f = MPoly(3, {(1, 0, 1): u + t1, (0, 2, 0): t1 * t1, (0, 0, 2): one})
    x = MPoly.variable(3, 0, one)
    for g in (f.mul_monomial((1, 0, 0), one), x * f, f * x):
        assert g == MPoly(3, {(e[0] + 1,) + e[1:]: c for e, c in f.tuple_terms().items()})
        assert all(
            g.tuple_terms()[(e[0] + 1,) + e[1:]] is c for e, c in f.tuple_terms().items()
        )
    doubled = f.mul_monomial((0, 0, 0), L.scalar(2))
    assert doubled == MPoly(3, {e: L.scalar(2) * c for e, c in f.tuple_terms().items()})


# ---------------------------------------------------------------------------
# substitution and evaluation over a tower: sparse exponents with gaps, as
# in the quintics of a 6-link, against products of powers term by term


def power_product_subst(f, values):
    nv = values[0].nvars
    out = MPoly.zero(nv)
    for e, c in f.tuple_terms().items():
        piece = MPoly.const(nv, c)
        for v, k in zip(values, e):
            for _ in range(k):
                piece = piece * v
        out = out + piece
    return out


def power_product_eval(f, point):
    acc = None
    for e, c in f.tuple_terms().items():
        for v, k in zip(point, e):
            for _ in range(k):
                c = c * v
        acc = c if acc is None else acc + c
    return acc


def tower_pool(L):
    u, t1, t2 = L.gen("u"), L.t_var(0), L.t_var(1)
    one = L.one()
    return [one, L.scalar(-3), u, t2, u * u - t1, t2 / (t1 + one), (u + one) / t2, L.zeta() * u]


def check_subst_and_eval(f, values, point):
    """f, and each of the values, nonzero."""
    sub = f.subst(values)
    assert sub == power_product_subst(f, values)
    at = [v.eval(point) for v in values]
    assert f.eval(at) == power_product_eval(f, at) == sub.eval_zero_ok(point, point[0].zero())


def test_subst_sparse_quintic_over_tower(L):
    one, u, t1, t2 = L.one(), L.gen("u"), L.t_var(0), L.t_var(1)
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    # x^5 + x^2 y^3 + z^5: gaps of 3 and 2 in the exponent of x
    f = MPoly(3, {(5, 0, 0): u, (2, 3, 0): t2 / (t1 + one), (0, 0, 5): one})
    values = [x + y.scale(u), z.scale(t1) - y, x + y + z]
    check_subst_and_eval(f, values, [u, t2, one])
    # a constant term, and a value that is a constant
    g = f + MPoly.const(3, t1)
    check_subst_and_eval(g, [values[0], MPoly.const(3, u), z * z], [t2, u, t1])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subst_with_exponent_gaps_matches_power_products(L, data):
    pool = tower_pool(L)
    coeff = st.sampled_from(pool)
    homogeneous = data.draw(st.booleans(), label="homogeneous")

    @st.composite
    def quintic_exps(draw):
        a = draw(st.integers(0, 5))
        b = draw(st.integers(0, 5 - a))
        c = 5 - a - b if homogeneous else draw(st.integers(0, 5))
        return a, b, c

    f = MPoly(3, data.draw(st.dictionaries(quintic_exps(), coeff, min_size=1, max_size=5)))
    linear = st.dictionaries(
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), coeff, min_size=1, max_size=2
    )
    values = [MPoly(3, data.draw(linear)) for _ in range(3)]
    point = data.draw(st.lists(coeff, min_size=3, max_size=3))
    check_subst_and_eval(f, values, point)


# ---------------------------------------------------------------------------
# resultants against the Sylvester determinant


def sylvester(f: MPoly, g: MPoly, v: int):
    """The Sylvester matrix of f and g in variable v: rows x^(n-1-i) f for
    i < n, then x^(m-1-i) g for i < m, columns from x^(m+n-1) down."""
    m, n = f.deg_in(v), g.deg_in(v)
    fc = _coeffs_in(f, v)
    gc = _coeffs_in(g, v)
    zero = MPoly.zero(f.nvars)
    size = m + n
    rows = []
    for i in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[i + (m - k)] = fc.get(k, zero)
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[i + (n - k)] = gc.get(k, zero)
        rows.append(row)
    return rows


@pytest.mark.parametrize("ring", ["qzeta", "L"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resultant_matches_sylvester_determinant(ring, L, data):
    """The hybrid Bezout resultant is the Sylvester determinant, sign
    included, for equal and unequal degrees, and 0 on a shared factor."""
    if ring == "qzeta":
        nvars = data.draw(st.integers(1, 3), label="nvars")
        coeff = COEFFS.filter(lambda c: not c.is_zero())
    else:
        # no coefficient bivariate in t1, t2: products of those swell
        nvars = 2
        one, u, t1 = L.one(), L.gen("u"), L.t_var(0)
        pool = [one, L.scalar(-3), u, L.t_var(1), u * u - t1, L.zeta() * u, one / (t1 + one)]
        coeff = st.sampled_from(pool)

    def poly(degree):
        # a term free of x keeps two polynomials from sharing the factor x
        rest = [st.integers(0, 2)] * (nvars - 1)
        t = data.draw(st.dictionaries(st.tuples(st.integers(1, degree), *rest), coeff, max_size=size))
        t[(degree,) + (0,) * (nvars - 1)] = data.draw(coeff)
        t[data.draw(st.tuples(st.just(0), *rest))] = data.draw(coeff)
        return MPoly(nvars, t)

    if ring == "qzeta":
        pairs, size = [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3), (3, 4), (1, 4)], 2
    else:
        pairs, size = [(1, 1), (2, 2), (1, 2), (1, 3)], 1
    m, n = data.draw(st.sampled_from(pairs), label="degrees")
    f, g = poly(m), poly(n)
    if data.draw(st.booleans(), label="shared factor"):
        shared = poly(1)
        f, g = f * shared, g * shared
        assert resultant(f, g, 0).is_zero()
    # both orders: res(g, f) = (-1)^(mn) res(f, g) when m < n
    assert resultant(f, g, 0) == bareiss_det(sylvester(f, g, 0))
    assert resultant(g, f, 0) == bareiss_det(sylvester(g, f, 0))


# ---------------------------------------------------------------------------
# gcd_many against the fold over every input


def gcd_many_fold(polys):
    """The reference: the monic gcd folded over every input, equal ones
    included, from the smallest; a single input unscaled."""
    ordered = sorted(polys, key=lambda p: (len(p.terms), p.total_degree()))
    g = ordered[0]
    for p in ordered[1:]:
        g = gcd(g, p)
        if g.is_const() and not g.is_zero():
            break
    return g


@pytest.mark.parametrize("case", ["duplicates", "scalar multiples", "single"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gcd_many_skipping_equal_inputs_matches_the_fold(case, data):
    """Equal inputs are skipped and scalar multiples are not; either way the
    answer is the fold's, and a single input comes back as it was."""
    nonzero = COEFFS.filter(lambda c: not c.is_zero())
    common = MPoly(2, data.draw(terms(2, 2, nonzero, 3), label="common"))
    if common.is_zero():
        common = MPoly.const(2, QZeta(2))
    base = [
        MPoly(2, data.draw(terms(2, 2, nonzero, 3), label="cofactor")) * common
        for _ in range(data.draw(st.integers(1, 3), label="distinct"))
    ]
    if case == "single":
        assert gcd_many([base[0]]) is base[0]
        assert gcd_many([base[0]]) == gcd_many_fold([base[0]])
        return
    polys = list(base)
    for _ in range(data.draw(st.integers(1, 3), label="repeats")):
        p = data.draw(st.sampled_from(base))
        if case == "scalar multiples":
            p = p.scale(data.draw(nonzero.filter(lambda c: not c.is_one())))
        polys.insert(data.draw(st.integers(0, len(polys))), p)
    assert gcd_many(polys) == gcd_many_fold(polys)


# ---------------------------------------------------------------------------
# gcds in one variable (Euclid over the coefficient field) and with a
# one-term operand, each answer certified independently of how it was found


def in_variable(n, v, coeffs):
    """The polynomial sum coeffs[k] x_v^k of n variables."""
    return MPoly(n, {tuple(k if i == v else 0 for i in range(n)): c for k, c in coeffs.items()})


def assert_is_gcd(h, f, g, v):
    """h is the monic gcd of f and g, nonzero polynomials in variable v: it
    divides both, and the cofactors share no root (a constant cofactor is a
    unit; otherwise their resultant in v is nonzero)."""
    assert h.lc().is_one()
    a, b = exact_div(f, h), exact_div(g, h)
    if a.deg_in(v) > 0 and b.deg_in(v) > 0:
        assert not resultant(a, b, v).is_zero()


MIXED = st.builds(QZeta, st.fractions(-3, 3, max_denominator=4), st.integers(-2, 2)).filter(
    lambda c: not c.is_zero()
)


@pytest.mark.parametrize("case", ["planted", "constant", "shared power", "equal", "divides", "coprime"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_variable_gcd_over_mixed_qzeta(case, data):
    """Planted common factors a c and b c with coefficients a + b zeta, in
    one variable v of up to three; every answer is certified."""
    n = data.draw(st.integers(1, 3), label="nvars")
    v = data.draw(st.integers(0, n - 1), label="variable")

    def poly(low, high):
        """A polynomial in x_v of degree in [low, high]."""
        d = data.draw(st.integers(low, high))
        coeffs = data.draw(st.dictionaries(st.integers(0, d), MIXED, max_size=3))
        coeffs[d] = data.draw(MIXED)
        return in_variable(n, v, coeffs)

    a, b, c = poly(0, 3), poly(0, 3), poly(1, 3)
    f, g = a * c, b * c
    if case == "constant":
        f = in_variable(n, v, {0: data.draw(MIXED)})
    elif case == "shared power":
        f = f * in_variable(n, v, {data.draw(st.integers(1, 4)): QZeta(1)})
        g = g * in_variable(n, v, {data.draw(st.integers(1, 4)): QZeta(1)})
    elif case == "equal":
        g = f
    elif case == "divides":
        g = f * poly(1, 2)
    elif case == "coprime":
        g = f + in_variable(n, v, {0: data.draw(MIXED)})  # gcd(f, f + k) divides k
    h = gcd(f, g)
    assert_is_gcd(h, f, g, v)
    assert h == gcd(g, f)
    if case == "constant" or case == "coprime":
        assert h == in_variable(n, v, {0: QZeta(1)})
    else:
        exact_div(h, c)  # the planted factor divides the gcd
    if case == "equal":
        assert h == f.monic()


def tower_coeffs(L):
    one, u, t1, t2 = L.one(), L.gen("u"), L.t_var(0), L.t_var(1)
    return [one, L.scalar(-3), u, t2, u * u - t1, L.zeta() * u, one / (t1 + one), u + t2]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_variable_gcd_over_the_tower_matches_the_prs(L, data):
    """Over L = K[cbrt t1], with a planted factor that contains u: Euclid's
    gcd of f(x), g(x) is certified, and the PRS takes the same inputs
    embedded in two variables, f(x + y) and g(x + y), to h(x + y)."""
    one, u, t2 = L.one(), L.gen("u"), L.t_var(1)
    pool = tower_coeffs(L)
    x = MPoly.variable(1, 0, one)

    def poly(d):
        coeffs = data.draw(st.dictionaries(st.integers(0, d), st.sampled_from(pool), max_size=2))
        coeffs[d] = data.draw(st.sampled_from(pool))
        return in_variable(1, 0, coeffs)

    planted = (x - MPoly.const(1, u)) * data.draw(
        st.sampled_from([x - MPoly.const(1, t2), x + MPoly.const(1, one), MPoly.const(1, one)])
    )
    f, g = poly(data.draw(st.integers(0, 1))) * planted, poly(1) * planted
    h = gcd(f, g)
    assert_is_gcd(h, f, g, 0)
    exact_div(h, planted)
    shift = [MPoly.variable(2, 0, one) + MPoly.variable(2, 1, one)]
    assert gcd(f.subst(shift), g.subst(shift)) == h.subst(shift)


def test_one_variable_gcd_over_the_tower_named_case(L):
    one, u, t2 = L.one(), L.gen("u"), L.t_var(1)
    x = MPoly.variable(1, 0, one)
    xu = x - MPoly.const(1, u)
    f, g = xu * (x - MPoly.const(1, t2)), xu * (x + MPoly.const(1, one))
    assert gcd(f, g) == xu
    assert_is_gcd(xu, f, g, 0)


@pytest.mark.parametrize("ring", ["qzeta", "L"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_term_gcd_is_the_gcd_with_the_monomial_content(ring, L, data):
    """gcd(m, p) for a one-term m (a constant included) is m's gcd with the
    monomial content of p: the fieldwise-minimum monomial, coefficient 1."""
    if ring == "qzeta":
        n, coeff, one = data.draw(st.integers(1, 4), label="nvars"), MIXED, QZeta(1)
    else:
        n, coeff, one = 2, st.sampled_from(tower_coeffs(L)), L.one()
    e = data.draw(exps(n, 6), label="monomial")
    m = MPoly.monomial(n, e, data.draw(coeff))
    p = MPoly(n, data.draw(st.dictionaries(exps(n, 6), coeff, min_size=1, max_size=4)))
    content = MPoly.monomial(n, p.min_exps(), one)
    want = MPoly.monomial(n, tuple(map(min, e, p.min_exps())), one)
    assert gcd(m, p) == gcd(p, m) == gcd(m, content) == want
    exact_div(m, want)
    exact_div(p, want)
