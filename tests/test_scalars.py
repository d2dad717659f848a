import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sblinks.scalars import QZeta, qzeta_nth_root, rational_nth_root

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
qzetas = st.builds(QZeta, rationals, rationals)


def test_zeta_minimal_polynomial():
    z = QZeta.zeta()
    assert (z * z + z + QZeta.one()).is_zero()


def test_zeta_powers_cycle():
    z = QZeta.zeta()
    assert z ** 3 == QZeta.one()
    assert QZeta.zeta_pow(2) == z * z
    assert QZeta.zeta_pow(-1) == z * z


@given(qzetas, qzetas, qzetas)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(qzetas)
def test_inverse(a):
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


def test_invert_one_plus_zeta():
    # (1 + zeta)^-1 = -zeta since (1 + zeta)(-zeta) = 1
    a = QZeta.one() + QZeta.zeta()
    assert a.inverse() == -QZeta.zeta()


def test_norm_multiplicative():
    a = QZeta(2, 3)
    b = QZeta(Fraction(-1, 2), 5)
    assert (a * b).norm_rational() == a.norm_rational() * b.norm_rational()


def test_rational_roots():
    assert rational_nth_root(Fraction(8), 3) == 2
    assert rational_nth_root(Fraction(-27), 3) == -3
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(Fraction(2), 2) is None
    assert rational_nth_root(Fraction(7), 3) is None


def test_qzeta_roots():
    assert qzeta_nth_root(QZeta(8), 3) == QZeta(2)
    # sqrt(-3) = 1 + 2 zeta
    r = qzeta_nth_root(QZeta(-3), 2)
    assert r is not None and r * r == QZeta(-3)
    # zeta = (zeta^2)^2 is a square
    r = qzeta_nth_root(QZeta.zeta(), 2)
    assert r is not None and r * r == QZeta.zeta()


def test_nth_root_of_large_rationals():
    """Roots of numbers past the float range (2^1024) are found exactly."""
    assert rational_nth_root(Fraction(7 ** 999), 3) == 7 ** 333
    assert rational_nth_root(Fraction(-(7 ** 999), 11 ** 600), 3) == Fraction(
        -(7 ** 333), 11 ** 200
    )
    assert rational_nth_root(Fraction(3 ** 1300, 5 ** 700), 2) == Fraction(
        3 ** 650, 5 ** 350
    )
    assert rational_nth_root(Fraction(7 ** 999 + 1), 3) is None
    assert rational_nth_root(Fraction(7 ** 1000), 3) is None
    assert rational_nth_root(Fraction(3 ** 1301), 2) is None


def test_qzeta_roots_of_mixed_elements():
    """Roots with coordinates past 2 are found; a non-power gives None."""
    for base, n in ((QZeta(3, 5), 2), (QZeta(7, -4), 2), (QZeta(3, 5), 3)):
        x = base ** n
        r = qzeta_nth_root(x, n)
        assert r is not None and r ** n == x
    # a = 3 + 5 zeta and its conjugate are non-associate primes of norm 19,
    # and -1 is not a square: each x below has a norm that is an n-th power
    a = QZeta(3, 5)
    a_bar = QZeta(-2, -5)
    assert a_bar.norm_rational() == a.norm_rational() == 19
    assert qzeta_nth_root(-(a ** 2), 2) is None
    assert qzeta_nth_root(a ** 3 * a_bar, 2) is None
    assert qzeta_nth_root(a ** 2 * a_bar, 3) is None


def test_qzeta_roots_with_denominators():
    """A root need not have the denominator of its norm: y = (3 + zeta) /
    (3 + zeta^2) = (8 + 5 zeta)/7 has norm 1."""
    y = QZeta(3, 1) / QZeta(3, 1).conj()
    assert y == QZeta(Fraction(8, 7), Fraction(5, 7))
    assert y.norm_rational() == 1
    for n in (2, 3):
        r = qzeta_nth_root(y ** n, n)
        assert r is not None and r ** n == y ** n


def test_qzeta_roots_of_seeded_powers():
    """Every n-th power y^n, n in {2, 3}, of a seeded y has a root found."""
    rng = random.Random(20240611)

    def coordinate():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    for _ in range(300):
        y = QZeta(coordinate(), coordinate())
        if y.is_zero():
            continue
        if rng.random() < 0.3:
            y = y / y.conj()  # norm 1, denominator the norm of y
        n = rng.choice((2, 3))
        r = qzeta_nth_root(y ** n, n)
        assert r is not None and r ** n == y ** n, (y, n)


def _brute_nth_root(x, n):
    """The least root (u + v zeta)/c of x by (u, v), searched over every
    u + v zeta of norm m: the reference for `qzeta_nth_root` on a mixed x,
    with the same c and m."""
    k, rest = 0, x.d
    while rest % 3 == 0:
        k, rest = k + 1, rest // 3
    r = round(rest ** (1 / n))
    if r ** n != rest:
        return None
    c = 3 ** -(-k // n) * r
    y = x * QZeta(c ** n)
    norm = y.norm_rational()
    m = round(float(norm) ** (1 / n))
    if m ** n != norm:
        return None
    bound = math.isqrt(4 * m // 3)
    for u in range(-bound, bound + 1):
        for v in range(-bound, bound + 1):
            if u * u - u * v + v * v == m and QZeta(u, v) ** n == y:
                return QZeta(Fraction(u, c), Fraction(v, c))
    return None


def test_qzeta_roots_match_the_search():
    """Every mixed x = (a + b zeta)/d and x^n, n in {2, 3}, for a, b in
    [-9, 9] and seven denominators: the root (or None) of the search."""
    for n in (2, 3):
        for d in (1, 2, 3, 4, 8, 9, 27):
            for a in range(-9, 10):
                for b in range(-9, 10):
                    x = QZeta(Fraction(a, d), Fraction(b, d))
                    for y in (x, x ** n):
                        if y.is_rational():
                            continue  # rationals take another path
                        got, want = qzeta_nth_root(y, n), _brute_nth_root(y, n)
                        assert got == want, (y, n, got, want)


def test_qzeta_roots_without_a_search():
    """pi = 3000 + 5017 zeta has norm 19119289: the non-powers below have
    norms that are n-th powers, and a search over the elements of that norm
    tried about sqrt(4m/3) of them."""
    pi = QZeta(3000, 5017)
    assert pi.norm_rational() == 19119289
    assert qzeta_nth_root(pi ** 3 * pi.conj(), 2) is None
    assert qzeta_nth_root(pi ** 2 * pi.conj(), 3) is None
    # the least of the roots +-pi, and of pi zeta^k
    assert qzeta_nth_root(pi ** 2, 2) == -pi
    roots = [pi * QZeta.zeta_pow(k) for k in range(3)]
    assert qzeta_nth_root(pi ** 3, 3) == min(roots, key=lambda y: (y.a, y.b))


def test_qzeta_roots_refuse_other_exponents():
    """Only n = 2 and n = 3 are solved: (2 + zeta)^4 = 9 zeta has a fourth
    root, which the trace equations of n = 2 and n = 3 do not see."""
    assert QZeta(2, 1) ** 4 == QZeta(0, 9)
    for n in (1, 4, 6):
        with pytest.raises(ValueError, match="is not 2 or 3"):
            qzeta_nth_root(QZeta(0, 9), n)


class _TwoFractions:
    """Reference for QZeta: a + b*zeta held as two Fractions a, b."""

    def __init__(self, re, zc):
        self.re, self.zc = Fraction(re), Fraction(zc)

    def __add__(self, other):
        return _TwoFractions(self.re + other.re, self.zc + other.zc)

    def __sub__(self, other):
        return _TwoFractions(self.re - other.re, self.zc - other.zc)

    def __mul__(self, other):
        a, b, c, d = self.re, self.zc, other.re, other.zc
        return _TwoFractions(a * c - b * d, a * d + b * c - b * d)

    def inverse(self):
        a, b = self.re, self.zc
        n = a * a - a * b + b * b
        return _TwoFractions((a - b) / n, -b / n)

    def __pow__(self, k):
        base = self.inverse() if k < 0 else self
        r = _TwoFractions(1, 0)
        for _ in range(abs(k)):
            r = r * base
        return r

    def __repr__(self):
        if not self.zc:
            return str(self.re)
        if not self.re:
            return f"{self.zc}*zeta" if self.zc != 1 else "zeta"
        sign = "+" if self.zc > 0 else "-"
        z = abs(self.zc)
        ztxt = "zeta" if z == 1 else f"{z}*zeta"
        return f"({self.re} {sign} {ztxt})"


wide_rationals = st.fractions(min_value=-200, max_value=200, max_denominator=60)


def _assert_matches(x, ref):
    assert (x.re, x.zc) == (ref.re, ref.zc)
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert x == QZeta(ref.re, ref.zc)
    assert hash(x) == hash((ref.re, ref.zc))
    assert repr(x) == repr(ref)


@given(wide_rationals, wide_rationals, wide_rationals, wide_rationals)
def test_arithmetic_matches_two_fraction_reference(p, q, r, s):
    x, y = QZeta(p, q), QZeta(r, s)
    rx, ry = _TwoFractions(p, q), _TwoFractions(r, s)
    _assert_matches(x, rx)
    _assert_matches(x + y, rx + ry)
    _assert_matches(x - y, rx - ry)
    _assert_matches(x - x, rx - rx)
    _assert_matches(-x, _TwoFractions(-p, -q))
    _assert_matches(x * y, rx * ry)
    _assert_matches(x.conj(), _TwoFractions(p - q, -q))
    assert x.norm_rational() == p * p - p * q + q * q
    assert (x == y) == ((p, q) == (r, s))
    assert x + y - y == x and hash(x + y - y) == hash(x)
    if not x.is_zero():
        _assert_matches(x.inverse(), rx.inverse())
        _assert_matches(y / x, ry * rx.inverse())


@given(wide_rationals, wide_rationals, st.integers(-5, 5))
def test_powers_match_two_fraction_reference(p, q, k):
    x = QZeta(p, q)
    if k < 0 and x.is_zero():
        return
    _assert_matches(x ** k, _TwoFractions(p, q) ** k)


@given(wide_rationals, wide_rationals)
def test_construction_and_json_round_trip(p, q):
    x = QZeta(p, q)
    assert x.to_json() == {"re": str(p), "zeta": str(q)}
    assert QZeta.from_json(x.to_json()) == x
    assert QZeta(str(p), str(q)) == x
    if p.denominator == q.denominator == 1:
        assert QZeta(p.numerator, q.numerator) == x
        assert QZeta(p.numerator, q.numerator).d == 1


@given(wide_rationals, wide_rationals)
def test_qzeta_is_immutable(p, q):
    x = QZeta(p, q)
    for name in ("a", "b", "d", "re", "zc", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert (x.re, x.zc) == (p, q)
