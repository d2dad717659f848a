from fractions import Fraction

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
