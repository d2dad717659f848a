"""Exact arithmetic in Q(zeta), zeta a primitive cube root of unity.

An element is stored as integers (a, b, d) standing for (a + b*zeta)/d,
reduced against the minimal polynomial zeta^2 + zeta + 1 = 0, with d > 0
and gcd(a, b, d) = 1: each element has one representation, so equality
compares integers.  Arithmetic works on the integers; a result over the
denominator 1 is not reduced, any other costs one gcd.  The rational
coordinates `re` and `zc` are `Fraction`s made on request.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .multipoly import _power


class QZeta:
    """re + zc*zeta in Q(zeta), built from ints, `Fraction`s or strings and
    held as (a + b*zeta)/d."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, zc=0):
        if type(re) is int and type(zc) is int:
            return _qz(re, zc, 1)
        re, zc = Fraction(re), Fraction(zc)
        d = lcm(re.denominator, zc.denominator)
        return _qz(int(re * d), int(zc * d), d)

    def __setattr__(self, name, value):
        raise AttributeError("QZeta is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def zc(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "QZeta":
        return _ZERO

    @staticmethod
    def one() -> "QZeta":
        return _ONE

    @staticmethod
    def zeta() -> "QZeta":
        return _ZETA

    @staticmethod
    def zeta_pow(k: int) -> "QZeta":
        k %= 3
        if k == 0:
            return _ONE
        if k == 1:
            return _ZETA
        return _qz(-1, -1, 1)  # zeta^2 = -1 - zeta

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == 1 and not self.b and self.d == 1

    def is_rational(self) -> bool:
        return not self.b

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "QZeta") -> "QZeta":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "QZeta") -> "QZeta":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "QZeta":
        return _qz(-self.a, -self.b, self.d)

    def __mul__(self, other: "QZeta") -> "QZeta":
        # (a + b z)(c + e z) = ac + (ae + bc) z + be z^2,  z^2 = -1 - z
        a, b, c, e = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if not b:
            return _reduced(a * c, a * e, d)
        if not e:
            return _reduced(a * c, b * c, d)
        be = b * e
        return _reduced(a * c - be, a * e + b * c - be, d)

    def inverse(self) -> "QZeta":
        a, b, d = self.a, self.b, self.d
        n = a * a - a * b + b * b
        if not n:
            from .errors import ZeroInverse

            raise ZeroInverse("0 has no inverse in Q(zeta)")
        # (a + b z)^-1 = d conj / n, conj = (a - b) - b z, and n > 0
        return _reduced((a - b) * d, -b * d, n)

    def __truediv__(self, other: "QZeta") -> "QZeta":
        return self * other.inverse()

    def __pow__(self, k: int) -> "QZeta":
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k) if k else _ONE

    def conj(self) -> "QZeta":
        """Complex conjugation zeta -> zeta^2."""
        return _qz(self.a - self.b, -self.b, self.d)

    def norm_rational(self) -> Fraction:
        """Norm down to Q: (a^2 - a b + b^2)/d^2."""
        a, b, d = self.a, self.b, self.d
        return Fraction(a * a - a * b + b * b, d * d)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, QZeta) and (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        return hash((self.re, self.zc))

    # -- io ------------------------------------------------------------------

    def __repr__(self) -> str:
        re, zc = self.re, self.zc
        if not zc:
            return str(re)
        if not re:
            return f"{zc}*zeta" if zc != 1 else "zeta"
        sign = "+" if zc > 0 else "-"
        z = abs(zc)
        ztxt = "zeta" if z == 1 else f"{z}*zeta"
        return f"({re} {sign} {ztxt})"

    def to_json(self) -> dict:
        return {"re": str(self.re), "zeta": str(self.zc)}

    @staticmethod
    def from_json(data: dict) -> "QZeta":
        return QZeta(Fraction(data["re"]), Fraction(data["zeta"]))


_set_a, _set_b, _set_d = (QZeta.__dict__[k].__set__ for k in QZeta.__slots__)


def _qz(a: int, b: int, d: int) -> QZeta:
    """(a + b*zeta)/d, for integers that already satisfy the invariant."""
    r = object.__new__(QZeta)
    _set_a(r, a)
    _set_b(r, b)
    _set_d(r, d)
    return r


def _reduced(a: int, b: int, d: int) -> QZeta:
    """(a + b*zeta)/d for d > 0, divided by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _qz(a, b, d)


_ZERO = _qz(0, 0, 1)
_ONE = _qz(1, 0, 1)
_ZETA = _qz(0, 1, 1)


def rational_nth_root(x: Fraction, n: int):
    """Exact n-th root of a rational, or None if no rational root exists."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if x < 0:
        if n % 2 == 0:
            return None
        r = rational_nth_root(-x, n)
        return None if r is None else -r
    pn, qn = x.numerator, x.denominator
    rp = _int_nth_root(pn, n)
    rq = _int_nth_root(qn, n)
    if rp is None or rq is None:
        return None
    return Fraction(rp, rq)


def _int_nth_root(m: int, n: int):
    """The n-th root of the integer m >= 0, or None when m is not an n-th
    power; integer arithmetic only."""
    if m in (0, 1):
        return m
    if n == 2:
        r = isqrt(m)
    else:
        # Newton's method from r >= m^(1/n) decreases to floor(m^(1/n))
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r ** n == m else None


def qzeta_nth_root(x: QZeta, n: int):
    """n-th root of x inside Q(zeta) for n in {2, 3}, or None.

    A returned root is exact, and None proves there is none.  A rational x
    has one only if it is a rational n-th power, or for n = 2 minus 3 times
    a rational square.  For x = (a + b zeta)/d and a root y, c y lies in the
    integrally closed Z[zeta] for every integer c with d | c^n; only 3
    ramifies, so d = 3^k r^n with 3 not dividing r, and c = 3^ceil(k/n) r.
    The norm and trace of (c y)^n leave for the trace of c y the integer
    roots of one polynomial (see below), so no search over norms is made.
    """
    if n not in (2, 3):
        raise ValueError(f"qzeta_nth_root: n = {n} is not 2 or 3")
    if x.is_zero():
        return QZeta.zero()
    if x.is_rational():
        r = rational_nth_root(x.re, n)
        if r is not None:
            return QZeta(r)
        if n == 2 and x.a < 0:
            # sqrt(-3 m^2) = (1 + 2 zeta) m since (1 + 2 zeta)^2 = -3
            r = rational_nth_root(-x.re / 3, 2)
            if r is not None:
                return QZeta(r) * QZeta(1, 2)
        return None
    k, rest = 0, x.d
    while rest % 3 == 0:
        k, rest = k + 1, rest // 3
    r = _int_nth_root(rest, n)
    if r is None:
        return None
    c = 3 ** -(-k // n) * r
    scale = c ** n // x.d
    a, b = x.a * scale, x.b * scale
    m = _int_nth_root(a * a - a * b + b * b, n)
    if m is None:
        return None
    # Y = u + v zeta of norm m has trace s = 2u - v, and 4m = s^2 + 3v^2.
    # Its n-th power has trace 2a - b, which is s^2 - 2m for n = 2 and
    # s^3 - 3ms for n = 3; each integer root s gives v = +-sqrt((4m - s^2)/3)
    # and u = (s + v)/2.  The least root (u, v) is returned.
    target = _qz(a, b, 1)
    trace = 2 * a - b
    if n == 2:
        s = _int_nth_root(trace + 2 * m, 2)  # |2a - b| <= 2 |a + b zeta| = 2m
        traces = () if s is None else {s, -s}
    else:
        traces = _cubic_trace_roots(m, trace)
    roots = []
    for s in traces:
        v2, rest = divmod(4 * m - s * s, 3)
        w = None if rest else _int_nth_root(v2, 2)
        for v in () if w is None else {w, -w}:
            if (s + v) % 2 == 0 and _qz((s + v) // 2, v, 1) ** n == target:
                roots.append(((s + v) // 2, v))
    return _reduced(*min(roots), c) if roots else None


def _cubic_trace_roots(m: int, trace: int) -> list:
    """The integer roots s of s^3 - 3ms = trace with s^2 <= 4m, by bisection
    on the three pieces where the cubic is monotone, split at +-sqrt(m)."""
    r, bound = isqrt(m), isqrt(4 * m)
    out = []
    for lo, hi, sign in ((-bound, -r - 1, 1), (-r, r, -1), (r + 1, bound, 1)):
        # sign * (s^3 - 3ms - trace) increases on [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * (mid ** 3 - 3 * m * mid - trace) < 0:
                lo = mid + 1
            else:
                hi = mid
        if lo == hi and lo ** 3 - 3 * m * lo == trace:
            out.append(lo)
    return out
