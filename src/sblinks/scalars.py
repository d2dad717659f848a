"""Exact arithmetic in Q(zeta), zeta a primitive cube root of unity.

Elements are stored as a + b*zeta with rational a, b, reduced against the
minimal polynomial zeta^2 + zeta + 1 = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class QZeta:
    """An element a + b*zeta of Q(zeta)."""

    __slots__ = ("re", "zc", "_hash")

    def __init__(self, re=0, zc=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "zc", _frac(zc))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("QZeta is immutable")

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
        return QZeta(-1, -1)  # zeta^2 = -1 - zeta

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.zc

    def is_one(self) -> bool:
        return self.re == 1 and not self.zc

    def is_rational(self) -> bool:
        return not self.zc

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "QZeta") -> "QZeta":
        return QZeta(self.re + other.re, self.zc + other.zc)

    def __sub__(self, other: "QZeta") -> "QZeta":
        return QZeta(self.re - other.re, self.zc - other.zc)

    def __neg__(self) -> "QZeta":
        return QZeta(-self.re, -self.zc)

    def __mul__(self, other: "QZeta") -> "QZeta":
        # (a + b z)(c + d z) = ac + (ad + bc) z + bd z^2,  z^2 = -1 - z
        a, b, c, d = self.re, self.zc, other.re, other.zc
        if not b:
            if not d:
                return QZeta(a * c, 0)
            return QZeta(a * c, a * d)
        if not d:
            return QZeta(a * c, b * c)
        bd = b * d
        return QZeta(a * c - bd, a * d + b * c - bd)

    def inverse(self) -> "QZeta":
        n = self.norm_rational()
        if not n:
            from .errors import ZeroInverse

            raise ZeroInverse("0 has no inverse in Q(zeta)")
        # (a + b z)^-1 = conj / norm, conj = (a - b) - b z
        return QZeta((self.re - self.zc) / n, -self.zc / n)

    def __truediv__(self, other: "QZeta") -> "QZeta":
        return self * other.inverse()

    def __pow__(self, k: int) -> "QZeta":
        if k < 0:
            return self.inverse() ** (-k)
        r = _ONE
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def conj(self) -> "QZeta":
        """Complex conjugation zeta -> zeta^2."""
        return QZeta(self.re - self.zc, -self.zc)

    def norm_rational(self) -> Fraction:
        """Norm down to Q: a^2 - a b + b^2."""
        a, b = self.re, self.zc
        return a * a - a * b + b * b

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QZeta)
            and self.re == other.re
            and self.zc == other.zc
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.re, self.zc))
            object.__setattr__(self, "_hash", h)
        return h

    # -- io ------------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.zc:
            return str(self.re)
        if not self.re:
            return f"{self.zc}*zeta" if self.zc != 1 else "zeta"
        sign = "+" if self.zc > 0 else "-"
        z = abs(self.zc)
        ztxt = "zeta" if z == 1 else f"{z}*zeta"
        return f"({self.re} {sign} {ztxt})"

    def to_json(self) -> dict:
        return {"re": str(self.re), "zeta": str(self.zc)}

    @staticmethod
    def from_json(data: dict) -> "QZeta":
        return QZeta(Fraction(data["re"]), Fraction(data["zeta"]))


_ZERO = QZeta(0, 0)
_ONE = QZeta(1, 0)
_ZETA = QZeta(0, 1)


def rational_nth_root(x: Fraction, n: int):
    """Exact n-th root of a rational, or None if no rational root exists."""
    x = _frac(x)
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
        r = math.isqrt(m)
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

    Rational inputs are handled exactly; for mixed a + b*zeta the candidate
    roots are reconstructed from the rational norm, so the answer is exact
    whenever it is returned (a None is "not found in this fragment" for
    mixed elements, but is a proof of non-existence for rational ones only
    up to multiplication by powers of zeta).
    """
    if x.is_zero():
        return QZeta.zero()
    if x.is_rational():
        r = rational_nth_root(x.re, n)
        if r is not None:
            return QZeta(r)
        if n == 2 and x.re < 0:
            # sqrt(-3 m^2) = (1 + 2 zeta) m since (1 + 2 zeta)^2 = -3
            r = rational_nth_root(-x.re / 3, 2)
            if r is not None:
                return QZeta(r) * QZeta(1, 2)
        if n == 3:
            # cube roots may pick up a zeta factor: (zeta^k c)^3 = c^3
            return None
        return None
    # mixed element: norm(root)^n = norm(x)
    nx = x.norm_rational()
    rn = rational_nth_root(nx, n)
    if rn is None:
        return None
    # candidates y = (U + V zeta)/den of norm rn: U^2 - UV + V^2 = num*den,
    # so V = (U +- s)/2 with s^2 = 4 num den - 3 U^2
    den = rn.denominator
    m = 4 * rn.numerator * den
    bound = math.isqrt(m // 3)
    for u in range(-bound, bound + 1):
        s = _int_nth_root(m - 3 * u * u, 2)
        if s is None:
            continue
        for v2 in (u - s, u + s):
            if v2 % 2 == 0:
                y = QZeta(Fraction(u, den), Fraction(v2 // 2, den))
                if y ** n == x:
                    return y
    return None
