"""Conversion layer to sympy, used only to factor polynomials over the base
field K = Q(zeta)(t1..tn).  Everything else in the package is hand-rolled
exact arithmetic; factorization over an algebraic-number function field is
the one genuinely hard primitive worth buying.

It is the base-locus solver's fallback: `birational._univariate_roots`
imports it only for a polynomial of degree above 3, or one whose roots the
radical formulas do not all find (such as a repeated root, or a quadratic
factor without roots in the tower).  The 3-link base loci of the tests and
the benchmark never get here.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.polys.polyerrors import BasePolynomialError

from .errors import BaseLocusNotSplit
from .field_tower import TowerField, _lcm
from .multipoly import MPoly
from .scalars import QZeta

_ZETA_EXPR = sympy.Rational(-1, 2) + sympy.sqrt(3) * sympy.I / 2


def _qzeta_to_expr(c: QZeta):
    # a + b*zeta = (a - b/2) + (b * sqrt(3)/2) i
    a = sympy.Rational(c.re.numerator, c.re.denominator)
    b = sympy.Rational(c.zc.numerator, c.zc.denominator)
    return a + b * _ZETA_EXPR


def _expr_to_qzeta(expr) -> QZeta:
    """The element a + b zeta of Q(zeta) that expr is; raises
    BaseLocusNotSplit when a or b does not simplify to a rational."""
    expr = sympy.expand(expr)
    re = sympy.re(expr)
    im = sympy.im(expr)
    b = sympy.nsimplify(2 * im / sympy.sqrt(3), rational=True)
    a = sympy.nsimplify(re + b / 2, rational=True)
    return QZeta(_rational(a), _rational(b))


def _rational(x) -> Fraction:
    if not x.is_Rational:
        raise BaseLocusNotSplit(f"sympy left a coefficient outside Q(zeta): {x}")
    return Fraction(int(x.p), int(x.q))


def factor_univariate_over_k(p: MPoly, tower: TowerField):
    """Factor a univariate polynomial whose coefficients are base-field tower
    elements into K-irreducible monic factors (over the tower again).
    Raises BaseLocusNotSplit, chained from sympy's error, when sympy fails."""
    nvars = tower.nvars
    coeffs = {e[0]: c.to_base() for e, c in p.tuple_terms().items()}
    den = _lcm((c.den for c in coeffs.values()), tower.unit)
    x = sympy.Symbol("x")
    tsyms = [sympy.Symbol(f"t{i+1}") for i in range(nvars)]
    expr = sympy.Integer(0)
    from .multipoly import exact_div

    for k, c in coeffs.items():
        num = c.nums[()] * exact_div(den, c.den)
        expr += _mpoly_qzeta_to_expr(num, tsyms) * x ** k
    try:
        _, factors = sympy.factor_list(expr, x, *tsyms, extension=[_ZETA_EXPR])
    except (BasePolynomialError, NotImplementedError) as e:
        raise BaseLocusNotSplit(f"sympy could not factor over K: {e}") from e
    out = []
    for fac, mult in factors:
        pf = sympy.Poly(fac, x, *tsyms, domain="EX")
        if pf.degree(x) < 1:
            continue
        mp = _poly_to_univariate(pf, x, tsyms, tower)
        for _ in range(mult):
            out.append(mp)
    if not out:
        return [p]
    return out


def _mpoly_qzeta_to_expr(m: MPoly, tsyms):
    expr = sympy.Integer(0)
    for e, c in m.tuple_terms().items():
        term = _qzeta_to_expr(c)
        for s, k in zip(tsyms, e):
            if k:
                term *= s ** k
        expr += term
    return expr


def _poly_to_univariate(pf, x, tsyms, tower: TowerField) -> MPoly:
    """Convert a sympy Poly in (x, t...) into a monic univariate MPoly whose
    coefficients are tower elements of the base field."""
    nvars = tower.nvars
    by_x: dict = {}
    pd = sympy.Poly(sympy.expand(pf.as_expr()), x, *tsyms, domain="EX")
    dom = pd.domain
    for mono, coeff in pd.terms():
        xdeg = mono[0]
        texps = tuple(mono[1:])
        cexpr = dom.to_sympy(coeff)
        q = _expr_to_qzeta(cexpr)
        if q.is_zero():
            continue
        by_x.setdefault(xdeg, {})[texps] = q
    terms = {}
    for xdeg, tdict in by_x.items():
        terms[(xdeg,)] = tower.from_poly(MPoly(nvars, tdict))
    out = MPoly(1, terms)
    return out.monic()
