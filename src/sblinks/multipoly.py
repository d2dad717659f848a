"""Sparse multivariate polynomials over an exact coefficient field.

The coefficient type must provide +, -, *, unary -, .inverse(), .is_zero(),
.one(), equality and hashing.  Both scalar levels of the library (Q(zeta)
and tower field elements) satisfy this, so one engine serves the t-variable
layer and the projective x,y,z(,w) layer.

Monomials are exponent tuples; the canonical order is graded lexicographic
with the first variable largest, which fixes leading terms, monic
normalisation and hence representation-level equality.
"""

from __future__ import annotations


def grlex_key(exps):
    return (sum(exps), exps)


class MPoly:
    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = terms
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        if c.is_zero():
            return MPoly(nvars, {})
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int, one) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): one})

    @staticmethod
    def monomial(nvars: int, exps, c) -> "MPoly":
        if c.is_zero():
            return MPoly(nvars, {})
        return MPoly(nvars, {tuple(exps): c})

    def map_coeffs(self, fn) -> "MPoly":
        terms = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                terms[e] = v
        return MPoly(self.nvars, terms)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def const_coeff(self):
        """Coefficient of the constant monomial (requires is_const or explicit use)."""
        return self.terms.get((0,) * self.nvars)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def deg_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def weighted_degree(self, weights) -> int:
        if not self.terms:
            return -1
        return max(sum(w * x for w, x in zip(weights, e)) for e in self.terms)

    def leading(self):
        """(exponent, coeff) of the grlex-leading term."""
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def lc(self):
        return self.leading()[1]

    def some_coeff(self):
        return next(iter(self.terms.values()))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                v = terms[e] + c
                if v.is_zero():
                    del terms[e]
                else:
                    terms[e] = v
            else:
                terms[e] = c
        return MPoly(self.nvars, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        if not self.terms or not other.terms:
            return MPoly.zero(self.nvars)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = ca * cb
                if e in terms:
                    v = terms[e] + v
                if v.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = v
        return MPoly(self.nvars, terms)

    def scale(self, c) -> "MPoly":
        if c.is_zero():
            return MPoly.zero(self.nvars)
        return MPoly(self.nvars, {e: k * c for e, k in self.terms.items()})

    def mul_monomial(self, exps, c) -> "MPoly":
        if c.is_zero():
            return MPoly.zero(self.nvars)
        return MPoly(
            self.nvars,
            {tuple(x + y for x, y in zip(e, exps)): k * c for e, k in self.terms.items()},
        )

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            c = self.some_coeff() if self.terms else None
            if c is None:
                raise ValueError("0^0 of polynomials without coefficient context")
            return MPoly.const(self.nvars, c.one())
        return _power(self, k)

    def derivative(self, i: int) -> "MPoly":
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            cf = _int_scale(c, e[i])
            if cf.is_zero():
                continue
            ee = list(e)
            ee[i] -= 1
            terms[tuple(ee)] = cf
        return MPoly(self.nvars, terms)

    # -- normalisation ------------------------------------------------

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        return self.scale(self.lc().inverse())

    def min_exps(self):
        it = iter(self.terms)
        m = list(next(it))
        for e in it:
            for i, x in enumerate(e):
                if x < m[i]:
                    m[i] = x
        return tuple(m)

    def shift_down(self, exps) -> "MPoly":
        """Divide by the monomial with the given exponents (must divide)."""
        return MPoly(
            self.nvars,
            {tuple(x - y for x, y in zip(e, exps)): c for e, c in self.terms.items()},
        )

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"t{i+1}^{k}" if k > 1 else f"t{i+1}" for i, k in enumerate(e) if k
            )
            bits.append(f"({c!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- substitution and evaluation --------------------------------------------

    def subst(self, values: list) -> "MPoly":
        """Substitute values[i] (an MPoly) for variable i."""
        if not self.terms:
            return MPoly.zero(values[0].nvars if values else self.nvars)
        nv = values[0].nvars
        pow_cache = [dict() for _ in range(self.nvars)]
        out = MPoly.zero(nv)
        for e, c in self.terms.items():
            piece = MPoly.const(nv, c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                cache = pow_cache[i]
                if k not in cache:
                    cache[k] = values[i] ** k
                piece = piece * cache[k]
            out = out + piece
        return out

    def eval(self, values: list):
        """Evaluate at coefficient-type values."""
        if not self.terms:
            raise ValueError("evaluating the zero polynomial needs a zero context")
        acc = None
        pow_cache = [dict() for _ in range(self.nvars)]
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                cache = pow_cache[i]
                if k not in cache:
                    cache[k] = _power(values[i], k)
                v = v * cache[k]
            acc = v if acc is None else acc + v
        return acc

    def eval_zero_ok(self, values: list, zero):
        return zero if self.is_zero() else self.eval(values)


def _int_scale(c, n: int):
    """n * c for a positive integer n."""
    r = None
    b = c
    while n:
        if n & 1:
            r = b if r is None else r + b
        n >>= 1
        if n:
            b = b + b
    return r


def _power(b, k: int):
    """b^k for a positive integer k, by repeated squaring; b may be any
    type with an associative *."""
    r = None
    while k:
        if k & 1:
            r = b if r is None else r * b
        k >>= 1
        if k:
            b = b * b
    return r


# ---------------------------------------------------------------------------
# division


class NotDivisible(ArithmeticError):
    pass


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    """Exact division f / g; raises NotDivisible when the remainder is nonzero."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    ge, gc = g.leading()
    gci = gc.inverse()
    rem = f
    q: dict = {}
    while not rem.is_zero():
        re, rc = rem.leading()
        de = tuple(x - y for x, y in zip(re, ge))
        if any(x < 0 for x in de):
            raise NotDivisible(f"{g!r} does not divide {f!r}")
        qc = rc * gci
        q[de] = qc
        rem = rem - g.mul_monomial(de, qc)
    return MPoly(f.nvars, q)


def try_div(f: MPoly, g: MPoly):
    try:
        return exact_div(f, g)
    except NotDivisible:
        return None


def mod_reduce(f: MPoly, d: MPoly, lead_exp) -> MPoly:
    """Reduce f modulo the single relation d, whose designated leading
    monomial lead_exp must strictly dominate the remaining support of d in
    every chain of reductions (true for w^3 against a cubic in w,x,y,z)."""
    lc = d.terms[lead_exp]
    tail = MPoly(d.nvars, {e: c for e, c in d.terms.items() if e != lead_exp})
    lci = lc.inverse()
    cur = f
    while True:
        hit = None
        for e in cur.terms:
            if all(x >= y for x, y in zip(e, lead_exp)):
                hit = e
                break
        if hit is None:
            return cur
        c = cur.terms[hit]
        de = tuple(x - y for x, y in zip(hit, lead_exp))
        k = c * lci
        # replace c * x^hit by -k * tail * x^de
        cur = MPoly(
            cur.nvars, {e: cc for e, cc in cur.terms.items() if e != hit}
        ) - tail.mul_monomial(de, k)


# ---------------------------------------------------------------------------
# gcd machinery (primitive pseudo-remainder sequences)


def _coeffs_in(f: MPoly, v: int):
    """Coefficients of f as a univariate polynomial in variable v.

    Returns a dict {power: MPoly with v-degree 0}.
    """
    out: dict = {}
    for e, c in f.terms.items():
        ee = list(e)
        ee[v] = 0
        out.setdefault(e[v], {})[tuple(ee)] = c
    return {k: MPoly(f.nvars, t) for k, t in out.items()}


def lc_in(f: MPoly, v: int) -> MPoly:
    d = f.deg_in(v)
    terms = {}
    for e, c in f.terms.items():
        if e[v] == d:
            ee = list(e)
            ee[v] = 0
            terms[tuple(ee)] = c
    return MPoly(f.nvars, terms)


def prem(f: MPoly, g: MPoly, v: int) -> MPoly:
    """Pseudo-remainder of f by g with respect to variable v."""
    dg = g.deg_in(v)
    lg = lc_in(g, v)
    one = g.some_coeff().one()
    r = f
    while not r.is_zero():
        dr = r.deg_in(v)
        if dr < dg:
            break
        lr = lc_in(r, v)
        shift = [0] * f.nvars
        shift[v] = dr - dg
        r = r * lg - (g * lr).mul_monomial(tuple(shift), one)
    return r


def content_in(f: MPoly, v: int) -> MPoly:
    cs = sorted(_coeffs_in(f, v).values(), key=lambda p: (len(p.terms), p.total_degree()))
    g = cs[0]
    for c in cs[1:]:
        g = gcd(g, c)
        if g.is_const():
            break
    return g


def primitive_in(f: MPoly, v: int):
    """Content and primitive part; constant contents are left unscaled (the
    gcd driver normalises once at the end, keeping field inversions rare)."""
    c = content_in(f, v)
    if c.is_const():
        return MPoly.const(f.nvars, c.const_coeff().one()), f
    return c, exact_div(f, c)


def gcd(f: MPoly, g: MPoly) -> MPoly:
    """Monic gcd over a coefficient field."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_const() or g.is_const():
        return MPoly.const(f.nvars, f.some_coeff().one())

    # strip common monomial content
    ef = f.min_exps()
    eg = g.min_exps()
    common = tuple(min(a, b) for a, b in zip(ef, eg))
    if any(ef):
        f = f.shift_down(ef)
    if any(eg):
        g = g.shift_down(eg)

    if len(f.terms) == 1 or len(g.terms) == 1:
        base = MPoly.monomial(f.nvars, common, f.some_coeff().one())
        return base

    # main variable: first with positive degree in either operand
    v = None
    for i in range(f.nvars):
        if f.deg_in(i) > 0 or g.deg_in(i) > 0:
            v = i
            break
    if v is None:  # both constants after stripping (cannot happen)
        return MPoly.monomial(f.nvars, common, f.some_coeff().one())

    df, dg = f.deg_in(v), g.deg_in(v)
    if df == 0 or dg == 0:
        if df == 0:
            small, big = f, g
        else:
            small, big = g, f
        c = content_in(big, v)
        r = gcd(small, c)
        return r.mul_monomial(common, r.some_coeff().one()).monic()

    cf, pf = primitive_in(f, v)
    cg, pg = primitive_in(g, v)
    c = gcd(cf, cg)

    # per-step monic rescaling keeps the coefficient field elements small
    a, b = (pf, pg) if df >= dg else (pg, pf)
    a = a.monic()
    b = b.monic()
    while not b.is_zero():
        r = prem(a, b, v)
        if r.is_zero():
            a = b
            break
        _, r = primitive_in(r, v)
        a, b = b, r.monic()
    out = (c * a).mul_monomial(common, a.some_coeff().one())
    return out.monic()


def gcd_many(polys) -> MPoly:
    ordered = sorted(polys, key=lambda p: (len(p.terms), p.total_degree()))
    g = ordered[0]
    for p in ordered[1:]:
        g = gcd(g, p)
        if g.is_const() and not g.is_zero():
            break
    return g


def gcd_many_homogeneous(polys) -> MPoly:
    """gcd of homogeneous polynomials in their last variable count, computed
    by stripping monomial content and dehomogenising the last variable."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ValueError("gcd of no polynomials")
    nv = polys[0].nvars
    mins = [p.min_exps() for p in polys]
    common = tuple(min(m[i] for m in mins) for i in range(nv))
    stripped = [p.shift_down(p.min_exps()) for p in polys]
    one = polys[0].some_coeff().one()
    values = [MPoly.variable(nv - 1, i, one) for i in range(nv - 1)]
    values.append(MPoly.const(nv - 1, one))
    dehom = [p.subst(values) for p in stripped]
    g = gcd_many(dehom)
    # rehomogenise to the gcd's own degree
    d = g.total_degree()
    terms = {}
    for e, c in g.terms.items():
        terms[e + (d - sum(e),)] = c
    out = MPoly(nv, terms)
    return out.mul_monomial(common, one).monic()


# ---------------------------------------------------------------------------
# squarefree structure (Musser, characteristic zero)


def squarefree_part(f: MPoly) -> MPoly:
    d = f
    for i in range(f.nvars):
        if f.deg_in(i) > 0:
            d = gcd(d, f.derivative(i))
            if d.is_const():
                return f.monic()
    return exact_div(f.monic(), d).monic()


def _deriv_gcd(f: MPoly) -> MPoly:
    g = None
    for i in range(f.nvars):
        if f.deg_in(i) > 0:
            di = f.derivative(i)
            g = di if g is None else gcd(g, di)
            if g.is_const():
                break
    return gcd(f, g) if g is not None else f.monic()


def squarefree_decomposition(f: MPoly):
    """Return (constant, [(g_i, i), ...]) with f = constant * prod g_i^i,
    the g_i monic squarefree and pairwise coprime."""
    if f.is_zero():
        raise ValueError("squarefree decomposition of 0")
    if f.is_const():
        return f.const_coeff(), []
    parts = []
    c = _deriv_gcd(f)  # prod g_i^(i-1)
    w = exact_div(f.monic(), c).monic()  # prod g_i
    i = 1
    while w.total_degree() > 0:
        y = gcd(w, c)
        z = exact_div(w, y).monic()
        if z.total_degree() > 0:
            parts.append((z, i))
        w = y
        c = exact_div(c, y).monic() if not y.is_const() else c.monic()
        i += 1
    rebuilt = None
    for g, k in parts:
        p = g ** k
        rebuilt = p if rebuilt is None else rebuilt * p
    if rebuilt is None:
        const = f.const_coeff() if f.is_const() else f.lc()
        return const, parts
    const = exact_div(f, rebuilt)
    if not const.is_const():  # pragma: no cover - defensive
        raise ArithmeticError("squarefree decomposition failed to rebuild")
    return const.const_coeff(), parts


# ---------------------------------------------------------------------------
# resultants (Bareiss fraction-free determinant of the Sylvester matrix)


def sylvester(f: MPoly, g: MPoly, v: int):
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


def bareiss_det(rows):
    """Fraction-free determinant of a square matrix of MPoly entries."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    m = [row[:] for row in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    pivot = i
                    break
            if pivot is None:
                return MPoly.zero(rows[0][0].nvars)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else exact_div(num, prev)
            m[i][k] = MPoly.zero(rows[0][0].nvars)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(f: MPoly, g: MPoly, v: int) -> MPoly:
    if f.deg_in(v) <= 0 or g.deg_in(v) <= 0:
        raise ValueError("resultant needs positive degree in the chosen variable")
    return bareiss_det(sylvester(f, g, v))
