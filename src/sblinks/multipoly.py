"""Sparse multivariate polynomials over an exact coefficient field.

The coefficient type must provide +, -, *, unary -, .inverse(), .is_zero(),
.is_one(), .one(), equality and hashing.  Both scalar levels of the library
(Q(zeta) and tower field elements) satisfy this, so one engine serves the
t-variable layer and the projective x,y,z(,w) layer.

Each monomial is stored as one packed integer, the key of `MPoly.terms`.
For n variables with exponents (e_1, ..., e_n) and total degree d,

    key = d << 16n | e_1 << 16(n-1) | ... | e_(n-1) << 16 | e_n,

sixteen bits per field, the first variable most significant and the total
degree in a field above them all.  Every field stays below 2^15, so integer
order on keys is the canonical order, graded lexicographic with the first
variable largest: it compares d first, then e_1, e_2, ...  That order fixes
leading terms, monic normalisation and hence representation-level equality.

A product of monomials is one integer addition and a quotient one
subtraction, since no field can carry into the next.  The top bit of each
field is a guard: with G the mask of the guard bits, a divides b exactly
when ((b | G) - a) & G == G, because a field of b | G borrows out of its
guard only when that field of a is larger.  Total degrees of 2^15 or more
would reach a guard bit, so packing such an exponent vector, or a product
whose total degree reaches 2^15, raises OverflowError; nothing wraps.

The public surface speaks exponent tuples: the constructor
`MPoly(nvars, {exps: c})`, `monomial`, `leading`, `min_exps`,
`shift_down`, `mul_monomial`, `mod_reduce`'s lead, `sorted_terms()` and
`tuple_terms()`.
"""

from __future__ import annotations

from operator import itemgetter

_BITS = 16
_MASK = (1 << _BITS) - 1
_BOUND = 1 << (_BITS - 1)  # exponents and total degrees stay below this


def _pack(nvars: int, exps) -> int:
    if len(exps) != nvars:
        raise ValueError(f"monomial {tuple(exps)} does not have {nvars} exponents")
    key = deg = 0
    for x in exps:
        if x < 0:
            raise ValueError(f"negative exponent in monomial {tuple(exps)}")
        key = key << _BITS | x
        deg += x
    if deg >= _BOUND:
        raise OverflowError(f"monomial {tuple(exps)} has total degree >= 2^15")
    return deg << (_BITS * nvars) | key


def _unpack(nvars: int, key: int) -> tuple:
    return tuple(key >> (_BITS * i) & _MASK for i in range(nvars - 1, -1, -1))


def _var_key(nvars: int, i: int, k: int) -> int:
    """The key of the monomial (variable i)^k."""
    return k << (_BITS * nvars) | k << (_BITS * (nvars - 1 - i))


def _guard(nvars: int) -> int:
    """The mask of the top bit of every field, the degree field included."""
    return ((1 << (_BITS * (nvars + 1))) - 1) // _MASK << (_BITS - 1)


def _min_key(nvars: int, keys) -> int:
    """The key of the fieldwise minimum of the monomials with the given
    (nonempty) keys."""
    if 0 in keys:
        return 0
    out = deg = 0
    for f in range(nvars):
        s = _BITS * f
        x = min(k >> s & _MASK for k in keys)
        out |= x << s
        deg += x
    return deg << (_BITS * nvars) | out


def _check_degree(d: int):
    if d >= _BOUND:
        raise OverflowError(f"product of total degree {d} >= 2^15")


_new = object.__new__


def _poly(nvars: int, terms: dict) -> "MPoly":
    """The polynomial with the given packed terms, taken as they are."""
    p = _new(MPoly)
    p.nvars = nvars
    p.terms = terms
    p._hash = None
    return p


class MPoly:
    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict):
        """A polynomial from {exponent tuple: nonzero coefficient}."""
        self.nvars = nvars
        self.terms = {_pack(nvars, e): c for e, c in terms.items()}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return _poly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        if c.is_zero():
            return _poly(nvars, {})
        return _poly(nvars, {0: c})

    @staticmethod
    def variable(nvars: int, i: int, one) -> "MPoly":
        return _poly(nvars, {_var_key(nvars, i, 1): one})

    @staticmethod
    def monomial(nvars: int, exps, c) -> "MPoly":
        if c.is_zero():
            return _poly(nvars, {})
        return _poly(nvars, {_pack(nvars, exps): c})

    def map_coeffs(self, fn) -> "MPoly":
        terms = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                terms[e] = v
        return _poly(self.nvars, terms)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not any(self.terms)

    def const_coeff(self):
        """Coefficient of the constant monomial (requires is_const or explicit use)."""
        return self.terms.get(0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.terms) >> (_BITS * self.nvars)

    def deg_in(self, i: int) -> int:
        if not self.terms:
            return -1
        s = _BITS * (self.nvars - 1 - i)
        return max(e >> s & _MASK for e in self.terms)

    def weighted_degree(self, weights) -> int:
        if not self.terms:
            return -1
        n = self.nvars
        return max(
            sum(w * x for w, x in zip(weights, _unpack(n, e))) for e in self.terms
        )

    def leading(self):
        """(exponent tuple, coeff) of the grlex-leading term."""
        e = max(self.terms)
        return _unpack(self.nvars, e), self.terms[e]

    def lc(self):
        return self.terms[max(self.terms)]

    def some_coeff(self):
        return next(iter(self.terms.values()))

    def tuple_terms(self) -> dict:
        """The terms as {exponent tuple: coeff}, in the order of `terms`."""
        n = self.nvars
        return {_unpack(n, e): c for e, c in self.terms.items()}

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
        return _poly(self.nvars, terms)

    def __neg__(self) -> "MPoly":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return MPoly.zero(self.nvars)
        # the leading keys add without a carry, so this is the product's degree
        _check_degree((max(a) + max(b)) >> (_BITS * self.nvars))
        if len(a) > len(b):
            a, b, other = b, a, self
        if len(a) == 1 and 0 in a and a[0].is_one():
            return other  # the factor whose terms are b
        terms: dict = {}
        get = terms.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = ca * cb
                old = get(e)
                if old is None:
                    terms[e] = v  # a product of nonzero field elements
                    continue
                v = old + v
                if v.is_zero():
                    del terms[e]
                else:
                    terms[e] = v
        return _poly(self.nvars, terms)

    def scale(self, c) -> "MPoly":
        if c.is_zero():
            return MPoly.zero(self.nvars)
        if c.is_one():
            return self
        return _poly(self.nvars, {e: k * c for e, k in self.terms.items()})

    def mul_monomial(self, exps, c) -> "MPoly":
        return self._mul_key(_pack(self.nvars, exps), c)

    def _mul_key(self, m: int, c) -> "MPoly":
        """c times the monomial with key m times self."""
        if c.is_zero():
            return MPoly.zero(self.nvars)
        if self.terms:
            _check_degree(self.total_degree() + (m >> (_BITS * self.nvars)))
        return _poly(self.nvars, {e + m: k * c for e, k in self.terms.items()})

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
        s = _BITS * (self.nvars - 1 - i)
        step = _var_key(self.nvars, i, 1)
        terms = {}
        for e, c in self.terms.items():
            k = e >> s & _MASK
            if k == 0:
                continue
            cf = _int_scale(c, k)
            if cf.is_zero():
                continue
            terms[e - step] = cf
        return _poly(self.nvars, terms)

    # -- normalisation ------------------------------------------------

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        lc = self.lc()
        return self if lc.is_one() else self.scale(lc.inverse())

    def min_exps(self):
        return _unpack(self.nvars, _min_key(self.nvars, self.terms))

    def shift_down(self, exps) -> "MPoly":
        """Divide by the monomial with the given exponents (must divide)."""
        return self._div_key(_pack(self.nvars, exps))

    def _div_key(self, m: int) -> "MPoly":
        """self divided by the monomial with key m, which divides every term."""
        return _poly(self.nvars, {e - m: c for e, c in self.terms.items()})

    def _shift_key(self, m: int) -> "MPoly":
        """self times the monomial with key m: the terms re-keyed, no
        coefficient touched."""
        if not m or not self.terms:
            return self
        _check_degree(self.total_degree() + (m >> (_BITS * self.nvars)))
        return _poly(self.nvars, {e + m: c for e, c in self.terms.items()})

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        """(exponent tuple, coeff) pairs, grlex-leading first."""
        n = self.nvars
        return [
            (_unpack(n, e), c)
            for e, c in sorted(self.terms.items(), key=itemgetter(0), reverse=True)
        ]

    def __repr__(self):
        return self.terms_str([f"t{i+1}" for i in range(self.nvars)])

    def terms_str(self, names) -> str:
        """The terms as "(c)*x^2*y + ...", grlex-leading first, variable i
        printed as names[i]."""
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k
            )
            bits.append(f"({c!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- substitution and evaluation --------------------------------------------

    def subst(self, values: list) -> "MPoly":
        """Substitute values[i] (an MPoly) for variable i, by the nested
        Horner walk of `_horner`: in variable 0 outermost, then 1, and so on.

        A coefficient type may offer `free_subst(f, values)`, the same
        substitution by the same walk over another form of its ring, or None
        when it does not apply.  Tower elements do: without t-denominators
        the walk runs on integer pairs with the radicals free, folded once at
        the end (see `field_tower`)."""
        if not self.terms:
            return MPoly.zero(values[0].nvars if values else self.nvars)
        free = getattr(self.some_coeff(), "free_subst", None)
        if free is not None:
            out = free(self, values)
            if out is not None:
                return out
        nv = values[0].nvars
        return _horner(self, values, lambda c: _poly(nv, {0: c}))

    def eval(self, values: list):
        """Evaluate at coefficient-type values, by the walk of `subst`."""
        if not self.terms:
            raise ValueError("evaluating the zero polynomial needs a zero context")
        return _horner(self, values, lambda c: c)

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


def _horner(f: MPoly, values, lift):
    """The sum over the terms c x^e of f of lift(c) * prod values[i]^e_i,
    for nonzero f, by nested Horner.  The terms are grouped by their
    exponent of variable 0, taken from the highest down; each group's
    coefficient, a polynomial in the later variables, is walked alike, and

        acc <- acc * values[0]^(k - k') + (group of exponent k'),

    with a last factor values[0]^k for the lowest exponent k.  A gap k in
    one variable's exponents costs one power values[i]^k, and the powers
    of each value are built once per call, each from the one below.  So a
    product is an accumulator times a power of one value, not a product of
    powers per term as in the direct sum."""
    n = f.nvars
    low = (1 << (_BITS * n)) - 1  # the exponent fields, lexicographic
    items = sorted([(e & low, c) for e, c in f.terms.items()], key=itemgetter(0), reverse=True)
    powers = [[v] for v in values]  # powers[i][k - 1] = values[i]^k

    def power(i, k):
        ps = powers[i]
        while len(ps) < k:
            ps.append(ps[-1] * ps[0])
        return ps[k - 1]

    def walk(lo, hi, i):
        # items[lo:hi] share their exponents of the variables before i
        if i == n:  # one term: the keys are distinct
            return lift(items[lo][1])
        s = _BITS * (n - 1 - i)
        acc = None
        j = lo
        while j < hi:
            k = items[j][0] >> s & _MASK
            end = j + 1
            while end < hi and items[end][0] >> s & _MASK == k:
                end += 1
            inner = walk(j, end, i + 1)
            acc = inner if acc is None else acc * power(i, prev - k) + inner
            prev = k
            j = end
        return acc * power(i, prev) if prev else acc

    return walk(0, len(items), 0)


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
    nv = f.nvars
    guard = _guard(nv)
    ge = max(g.terms)
    lead = g.terms[ge]
    gci = None if lead.is_one() else lead.inverse()
    tail = [(e, k) for e, k in g.terms.items() if e != ge]
    rem = dict(f.terms)
    q: dict = {}
    while rem:
        re = max(rem)
        if ((re | guard) - ge) & guard != guard:
            raise NotDivisible(f"{g!r} does not divide {f!r}")
        de = re - ge
        qc = rem.pop(re)
        if gci is not None:
            qc = qc * gci
        q[de] = qc
        # rem minus the quotient term times g, in place: the leading terms
        # cancel, and no other term of the product passes re in degree
        for e, k in tail:
            e += de
            v = -(k * qc)
            old = rem.get(e)
            if old is None:
                rem[e] = v
                continue
            v = old + v
            if v.is_zero():
                del rem[e]
            else:
                rem[e] = v
    return _poly(nv, q)


def try_div(f: MPoly, g: MPoly):
    try:
        return exact_div(f, g)
    except NotDivisible:
        return None


def mod_reduce(f: MPoly, d: MPoly, lead_exp) -> MPoly:
    """Reduce f modulo the single relation d, whose designated leading
    monomial lead_exp must strictly dominate the remaining support of d in
    every chain of reductions (true for w^3 against a cubic in w,x,y,z)."""
    nv = d.nvars
    lead = _pack(nv, lead_exp)
    guard = _guard(nv)
    lc = d.terms[lead]
    tail = _poly(nv, {e: c for e, c in d.terms.items() if e != lead})
    lci = lc.inverse()
    cur = f
    while True:
        hit = None
        for e in cur.terms:
            if ((e | guard) - lead) & guard == guard:
                hit = e
                break
        if hit is None:
            return cur
        k = cur.terms[hit] * lci
        # replace c * x^hit by -k * tail * x^(hit - lead)
        cur = _poly(
            nv, {e: cc for e, cc in cur.terms.items() if e != hit}
        ) - tail._mul_key(hit - lead, k)


# ---------------------------------------------------------------------------
# gcd machinery (primitive pseudo-remainder sequences)


def _coeffs_in(f: MPoly, v: int):
    """Coefficients of f as a univariate polynomial in variable v.

    Returns a dict {power: MPoly with v-degree 0}.
    """
    nv = f.nvars
    s = _BITS * (nv - 1 - v)
    out: dict = {}
    for e, c in f.terms.items():
        k = e >> s & _MASK
        out.setdefault(k, {})[e - _var_key(nv, v, k)] = c
    return {k: _poly(nv, t) for k, t in out.items()}


def lc_in(f: MPoly, v: int) -> MPoly:
    nv = f.nvars
    d = f.deg_in(v)
    s = _BITS * (nv - 1 - v)
    m = _var_key(nv, v, d)
    return _poly(nv, {e - m: c for e, c in f.terms.items() if e >> s & _MASK == d})


def prem(f: MPoly, g: MPoly, v: int) -> MPoly:
    """Pseudo-remainder of f by g with respect to variable v."""
    dg = g.deg_in(v)
    lg = lc_in(g, v)
    r = f
    while not r.is_zero():
        dr = r.deg_in(v)
        if dr < dg:
            break
        lr = lc_in(r, v)
        r = r * lg - (g * lr)._shift_key(_var_key(f.nvars, v, dr - dg))
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
    nv = f.nvars
    ef = _min_key(nv, f.terms)
    eg = _min_key(nv, g.terms)
    common = _min_key(nv, (ef, eg))
    if ef:
        f = f._div_key(ef)
    if eg:
        g = g._div_key(eg)

    if len(f.terms) == 1 or len(g.terms) == 1:
        return _poly(nv, {common: f.some_coeff().one()})

    # main variable: first with positive degree in either operand
    v = None
    for i in range(nv):
        if f.deg_in(i) > 0 or g.deg_in(i) > 0:
            v = i
            break
    if v is None:  # both constants after stripping (cannot happen)
        return _poly(nv, {common: f.some_coeff().one()})

    df, dg = f.deg_in(v), g.deg_in(v)
    if df == 0 or dg == 0:
        if df == 0:
            small, big = f, g
        else:
            small, big = g, f
        c = content_in(big, v)
        r = gcd(small, c)
        return r._shift_key(common).monic()

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
    return (c * a)._shift_key(common).monic()


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
    by stripping monomial content and dehomogenising the last variable.

    Both steps re-key terms: setting the last variable to 1 drops its field
    and lowers the degree field by it, and rehomogenising to degree d puts
    d minus each term's degree back in that field.  A stripped input is
    homogeneous, so no two of its terms meet on one key."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ValueError("gcd of no polynomials")
    nv = polys[0].nvars
    low = _BITS * (nv - 1)
    mins = [_min_key(nv, p.terms) for p in polys]
    common = _min_key(nv, mins)

    def dehomogenised(e):
        return (e >> _BITS) - ((e & _MASK) << low)

    dehom = [
        _poly(nv - 1, {dehomogenised(e - m): c for e, c in p.terms.items()})
        for p, m in zip(polys, mins)
    ]
    g = gcd_many(dehom)
    # rehomogenise to the gcd's own degree
    d = g.total_degree()
    fields = (1 << low) - 1
    out = _poly(
        nv,
        {
            d << (low + _BITS) | (e & fields) << _BITS | d - (e >> low): c
            for e, c in g.terms.items()
        },
    )
    return out._shift_key(common).monic()


# ---------------------------------------------------------------------------
# squarefree structure (Musser, characteristic zero)


def squarefree_part(f: MPoly) -> MPoly:
    return exact_div(f.monic(), _deriv_gcd(f)).monic()


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
# resultants (Bareiss fraction-free determinant of the hybrid Bezout matrix)


def _hybrid_bezout(f: MPoly, g: MPoly, v: int):
    """The hybrid Bezout matrix of f and g in variable v, for
    m = deg f >= n = deg g, whose determinant is res(f, g).

    Its m rows hold the coefficients of 1, x, ..., x^(m-1) of x^k g for
    k < m - n, then of F_i x^(m-n) g - G_i f for i = 1..n, where F_i and
    G_i are the polynomials of the top i coefficients of f and of g (so
    that the degree-m terms cancel).  When m = n this is the Bezout matrix.
    """
    m, n = f.deg_in(v), g.deg_in(v)
    fc, gc = _coeffs_in(f, v), _coeffs_in(g, v)
    zero = MPoly.zero(f.nvars)
    a = [fc.get(k, zero) for k in range(m + 1)]
    b = [gc.get(k, zero) for k in range(n + 1)]
    products = {}

    def ab(p, q):
        if (p, q) not in products:
            products[p, q] = a[p] * b[q]
        return products[p, q]

    rows = [[zero] * k + b + [zero] * (m - n - 1 - k) for k in range(m - n)]
    for i in range(1, n + 1):
        row = []
        for k in range(m):
            entry = zero
            for p in range(i):
                if 0 <= k - (m - n) - p <= n - i:
                    entry = entry + ab(m - i + 1 + p, k - (m - n) - p)
                if 0 <= k - p <= m - i:
                    entry = entry - ab(k - p, n - i + 1 + p)
            row.append(entry)
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
    """The resultant of f and g in variable v, equal to the determinant of
    their Sylvester matrix, taken on the hybrid Bezout matrix of size
    max(deg f, deg g); res(f, g) = (-1)^(mn) res(g, f)."""
    m, n = f.deg_in(v), g.deg_in(v)
    if m <= 0 or n <= 0:
        raise ValueError("resultant needs positive degree in the chosen variable")
    if m < n:
        r = bareiss_det(_hybrid_bezout(g, f, v))
        return -r if m * n % 2 else r
    return bareiss_det(_hybrid_bezout(f, g, v))
