"""Radical towers L = K[r1][r2]... over K = Q(zeta)(t1,...,tn).

An element is stored over one shared t-denominator: nums maps radical
exponents to nonzero numerators in Q(zeta)[t], the key (e_1, ..., e_h), with
0 <= e_j < degree_j, standing for r_1^e_1 ... r_h^e_h, and den is one monic
polynomial with gcd(den, all nums) = 1.  The element is
sum_e (nums[e] / den) r^e; zero is ({}, 1) and the key (0, ..., 0) holds the
base-field part.  Every denominator 1 is one shared object per number of
variables, so the denominator-free case is an identity test and a product
of denominator-free elements is polynomial arithmetic alone.  A product
with denominators reduces once per element (one gcd chain over den and the
numerators), not once per pair of coefficients; a product of two one-term
elements cancels crosswise, as for rational functions.

K itself is the tower of height 0, `TowerField.rational(n)`: its elements
are FieldElements with the single key (), one reduced numerator over one
monic denominator, and K has no other arithmetic.  `FieldElement.to_base()`
reads an element of a tower that lies in K as an element of K, and
`lift_to` puts it into a larger tower.  Every radicand is such an element of
K, nonzero, so a product reduces with r_j^degree_j = radicand_j alone and
each per-radical Galois generator scales a monomial by a root of unity: the
generators are honest automorphisms of the whole tower (a radical never
appears inside the radicand of a later one).

Arithmetic is exact and canonical: equal values have identical
representations, so equality is structural.  JSON and repr keep the
per-coefficient layout, each coordinate a reduced rational function of K,
nested one list per radical with the last radical outermost.
`RationalFunction` is only the view of one such coordinate, the (num, den)
pair that FieldElement.coefficients() and base_rf() give and that JSON and
repr print; it does no arithmetic of K.

Substitution (`MPoly.subst`) over a tower runs in integers when no
coefficient of the polynomial or of the values has a t-denominator, as for
the cleared triples of `birational`.  The tower is the image of the free
ring Q(zeta)[x, r, t], in which the radicals r_j are free variables, under
the ring map that sends r_j^k_j to radicand_j.  The same Horner walk
(`multipoly._horner`) runs in the free ring, on `_Free` polynomials: one
dict from packed (x, r, t) exponents to Z[zeta] pairs over one integer
denominator, so a product is one integer convolution with one gcd pass and
no tower arithmetic.  Because the map is a ring homomorphism, applying it
once to the walk's result (`_free_fold`) gives the substituted element;
`_reduced` puts each coefficient in the canonical form, so the output is
identical to that of the per-coefficient walk.  With a t-denominator
anywhere, the per-coefficient walk over FieldElement runs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd as _igcd, lcm as _ilcm
from operator import add

from .errors import (
    ActionMismatch,
    BadExtension,
    NotInExtension,
    SblinksError,
    ZeroInverse,
)
from .multipoly import (
    _BITS,
    _MASK,
    MPoly,
    _check_degree,
    _horner,
    _poly,
    _power,
    exact_div,
    gcd,
    squarefree_decomposition,
    squarefree_part,
    try_div,
)
from .scalars import QZeta, _reduced as _qzeta, qzeta_nth_root


# ---------------------------------------------------------------------------
# rational functions over Q(zeta)


class RationalFunction:
    """The reduced view num / den of an element of K: gcd(num, den) = 1 and
    den monic under grlex.  K's arithmetic is that of FieldElement over
    TowerField.rational(n); this class only carries the pair that
    FieldElement.base_rf() and coefficients() expose, and prints it for
    repr and JSON."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MPoly, den: MPoly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            num, den = _reduce_pair(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @property
    def nvars(self) -> int:
        return self.num.nvars

    # Kept for the benchmark alone: its tracer wraps this method for the
    # `field_tower.rf_mul` row, and a test asserts that the method exists.
    # The library multiplies K's elements as FieldElements.
    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        if self.den.is_const() and self.den.const_coeff().is_one():
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    # -- json -----------------------------------------------------------------

    def to_json(self):
        return {"num": poly_to_json(self.num), "den": poly_to_json(self.den)}

    @staticmethod
    def from_json(data, nvars: int) -> "RationalFunction":
        return RationalFunction(
            poly_from_json(data["num"], nvars), poly_from_json(data["den"], nvars)
        )


@cache
def _one_poly(nvars: int) -> MPoly:
    """The polynomial 1 in nvars variables, one shared object per nvars: an
    element's denominator is 1 exactly when it is this object."""
    return MPoly.const(nvars, QZeta.one())


def _reduce_pair(num: MPoly, den: MPoly):
    if num.is_zero():
        return num, _one_poly(num.nvars)
    g = gcd(num, den)
    if not g.is_const():
        num = exact_div(num, g)
        den = exact_div(den, g)
    c = den.lc()
    if not c.is_one():
        ci = c.inverse()
        num = num.scale(ci)
        den = den.scale(ci)
    return num, den


def poly_str(p: MPoly, names=None) -> str:
    if p.is_zero():
        return "0"
    names = names or [f"t{i+1}" for i in range(p.nvars)]
    bits = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k
        )
        if mono:
            if c.is_one():
                bits.append(mono)
            else:
                bits.append(f"({c!r})*{mono}")
        else:
            bits.append(f"({c!r})")
    return " + ".join(bits)


def poly_to_json(p: MPoly):
    return [
        {"monomial": list(e), "coeff": c.to_json()} for e, c in p.sorted_terms()
    ]


def poly_from_json(data, nvars: int) -> MPoly:
    terms = {}
    for item in data:
        e = tuple(item["monomial"])
        if len(e) != nvars:
            raise SblinksError("monomial arity mismatch in serialized polynomial")
        c = QZeta.from_json(item["coeff"])
        if not c.is_zero():
            terms[e] = c
    return MPoly(nvars, terms)


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class Radical:
    name: str
    degree: int  # 2 or 3
    radicand: FieldElement  # an element of the base field K

    def __post_init__(self):
        if self.degree not in (2, 3):
            raise BadExtension(f"radical degree must be 2 or 3, got {self.degree}")
        if self.radicand.is_zero():
            raise SblinksError("radicand must be nonzero")


class TowerField:
    """K = Q(zeta)(t1..tn) extended by an ordered list of radicals."""

    __slots__ = (
        "nvars", "radicals", "degrees", "origin", "unit", "_radicands",
        "_hash", "_one", "_zero",
    )

    def __init__(self, nvars: int, radicals=()):
        self.nvars = nvars
        self.radicals = tuple(radicals)
        names = [r.name for r in self.radicals]
        if len(set(names)) != len(names):
            raise SblinksError("duplicate radical names in tower")
        self.degrees = tuple(r.degree for r in self.radicals)
        self.origin = (0,) * len(self.radicals)  # exponents of the base field
        self.unit = _one_poly(nvars)  # the denominator of t-polynomial elements
        # (numerator, denominator) of each radicand, the denominator 1 shared
        self._radicands = tuple(
            (r.radicand.nums[()], r.radicand.den) for r in self.radicals
        )
        self._hash = None
        self._one = None
        self._zero = None

    @staticmethod
    def rational(nvars: int) -> "TowerField":
        return TowerField(nvars, ())

    def extend(self, name: str, degree: int, radicand: "FieldElement") -> "TowerField":
        if radicand.tower.nvars != self.nvars:
            raise SblinksError("radicand from a different base field")
        if not radicand.in_base():
            raise SblinksError(
                "radicands must lie in the base field K for Galois generators "
                "to act on the whole tower"
            )
        rad = Radical(name, degree, radicand.to_base())
        return TowerField(self.nvars, self.radicals + (rad,))

    def height(self) -> int:
        return len(self.radicals)

    def prefix(self, k: int) -> "TowerField":
        return TowerField(self.nvars, self.radicals[:k])

    def radical_index(self, name: str) -> int:
        for i, r in enumerate(self.radicals):
            if r.name == name:
                return i
        raise ActionMismatch(f"no radical named {name!r} in tower")

    def radical(self, name: str) -> Radical:
        return self.radicals[self.radical_index(name)]

    def extension_degree(self) -> int:
        d = 1
        for r in self.radicals:
            d *= r.degree
        return d

    # -- element constructors ----------------------------------------------

    def from_poly(self, p: MPoly) -> "FieldElement":
        """The polynomial p of Q(zeta)[t] as an element of the base field."""
        if not p.terms:
            return self.zero()
        return FieldElement(self, {self.origin: p}, self.unit)

    def zero(self) -> "FieldElement":
        if self._zero is None:
            self._zero = FieldElement(self, {}, self.unit)
        return self._zero

    def one(self) -> "FieldElement":
        if self._one is None:
            self._one = self.from_poly(self.unit)
        return self._one

    def scalar(self, c) -> "FieldElement":
        if isinstance(c, (int, Fraction)):
            c = QZeta(c)
        return self.from_poly(MPoly.const(self.nvars, c))

    def t_var(self, i: int) -> "FieldElement":
        return self.from_poly(MPoly.variable(self.nvars, i, QZeta.one()))

    def zeta(self) -> "FieldElement":
        return self.scalar(QZeta.zeta())

    def gen(self, name: str) -> "FieldElement":
        """The radical generator as an element of the tower."""
        e = list(self.origin)
        e[self.radical_index(name)] = 1
        return FieldElement(self, {tuple(e): self.unit}, self.unit)

    def galois_generator(self, name: str) -> "GaloisAction":
        return GaloisAction(self, {name: 1})

    def group_elements(self):
        """All elements of the Galois group as exponent dicts name -> k."""
        elems = [{}]
        for r in self.radicals:
            elems = [
                {**e, r.name: k} for e in elems for k in range(r.degree)
            ]
        return elems

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TowerField)
            and self.nvars == other.nvars
            and self.radicals == other.radicals
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self.radicals))
        return self._hash

    def __repr__(self):
        base = f"Q(zeta)({', '.join(f't{i+1}' for i in range(self.nvars))})"
        for r in self.radicals:
            root = "cbrt" if r.degree == 3 else "sqrt"
            base += f"[{r.name}={root}({r.radicand!r})]"
        return base

    def to_json(self):
        return {
            "n_vars": self.nvars,
            "radicals": [
                {
                    "name": r.name,
                    "degree": r.degree,
                    "radicand": r.radicand.base_rf().to_json(),
                }
                for r in self.radicals
            ],
        }

    @staticmethod
    def from_json(data) -> "TowerField":
        nvars = data["n_vars"]
        K = TowerField.rational(nvars)
        rads = []
        for rd in data["radicals"]:
            radicand = _from_coefficients(K, _unfold(rd["radicand"], nvars, ()))
            rads.append(Radical(rd["name"], rd["degree"], radicand))
        return TowerField(nvars, rads)


# -- arithmetic on (numerators, shared denominator) pairs ----------------------


def _den(d: MPoly, unit: MPoly) -> MPoly:
    """A monic denominator, the shared unit when it is constant."""
    if d is unit or (len(d.terms) == 1 and d.is_const()):
        return unit
    return d


def _den_mul(a: MPoly, b: MPoly, unit: MPoly) -> MPoly:
    if a is unit:
        return b
    if b is unit:
        return a
    return a * b


def _sum(a: dict, b: dict) -> dict:
    """Termwise sum of two numerator maps over one denominator, zeros dropped."""
    out = dict(a)
    for e, p in b.items():
        q = out.get(e)
        if q is None:
            out[e] = p
            continue
        q = q + p
        if q.terms:
            out[e] = q
        else:
            del out[e]
    return out


def _scaled(nums: dict, d: MPoly, unit: MPoly) -> dict:
    if d is unit:
        return nums
    return {e: p * d for e, p in nums.items()}


def _reduced(tower: TowerField, nums: dict, den: MPoly) -> "FieldElement":
    """The element nums/den in canonical form, den monic: one gcd chain over
    den and the numerators, then one exact division of each."""
    unit = tower.unit
    if not nums:
        return tower.zero()
    if den is unit:
        return FieldElement(tower, nums, unit)
    g = den
    for p in sorted(nums.values(), key=lambda p: len(p.terms)):
        g = gcd(g, p)
        if g.is_const():
            return FieldElement(tower, nums, den)
    return FieldElement(
        tower,
        {e: exact_div(p, g) for e, p in nums.items()},
        _den(exact_div(den, g), unit),
    )


def _lcm(dens, unit: MPoly) -> MPoly:
    """The lcm of monic denominators, the shared unit when every one is 1."""
    out = unit
    for d in dens:
        if d is unit or d == out:
            continue
        if out is unit:
            out = d
            continue
        g = gcd(out, d)
        out = out * (d if g.is_const() else exact_div(d, g))
    return out


def _from_coefficients(tower: TowerField, coeffs: dict) -> "FieldElement":
    """The element with the reduced rational function coeffs[e] at each
    radical exponent e, the inverse of FieldElement.coefficients()."""
    unit = tower.unit
    return _over_lcm(
        tower, [({e: c.num}, _den(c.den, unit)) for e, c in coeffs.items()]
    )


def _over_lcm(tower: TowerField, pieces) -> "FieldElement":
    """The sum of reduced pieces (nums, den) with disjoint exponents over the
    lcm of their denominators, which is already canonical: a factor of the
    lcm is missing from some numerator of the piece it comes from."""
    unit = tower.unit
    den = _lcm((d for _, d in pieces), unit)
    nums = {}
    for part, d in pieces:
        if d is not den:
            part = _scaled(part, _den(exact_div(den, d), unit), unit)
        nums.update(part)
    return FieldElement(tower, nums, den) if nums else tower.zero()


def _add(a: "FieldElement", b: "FieldElement") -> "FieldElement":
    if not a.nums:
        return b
    if not b.nums:
        return a
    tower, unit = a.tower, a.tower.unit
    da, db = a.den, b.den
    if da is db or da == db:
        return _reduced(tower, _sum(a.nums, b.nums), da)
    g = unit if da is unit or db is unit else gcd(da, db)
    coprime = g.is_const()
    if not coprime:
        da, db = _den(exact_div(da, g), unit), _den(exact_div(db, g), unit)
    nums = _sum(_scaled(a.nums, db, unit), _scaled(b.nums, da, unit))
    den = _den_mul(da, b.den, unit)
    # over coprime denominators nothing cancels: a factor of da is missing
    # from db and from some numerator of a
    return FieldElement(tower, nums, den) if coprime else _reduced(tower, nums, den)


def _neg(a: "FieldElement") -> "FieldElement":
    return FieldElement(a.tower, {e: -p for e, p in a.nums.items()}, a.den)


def _cross(n1: MPoly, d1: MPoly, n2: MPoly, d2: MPoly, unit: MPoly):
    """(n1/d1) * (n2/d2) for reduced fractions, cancelled crosswise: the
    common factors are gcd(n1, d2) and gcd(n2, d1)."""
    if d2 is not unit:
        g = gcd(n1, d2)
        if not g.is_const():
            n1, d2 = exact_div(n1, g), _den(exact_div(d2, g), unit)
    if d1 is not unit:
        g = gcd(n2, d1)
        if not g.is_const():
            n2, d1 = exact_div(n2, g), _den(exact_div(d1, g), unit)
    return n1 * n2, _den_mul(d1, d2, unit)


def _mul(tower: TowerField, a: "FieldElement", b: "FieldElement") -> "FieldElement":
    if not a.nums or not b.nums:
        return tower.zero()
    if a.is_one():
        return b
    if b.is_one():
        return a
    unit = tower.unit
    degrees, radicands = tower.degrees, tower._radicands
    if len(a.nums) == 1 and len(b.nums) == 1:
        # one term each: cancel crosswise, then once per radicand taken
        ((ea, na),), ((eb, nb),) = a.nums.items(), b.nums.items()
        n, d = _cross(na, a.den, nb, b.den, unit)
        e = list(map(add, ea, eb))
        for j, k in enumerate(degrees):
            if e[j] >= k:
                e[j] -= k
                rn, rd = radicands[j]
                n, d = _cross(n, d, rn, rd, unit)
        return FieldElement(tower, {tuple(e): n}, d)
    raw = {}
    for ea, pa in a.nums.items():
        for eb, pb in b.nums.items():
            e = tuple(map(add, ea, eb))
            p = pa * pb
            q = raw.get(e)
            raw[e] = p if q is None else q + p
    # radicals whose radicand has a denominator that some term takes: the
    # other terms are brought over it too
    over = {
        j for j, k in enumerate(degrees)
        if radicands[j][1] is not unit
        and any(e[j] >= k for e, p in raw.items() if p.terms)
    }
    out = {}
    for e, p in raw.items():
        if not p.terms:
            continue
        for j, k in enumerate(degrees):
            if e[j] >= k:
                # r_j^(d + k) = radicand_j * r_j^k
                e = e[:j] + (e[j] - k,) + e[j + 1:]
                p = p * radicands[j][0]
            elif j in over:
                p = p * radicands[j][1]
        q = out.get(e)
        out[e] = p if q is None else q + p
    den = _den_mul(a.den, b.den, unit)
    for j in over:
        den = _den_mul(den, radicands[j][1], unit)
    return _reduced(tower, {e: p for e, p in out.items() if p.terms}, den)


def _galois(weights, a: "FieldElement") -> "FieldElement":
    """Scale each term by the root of unity the action gives its radical
    monomial; weights lists (position, exponent k, degree) per moved radical."""
    nums = {}
    for e, p in a.nums.items():
        z = s = 0
        for j, k, d in weights:
            if d == 3:
                z += k * e[j]
            else:
                s += k * e[j]
        factor = QZeta.zeta_pow(z)
        if s % 2:
            factor = -factor
        nums[e] = p if factor.is_one() else p.scale(factor)
    return FieldElement(a.tower, nums, a.den)


def _inverse(tower: TowerField, a: "FieldElement") -> "FieldElement":
    """Multiply by the conjugates under each radical's generator, from the
    top radical down, until the product (the norm) lies in K."""
    if not a.nums:
        raise ZeroInverse("0 has no inverse")
    n, conj = a, None
    for j in reversed(range(tower.height())):
        if not any(e[j] for e in n.nums):
            continue
        d = tower.degrees[j]
        c = _galois(((j, 1, d),), n)
        if d == 3:
            c = _mul(tower, c, _galois(((j, 2, d),), n))
        n = _mul(tower, n, c)
        if any(e[j] for e in n.nums):
            raise ZeroInverse(
                "norm with radical coordinates; tower is not a field "
                "(reducible radicand?)"
            )
        if not n.nums:
            raise ZeroInverse(
                "nonzero element with zero norm; tower is not a field "
                "(reducible radicand?)"
            )
        conj = c if conj is None else _mul(tower, conj, c)
    # 1/n = n.den / n.nums[origin], the new denominator made monic
    num, den = n.nums[tower.origin], n.den
    ci = num.lc().inverse()
    if not ci.is_one():
        num, den = num.scale(ci), den.scale(ci)
    inv = FieldElement(tower, {tower.origin: den}, _den(num, tower.unit))
    return inv if conj is None else _mul(tower, conj, inv)


# -- substitution in the free ring Q(zeta)[x, r, t] ----------------------------


class _Free:
    """A polynomial of the free ring Q(zeta)[x, r, t], the radicals r free
    variables: terms maps packed keys to Z[zeta] pairs (a, b), for
    (a + b zeta) / d, with one positive integer d coprime to them all.  A key
    packs, sixteen bits a field, the total degree in x, r and t (shifted by
    top), the x-monomial and the t-monomial as `multipoly` keys, and the
    unreduced radical exponents between them.  Every field is at most the
    total degree, so checking it against the bound in each product keeps
    every field from carrying into the next."""

    __slots__ = ("terms", "d", "top")

    def __init__(self, terms: dict, d: int, top: int):
        if d != 1:
            g = d
            for a, b in terms.values():
                g = _igcd(g, a, b)
                if g == 1:
                    break
            if g != 1:
                terms = {k: (a // g, b // g) for k, (a, b) in terms.items()}
                d //= g
        self.terms = terms
        self.d = d
        self.top = top

    def __add__(self, other: "_Free") -> "_Free":
        if not self.terms:
            return other
        if not other.terms:
            return self
        d = _ilcm(self.d, other.d)
        s, m = d // self.d, d // other.d
        if s == 1:
            out = dict(self.terms)
        else:
            out = {k: (a * s, b * s) for k, (a, b) in self.terms.items()}
        get = out.get
        for k, (a, b) in other.terms.items():
            if m != 1:
                a, b = a * m, b * m
            old = get(k)
            if old is not None:
                a, b = old[0] + a, old[1] + b
                if not (a or b):
                    del out[k]
                    continue
            out[k] = (a, b)
        return _Free(out, d, self.top)

    def __mul__(self, other: "_Free") -> "_Free":
        a, b = self.terms, other.terms
        if not a or not b:
            return _Free({}, 1, self.top)
        # the leading keys add without a carry: this is the product's degree
        _check_degree((max(a) + max(b)) >> self.top)
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for ka, (x, y) in a.items():
            for kb, (u, v) in b.items():
                # (x + y z)(u + v z) = xu - yv + (xv + yu - yv) z, z^2 = -1 - z
                if y:
                    yv = y * v
                    p, q = x * u - yv, x * v + y * u - yv
                else:
                    p, q = x * u, x * v
                k = ka + kb
                old = get(k)
                out[k] = (p, q) if old is None else (old[0] + p, old[1] + q)
        return _Free(
            {k: v for k, v in out.items() if v[0] or v[1]}, self.d * other.d, self.top
        )


def _free_subst(tower: TowerField, f: MPoly, values):
    """f.subst(values), for f and values over the tower, by `_horner` over
    `_Free`, or None when some coefficient has a t-denominator or lies in
    another tower.  The radical exponents stay unreduced through the walk
    and are folded once, by `_free_fold`."""
    unit = tower.unit
    for p in (f, *values):
        for c in p.terms.values():
            if c.den is not unit or (c.tower is not tower and c.tower != tower):
                return None
    nt, nx = tower.nvars, values[0].nvars
    tw = _BITS * (nt + 1)  # the t-monomial, its degree field included
    xs = tw + _BITS * tower.height()  # the shift of the x-monomial
    top = xs + _BITS * (nx + 1)

    @cache
    def radical_key(e):
        rk = 0
        for x in e:
            rk = rk << _BITS | x
        return rk << tw, sum(e)

    def lift(terms) -> _Free:
        """The sum of the pairs (x-key, coefficient) as a free polynomial."""
        items = []
        for xk, c in terms:
            dx = xk >> _BITS * nx
            for e, num in c.nums.items():
                rk, re = radical_key(e)
                base = xk << xs | rk
                deg = dx + re
                for tk, q in num.terms.items():
                    items.append(((deg + (tk >> _BITS * nt)) << top | base | tk, q))
        d = _ilcm(*(q.d for _, q in items)) if items else 1
        if d == 1:
            return _Free({k: (q.a, q.b) for k, q in items}, 1, top)
        return _Free({k: (q.a * (d // q.d), q.b * (d // q.d)) for k, q in items}, d, top)

    lifted = [lift(v.terms.items()) for v in values]
    return _free_fold(tower, _horner(f, lifted, lambda c: lift(((0, c),))), nx, tw, xs)


def _free_fold(tower: TowerField, p: _Free, nx: int, tw: int, xs: int) -> MPoly:
    """The polynomial over the tower that p stands for, one element per
    x-monomial.  Each radical exponent e_j = q k_j + r, with k_j the
    radical's degree, becomes r_j^r times radicand_j^q: the numerator to the
    q, times its denominator to the Q - q over a denominator to the Q, Q the
    largest q in that x-monomial.  That is the ring map from the free ring
    onto the tower, so its sum is the substituted element; `_reduced` puts
    it in canonical form."""
    nt, degrees, radicands = tower.nvars, tower.degrees, tower._radicands
    unit = tower.unit
    tmask = (1 << tw) - 1
    rmask = (1 << (xs - tw)) - 1
    xmask = (1 << _BITS * (nx + 1)) - 1
    d = p.d
    groups: dict = {}  # x-key -> radical key -> {t-key: (a, b)}
    for key, v in p.terms.items():
        g = groups.setdefault(key >> xs & xmask, {})
        g.setdefault(key >> tw & rmask, {})[key & tmask] = v

    @cache
    def factor(q, big):
        """The product of the radicand powers for (q, Q), None for 1."""
        out = None
        for (num, den), k, most in zip(radicands, q, big):
            for base, m in ((num, k), (den, most - k)):
                if m and base is not unit:
                    x = _power(base, m)
                    out = x if out is None else out * x
        return out

    terms = {}
    for xk, g in groups.items():
        parts = []
        for rk, ts in g.items():
            e = [rk >> _BITS * i & _MASK for i in range(len(degrees) - 1, -1, -1)]
            q = tuple(x // k for x, k in zip(e, degrees))
            r = tuple(x % k for x, k in zip(e, degrees))
            num = _poly(nt, {tk: _qzeta(a, b, d) for tk, (a, b) in ts.items()})
            parts.append((q, r, num))
        big = tuple(
            max(q[j] for q, _, _ in parts) if radicands[j][1] is not unit else 0
            for j in range(len(degrees))
        )
        nums = {}
        for q, r, num in parts:
            m = factor(q, big)
            if m is not None:
                num = num * m
            old = nums.get(r)
            nums[r] = num if old is None else old + num
        den = unit
        for (_, rd), k in zip(radicands, big):
            if k:
                den = _den_mul(den, _power(rd, k), unit)
        c = _reduced(tower, {r: n for r, n in nums.items() if n.terms}, den)
        if c.nums:
            terms[xk] = c
    return _poly(nx, terms)


def _lift_positions(src: TowerField, dst: TowerField):
    """Position in dst of each radical of src, matched from the top: a
    radical of dst that is not the topmost unmatched radical of src is new."""
    if src.nvars != dst.nvars:
        raise SblinksError("cannot lift between different base fields")
    pos = [0] * src.height()
    i = src.height() - 1
    for j in reversed(range(dst.height())):
        if i >= 0 and _same_radical(src.radicals[i], dst.radicals[j]):
            pos[i] = j
            i -= 1
    if i >= 0:
        raise SblinksError("element tower is not contained in the target tower")
    return pos


def _same_radical(a: Radical, b: Radical) -> bool:
    return a.name == b.name and a.degree == b.degree and a.radicand == b.radicand


def _fold(a: dict, degrees, leaf, node):
    """Fold a coefficient map over the nested coordinate layout, the last
    radical outermost: leaf(coefficient or None) at each base coordinate,
    node(level, children) at each radical level."""
    if not degrees:
        return leaf(a.get(()))
    parts = [{} for _ in range(degrees[-1])]
    for e, c in a.items():
        parts[e[-1]][e[:-1]] = c
    return node(
        len(degrees) - 1, [_fold(p, degrees[:-1], leaf, node) for p in parts]
    )


def _unfold(data, nvars: int, radicals) -> dict:
    """Inverse of the JSON fold: nested coordinate lists to a coefficient map."""
    if not radicals:
        rf = RationalFunction.from_json(data, nvars)
        return {(): rf} if rf.num.terms else {}
    if len(data) != radicals[-1].degree:
        raise SblinksError("coordinate arity mismatch in serialized element")
    out = {}
    for i, x in enumerate(data):
        for e, c in _unfold(x, nvars, radicals[:-1]).items():
            out[e + (i,)] = c
    return out


# ---------------------------------------------------------------------------
# Galois actions


class GaloisAction:
    """Automorphism of a tower sending each radical r to unity^k * r.

    images maps radical names to exponents k; unity is zeta for cubic
    radicals and -1 for quadratic ones.  The base K is fixed pointwise.
    """

    __slots__ = ("tower", "images", "_weights")

    def __init__(self, tower: TowerField, images: dict):
        for name in images:
            tower.radical_index(name)  # raises ActionMismatch when absent
        self.tower = tower
        reduced = {
            name: k % tower.radical(name).degree for name, k in images.items()
        }
        self.images = {n: k for n, k in reduced.items() if k}
        self._weights = tuple(
            (tower.radical_index(n), k, tower.radical(n).degree)
            for n, k in self.images.items()
        )

    def apply(self, e: "FieldElement") -> "FieldElement":
        if e.tower != self.tower:
            if set(self.images) - {r.name for r in e.tower.radicals}:
                raise ActionMismatch(
                    "action references radicals absent from the element's tower"
                )
            raise ActionMismatch("element belongs to a different tower")
        return _galois(self._weights, e)

    def __repr__(self):
        if not self.images:
            return "GaloisAction(id)"
        bits = []
        for n, k in self.images.items():
            d = self.tower.radical(n).degree
            unity = f"zeta^{k}" if d == 3 else "-1"
            bits.append(f"{n} -> {unity}*{n}")
        return "GaloisAction(" + ", ".join(bits) + ")"


# ---------------------------------------------------------------------------
# field elements


class FieldElement:
    """An element of a tower, sum_e (nums[e] / den) r^e: nums maps radical
    exponents to nonzero numerators in Q(zeta)[t] and den is one monic
    denominator coprime to them all, the tower's shared unit when it is 1,
    as the module docstring describes.  coefficients() gives the reduced
    rational function of each coordinate, the layout of JSON and repr."""

    __slots__ = ("tower", "nums", "den", "_hash")

    def __init__(self, tower: TowerField, nums: dict, den: MPoly):
        self.tower = tower
        self.nums = nums
        self.den = den
        self._hash = None

    # -- ring/field structure ---------------------------------------------

    def _check(self, other: "FieldElement"):
        if self.tower is not other.tower and self.tower != other.tower:
            raise SblinksError("tower mismatch in field arithmetic")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return _add(self, other)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return _add(self, _neg(other))

    def __neg__(self) -> "FieldElement":
        return _neg(self)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return _mul(self.tower, self, other)

    def inverse(self) -> "FieldElement":
        return _inverse(self.tower, self)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k) if k else self.one()

    def is_zero(self) -> bool:
        return not self.nums

    def is_one(self) -> bool:
        if self.den is not self.tower.unit or len(self.nums) != 1:
            return False
        p = self.nums.get(self.tower.origin)
        return p is not None and p == self.den

    def zero(self) -> "FieldElement":
        return self.tower.zero()

    def one(self) -> "FieldElement":
        return self.tower.one()

    # -- structure ------------------------------------------------------------

    def in_base(self) -> bool:
        return all(not any(e) for e in self.nums)

    def to_base(self) -> "FieldElement":
        """The element as an element of K, the tower of height 0."""
        if not self.in_base():
            raise NotInExtension("element has radical coordinates")
        tower = self.tower
        if not tower.radicals:
            return self
        p = self.nums.get(tower.origin)
        return FieldElement(tower.prefix(0), {} if p is None else {(): p}, self.den)

    def base_rf(self) -> RationalFunction:
        """The element of K as its reduced (num, den) view."""
        return RationalFunction(*_num_den(self), reduce=False)

    def coefficients(self) -> dict:
        """Radical exponents to the reduced rational function of K at each."""
        den = self.den
        reduce = den is not self.tower.unit
        return {e: RationalFunction(p, den, reduce) for e, p in self.nums.items()}

    def lift_to(self, tower: TowerField) -> "FieldElement":
        if tower == self.tower:
            return self
        pos = _lift_positions(self.tower, tower)
        nums = {}
        for e, p in self.nums.items():
            k = list(tower.origin)
            for i, x in zip(pos, e):
                k[i] = x
            nums[tuple(k)] = p
        return FieldElement(tower, nums, self.den)

    def galois(self, action: GaloisAction) -> "FieldElement":
        return action.apply(self)

    def free_subst(self, f: MPoly, values):
        """f.subst(values) in the free ring for f and values over this
        element's tower, or None (see `MPoly.subst`)."""
        return _free_subst(self.tower, f, values)

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and (self.tower is other.tower or self.tower == other.tower)
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tower, self.den, frozenset(self.nums.items())))
        return self._hash

    def __repr__(self):
        names = [r.name for r in self.tower.radicals]

        def node(level, parts):
            name = names[level]
            bits = [
                x if i == 0 else f"({x})*{name if i == 1 else f'{name}^{i}'}"
                for i, x in enumerate(parts)
                if x != "0"
            ]
            return " + ".join(bits) if bits else "0"

        return _fold(
            self.coefficients(),
            self.tower.degrees,
            lambda c: "0" if c is None else repr(c),
            node,
        )

    # -- json ------------------------------------------------------------------

    def to_json(self):
        zero = RationalFunction(MPoly.zero(self.tower.nvars), self.tower.unit)
        coords = _fold(
            self.coefficients(),
            self.tower.degrees,
            lambda c: (zero if c is None else c).to_json(),
            lambda _, parts: parts,
        )
        return {"tower": self.tower.to_json(), "coords": coords}

    @staticmethod
    def from_json(data) -> "FieldElement":
        tower = TowerField.from_json(data["tower"])
        coeffs = _unfold(data["coords"], tower.nvars, tower.radicals)
        return _from_coefficients(tower, coeffs)


# ---------------------------------------------------------------------------
# cubic extensions and the norm


@dataclass(frozen=True)
class CubicExtension:
    """A tower together with the distinguished degree-3 radical giving L/K."""

    tower: TowerField
    radical_name: str

    def __post_init__(self):
        rad = self.tower.radical(self.radical_name)
        if rad.degree != 3:
            raise BadExtension("the distinguished radical must have degree 3")

    @property
    def generator(self) -> GaloisAction:
        return self.tower.galois_generator(self.radical_name)

    @property
    def radicand(self) -> FieldElement:
        return self.tower.radical(self.radical_name).radicand

    def root(self) -> FieldElement:
        return self.tower.gen(self.radical_name)


def norm(ext: CubicExtension, e: FieldElement) -> FieldElement:
    """a * g(a) * g^2(a) for the distinguished order-3 generator g."""
    if e.tower != ext.tower:
        raise NotInExtension("element does not belong to the extension tower")
    g = ext.generator
    n = e * g.apply(e) * g.apply(g.apply(e))
    if g.apply(n) != n:  # pragma: no cover - sanity
        raise NotInExtension("norm failed to land in the fixed field")
    return n


# ---------------------------------------------------------------------------
# decidable cube / square / norm tests


@dataclass
class TriState:
    status: str  # "yes" | "no" | "unknown"
    witness: object = None
    certificate: dict | None = None

    def __bool__(self):
        raise TypeError("TriState is not a boolean; inspect .status")


def _num_den(c: FieldElement):
    """The numerator and the monic denominator of c as an element of K."""
    k = c.to_base()
    return k.nums.get((), MPoly.zero(c.tower.nvars)), k.den


def _nth_root_part(p: MPoly, n: int):
    """(w, None) with p = lc(p) w^n, or (None, (g, k)) for a squarefree
    factor g of p whose multiplicity k is not divisible by n."""
    w = MPoly.const(p.nvars, QZeta.one())
    for g, k in squarefree_decomposition(p)[1]:
        if k % n:
            return None, (g, k)
        w = w * g ** (k // n)
    return w, None


def _power_test(c: FieldElement, n: int) -> TriState:
    """Whether the base element c is an n-th power in K; a "yes" carries
    the root as an element of c's tower.  The leading coefficients of the
    numerator and denominator of a root give an n-th root of
    kappa = lc(num) / lc(den) in Q(zeta), so qzeta_nth_root(kappa) = None
    proves a "no"."""
    num, den = _num_den(c)
    if num.is_zero():
        raise SblinksError("power test on 0")
    dnum, dden = num.total_degree(), den.total_degree()
    if (dnum - dden) % n != 0:
        return TriState(
            "no",
            certificate={
                "kind": "degree",
                "num_degree": dnum,
                "den_degree": dden,
                "n": n,
            },
        )
    roots = []
    for where, p in (("num", num), ("den", den)):
        w, bad = _nth_root_part(p, n)
        if w is None:
            return TriState(
                "no",
                certificate={
                    "kind": "multiplicity",
                    "where": where,
                    "factor": poly_to_json(bad[0]),
                    "multiplicity": bad[1],
                    "n": n,
                },
            )
        roots.append(w)
    kappa = num.lc() * den.lc().inverse()
    r = qzeta_nth_root(kappa, n)
    if r is None:
        return TriState(
            "no", certificate={"kind": "constant", "value": repr(kappa), "n": n}
        )
    # the roots of num and den are coprime, and monic as products of monic
    # squarefree factors
    wn, wd = roots
    tower = c.tower
    root = FieldElement(tower, {tower.origin: wn.scale(r)}, _den(wd, tower.unit))
    return TriState("yes", root)


def _is_nth_power(c: FieldElement, n: int) -> TriState:
    res = _power_test(c, n)
    if res.status == "yes" and res.witness ** n != c:  # pragma: no cover - sanity
        raise SblinksError("power witness failed re-verification")
    return res


def is_cube(c: FieldElement) -> TriState:
    """Decide whether c in K is a cube in K; a "no" carries a certificate
    that recheck_power_certificate re-verifies."""
    return _is_nth_power(c, 3)


def is_square(c: FieldElement) -> TriState:
    return _is_nth_power(c, 2)


def recheck_power_certificate(c: FieldElement, cert: dict) -> bool:
    """Independently re-verify a "no" certificate from is_cube/is_square,
    from c itself.  0 = 0^n, so no certificate holds for it."""
    num, den = _num_den(c)
    if num.is_zero():
        return False
    n = cert["n"]
    kind = cert["kind"]
    if kind == "degree":
        return (
            num.total_degree() == cert["num_degree"]
            and den.total_degree() == cert["den_degree"]
            and (cert["num_degree"] - cert["den_degree"]) % n != 0
        )
    if kind == "constant":
        kappa = num.lc() * den.lc().inverse()
        return cert["value"] == repr(kappa) and qzeta_nth_root(kappa, n) is None
    if kind == "multiplicity":
        factor = poly_from_json(cert["factor"], num.nvars)
        cur = num if cert["where"] == "num" else den
        m = 0
        while True:
            nxt = try_div(cur, factor)
            if nxt is None:
                break
            cur = nxt
            m += 1
        return (
            m == cert["multiplicity"]
            and m % n != 0
            and squarefree_part(factor) == factor.monic()
            and factor.total_degree() > 0
        )
    return False


def is_norm(ext: CubicExtension, xi: FieldElement) -> TriState:
    """Decide whether xi in K* is a norm of L = K[cbrt(lambda)] over K.

    yes: xi / lambda^j is a cube c^3 for some j in {0,1,2}; the witness is
         c * r^j with r the cube root of lambda (re-verified by norm()).
    no:  when lambda is a nonzero-constant multiple of a single variable t_i,
         the weighted total degree (t_i counts 3, others 1) of xi must be
         divisible by 3 for xi to be a norm; a violation is a certificate.
    """
    if xi.is_zero():
        raise SblinksError("norm test on 0")
    lam = ext.radicand
    lam_elem = lam.lift_to(ext.tower)
    for j in range(3):
        cand = xi / lam_elem ** j
        res = is_cube(cand)
        if res.status == "yes":
            witness = res.witness * ext.root() ** j
            n = norm(ext, witness)
            if n != xi:  # pragma: no cover - sanity
                raise SblinksError("norm witness failed re-verification")
            return TriState("yes", witness)

    var = _single_variable_index(lam)
    if var is not None:
        d = _weighted_degree(xi, var)
        if d % 3 != 0:
            return TriState(
                "no",
                certificate={
                    "kind": "norm-degree",
                    "variable": var,
                    "weighted_degree": d,
                },
            )
    return TriState("unknown")


def recheck_norm_certificate(ext: CubicExtension, xi: FieldElement, cert: dict) -> bool:
    if cert.get("kind") != "norm-degree":
        return False
    var = cert["variable"]
    if _single_variable_index(ext.radicand) != var:
        return False
    d = _weighted_degree(xi, var)
    return d == cert["weighted_degree"] and d % 3 != 0


def _weighted_degree(xi: FieldElement, var: int) -> int:
    """The degree of xi in K with t_var weighted 3 and the others 1."""
    num, den = _num_den(xi)
    weights = [1] * num.nvars
    weights[var] = 3
    return num.weighted_degree(weights) - den.weighted_degree(weights)


def _single_variable_index(lam: FieldElement):
    """Index i when lam = c * t_i with c a nonzero constant, else None."""
    num, den = _num_den(lam)
    if not den.is_const() or len(num.terms) != 1:
        return None
    (exps, _), = num.tuple_terms().items()
    if sum(exps) != 1:
        return None
    return exps.index(1)


# ---------------------------------------------------------------------------
# radical roots inside towers (fragment used by descent and point solving)


def nth_root_in_k(c: FieldElement, n: int):
    """Root in K of a base element, or None."""
    res = _power_test(c, n)
    return res.witness if res.status == "yes" else None


def _base_root_in_tower(e: FieldElement, n: int):
    """An n-th root of the base element e of the form w * prod r_j^a_j, with
    w in K and r_j the tower's degree-n radicals, or None."""
    tower = e.tower
    rads = [r for r in tower.radicals if r.degree == n]
    for exps in product(range(n), repeat=len(rads)):
        denom = tower.one()
        for r, a in zip(rads, exps):
            if a:
                denom = denom * r.radicand.lift_to(tower) ** a
        w = nth_root_in_k(e / denom, n)
        if w is not None:
            root = w
            for r, a in zip(rads, exps):
                if a:
                    root = root * tower.gen(r.name) ** a
            if root ** n == e:
                return root
    return None


def cbrt_in_tower(e: FieldElement):
    """A cube root of e inside its own tower, if one is visible in the
    fragment: base candidates are searched across products of the tower's
    cubic radicals."""
    if e.is_zero():
        return e.tower.zero()
    if e.in_base():
        return _base_root_in_tower(e, 3)
    return None


def sqrt_in_tower(e: FieldElement):
    """A square root of e inside its own tower (fragment)."""
    tower = e.tower
    if e.is_zero():
        return tower.zero()
    if e.in_base():
        return _base_root_in_tower(e, 2)
    # quadratic-extension shape a + b*s with s^2 = alpha, both a, b in the
    # fixed part: solve (x + y s)^2 = e
    h = tower.height()
    top = tower.radicals[-1]
    if top.degree == 2:
        sub = tower.prefix(h - 1)
        a, b = (
            _reduced(sub, {k[:-1]: p for k, p in e.nums.items() if k[-1] == i}, e.den)
            for i in (0, 1)
        )
        alpha = top.radicand.lift_to(sub)
        if not b.is_zero():
            disc = a * a - b * b * alpha
            d = sqrt_in_tower(disc)
            if d is not None:
                half = sub.scalar(Fraction(1, 2))
                for sgn in (1, -1):
                    xx = (a + d) * half if sgn == 1 else (a - d) * half
                    x = sqrt_in_tower(xx)
                    if x is not None and not x.is_zero():
                        y = b * half / x
                        cand = _over_lcm(
                            tower,
                            [({k + (i,): p for k, p in part.nums.items()}, part.den)
                             for i, part in enumerate((x, y))],
                        )
                        if cand * cand == e:
                            return cand
    return None
