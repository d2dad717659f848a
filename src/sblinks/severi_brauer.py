"""Severi-Brauer surfaces as cocycle twists of the plane, and their closed
points of degree 3 and 6.

A surface S_xi is presented on a chart P^2 over the splitting tower; the
Galois group acts through the twisted action v -> A_sigma . sigma(v), where
A_sigma is the cocycle matrix nu_xi raised to the exponent with which sigma
moves the distinguished cube root.

A closed point is built from one table, g -> g . v0 over
tower.group_elements(), for its first component v0.  The twisted action is
a projective group action, since nu_xi has entries in K and nu_xi^3 = xi I,
and the Galois group is abelian, since every radicand of a tower lies in K.
So the orbit is the table's image, the cycling element and the ordered
components come from adding exponents (v0, c v0, 2c v0, then f v0,
(f + c) v0, (f + 2c) v0 for a degree-6 point), and Stab(v0) is the
pointwise stabiliser of the whole orbit: if g v0 = v0 then
g (h v0) = h (g v0) = h v0.  Its fixed field is the splitting field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import (
    AlphaIsSquare,
    BadDegree,
    BadExtension,
    Collinear,
    DegenerateConfiguration,
    ExtensionMismatch,
    NotAnOrbit,
    SblinksError,
    SplittingFieldMismatch,
    XiIsCube,
    ZeroXi,
)
from .field_tower import (
    CubicExtension,
    FieldElement,
    GaloisAction,
    RationalFunction,
    TowerField,
    TriState,
    is_cube,
    is_norm,
    is_square,
)
from .linalg import (
    _proportional,
    det3,
    inverse3,
    mat,
    mat_galois,
    mat_identity,
    mat_mul,
    mat_vec,
)
from .multipoly import MPoly, squarefree_decomposition
from .scalars import QZeta


# ---------------------------------------------------------------------------
# projective coordinate helpers


def normalize_point(v):
    """Scale so that the last nonzero coordinate is 1."""
    last = None
    for i in range(len(v) - 1, -1, -1):
        if not v[i].is_zero():
            last = i
            break
    if last is None:
        raise SblinksError("zero vector is not a projective point")
    c = v[last].inverse()
    return tuple(x * c for x in v)


# ---------------------------------------------------------------------------
# canonical class strings for radicands modulo n-th powers


def _power_free_rational(q: Fraction, n: int) -> Fraction:
    """Representative of q modulo n-th powers of rationals (q > 0 or n odd)."""
    if q == 0:
        return Fraction(0)
    sign = -1 if q < 0 else 1
    q = abs(q)

    def strip(m: int) -> int:
        out = 1
        d = 2
        while d * d <= m:
            cnt = 0
            while m % d == 0:
                m //= d
                cnt += 1
            out *= d ** (cnt % n)
            d += 1
        return out * m if m > 1 else out

    r = Fraction(strip(q.numerator), strip(q.denominator))
    # denominators can be cleared modulo n-th powers: p/q ~ p*q^(n-1)
    r = Fraction(r.numerator * r.denominator ** (n - 1))
    r = Fraction(strip(r.numerator))
    if sign < 0:
        if n % 2 == 1:
            return r  # (-1) is an n-th power
        return -r
    return r


def _constant_class(c: QZeta, n: int) -> str:
    """Canonical label of a Q(zeta) constant modulo n-th powers.

    For cubes the unit classes are 1, zeta, zeta^2 and signs are absorbed;
    for squares zeta and -3 are squares, so every zeta power is absorbed and
    negative rationals are rewritten through -3.
    """
    for k in range(3):
        d = c * QZeta.zeta_pow((-k) % 3)
        if d.is_rational():
            q = d.re
            if n == 2:
                r = _power_free_rational(q, 2)
                if r < 0:
                    r = _power_free_rational(Fraction(-3) * r, 2)
                return f"{r}"
            r = _power_free_rational(q, 3)
            return f"zeta^{k}*{r}" if k else f"{r}"
    return f"~{c!r}"  # outside the canonical fragment


def radicand_class_string(rf: RationalFunction, n: int) -> str:
    """Canonical representative string of rf modulo (K*)^n."""
    cn, parts_n = squarefree_decomposition(rf.num)
    cd, parts_d = squarefree_decomposition(rf.den)
    # num and den are coprime, so a den factor of multiplicity k is a factor
    # of exponent -k, that is (-k) % n modulo n-th powers
    num = MPoly.const(rf.nvars, QZeta.one())
    for g, k in parts_n + [(g, -k) for g, k in parts_d]:
        if k % n:
            num = num * g ** (k % n)
    label = _constant_class(cn * cd.inverse(), n)
    from .field_tower import poly_str

    return f"({label})*{poly_str(num)}" if not num.is_const() else f"({label})"


# ---------------------------------------------------------------------------
# splitting descriptors


def _fixed_exponents(vectors, dim, p):
    """The nonzero a in GF(p)^dim with a . v = 0 (mod p) for every v, in
    sorted order.  dim counts the radicals of degree p, so at most 27
    candidates are tried."""
    return [
        a
        for a in product(range(p), repeat=dim)
        if any(a) and all(sum(x * y for x, y in zip(a, v)) % p == 0 for v in vectors)
    ]


def splitting_descriptor(tower: TowerField, stabilizer: list) -> tuple:
    """Canonical descriptor of the fixed field of the stabilizer subgroup.

    The descriptor lists, for each nonzero vector of the lattice of radical
    exponents fixed by the stabilizer, the canonical class of the
    corresponding radicand modulo cubes (resp. squares).
    """
    entries = []
    for p in (3, 2):
        rads = [r for r in tower.radicals if r.degree == p]
        if not rads:
            continue
        dim = len(rads)
        vectors = [[h.get(r.name, 0) for r in rads] for h in stabilizer]
        for a in _fixed_exponents(vectors, dim, p):
            rad = rads[0].radicand.one()
            for k, r in zip(a, rads):
                if k:
                    rad = rad * r.radicand ** k
            entries.append(f"{p}:{radicand_class_string(rad.base_rf(), p)}")
    return tuple(sorted(set(entries)))


# ---------------------------------------------------------------------------
# the surfaces


class SBSurface:
    """The twist S_xi of the plane by the cocycle nu_xi over L/K."""

    __slots__ = ("ext", "xi", "side", "nu", "_nu_powers", "_hash")

    def __init__(self, ext: CubicExtension, xi: FieldElement, side: int = 1):
        if xi.tower != ext.tower:
            xi = xi.lift_to(ext.tower)
        if xi.is_zero():
            raise ZeroXi("xi must be a unit of K")
        if not xi.in_base():
            raise BadExtension("xi must lie in the base field K")
        self.ext = ext
        self.xi = xi
        self.side = side
        self.nu = _nu_matrix(ext.tower, xi)
        # nu^k, the cocycle matrix of g^k, for k = 0, 1, 2
        self._nu_powers = (mat_identity(ext.tower), self.nu, mat_mul(self.nu, self.nu))
        self._hash = None
        self._check_cocycle()

    def _check_cocycle(self):
        g = self.ext.generator
        prod = mat_mul(
            self.nu, mat_mul(mat_galois(self.nu, g), mat_galois(mat_galois(self.nu, g), g))
        )
        if not _is_scalar_matrix(prod):
            raise SblinksError("cocycle condition failed: nu g(nu) g^2(nu) not scalar")

    @property
    def tower(self) -> TowerField:
        return self.ext.tower

    def twist_matrix(self, exps: dict, tower: TowerField):
        """Cocycle matrix of the group element with the given exponents,
        lifted to the given tower."""
        m = self._nu_powers[exps.get(self.ext.radical_name, 0) % 3]
        if tower == self.tower:
            return m
        return tuple(tuple(x.lift_to(tower) for x in row) for row in m)

    def twisted_apply(self, exps: dict, v, tower: TowerField):
        """The twisted action A_sigma . sigma(v) on a chart point over tower."""
        act = GaloisAction(tower, exps)
        moved = tuple(act.apply(x) for x in v)
        return normalize_point(mat_vec(self.twist_matrix(exps, tower), moved))

    def __eq__(self, other):
        return (
            isinstance(other, SBSurface)
            and self.ext == other.ext
            and self.xi == other.xi
            and self.side == other.side
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ext, self.xi, self.side))
        return self._hash

    def __repr__(self):
        return f"S_xi({self.xi!r}; L={self.tower!r}, side={self.side:+d})"

    def to_json(self):
        return {
            "xi": self.xi.to_json(),
            "extension": {
                "tower": self.tower.to_json(),
                "radical": self.ext.radical_name,
            },
            "side": self.side,
        }

    @staticmethod
    def from_json(data) -> "SBSurface":
        tower = TowerField.from_json(data["extension"]["tower"])
        ext = CubicExtension(tower, data["extension"]["radical"])
        xi = FieldElement.from_json(data["xi"])
        return SBSurface(ext, xi.lift_to(tower), data.get("side", 1))


def _nu_matrix(tower: TowerField, xi: FieldElement):
    """The cocycle matrix nu_xi, whose cube is xi times the identity."""
    zero, one = tower.zero(), tower.one()
    return mat([[zero, zero, xi], [one, zero, zero], [zero, one, zero]])


def _is_scalar_matrix(m) -> bool:
    d = m[0][0]
    if d.is_zero():
        return False
    for i in range(3):
        for j in range(3):
            if i == j:
                if m[i][j] != d:
                    return False
            elif not m[i][j].is_zero():
                return False
    return True


def make_surface(ext: CubicExtension, xi: FieldElement, side: int = 1) -> SBSurface:
    return SBSurface(ext, xi, side)


def has_rational_point(surface: SBSurface) -> TriState:
    """Delegates to the norm test; a yes carries the fixed chart point."""
    res = is_norm(surface.ext, surface.xi)
    if res.status != "yes":
        return res
    a = res.witness
    g = surface.ext.generator
    b = g.apply(a).inverse()
    point = normalize_point((a, surface.tower.one(), b))
    fixed = surface.twisted_apply(
        {surface.ext.radical_name: 1}, point, surface.tower
    )
    if fixed != point:  # pragma: no cover - sanity
        raise SblinksError("norm witness did not produce a fixed point")
    return TriState("yes", witness=point)


def is_isomorphic(s1: SBSurface, s2: SBSurface) -> TriState:
    if s1.ext != s2.ext:
        raise ExtensionMismatch("surfaces presented over different extensions")
    return is_norm(s1.ext, s1.xi / s2.xi)


def opposite(surface: SBSurface) -> SBSurface:
    return SBSurface(surface.ext, surface.xi.inverse(), -surface.side)


# ---------------------------------------------------------------------------
# closed points


@dataclass(frozen=True)
class ClosedPoint:
    surface: SBSurface
    tower: TowerField  # ambient splitting tower of the coordinates
    components: tuple  # ordered projective points
    degree: int
    descriptor: tuple
    cycle_element: dict = field(compare=False, hash=False, default=None)

    def __repr__(self):
        return (
            f"ClosedPoint(deg={self.degree}, splitting={self.descriptor}, "
            f"components={list(self.components)})"
        )

    def component_set(self):
        return set(self.components)

    def to_json(self):
        return {
            "surface": self.surface.to_json(),
            "splitting": list(self.descriptor),
            "components": [[c.to_json() for c in v] for v in self.components],
        }


def _orbit_table(surface: SBSurface, v0, tower: TowerField) -> dict:
    """g -> g . v0 under the twisted action, for every g in
    tower.group_elements() order, keyed by its exponent tuple; the identity
    keeps v0 without an application."""
    table = {}
    for g in tower.group_elements():
        key = tuple(g.values())
        table[key] = surface.twisted_apply(g, v0, tower) if any(key) else v0
    return table


def _closed_point(surface: SBSurface, tower: TowerField, comps, table=None):
    """The closed point on comps, which must be the image of the orbit table
    of v0 = comps[0], built here unless given.  The components are ordered
    v0, c v0, 2c v0 for the first cycling element c, then for degree 6
    f v0, (f + c) v0, (f + 2c) v0 for the first f off that cycle."""
    d = len(comps)
    if d % 3 != 0:
        raise BadDegree(
            f"a closed point on a non-trivial Severi-Brauer surface has degree "
            f"divisible by 3; got {d}"
        )
    if d not in (3, 6):
        raise BadDegree(f"only degrees 3 and 6 are supported here; got {d}")
    v0 = comps[0]
    if table is None:
        table = _orbit_table(surface, v0, tower)
    if set(table.values()) != set(comps):
        raise NotAnOrbit(
            "components do not form a single orbit of the twisted Galois action"
        )
    names = [r.name for r in tower.radicals]
    degrees = [r.degree for r in tower.radicals]

    def shift(g, h, k=1):
        """The exponents of g + k h."""
        return tuple((a + k * b) % n for a, b, n in zip(g, h, degrees))

    cycle = next(
        (
            g
            for g, w in table.items()
            if w != v0 and table[shift(g, g)] not in (v0, w)
        ),
        None,
    )
    if cycle is None:
        raise NotAnOrbit("no group element cycles the components")
    cycle_element = dict(zip(names, cycle))
    ordered = [v0, table[cycle], table[shift(cycle, cycle)]]
    # c (2c v0) = v0: the one place the table is checked against the action
    if surface.twisted_apply(cycle_element, ordered[2], tower) != v0:
        raise NotAnOrbit("twisted action does not cycle the components")
    if d == 6:
        flip = next(g for g, w in table.items() if w not in ordered)
        ordered += [table[shift(flip, cycle, k)] for k in range(3)]
    # Stab(v0) fixes the whole orbit, because the group is abelian
    stab = [dict(zip(names, g)) for g, w in table.items() if w == v0]
    desc = splitting_descriptor(tower, stab)
    return ClosedPoint(surface, tower, tuple(ordered), d, desc, cycle_element)


def make_closed_point(surface: SBSurface, components, tower: TowerField) -> ClosedPoint:
    comps = [normalize_point(tuple(x.lift_to(tower) for x in v)) for v in components]
    if len(set(comps)) != len(comps):
        raise NotAnOrbit("components are not pairwise distinct")
    return _closed_point(surface, tower, comps)


def closed_point_from_seed(surface: SBSurface, seed, tower: TowerField) -> ClosedPoint:
    table = _orbit_table(surface, normalize_point(seed), tower)
    return _closed_point(surface, tower, list(dict.fromkeys(table.values())), table)


def coordinate_3point(surface: SBSurface) -> ClosedPoint:
    t = surface.tower
    one, zero = t.one(), t.zero()
    comps = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    return make_closed_point(surface, comps, t)


def unit_3point(surface: SBSurface) -> ClosedPoint:
    t = surface.tower
    one = t.one()
    return closed_point_from_seed(surface, (one, one, one), t)


def _fresh_name(tower: TowerField, prefix: str) -> str:
    names = {r.name for r in tower.radicals}
    k = 1
    while f"{prefix}{k}" in names:
        k += 1
    return f"{prefix}{k}"


def second_3point(surface: SBSurface) -> ClosedPoint:
    """A degree-3 point whose splitting field is K[cbrt(xi)], distinct from L."""
    res = is_cube(surface.xi)
    if res.status == "yes":
        raise XiIsCube("xi is a cube in K; the construction needs a non-cube")
    name = _fresh_name(surface.tower, "v")
    big = surface.tower.extend(name, 3, surface.xi)
    s = big.gen(name)
    one = big.one()
    comps = []
    for i in range(3):
        xi_i = big.zeta() ** i * s
        comps.append((xi_i, one, xi_i.inverse()))
    point = make_closed_point(surface, comps, big)

    # the proof's identity: the combined cycling element acts without twist
    combined = {surface.ext.radical_name: 1, name: 1}
    act = GaloisAction(big, combined)
    for v in point.components:
        tw = surface.twisted_apply(combined, v, big)
        plain = normalize_point(tuple(act.apply(x) for x in v))
        if tw != plain:
            raise SblinksError("twisted and plain actions disagree on the orbit")

    base_desc = coordinate_3point(surface).descriptor
    if point.descriptor == base_desc:
        raise SblinksError("second point failed to produce a new splitting field")
    return point


def sixpoint_from_sqrt(surface: SBSurface, alpha: FieldElement) -> ClosedPoint:
    """Degree-6 point with splitting field L[sqrt(alpha)]."""
    alpha = alpha.lift_to(surface.tower)
    res = is_square(alpha)
    if res.status == "yes":
        raise AlphaIsSquare("alpha is a square in K")
    name = _fresh_name(surface.tower, "s")
    big = surface.tower.extend(name, 2, alpha)
    s = big.gen(name)
    zero, one = big.zero(), big.one()
    point = closed_point_from_seed(surface, (zero, one, s), big)
    # the orbit has |G| / |Stab| points, so its splitting field has degree 6
    if point.degree != 6:
        raise SblinksError("six-point construction produced the wrong degree")
    return point


# ---------------------------------------------------------------------------
# normal form at a 3-point and transport automorphisms


def normalize_3point(surface: SBSurface, point: ClosedPoint):
    """Change of coordinates phi sending the components to the coordinate
    points, with the conjugated twist in the standard shape nu_{xi'};
    returns (phi, xi', tower)."""
    if point.degree != 3:
        raise BadDegree("normal form requires a degree-3 point")
    tower = point.tower
    v1, v2, v3 = point.components
    M = mat([[v1[i], v2[i], v3[i]] for i in range(3)])
    if det3(M).is_zero():
        raise Collinear("the three components are collinear")
    phi0 = inverse3(M)
    tau = point.cycle_element
    act = GaloisAction(tower, tau)
    A_tau = surface.twist_matrix(tau, tower)
    A_raw = mat_mul(phi0, mat_mul(A_tau, mat_galois(M, act)))
    for (i, j) in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)):
        if not A_raw[i][j].is_zero():
            raise SblinksError("conjugated twist does not have the cyclic shape")
    lam = A_raw[0][2]
    mu = A_raw[1][0]
    nu = A_raw[2][1]
    zero = tower.zero()
    # D . A_raw . tau(D)^-1 = nu_{xi'} with xi' = lam tau^2(mu) tau(nu)
    D = mat(
        [
            [tower.one(), zero, zero],
            [zero, mu.inverse(), zero],
            [zero, zero, (act.apply(mu) * nu).inverse()],
        ]
    )
    phi = mat_mul(D, phi0)
    A_new = mat_mul(phi, mat_mul(A_tau, mat_galois(inverse3(phi), act)))
    xi_p = A_new[0][2]
    if not (A_new[1][0].is_one() and A_new[2][1].is_one()):
        raise SblinksError("normal form scaling failed")
    for (i, j) in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)):
        if not A_new[i][j].is_zero():
            raise SblinksError("normal form lost the cyclic shape")
    if act.apply(xi_p) != xi_p:
        raise SblinksError("normalized twist parameter is not fixed by the cycle")
    return phi, xi_p, tower


@dataclass(frozen=True)
class TwistedAutomorphism:
    matrix: tuple
    surface: SBSurface
    tower: TowerField

    def apply_point(self, v):
        return normalize_point(mat_vec(self.matrix, v))


def auto_between_3points(
    surface: SBSurface, p: ClosedPoint, q: ClosedPoint
) -> TwistedAutomorphism:
    """An automorphism of the surface carrying p onto q (same splitting field)."""
    if p.descriptor != q.descriptor or p.tower != q.tower:
        raise SplittingFieldMismatch(
            "the two points must have the same splitting field"
        )
    if p.component_set() == q.component_set():
        return TwistedAutomorphism(mat_identity(p.tower), surface, p.tower)
    try:
        return _auto_directed(surface, p, q)
    except DegenerateConfiguration:
        inv = _auto_directed(surface, q, p)
        return TwistedAutomorphism(inverse3(inv.matrix), surface, p.tower)


def _auto_directed(surface, p, q) -> TwistedAutomorphism:
    tower = p.tower
    phi, xi_p, _ = normalize_3point(surface, p)
    tau = p.cycle_element
    act = GaloisAction(tower, tau)
    A = _nu_matrix(tower, xi_p)
    # align q's orbit to the same cycling element
    q1 = q.components[0]
    q_tilde = normalize_point(mat_vec(phi, q1))
    w = normalize_point(
        mat_vec(phi, surface.twisted_apply(tau, q1, tower))
    )
    expect = normalize_point(mat_vec(A, tuple(act.apply(x) for x in q_tilde)))
    if w != expect:  # pragma: no cover - both are the conjugated twisted action
        raise SblinksError("chart conjugation is inconsistent")
    cycle = [q_tilde]
    for _ in range(2):
        prev = cycle[-1]
        cycle.append(normalize_point(mat_vec(A, tuple(act.apply(x) for x in prev))))
    start = None
    for r in range(3):
        if all(not x.is_zero() for x in cycle[r]):
            start = r
            break
    if start is None:
        raise DegenerateConfiguration(
            "all components meet the coordinate lines in this chart"
        )
    v1 = cycle[start]
    v1 = tuple(x * v1[0].inverse() for x in v1)  # first coordinate 1
    v2 = mat_vec(A, tuple(act.apply(x) for x in v1))
    v3 = mat_vec(A, tuple(act.apply(x) for x in v2))
    M = mat([[v1[i], v2[i], v3[i]] for i in range(3)])
    if det3(M).is_zero():
        raise DegenerateConfiguration("transport matrix is singular")
    matrix = mat_mul(inverse3(phi), mat_mul(M, phi))
    autom = TwistedAutomorphism(matrix, surface, tower)
    # M . A = A . tau(M) by construction; every generator must commute
    # projectively, which covers tau as well
    if not matrix_is_equivariant(matrix, surface, surface, tower):
        raise SblinksError("transport automorphism is not defined over K")
    # it must map the components of p onto those of q
    image = {autom.apply_point(v) for v in p.components}
    if image != q.component_set():
        raise SblinksError("transport automorphism does not carry p onto q")
    return autom


def _flat(m):
    """The entries of a matrix, row by row."""
    return [x for row in m for x in row]


def matrix_is_equivariant(m, source: SBSurface, target: SBSurface, tower: TowerField) -> bool:
    """Whether the linear map m from source to target is defined over K:
    m . A_source(sigma) is proportional to A_target(sigma) . sigma(m) for
    every radical generator sigma of the tower."""
    for rad in tower.radicals:
        exps = {rad.name: 1}
        lhs = mat_mul(m, source.twist_matrix(exps, tower))
        rhs = mat_mul(
            target.twist_matrix(exps, tower), mat_galois(m, GaloisAction(tower, exps))
        )
        if not _proportional(_flat(lhs), _flat(rhs)):
            return False
    return True
