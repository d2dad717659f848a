"""Rational self-maps of the plane over tower fields, equivariance checks,
and the construction of Sarkisov 3-links and 6-links from closed points.

Maps are triples of homogeneous polynomials with gcd 1.  A map's canonical
triple has its grlex-least nonzero coefficient scaled to 1, and
`RationalMap.coords` stores it cleared: scaled by one lcm of the
t-denominators of its coefficients, common to the three coordinates
(clearing each one alone would change the map), so every stored
coefficient has denominator 1.  The cleared canonical triple is unique for
each projective map, so projective equality is equality of stored
coordinates, for `==` and `hash` alike.  The canonical triple is a derived
view (`RationalMap.canonical`) that only `repr`, `to_json` and `matrix`
read.

The constructor is the one place that scales and clears a map's
coordinates.  Substitution into or of a map (`compose`, the round trip,
`is_equivariant`) runs on the stored triples, so `subst` does polynomial
arithmetic, not a rational-function gcd per add and multiply.  Triples that
are not a map's, such as the smooth cubic's section, are cleared where they
are substituted.

The constructor trusts its input, as `FieldElement` does: the coordinates
must be coprime, and it does not check this.  `_normalize_coords`, the one
reducer, runs in `compose` on a composite of no monomial shape (below), for
rho-hat and on the smooth cubic's section in `cubic_models`.  Its gcd runs
in the flat ring Q(zeta)[t, x] when every coefficient lies in Q(zeta)[t]
(`field_tower.to_flat`), else over the tower.  Every other map is coprime
by construction (the linear systems are those of Alberich-Carramiñana,
LNM 1769):

- `identity`, `standard_involution` and sigma o phi, phi invertible, are
  products of pairwise independent linear forms, which share no factor;
- `from_matrix`, `apply_matrix` and `subst_linear` refuse a singular
  matrix, and an invertible linear change keeps a coprime triple coprime;
- a 3-link's forward map is three independent conics through three
  non-collinear points: they span the net that holds the line pairs through
  the points, which share no factor.  Its backward map is `_cremona`'s
  P . D . sigma(adj(Q) x), a conic map moved by an invertible matrix;
- a 6-link's forward map and b0 are three independent quintics double at
  six points with no three collinear and no conic through all six (checked
  for p and q): that net has no fixed component.  Its backward map is
  eta^-1 . b0, eta linear with b0 o forward = J^2 . eta, J the forward
  Jacobian, and read off the values of b0 o forward and J at three points
  (`_inverse_by_values`), so an invertible matrix moves b0.

A link takes its inverse base point q as the twisted orbit of the forward
map's value at one point of one contracted curve, off the base locus
(`_image_at`); a 3-link's q inherits p's orbit data (`_inherited`).  No
substitution checks that the curve is contracted: the round trip proves q.
A 3-link's backward map P . D . sigma(adj(Q) x) has exactly the columns of
Q as base points, a 6-link's eta^-1 . b0 is double at q, and for both
backward o forward = id is certified by one rule (`_certified`).  That
round trip and every other check of a composite (`_composes_to`) compare
triples by 2x2 cross products, which needs no normal form.  `equals`
compares stored triples, which are canonical, and `is_equivariant` compares
two coprime triples, so one constant decides it (`_constant_multiple`).

`compose` and `_composes_to` decide a composite's shape before the fold
(`_composite`).  `field_tower.substitute_triple` walks each coordinate in
the free ring, where the radicals are free variables.  When every walked
coordinate is x^(m_i) times one free polynomial S, and S does not fold to
zero, the composite over the tower is x^(m_i) . fold(S): the fold is a ring
homomorphism.  That is the coprime monomial map x^(m_i - m), m the
fieldwise least m_i, so no fold, gcd or division runs, and a round trip
compares exponents.  Every link's round trip and every identity closing of
a check has this shape.  Any other composite is folded; `compose` reduces
it and `_composes_to` compares it raw.  A failed test decides nothing, since
two coordinates may fold equal from different free forms.

`base_points` needs coordinates that share no curve, and proves it by one
image mod p (`modular.coprime_certificate`), which is a proof when it
exists.  Only when it returns None does `gcd_many_homogeneous` decide.  The
solver then works on the map's own coordinates, shears only when they are
degenerate for its projection, and takes a squarefree part only when the
radical formulas find fewer distinct roots than the degree.

`TwistedMap` and `Link` are plain records; `Link` says where each link fact
is established, once, and what derived links and points inherit.

Maps, and the closed points they move, live over one tower: `compose`,
`equals` and `transport_point` raise `SblinksError` when their arguments do
not share it, and nothing lifts a map from one tower to another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from operator import sub

from .errors import (
    Collinear,
    EquivariantBasisNotFound,
    IdenticallyZero,
    NonFiniteBaseLocus,
    NotAnOrbit,
    NotEquivariant,
    BaseLocusNotSplit,
    SblinksError,
    SpecialPosition,
)
from .field_tower import (
    FieldElement,
    GaloisAction,
    TowerField,
    _lcm,
    cbrt_in_tower,
    poly_to_json,
    sqrt_in_tower,
    substitute_triple,
    to_flat,
)
from .linalg import (
    _proportional,
    _row_echelon,
    adjugate3,
    det3,
    inverse3,
    mat,
    mat_galois,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve,
)
from .modular import coprime_certificate
from .multipoly import (
    MPoly,
    _gcd_homogeneous,
    exact_div,
    gcd,
    gcd_many_homogeneous,
    resultant,
    squarefree_part,
)
from .severi_brauer import (
    ClosedPoint,
    SBSurface,
    closed_point_from_seed,
    make_closed_point,
    matrix_is_equivariant,
    normalize_3point,
    normalize_point,
    opposite,
)


# ---------------------------------------------------------------------------
# rational maps


class RationalMap:
    """A rational map P^(m-1) --> P^2 given by 3 homogeneous polynomials,
    stored as its cleared canonical triple (see the module docstring)."""

    __slots__ = ("tower", "coords", "degree", "_hash")

    def __init__(self, tower: TowerField, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise SblinksError("a map to the plane needs exactly 3 coordinates")
        if all(c.is_zero() for c in coords):
            raise IdenticallyZero("all map coordinates vanish")
        self.tower = tower
        self.coords = _cleared(_scale_canonical(coords))
        degs = {c.total_degree() for c in coords if not c.is_zero()}
        if len(degs) != 1:
            raise SblinksError("map coordinates must share one degree")
        self.degree = degs.pop()
        self._hash = None

    @property
    def nsrc(self) -> int:
        return self.coords[0].nvars

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(tower: TowerField) -> "RationalMap":
        one = tower.one()
        coords = tuple(MPoly.variable(3, i, one) for i in range(3))
        return RationalMap(tower, coords)

    @staticmethod
    def standard_involution(tower: TowerField) -> "RationalMap":
        """sigma: [x:y:z] -> [yz:xz:xy]."""
        one = tower.one()

        def mono(i, j):
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            return MPoly.monomial(3, tuple(e), one)

        return RationalMap(tower, (mono(1, 2), mono(0, 2), mono(0, 1)))

    @staticmethod
    def from_matrix(tower: TowerField, m) -> "RationalMap":
        return RationalMap(tower, _linear_forms(_invertible(m)))

    # -- queries --------------------------------------------------------------

    @property
    def canonical(self):
        """The stored triple scaled so that its grlex-least nonzero
        coefficient is 1, the form that repr, to_json and matrix show."""
        return _scale_canonical(self.coords)

    def matrix(self):
        """Coefficient matrix of a linear map."""
        if self.degree != 1:
            raise SblinksError("matrix extraction needs a linear map")
        return _coefficient_rows(self.tower, self.canonical)

    def evaluate(self, point):
        """Image of a projective point (raises if the point is in the base locus)."""
        return _image_at(self.coords, (point,), self.tower)

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RationalMap)
            and self.tower == other.tower
            and self.coords == other.coords
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tower, self.coords))
        return self._hash

    def __repr__(self):
        return "[" + " : ".join(c.terms_str("xyzw") for c in self.canonical) + "]"

    def to_json(self):
        return {
            "tower": self.tower.to_json(),
            "degree": self.degree,
            "coords": [poly_to_json(p) for p in self.canonical],
        }


def _cleared(coords):
    """The polynomials scaled by one lcm of the t-denominators of all their
    coefficients: a base-field scale common to all of them, so the map and
    its gcd are unchanged and substitution stays denominator-free."""
    coeffs = [c for p in coords for c in p.terms.values()]
    if not coeffs:
        return tuple(coords)
    tower = coeffs[0].tower
    den = _lcm((c.den for c in coeffs), tower.unit)
    if den is tower.unit:
        return tuple(coords)
    scale = tower.from_poly(den)
    return tuple(p.scale(scale) for p in coords)


def _normalize_coords(coords):
    """A denominator-free raw triple divided by the gcd of its coordinates.
    When `field_tower.to_flat` takes the triple, the gcd, of polynomials
    homogeneous in x, and the divisions run in the flat ring Q(zeta)[t, x].
    That gcd may hold a factor in t alone, so the triple is the tower
    gcd's times a scalar of K: the same map, but not the same raw triple.
    Otherwise they run over the tower.  A caller that keeps the raw triple
    fixes the scalar by `_scale_canonical`, as the `RationalMap`
    constructor does."""
    nonzero = [c for c in coords if not c.is_zero()]
    flat = to_flat(nonzero[0].some_coeff().tower, coords)
    if flat is None:
        g = gcd_many_homogeneous(nonzero)
        if g.is_const():
            return coords
        return tuple(c if c.is_zero() else exact_div(c, g) for c in coords)
    polys, hom, back = flat
    g = _gcd_homogeneous([p for p in polys if not p.is_zero()], hom)
    if g.is_const():
        return coords
    return tuple(c if c.is_zero() else back(exact_div(p, g)) for c, p in zip(coords, polys))


def _scale_canonical(coords):
    """Scale so that the grlex-least nonzero coefficient is 1."""
    best = None
    for i, c in enumerate(coords):
        for e in c.terms:
            key = (e, i)
            if best is None or key < best[0]:
                best = (key, c.terms[e])
    scale = best[1].inverse()
    return tuple(c.scale(scale) for c in coords)


def _linear_forms(m):
    """The rows of a matrix as linear forms in len(m[0]) variables."""
    n = len(m[0])
    forms = []
    for row in m:
        p = MPoly.zero(n)
        for k, c in enumerate(row):
            if not c.is_zero():
                p = p + MPoly.variable(n, k, c)
        forms.append(p)
    return forms


def _coefficient_rows(tower: TowerField, forms):
    """The coefficient rows of linear forms: the inverse of _linear_forms."""
    zero = tower.zero()
    rows = []
    for f in forms:
        row = [zero] * f.nvars
        for e, c in f.tuple_terms().items():
            row[e.index(1)] = c
        rows.append(tuple(row))
    return tuple(rows)


def _mat_times(m, coords):
    """The raw triple m . coords."""
    out = []
    for row in m:
        p = MPoly.zero(coords[0].nvars)
        for c, fj in zip(row, coords):
            if not c.is_zero():
                p = p + fj.scale(c)
        out.append(p)
    return out


def _invertible(m):
    """The 3x3 matrix m, refused as `inverse3` refuses it when singular."""
    if det3(m).is_zero():
        raise SblinksError("singular 3x3 matrix")
    return m


def equals(f: RationalMap, g: RationalMap) -> bool:
    """Projective equality of maps: equality of the stored triples, which
    are cleared canonical and so unique for each map."""
    if f.tower != g.tower:
        raise SblinksError("equals needs maps over the same tower")
    if f.nsrc != g.nsrc:
        return False
    return f.coords == g.coords


def _constant_multiple(a, b) -> bool:
    """Whether the polynomial triples a and b are nonzero and b = c . a for a
    constant c: with alpha one coefficient of the first nonzero a_k and beta
    the coefficient of b_k at the same monomial, whether
    beta . a_i == alpha . b_i for every i.  No inverse and no polynomial
    product is taken.

    A yes is never false: it gives b = (beta / alpha) . a.  A no is false
    only when b is a multiple of a by a nonconstant factor, which coprime
    triples never are: two coprime triples of one map differ by a constant.
    So a and b must be coprime, as both sides of `is_equivariant` are;
    `_proportional` decides raw triples, such as composites."""
    k = next((i for i, x in enumerate(a) if not x.is_zero()), None)
    if k is None:
        return False
    e, alpha = next(iter(a[k].terms.items()))
    beta = b[k].terms.get(e)
    if beta is None:
        return False
    return all(x.scale(beta) == y.scale(alpha) for x, y in zip(a, b))


def _substituted(f: RationalMap, h: RationalMap):
    """The coordinates of f after h, before any common factor is removed:
    the raw composite of the stored triples."""
    _check_composable(f, h)
    return _nonzero(_raw_composite(f.coords, h.coords))


def _composite(f: RationalMap, h: RationalMap):
    """f after h as (triple, coprime).  When the raw composite is
    x^(m_i) . S for one polynomial S, decided in the free ring before any
    fold (`field_tower.substitute_triple`), the triple is the coprime
    x^(m_i - m), m the fieldwise least m_i, and coprime is True: no fold,
    gcd or division runs.  Otherwise it is the raw composite, and False."""
    _check_composable(f, h)
    exps, coords = substitute_triple(f.tower, f.coords, h.coords)
    if exps is None:
        return _nonzero(coords), False
    low = tuple(map(min, *exps))
    one = f.tower.one()
    return tuple(MPoly.monomial(h.nsrc, tuple(map(sub, e, low)), one) for e in exps), True


def _check_composable(f: RationalMap, h: RationalMap):
    if f.nsrc != 3:
        raise SblinksError("outer map must be a plane map")
    if f.tower != h.tower:
        raise SblinksError("compose needs maps over the same tower")


def _nonzero(coords):
    """A composite's coordinates, refused when they all vanish."""
    if all(c.is_zero() for c in coords):
        raise IdenticallyZero(
            "composition collapses: the inner map lands in the base locus"
        )
    return coords


def _raw_composite(coords, inner):
    """The polynomials coords after the polynomials inner, with no common
    factor removed."""
    inner = list(inner)
    return tuple(c.subst(inner) for c in coords)


def _subst_cleared(coords, inner):
    """The raw composite of polynomials that are not a map's stored triple,
    both cleared first: the composite up to one base-field scalar."""
    return _raw_composite(_cleared(coords), _cleared(inner))


def _composes_to(f: RationalMap, h: RationalMap, coords) -> bool:
    """Whether f after h is projectively the triple coords, decided by cross
    products on `_composite`'s triple: the monomial one when the composite
    has that shape, so a round trip compares exponents, else the raw
    composite.  No common factor is removed."""
    return _proportional(_composite(f, h)[0], coords)


def compose(f: RationalMap, h: RationalMap) -> RationalMap:
    """f after h: substitute the coordinates of h into f and reduce, unless
    `_composite` finds the monomial triple, which is coprime already."""
    coords, coprime = _composite(f, h)
    return RationalMap(f.tower, coords if coprime else _normalize_coords(coords))


def apply_matrix(m, f: RationalMap) -> RationalMap:
    """The map x -> m . f(x), m invertible."""
    return RationalMap(f.tower, _mat_times(_invertible(m), f.coords))


def subst_linear(f: RationalMap, m) -> RationalMap:
    """The map x -> f(m x), m invertible."""
    return _after_linear(f, _invertible(m))


def _after_linear(f: RationalMap, m) -> RationalMap:
    """subst_linear for a matrix known to be invertible.  The forms are
    cleared by one lcm of their t-denominators, a base-field scalar that
    does not change the map, so the substitution runs in the free ring."""
    forms = _cleared(_linear_forms(m))
    return RationalMap(f.tower, tuple(c.subst(forms) for c in f.coords))


# ---------------------------------------------------------------------------
# twisted maps and equivariance


def is_equivariant(f: RationalMap, src: SBSurface, tgt: SBSurface) -> bool:
    """Whether f intertwines the twisted Galois actions of src and tgt,
    checked for every radical generator of the map's tower: f o A_src is
    A_tgt . sigma(f) up to one constant (`_constant_multiple`).  f's
    coordinates must be coprime, as every `RationalMap`'s are; both sides
    then are, since an invertible linear change and a field automorphism
    keep a triple coprime.  A yes is never false."""
    tower = f.tower
    coords = f.coords
    for rad in tower.radicals:
        exps = {rad.name: 1}
        act = GaloisAction(tower, exps)
        forms = _linear_forms(src.twist_matrix(exps, tower))
        lhs = [c.subst(forms) for c in coords]
        moved = [c.map_coeffs(act.apply) for c in coords]
        rhs = _mat_times(tgt.twist_matrix(exps, tower), moved)
        if not _constant_multiple(lhs, rhs):
            return False
    return True


@dataclass(frozen=True)
class TwistedMap:
    """A map with its source and target surfaces: a plain record.  A link's
    constructor certifies its forward map's equivariance, and the link's
    round trip gives the backward map's (see `Link`)."""

    map: RationalMap
    source: SBSurface
    target: SBSurface

    def to_json(self):
        return {
            "map": self.map.to_json(),
            "source": self.source.to_json(),
            "target": self.target.to_json(),
        }


@dataclass(frozen=True)
class Link:
    """A Sarkisov link, a birational map with its inverse: a plain record.

    `link_from_3point` and `link_from_6point` establish each fact once: the
    forward map's equivariance, one splitting field for both base points,
    the forward degree and backward o forward = id, which give the backward
    map's equivariance and forward o backward = id.  `_certified` checks the
    last two for both link types, on the raw composite.  Derived links and
    points inherit them: `inverse` checks nothing, `_followed_by_linear` only
    that its matrix is over K, `_inherited` only that components differ."""

    forward: TwistedMap
    backward: TwistedMap
    base_point: ClosedPoint
    inverse_base_point: ClosedPoint
    degree_class: int

    def inverse(self) -> "Link":
        return Link(
            self.backward,
            self.forward,
            self.inverse_base_point,
            self.base_point,
            self.degree_class,
        )


def _certified(link: Link) -> Link:
    """The link, once its forward degree and backward o forward = id are
    checked, the latter exactly on the raw composite."""
    expected = {3: 2, 6: 5}[link.degree_class]
    if link.forward.map.degree != expected:
        raise SblinksError(
            f"a {link.degree_class}-link must have forward degree {expected}"
        )
    identity = RationalMap.identity(link.forward.map.tower)
    if not _composes_to(link.backward.map, link.forward.map, identity.coords):
        raise SblinksError("backward o forward is not the identity")
    return link


def _followed_by_linear(link: Link, m, target: SBSurface) -> Link:
    """The link followed by the linear isomorphism m onto target: forward
    m . f, backward b o adj(m) (m^-1 up to scale, so no inverse is taken),
    and the inverse base point moved by m.  Raises NotEquivariant when m is
    not defined over K; then m carries q's twisted orbit onto the moved one,
    which inherits q's orbit data in q's order (`_inherited`).  The rest the
    new link inherits from the certified one."""
    tower = link.forward.map.tower
    if not matrix_is_equivariant(m, link.forward.target, target, tower):
        raise NotEquivariant("the linear map is not defined over K")
    # det(adj m) = det(m)^2, so one determinant proves both invertible
    forward = TwistedMap(
        RationalMap(tower, _mat_times(_invertible(m), link.forward.map.coords)),
        link.forward.source,
        target,
    )
    comps = (normalize_point(mat_vec(m, v)) for v in link.inverse_base_point.components)
    moved = _inherited(link.inverse_base_point, target, comps)
    backward = TwistedMap(
        _after_linear(link.backward.map, adjugate3(m)), target, link.backward.target
    )
    return Link(forward, backward, link.base_point, moved, link.degree_class)


# K-points (a : b : 1), |a|, |b| <= 2, where a map is read off its values
_GRID = tuple((a, b) for a in (1, -1, 2, -2, 0) for b in (1, -1, 2, -2, 0))


def _in_general_position(points) -> bool:
    """Whether no two of the plane points coincide and no three are
    collinear."""
    if len(points) < 3:
        return len(points) < 2 or not _proportional(*points)
    return all(not det3(t).is_zero() for t in combinations(points, 3))


# ---------------------------------------------------------------------------
# spaces of curves through points


def _monomials(nvars: int, degree: int):
    if nvars == 1:
        return [(degree,)]
    out = []
    for k in range(degree + 1):
        for rest in _monomials(nvars - 1, degree - k):
            out.append((k,) + rest)
    return out


def _point_rows(tower: TowerField, v, monos, degree: int, double: bool):
    """The values at the point v of the monomials of the given degree and,
    when double, of their partials in the two variables off a coordinate
    where v is nonzero: each a product of entries of one table of powers."""
    one, zero = tower.one(), tower.zero()
    pows = []
    for c in v:
        p = [one, c]
        while len(p) <= degree:
            p.append(p[-1] * c)
        pows.append(p)
    values = {}

    def value(e):
        x = values.get(e)
        if x is None:
            for i, k in enumerate(e):
                if k:
                    x = pows[i][k] if x is None else x * pows[i][k]
            x = values[e] = one if x is None else x
        return x

    rows = [tuple(value(e) for e in monos)]
    if double:
        # two affine partials suffice by Euler's relation, provided they
        # avoid a coordinate where the point is nonzero
        pivot = max(i for i in range(3) if not v[i].is_zero())
        for var in (i for i in range(3) if i != pivot):
            row = []
            for e in monos:
                k = e[var]
                if k == 0:
                    row.append(zero)
                    continue
                x = value(e[:var] + (k - 1,) + e[var + 1:])
                row.append(x if k == 1 else tower.scalar(k) * x)
            rows.append(tuple(row))
    return rows


def curves_through(tower: TowerField, components, degree: int, double: bool = False):
    """Basis of forms of the given degree vanishing at the components
    (to order 2 when double=True)."""
    monos = _monomials(3, degree)
    rows = []
    for v in components:
        rows.extend(_point_rows(tower, v, monos, degree, double))
    basis = nullspace(rows, tower)
    out = []
    for vec in basis:
        p = MPoly.zero(3)
        for e, c in zip(monos, vec):
            if not c.is_zero():
                p = p + MPoly.monomial(3, e, c)
        out.append(p)
    return out, rows


# ---------------------------------------------------------------------------
# equivariant basis descent


def _express_in_span(polys, basis, tower: TowerField):
    """The coefficients of each polynomial over the basis, a row each, from
    one elimination; None when any lies outside the span.  A row gives its
    polynomial exactly, coefficient by coefficient."""
    monos = sorted({e for q in (*basis, *polys) for e in q.terms})
    zero = tower.zero()
    rows = [tuple(q.terms.get(e, zero) for q in basis) for e in monos]
    rhss = [tuple(p.terms.get(e, zero) for e in monos) for p in polys]
    return solve(rows, rhss, tower)


def _twisted_action(src: SBSurface, tgt: SBSurface, w_basis, tower: TowerField, name):
    """The operator V -> B . sigma^-1(V) . P^T of `equivariant_triple` for
    the generator sigma of the radical `name`, on flattened 3 x k matrices."""
    exps = {name: 1}
    act_inv = GaloisAction(tower, {name: -1})
    B = mat_galois(inverse3(tgt.twist_matrix(exps, tower)), act_inv)
    src_forms = _linear_forms(src.twist_matrix(exps, tower))
    moved = [w.subst(src_forms).map_coeffs(act_inv.apply) for w in w_basis]
    Pt = _express_in_span(moved, w_basis, tower)
    if Pt is None:
        raise EquivariantBasisNotFound(
            "curve space is not stable under the twisted action"
        )

    def apply(vec):
        V = mat_galois(_rows3(vec), act_inv)
        return sum(mat_mul(mat_mul(B, V), Pt), ())

    return apply


def _rows3(vec):
    """A flattened 3 x k matrix as its three rows."""
    k = len(vec) // 3
    return tuple(vec[i * k:(i + 1) * k] for i in range(3))


def equivariant_triple(
    src: SBSurface, tgt: SBSurface, w_basis, tower: TowerField
):
    """A triple of forms in the span of w_basis that intertwines the twisted
    actions of src and tgt, found by semilinear eigenvector descent over each
    radical generator sigma in turn.

    A triple is V . w, V its 3 x k coefficient matrix over w = w_basis.  The
    operator c -> sigma^-1(A_tgt^-1 (c o A_src)) acts on V as
    V -> B . sigma^-1(V) . P^T, with B = sigma^-1(A_tgt^-1) and row j of P^T
    the coordinates of sigma^-1(w_j o A_src): one substitution per basis
    form and one span solve for them all.  The basis forms are independent,
    so V . w is an independent triple exactly when rank(V) = 3."""
    k = 3 * len(w_basis)
    one, zero = tower.one(), tower.zero()
    current = []
    for j in range(k):
        v = [zero] * k
        v[j] = one
        current.append(tuple(v))

    for rad in tower.radicals:
        G = _twisted_action(src, tgt, w_basis, tower, rad.name)
        d = rad.degree
        # rho = G^d as a scalar on the current space
        new_vectors = []
        for v in current:
            iters = [v]
            for _ in range(d):
                iters.append(G(iters[-1]))
            vd = iters[d]
            rho = None
            for a, b in zip(vd, v):
                if not b.is_zero():
                    rho = a / b
                    break
            if rho is None:
                continue
            if tuple(x * rho for x in v) != tuple(vd):
                raise EquivariantBasisNotFound(
                    "semilinear operator is not scalar on the candidate space"
                )
            roots = _unity_roots(tower, rho, d)
            for theta in roots:
                theta_inv = theta.inverse()
                acc = list(v)
                p = one
                for kk in range(1, d):
                    p = p * theta_inv
                    acc = [a + p * b for a, b in zip(acc, iters[kk])]
                if any(not a.is_zero() for a in acc):
                    new_vectors.append(tuple(acc))
                    break
        current = _independent_subset(new_vectors)
        if not current:
            raise EquivariantBasisNotFound(
                f"no equivariant vector survives the descent at {rad.name}"
            )

    for v in current:
        V = _rows3(v)
        if rank(V) == 3:
            return tuple(_mat_times(V, w_basis))
    raise EquivariantBasisNotFound(
        "equivariant vectors found, but none gives three independent forms"
    )


def _unity_roots(tower: TowerField, rho: FieldElement, d: int):
    if d == 3:
        theta = cbrt_in_tower(rho)
        if theta is None:
            return []
        z = tower.zeta()
        return [theta, theta * z, theta * z * z]
    theta = sqrt_in_tower(rho)
    if theta is None:
        return []
    return [theta, -theta]


def _independent_subset(vectors):
    """The vectors, in order, that are independent of those before them:
    the pivot columns of the matrix whose columns they are."""
    _, pivots = _row_echelon(list(zip(*vectors)))
    return [vectors[c] for c in pivots]


# ---------------------------------------------------------------------------
# images of contracted curves


def _image_at(coords, points, tower: TowerField):
    """The value of the denominator-free triple coords at the first of the
    points off its base locus, normalised.  Raises SblinksError when every
    point lies in the base locus.  At a point of a contracted curve this is
    the curve's image, checked by the caller's round trip, not here."""
    zero = tower.zero()
    for p in points:
        vals = tuple(c.eval_zero_ok(list(p), zero) for c in coords)
        if not all(v.is_zero() for v in vals):
            return normalize_point(vals)
    raise SblinksError("point lies in the base locus")


def _conic_points(conic: MPoly, v, tower: TowerField):
    """Points of the conic C through v: its second intersection
    C(d) v - B(v, d) d with the line through v in direction d, for d = e0,
    e1, e2 and (1 : 1 : 1) in turn, B(v, d) = C(v + d) - C(d) the polar
    form (C(v) = 0)."""
    one, zero = tower.one(), tower.zero()
    for d in ((one, zero, zero), (zero, one, zero), (zero, zero, one), (one, one, one)):
        c_d = conic.eval(list(d))
        b = conic.eval([a + x for a, x in zip(v, d)]) - c_d
        yield tuple(c_d * a - b * x for a, x in zip(v, d))


# ---------------------------------------------------------------------------
# base points


def base_points(f: RationalMap):
    """The finite common zero locus of the three coordinates, solved over the
    map's tower by shearing, resultants and radical-fragment root extraction.

    The coordinates must share no curve.  One image mod p proves that
    (`modular.coprime_certificate`); only when it gives no certificate does
    `gcd_many_homogeneous` decide, and a common factor raises
    NonFiniteBaseLocus.  The map's own coordinates are solved first; a
    sheared copy is built only when they are degenerate for the projection.
    The points are listed once each, in no specified order; every caller
    compares them as a set.  Polynomials of degree at most 3 go to the
    radical formulas before any factoring, so the base locus of a 3-link is
    solved without sympy, which only factors what the formulas leave
    (`_univariate_roots`), and without a squarefree pass when the formulas
    find as many distinct roots as the degree (`_binary_form_roots`).

    Every point the solve returns is a common zero, once, so no closing
    evaluation re-proves it and nothing is deduplicated.  The origin is
    tested directly.  Each other point is (x0 : y0 : z0), with x0 a root,
    checked by evaluation, of the gcd of the coordinates restricted to the
    line through the origin and (0 : y0 : z0).  The projections (y0 : z0)
    are listed once each, and so are the roots x0 on one of them.  No
    such line makes all three restrictions zero: it would be a common
    factor, which the guard above has excluded."""
    if f.nsrc != 3:
        raise SblinksError("base points are computed for plane maps")
    tower = f.tower
    nonzero = [c for c in f.coords if not c.is_zero()]
    if (
        coprime_certificate(nonzero) is None
        and not gcd_many_homogeneous(nonzero).is_const()
    ):
        raise NonFiniteBaseLocus(
            "the three coordinates share a common curve (malformed map)"
        )
    if f.degree == 1:
        return []
    last_err = None
    for coords, m in _shears(f):
        try:
            return _base_points_sheared(coords, m, tower)
        except _RetryShear as e:
            last_err = e
    raise BaseLocusNotSplit(f"no shear produced a solvable system: {last_err}")


class _RetryShear(Exception):
    pass


# the shears tried after the map's own coordinates, all of determinant != 0
_SHEARS = (
    ((1, 1, 2), (0, 1, 3), (0, 0, 1)),
    ((1, 2, 1), (1, 1, 1), (0, 1, 1)),
    ((1, 3, 5), (2, 1, 7), (1, 1, 1)),
    ((1, 5, 11), (3, 1, 2), (2, 5, 1)),
)


def _shears(f: RationalMap):
    """(coordinates, matrix m) pairs to solve: f's own coordinates with
    m = None, then f's coordinates under each matrix of _SHEARS, built only
    when the pair before was degenerate."""
    yield f.coords, None
    for rows in _SHEARS:
        m = mat([[f.tower.scalar(c) for c in row] for row in rows])
        yield subst_linear(f, m).coords, m


def _base_points_sheared(coords, m, tower: TowerField):
    """The common zeros of coords, mapped back by m (None for no shear)."""
    c1, c2, c3 = coords
    if c1.deg_in(0) <= 0:
        raise _RetryShear("first coordinate independent of x")
    u = c2 + c3.scale(tower.scalar(1))
    v = c2 + c3.scale(tower.scalar(2))
    if u.is_zero() or v.is_zero() or u.deg_in(0) <= 0 or v.deg_in(0) <= 0:
        raise _RetryShear("degenerate combination")
    try:
        r_a = resultant(c1, u, 0)
        r_b = resultant(c1, v, 0)
    except ValueError as e:
        raise _RetryShear(str(e))
    if r_a.is_zero() or r_b.is_zero():
        raise _RetryShear("vanishing resultant (shared factor)")
    gb = gcd(r_a, r_b)

    def back(p):
        return normalize_point(p if m is None else mat_vec(m, p))

    pts = []
    # (1:0:0) projects nowhere on the (y:z) line; test it directly
    origin = (tower.one(), tower.zero(), tower.zero())
    zero = tower.zero()
    if all(c.eval_zero_ok(list(origin), zero).is_zero() for c in (c1, c2, c3)):
        pts.append(back(origin))
    if gb.is_const():
        return pts
    for (y0, z0) in _binary_form_roots(gb, tower):
        uni = [_substitute_yz(c, y0, z0, tower) for c in (c1, c2, c3)]
        uni = [p for p in uni if not p.is_zero()]
        gx = uni[0]
        for p in uni[1:]:
            gx = gcd(gx, p)
        if gx.is_const():
            continue
        for x0 in _univariate_roots(gx, tower):
            pts.append(back((x0, y0, z0)))
    return pts


def _substitute_yz(c: MPoly, y0, z0, tower: TowerField):
    """c(x, y0, z0) as a univariate polynomial in x."""
    one = tower.one()
    vals = [
        MPoly.variable(1, 0, one),
        MPoly.const(1, y0),
        MPoly.const(1, z0),
    ]
    return c.subst(vals)


def _binary_form_roots(b: MPoly, tower: TowerField):
    """Projective roots (y0, z0) of a nonzero binary form in (y, z), stored
    as a 3-variable polynomial with x-degree 0.

    The radical formulas run on the dehomogenised form p itself.  When they
    find as many distinct roots as p's degree, p is squarefree and those are
    all its roots.  Only otherwise is p replaced by its squarefree part and
    solved in full (`_univariate_roots`).

    The forward map of a 3-link at a point cycled by g takes that pass.  It
    is sigma o phi (`link_from_3point`), with coordinates l1 l2, l0 l2,
    l0 l1 for lines l_i, l_i missing the base point p_i.  So c1 = l1 l2 is
    a line pair singular at p0, and c2 + c3 = l0 (l1 + l2) passes through
    p0: the resultant counts p0 twice and p1, p2 once each, and its
    degree-4 form has a double root at p0's projection."""
    roots = []
    me = b.min_exps()
    if any(me):
        b = b.shift_down(me)
        if me[1] > 0:
            roots.append((tower.zero(), tower.one()))
        if me[2] > 0:
            roots.append((tower.one(), tower.zero()))
    if b.is_const():
        return roots
    one = tower.one()
    uni = b.subst(
        [MPoly.zero(1), MPoly.variable(1, 0, one), MPoly.const(1, one)]
    )
    found = _roots_among(uni, _radical_roots(uni, tower))
    if len(found) < uni.total_degree():
        found = _univariate_roots(squarefree_part(uni), tower)
    for r in found:
        roots.append(normalize_point((r, one)))
    return roots


def _univariate_roots(p: MPoly, tower: TowerField):
    """Roots in the tower of a nonzero univariate polynomial over it
    (fragment).

    Once the root 0 is divided out, a monic p of degree d <= 3 goes to the
    radical formulas first: d distinct roots of p are all its roots, and
    nothing is factored.  Otherwise p is factored over K when its
    coefficients lie there, and the formulas run on each proper factor."""
    original = p
    roots = []
    me = p.min_exps()
    if me[0] > 0:
        roots.append(tower.zero())
        p = p.shift_down(me)
    if p.total_degree() > 0:
        p = p.monic()
        found = _roots_among(p, _radical_roots(p, tower))
        if len(found) == p.total_degree():
            return roots + found
        roots.extend(found)
        for fac in _factor_over_base(p, tower):
            if fac != p:
                roots.extend(_radical_roots(fac, tower))
    return _roots_among(original, roots)


def _roots_among(p: MPoly, candidates):
    """The distinct candidates at which the nonzero univariate p vanishes."""
    out = []
    for r in candidates:
        if r not in out and p.eval([r]).is_zero():
            out.append(r)
    return out


def _factor_over_base(p: MPoly, tower: TowerField):
    """Factor a univariate polynomial into K-irreducible pieces when all its
    coefficients lie in the base field; otherwise return [p].  Raises
    BaseLocusNotSplit when the factorisation cannot be done."""
    coeffs = list(p.terms.values())
    if not all(c.in_base() for c in coeffs):
        return [p]
    try:
        from .sympy_bridge import factor_univariate_over_k
    except ImportError as e:  # pragma: no cover
        raise BaseLocusNotSplit("sympy is needed to factor over the base field") from e
    return factor_univariate_over_k(p, tower)


def _radical_roots(p: MPoly, tower: TowerField):
    """Candidate roots of a univariate p of degree at most 3 by the linear,
    quadratic and Cardano formulas, with square and cube roots taken in the
    tower; [] when a radical is not found there or the degree is above 3.
    p need not be irreducible, and the callers check each root."""
    d = p.total_degree()
    if d == 0:
        return []
    p = p.monic()
    cs = {e[0]: c for e, c in p.tuple_terms().items()}
    zero = tower.zero()
    if d == 1:
        return [-cs.get(0, zero)]
    half = tower.scalar(Fraction(1, 2))
    if d == 2:
        b = cs.get(1, zero)
        c = cs.get(0, zero)
        disc = b * b - tower.scalar(4) * c
        s = sqrt_in_tower(disc)
        if s is None:
            return []
        return [(-b + s) * half, (-b - s) * half]
    if d == 3:
        a2 = cs.get(2, zero)
        a1 = cs.get(1, zero)
        a0 = cs.get(0, zero)
        if a2.is_zero() and a1.is_zero():
            u = cbrt_in_tower(-a0)
            if u is None:
                return []
            z = tower.zeta()
            return [u, u * z, u * z * z]
        # depressed cubic y^3 + p y + q, x = y - a2/3
        third = tower.scalar(Fraction(1, 3))
        shift = a2 * third
        pp = a1 - a2 * a2 * third
        qq = a0 - a1 * a2 * third + tower.scalar(Fraction(2, 27)) * a2 ** 3
        disc = (qq * half) ** 2 + (pp * third) ** 3
        sd = sqrt_in_tower(disc)
        if sd is None:
            return []
        u3 = -qq * half + sd
        if u3.is_zero():
            u3 = -qq * half - sd
        u = cbrt_in_tower(u3)
        if u is None or u.is_zero():
            return []
        z = tower.zeta()
        out = []
        for k in range(3):
            uk = u * z ** k
            yk = uk - pp * third / uk
            out.append(yk - shift)
        return out
    return []


# ---------------------------------------------------------------------------
# links


def _sigma_forms(m):
    """The raw triple sigma(m x) = [l1 l2 : l0 l2 : l0 l1], l_i the rows of m
    as linear forms."""
    l0, l1, l2 = _cleared(_linear_forms(m))
    return (l1 * l2, l0 * l2, l0 * l1)


def _inverse_by_values(b0: RationalMap, forward: RationalMap) -> RationalMap:
    """The backward map eta^-1 . b0 of a 6-link, b0 double at the inverse
    base point, from values alone.  The Jacobian J of forward vanishes
    exactly on its contracted curves, so b0 o forward = J^2 . eta with eta
    linear, and eta p = b0(forward(p)) / J(p)^2 at each point p with
    J(p) != 0.  Three independent such points p_j, the coordinate points
    first and then the K-points (a : b : 1) of `_GRID`, give
    eta = V . D^-1 . P^-1, with the columns p_j in P, the values
    b0(forward(p_j)) in V and D = diag(J(p_j)^2), so
    eta^-1 = P . D . V^-1, taken up to scale as P . D . adj(V): no division.

    Nothing is proved here: the link's round trip (`_certified`) proves the
    map.  When b0 o forward = J^2 . eta holds, the three values give that
    eta up to one scalar, so the same map.  Raises SblinksError when no
    three such points exist (J = 0 at every one) or V is singular."""
    tower = forward.tower
    one, zero = tower.one(), tower.zero()
    fc = forward.coords
    partials = [[c.derivative(i) for i in range(3)] for c in fc]
    axes = [tuple(one if i == j else zero for i in range(3)) for j in range(3)]
    grid = [(tower.scalar(a), tower.scalar(b), one) for a, b in _GRID]
    points, squares, values = [], [], []
    for p in axes + grid:
        if not _in_general_position(points + [p]):
            continue
        jac = det3([[d.eval_zero_ok(p, zero) for d in row] for row in partials])
        if jac.is_zero():
            continue
        image = [c.eval_zero_ok(p, zero) for c in fc]
        points.append(p)
        squares.append(jac * jac)
        values.append([c.eval_zero_ok(image, zero) for c in b0.coords])
        if len(points) == 3:
            PD = tuple(
                tuple(x * s for x, s in zip(row, squares)) for row in _columns(points)
            )
            return apply_matrix(mat_mul(PD, adjugate3(_columns(values))), b0)
    raise SblinksError("the forward map's Jacobian vanishes at the trial points")


def _columns(points):
    """The 3x3 matrix whose columns are the three points."""
    return mat([[v[i] for v in points] for i in range(3)])


def _cremona_scales(forward: RationalMap, P, adj_q):
    """The diagonal d, up to one scalar, of forward = Q . D . sigma(P^-1 x):
    at s = p0 + p1 + p2, P^-1 s = (1, 1, 1) is fixed by sigma, so
    forward(s) = Q d and d = adj(Q) . forward(s).  Raises SblinksError when
    an entry vanishes: forward is then not a quadratic map through the
    columns of P with the columns of Q as its contracted images."""
    s = [a + b + c for a, b, c in P]
    zero = forward.tower.zero()
    d = mat_vec(adj_q, [c.eval_zero_ok(s, zero) for c in forward.coords])
    if any(x.is_zero() for x in d):
        raise SblinksError("forward map is not a quadratic map through the point")
    return d


# `_cremona` builds its triple in the free ring above this many pairs of
# free-ring terms of PD and adj(Q).  Measured per call in process on a
# 2-core host: 9-135 pairs (the 3-links of the link3 and hexagon inputs over
# K[cbrt t1], and chi1 over the models tower) took 0.04-0.84 ms by tower
# products against 0.17-1.36 ms in the free ring; 3780 (chi2) and 4050
# (3-links at other points over the models tower) took 20-36 ms against
# 8-27 ms
_CREMONA_FREE_PAIRS = 1000


def _cremona(tower: TowerField, P, d, adj_q) -> RationalMap:
    """The quadratic map P . D . sigma(adj(Q) x), D = diag(d): the inverse of
    forward = Q . D . sigma(P^-1 x), P and Q invertible with columns p_i and
    q_i, q_i the image of the line that misses p_i, because
    sigma(D y) = det(D) D^-1 sigma(y) and sigma o sigma = xyz . id.  adj(Q)
    is a scalar multiple of Q^-1, so no inverse or compose is taken.

    The triple is PD . sigma(y) after y = adj(Q) x.  Its 54 coefficient
    products are tower products (`_cremona_tower`) unless the entries of PD
    and adj(Q) have more than `_CREMONA_FREE_PAIRS` pairs of free-ring
    terms; then it is one substitution in the free ring (`_cremona_free`).
    Both give the same map."""
    PD = tuple(tuple(x * y for x, y in zip(row, d)) for row in P)
    if _free_terms(PD) * _free_terms(adj_q) > _CREMONA_FREE_PAIRS:
        return RationalMap(tower, _cremona_free(tower, PD, adj_q))
    return RationalMap(tower, _cremona_tower(PD, adj_q))


def _free_terms(m) -> int:
    """The free-ring terms of a matrix's entries: over each radical monomial
    of an entry, the terms of its numerator in t."""
    return sum(len(p.terms) for row in m for x in row for p in x.nums.values())


def _cremona_tower(PD, adj_q):
    """The raw triple PD . sigma(adj(Q) x) by products over the tower."""
    return _mat_times(PD, _sigma_forms(adj_q))


def _cremona_free(tower: TowerField, PD, adj_q):
    """The raw triple PD . sigma(y), y = adj(Q) x, up to one base-field
    scalar, as one substitution in the free ring: each side is cleared by
    one lcm of its t-denominators, and each coordinate folds once."""
    sigma = _mat_times(PD, RationalMap.standard_involution(tower).coords)
    return _subst_cleared(sigma, _linear_forms(adj_q))


def link_from_3point(surface: SBSurface, point: ClosedPoint) -> Link:
    """The Sarkisov 3-link blowing up p = (p0, c p0, c^2 p0) and blowing down
    the lines through pairs of its components.  Its forward map is
    sigma o phi, phi from p's normal form, when c is the surface's generator
    g alone (`pure_g`: c names every radical, so only in a tower of height
    1, where g is the only generator), else the checked descent.  There
    `normalize_3point` checks A_raw = phi0 . A_g . g(M) = [[0, 0, lam],
    [mu, 0, 0], [0, nu, 0]], and its D = diag(1, mu^-1, (g(mu) nu)^-1) gives
    D . A_raw . g(D)^-1 = nu_{xi'} entry by entry: phi(nu_xi g v) =
    nu_{xi'} g(phi v).  sigma is over Q, sigma(nu_{xi'} u) =
    xi' nu_{xi'^-1} sigma(u), and xi' is in K (checked here), so sigma o phi
    is equivariant onto S_{xi'^-1}.  Line i misses p_i and is c^i(line 0),
    so q = (q0, c q0, c^2 q0), q0 the forward value at p1 + p2 on line 0,
    inherits p's orbit data (`_inherited`).  `_cremona` gives the backward
    map, and `_certified`'s round trip proves that line 0 goes to q0."""
    if point.degree != 3:
        raise SblinksError("link_from_3point needs a degree-3 point")
    P = _columns(point.components)
    if det3(P).is_zero():
        raise Collinear("the three components are collinear")
    tower, c = point.tower, point.cycle_element

    if c == {surface.ext.radical_name: 1}:  # pure_g
        phi, xi_p, _ = normalize_3point(surface, point)
        if not xi_p.in_base():
            raise EquivariantBasisNotFound("normalized twist parameter leaves the base field")
        fwd_map = RationalMap(tower, _sigma_forms(phi))
        xi_target = xi_p.to_base().lift_to(surface.tower).inverse()
        target = SBSurface(surface.ext, xi_target, -surface.side)
        forward = TwistedMap(fwd_map, surface, target)
    else:
        basis, _ = curves_through(tower, point.components, 2)
        if len(basis) != 3:
            raise SpecialPosition(
                f"conic system through the point has dimension {len(basis)}, not 3"
            )
        target = opposite(surface)
        fwd_map = RationalMap(tower, equivariant_triple(surface, target, basis, tower))
        forward = _checked_forward(fwd_map, surface, target)

    _, p1, p2 = point.components
    q0 = _image_at(fwd_map.coords, (tuple(a + b for a, b in zip(p1, p2)),), tower)
    q1 = target.twisted_apply(c, q0, tower)
    q = _inherited(point, target, (q0, q1, target.twisted_apply(c, q1, tower)))

    Q = _columns(q.components)
    if det3(Q).is_zero():
        raise Collinear("components are collinear")
    adj_q = adjugate3(Q)
    bwd_map = _cremona(tower, P, _cremona_scales(fwd_map, P, adj_q), adj_q)

    return _certified(Link(forward, TwistedMap(bwd_map, target, surface), point, q, 3))


def _checked_forward(fwd_map: RationalMap, surface: SBSurface, target: SBSurface):
    """The forward twisted map of a descent 3-link or a 6-link; its one
    equivariance check runs here, before the rest of the link is built."""
    if not is_equivariant(fwd_map, surface, target):
        raise EquivariantBasisNotFound("forward map failed the equivariance check")
    return TwistedMap(fwd_map, surface, target)


def conic_through_five(tower: TowerField, pts) -> MPoly:
    basis, _ = curves_through(tower, pts, 2)
    if len(basis) != 1:
        raise SpecialPosition(
            f"five points give a {len(basis)}-dimensional conic system"
        )
    return basis[0]


def _check_six_general(tower: TowerField, comps):
    """The conic through the last five of the six points.  Raises
    SpecialPosition if three of the six are collinear or that conic, the
    only one through the five, passes through the first."""
    if not _in_general_position(comps):
        raise SpecialPosition("three of the six components are collinear")
    conic = conic_through_five(tower, comps[1:])
    if conic.eval(list(comps[0])).is_zero():
        raise SpecialPosition("the six components lie on a conic")
    return conic


def link_from_6point(surface: SBSurface, point: ClosedPoint) -> Link:
    """The Sarkisov 6-link: quintics with double points at the six components;
    q is the twisted orbit of the image of the conic through the last five,
    the forward map's value at the first of `_conic_points` off the six.
    The backward map comes from values (`_inverse_by_values`), and
    `_certified` proves it."""
    if point.degree != 6:
        raise SblinksError("link_from_6point needs a degree-6 point")
    tower = point.tower
    comps = point.components
    conic = _check_six_general(tower, comps)

    # the basis spans the nullspace of the 18x21 system: rank 21 - len(basis)
    basis, _ = curves_through(tower, comps, 5, double=True)
    if len(basis) != 3:
        raise SpecialPosition(
            f"quintic double-point system has rank {21 - len(basis)} and "
            f"dimension {len(basis)}; expected 18 and 3"
        )

    target = opposite(surface)
    triple = equivariant_triple(surface, target, basis, tower)
    fwd_map = RationalMap(tower, triple)
    forward = _checked_forward(fwd_map, surface, target)

    image = _image_at(fwd_map.coords, _conic_points(conic, comps[1], tower), tower)
    q = closed_point_from_seed(target, image, tower)
    if q.degree != 6:
        raise SblinksError(f"conic images form an orbit of degree {q.degree}, not 6")
    if q.descriptor != point.descriptor:
        raise SblinksError(
            "inverse base point has a different splitting field than the base point"
        )

    _check_six_general(tower, q.components)
    b_basis, _ = curves_through(tower, q.components, 5, double=True)
    if len(b_basis) != 3:
        raise SpecialPosition(
            f"inverse quintic system has rank {21 - len(b_basis)}, not 18"
        )
    b0 = RationalMap(tower, tuple(b_basis))
    bwd_map = _inverse_by_values(b0, fwd_map)

    return _certified(Link(forward, TwistedMap(bwd_map, target, surface), point, q, 6))


def transport_point(m: RationalMap, point: ClosedPoint, target: SBSurface) -> ClosedPoint:
    """Image of a closed point under a bare map, its orbit data rebuilt."""
    if m.tower != point.tower:
        raise SblinksError("transport needs a map and a point over the same tower")
    comps = [m.evaluate(v) for v in point.components]
    return make_closed_point(target, comps, point.tower)


def _inherited(point: ClosedPoint, target: SBSurface, comps) -> ClosedPoint:
    """point's orbit data on target's normalised comps, where g comps[i] =
    comps[j] whenever g p_i = p_j, as for an equivariant map's values.  Then
    distinct comps give Stab(comps[0]) = Stab(p0), so the splitting field
    and `_closed_point`'s cycling element agree; else NotAnOrbit."""
    comps = tuple(comps)
    if len(set(comps)) != len(comps):
        raise NotAnOrbit("carried components are not pairwise distinct")
    return replace(point, surface=target, components=comps)
