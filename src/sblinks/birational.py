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
`is_equivariant`, the images of contracted curves) runs on the stored
triples, so `subst` does polynomial arithmetic, not a rational-function gcd
per add and multiply.  Triples that are not a map's, such as curve
parametrisations, are cleared where they are substituted.

The constructor trusts its input, as `FieldElement` does: the coordinates
must be coprime, and it does not check this.  `_normalize_coords`, the one
reducer, runs only where a raw composite becomes a map: in `compose` and
for rho-hat in `cubic_models`.  Every other map is coprime by construction
(the linear systems are those of Alberich-Carramiñana, LNM 1769):

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
  eta^-1 . b0, eta read off the raw b0 o forward by one exact division by
  J^2, J the forward Jacobian (`_inverse_by_jacobian`).

A link takes its inverse base point as the twisted orbit of the image of
one contracted curve.  `is_equivariant`, the round trip of a 3-link and
every check of a composite (`_composes_to`) compare raw triples by 2x2
cross products, which needs no normal form.

`TwistedMap` and `Link` are plain records; `Link` says where each link fact
is checked, once, and why links derived from certified ones inherit them.

Maps, and the closed points they move, live over one tower: `compose`,
`equals` and `transport_point` raise `SblinksError` when their arguments do
not share it, and nothing lifts a map from one tower to another.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    Collinear,
    EquivariantBasisNotFound,
    IdenticallyZero,
    NonFiniteBaseLocus,
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
    projectivity,
    rank,
    solve,
)
from .multipoly import (
    MPoly,
    exact_div,
    gcd,
    gcd_many,
    gcd_many_homogeneous,
    resultant,
    squarefree_part,
    try_div,
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
        zero = self.tower.zero()
        vals = tuple(c.eval_zero_ok(list(point), zero) for c in self.coords)
        if all(v.is_zero() for v in vals):
            raise SblinksError("point lies in the base locus")
        return normalize_point(vals)

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
    """A denominator-free raw triple divided by the gcd of its coordinates."""
    g = gcd_many_homogeneous([c for c in coords if not c.is_zero()])
    if g.is_const():
        return coords
    return tuple(c if c.is_zero() else exact_div(c, g) for c in coords)


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
    """Projective equality of maps via vanishing 2x2 cross products."""
    if f.tower != g.tower:
        raise SblinksError("equals needs maps over the same tower")
    if f.nsrc != g.nsrc:
        return False
    return _proportional(f.coords, g.coords)


def _substituted(f: RationalMap, h: RationalMap):
    """The coordinates of f after h, before any common factor is removed:
    the raw composite of the stored triples."""
    if f.nsrc != 3:
        raise SblinksError("outer map must be a plane map")
    if f.tower != h.tower:
        raise SblinksError("compose needs maps over the same tower")
    coords = _raw_composite(f.coords, h.coords)
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
    """Whether f after h is projectively the triple coords, decided on the
    raw composite by cross products: no common factor is removed."""
    return _proportional(_substituted(f, h), coords)


def compose(f: RationalMap, h: RationalMap) -> RationalMap:
    """f after h: substitute the coordinates of h into f and reduce."""
    return RationalMap(f.tower, _normalize_coords(_substituted(f, h)))


def apply_matrix(m, f: RationalMap) -> RationalMap:
    """The map x -> m . f(x), m invertible."""
    return RationalMap(f.tower, _mat_times(_invertible(m), f.coords))


def subst_linear(f: RationalMap, m) -> RationalMap:
    """The map x -> f(m x), m invertible."""
    forms = _linear_forms(_invertible(m))
    return RationalMap(f.tower, tuple(c.subst(forms) for c in f.coords))


# ---------------------------------------------------------------------------
# twisted maps and equivariance


def is_equivariant(f: RationalMap, src: SBSurface, tgt: SBSurface) -> bool:
    """Whether f intertwines the twisted Galois actions of src and tgt,
    checked for every radical generator of the map's tower."""
    tower = f.tower
    coords = f.coords
    for rad in tower.radicals:
        exps = {rad.name: 1}
        act = GaloisAction(tower, exps)
        forms = _linear_forms(src.twist_matrix(exps, tower))
        lhs = [c.subst(forms) for c in coords]
        moved = [c.map_coeffs(act.apply) for c in coords]
        rhs = _mat_times(tgt.twist_matrix(exps, tower), moved)
        if not _proportional(lhs, rhs):
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

    `link_from_3point` and `link_from_6point` certify each fact once: the
    forward map's equivariance, one splitting field for both base points,
    the forward degree and backward o forward = id, which give the backward
    map's equivariance and forward o backward = id.  `_certified` checks the
    last two for a 3-link; a 6-link's round trip is the exact division in
    `_inverse_by_jacobian` that builds its backward map.
    Derived links inherit them: `inverse` checks nothing, and
    `_followed_by_linear` checks only that its matrix is defined over K."""

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
    m . f, backward b o m^-1, and the inverse base point moved by m.  Raises
    NotEquivariant when m is not defined over K; the rest the new link
    inherits from the certified one."""
    tower = link.forward.map.tower
    if not matrix_is_equivariant(m, link.forward.target, target, tower):
        raise NotEquivariant("the linear map is not defined over K")
    forward = TwistedMap(apply_matrix(m, link.forward.map), link.forward.source, target)
    q = link.inverse_base_point
    moved = make_closed_point(
        target, [normalize_point(mat_vec(m, v)) for v in q.components], q.tower
    )
    backward = TwistedMap(
        subst_linear(link.backward.map, inverse3(m)), target, link.backward.target
    )
    return Link(forward, backward, link.base_point, moved, link.degree_class)


# K-points (a : b : 1), |a|, |b| <= 2, that propose a linear map pointwise
_GRID = tuple((a, b) for a in (1, -1, 2, -2, 0) for b in (1, -1, 2, -2, 0))


def _in_general_position(points) -> bool:
    """Whether no two of the plane points coincide and no three are
    collinear."""
    if len(points) < 3:
        return len(points) < 2 or not _proportional(*points)
    return all(not det3(t).is_zero() for t in combinations(points, 3))


def _linear_through(before, after):
    """A 3x3 matrix M, proposed so that M . before(p) = after(p), where
    before and after are chains of maps applied left to right: the
    projectivity between the images of four K-points (a : b : 1) of `_GRID`,
    each off the base locus of every map of both chains, no three of either
    image set collinear, and confirmed at the next grid point off those base
    loci.  M is scaled as `_scale_canonical` scales a linear map, so it
    equals the matrix of the normalised composite.  None if the grid holds
    no such five points or M fails at the fifth, where no linear map fits.

    The images are raw values of the stored triples, where
    `RationalMap.evaluate` would rescale each one by an inverse: projective
    points are all the projectivity needs, and the stored triples keep the
    arithmetic free of t-denominators.  They only propose M, and nothing is
    proved here: the callers, `order3_selfmap` (two short chains),
    `_close_in_the_middle` (two half chains of three maps) and
    `_close_merged_square` (no map before, F2 then F3 after), certify M by
    exact identities."""
    tower = (before or after)[0].tower
    zero = tower.zero()
    chains = [[f.coords for f in chain] for chain in (before, after)]

    def image(chain, p):
        for coords in chain:
            p = [c.eval_zero_ok(p, zero) for c in coords]
            if all(x.is_zero() for x in p):
                return None  # p lies in the base locus
        return p

    src, dst, m = [], [], None
    for a, b in _GRID:
        p = [tower.scalar(a), tower.scalar(b), tower.one()]
        s, d = image(chains[0], p), image(chains[1], p)
        if s is None or d is None:
            continue
        if m is not None:
            if _proportional(mat_vec(m, s), d):
                return _coefficient_rows(tower, _scale_canonical(_linear_forms(m)))
            return None
        if _in_general_position(src + [s]) and _in_general_position(dst + [d]):
            src.append(s)
            dst.append(d)
            if len(src) == 4:
                m = projectivity(src, dst)
    return None


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


def _express_in_span(p: MPoly, basis, tower: TowerField):
    """Coefficients of p over the basis, or None when outside the span."""
    monos = sorted({e for q in basis for e in q.terms} | set(p.terms))
    zero = tower.zero()
    rows = []
    for e in monos:
        rows.append(tuple(q.terms.get(e, zero) for q in basis))
    rhs = tuple(p.terms.get(e, zero) for e in monos)
    return solve(rows, rhs, tower)


def _twisted_action(src: SBSurface, tgt: SBSurface, w_basis, tower: TowerField, name):
    """The operator V -> B . sigma^-1(V) . P^T of `equivariant_triple` for
    the generator sigma of the radical `name`, on flattened 3 x k matrices."""
    exps = {name: 1}
    act_inv = GaloisAction(tower, {name: -1})
    B = mat_galois(inverse3(tgt.twist_matrix(exps, tower)), act_inv)
    src_forms = _linear_forms(src.twist_matrix(exps, tower))
    Pt = []
    for w in w_basis:
        row = _express_in_span(
            w.subst(src_forms).map_coeffs(act_inv.apply), w_basis, tower
        )
        if row is None:
            raise EquivariantBasisNotFound(
                "curve space is not stable under the twisted action"
            )
        Pt.append(row)

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
    the coordinates of sigma^-1(w_j o A_src): one substitution and one span
    solve per basis form.  The basis forms are independent, so V . w is an
    independent triple exactly when rank(V) = 3."""
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


def image_of_line(f: RationalMap, va, vb):
    """Image point of the line spanned by va, vb, assuming f contracts it."""
    return _line_image(f.coords, va, vb, f.tower)


def _line_image(coords, va, vb, tower: TowerField):
    """Image point of the line spanned by va, vb under the denominator-free
    coordinate triple, assuming the triple contracts it."""
    return _contracted_image(coords, _line_param(va, vb, tower), tower)


def _line_param(va, vb, tower: TowerField):
    """The line va + s vb in the parameter s."""
    s = MPoly.variable(1, 0, tower.one())
    return [MPoly.const(1, a) + s.scale(b) for a, b in zip(va, vb)]


def _contracted_image(coords, param, tower: TowerField):
    """Image point of the parametrised curve param under the denominator-free
    coordinate triple, assuming the triple contracts it; param is substituted
    cleared."""
    vals = _raw_composite(coords, _cleared(param))
    nonzero = [v for v in vals if not v.is_zero()]
    if not nonzero:
        raise SblinksError("curve lies in the base locus")
    g = gcd_many(nonzero) if len(nonzero) > 1 else nonzero[0].monic()
    out = []
    for v in vals:
        if v.is_zero():
            out.append(tower.zero())
        else:
            q = exact_div(v, g)
            if not q.is_const():
                raise SblinksError("curve is not contracted by the map")
            out.append(q.const_coeff())
    return normalize_point(tuple(out))


def parametrize_conic(conic: MPoly, v, tower: TowerField):
    """Quadratic parametrization of a conic through the point v on it."""
    one, zero = tower.one(), tower.zero()
    units = [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    ]
    u_pair = None
    for i in range(3):
        for j in range(i + 1, 3):
            m = mat([[v[k], units[i][k], units[j][k]] for k in range(3)])
            if not det3(m).is_zero():
                u_pair = (units[i], units[j])
                break
        if u_pair:
            break
    if u_pair is None:  # pragma: no cover
        raise SblinksError("degenerate point for conic parametrization")
    u1, u2 = u_pair

    def ev(vec):
        return conic.eval(list(vec))

    d = _line_param(u1, u2, tower)
    # C(d(s)) and the polar B(v, d(s)) = C(v + d) - C(v) - C(d)
    c_d = conic.subst(d)
    vd = [MPoly.const(1, a) + p for a, p in zip(v, d)]
    c_vd = conic.subst(vd)
    c_v = ev(v)
    b_vd = c_vd - c_d - MPoly.const(1, c_v)
    # P(s) = C(d) * v - B(v, d) * d
    param = [c_d.scale(a) - b_vd * p for a, p in zip(v, d)]
    # sanity: the parametrization stays on the conic
    if not conic.subst(param).is_zero():  # pragma: no cover
        raise SblinksError("conic parametrization failed")
    return param


def image_of_conic(f: RationalMap, conic: MPoly, through, tower: TowerField):
    param = parametrize_conic(conic, through, tower)
    return _contracted_image(f.coords, param, f.tower)


# ---------------------------------------------------------------------------
# base points


def base_points(f: RationalMap):
    """The finite common zero locus of the three coordinates, solved over the
    map's tower by shearing, resultants and radical-fragment root extraction.

    The points are listed once each, in no specified order; every caller
    compares them as a set.  Polynomials of degree at most 3 go to the
    radical formulas before any factoring, so the base locus of a 3-link is
    solved without sympy, which only factors what the formulas leave
    (`_univariate_roots`)."""
    if f.nsrc != 3:
        raise SblinksError("base points are computed for plane maps")
    tower = f.tower
    g = gcd_many_homogeneous([c for c in f.coords if not c.is_zero()])
    if not g.is_const():
        raise NonFiniteBaseLocus(
            "the three coordinates share a common curve (malformed map)"
        )
    if f.degree == 1:
        return []
    shears = _shear_matrices(tower)
    last_err = None
    for m in shears:
        try:
            pts = _base_points_sheared(f, m)
        except (_RetryShear,) as e:
            last_err = e
            continue
        out = []
        zero = tower.zero()
        for p in pts:
            vals = [c.eval_zero_ok(list(p), zero) for c in f.coords]
            if all(v.is_zero() for v in vals):
                out.append(p)
        return out
    raise BaseLocusNotSplit(f"no shear produced a solvable system: {last_err}")


class _RetryShear(Exception):
    pass


def _shear_matrices(tower: TowerField):
    one, zero = tower.one(), tower.zero()

    def s(c):
        return tower.scalar(c)

    candidates = [
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
        [[one, s(1), s(2)], [zero, one, s(3)], [zero, zero, one]],
        [[one, s(2), s(1)], [s(1), one, s(1)], [zero, s(1), one]],
        [[one, s(3), s(5)], [s(2), one, s(7)], [s(1), s(1), one]],
        [[one, s(5), s(11)], [s(3), one, s(2)], [s(2), s(5), one]],
    ]
    return [mat(c) for c in candidates if not det3(mat(c)).is_zero()]


def _base_points_sheared(f: RationalMap, m):
    tower = f.tower
    fs = subst_linear(f, m)
    c1, c2, c3 = fs.coords
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
    pts = []
    # (1:0:0) projects nowhere on the (y:z) line; test it directly
    origin = (tower.one(), tower.zero(), tower.zero())
    zero = tower.zero()
    if all(c.eval_zero_ok(list(origin), zero).is_zero() for c in (c1, c2, c3)):
        pts.append(normalize_point(mat_vec(m, origin)))
    if gb.is_const():
        return pts
    gb = squarefree_part(gb)
    proj = _binary_form_roots(gb, tower)
    for (y0, z0) in proj:
        uni = []
        for c in (c1, c2, c3):
            p = _substitute_yz(c, y0, z0, tower)
            if not p.is_zero():
                uni.append(p)
        if not uni:
            raise _RetryShear("projection annihilates all coordinates")
        gx = uni[0]
        for p in uni[1:]:
            gx = gcd(gx, p)
        if gx.is_const():
            continue
        for x0 in _univariate_roots(gx, tower):
            pts.append(normalize_point(mat_vec(m, (x0, y0, z0))))
    # dedupe
    out = []
    for p in pts:
        if p not in out:
            out.append(p)
    return out


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
    """Projective roots (y0, z0) of a squarefree binary form in (y, z),
    stored as a 3-variable polynomial with x-degree 0."""
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
    for r in _univariate_roots(uni, tower):
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


def _inverse_by_jacobian(b0: RationalMap, forward: RationalMap) -> RationalMap:
    """The exact inverse eta^-1 . b0 of forward, b0 double at the inverse base
    point.  The Jacobian J of forward vanishes exactly on its contracted
    curves, so the raw b0 o forward is J^2 . eta, eta linear; dividing by J^2
    proves it, and eta^-1 . b0 o forward = J^2 . id is the round trip.
    Raises SblinksError when J is zero, a division leaves a remainder or a
    quotient is not linear, as inverse3 does when eta is singular."""
    fc = forward.coords
    jac = det3([[c.derivative(i) for i in range(3)] for c in fc])
    if jac.is_zero():
        raise SblinksError("the forward map has a zero Jacobian")
    jac2 = jac * jac
    eta = [try_div(c, jac2) for c in _raw_composite(b0.coords, fc)]
    if any(q is None or q.total_degree() != 1 for q in eta):
        raise SblinksError("candidate backward map is not J^2 times a linear map")
    return apply_matrix(inverse3(_coefficient_rows(forward.tower, eta)), b0)


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


def _cremona(tower: TowerField, P, d, adj_q) -> RationalMap:
    """The quadratic map P . D . sigma(adj(Q) x), D = diag(d): the inverse of
    forward = Q . D . sigma(P^-1 x), P and Q invertible with columns p_i and
    q_i, q_i the image of the line that misses p_i, because
    sigma(D y) = det(D) D^-1 sigma(y) and sigma o sigma = xyz . id.  adj(Q)
    is a scalar multiple of Q^-1, so no inverse or compose is taken."""
    PD = tuple(tuple(x * y for x, y in zip(row, d)) for row in P)
    return RationalMap(tower, _mat_times(PD, _sigma_forms(adj_q)))


def link_from_3point(surface: SBSurface, point: ClosedPoint) -> Link:
    """The Sarkisov 3-link blowing up p = (v, c v, c^2 v) and blowing down the
    lines through pairs of its components.  Line i misses p_i and is c^i(line
    0), so q is the twisted orbit of the image of line 0, ordered like p when
    its cycling element is c.  `_cremona` gives the backward map in closed
    form; `_certified` checks the round trip."""
    if point.degree != 3:
        raise SblinksError("link_from_3point needs a degree-3 point")
    P = _columns(point.components)
    if det3(P).is_zero():
        raise Collinear("the three components are collinear")
    tower = point.tower
    g_name = surface.ext.radical_name
    pure_g = point.cycle_element == {g_name: 1}

    if pure_g:
        phi, xi_p, _ = normalize_3point(surface, point)
        if not xi_p.in_base():
            raise EquivariantBasisNotFound(
                "normalized twist parameter leaves the base field"
            )
        fwd_map = RationalMap(tower, _sigma_forms(phi))
        xi_target = xi_p.to_base().lift_to(surface.tower).inverse()
        target = SBSurface(surface.ext, xi_target, -surface.side)
    else:
        basis, _ = curves_through(tower, point.components, 2)
        if len(basis) != 3:
            raise SpecialPosition(
                f"conic system through the point has dimension {len(basis)}, not 3"
            )
        target = opposite(surface)
        triple = equivariant_triple(surface, target, basis, tower)
        fwd_map = RationalMap(tower, triple)

    forward = _checked_forward(fwd_map, surface, target)

    c = point.components
    q = closed_point_from_seed(target, image_of_line(fwd_map, c[1], c[2]), tower)
    if q.degree != 3 or q.cycle_element != point.cycle_element:
        raise SblinksError("line images are not a degree-3 orbit cycled like p")
    if q.descriptor != point.descriptor:
        raise SblinksError(
            "inverse base point has a different splitting field than the base point"
        )

    Q = _columns(q.components)
    if det3(Q).is_zero():
        raise Collinear("components are collinear")
    adj_q = adjugate3(Q)
    bwd_map = _cremona(tower, P, _cremona_scales(fwd_map, P, adj_q), adj_q)

    return _certified(Link(forward, TwistedMap(bwd_map, target, surface), point, q, 3))


def _checked_forward(fwd_map: RationalMap, surface: SBSurface, target: SBSurface):
    """The forward twisted map of a link; its one equivariance check runs
    here, before the rest of the link is built."""
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
    """Raises SpecialPosition if three of the six points are collinear or a
    conic passes through all six."""
    if not _in_general_position(comps):
        raise SpecialPosition("three of the six components are collinear")
    if curves_through(tower, comps, 2)[0]:
        raise SpecialPosition("the six components lie on a conic")


def link_from_6point(surface: SBSurface, point: ClosedPoint) -> Link:
    """The Sarkisov 6-link: quintics with double points at the six components;
    q is the twisted orbit of the image of the conic through five of them."""
    if point.degree != 6:
        raise SblinksError("link_from_6point needs a degree-6 point")
    tower = point.tower
    comps = point.components
    _check_six_general(tower, comps)

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
    if fwd_map.degree != 5:
        raise SblinksError("a 6-link must have forward degree 5")
    forward = _checked_forward(fwd_map, surface, target)

    conic = conic_through_five(tower, comps[1:])
    image = image_of_conic(fwd_map, conic, comps[1], tower)
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
    bwd_map = _inverse_by_jacobian(b0, fwd_map)

    return Link(forward, TwistedMap(bwd_map, target, surface), point, q, 6)


def transport_point(m: RationalMap, point: ClosedPoint, target: SBSurface) -> ClosedPoint:
    """Image of a closed point under a map (components evaluated one by one)."""
    if m.tower != point.tower:
        raise SblinksError("transport needs a map and a point over the same tower")
    comps = [m.evaluate(v) for v in point.components]
    return make_closed_point(target, comps, point.tower)
