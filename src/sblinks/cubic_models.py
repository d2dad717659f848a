"""Explicit cubic-surface birational models of the twisted planes.

Two models are built over a radical tower: the singular cubic
xi w^3 = lam x^3 + y^3 + lam^-1 z^3 - 3xyz, whose three singular points are
resolved by the projection map psi, and the smooth cubic
xi w^3 = lam x^3 + mu y^3 + z^3 + nu xyz with xi = 27 lam mu + nu^3, carrying
six named disjoint lines, a contraction to the twisted plane, and an
order-3 automorphism that descends to a composition of two 3-links.

All identities are verified exactly, reducing modulo the cubic relation
where a statement only holds on the surface, and each once: sigma o psi's
equivariance is derived from psi's and the involution's twist identity,
and the lines lie on the cubic by the two product identities (see the
`verify_*` functions).  No normal form is built only to be compared:

- whether two lines meet is read off the Pluecker pairing of their plane
  pairs, the 4x4 determinant of the four planes; a rank is taken only for
  degenerate or coinciding pairs;
- the linear map M that aligns the second link of the order-3 map is read
  off rho-hat's coefficients over those of the raw composite chi2 o chi1 by
  one span solve, which makes rho-hat = M . (chi2 o chi1) exact;
- order 3 is the raw identity rho-hat o rho-hat = chi1^-1 o chi2^-1, which
  the links' round trips make rho-hat^-1: no composite is normalised;
- the section's sanity checks, which no nonzero scalar changes, substitute
  cleared operands.

The section of the contraction u = (xi A1A2 : B0B2 : A1B0) is the kernel of
three linear equations over u, xi A2 u2 = B0 u0, B2 u2 = A1 u1 and
A0 u0 = B1 u1: the four 3x3 minors of their matrix.  The first two are the
contraction's own proportions.  The third holds on the cubic: under the
first two, xi A0A1A2 = B0B1B2 times u2^2 becomes
A1 B0 u2 (A0 u0 - B1 u1) = 0, and the section point lies off A1 = 0 and
B0 = 0.

Homogeneous vectors lose their content by `birational._normalize_coords`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .birational import (
    RationalMap,
    TwistedMap,
    _cleared,
    _coefficient_rows,
    _composes_to,
    _express_in_span,
    _followed_by_linear,
    _image_at,
    _inherited,
    _linear_forms,
    _mat_times,
    _normalize_coords,
    _scale_canonical,
    _subst_cleared,
    _substituted,
    is_equivariant,
    link_from_3point,
)
from .errors import (
    DegenerateTower,
    IdentityFails,
    LambdaIsCube,
    NotEquivariant,
    SblinksError,
    SectionNotFound,
    ZeroXi,
)
from .field_tower import (
    CubicExtension,
    FieldElement,
    GaloisAction,
    TowerField,
    is_cube,
    is_norm,
)
from .linalg import _proportional, det3, nullspace, rank
from .multipoly import MPoly, mod_reduce
from .severi_brauer import (
    SBSurface,
    _fresh_name,
    _nu_matrix,
    coordinate_3point,
    make_closed_point,
    normalize_point,
)

# variable order in the ambient P^3: (w, x, y, z)
W, X, Y, Z = range(4)


def reduce_mod_cubic(p: MPoly, cubic: MPoly) -> MPoly:
    """Normal form modulo the single cubic relation, eliminating w^3."""
    lead = (3, 0, 0, 0)
    if lead not in cubic.tuple_terms():
        raise SblinksError("cubic relation must contain w^3")
    return mod_reduce(p, cubic, lead)


def _check_equivariant_mod(triple, nu, g: GaloisAction, cubic: MPoly, message):
    """Raise IdentityFails(message) with the first nonzero residue unless
    triple = nu . g(triple) projectively modulo the cubic relation."""
    rhs = _mat_times(nu, tuple(p.map_coeffs(g.apply) for p in triple))
    for i in range(3):
        for j in range(i + 1, 3):
            r = reduce_mod_cubic(triple[i] * rhs[j] - triple[j] * rhs[i], cubic)
            if not r.is_zero():
                raise IdentityFails(message, residue=r)


# ---------------------------------------------------------------------------
# the singular model


@dataclass
class SingularCubicModel:
    ext: CubicExtension
    lam: FieldElement
    xi: FieldElement
    equation: MPoly  # 4-variable cubic over L
    factors: tuple  # (F0, F1, F2), 3-variable forms over L
    singular_points: tuple  # three P^3 points over L
    psi: tuple  # three 4-variable quadrics: [w^2 : w F0 : F0 F1]

    @property
    def tower(self) -> TowerField:
        return self.ext.tower

    def is_fibration_specialization(self) -> bool:
        """Whether (lam, xi) = (t1, t2), the fibred form of the model."""
        base = TowerField.rational(self.tower.nvars)
        if self.tower.nvars < 2:
            return False
        return (
            self.lam == base.t_var(0).lift_to(self.tower)
            and self.xi == base.t_var(1).lift_to(self.tower)
        )

    def equation_string(self) -> str:
        lam = self.lam.to_base()
        xi = self.xi.to_base()
        return (
            f"({xi!r})*w^3 = ({lam!r})*x^3 + y^3 + ({lam.inverse()!r})*z^3 - 3*x*y*z"
        )


def build_singular_model(lam: FieldElement, xi: FieldElement) -> SingularCubicModel:
    """Construct the singular cubic model together with its line factors,
    singular points and the projection psi to the plane; its identities are
    checked by `verify_singular_model`."""
    res = is_cube(lam)
    if res.status == "yes":
        raise LambdaIsCube("lambda must not be a cube in K")
    if xi.is_zero():
        raise ZeroXi("xi must be nonzero")
    base = lam.tower
    L = base.extend(_fresh_name(base, "u"), 3, lam)
    ext = CubicExtension(L, L.radicals[-1].name)
    lamL = lam.lift_to(L)
    xiL = xi.lift_to(L)
    u = ext.root()
    zeta = L.zeta()
    one = L.one()

    lam_i = [zeta ** i * u for i in range(3)]
    x3, y3, z3 = (MPoly.variable(3, i, one) for i in range(3))
    factors = tuple(
        x3.scale(lam_i[i]) + y3 + z3.scale(lam_i[i].inverse()) for i in range(3)
    )
    equation = (
        MPoly.monomial(4, (3, 0, 0, 0), xiL)
        - MPoly.monomial(4, (0, 3, 0, 0), lamL)
        - MPoly.monomial(4, (0, 0, 3, 0), one)
        - MPoly.monomial(4, (0, 0, 0, 3), lamL.inverse())
        + MPoly.monomial(4, (0, 1, 1, 1), L.scalar(3))
    )

    zero = L.zero()
    sing = tuple(
        normalize_point((zero, one, lam_i[k], lam_i[k] ** 2)) for k in range(3)
    )

    f0_4 = _to4(factors[0])
    f1_4 = _to4(factors[1])
    w = MPoly.variable(4, W, one)
    psi = (w * w, w * f0_4, f0_4 * f1_4)
    return SingularCubicModel(ext, lamL, xiL, equation, factors, sing, psi)


def _to4(p3: MPoly) -> MPoly:
    """Embed a form in (x, y, z) as a form in (w, x, y, z)."""
    terms = {}
    for e, c in p3.tuple_terms().items():
        terms[(0,) + e] = c
    return MPoly(4, terms)


def verify_singular_model(model: SingularCubicModel) -> dict:
    """Exact verification of the model's identities; raises IdentityFails on
    the first failure and returns a per-check report otherwise.

    sigma o psi's equivariance towards S_xi is derived.  With
    r = nu_{xi^-1} . g(psi), psi's check puts each minor psi_i r_j - psi_j r_i
    in the ideal of the cubic.  As g fixes sigma and
    sigma(nu_{xi^-1} v) = xi^-1 nu_xi sigma(v) (checked by `is_equivariant`),
    the target side nu_xi . g(sigma(psi)) is xi sigma(r), and each minor of
    (sigma(psi), sigma(r)) is a multiple of one of (psi, r):
    sigma0(psi) sigma1(r) - sigma1(psi) sigma0(r) = psi2 r2 (psi1 r0 - psi0 r1)."""
    L = model.tower
    one, zero = L.one(), L.zero()
    lam, factors = model.lam, model.factors
    # F0 F1 F2 = lam x^3 + y^3 + lam^-1 z^3 - 3xyz
    prod = factors[0] * factors[1] * factors[2]
    expected = (
        MPoly.monomial(3, (3, 0, 0), lam)
        + MPoly.monomial(3, (0, 3, 0), one)
        + MPoly.monomial(3, (0, 0, 3), lam.inverse())
        + MPoly.monomial(3, (1, 1, 1), L.scalar(-3))
    )
    if prod != expected:
        raise IdentityFails(
            "F0 F1 F2 does not expand to lam x^3 + y^3 + lam^-1 z^3 - 3xyz",
            residue=prod - expected,
        )
    # the cubic and its four partials vanish at each singular point
    for pt in model.singular_points:
        vals = [model.equation.eval_zero_ok(list(pt), zero)]
        for v in range(4):
            vals.append(model.equation.derivative(v).eval_zero_ok(list(pt), zero))
        if not all(x.is_zero() for x in vals):
            raise IdentityFails("singular point check failed", residue=vals)
    report = {"factorization": True, "singular_points": True}

    # equivariance: psi = mu . nu_{xi^-1} . g(psi) modulo the cubic
    _check_equivariant_mod(
        model.psi,
        _nu_matrix(L, model.xi.inverse()),
        model.ext.generator,
        model.equation,
        "psi is not equivariant towards S_{xi^-1}",
    )
    report["psi_equivariant_to_op"] = True

    # sigma o psi towards S_xi follows from psi's check and this identity
    sigma = RationalMap.standard_involution(L)
    op = SBSurface(model.ext, model.xi.inverse())
    if not is_equivariant(sigma, op, SBSurface(model.ext, model.xi)):
        raise IdentityFails("sigma does not carry the twist of S_{xi^-1} to S_xi")
    report["sigma_psi_equivariant"] = True
    report["fibration_specialization"] = model.is_fibration_specialization()
    return report


# ---------------------------------------------------------------------------
# the smooth model


@dataclass
class SmoothCubicModel:
    ext: CubicExtension  # distinguished lambda-radical inside L-hat
    mu_radical: str
    lam: FieldElement
    mu: FieldElement
    nu: FieldElement
    xi: FieldElement
    cubic: MPoly
    A: tuple
    B: tuple
    C: tuple
    D: tuple
    lines: tuple  # E_0..E_5 as pairs of linear forms
    lines_prime: tuple  # E'_0..E'_5
    l01: tuple
    conic0: tuple
    conic1: tuple
    contraction: tuple  # (f0, f1, f2) quadrics

    @property
    def tower(self) -> TowerField:
        return self.ext.tower

    def g_action(self) -> GaloisAction:
        return self.ext.generator

    def h_action(self) -> GaloisAction:
        return self.tower.galois_generator(self.mu_radical)

    def surface(self) -> SBSurface:
        return SBSurface(self.ext, self.xi)


def build_smooth_model(
    lam: FieldElement, mu: FieldElement, nu: FieldElement
) -> SmoothCubicModel:
    """The smooth cubic xi w^3 = lam x^3 + mu y^3 + z^3 + nu xyz over
    K[cbrt(lam), cbrt(mu)], with its six lines and plane contraction."""
    base = lam.tower
    for c in (mu, nu):
        if c.tower != base:
            raise SblinksError("lam, mu, nu must live over one base field")
    xi = lam * mu * base.scalar(27) + nu ** 3
    if xi.is_zero():
        raise ZeroXi("xi = 27 lam mu + nu^3 vanishes")
    # degree-9 Kummer check: lam, mu, lam*mu, lam*mu^2 all non-cubes
    for cand, label in (
        (lam, "lam"),
        (mu, "mu"),
        (lam * mu, "lam*mu"),
        (lam * mu ** 2, "lam*mu^2"),
    ):
        res = is_cube(cand)
        if res.status != "no":
            raise DegenerateTower(
                f"{label} must be certified a non-cube for a degree-9 tower "
                f"(got {res.status})"
            )

    L1 = base.extend(_fresh_name(base, "u"), 3, lam)
    lam_name = L1.radicals[-1].name
    Lh = L1.extend(_fresh_name(L1, "m"), 3, mu.lift_to(L1))
    mu_name = Lh.radicals[-1].name
    ext = CubicExtension(Lh, lam_name)

    lamh = lam.lift_to(Lh)
    muh = mu.lift_to(Lh)
    nuh = nu.lift_to(Lh)
    xih = xi.lift_to(Lh)
    zeta = Lh.zeta()
    one, zero = Lh.one(), Lh.zero()
    third = Lh.scalar(3).inverse()
    ul = Lh.gen(lam_name)
    um = Lh.gen(mu_name)
    lam_i = [zeta ** i * ul for i in range(3)]
    mu_i = [zeta ** i * um for i in range(3)]

    A = tuple(_linear_forms([[one, zero, -(third / r), zero] for r in lam_i]))
    B = tuple(_linear_forms([[zero, r, -(nuh * third / r), one] for r in lam_i]))
    C = tuple(_linear_forms([[one, -(third / r), zero, zero] for r in mu_i]))
    D = tuple(_linear_forms([[zero, -(nuh * third / r), r, one] for r in mu_i]))

    cubic = (
        MPoly.monomial(4, (3, 0, 0, 0), xih)
        - MPoly.monomial(4, (0, 3, 0, 0), lamh)
        - MPoly.monomial(4, (0, 0, 3, 0), muh)
        - MPoly.monomial(4, (0, 0, 0, 3), one)
        - MPoly.monomial(4, (0, 1, 1, 1), nuh)
    )

    lines = tuple(
        [(A[i], B[i]) for i in range(3)]
        + [(C[(i - 1) % 3], D[i % 3]) for i in range(3, 6)]
    )
    lines_prime = tuple(
        [(A[(i + 1) % 3], B[i]) for i in range(3)]
        + [(C[i % 3], D[i % 3]) for i in range(3, 6)]
    )
    l01 = (A[1], B[0])
    conic0 = (A[1], B[2])
    conic1 = (A[2], B[0])
    contraction = (
        (A[1] * A[2]).scale(xih),
        B[0] * B[2],
        A[1] * B[0],
    )
    return SmoothCubicModel(
        ext,
        mu_name,
        lamh,
        muh,
        nuh,
        xih,
        cubic,
        A,
        B,
        C,
        D,
        lines,
        lines_prime,
        l01,
        conic0,
        conic1,
        contraction,
    )


# index pairs (i, j), i < j, of the Pluecker coordinates p_ij
_PLUECKER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _pluecker(tower, pair):
    """The Pluecker coordinates of the line {f1 = f2 = 0}: the 2x2 minors
    p_ij = a_i b_j - a_j b_i of its two planes' coefficient rows a, b."""
    a, b = _coefficient_rows(tower, pair)
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in _PLUECKER)


def _lines_meet(tower, pair1, pair2, p, q):
    """0 or 1: intersection count of two distinct lines in P^3, given as
    plane pairs with their Pluecker coordinates p and q.

    The pairing p01 q23 - p02 q13 + p03 q12 + p12 q03 - p13 q02 + p23 q01
    is the 4x4 determinant of the four planes, by Laplace expansion along
    the first two rows: nonzero exactly when the lines are skew.  When it
    vanishes, two nonzero, non-proportional coordinate vectors are two
    distinct lines, which then meet in one point.  Every other case (a
    degenerate plane pair, or coinciding lines, which raise) is decided by
    the rank of the four planes."""
    pairing = (
        p[0] * q[5] - p[1] * q[4] + p[2] * q[3]
        + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]
    )
    if not pairing.is_zero():
        return 0
    nonzero = not all(x.is_zero() for x in p) and not all(x.is_zero() for x in q)
    if nonzero and not _proportional(p, q):
        return 1
    rk = rank(_coefficient_rows(tower, pair1 + pair2))
    if rk <= 2:
        raise SblinksError("the two lines coincide")
    return 1 if rk == 3 else 0


def verify_smooth_model(model: SmoothCubicModel) -> dict:
    """All identities of the smooth model: the two product identities
    xi A0A1A2 - B0B1B2 = xi C0C1C2 - D0D1D2 = cubic, the six disjoint lines,
    the incidence table, Galois orbit structure and the equivariance of the
    contraction.  That the lines lie on the cubic is derived: each is cut out
    by two independent planes, an A and a B or a C and a D, where one of the
    two identities makes the cubic vanish."""
    Lh = model.tower
    one = Lh.one()

    # xi A0A1A2 - B0B1B2 = xi C0C1C2 - D0D1D2 = xi w^3 - lam x^3 - mu y^3
    # - z^3 - nu xyz, exactly
    aaa, ccc = (p[0] * p[1] * p[2] for p in (model.A, model.C))
    identities = {"A0A1A2 - B0B1B2": (aaa, model.B), "C0C1C2 - D0D1D2": (ccc, model.D)}
    for name, (ppp, q) in identities.items():
        lhs = ppp.scale(model.xi) - q[0] * q[1] * q[2]
        if lhs != model.cubic:
            raise IdentityFails(
                f"product identity xi {name} fails", residue=lhs - model.cubic
            )
    report = {"fundamental_identity": True}

    # A0A1A2 = w^3 - y^3 / (27 lam)
    expect = MPoly.monomial(4, (3, 0, 0, 0), one) - MPoly.monomial(
        4, (0, 0, 3, 0), (model.lam * Lh.scalar(27)).inverse()
    )
    if aaa != expect:
        raise IdentityFails("A0A1A2 expansion fails", residue=aaa - expect)
    report["aaa_identity"] = True

    # each line's Pluecker coordinates, once
    pl = [_pluecker(Lh, e) for e in model.lines]
    for i, (f, h) in enumerate(model.lines):
        if not (f in model.A and h in model.B or f in model.C and h in model.D):
            raise IdentityFails(f"E_{i} breaks the plane-family rule (A, B or C, D)")
        if all(x.is_zero() for x in pl[i]):
            raise IdentityFails(f"the planes of E_{i} do not cut out a line")
    report["lines_on_cubic"] = True

    for i in range(6):
        for j in range(i + 1, 6):
            e, f = model.lines[i], model.lines[j]
            if _lines_meet(Lh, e, f, pl[i], pl[j]) != 0:
                raise IdentityFails(f"lines E_{i} and E_{j} are not disjoint")
    report["lines_disjoint"] = True

    expected_table = [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 1],
        [1, 0, 1, 1, 1, 1],
    ]
    got = []
    for aux in (model.l01, model.conic0, model.conic1):
        pa = _pluecker(Lh, aux)
        got.append([_lines_meet(Lh, aux, e, pa, q) for e, q in zip(model.lines, pl)])
    if got != expected_table:
        raise IdentityFails(f"incidence table mismatch: {got}")
    report["incidence_table"] = got

    # Galois orbits: g cycles A_i, B_i; h cycles C_i, D_i; each fixes the other set
    g = model.g_action()
    h = model.h_action()
    for i in range(3):
        if model.A[i].map_coeffs(g.apply) != model.A[(i + 1) % 3]:
            raise IdentityFails(f"g does not send A_{i} to A_{i+1}")
        if model.B[i].map_coeffs(g.apply) != model.B[(i + 1) % 3]:
            raise IdentityFails(f"g does not send B_{i} to B_{i+1}")
        if model.C[i].map_coeffs(h.apply) != model.C[(i + 1) % 3]:
            raise IdentityFails(f"h does not send C_{i} to C_{i+1}")
        if model.D[i].map_coeffs(h.apply) != model.D[(i + 1) % 3]:
            raise IdentityFails(f"h does not send D_{i} to D_{i+1}")
        if model.C[i].map_coeffs(g.apply) != model.C[i]:
            raise IdentityFails(f"g moves C_{i}")
        if model.A[i].map_coeffs(h.apply) != model.A[i]:
            raise IdentityFails(f"h moves A_{i}")
    report["galois_orbits"] = True

    # contraction equivariance modulo the cubic: f = mu . nu_xi . g(f)
    _check_equivariant_mod(
        model.contraction,
        _nu_matrix(Lh, model.xi),
        g,
        model.cubic,
        "contraction is not g-equivariant",
    )
    hf = tuple(p.map_coeffs(h.apply) for p in model.contraction)
    if hf != model.contraction:
        raise IdentityFails("contraction is not h-invariant")
    report["contraction_equivariant"] = True

    small = model.tower.prefix(1)
    report["xi_norm_status"] = is_norm(
        CubicExtension(small, model.tower.radicals[0].name),
        model.xi.to_base().lift_to(small),
    ).status
    return report


# ---------------------------------------------------------------------------
# the order-3 self-map and its two-link factorization


def section_of_contraction(model: SmoothCubicModel):
    """A rational section of the contraction u = (xi A1A2 : B0B2 : A1B0),
    cut out over u by three linear equations in (w, x, y, z):

        xi A2 u2 = B0 u0,    B2 u2 = A1 u1,    A0 u0 = B1 u1.

    The first two are the contraction's own proportions u0 : u2 and
    u1 : u2 with the factors A1 and B0 cancelled.  The third holds on the
    cubic: multiply xi A0A1A2 = B0B1B2 by u2^2 and substitute the first two
    to get A1 B0 u2 (A0 u0 - B1 u1) = 0.  A1 = 0 and B0 = 0 are where the
    fibre meets the auxiliary lines, and the section point lies off both.
    The point is the kernel of the 3x4 matrix of the equations, its four
    signed 3x3 minors: cubic forms in u, divided by their gcd and scaled so
    that the grlex-least nonzero coefficient is 1.  The gcd fixes the
    quotients only up to a scalar of K, which depends on the ring it runs
    in; the scaling makes the section independent of it."""
    Lh = model.tower
    u0, u1, u2 = (MPoly.variable(3, i, Lh.one()) for i in range(3))
    a0, a1, a2 = _coefficient_rows(Lh, model.A)
    b0, b1, b2 = _coefficient_rows(Lh, model.B)
    rows = [
        [u2.scale(model.xi * a2[k]) - u0.scale(b0[k]) for k in range(4)],
        [u2.scale(b2[k]) - u1.scale(a1[k]) for k in range(4)],
        [u0.scale(a0[k]) - u1.scale(b1[k]) for k in range(4)],
    ]
    minors = []
    for j in range(4):
        m = det3([[row[k] for k in range(4) if k != j] for row in rows])
        minors.append(-m if j % 2 else m)
    if all(m.is_zero() for m in minors):
        raise SectionNotFound("the equations of the fibre have no unique kernel")
    section = _scale_canonical(_normalize_coords(minors))

    # sanity: the section lands on the cubic and splits the contraction.
    # Neither statement moves when the section, the cubic or the contraction
    # is scaled by a nonzero constant, so both run on cleared operands.
    cleared = list(_cleared(section))
    (cubic,) = _cleared((model.cubic,))
    if not cubic.subst(cleared).is_zero():
        raise SectionNotFound("section does not satisfy the cubic equation")
    images = [f.subst(cleared) for f in _cleared(model.contraction)]
    if not _proportional(images, [u0, u1, u2]):
        raise SectionNotFound("section is not a right inverse")
    return tuple(section)


def order3_selfmap(model: SmoothCubicModel):
    """The order-3 self-map rho-hat of S_xi induced by [w:x:y:z] ->
    [zeta w:x:y:z], together with its factorization into two 3-links with
    splitting fields K[cbrt lam] and K[cbrt mu].

    Only rho-hat's raw triple is normalised.  rho-hat and the raw composite
    F2 o F1 of the links' forward maps both have degree 4, so one span
    solve reads off the M with rho-hat = M . (F2 o F1) = chi2' o chi1
    exactly, and `_followed_by_linear` checks that M is defined over K.
    Then rho-hat o rho-hat = chi1^-1 o chi2'^-1, compared raw by
    `_squares_to`, is rho-hat^-1 by the links' round trips: rho-hat has
    order 3, with no further gcd taken."""
    Lh = model.tower
    surface = model.surface()
    section = section_of_contraction(model)
    zeta = Lh.zeta()
    rho_section = [section[0].scale(zeta)] + list(section[1:])
    raw = _subst_cleared(model.contraction, rho_section)
    rho_hat = RationalMap(Lh, _normalize_coords(raw))  # raw has a common factor

    chi1, chi2 = _two_links(model, surface)
    composite = _substituted(chi2.forward.map, chi1.forward.map)
    m = _express_in_span(rho_hat.coords, composite, Lh)
    if m is None:
        raise IdentityFails("rho-hat is not a linear image of chi2 o chi1")
    try:
        chi2 = _followed_by_linear(chi2, m, surface)
    except NotEquivariant as e:
        raise IdentityFails(f"the alignment of chi2 fails: {e}") from e
    if not _squares_to(rho_hat, chi1.backward.map, chi2.backward.map):
        raise IdentityFails("rho-hat does not have order 3")

    # chi2 o chi1 = rho-hat, on two certified links: rho-hat is defined over K
    return TwistedMap(rho_hat, surface, surface), chi1, chi2


def _two_links(model: SmoothCubicModel, surface):
    """The two 3-links of the factorization, before the second is aligned:
    chi1 at the images of E0, E1, E2, which are the coordinate points, and
    chi2 at the images of E3, E4, E5, carried by chi1 with their orbit data
    (`_inherited`).  Each image is the contraction's value at one point of
    the line, not a substitution of the whole line."""
    chi1 = link_from_3point(surface, coordinate_3point(surface))
    q_comps = [_image_of_contracted_line(model, model.lines[i]) for i in range(3, 6)]
    q0 = make_closed_point(surface, q_comps, model.tower)
    f1 = chi1.forward
    q1 = _inherited(q0, f1.target, map(f1.map.evaluate, q0.components))
    return chi1, link_from_3point(f1.target, q1)


def _squares_to(rho: RationalMap, f: RationalMap, h: RationalMap) -> bool:
    """Whether rho o rho is projectively f o h, both raw composites compared
    by cross products: with f o h = rho^-1 this is rho^3 = id."""
    return _composes_to(rho, rho, _substituted(f, h))


def _image_of_contracted_line(model: SmoothCubicModel, pair):
    """Image point of a contracted line of the smooth model under the
    contraction (f0 : f1 : f2): its value at the first of a, b, a + b off
    the base locus, a and b spanning the line.  No substitution checks the
    contraction: the span solve rho-hat = M . (chi2 o chi1) of
    `order3_selfmap`, chi2 built at these images, proves them."""
    Lh = model.tower
    basis = nullspace(_coefficient_rows(Lh, pair), Lh)
    if len(basis) != 2:
        raise SblinksError("line is degenerate")
    a, b = basis
    points = (a, b, tuple(x + y for x, y in zip(a, b)))
    return _image_at(_cleared(model.contraction), points, Lh)
