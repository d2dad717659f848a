"""Explicit cubic-surface birational models of the twisted planes.

Two models are built over a radical tower: the singular cubic
xi w^3 = lam x^3 + y^3 + lam^-1 z^3 - 3xyz, whose three singular points are
resolved by the projection map psi, and the smooth cubic
xi w^3 = lam x^3 + mu y^3 + z^3 + nu xyz with xi = 27 lam mu + nu^3, carrying
six named disjoint lines, a contraction to the twisted plane, and an
order-3 automorphism that descends to a composition of two 3-links.

All identities are verified exactly, reducing modulo the cubic relation
where a statement only holds on the surface.  No normal form is built only
to be compared:

- whether two lines meet is read off the Pluecker pairing of their plane
  pairs, the 4x4 determinant of the four planes; a rank is taken only for
  degenerate or coinciding pairs;
- the linear map that aligns the second link of the order-3 map is proposed
  from the images of four grid points and proved by the raw identity
  rho-hat = chi2 o chi1;
- order 3 is the raw identity rho-hat o rho-hat = chi1^-1 o chi2^-1, which
  the links' round trips make rho-hat^-1: no composite is normalised;
- the section's sanity checks, which no nonzero scalar changes, substitute
  cleared operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .birational import (
    RationalMap,
    TwistedMap,
    _cleared,
    _coefficient_rows,
    _composes_to,
    _followed_by_linear,
    _line_image,
    _linear_forms,
    _linear_through,
    _mat_times,
    _subst_cleared,
    _substituted,
    link_from_3point,
    transport_point,
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
from .linalg import _proportional, nullspace, rank
from .multipoly import MPoly, NotDivisible, exact_div, gcd_many, mod_reduce
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
    the first failure and returns a per-check report otherwise."""
    L = model.tower
    g = model.ext.generator
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
        g,
        model.equation,
        "psi is not equivariant towards S_{xi^-1}",
    )
    report["psi_equivariant_to_op"] = True

    # the composite sigma o psi is equivariant towards S_xi
    sig_psi = (
        model.psi[1] * model.psi[2],
        model.psi[0] * model.psi[2],
        model.psi[0] * model.psi[1],
    )
    _check_equivariant_mod(
        sig_psi,
        _nu_matrix(L, model.xi),
        g,
        model.equation,
        "sigma o psi is not equivariant towards S_xi",
    )
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


def _line_on_cubic(tower, pair, cubic) -> bool:
    """Whether the line {f1 = f2 = 0} lies on the cubic surface."""
    basis = nullspace(_coefficient_rows(tower, pair), tower)
    if len(basis) != 2:
        return False
    a, b = basis
    one = tower.one()
    s = MPoly.variable(2, 0, one)
    r = MPoly.variable(2, 1, one)
    param = [s.scale(x) + r.scale(y) for x, y in zip(a, b)]
    return cubic.subst(param).is_zero()


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
    """All identities of the smooth model: the fundamental cubic identity,
    the six disjoint lines, the incidence table, Galois orbit structure and
    the equivariance of the contraction."""
    Lh = model.tower
    report = {}
    one = Lh.one()

    # xi A0A1A2 - B0B1B2 = xi w^3 - lam x^3 - mu y^3 - z^3 - nu xyz, exactly
    aaa = model.A[0] * model.A[1] * model.A[2]
    bbb = model.B[0] * model.B[1] * model.B[2]
    lhs = aaa.scale(model.xi) - bbb
    if lhs != model.cubic:
        raise IdentityFails(
            "fundamental identity xi A0A1A2 - B0B1B2 fails",
            residue=lhs - model.cubic,
        )
    report["fundamental_identity"] = True

    # A0A1A2 = w^3 - y^3 / (27 lam)
    expect = MPoly.monomial(4, (3, 0, 0, 0), one) - MPoly.monomial(
        4, (0, 0, 3, 0), (model.lam * Lh.scalar(27)).inverse()
    )
    if aaa != expect:
        raise IdentityFails("A0A1A2 expansion fails", residue=aaa - expect)
    report["aaa_identity"] = True

    for i, pair in enumerate(model.lines):
        if not _line_on_cubic(Lh, pair, model.cubic):
            raise IdentityFails(f"line E_{i} does not lie on the cubic")
    report["lines_on_cubic"] = True

    # each line's Pluecker coordinates, once
    pl = [_pluecker(Lh, e) for e in model.lines]
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
    """A rational section of the contraction: the residual intersection of
    the fibre line of the quadric system with the cubic, after removing the
    two intersections with the auxiliary lines."""
    Lh = model.tower
    one = Lh.one()
    # variables: (s, r, u0, u1, u2)
    NV = 5

    a1, a2, b0, b2 = _coefficient_rows(
        Lh, (model.A[1], model.A[2], model.B[0], model.B[2])
    )

    def u_mono(i):
        e = [0] * NV
        e[2 + i] = 1
        return e

    # R1 = xi A2 u2 - B0 u0, R2 = B2 u2 - A1 u1: rows over L[u]
    row1 = [
        MPoly.monomial(NV, tuple(u_mono(2)), model.xi * a2[k])
        - MPoly.monomial(NV, tuple(u_mono(0)), b0[k])
        for k in range(4)
    ]
    row2 = [
        MPoly.monomial(NV, tuple(u_mono(2)), b2[k])
        - MPoly.monomial(NV, tuple(u_mono(1)), a1[k])
        for k in range(4)
    ]

    def det2(c1, c2):
        return row1[c1] * row2[c2] - row1[c2] * row2[c1]

    # Cramer nullspace vectors of the 2x4 system, omitting one column each
    def null_vector(omit):
        cols = [c for c in range(4) if c != omit]
        v = [MPoly.zero(NV)] * 4
        v[cols[0]] = det2(cols[1], cols[2])
        v[cols[1]] = -det2(cols[0], cols[2])
        v[cols[2]] = det2(cols[0], cols[1])
        return v

    P = None
    Q = None
    for omit_p in range(4):
        cand = null_vector(omit_p)
        if any(not c.is_zero() for c in cand):
            cand = _strip_vector_content(cand)
            if P is None:
                P = cand
            elif not _proportional(P, cand):
                Q = cand
                break
    if P is None or Q is None:
        raise SectionNotFound("fibre line of the contraction is degenerate")

    s = MPoly.variable(NV, 0, one)
    r = MPoly.variable(NV, 1, one)
    line = [s * p + r * q for p, q in zip(P, Q)]

    cubic5 = model.cubic.subst(line)

    # the fibre line meets the two auxiliary conic-lines where A1 resp. A2 vanish
    at_p = _mat_times((a1, a2), P)
    at_q = _mat_times((a1, a2), Q)
    l1, l2 = (_strip_sr_content(s * vp + r * vq) for vp, vq in zip(at_p, at_q))
    try:
        rest = exact_div(cubic5, l1)
        rest = exact_div(rest, l2)
    except NotDivisible as e:
        raise SectionNotFound(f"spurious roots do not divide the fibre cubic: {e}")
    # rest = a s + b r: the residual root (s : r) = (b : -a)
    a = MPoly.zero(NV)
    b = MPoly.zero(NV)
    for e, c in rest.tuple_terms().items():
        if e[0] == 1 and e[1] == 0:
            a = a + MPoly.monomial(NV, (0, 0) + e[2:], c)
        elif e[0] == 0 and e[1] == 1:
            b = b + MPoly.monomial(NV, (0, 0) + e[2:], c)
        else:
            raise SectionNotFound("residual factor is not linear in the fibre")
    section5 = [b * p - a * q for p, q in zip(P, Q)]

    # drop the (now unused) s, r slots: results live in u only
    def drop_sr(p5):
        terms = {}
        for e, c in p5.tuple_terms().items():
            if e[0] or e[1]:
                raise SectionNotFound("section still depends on the fibre parameter")
            terms[e[2:]] = c
        return MPoly(3, terms)

    section = _strip_vector_content([drop_sr(p) for p in section5])

    # sanity: the section lands on the cubic and splits the contraction.
    # Neither statement moves when the section, the cubic or the contraction
    # is scaled by a nonzero constant, so both run on cleared operands.
    cleared = list(_cleared(section))
    (cubic,) = _cleared((model.cubic,))
    if not cubic.subst(cleared).is_zero():
        raise SectionNotFound("section does not satisfy the cubic equation")
    u_vars = [MPoly.variable(3, i, one) for i in range(3)]
    images = [f.subst(cleared) for f in _cleared(model.contraction)]
    if not _proportional(images, u_vars):
        raise SectionNotFound("section is not a right inverse")
    return tuple(section)


def order3_selfmap(model: SmoothCubicModel):
    """The order-3 self-map rho-hat of S_xi induced by [w:x:y:z] ->
    [zeta w:x:y:z], together with its factorization into two 3-links with
    splitting fields K[cbrt lam] and K[cbrt mu].

    No composite is normalised.  The second link is aligned by a linear map
    M proposed pointwise (`_linear_through`: M sends chi2(chi1(p)) to
    rho-hat(p) at four grid points) and proved by the raw identity
    rho-hat = chi2' o chi1.  Then rho-hat o rho-hat = chi1^-1 o chi2'^-1,
    compared raw by `_squares_to`, is rho-hat^-1 by the links' round trips:
    rho-hat has order 3, with no gcd taken."""
    Lh = model.tower
    surface = model.surface()
    section = section_of_contraction(model)
    zeta = Lh.zeta()
    rho_section = [section[0].scale(zeta)] + list(section[1:])
    # normalising removes the scale that clearing puts on the raw triple
    rho_hat = RationalMap(Lh, _subst_cleared(model.contraction, rho_section))

    chi1, chi2 = _two_links(model, surface)
    m = _linear_through((chi1.forward.map, chi2.forward.map), (rho_hat,))
    if m is None:
        raise IdentityFails("no four grid points propose the alignment of chi2")
    try:
        chi2 = _followed_by_linear(chi2, m, surface)
    except NotEquivariant as e:
        raise IdentityFails(f"the proposed alignment of chi2 fails: {e}") from e
    if not _composes_to(chi2.forward.map, chi1.forward.map, rho_hat.coords):
        raise IdentityFails("rho-hat != chi2 o chi1 after alignment")
    if not _squares_to(rho_hat, chi1.backward.map, chi2.backward.map):
        raise IdentityFails("rho-hat does not have order 3")

    # chi2 o chi1 = rho-hat, on two certified links: rho-hat is defined over K
    return TwistedMap(rho_hat, surface, surface), chi1, chi2


def _two_links(model: SmoothCubicModel, surface):
    """The two 3-links of the factorization, before the second is aligned:
    chi1 at the images of E0, E1, E2, which are the coordinate points, and
    chi2 at the images of E3, E4, E5, transported by chi1."""
    chi1 = link_from_3point(surface, coordinate_3point(surface))
    q_comps = [_image_of_contracted_line(model, model.lines[i]) for i in range(3, 6)]
    q0 = make_closed_point(surface, q_comps, model.tower)
    q1 = transport_point(chi1.forward.map, q0, chi1.forward.target)
    return chi1, link_from_3point(chi1.forward.target, q1)


def _squares_to(rho: RationalMap, f: RationalMap, h: RationalMap) -> bool:
    """Whether rho o rho is projectively f o h, both raw composites compared
    by cross products: with f o h = rho^-1 this is rho^3 = id."""
    return _composes_to(rho, rho, _substituted(f, h))


def _strip_sr_content(p: MPoly) -> MPoly:
    """Remove the u-content of a polynomial in (s, r, u0, u1, u2)."""
    buckets = {}
    for e, c in p.tuple_terms().items():
        key = e[:2]
        buckets.setdefault(key, {})[(0, 0) + e[2:]] = c
    polys = [MPoly(p.nvars, t) for t in buckets.values()]
    g = gcd_many(polys)
    if g.is_const():
        return p
    return exact_div(p, g)


def _strip_vector_content(vec):
    nonzero = [p for p in vec if not p.is_zero()]
    g = gcd_many(nonzero)
    if g.is_const():
        return vec
    return [p if p.is_zero() else exact_div(p, g) for p in vec]


def _image_of_contracted_line(model: SmoothCubicModel, pair):
    """Image point of a contracted line of the smooth model under the
    contraction (f0 : f1 : f2)."""
    Lh = model.tower
    basis = nullspace(_coefficient_rows(Lh, pair), Lh)
    if len(basis) != 2:
        raise SblinksError("line is degenerate")
    return _line_image(_cleared(model.contraction), *basis, Lh)
