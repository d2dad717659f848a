"""The benchmark's four workloads.

Each workload makes its inputs from a seed during set-up, and one op is one
construction through the public `sblinks` API followed by `check`, an exact
re-check of the output that does not rely on the constructor's own checks.
`build` and `check` both count in the op's time.

Why these four (each stresses other layers; see NOTES.md for the table of
which layer metric should move on which workload):

- link3: many mid-size ops on degree-2 maps; the only workload that reaches
  resultants, `sympy_bridge` factoring and radical root extraction, through
  `base_points`.
- link6: few large ops in a degree-6 two-radical tower: the 18x21
  double-point nullspace, the equivariant descent over two generators and
  composition of quintics, where `gcd_many_homogeneous` does most of the work.
- hexagon: six chained 3-links whose composite grows, so `compose` with
  normalisation and the word algebra carry the load, with no base-locus
  solving.
- models: the smooth cubic model and its order-3 map over a tower with two
  radicals and a rational-function radicand, the only workload that reaches
  `cubic_models`; its inputs are fixed, so the seed changes nothing.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Library calls go through module attributes, not names bound at import,
# so that the traced run sees them once the tracer has wrapped the modules.
import sblinks as sb

# Input generation gives up after this many attempts per input wanted.
ATTEMPTS_PER_INPUT = 20


class InputError(RuntimeError):
    """The seed could not produce the full list of inputs."""


def _base_surface():
    """S_{t2} over L = K[cbrt t1], K = Q(zeta)(t1, t2)."""
    K = sb.TowerField.rational(2)
    t1, t2 = K.t_var(0), K.t_var(1)
    L = K.extend("u", 3, t1)
    S = sb.make_surface(sb.CubicExtension(L, "u"), t2.lift_to(L))
    return K, L, S


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))


def _monomial(rng: random.Random, K, exps):
    e = K.scalar(_coefficient(rng))
    for i, k in enumerate(exps):
        e = e * K.t_var(i) ** k
    return e


class Workload:
    """One workload: `setup` makes `n` inputs from a seed and returns them
    with the number of attempts it took; `build` runs the construction and
    `check` verifies its output."""

    name = ""
    trace_ops = 1  # ops in the traced pass, fixed so that call counts repeat
    min_op_s = 1.0  # floor on an op's time; sizes the input list of a run

    def inputs_for(self, seconds: int | None) -> int:
        if seconds is None:
            return self.trace_ops
        return int(seconds / self.min_op_s) + 1

    def setup(self, seed: int, n: int):
        rng = random.Random(seed)
        self.prepare()
        inputs, keys, attempts = [], set(), 0
        while len(inputs) < n:
            if attempts >= ATTEMPTS_PER_INPUT * n:
                raise InputError(
                    f"{self.name}: seed {seed} gave {len(inputs)} of {n} inputs "
                    f"in {attempts} attempts"
                )
            attempts += 1
            try:
                made = self.candidate(rng)
            except sb.SblinksError:
                continue
            if made is not None and made[0] not in keys:
                keys.add(made[0])
                inputs.append(made[1])
        return inputs, attempts

    def prepare(self):
        """Build the towers and surfaces shared by every input."""

    def candidate(self, rng: random.Random):
        """One attempt at an input: (key, input), or None when rejected.
        Keys keep the inputs of a run distinct."""
        raise NotImplementedError

    def build(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError


class Link3(Workload):
    name = "link3"
    trace_ops = 1
    min_op_s = 1.0

    def prepare(self):
        _, self.L, self.S = _base_surface()
        self.identity = sb.RationalMap.identity(self.L)

    def candidate(self, rng):
        L = self.L
        a, b, c = (rng.randint(1, 9) for _ in range(3))
        if a * c == b * b:
            # A seed in geometric progression gives a point whose op takes
            # about 0.7 s against 5 s at other seeds; one in a run would
            # move its ops_per_s by a fifth, so these stay out.
            return None
        seed = (L.scalar(a), L.scalar(b), L.scalar(c))
        point = sb.severi_brauer.closed_point_from_seed(self.S, seed, L)
        if point.degree != 3:
            return None
        return frozenset(point.components), point

    def build(self, point):
        return sb.link_from_3point(self.S, point)

    def check(self, point, link) -> bool:
        fwd, bwd = link.forward.map, link.backward.map
        return (
            fwd.degree == 2
            and sb.equals(sb.compose(bwd, fwd), self.identity)
            and set(sb.base_points(fwd)) == point.component_set()
        )


class Link6(Workload):
    """alpha = c t1^a t2 with a seeded rational c and a in 0..2.  Radicands
    that are not monomials stay out: alpha = t2 + 1 took minutes per op."""

    name = "link6"
    trace_ops = 1
    min_op_s = 4.0

    def prepare(self):
        self.K, _, self.S = _base_surface()

    def candidate(self, rng):
        alpha = _monomial(rng, self.K, (rng.randint(0, 2), 1))
        return alpha, sb.sixpoint_from_sqrt(self.S, alpha)

    def build(self, point):
        return sb.link_from_6point(self.S, point)

    def check(self, point, link) -> bool:
        fwd, bwd = link.forward.map, link.backward.map
        tower, comps = point.tower, point.components
        _, rows = sb.birational.curves_through(tower, comps, 5, double=True)
        return (
            sb.linalg.rank(rows) == 18
            and fwd.degree == 5
            and sb.equals(sb.compose(bwd, fwd), sb.RationalMap.identity(tower))
        )


class Hexagon(Workload):
    """S_xi over K[cbrt lam], at the coordinate and unit points, with
    lam = c t_i and xi = c' t_i^a t_j^b, b in {1, 2}: base monomials for
    which `is_norm(xi)` is `no` by its weighted-degree certificate."""

    name = "hexagon"
    trace_ops = 3
    min_op_s = 0.8

    def prepare(self):
        self.K = sb.TowerField.rational(2)

    def candidate(self, rng):
        K = self.K
        i = rng.randint(0, 1)
        exps = [0, 0]
        exps[i] = 1
        lam = _monomial(rng, K, exps)
        exps[i], exps[1 - i] = rng.randint(0, 2), rng.randint(1, 2)
        xi = _monomial(rng, K, exps)
        Lh = K.extend("u", 3, lam)
        ext = sb.CubicExtension(Lh, "u")
        xi = xi.lift_to(Lh)
        if sb.is_norm(ext, xi).status != "no":
            return None
        S = sb.make_surface(ext, xi)
        return (lam, xi.base_rf()), (S, sb.coordinate_3point(S), sb.unit_3point(S))

    def build(self, inp):
        S, p, q = inp
        return sb.hexagon(S, p, q)

    def check(self, inp, out) -> bool:
        S, p, q = inp
        links, report = out
        composite = links[0].forward.map
        for link in links[1:]:
            composite = sb.compose(link.forward.map, composite)
        descs = [link.base_point.descriptor for link in links]
        return (
            len(links) == 6
            and sb.equals(composite, sb.RationalMap.identity(S.tower))
            and report.ok()
            and sb.psi_compose(links).is_empty()
            and descs[0] == descs[2] == descs[4] == p.descriptor
            and descs[1] == descs[3] == descs[5] == q.descriptor
        )


class Models(Workload):
    """The singular model (t1, t2), then the smooth model lam = t1,
    mu = (t2 - 1)/(27 t1), nu = 1 with its order-3 self-map."""

    name = "models"
    trace_ops = 1
    min_op_s = 4.0

    def setup(self, seed, n):
        K = sb.TowerField.rational(2)
        t1, t2 = K.t_var(0), K.t_var(1)
        args = (t1, t2, (t2 - K.one()) / (K.scalar(27) * t1), K.one())
        return [args] * n, n

    def build(self, args):
        lam, xi, mu, nu = args
        singular = sb.verify_singular_model(sb.build_singular_model(lam, xi))
        model = sb.build_smooth_model(lam, mu, nu)
        smooth = sb.verify_smooth_model(model)
        return singular, model, smooth, sb.order3_selfmap(model)

    def check(self, _, out) -> bool:
        singular, model, smooth, (rho, chi1, chi2) = out
        identity = sb.RationalMap.identity(model.tower)

        def classes(x):
            return {
                f"3:{sb.severi_brauer.radicand_class_string(x.base_rf(), 3)}",
                f"3:{sb.severi_brauer.radicand_class_string((x ** 2).base_rf(), 3)}",
            }

        return (
            all(
                singular[k]
                for k in (
                    "factorization",
                    "singular_points",
                    "psi_equivariant_to_op",
                    "sigma_psi_equivariant",
                    "fibration_specialization",
                )
            )
            and smooth["fundamental_identity"]
            and smooth["incidence_table"]
            == [[1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1], [1, 0, 1, 1, 1, 1]]
            and sb.equals(sb.compose(rho.map, sb.compose(rho.map, rho.map)), identity)
            and sb.equals(sb.compose(chi2.forward.map, chi1.forward.map), rho.map)
            and set(chi1.base_point.descriptor) == classes(model.lam)
            and set(chi2.base_point.descriptor) == classes(model.mu)
        )


WORKLOADS = {w.name: w for w in (Link3, Link6, Hexagon, Models)}
