"""Images mod p: a one-sided certificate that homogeneous polynomials over a
tower share no factor.

A ring map phi from the tower to F_p sends zeta to a primitive cube root of
unity omega, each t_i to tau_i and each radical r_j to a root rho_j of the
image of its radicand, rho_j^k_j = phi(radicand_j).  Every radicand lies in
K, so this fixes phi on the tower's coefficient ring.  It is defined on
each coefficient whose Q(zeta)-denominators p does not divide and whose
t-denominator does not vanish at tau.

Suppose homogeneous f_1..f_m over the tower share a factor h of degree
e >= 1.  phi extends to a valuation ring of the tower's field (Chevalley's
extension theorem).  Scale h to have a unit coefficient there; by Gauss's
lemma over that ring the reduction of h is a nonzero form of degree e that
divides every image phi(f_i).  So images with gcd 1 prove the f_i coprime.
This is the "lucky homomorphism" lemma behind modular gcds (W. S. Brown,
J. ACM 18, 1971; Geddes, Czapor and Labahn, *Algorithms for Computer
Algebra*, 1992, ch. 7).

No gcd in F_p[x, y, z] is taken.  Restrict the images to one line
X -> a X + c.  A common factor H of the images divides each restriction,
and the X^d coefficient of a form F of degree d restricted is F(a), its top
part at a.  If some image has a nonzero top part, H(a) != 0 too, so
H(a X + c) keeps its degree e.  Restrictions with gcd 1 in F_p[X] therefore
suffice.  The certificate carries Bezout cofactors s_i with
sum s_i g_i = 1, and a recheck multiplies them out instead of running
Euclid.

The answer is one-sided.  `coprime_certificate` returns None when the
images share a factor on the line, always so when the inputs do, or when
the bounded draws find no radicand image with a root.  None says nothing
about the inputs, and a caller that must decide runs a gcd.

The prime p = 2147483743 is 7 (mod 36).  Since p = 1 (mod 3), omega
exists.  Since p = 3 (mod 4) and p = 7 (mod 9), the square root of a square
a is a^((p+1)/4) and the cube root of a cube is a^((p+2)/9), one
exponentiation each.
"""

from __future__ import annotations

import random

from .multipoly import _unpack

P = 2147483743
OMEGA = pow(2, (P - 1) // 3, P)  # 2 is not a cube mod P, so OMEGA != 1
_SEED = 20240611  # the seeded sequence of tau, a and c
_DRAWS = 64  # draws of tau before giving up on the radicals

# Miller-Rabin to these bases decides primality below _PRIME_BOUND
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


class _Undefined(ArithmeticError):
    """phi is not defined on a coefficient: a denominator maps to 0."""


# ---------------------------------------------------------------------------
# certificates


def coprime_certificate(polys):
    """A certificate that the nonzero homogeneous polynomials among polys,
    over one tower, share no factor, or None (see the module docstring).

    The certificate is a dict: the prime "p", "omega", the images "tau" of
    the t_i and "rho" of the radicals, the line "a", "c", and "bezout", the
    cofactors of the restricted images, constant term first, one list per
    nonzero input in order."""
    forms = _forms(polys)
    if forms is None:
        return None
    tower = forms[0].some_coeff().tower
    rng = random.Random(_SEED)
    for _ in range(_DRAWS):
        tau = [rng.randrange(1, P) for _ in range(tower.nvars)]
        try:
            base = _image(tau, ())
            rho = [_root(base(r.radicand), r.degree) for r in tower.radicals]
            if None in rho:
                continue
            images = _images(forms, _image(tau, rho))
        except _Undefined:
            continue
        a, c = _line(rng, forms[0].nvars)
        restricted = [_restriction(im, a, c, P) for im in images]
        if not _top_part(restricted, forms):
            return None
        bezout = _bezout(restricted, P)
        if bezout is None:
            return None
        return {
            "p": P, "omega": OMEGA, "tau": tau, "rho": rho,
            "a": a, "c": c, "bezout": bezout,
        }
    return None


def recheck_coprime_certificate(cert: dict, polys) -> bool:
    """Re-prove from the certificate alone that the nonzero homogeneous
    polynomials among polys share no factor: p is prime, omega^3 = 1 !=
    omega, rho_j^k_j = phi(radicand_j), some restricted image keeps its
    degree, and the cofactors give sum s_i g_i = 1 mod p."""
    forms = _forms(polys)
    if forms is None:
        return False
    tower = forms[0].some_coeff().tower
    p, omega, tau, rho = cert["p"], cert["omega"], cert["tau"], cert["rho"]
    a, c, bezout = cert["a"], cert["c"], cert["bezout"]
    if not (
        _is_prime(p)
        and pow(omega, 3, p) == 1
        and omega % p != 1
        and len(tau) == tower.nvars
        and len(rho) == len(tower.radicals)
        and len(a) == len(c) == forms[0].nvars
        and len(bezout) == len(forms)
    ):
        return False
    try:
        base = _image(tau, (), p, omega)
        if any(
            pow(x, r.degree, p) != base(r.radicand)
            for x, r in zip(rho, tower.radicals)
        ):
            return False
        images = _images(forms, _image(tau, rho, p, omega))
    except _Undefined:
        return False
    restricted = [_restriction(im, a, c, p) for im in images]
    total = []
    for s, g in zip(bezout, restricted):
        total = _add(total, _mul(_trim([x % p for x in s]), g, p), p)
    return _top_part(restricted, forms) and total == [1]


def _forms(polys):
    """The nonzero polynomials, or None when there are none or one is not
    homogeneous."""
    forms = [f for f in polys if not f.is_zero()]
    if not forms or not all(len({sum(e) for e in f.tuple_terms()}) == 1 for f in forms):
        return None
    return forms


def _line(rng: random.Random, n: int):
    """The direction a and the point c of the line X -> a X + c."""
    a = [rng.randrange(P) for _ in range(n)]
    c = [rng.randrange(P) for _ in range(n)]
    return a, c


def _top_part(restricted, forms) -> bool:
    """Whether some image keeps its degree on the line, that is, has a
    nonzero top part at a."""
    return any(len(g) == f.total_degree() + 1 for g, f in zip(restricted, forms))


def _is_prime(n: int) -> bool:
    """Whether n is prime, decided by Miller-Rabin to the bases _BASES; False
    at and above _PRIME_BOUND, where those bases do not decide."""
    if not isinstance(n, int) or n < 2 or n >= _PRIME_BOUND:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root(x: int, k: int):
    """A k-th root of x mod P, k in {2, 3}, or None when x has none."""
    r = pow(x, (P + 1) // 4 if k == 2 else (P + 2) // 9, P)
    return r if pow(r, k, P) == x else None


# ---------------------------------------------------------------------------
# the ring map phi


def _image(tau, rho, p: int = P, omega: int = OMEGA):
    """phi on the elements of a tower with radical images rho (of K for
    rho = ()), as a function to residues mod p; it raises _Undefined where
    a denominator maps to 0."""
    tpow = {}
    inverses = {}
    radicals = {}

    def inverse(d: int) -> int:
        v = inverses.get(d)
        if v is None:
            if d % p == 0:
                raise _Undefined("a denominator maps to 0")
            v = inverses[d] = pow(d, -1, p)
        return v

    def poly(m) -> int:
        """A polynomial of Q(zeta)[t] at tau."""
        s = 0
        for key, q in m.terms.items():
            t = tpow.get(key)
            if t is None:
                t = 1
                for x, e in zip(tau, _unpack(len(tau), key)):
                    t = t * pow(x, e, p) % p
                tpow[key] = t
            v = t * (q.a + q.b * omega)
            s += v if q.d == 1 else v % p * inverse(q.d)
        return s % p

    def element(x) -> int:
        s = 0
        for e, num in x.nums.items():
            r = radicals.get(e)
            if r is None:
                r = 1
                for y, k in zip(rho, e):
                    r = r * pow(y, k, p) % p
                radicals[e] = r
            s += poly(num) * r
        if x.den is not x.tower.unit:
            s *= inverse(poly(x.den))
        return s % p

    return element


def _images(forms, phi):
    """Each form's terms as {exponent tuple: phi(coefficient)}, zeros kept."""
    return [{e: phi(c) for e, c in f.tuple_terms().items()} for f in forms]


def _restriction(image: dict, a, c, p: int) -> list:
    """F(a X + c) in F_p[X], constant term first, for the image F given as
    {exponent tuple: residue}: Horner in each variable in turn."""
    if not a:
        return _trim([sum(image.values()) % p])
    groups = {}
    for e, v in image.items():
        groups.setdefault(e[0], {})[e[1:]] = v
    lin = (c[0] % p, a[0] % p)
    out, last = [], None
    for k in sorted(groups, reverse=True):
        if last is not None:
            out = _times_linear(out, lin, last - k, p)
        out = _add(out, _restriction(groups[k], a[1:], c[1:], p), p)
        last = k
    return _times_linear(out, lin, last, p)


# ---------------------------------------------------------------------------
# F_p[X], lists of residues with the constant term first and no trailing 0


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _add(f: list, g: list, p: int) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, y in enumerate(g):
        out[i] = (out[i] + y) % p
    return _trim(out)


def _scale(f: list, k: int, p: int) -> list:
    return _trim([x * k % p for x in f])


def _mul(f: list, g: list, p: int) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return _trim([x % p for x in out])


def _times_linear(f: list, lin, k: int, p: int) -> list:
    """f times (lin[0] + lin[1] X)^k."""
    c0, a0 = lin
    for _ in range(k):
        if not f:
            return f
        out = [x * c0 for x in f] + [0]
        for i, x in enumerate(f):
            out[i + 1] += x * a0
        f = _trim([x % p for x in out])
    return f


def _divmod(f: list, g: list, p: int):
    q = [0] * max(len(f) - len(g) + 1, 0)
    r = list(f)
    inv = pow(g[-1], -1, p)
    for i in range(len(q) - 1, -1, -1):
        k = r[i + len(g) - 1] * inv % p
        q[i] = k
        if k:
            for j, y in enumerate(g):
                r[i + j] = (r[i + j] - k * y) % p
    return _trim(q), _trim(r[: len(g) - 1])


def _xgcd(f: list, g: list, p: int):
    """(h, s, t) with s f + t g = h, h monic, or h = [] when f = g = 0."""
    r0, s0, t0, r1, s1, t1 = f, [1], [], g, [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, s0, t0, r1, s1, t1 = (
            r1, s1, t1, r,
            _add(s0, _scale(_mul(q, s1, p), p - 1, p), p),
            _add(t0, _scale(_mul(q, t1, p), p - 1, p), p),
        )
    if not r0:
        return r0, s0, t0
    inv = pow(r0[-1], -1, p)
    return _scale(r0, inv, p), _scale(s0, inv, p), _scale(t0, inv, p)


def _bezout(polys, p: int):
    """Cofactors s_i with sum s_i polys_i = 1 mod p, or None when the gcd of
    polys is not 1."""
    g, cofactors = [], []
    for f in polys:
        g, s, t = _xgcd(g, f, p)
        cofactors = [_mul(s, x, p) for x in cofactors] + [t]
    if g != [1]:
        return None
    return cofactors
