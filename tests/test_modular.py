"""Coprimality certificates by one image mod p: the link triples and the
coprime quintic triple are certified and rechecked, a triple with a shared
factor never is, and a changed certificate fails its recheck."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import sblinks.modular as modular
from sblinks.birational import curves_through
from sblinks.field_tower import TowerField
from sblinks.modular import coprime_certificate, recheck_coprime_certificate
from sblinks.multipoly import MPoly
from sblinks.scalars import QZeta


def _certified(polys) -> bool:
    cert = coprime_certificate(polys)
    return cert is not None and recheck_coprime_certificate(cert, polys)


@pytest.mark.parametrize("name", ["link_at_coords", "link_at_unit", "six_link"])
def test_link_triples_are_certified(name, request):
    link = request.getfixturevalue(name)
    assert _certified(link.forward.map.coords)
    assert _certified(link.backward.map.coords)


def test_coprime_quintic_triple_is_certified(six_link):
    """The quintics double at five components of the 6-link's q and at
    (1 : 2 : 3), whose projective gcd did not finish in 120 s."""
    q = six_link.inverse_base_point
    tower = q.tower
    extra = tuple(tower.scalar(v) for v in (1, 2, 3))
    basis, _ = curves_through(tower, list(q.components[:5]) + [extra], 5, double=True)
    assert len(basis) == 3
    assert _certified(basis)


# towers of heights 1 and 2: L = K[cbrt t1], L[sqrt t2] (the 6-link's
# shape), the models tower L[cbrt((t2 - 1)/(27 t1))] (a radicand with a
# denominator) and the hexagon tower K[cbrt(-3/2 t2)]
_K = TowerField.rational(2)
_t1, _t2 = _K.t_var(0), _K.t_var(1)
_L = _K.extend("u", 3, _t1)
_TOWERS = [
    _L,
    _L.extend("s", 2, _t2),
    _L.extend("v", 3, (_t2 - _K.one()) / (_K.scalar(27) * _t1)),
    _K.extend("u", 3, _K.scalar(Fraction(-3, 2)) * _t2),
]


@st.composite
def _coefficients(draw, tower):
    """c t^a r^e plus a constant, c and the constant small in Q(zeta)."""
    c = tower.scalar(QZeta(draw(st.integers(-3, 3)), draw(st.integers(-1, 1))))
    for i in range(tower.nvars):
        c = c * tower.t_var(i) ** draw(st.integers(0, 2))
    for r in tower.radicals:
        c = c * tower.gen(r.name) ** draw(st.integers(0, r.degree - 1))
    return c + tower.scalar(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))


@st.composite
def _forms(draw, tower, degree, variables=(0, 1, 2)):
    """A nonzero form of the given degree in the given variables."""
    exps = st.lists(
        st.sampled_from(variables), min_size=degree, max_size=degree
    ).map(lambda vs: tuple(vs.count(i) for i in range(3)))
    terms = draw(st.dictionaries(exps, _coefficients(tower), min_size=1, max_size=4))
    f = MPoly(3, {e: c for e, c in terms.items() if not c.is_zero()})
    if f.is_zero():
        f = MPoly.monomial(3, (degree, 0, 0) if 0 in variables else (0, degree, 0), tower.one())
    return f


@pytest.mark.parametrize("tower", _TOWERS, ids=["L", "L[sqrt t2]", "models", "hexagon"])
def test_coprime_triples_are_certified_over_each_tower(tower):
    """x^2 + r t1 y z and its cyclic shifts, r the top radical, are coprime:
    their images are defined, the radicands' images have roots, and the
    certificate rechecks."""
    r = tower.gen(tower.radicals[-1].name) * tower.t_var(0)
    triple = [
        MPoly(3, {(2, 0, 0): tower.one(), (0, 1, 1): r}),
        MPoly(3, {(0, 2, 0): tower.one(), (1, 0, 1): r}),
        MPoly(3, {(0, 0, 2): tower.one(), (1, 1, 0): r}),
    ]
    assert _certified(triple)


@given(data=st.data())
@settings(max_examples=24, deadline=None)
def test_a_shared_factor_is_never_certified(data):
    """A triple times a shared linear factor, or times a conic free of x,
    gets no certificate, over each tower."""
    tower = data.draw(st.sampled_from(_TOWERS), label="tower")
    if data.draw(st.booleans(), label="linear"):
        h = data.draw(_forms(tower, 1), label="h")
    else:
        h = data.draw(_forms(tower, 2, (1, 2)), label="h")
    triple = [data.draw(_forms(tower, 2), label=f"f{i}") for i in range(3)]
    assert coprime_certificate([h * f for f in triple]) is None


def test_top_part_is_required(monkeypatch, link_at_unit):
    """On a line whose direction a lies on the shared line x = 0, every
    image has top part 0 at a and the restrictions are those of the
    cofactors, which are coprime: neither the certificate nor the recheck
    may accept that line."""
    triple = link_at_unit.forward.map.coords
    x = MPoly.variable(3, 0, link_at_unit.forward.map.tower.one())
    shared = [x * f for f in triple]
    on_line = ([0, 2, 7], [1, 5, 3])  # misses the base points
    monkeypatch.setattr(modular, "_line", lambda rng, n: on_line)
    assert coprime_certificate(shared) is None
    cert = coprime_certificate(triple)
    assert cert is not None and cert["a"] == on_line[0]
    # a forged certificate: the cofactors of the shared triple's images on
    # that line, which exist because x(a X + c) = 1 is constant
    images = modular._images(shared, modular._image(cert["tau"], cert["rho"]))
    restricted = [modular._restriction(im, *on_line, modular.P) for im in images]
    forged = dict(cert, bezout=modular._bezout(restricted, modular.P))
    assert forged["bezout"] is not None
    assert not recheck_coprime_certificate(forged, shared)


CHANGES = {
    "rho": lambda c: dict(c, rho=[(c["rho"][0] + 1) % c["p"]] + c["rho"][1:]),
    "omega+1": lambda c: dict(c, omega=c["omega"] + 1),
    "tau1": lambda c: dict(c, tau=[c["tau"][0] + 1] + c["tau"][1:]),
    "tau2": lambda c: dict(c, tau=c["tau"][:1] + [c["tau"][1] + 1]),
    "a": lambda c: dict(c, a=[c["a"][0] + 1] + c["a"][1:]),
    "c": lambda c: dict(c, c=c["c"][:2] + [c["c"][2] + 1]),
    "bezout": lambda c: dict(c, bezout=[[x + 1 for x in c["bezout"][0]]] + c["bezout"][1:]),
    "composite p": lambda c: dict(c, p=c["p"] * 3),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_recheck_refuses_a_changed_certificate(change, six_link):
    triple = six_link.forward.map.coords
    cert = coprime_certificate(triple)
    assert recheck_coprime_certificate(cert, triple)
    assert not recheck_coprime_certificate(CHANGES[change](cert), triple)


def test_composite_modulus_is_refused():
    """The recheck's primality test against sympy, strong pseudoprimes to
    several small bases included."""
    pseudoprimes = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
    for n in list(range(-2, 400)) + pseudoprimes + [modular.P, modular.P * 3]:
        assert modular._is_prime(n) == sympy.isprime(n), n
