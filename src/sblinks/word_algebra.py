"""The free-product target group of the link homomorphism.

Words live in (+)_{P3} Z/3Z * ( *_{P6} Z ): degree-3 classes generate
commuting Z/3 factors, degree-6 classes generate free Z factors.  A word is
an alternating sequence of syllables (class, exponent); maximal runs of
degree-3 syllables commute internally and are kept sorted, giving a normal
form in which equality is syllable-by-syllable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .birational import (
    Link,
    RationalMap,
    TwistedMap,
    _composes_to,
    _followed_by_linear,
    _linear_forms,
    _linear_through,
    _raw_composite,
    compose,
    equals,
    link_from_3point,
    transport_point,
)
from .errors import (
    DegeneratePair,
    NotComposable,
    NotEquivariant,
    SblinksError,
    UnclassifiablePoint,
)
from .linalg import _proportional, inverse3
from .severi_brauer import ClosedPoint, SBSurface, _is_scalar_matrix, is_isomorphic


@dataclass(frozen=True)
class LinkClass:
    degree: int
    splitting: tuple
    invariant_only: bool = False

    def sort_key(self):
        return (self.degree, self.splitting)

    def to_json(self):
        return {
            "degree": self.degree,
            "splitting": list(self.splitting),
            "invariant_only": self.invariant_only,
        }


@dataclass(frozen=True)
class GroupWord:
    syllables: tuple  # ((LinkClass, exponent), ...)

    def is_empty(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return reduce(self.syllables + other.syllables)

    def inverse(self) -> "GroupWord":
        return reduce(tuple((c, -e) for c, e in reversed(self.syllables)))

    def invariant_level(self) -> bool:
        """True when some syllable class is only an invariant-level label."""
        return any(c.invariant_only for c, _ in self.syllables)

    def __repr__(self):
        if not self.syllables:
            return "1"
        bits = []
        for c, e in self.syllables:
            label = f"({c.degree}, {'|'.join(c.splitting)})"
            bits.append(f"{e:+d}*1_{label}")
        return " ".join(bits)

    def to_json(self):
        return [
            {"class": c.to_json(), "exp": e} for c, e in self.syllables
        ]


def _normalize_exp(cls: LinkClass, e: int) -> int:
    if cls.degree == 3:
        e %= 3
        if e == 2:
            e = -1
    return e


def reduce(syllables) -> GroupWord:
    """Normal form: merge, drop zeros, and sort commuting Z/3 runs."""
    items = [(c, _normalize_exp(c, e)) for c, e in syllables]
    items = [(c, e) for c, e in items if e != 0]
    changed = True
    while changed:
        changed = False
        out = []
        for c, e in items:
            if out and out[-1][0] == c:
                merged = _normalize_exp(c, out[-1][1] + e)
                out.pop()
                if merged:
                    out.append((c, merged))
                changed = True
            else:
                out.append((c, e))
        # sort maximal runs of degree-3 syllables (they commute)
        i = 0
        while i < len(out):
            if out[i][0].degree != 3:
                i += 1
                continue
            j = i
            while j < len(out) and out[j][0].degree == 3:
                j += 1
            run = sorted(out[i:j], key=lambda t: t[0].sort_key())
            if run != out[i:j]:
                out[i:j] = run
                changed = True
            i = j
        items = out
    return GroupWord(tuple(items))


def word_from_list(pairs) -> GroupWord:
    return reduce(tuple(pairs))


def class_of_point(point: ClosedPoint) -> LinkClass:
    """Equivalence class of a link with the given base point.

    Degree-3 points are classified completely by their splitting field; for
    degree-6 points the splitting field is only an invariant and the class
    is flagged as such.
    """
    if point.degree == 3:
        return LinkClass(3, point.descriptor)
    if point.degree == 6:
        return LinkClass(6, point.descriptor, invariant_only=True)
    raise UnclassifiablePoint(f"no link class for degree {point.degree}")


def psi_link(link: Link) -> GroupWord:
    """+1 on the class of the base point for links leaving the marked side,
    -1 on the class of the inverse base point for links entering it."""
    if link.forward.source.side == 1:
        cls = class_of_point(link.base_point)
        return reduce(((cls, 1),))
    cls = class_of_point(link.inverse_base_point)
    return reduce(((cls, -1),))


def _composable(prev_target: SBSurface, nxt_source: SBSurface) -> bool:
    if prev_target == nxt_source:
        return True
    if prev_target.ext != nxt_source.ext:
        return False
    if prev_target.side != nxt_source.side:
        return False
    res = is_isomorphic(prev_target, nxt_source)
    return res.status == "yes"


def psi_compose(chain) -> GroupWord:
    """Image of a composable chain of links and twisted isomorphisms."""
    prev_target = None
    syllables = []
    for item in chain:
        if isinstance(item, Link):
            src, tgt = item.forward.source, item.forward.target
            word = psi_link(item)
            syllables.extend(word.syllables)
        elif isinstance(item, TwistedMap):
            if item.map.degree != 1:
                raise NotComposable("only linear twisted maps count as isomorphisms")
            src, tgt = item.source, item.target
        else:
            raise NotComposable(f"cannot compose a {type(item).__name__}")
        if prev_target is not None and not _composable(prev_target, src):
            raise NotComposable(
                "chain breaks: target of one item is not isomorphic to the "
                "source of the next"
            )
        prev_target = tgt
    return reduce(tuple(syllables))


def project_basepoint(word: GroupWord, cls: LinkClass) -> GroupWord:
    """Delete all syllables in the given degree-3 class, then reduce."""
    if cls.degree != 3:
        raise SblinksError("the projected class must have degree 3")
    return reduce(tuple((c, e) for c, e in word.syllables if c != cls))


# ---------------------------------------------------------------------------
# the hexagon elementary relation


@dataclass
class HexagonReport:
    composite_identity: bool
    word: GroupWord
    descriptors: list
    warm_equivalent: bool
    cold_equivalent: bool
    closing_was_trivial: bool
    merged_square: bool = False

    def ok(self) -> bool:
        return (
            self.composite_identity
            and self.word.is_empty()
            and self.warm_equivalent
            and self.cold_equivalent
        )


def hexagon(surface: SBSurface, p: ClosedPoint, p_prime: ClosedPoint):
    """The six alternating 3-links through the blow-up of p and p'.

    In general position the walk follows the curve-orbit bookkeeping of the
    elementary relation: each step blows up the transported image of the
    orbit untouched so far and blows down the next one.  When a component of
    one point is collinear with two components of the other, two opposite
    vertices merge: the third link undoes the second up to a linear map,
    and the first link closes the square (`_close_merged_square`).
    Otherwise one raw identity of the two half chains proves the six links
    closed (`_close_in_the_middle`).  Neither path composes the maps of the
    chain; `recheck_hexagon` does.  Returns (links, report); the closing
    link absorbs a twisted isomorphism so the chain ends on the original
    chart.
    """
    if p.degree != 3 or p_prime.degree != 3:
        raise DegeneratePair("hexagon needs two degree-3 points")
    if p.component_set() == p_prime.component_set():
        raise DegeneratePair("the two points coincide")
    if p.tower != p_prime.tower:
        raise DegeneratePair("points must live over one splitting tower")

    links = []
    current = surface
    base = p
    carry = p_prime
    merged = False
    for step in range(6):
        try:
            link = link_from_3point(current, base)
        except SblinksError as e:
            raise DegeneratePair(f"hexagon step {step + 1} degenerates: {e}")
        links.append(link)
        if step == 5:
            break
        if carry.component_set() == link.base_point.component_set():
            merged = True
            break
        try:
            nxt = transport_point(link.forward.map, carry, link.forward.target)
        except SblinksError:
            raise DegeneratePair(
                "transported orbit hits the base locus in an unexpected way"
            )
        carry = link.inverse_base_point
        base = nxt
        current = link.forward.target

    if merged:
        closed, links = False, _close_merged_square(links)
    else:
        closed, links = _close_in_the_middle(surface, links)

    word = psi_compose(links)
    descriptors = [lk.base_point.descriptor for lk in links]
    warm = descriptors[0] == descriptors[2] == descriptors[4]
    cold = descriptors[1] == descriptors[3] == descriptors[5]
    report = HexagonReport(
        composite_identity=True,
        word=word,
        descriptors=descriptors,
        warm_equivalent=warm,
        cold_equivalent=cold,
        closing_was_trivial=closed,
        merged_square=merged,
    )
    return links, report


def _close_merged_square(links):
    """Complete the merged (square) walk to a closed chain of six links.

    The third link blows up the second link's inverse base point, the base
    locus of the second backward map B2.  Two quadratic maps with the same
    three base points differ by a linear map, so F3 = M . B2 and F3 o F2 = M
    is linear.  M is proposed at grid points and proved by one raw identity
    of F3 o F2 against the linear forms of M.  The fourth link is the first
    link followed by M, inverted: its forward map B1 o M^-1 makes the four
    links the identity by the first link's certified round trip.  The
    remaining two links are the first link and its inverse, the trivial
    relation chi^-1 o chi = id.
    """
    if len(links) != 3:
        raise DegeneratePair(
            f"vertex merge after {len(links)} links is outside the supported "
            "degenerations"
        )
    f2, f3 = links[1].forward.map, links[2].forward.map
    m = _linear_through([], [f2, f3])
    if m is None or not _composes_to(f3, f2, _linear_forms(m)):
        raise DegeneratePair("merged walk did not shorten to a linear map")
    link4 = _followed_over_k(links[0], m, links[2].forward.target).inverse()
    return [links[0], links[1], links[2], link4, links[0], links[0].inverse()]


def _close_in_the_middle(surface: SBSurface, links):
    """Close six certified links Fk, backward maps Bk, on the home chart: M =
    F6 o ... o F1 is proposed by M . (B1 o B2 o B3) = F6 o F5 o F4 at grid
    points, and the last link is followed by M^-1 unless M is scalar there.
    The raw identity F3 o F2 o F1 = B4 o B5 o B6, with the links' certified
    round trips, proves the returned chain.  Returns (closed, links)."""
    fwd = [lk.forward.map for lk in links]
    m = _linear_through([lk.backward.map for lk in links[2::-1]], fwd[3:])
    if m is None:
        raise SblinksError("no grid points propose the closing isomorphism")
    closed = _is_scalar_matrix(m) and links[-1].forward.target == surface
    if not closed:
        links = links[:5] + [_followed_over_k(links[-1], inverse3(m), surface)]
    f1, f2, f3 = (f.coords for f in fwd[:3])
    b4, b5, b6 = (lk.backward.map.coords for lk in links[3:])
    half = _raw_composite(f3, _raw_composite(f2, f1))
    if not _proportional(half, _raw_composite(b4, _raw_composite(b5, b6))):
        raise SblinksError("hexagon does not close: F3 o F2 o F1 != B4 o B5 o B6")
    return closed, links


def _followed_over_k(link: Link, m, target: SBSurface) -> Link:
    """The link followed by the closing isomorphism m onto target, a trivial
    relation; refused when m is not defined over K."""
    try:
        return _followed_by_linear(link, m, target)
    except NotEquivariant as e:
        raise SblinksError("closing isomorphism is not defined over K") from e


def recheck_hexagon(links) -> bool:
    """Whether the forward maps of a chain of links compose, left to right,
    to the identity: the check `hexagon` itself does not run, recomputed
    with `compose` and decided by `equals`."""
    composite = links[0].forward.map
    for link in links[1:]:
        composite = compose(link.forward.map, composite)
    return equals(composite, RationalMap.identity(composite.tower))
