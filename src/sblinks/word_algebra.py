"""The free-product target group of the link homomorphism.

Words live in (+)_{P3} Z/3Z * ( *_{P6} Z ): degree-3 classes generate
commuting Z/3 factors, degree-6 classes generate free Z factors.  A word is
an alternating sequence of syllables (class, exponent); maximal runs of
degree-3 syllables commute internally and are kept sorted, giving a normal
form in which equality is syllable-by-syllable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .birational import (
    _GRID,
    Link,
    RationalMap,
    TwistedMap,
    _coefficient_rows,
    _columns,
    _express_in_span,
    _followed_by_linear,
    _inherited,
    _linear_forms,
    _raw_composite,
    _scale_canonical,
    compose,
    equals,
    link_from_3point,
)
from .errors import (
    DegeneratePair,
    NotComposable,
    SblinksError,
    UnclassifiablePoint,
)
from .linalg import _proportional, adjugate3, mat_mul, mat_vec
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
    elementary relation: each step blows up the image of the orbit untouched
    so far, carried with its orbit data (`_inherited`), and blows down the
    next one.  When a component of one point is collinear with two
    components of the other, two opposite vertices merge: the third link
    undoes the second up to a linear map M, read off the third forward map's
    coefficients over the second backward map's by one span solve, and the
    first link followed by M closes the square (`_close_merged_square`).
    Otherwise M = F6 o ... o F1 is read off p', the sixth link's inverse
    base point and one grid value, and one raw identity of the two half
    chains proves the six links closed (`_close_in_the_middle`).  Neither
    path composes the maps of the chain; `recheck_hexagon` does.  Returns
    (links, report); the closing link absorbs a twisted isomorphism so the
    chain ends on the original chart.
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
        fwd = link.forward
        try:
            nxt = _inherited(carry, fwd.target, map(fwd.map.evaluate, carry.components))
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
        closed, links = _close_in_the_middle(surface, links, p_prime)

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
    three base points differ by a linear map, so F3 = M . B2.  M is read off
    the coefficients: row i holds those of F3's i-th coordinate over B2's
    coordinates, from one span solve, which makes F3 = M . B2 an exact
    identity of stored triples.  The second link's certified round trip
    B2 o F2 = id turns it into F3 o F2 = M.  The fourth link is the first
    link followed by M, inverted: its forward map B1 o adj(M) makes the four
    links the identity by the first link's certified round trip.  The
    remaining two links are the first link and its inverse, the trivial
    relation chi^-1 o chi = id.
    """
    if len(links) != 3:
        raise DegeneratePair(
            f"vertex merge after {len(links)} links is outside the supported "
            "degenerations"
        )
    f3 = links[2].forward.map
    m = _express_in_span(f3.coords, links[1].backward.map.coords, f3.tower)
    if m is None:
        raise DegeneratePair("merged walk did not shorten to a linear map")
    link4 = _followed_by_linear(links[0], m, links[2].forward.target).inverse()
    return [links[0], links[1], links[2], link4, links[0], links[0].inverse()]


def _close_in_the_middle(surface: SBSurface, links, p_prime: ClosedPoint):
    """Close six certified links Fk, backward maps Bk, on the home chart.
    The linear map M = F6 o ... o F1 carries p' onto q, the sixth link's
    inverse base point, and M . (B1 o B2 o B3) = F6 o F5 o F4
    (`_closing_isomorphism`).  The last link is followed by adj(M), which
    is M^-1 up to scale, unless M is scalar there.
    The raw identity F3 o F2 o F1 = B4 o B5 o B6, with the links' certified
    round trips, proves the returned chain.  Returns (closed, links)."""
    fwd = [lk.forward.map for lk in links]
    backs = [lk.backward.map for lk in links[2::-1]]
    q = links[-1].inverse_base_point
    m = _closing_isomorphism(backs, fwd[3:], p_prime.components, q.components)
    if m is None:
        raise SblinksError("no grid points propose the closing isomorphism")
    closed = _is_scalar_matrix(m) and links[-1].forward.target == surface
    if not closed:
        links = links[:5] + [_followed_by_linear(links[-1], adjugate3(m), surface)]
    f1, f2, f3 = (f.coords for f in fwd[:3])
    b4, b5, b6 = (lk.backward.map.coords for lk in links[3:])
    half = _raw_composite(f3, _raw_composite(f2, f1))
    if not _proportional(half, _raw_composite(b4, _raw_composite(b5, b6))):
        raise SblinksError("hexagon does not close: F3 o F2 o F1 != B4 o B5 o B6")
    return closed, links


def _closing_isomorphism(before, after, sources, targets):
    """The matrix M that carries the points sources onto targets, in some
    order, with M . before(g) proportional to after(g) at grid points g;
    before and after are chains of maps applied left to right.  With the
    points as the columns of P and Q, M = Q . D . adj(P): at the first
    usable g of `_GRID`, s = before(g), d = after(g), w = adj(P) s and
    r = adj(Q) d give D = diag(r_i w_j w_k), {i, j, k} = {0, 1, 2}, so
    M s = w0 w1 w2 det(Q) d with no division.  A grid point is usable off
    both chains' base loci, with no entry of w or r zero.  The next usable
    one confirms M in the orbits' frame: M s2 is proportional to d2 exactly
    when D w2 is to adj(Q) d2.  The orders of targets are tried, the given
    one first; None when none is confirmed.  The confirmed M is scaled
    canonically: adj(M) with the swollen entries of raw values makes the
    followed link slow to build.  Nothing is proved here; the caller's raw
    identity proves M."""
    tower = before[0].tower
    zero = tower.zero()

    def value(chain, g):
        for f in chain:
            g = [c.eval_zero_ok(g, zero) for c in f.coords]
            if all(x.is_zero() for x in g):
                return None  # g lies in the base locus
        return g

    adj_p = adjugate3(_columns(sources))
    adj_q = adjugate3(_columns(targets))
    usable = []
    for a, b in _GRID:
        g = [tower.scalar(a), tower.scalar(b), tower.one()]
        s, d = value(before, g), value(after, g)
        if s is None or d is None:
            continue
        w = mat_vec(adj_p, s)
        if not any(x.is_zero() for x in w + mat_vec(adj_q, d)):
            usable.append((w, d))
        if len(usable) == 2:
            break
    else:
        return None
    (w, d), (w2, d2) = usable
    for order in permutations(targets):
        cols = _columns(order)
        adj_q = adjugate3(cols)
        r = mat_vec(adj_q, d)
        diag = (r[0] * w[1] * w[2], r[1] * w[0] * w[2], r[2] * w[0] * w[1])
        if _proportional([x * y for x, y in zip(diag, w2)], mat_vec(adj_q, d2)):
            qd = tuple(tuple(x * y for x, y in zip(row, diag)) for row in cols)
            m = mat_mul(qd, adj_p)
            return _coefficient_rows(tower, _scale_canonical(_linear_forms(m)))
    return None


def recheck_hexagon(links) -> bool:
    """Whether the forward maps of a chain of links compose, left to right,
    to the identity: the check `hexagon` itself does not run, recomputed
    with `compose` and decided by `equals`."""
    composite = links[0].forward.map
    for link in links[1:]:
        composite = compose(link.forward.map, composite)
    return equals(composite, RationalMap.identity(composite.tower))
