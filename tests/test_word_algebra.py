import random

import pytest
from hypothesis import given, settings, strategies as st

from sblinks import birational, word_algebra
from sblinks.birational import compose, curves_through, link_from_3point
from sblinks.errors import DegeneratePair, NotComposable, SblinksError
from sblinks.linalg import mat_identity
from sblinks.severi_brauer import (
    closed_point_from_seed,
    make_closed_point,
    second_3point,
)
from sblinks.word_algebra import (
    _close_in_the_middle,
    GroupWord,
    LinkClass,
    class_of_point,
    hexagon,
    project_basepoint,
    psi_compose,
    psi_link,
    recheck_hexagon,
    reduce as word_reduce,
    word_from_list,
)

C3 = [LinkClass(3, (f"3:c{i}",)) for i in range(3)]
C6 = [LinkClass(6, (f"6:q{i}",), invariant_only=True) for i in range(2)]

syllables = st.lists(
    st.tuples(st.sampled_from(C3 + C6), st.integers(-5, 5)), max_size=10
)


@given(syllables)
@settings(max_examples=300)
def test_reduce_idempotent(word):
    reduced = word_reduce(tuple(word))
    assert word_reduce(reduced.syllables) == reduced


@given(syllables, st.integers(0, 10))
@settings(max_examples=300)
def test_reduce_association_invariant(word, cut_raw):
    word = tuple(word)
    cut = min(cut_raw, len(word))
    left = word_reduce(word[:cut])
    right = word_reduce(word[cut:])
    assert left * right == word_reduce(word)


def test_torsion_and_free_parts():
    p, q = C3[0], C3[1]
    f = C6[0]
    assert word_from_list([(p, 1), (p, 1), (p, 1)]).is_empty()
    assert word_from_list([(f, 1), (f, -1)]).is_empty()
    assert word_from_list([(p, 3), (q, -3)]).is_empty()
    # Z/3 syllables of distinct classes commute and sort
    assert word_from_list([(q, 1), (p, 1)]) == word_from_list([(p, 1), (q, 1)])
    # free syllables block commutation
    w = word_from_list([(q, 1), (f, 1), (p, 1)])
    assert w.syllables == ((q, 1), (f, 1), (p, 1))
    # inverse
    assert (w * w.inverse()).is_empty()


def test_project_basepoint():
    p, q = C3[0], C3[1]
    assert project_basepoint(word_from_list([(p, 1)]), p).is_empty()
    assert project_basepoint(
        word_from_list([(p, 1), (q, -1)]), p
    ) == word_from_list([(q, -1)])
    assert project_basepoint(GroupWord(()), p).is_empty()


def test_class_of_point(surface, coord_point, six_point):
    c = class_of_point(coord_point)
    assert c.degree == 3 and not c.invariant_only
    c6 = class_of_point(six_point)
    assert c6.degree == 6 and c6.invariant_only
    s = second_3point(surface)
    assert class_of_point(s) != c


def test_psi_link_signs(surface, link_at_coords):
    w = psi_link(link_at_coords)
    assert w.syllables == ((class_of_point(link_at_coords.base_point), 1),)
    w_inv = psi_link(link_at_coords.inverse())
    assert w_inv.syllables == ((class_of_point(link_at_coords.base_point), -1),)
    assert psi_compose([link_at_coords, link_at_coords.inverse()]).is_empty()


def test_psi_isomorphism_contributes_nothing(surface, link_at_coords, L):
    from sblinks.birational import RationalMap, TwistedMap

    iso = TwistedMap(RationalMap.identity(L), surface, surface)
    w1 = psi_compose([iso, link_at_coords])
    assert w1 == psi_link(link_at_coords)


def test_psi_not_composable(surface, link_at_coords):
    with pytest.raises(NotComposable):
        psi_compose([link_at_coords, link_at_coords])


def test_psi_homomorphism_on_random_chains(surface, link_at_coords, link_at_unit):
    rng = random.Random(777)
    pool_fwd = [link_at_coords, link_at_unit]
    pool_bwd = [lk.inverse() for lk in pool_fwd]

    def random_chain(n, start_side):
        side = start_side
        chain = []
        for _ in range(n):
            lk = rng.choice(pool_fwd if side == 1 else pool_bwd)
            chain.append(lk)
            side = -side
        return chain, side

    for _ in range(100):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        u, mid = random_chain(n1, 1)
        v, _ = random_chain(n2, mid)
        w_uv = psi_compose(u + v)
        w_u = psi_compose(u)
        w_v = psi_compose(v)
        assert w_uv == w_u * w_v


# SHA-256 of the JSON of the six links of the coordinate/unit hexagon
HEXAGON_LINK_PINS = [
    "9ed5cc9a0ed30f36a7bfccdf28f440e4428b329354d53617d9096aabb50b5d56",
    "1bb8be4128abc82c23ed5e9ec050e854455e4bfa82b7b9528a4151254bfc26c8",
    "b0eada36b0bb7930c7799efc2d810203bf04319fe6256a41b516f11cb714093a",
    "229cb1393874991c23f7cc4b1fac9017c973326d64a43e00536273e980777106",
    "9ed5cc9a0ed30f36a7bfccdf28f440e4428b329354d53617d9096aabb50b5d56",
    "9d916c94e7216738ed33a8e0de420ef933ab126928faf8f200f55d083d17a52f",
]


def test_hexagon_acceptance_pair(surface, coord_point, unit_point, link_sha):
    links, report = hexagon(surface, coord_point, unit_point)
    assert len(links) == 6
    assert report.composite_identity
    assert report.word.is_empty()
    assert report.warm_equivalent and report.cold_equivalent
    assert report.merged_square  # this pair merges two hexagon vertices
    assert not report.closing_was_trivial
    # the merged square closes with the trivial pair chi, chi^-1
    assert links[4] == links[0]
    assert links[5] == links[0].inverse()
    assert [link_sha(link) for link in links] == HEXAGON_LINK_PINS


def test_hexagon_links_keep_every_fact(
    surface, coord_point, unit_point, assert_link_facts
):
    """Every link of the coordinate/unit hexagon, the absorbed fourth link
    and the inverse of the first among them, keeps every link fact."""
    links, report = hexagon(surface, coord_point, unit_point)
    assert report.merged_square and links[5] == links[0].inverse()
    for link in links:
        assert_link_facts(link)


# SHA-256 of the JSON of the six links of the general-position hexagon,
# computed when the walk was still closed by composing all six maps
HEXAGON_GP_LINK_PINS = [
    "9ed5cc9a0ed30f36a7bfccdf28f440e4428b329354d53617d9096aabb50b5d56",
    "5732c87be4144c861596b333e335bdfbb6687fd6edb240acbfe998be82c58197",
    "c280103e2c7f096a43b295b7a1d15592fb76b65d0f489368928475cd487fb89d",
    "4871f85bfb701166d11be29328fec2dd796ea5de2bda211ef8f4e7c753424f75",
    "0057b819ed8111a80ba65acf73034b6d75a19e5455234ba973a5015d7e1819b7",
    "e5c224260e658798123ec3fd08d24ccd922359c8bd2af87253ff698269edb260",
]


@pytest.fixture(scope="module")
def gp_point(surface, L):
    """The second point of the general-position hexagon: the orbit of [1:1:2]."""
    return closed_point_from_seed(surface, (L.one(), L.one(), L.scalar(2)), L)


@pytest.fixture(scope="module")
def gp_hexagon(surface, coord_point, gp_point):
    return hexagon(surface, coord_point, gp_point)


def test_hexagon_general_position(
    coord_point, gp_point, gp_hexagon, assert_link_facts, link_sha
):
    links, report = gp_hexagon
    assert len(links) == 6
    assert not report.merged_square
    assert report.composite_identity
    assert report.word.is_empty()
    assert report.warm_equivalent and report.cold_equivalent
    descriptors = report.descriptors
    assert descriptors[0] == descriptors[2] == descriptors[4] == coord_point.descriptor
    assert descriptors[1] == descriptors[3] == descriptors[5] == gp_point.descriptor
    assert_link_facts(links[-1])
    assert [link_sha(link) for link in links] == HEXAGON_GP_LINK_PINS


def test_half_hexagon_is_the_quintic_of_a_six_link(L, coord_point, gp_point, gp_hexagon):
    """The paper's picture of the hexagon: its first three links compose to
    a quintic double at the six components of p and p', the forward map of
    a 6-link, in a net of such quintics."""
    f1, f2, f3 = (link.forward.map for link in gp_hexagon[0][:3])
    half = compose(f3, compose(f2, f1))
    assert half.degree == 5
    components = [list(v) for v in coord_point.components + gp_point.components]
    for c in half.coords:
        for g in (c, c.derivative(0), c.derivative(1), c.derivative(2)):
            assert all(g.eval_zero_ok(v, L.zero()).is_zero() for v in components)
    quintics, _ = curves_through(L, components, 5, double=True)
    assert len(quintics) == 3


def test_chain_that_does_not_close_raises(monkeypatch, surface, L, gp_hexagon):
    """The proposal proves nothing.  Let it claim that the chain closes on
    its own, with the identity matrix, and end the chain on the home chart
    by a certified link that does not close it: the identity of the half
    chains refuses the chain."""
    links = gp_hexagon[0]
    wrong = links[0].inverse()
    assert wrong.forward.target == surface and wrong != links[5]
    identity = mat_identity(L)
    monkeypatch.setattr(word_algebra, "_linear_through", lambda before, after: identity)
    with pytest.raises(SblinksError, match="does not close"):
        _close_in_the_middle(surface, links[:5] + [wrong])


def test_chain_that_does_not_close_is_refused_by_the_proposal(
    monkeypatch, surface, gp_hexagon
):
    """Unpatched, the proposal itself refuses a chain that does not close:
    the matrix through four grid points fails at a fifth, so the last link
    is never followed by it."""
    links = gp_hexagon[0]

    def unreachable(*args):
        raise AssertionError("the last link was followed by a linear map")

    monkeypatch.setattr(word_algebra, "_followed_by_linear", unreachable)
    with pytest.raises(SblinksError, match="no grid points propose"):
        _close_in_the_middle(surface, links[:5] + [links[0].inverse()])


def test_hexagon_maps_are_coprime(
    surface, coord_point, unit_point, gp_hexagon, assert_coprime
):
    """Every map of both hexagons has coprime coordinates, which the
    constructor trusts and does not check."""
    links, _ = hexagon(surface, coord_point, unit_point)
    for link in links + gp_hexagon[0]:
        assert_coprime(link.forward.map, link.backward.map)


@pytest.fixture(scope="module")
def mixed_pair(surface, coord_point):
    """The coordinate point and the second 3-point, whose splitting fields
    differ, over one tower."""
    sp = second_3point(surface)
    return make_closed_point(surface, coord_point.components, sp.tower), sp


@pytest.mark.parametrize("pair", ["merged", "mixed"])
def test_hexagon_composes_no_maps(
    monkeypatch, pair, surface, coord_point, unit_point, mixed_pair, link_sha
):
    """Neither closing path divides out a common factor, and the merged
    square builds only its three links: the fourth is the first link
    followed by F3 o F2, a linear map."""
    p, q = (coord_point, unit_point) if pair == "merged" else mixed_pair

    def forbidden(*args):
        raise AssertionError("hexagon took a gcd")

    built = []

    def counted(surface, point):
        built.append(point)
        return link_from_3point(surface, point)

    monkeypatch.setattr(birational, "_normalize_coords", forbidden)
    monkeypatch.setattr(word_algebra, "link_from_3point", counted)
    links, report = hexagon(surface, p, q)
    assert report.merged_square == (pair == "merged")
    if pair == "merged":
        assert len(built) == 3
        assert [link_sha(link) for link in links] == HEXAGON_LINK_PINS
    else:
        assert len(built) == 6


def _row_doubled(m):
    return [[c + c for c in m[0]], list(m[1]), list(m[2])]


@pytest.mark.parametrize("propose", [lambda m: None, _row_doubled])
def test_merged_square_refuses_a_wrong_proposal(
    monkeypatch, propose, surface, coord_point, unit_point
):
    """The proposal proves nothing: with no matrix, or with an invertible
    matrix that F3 o F2 is not, the raw identity refuses the merged square."""
    real = word_algebra._linear_through
    monkeypatch.setattr(
        word_algebra, "_linear_through", lambda *chains: propose(real(*chains))
    )
    with pytest.raises(DegeneratePair, match="did not shorten"):
        hexagon(surface, coord_point, unit_point)


def test_recheck_hexagon(surface, coord_point, unit_point, mixed_pair):
    """The left-to-right compose accepts both closed chains and refuses the
    merged chain with its fourth link replaced by the inverse of the first."""
    merged, _ = hexagon(surface, coord_point, unit_point)
    assert recheck_hexagon(merged)
    assert recheck_hexagon(hexagon(surface, *mixed_pair)[0])
    assert not recheck_hexagon(merged[:3] + [merged[0].inverse()] + merged[4:])


def test_hexagon_rejects_equal_points(surface, coord_point):
    with pytest.raises(DegeneratePair):
        hexagon(surface, coord_point, coord_point)


def test_class_matches_transport(surface, coord_point, unit_point):
    """For degree-3 points, equal classes correspond exactly to transport
    automorphisms existing."""
    from sblinks.errors import SplittingFieldMismatch
    from sblinks.severi_brauer import auto_between_3points

    assert class_of_point(coord_point) == class_of_point(unit_point)
    auto_between_3points(surface, coord_point, unit_point)  # must succeed

    s = second_3point(surface)
    assert class_of_point(s) != class_of_point(coord_point)
    with pytest.raises(SplittingFieldMismatch):
        auto_between_3points(surface, coord_point, s)


def test_theorem_b_witness_on_links(surface, link_at_coords):
    """A chain chi_q then chi_p^-1 maps onto 1_q - 1_p, and projecting away
    the p-class leaves the q-generator."""
    from sblinks.birational import link_from_3point
    from sblinks.severi_brauer import second_3point

    sp = second_3point(surface)
    link_sp = link_from_3point(surface, sp)
    w = psi_compose([link_sp, link_at_coords.inverse()])
    cp = class_of_point(link_at_coords.base_point)
    cq = class_of_point(sp)
    assert w == word_from_list([(cq, 1), (cp, -1)])
    assert project_basepoint(w, cp) == word_from_list([(cq, 1)])


def test_hexagon_mixed_splitting(surface, coord_point, mixed_pair):
    """Two points with distinct splitting fields give the alternating
    hexagon with descriptor pattern (d(p), d(p'), d(p), ...)."""
    p_lifted, sp = mixed_pair
    links, report = hexagon(surface, p_lifted, sp)
    assert len(links) == 6
    assert not report.merged_square
    assert report.composite_identity
    assert report.word.is_empty()
    descs = report.descriptors
    assert descs[0] == descs[2] == descs[4] == coord_point.descriptor
    assert descs[1] == descs[3] == descs[5] == sp.descriptor
    assert descs[0] != descs[1]


def test_invariant_level_flag(six_point):
    c6 = class_of_point(six_point)
    w = word_from_list([(c6, 2)])
    assert w.invariant_level()
    w3 = word_from_list([(C3[0], 1)])
    assert not w3.invariant_level()


def test_word_serialization(six_point):
    c6 = class_of_point(six_point)
    w = word_from_list([(C3[0], 1), (c6, -2)])
    data = w.to_json()
    assert data[0]["exp"] == 1 and data[0]["class"]["degree"] == 3
    assert data[1]["exp"] == -2 and data[1]["class"]["invariant_only"]


def test_mixed_degree_word_from_links(surface, link_at_coords, six_link):
    """A chain mixing a 6-link and a 3-link inverse: one Z syllable, one Z/3
    syllable, and the word is flagged invariant-level."""
    w = psi_compose([six_link, link_at_coords.inverse()])
    c6 = class_of_point(six_link.base_point)
    cp = class_of_point(link_at_coords.base_point)
    assert w == word_from_list([(c6, 1), (cp, -1)])
    assert w.invariant_level()
    # Z-exponents accumulate without torsion
    w3 = word_from_list([(c6, 1)] * 5)
    assert w3.syllables == ((c6, 5),)
