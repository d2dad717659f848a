from hypothesis import given, settings, strategies as st

from sblinks.birational import curves_through, link_from_6point
from sblinks.linalg import (
    _proportional,
    _row_echelon,
    adjugate3,
    det3,
    mat_identity,
    mat_mul,
    nullspace,
    rank,
    solve,
)
from sblinks.multipoly import MPoly
from sblinks.severi_brauer import sixpoint_from_sqrt


def _row_times(row, x):
    acc = None
    for a, b in zip(row, x):
        acc = a * b if acc is None else acc + a * b
    return acc


def test_solve_overdetermined_consistent(L):
    u, t1 = L.gen("u"), L.t_var(0)
    s = L.scalar
    rows = [(s(1), s(0)), (s(0), s(1)), (s(1), s(1)), (s(2), t1)]
    x = (u + t1, t1.inverse() - u * u)
    rhs = [_row_times(r, x) for r in rows]
    (sol,) = solve(rows, [rhs], L)
    for r, b in zip(rows, rhs):
        assert _row_times(r, sol) == b


def test_solve_inconsistent_is_none(L):
    u = L.gen("u")
    s = L.scalar
    # a zero row with a nonzero right-hand side after elimination
    assert solve([(s(1), s(1)), (s(2), s(2))], [[u, u * s(2) + s(1)]], L) is None
    # three equations in two unknowns with no common solution
    rows = [(s(1), s(0)), (s(0), s(1)), (s(1), s(1))]
    assert solve(rows, [[s(1), u, u]], L) is None


def test_solve_several_right_hand_sides(L):
    """One elimination answers every right-hand side, each as alone; one
    inconsistent right-hand side among consistent ones makes the answer
    None."""
    u, t1 = L.gen("u"), L.t_var(0)
    s = L.scalar
    rows = [(s(1), s(0)), (s(0), s(1)), (s(1), s(1)), (s(2), t1)]
    xs = [(u + t1, t1.inverse() - u * u), (s(0), s(3)), (u, u)]
    rhss = [[_row_times(r, x) for r in rows] for x in xs]
    assert solve(rows, rhss, L) == tuple(xs)
    assert solve(rows, rhss, L) == tuple(solve(rows, [b], L)[0] for b in rhss)
    inconsistent = [s(1), u, u, s(0)]
    assert solve(rows, [inconsistent], L) is None
    assert solve(rows, rhss[:2] + [inconsistent] + rhss[2:], L) is None


def _vectors(L, n):
    u, t1, t2 = L.gen("u"), L.t_var(0), L.t_var(1)
    entries = [L.zero(), u, t2, u * u + t1, L.scalar(3), t2 / (t1 + L.one())]
    a = [entries[i % len(entries)] for i in range(n)]
    return a, u * t2 + L.scalar(2) * u


def test_proportional_any_length(L):
    for n in (3, 4, 9):
        a, c = _vectors(L, n)
        b = [c * x for x in a]
        assert _proportional(a, b)
        assert _proportional(b, a)
        for j in range(n):
            bad = list(b)
            bad[j] = bad[j] + L.one()
            assert not _proportional(a, bad)
            assert not _proportional(bad, a)
        zero = [L.zero()] * n
        assert not _proportional(a, zero)
        assert not _proportional(zero, a)
        assert not _proportional(zero, zero)


def test_proportional_polynomial_triples(L):
    one, u = L.one(), L.gen("u")
    x, y, z = (MPoly.variable(3, i, one) for i in range(3))
    a = (MPoly.zero(3), x * y, y * z)
    b = tuple(p.scale(u) * (x + z) for p in a)
    assert _proportional(a, b)
    assert not _proportional(a, (b[0], b[1], b[1]))


# ---------------------------------------------------------------------------
# forward elimination with back-substitution against Gauss-Jordan


def _gauss_jordan(rows):
    """Reduced row echelon form and pivots, every pivot column cleared above
    and below its pivot: the reference for the forward-only elimination."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _reference_nullspace(rows, tower):
    m, pivots = _gauss_jordan(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [tower.zero()] * ncols
        v[fc] = tower.one()
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(tuple(v))
    return basis


def _reference_solve(rows, rhs, tower):
    ncols = len(rows[0])
    m, pivots = _gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [tower.zero()] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = m[ri][ncols]
    return tuple(x)


def _pool(L):
    """Entries with the radical u and t-denominators, zero and one among
    them.  They stay in Q(zeta)(t1)[u]: with t2 as well, random eliminations
    build bivariate coefficients whose gcds take seconds per product."""
    u, t1 = L.gen("u"), L.t_var(0)
    one = L.one()
    return [
        L.zero(), L.zero(), one, L.scalar(-2), u, t1, u * u,
        one / (t1 + one), u / t1, L.zeta() * u + one,
    ]


def _combination(rows, coeffs):
    acc = [None] * len(rows[0])
    for row, c in zip(rows, coeffs):
        acc = [x * c if a is None else a + x * c for a, x in zip(acc, row)]
    return tuple(acc)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_elimination_matches_gauss_jordan(L, data):
    pool = _pool(L)
    # underdetermined, square and overdetermined shapes; the larger ones
    # draw mostly zeros, so that rows differ in their nonzero counts and the
    # sparsest candidate is often not the first
    nrows, ncols = data.draw(
        st.sampled_from([
            (2, 4), (3, 5), (1, 3), (3, 3), (4, 4), (2, 2), (4, 2), (3, 1), (4, 3),
            (5, 7), (6, 6), (6, 8),
        ]),
        label="shape",
    )
    if nrows * ncols > 20 or data.draw(st.booleans(), label="sparse"):
        pool = pool + [L.zero()] * 12
    entry = st.sampled_from(pool)
    rows = [tuple(data.draw(st.lists(entry, min_size=ncols, max_size=ncols))) for _ in range(nrows)]
    if nrows > 1 and data.draw(st.booleans(), label="dependent row"):
        # rank-deficient: the last row is a combination of the others
        coeffs = data.draw(st.lists(entry, min_size=nrows - 1, max_size=nrows - 1))
        rows[-1] = _combination(rows[:-1], coeffs)

    basis = nullspace(rows, L)
    assert basis == _reference_nullspace(rows, L)
    assert rank(rows) == len(_gauss_jordan(rows)[1]) == ncols - len(basis)
    for v in basis:
        assert all(_row_times(r, v).is_zero() for r in rows)

    # a consistent right-hand side, and one drawn freely (often inconsistent
    # when the rows are dependent)
    x = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
    rhss = [
        [_row_times(r, x) for r in rows],
        data.draw(st.lists(entry, min_size=nrows, max_size=nrows)),
    ]
    expected = [_reference_solve(rows, rhs, L) for rhs in rhss]
    for rhs, ref in zip(rhss, expected):
        sol = solve(rows, [rhs], L)
        assert sol == (None if ref is None else (ref,))
        if sol is not None:
            assert [_row_times(r, sol[0]) for r in rows] == list(rhs)
    # both from one elimination: None when either is inconsistent
    both = solve(rows, rhss, L)
    assert both == (None if None in expected else tuple(expected))


def test_pivot_row_is_the_sparsest_candidate(L):
    """Of the rows with a nonzero in the pivot column, the one with the
    fewest nonzeros from that column on is the pivot row, ties going to the
    lowest index; the answers are those of Gauss-Jordan all the same."""
    u, t1 = L.gen("u"), L.t_var(0)
    one, zero, s = L.one(), L.zero(), L.scalar
    rows = [
        (u, t1, one, s(2), u + one),  # dense: the first candidate
        (zero, s(3), zero, u, zero),  # no candidate for column 0
        (s(-2), zero, t1, zero, zero),  # 2 nonzeros: ties with the next
        (t1, zero, zero, u * u, zero),  # 2 nonzeros, later
    ]
    m, pivots = _row_echelon(rows)
    assert pivots == [0, 1, 2, 3]
    # the first echelon row is the third row scaled to a leading one
    assert m[0] == [one, zero, t1 / s(-2), zero, zero]
    basis = nullspace(rows, L)
    assert basis == _reference_nullspace(rows, L) and len(basis) == 1
    assert rank(rows) == len(_gauss_jordan(rows)[1]) == 4
    rhss = ([u, one, zero, t1], [zero, zero, zero, zero])
    assert solve(rows, rhss, L) == tuple(_reference_solve(rows, rhs, L) for rhs in rhss)
    # an inconsistent system: the fifth row repeats the first with another
    # right-hand side
    rows5 = rows + [rows[0]]
    rhs5 = [u, one, zero, t1, u + one]
    assert solve(rows5, [rhs5], L) is None
    assert _reference_solve(rows5, rhs5, L) is None


def test_elimination_on_the_six_point_double_system(surface, K2, t_vars):
    # the 18x21 double-point systems of quintics at the six-point of
    # alpha = -5 t2, the link6 bench input of seed 1, and at the inverse
    # base point of its link
    _, t2 = t_vars
    point = sixpoint_from_sqrt(surface, K2.scalar(-5) * t2)
    q = link_from_6point(surface, point).inverse_base_point
    tower = point.tower
    for comps in (point.components, q.components):
        _, rows = curves_through(tower, comps, 5, double=True)
        assert (len(rows), len(rows[0])) == (18, 21)
        basis = nullspace(rows, tower)
        assert len(basis) == 3 and rank(rows) == 18
        assert basis == _reference_nullspace(rows, tower)
        for v in basis:
            assert all(_row_times(r, v).is_zero() for r in rows)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_adjugate_times_matrix_is_the_determinant(L, data):
    """adj(a) . a = a . adj(a) = det(a) I, singular matrices included."""
    entry = st.sampled_from(_pool(L))
    a = tuple(tuple(data.draw(st.lists(entry, min_size=3, max_size=3))) for _ in range(3))
    d = det3(a)
    scaled = tuple(tuple(x * d for x in row) for row in mat_identity(L))
    assert mat_mul(adjugate3(a), a) == scaled
    assert mat_mul(a, adjugate3(a)) == scaled
