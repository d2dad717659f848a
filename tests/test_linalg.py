from sblinks.linalg import _proportional, solve
from sblinks.multipoly import MPoly


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
    sol = solve(rows, rhs, L)
    assert sol is not None
    for r, b in zip(rows, rhs):
        assert _row_times(r, sol) == b


def test_solve_inconsistent_is_none(L):
    u = L.gen("u")
    s = L.scalar
    # a zero row with a nonzero right-hand side after elimination
    assert solve([(s(1), s(1)), (s(2), s(2))], [u, u * s(2) + s(1)], L) is None
    # three equations in two unknowns with no common solution
    rows = [(s(1), s(0)), (s(0), s(1)), (s(1), s(1))]
    assert solve(rows, [s(1), u, u], L) is None


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
