"""Small dense exact linear algebra over tower field elements.

Matrices are tuples of row tuples.  Sizes stay tiny (at most 21 columns),
so plain Gaussian elimination with exact field arithmetic is enough.  It
runs forward only: each pivot clears its column below itself, which gives
the rank and the pivot columns.  The pivot row of a column is the
candidate with the fewest nonzeros from that column on, the row half of
the rule in H. M. Markowitz, "The elimination form of the inverse and its
application to linear programming", Management Science 3 (1957).  It keeps
sparse systems such as the 18x21 double-point system sparse, and every
entry it does not fill in is a tower product with its gcds saved.
`nullspace` and `solve` then find the pivot variables by
back-substitution from the last pivot row up, a few products per free
column where clearing each column above its pivot as well (Gauss-Jordan)
would update every earlier row.

The row order cannot change an answer.  Column c is a pivot exactly when
it is not in the span of the columns before it, so the pivots depend only
on the matrix.  For fixed pivots, the nullspace vector with a one at its
free column and zeros at the other free columns is unique, and so is each
solution of `solve` whose free variables are zero.
"""

from __future__ import annotations

from .errors import SblinksError
from .field_tower import GaloisAction


def mat(rows):
    return tuple(tuple(r) for r in rows)


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = None
            for k in range(m):
                t = a[i][k] * b[k][j]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(row, v):
            t = x * y
            acc = t if acc is None else acc + t
        out.append(acc)
    return tuple(out)


def mat_galois(a, action: GaloisAction):
    return tuple(tuple(action.apply(x) for x in row) for row in a)


def mat_identity(tower, n=3):
    one, zero = tower.one(), tower.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def adjugate3(a):
    """The adjugate: adj(a) . a = a . adj(a) = det(a) I, with no division."""
    return (
        (
            a[1][1] * a[2][2] - a[1][2] * a[2][1],
            -(a[0][1] * a[2][2] - a[0][2] * a[2][1]),
            a[0][1] * a[1][2] - a[0][2] * a[1][1],
        ),
        (
            -(a[1][0] * a[2][2] - a[1][2] * a[2][0]),
            a[0][0] * a[2][2] - a[0][2] * a[2][0],
            -(a[0][0] * a[1][2] - a[0][2] * a[1][0]),
        ),
        (
            a[1][0] * a[2][1] - a[1][1] * a[2][0],
            -(a[0][0] * a[2][1] - a[0][1] * a[2][0]),
            a[0][0] * a[1][1] - a[0][1] * a[1][0],
        ),
    )


def inverse3(a):
    d = det3(a)
    if d.is_zero():
        raise SblinksError("singular 3x3 matrix")
    di = d.inverse()
    return tuple(tuple(x * di for x in row) for row in adjugate3(a))


def _proportional(a, b) -> bool:
    """Whether two vectors of one length, of field elements or polynomials,
    are nonzero and agree projectively: every 2x2 cross product
    a_i b_j - a_j b_i vanishes.  Those against the first nonzero a_k
    suffice, since they give b = (b_k / a_k) a.  Any representatives give
    the same answer.  Each is tested as a_k b_i == a_i b_k, two products
    compared in canonical form, so no difference is built."""
    k = next((i for i, x in enumerate(a) if not x.is_zero()), None)
    if k is None or b[k].is_zero():
        return False
    ak, bk = a[k], b[k]
    return all(ak * y == x * bk for i, (x, y) in enumerate(zip(a, b)) if i != k)


def _row_echelon(rows):
    """Forward Gaussian elimination; returns (echelon rows, pivots).

    The pivot row of column c is, among the rows from the current one down
    with a nonzero at c, the one with the fewest nonzeros in columns c and
    after, ties going to the lowest index.  It is scaled to a leading one
    and cleared out of the rows below it, never out of the rows above: the
    result is upper echelon, not reduced.  The pivots are those of any
    elimination (see the module docstring), while the echelon rows depend
    on the row order; `nullspace` and `solve` read their unique answers off
    them by back-substitution, and `rank` and the pivot readers need
    nothing more."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        candidates = [i for i in range(r, nrows) if not m[i][c].is_zero()]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda i: sum(not x.is_zero() for x in m[i][c:]))
        m[r], m[pivot] = m[pivot], m[r]
        # entries left of c are zero in every row from r down
        row = m[r]
        if not row[c].is_one():
            inv = row[c].inverse()
            row[c] = inv.one()
            for j in range(c + 1, ncols):
                if not row[j].is_zero():
                    row[j] = row[j] * inv
        for i in range(r + 1, nrows):
            below = m[i]
            f = below[c]
            if f.is_zero():
                continue
            below[c] = row[c].zero()
            for j in range(c + 1, ncols):
                if not row[j].is_zero():
                    below[j] = below[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _back_substitute(echelon, pivots, rhs, x):
    """Fill in the pivot variables of the echelon rows into the vector x,
    whose other entries stay as given (zero but for a free column moved
    into rhs): the variable of pivot row i is rhs[i] minus the row's
    entries at the later pivot columns times their values."""
    for ri in range(len(pivots) - 1, -1, -1):
        row, acc = echelon[ri], rhs[ri]
        for j in pivots[ri + 1:]:
            a, v = row[j], x[j]
            if not (a.is_zero() or v.is_zero()):
                acc = acc - a * v
        x[pivots[ri]] = acc
    return tuple(x)


def rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = _row_echelon(rows)
    return len(pivots)


def nullspace(rows, tower):
    """Basis of the right nullspace of the matrix (list of vectors): one
    vector per free column, with a one there, zeros at the other free
    columns, and its pivot entries by back-substitution."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _row_echelon(rows)
    echelon = m[: len(pivots)]
    free = [c for c in range(ncols) if c not in pivots]
    one, zero = tower.one(), tower.zero()
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        basis.append(_back_substitute(echelon, pivots, [-row[fc] for row in echelon], v))
    return basis


def solve(rows, rhss, tower):
    """One solution of A x = b for each right-hand side b of rhss, the free
    variables zero, read off one elimination of A augmented by all of them;
    None when any b is inconsistent: the echelon matrix then has a pivot
    past A's columns."""
    ncols = len(rows[0])
    aug = [list(row) + [b[i] for b in rhss] for i, row in enumerate(rows)]
    m, pivots = _row_echelon(aug)
    if pivots and pivots[-1] >= ncols:
        return None
    echelon = m[: len(pivots)]
    zero = tower.zero()
    return tuple(
        _back_substitute(echelon, pivots, [row[c] for row in echelon], [zero] * ncols)
        for c in range(ncols, ncols + len(rhss))
    )
