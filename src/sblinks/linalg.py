"""Small dense exact linear algebra over tower field elements.

Matrices are tuples of row tuples.  Sizes stay tiny (at most 21 columns),
so plain Gaussian elimination with exact field arithmetic is enough.
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


def inverse3(a):
    d = det3(a)
    if d.is_zero():
        raise SblinksError("singular 3x3 matrix")
    di = d.inverse()
    cof = [
        [
            a[1][1] * a[2][2] - a[1][2] * a[2][1],
            -(a[0][1] * a[2][2] - a[0][2] * a[2][1]),
            a[0][1] * a[1][2] - a[0][2] * a[1][1],
        ],
        [
            -(a[1][0] * a[2][2] - a[1][2] * a[2][0]),
            a[0][0] * a[2][2] - a[0][2] * a[2][0],
            -(a[0][0] * a[1][2] - a[0][2] * a[1][0]),
        ],
        [
            a[1][0] * a[2][1] - a[1][1] * a[2][0],
            -(a[0][0] * a[2][1] - a[0][1] * a[2][0]),
            a[0][0] * a[1][1] - a[0][1] * a[1][0],
        ],
    ]
    return tuple(tuple(x * di for x in row) for row in cof)


def _proportional(a, b) -> bool:
    """Whether two vectors of one length, of field elements or polynomials,
    are nonzero and agree projectively: every 2x2 cross product
    a_i b_j - a_j b_i vanishes.  Those against the first nonzero a_k
    suffice, since they give b = (b_k / a_k) a.  Any representatives give
    the same answer."""
    k = next((i for i, x in enumerate(a) if not x.is_zero()), None)
    if k is None or b[k].is_zero():
        return False
    ak, bk = a[k], b[k]
    return all(
        (ak * y - x * bk).is_zero() for i, (x, y) in enumerate(zip(a, b)) if i != k
    )


def _row_echelon(rows):
    """In-place style Gaussian elimination; returns (echelon rows, pivots)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot = i
                break
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


def rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = _row_echelon(rows)
    return len(pivots)


def nullspace(rows, tower):
    """Basis of the right nullspace of the matrix (list of vectors)."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    one, zero = tower.one(), tower.zero()
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs, tower):
    """One solution of A x = b, or None if inconsistent: the reduced
    augmented matrix then has a pivot in its last column."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    m, pivots = _row_echelon(aug)
    ncols = len(rows[0])
    zero = tower.zero()
    x = [zero] * ncols
    for ri, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = m[ri][ncols]
    return tuple(x)
