"""Exact integer and small-field linear algebra.

Everything here works with arbitrary-precision Python ints; no floating
point anywhere.  Three tiers are provided:

* dense matrices (lists of lists) with a Smith normal form that tracks
  the unimodular row transform and its inverse, and the column transform
  and its inverse unless the caller opts out.  Used wherever explicit
  bases are needed (homology generators, induced maps, retraction
  systems).  Intended for desk-scale matrices.

* a sparse elimination engine (dict-of-dict rows) that computes only the
  rank and invariant factors.  Used for the large specialised boundary
  matrices, where transforms would be prohibitively big.

* a dense GF(p) tier (row reduction, rank, kernels, row-space solves
  mod a prime p) on plain ints, for F_p-coefficient homology.

Conventions: a "rows" sparse matrix is ``{i: {j: v}}`` with no zero
values stored and no empty rows.
"""

from __future__ import annotations


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def is_int(x):
    """True for an exact integer: not a bool, float or string."""
    return type(x) is int


# ---------------------------------------------------------------------------
# dense helpers


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def mat_mul(A, B):
    m = len(A)
    inner = len(B)
    n = len(B[0]) if inner else 0
    C = zeros(m, n)
    for i in range(m):
        Ai = A[i]
        Ci = C[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(n):
                    b = Bk[j]
                    if b:
                        Ci[j] += a * b
    return C

def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v) if a and x) for row in A]


def vec_mat(v, A):
    """The row vector v*A."""
    out = [0] * (len(A[0]) if A else 0)
    for x, row in zip(v, A):
        if x:
            for j, a in enumerate(row):
                if a:
                    out[j] += x * a
    return out


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


class SNF:
    """Smith normal form U*A*V = S with S diagonal and d1 | d2 | ...

    ``diag`` lists the diagonal of S including trailing zeros (length
    min(m, n)); all entries are >= 0.  U (m x m) and V (n x n) are
    unimodular; ``uinv`` and ``vinv`` are their exact inverses.  U and
    ``uinv`` are always present; V and ``vinv`` are None when the form
    was computed with ``track_cols=False``.
    """

    __slots__ = ("m", "n", "diag", "U", "V", "uinv", "vinv")

    def __init__(self, m, n, diag, U, V, uinv, vinv):
        self.m = m
        self.n = n
        self.diag = diag
        self.U = U
        self.V = V
        self.uinv = uinv
        self.vinv = vinv

    @property
    def rank(self):
        return sum(1 for d in self.diag if d)

    @property
    def invariant_factors(self):
        return [d for d in self.diag if d]


def smith_normal_form(A, track_cols=True):
    """Smith normal form of an integer matrix, with transforms.

    Returns an :class:`SNF`.  Row and column operations pivot on entries
    of minimal absolute value, which keeps coefficient growth tame at
    the matrix sizes this is used for.  With ``track_cols=False`` the
    column operations touch only S, and V and ``vinv`` are None; the
    diagonal, U and ``uinv`` are the same as with full tracking.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(row) for row in A]
    U = identity(m)
    uinv = identity(m)
    V = identity(n) if track_cols else None
    vinv = identity(n) if track_cols else None

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        if track_cols:
            for r in V:
                r[i], r[j] = r[j], r[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_add(i, j, q):
        # row_i += q * row_j ; U likewise, uinv gets the inverse column op
        Si, Sj = S[i], S[j]
        for t in range(n):
            if Sj[t]:
                Si[t] += q * Sj[t]
        Ui, Uj = U[i], U[j]
        for t in range(m):
            if Uj[t]:
                Ui[t] += q * Uj[t]
        for r in uinv:
            if r[i]:
                r[j] -= q * r[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for r in S:
            if r[j]:
                r[i] += q * r[j]
        if track_cols:
            for r in V:
                if r[j]:
                    r[i] += q * r[j]
            vi, vj = vinv[i], vinv[j]
            for t in range(n):
                if vi[t]:
                    vj[t] -= q * vi[t]

    def row_negate(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]
        for r in uinv:
            r[i] = -r[i]

    def find_pivot(t):
        best = None
        best_val = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best_val is None or v < best_val):
                    best, best_val = (i, j), v
                    if v == 1:
                        return best
        return best

    t = 0
    limit = min(m, n)
    while t < limit:
        if find_pivot(t) is None:
            break
        # re-select the globally minimal pivot after every clearing pass;
        # continuing with a stale local pivot makes coefficients explode
        while True:
            pi, pj = find_pivot(t)
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_add(i, t, -q)
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_add(j, t, -q)
            if all(S[i][t] == 0 for i in range(t + 1, m)) and all(
                S[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        if S[t][t] < 0:
            row_negate(t)
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if b % a:
                # gcd into position i, lcm into i+1
                col_add(i, i + 1, 1)
                while True:
                    if S[i + 1][i]:
                        q = S[i + 1][i] // S[i][i]
                        row_add(i + 1, i, -q)
                        if S[i + 1][i]:
                            row_swap(i, i + 1)
                            continue
                    if S[i][i + 1]:
                        q = S[i][i + 1] // S[i][i]
                        col_add(i + 1, i, -q)
                        if S[i][i + 1]:
                            col_swap(i, i + 1)
                            continue
                    break
                if S[i][i] < 0:
                    row_negate(i)
                if S[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True

    diag = [S[i][i] for i in range(limit)]
    return SNF(m, n, diag, U, V, uinv, vinv)


def solve_int(A, b):
    """One integer solution x of A x = b, or None if there is none."""
    snf = smith_normal_form(A)
    c = mat_vec(snf.U, b)
    y = [0] * snf.n
    for i in range(snf.m):
        d = snf.diag[i] if i < len(snf.diag) else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return mat_vec(snf.V, y)


def invert_unimodular(A):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(A)
    snf = smith_normal_form(A)
    if snf.rank != n or any(d != 1 for d in snf.diag):
        raise ValueError("matrix is not unimodular")
    # A = Uinv S Vinv with S = I, so A^-1 = V U
    return mat_mul(snf.V, snf.U)


def left_kernel(A):
    """Rows spanning {x : x A = 0}, a basis of a saturated lattice."""
    m = len(A)
    snf = smith_normal_form(A)
    r = snf.rank
    return [list(snf.U[i]) for i in range(r, m)]


def right_kernel(A):
    """Columns (returned as rows) spanning {x : A x = 0}."""
    return left_kernel(transpose(A))


# ---------------------------------------------------------------------------
# sparse tier


def sparse_from_entries(entries):
    """Build dict-of-dict rows from an iterable of (i, j, v)."""
    rows = {}
    for i, j, v in entries:
        if not v:
            continue
        row = rows.setdefault(i, {})
        w = row.get(j, 0) + v
        if w:
            row[j] = w
        else:
            del row[j]
            if not row:
                del rows[i]
    return rows


def sparse_mul(rows_a, rows_b):
    """Product of two dict-of-dict sparse matrices."""
    out = {}
    for i, row in rows_a.items():
        acc = {}
        for k, a in row.items():
            brow = rows_b.get(k)
            if brow:
                for j, b in brow.items():
                    w = acc.get(j, 0) + a * b
                    if w:
                        acc[j] = w
                    else:
                        del acc[j]
        if acc:
            out[i] = acc
    return out


def sparse_is_zero(rows):
    return not rows


def sparse_nnz(rows):
    return sum(len(r) for r in rows.values())


def sparse_to_dense(rows, m, n):
    A = zeros(m, n)
    for i, row in rows.items():
        for j, v in row.items():
            A[i][j] = v
    return A


def dense_to_sparse(A):
    return sparse_from_entries(
        (i, j, v) for i, row in enumerate(A) for j, v in enumerate(row) if v
    )


def sparse_invariant_factors(rows):
    """Invariant factors (no transforms) of a sparse integer matrix.

    Destructive fraction-free elimination with Markowitz-style pivoting
    on entries of minimal absolute value.  Returns the full sorted list
    of invariant factors d1 | d2 | ... (1s included), so the rank is the
    list length.
    """
    rows = {i: dict(r) for i, r in rows.items()}
    cols = {}
    unit_queue = []
    for i, r in rows.items():
        for j, v in r.items():
            cols.setdefault(j, set()).add(i)
            if v in (1, -1):
                unit_queue.append((i, j))

    def discard(i, j):
        c = cols.get(j)
        if c is not None:
            c.discard(i)
            if not c:
                del cols[j]

    def set_entry(i, j, v):
        row = rows.get(i)
        if v:
            if row is None:
                row = rows[i] = {}
            if j not in row:
                cols.setdefault(j, set()).add(i)
            row[j] = v
            if v in (1, -1):
                unit_queue.append((i, j))
        else:
            if row is not None and j in row:
                del row[j]
                discard(i, j)
                if not row:
                    del rows[i]

    def add_multiple_of_row(i, src, q, skip_col):
        # row_i += q * row_src, skipping the pivot column (cleared separately)
        src_row = rows.get(src, {})
        for j, v in list(src_row.items()):
            if j == skip_col:
                continue
            cur = rows.get(i, {}).get(j, 0)
            set_entry(i, j, cur + q * v)

    diagonal = []

    def pick_unit_pivot():
        # lazily validated queue of entries that were +-1 when enqueued;
        # among a small batch of still-valid ones, pick the least fill
        batch = []
        while unit_queue and len(batch) < 16:
            i, j = unit_queue.pop()
            row = rows.get(i)
            if row is not None and row.get(j) in (1, -1):
                batch.append((i, j))
        if not batch:
            return None
        best = min(
            batch, key=lambda ij: (len(rows[ij[0]]) - 1) * (len(cols[ij[1]]) - 1)
        )
        unit_queue.extend(ij for ij in batch if ij != best)
        return best

    def pick_pivot():
        unit = pick_unit_pivot()
        if unit is not None:
            return unit
        best = None
        best_key = None
        for j, cset in cols.items():
            clen = len(cset)
            for i in cset:
                v = rows[i][j]
                av = abs(v)
                key = (av, (len(rows[i]) - 1) * (clen - 1))
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
                    if key == (1, 0):
                        return best
        return best

    while cols:
        pi, pj = pick_pivot()
        # make the pivot divide its column and row via xgcd combinations
        while True:
            pval = rows[pi][pj]
            col_rows = [i for i in cols[pj] if i != pi]
            bad = [i for i in col_rows if rows[i][pj] % pval]
            if bad:
                i = bad[0]
                a, b = pval, rows[i][pj]
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                # (pivot_row, row_i) <- (x*p + y*i, -bg*p + ag*i): pivot col gets (g, 0)
                prow = dict(rows.get(pi, {}))
                irow = dict(rows.get(i, {}))
                keys = set(prow) | set(irow)
                for j in keys:
                    u = prow.get(j, 0)
                    v = irow.get(j, 0)
                    set_entry(pi, j, x * u + y * v)
                    set_entry(i, j, -bg * u + ag * v)
                continue
            row_cols = [j for j in rows.get(pi, {}) if j != pj]
            badc = [j for j in row_cols if rows[pi][j] % pval]
            if badc:
                j = badc[0]
                a, b = pval, rows[pi][j]
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                col_j = list(cols.get(j, set()))
                col_p = list(cols.get(pj, set()))
                touched = set(col_j) | set(col_p)
                for i in touched:
                    u = rows.get(i, {}).get(pj, 0)
                    v = rows.get(i, {}).get(j, 0)
                    set_entry(i, pj, x * u + y * v)
                    set_entry(i, j, -bg * u + ag * v)
                continue
            break
        # eliminate the pivot column, then drop pivot row and column
        pval = rows[pi][pj]
        for i in list(cols[pj]):
            if i == pi:
                continue
            q = -(rows[i][pj] // pval)
            add_multiple_of_row(i, pi, q, pj)
            set_entry(i, pj, 0)
        for j in list(rows.get(pi, {})):
            discard(pi, j)
        rows.pop(pi, None)
        diagonal.append(abs(pval))

    return _diagonal_to_invariant_factors(diagonal)


def _diagonal_to_invariant_factors(diag):
    """Invariant factors of a diagonal matrix: pairwise gcd/lcm closure."""
    vals = [abs(d) for d in diag if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    _, _, g = xgcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
        vals.sort()
    return sorted(vals)


# ---------------------------------------------------------------------------
# field tier (GF(p)), for field-coefficient homology
#
# Every function takes the prime p first, reduces its input mod p, and
# returns entries in 0..p-1.


def field_rref(p, A):
    """Reduced row echelon form over GF(p).  Returns (R, pivot_cols)."""
    R = [[x % p for x in row] for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for j in range(n):
        piv = None
        for i in range(r, m):
            if R[i][j]:
                piv = i
                break
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][j], p - 2, p)
        R[r] = [inv * x % p for x in R[r]]
        for i in range(m):
            if i != r and R[i][j]:
                c = R[i][j]
                R[i] = [(x - c * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(j)
        r += 1
        if r == m:
            break
    return R, pivots


def field_rank(p, A):
    return len(field_rref(p, A)[1])


def field_left_kernel(p, A):
    """Rows spanning {x : x A = 0} over GF(p)."""
    m = len(A)
    if m == 0:
        return []
    n = len(A[0])
    # solve via rref of transpose augmented with identity tracking
    # x A = 0  <=>  A^T x^T = 0
    AT = [[A[i][j] for i in range(m)] for j in range(n)]
    R, pivots = field_rref(p, AT)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for fcol in free:
        x = [0] * m
        x[fcol] = 1
        for ridx, pj in enumerate(pivots):
            x[pj] = -R[ridx][fcol] % p
        basis.append(x)
    return basis


def field_solve_in_rowspace(p, rows, vec):
    """Coefficients c with sum c_i rows_i = vec over GF(p), or None."""
    if not rows:
        return [] if all(x % p == 0 for x in vec) else None
    m = len(rows)
    n = len(rows[0])
    # solve rows^T c = vec
    A = [[rows[i][j] for i in range(m)] + [vec[j]] for j in range(n)]
    R, pivots = field_rref(p, A)
    if m in pivots:
        return None
    c = [0] * m
    for ridx, pj in enumerate(pivots):
        c[pj] = R[ridx][m]
    return c
