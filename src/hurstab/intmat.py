"""Exact integer and small-field linear algebra.

Everything here works with arbitrary-precision Python ints; no floating
point anywhere.  Integer matrices have one format: sparse rows
``{i: {j: v}}`` with no zero values stored and no empty rows, plus a
shape (m, n) where it matters; a list of columns is read as the rows of
the transpose, and a vector is ``{index: value}``.  Four parts:

* one integer Smith elimination engine on sparse rows (:func:`_smith`),
  whose one step reduces entries mod a pivot of least absolute value by
  elementary row and column additions, with two entry points.
  ``sparse_invariant_factors`` asks it for the invariant factors only,
  for the small matrices whose rank is all that is read (presented
  maps).  ``smith_normal_form`` asks it to track the row transform and
  its inverse, and the column transform and its inverse unless the
  caller opts out, and returns them as sparse vectors, for wherever
  explicit bases are needed (homology bases of reduced cores, map
  flags, cokernels and inverses in coefficient systems).

* a fraction-free determinant (:func:`abs_determinant`) for
  unimodularity checks of user matrices.

* one unit-pivot reduction of chain complexes (:func:`reduce_complex`)
  on sparse rows, over Z or mod a prime p: it cancels every unit
  boundary entry and returns a chain-homotopy equivalent core complex,
  with the projection onto it and the inclusion back, so that homology
  bases only ever see the core.

* a dense GF(p) tier (row reduction, rank, kernels, row-space solves
  mod a prime p) on plain ints, for F_p-coefficient homology of cores.
"""

from __future__ import annotations


def is_int(x):
    """True for an exact integer: not a bool, float or string."""
    return type(x) is int


class SNF:
    """Smith normal form U*A*V = S of an m x n integer matrix A, with S
    diagonal and d1 | d2 | ...

    ``diag`` lists the diagonal of S including trailing zeros (length
    min(m, n)); all entries are >= 0.  U (m x m) and V (n x n) are
    unimodular, kept sparse and in pivot order: ``u_rows[k]`` is row k
    of U and ``uinv_cols[k]`` column k of its inverse, ``v_cols[k]``
    column k of V and ``vinv_rows[k]`` row k of its inverse, each a
    ``{index: value}`` dict.  V and its inverse are None when the form
    was computed with ``track_cols=False``.  The first ``rank`` rows of
    U are the pivot rows; the rest span the left kernel.
    """

    __slots__ = ("m", "n", "diag", "u_rows", "uinv_cols", "v_cols",
                 "vinv_rows")

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    @property
    def rank(self):
        return sum(1 for d in self.diag if d)

    @property
    def invariant_factors(self):
        return [d for d in self.diag if d]

    # dense views, built on each access; only the benchmark's tracer
    # reads them
    @property
    def U(self):
        return sparse_to_dense(self.u_rows, self.m, self.m)

    @property
    def uinv(self):
        return sparse_to_dense(sparse_transpose(self.uinv_cols),
                               self.m, self.m)


def smith_normal_form(rows, shape, track_cols=True):
    """Smith normal form of the integer matrix of the given ``shape``
    (m, n) with sparse rows ``rows``, with transforms.

    Returns an :class:`SNF`.  The elimination engine (:func:`_smith`)
    runs on a copy of ``rows`` with rows and entries in increasing
    index order and no zeros, so its pivots do not depend on the order
    of ``rows``.
    It tracks U and its inverse, and V and its inverse unless
    ``track_cols`` is False; its pivots do not depend on what it
    tracks, so the diagonal and U are the same either way.
    """
    m, n = shape
    rows = {i: {j: r[j] for j in sorted(r) if r[j]}
            for i, r in sorted(rows.items())}
    rows = {i: r for i, r in rows.items() if r}
    pivots, U, uinv, V, vinv = _smith(rows, m, n if track_cols else None)
    diag = [d for _, _, d in pivots] + [0] * (min(m, n) - len(pivots))
    order = _pivots_first([i for i, _, _ in pivots], m)
    u_rows = {k: U[a] for k, a in enumerate(order)}
    uinv_cols = {k: uinv[a] for k, a in enumerate(order)}
    if track_cols:
        order = _pivots_first([j for _, j, _ in pivots], n)
        V = {k: V[a] for k, a in enumerate(order)}
        vinv = {k: vinv[a] for k, a in enumerate(order)}
    return SNF(m, n, diag, u_rows, uinv_cols, V, vinv)


def _pivots_first(pivots, size):
    return pivots + sorted(set(range(size)).difference(pivots))


def solve_int(rows, shape, b):
    """One integer solution x of A x = b, for A given by its sparse rows
    and shape and b by ``{index: value}``: a sparse ``{index: value}``,
    or None if there is none."""
    snf = smith_normal_form(rows, shape)
    x = {}
    for k, row in snf.u_rows.items():
        c = sum(w * row.get(a, 0) for a, w in b.items())
        d = snf.diag[k] if k < len(snf.diag) else 0
        if c % d if d else c:
            return None
        if c:
            _axpy(x, snf.v_cols[k], c // d)
    return x


def invert_unimodular(rows, n):
    """Sparse rows of the inverse of the n x n integer matrix with sparse
    rows ``rows`` and determinant +-1."""
    snf = smith_normal_form(rows, (n, n))
    if snf.diag != [1] * n:
        raise ValueError("matrix is not unimodular")
    # A = Uinv S Vinv with S = I, so A^-1 = V U
    return sparse_mul(sparse_transpose(snf.v_cols), snf.u_rows)


def right_kernel(rows, shape):
    """Sparse vectors ``{index: value}`` spanning {x : A x = 0}, a basis
    of a saturated lattice: the columns of V past the rank."""
    snf = smith_normal_form(rows, shape)
    return [snf.v_cols[k] for k in range(snf.rank, shape[1])]


def abs_determinant(rows, n):
    """|det A| of the n x n integer matrix with sparse rows ``rows``, by
    fraction-free elimination (Bareiss, Math. Comp. 1968).  Each entry
    of the remaining rows after step k is a (k+1) x (k+1) minor of A,
    so bit lengths grow at most linearly in k; the divisions by the
    previous pivot are exact."""
    rest = {i: dict(r) for i, r in rows.items() if r}
    prev = 1
    for k in range(n):
        piv = min((i for i, r in rest.items() if k in r),
                  key=lambda i: len(rest[i]), default=None)
        if piv is None:
            return 0
        prow = rest.pop(piv)
        pk = prow.pop(k)
        for i, row in rest.items():
            a = row.pop(k, 0)
            new = {j: pk * v for j, v in row.items()}
            if a:
                _axpy(new, prow, -a)
            rest[i] = {j: w // prev for j, w in new.items()}
        prev = pk
    return abs(prev)


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
                        # a stored zero can make w 0 on a key not set
                        acc.pop(j, None)
        if acc:
            out[i] = acc
    return out


def sparse_transpose(rows):
    """The transpose of a dict-of-dict sparse matrix."""
    out = {}
    for i, row in rows.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


def sparse_nnz(rows):
    return sum(len(r) for r in rows.values())


def sparse_to_dense(rows, m, n):
    A = [[0] * n for _ in range(m)]
    for i, row in rows.items():
        for j, v in row.items():
            A[i][j] = v
    return A


def dense_to_sparse(A):
    rows = ({j: v for j, v in enumerate(row) if v} for row in A)
    return {i: row for i, row in enumerate(rows) if row}


def sparse_invariant_factors(rows):
    """Invariant factors (no transforms) of a sparse integer matrix.

    Runs the elimination engine (:func:`_smith`) on a copy of ``rows``
    without stored zeros and returns the full sorted list of invariant
    factors d1 | d2 | ... (1s included), so the rank is the list length.
    """
    pivots = _smith({i: {j: v for j, v in r.items() if v}
                     for i, r in rows.items()})[0]
    return [d for _, _, d in pivots]


def _smith(rows, row_dim=None, col_dim=None):
    """Sparse Smith elimination of ``rows``, which it consumes.

    Each step picks a pivot: a +-1 entry when there is one (the least
    Markowitz fill in a small batch), else an entry of least absolute
    value and then least fill.  Row additions reduce every other entry
    of its column to its remainder mod the pivot, and then column
    additions reduce its row; if either leaves a remainder, a smaller
    pivot is picked (Havas, Holt and Rees, Linear Algebra Appl. 1993).
    A non-unit pivot alone in its row and column that does not divide
    some entry left adds that entry's row to its own and is kept, so
    that its next row reduction leaves a remainder; otherwise it is
    dropped with its row and column.  Each pivot divides every entry
    left when it is dropped, so the units come first and d1 | d2 | ...
    without sorting.

    Returns ``(pivots, U, uinv, V, vinv)``.  ``pivots`` lists
    ``(row, col, d)`` with d > 0 and d1 | d2 | ..., and U*A*V is zero
    except d at each (row, col).  U (by rows) and ``uinv`` (by columns)
    are tracked as ``{index: {index: value}}`` when ``row_dim`` is given,
    V (by columns) and ``vinv`` (by rows) when ``col_dim`` is; untracked
    ones are None.  The pivots do not depend on what is tracked.
    """
    U, uinv = _identity_pair(row_dim)
    V, vinv = _identity_pair(col_dim)
    cols = {}
    unit_queue = []
    for i, r in rows.items():
        for j, v in r.items():
            cols.setdefault(j, set()).add(i)
            if v in (1, -1):
                unit_queue.append((i, j))

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
        elif row is not None and j in row:
            del row[j]
            cols[j].discard(i)
            if not cols[j]:
                del cols[j]
            if not row:
                del rows[i]

    def add_row(i, src, q):
        # row_i += q * row_src, recorded on U
        for j, v in rows[src].items():
            set_entry(i, j, rows.get(i, {}).get(j, 0) + q * v)
        if U is not None:
            _add(U, uinv, i, src, q)

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

    pivots = []
    kept = None
    while cols:
        pi, pj = kept or pick_pivot()
        kept = None
        pval = rows[pi][pj]
        for i in [i for i in cols[pj] if i != pi]:
            add_row(i, pi, -(rows[i][pj] // pval))
        if len(cols[pj]) > 1:
            continue
        for j in [j for j in rows[pi] if j != pj]:
            q = -(rows[pi][j] // pval)
            set_entry(pi, j, rows[pi][j] + q * pval)
            if V is not None:
                _add(V, vinv, j, pj, q)
        if len(rows[pi]) > 1:
            continue
        if pval not in (1, -1):
            bad = next((i for i, r in rows.items()
                        if any(v % pval for v in r.values())), None)
            if bad is not None:
                add_row(pi, bad, 1)
                kept = pi, pj
                continue
        del rows[pi], cols[pj]
        if pval < 0:
            pval = -pval
            for T in (V, vinv) if V is not None else ():
                T[pj] = {t: -w for t, w in T[pj].items()}
        pivots.append((pi, pj, pval))
    return pivots, U, uinv, V, vinv


class ChainReduction:
    """A chain complex reduced by unit-pivot cancellation (see
    :func:`reduce_complex`), with the chain maps between it and the
    complex it came from.

    ``dims`` and ``mats`` are the core complex, in the conventions of
    the input; ``cells[i]`` lists the input's degree-i cells that
    survive, in increasing order, and core cell n of degree i is
    ``cells[i][n]``.  Over F_p (``p`` > 0) every entry lies in 0..p-1.
    A chain, of the input or of the core, is a sparse ``{cell: value}``
    dict; the chains returned here store no zeros.
    """

    __slots__ = ("p", "dims", "mats", "cells", "_index", "_logs", "_lifts")

    def __init__(self, p, mats, cells, index, logs, lifts):
        self.p = p
        self.dims = [len(c) for c in cells]
        self.mats = mats
        self.cells = cells
        self._index = index
        self._logs = logs
        self._lifts = lifts

    def project(self, i, chain):
        """The projection pi_i of the degree-i chain ``{cell: value}``:
        a core chain ``{core cell: value}``, with values mod p over
        F_p."""
        p, index = self.p, self._index[i]
        v = {a: x % p if p else x for a, x in chain.items()}
        for t, img in self._logs[i]:
            c = v.pop(t, 0)
            if c:
                _axpy(v, img, c, p)
        return {index[a]: x for a, x in v.items() if x and a in index}

    def lift(self, i, chain):
        """The inclusion iota_i of the core chain ``{core cell: value}``:
        a chain ``{cell: value}`` of the input complex.  Refused in the
        top degree when the reduction was asked not to track it."""
        lifts = self._lifts[i]
        if lifts is None:
            raise ValueError(f"degree {i} inclusion was not tracked")
        out = {}
        for n, x in chain.items():
            a = self.cells[i][n]
            _axpy(out, lifts.get(a) or {a: 1}, x, self.p)
        return out


def reduce_complex(mats, dims, p=0, lift_top=True):
    """Reduce a chain complex by cancelling unit boundary entries.

    ``mats[j]`` (j = 1..len(dims)-1) are sparse ``{i: {j: v}}``
    boundaries acting on row vectors, with mats[j+1] * mats[j] = 0.  An
    entry u = D_j[s, t] is a unit when it is +-1 (``p`` = 0, over Z) or
    nonzero mod p (over F_p, where the input is read mod p).  Cancelling
    the pair (s, t) replaces D_j by its Schur complement
    D_j[a, b] - D_j[a, t] u^-1 D_j[s, b], drops column s of D_{j+1} and
    row t of D_{j-1}; the result is chain-homotopy equivalent to the
    input (Kaczynski, Mrozek and Slusarek, "Homology computation by
    reduction of chain complexes", 1998).  Degrees are reduced from 1
    upwards, each to a fixed point, so cancellations in D_{j+1} never
    create units in D_j again; within a degree the pivots come from
    sweeps over the rows, shortest row and shortest column first (see
    :func:`_cancel_units`).  Over F_p the core's boundaries are zero.

    Returns a :class:`ChainReduction` with the projection pi, a chain
    map onto the core, kept as a log of substitutions t -> pi(t) per
    degree, and the inclusion iota, a chain map back whose images of the
    core cells are kept as sparse rows, in every degree but the top one
    when ``lift_top`` is False.  pi o iota is the identity of the core.
    """
    top = len(dims) - 1
    alive = [set(range(n)) for n in dims]
    logs = [[] for _ in dims]
    lifts = [{} for _ in dims]
    if not lift_top:
        lifts[top] = None
    reduced = {}
    for j in range(1, top + 1):
        lower = alive[j - 1]
        rows = {}
        for a, r in mats.get(j, {}).items():
            r = {b: v % p if p else v for b, v in r.items() if b in lower}
            r = {b: v for b, v in r.items() if v}
            if r:
                rows[a] = r
        reduced[j] = rows
        _cancel_units(rows, p, alive[j], lower, lifts[j], logs[j - 1])
        if j > 1:
            reduced[j - 1] = {a: r for a, r in reduced[j - 1].items()
                              if a in lower}
        for a in [a for a in lifts[j - 1] if a not in lower]:
            del lifts[j - 1][a]
    cells = [sorted(s) for s in alive]
    index = [{a: n for n, a in enumerate(c)} for c in cells]
    core = {j: {index[j][a]: {index[j - 1][b]: v for b, v in rows[a].items()}
                for a in cells[j] if a in rows}
            for j, rows in reduced.items()}
    return ChainReduction(p, core, cells, index, logs, lifts)


def _cancel_units(rows, p, upper, lower, lift, log):
    """Cancel unit entries of the boundary ``rows`` until none is left,
    in place: the pivot pair leaves ``upper`` and ``lower``, ``lift``
    (``{cell: iota(cell)}``, identity rows implicit, or None) takes the
    row operations, and ``log`` the substitution t -> pi(t).  Over F_p
    (p > 0) every stored entry is a unit.

    The pivots are taken in sweeps, repeated until one cancels nothing:
    a sweep visits the rows alive when it starts, shortest first, and
    cancels each row still alive on its unit entry of shortest column.
    """
    cols = {}
    for a, r in rows.items():
        for b in r:
            cols.setdefault(b, set()).add(a)
    cancelled = True
    while cancelled:
        cancelled = False
        for s in sorted(rows, key=lambda a: len(rows[a])):
            prow = rows.get(s)
            units = [b for b, v in prow.items()
                     if p or v == 1 or v == -1] if prow else ()
            if not units:
                continue
            t = min(units, key=lambda b: len(cols[b]))
            u = prow.pop(t)
            del rows[s]
            inv = pow(u, p - 2, p) if p else u
            for b in prow:
                cols[b].discard(s)
            col = cols.pop(t)
            col.discard(s)
            if lift is not None:
                lift_s = lift.pop(s, None) or {s: 1}
            for a in col:
                row = rows[a]
                q = -row.pop(t) * inv
                if p:
                    q %= p
                for b, v in prow.items():
                    w = row.get(b, 0) + q * v
                    if p:
                        w %= p
                    if w:
                        if b not in row:
                            cols[b].add(a)
                        row[b] = w
                    elif b in row:
                        del row[b]
                        cols[b].discard(a)
                if not row:
                    del rows[a]
                if lift is not None:
                    _axpy(lift.setdefault(a, {a: 1}), lift_s, q, p)
            log.append((t, {b: (-inv * v) % p if p else -inv * v
                            for b, v in prow.items()}))
            upper.discard(s)
            lower.discard(t)
            cancelled = True


def _identity_pair(n):
    """A transform and its inverse, both the n x n identity; or Nones."""
    if n is None:
        return None, None
    return ({a: {a: 1} for a in range(n)} for _ in range(2))


def _axpy(u, v, q, p=0):
    """u += q*v in place, for sparse vectors {index: value}; mod p when
    p > 0."""
    for t, w in v.items():
        s = u.get(t, 0) + q * w
        if p:
            s %= p
        if s:
            u[t] = s
        else:
            u.pop(t, None)


def _add(T, Tinv, a, b, q):
    """T_a += q*T_b on the vectors of a transform T, and the inverse
    operation Tinv_b -= q*Tinv_a on those of Tinv (T by rows and Tinv by
    columns, or the other way round), in place."""
    _axpy(T[a], T[b], q)
    _axpy(Tinv[b], Tinv[a], -q)


# ---------------------------------------------------------------------------
# field tier (GF(p)), for field-coefficient homology
#
# Every function takes the prime p first, reduces its input mod p, and
# returns entries in 0..p-1.


def _field_eliminate(p, R, ncols):
    """Row-reduce R over GF(p) in place, with pivots in its first ncols
    columns only; entries must already lie in 0..p-1.  Row r ends up
    holding the r-th pivot, scaled to 1 and cleared from every other
    row; returns the pivot columns."""
    m = len(R)
    pivots = []
    r = 0
    for j in range(ncols):
        if r == m:
            break
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
    return pivots


def field_rref(p, A):
    """Reduced row echelon form over GF(p).  Returns (R, pivot_cols)."""
    R = [[x % p for x in row] for row in A]
    return R, _field_eliminate(p, R, len(R[0]) if R else 0)


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


def field_solve_in_rowspace(p, rows, vecs, width):
    """For each vector of the batch vecs, each given by (index, value)
    pairs with indices in range(width), the coefficients c with
    sum c_i rows_i = vec over GF(p), or None if it is not in the row
    space.

    One elimination of the width x (len(rows) + len(vecs)) matrix
    [rows^T | vecs^T] serves the whole batch: pivots are taken in the
    rows^T block only, so a vector lies in the row space exactly when its
    column is zero below the pivot rows, and then its column above them
    holds the coefficients of the pivot rows (the others are 0).
    """
    m = len(rows)
    A = [[row[j] % p for row in rows] + [0] * len(vecs) for j in range(width)]
    for t, vec in enumerate(vecs, m):
        for j, v in vec:
            A[j][t] = (A[j][t] + v) % p
    pivots = _field_eliminate(p, A, m)
    r = len(pivots)
    out = []
    for t in range(m, m + len(vecs)):
        if any(A[i][t] for i in range(r, width)):
            out.append(None)
            continue
        c = [0] * m
        for ridx, pj in enumerate(pivots):
            c[pj] = A[ridx][t]
        out.append(c)
    return out
