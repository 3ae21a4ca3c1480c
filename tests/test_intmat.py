import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, seed, settings, strategies as st

from hurstab import intmat


def mat_mul(A, B):
    """Dense product, a test-local oracle for the sparse one."""
    n = len(B[0]) if B else 0
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(n)]
            for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def snf_of(A, track_cols=True):
    """The Smith form of a dense matrix with at least one row."""
    return intmat.smith_normal_form(intmat.dense_to_sparse(A),
                                    (len(A), len(A[0])), track_cols)


def dense_rows(rows, m):
    """The dense matrix whose row k is the sparse vector rows[k]."""
    return intmat.sparse_to_dense(rows, m, m)


def dense_cols(cols, m):
    """The dense matrix whose column k is the sparse vector cols[k]."""
    return transpose(dense_rows(cols, m))


small_matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(small_matrices)
@settings(max_examples=200, deadline=None)
def test_snf_round_trip(A):
    snf = snf_of(A)
    m, n = len(A), len(A[0])
    U, V = dense_rows(snf.u_rows, m), dense_cols(snf.v_cols, n)
    S = mat_mul(mat_mul(U, A), V)
    for i, row in enumerate(S):
        for j, v in enumerate(row):
            assert v == (snf.diag[i] if i == j and i < len(snf.diag) else 0)
    assert mat_mul(U, dense_cols(snf.uinv_cols, m)) == identity(m)
    assert mat_mul(V, dense_rows(snf.vinv_rows, n)) == identity(n)
    factors = snf.invariant_factors
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in factors)


@given(small_matrices)
@settings(max_examples=200, deadline=None)
def test_snf_without_column_transforms(A):
    full = snf_of(A)
    rows_only = snf_of(A, track_cols=False)
    assert rows_only.v_cols is None and rows_only.vinv_rows is None
    assert rows_only.diag == full.diag
    assert rows_only.u_rows == full.u_rows
    assert rows_only.uinv_cols == full.uinv_cols
    # U*A = S*vinv: the row transform alone carries A to S up to columns
    S = [[d if i == j else 0 for j in range(full.n)]
         for i, d in enumerate(full.diag + [0] * (full.m - len(full.diag)))]
    assert mat_mul(dense_rows(full.u_rows, full.m), A) == mat_mul(
        S, dense_rows(full.vinv_rows, full.n))


@st.composite
def sparse_matrices(draw):
    """Sparse rows of an m x n integer matrix, 0 <= m, n <= 7, with up to
    m*n nonzero entries."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(n - 1, 0))),
        st.integers(-30, 30).filter(bool), max_size=m * n)) if m and n else {}
    rows = {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = v
    return rows, (m, n)


@seed(20261019)
@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_transforms(case):
    rows, (m, n) = case
    snf = intmat.smith_normal_form(rows, (m, n))
    eye = {k: {k: 1} for k in range(m)}
    U, uinv = snf.u_rows, intmat.sparse_transpose(snf.uinv_cols)
    V, vinv = intmat.sparse_transpose(snf.v_cols), snf.vinv_rows
    S = {k: {k: d} for k, d in enumerate(snf.diag) if d}
    assert intmat.sparse_mul(intmat.sparse_mul(U, rows), V) == S
    assert intmat.sparse_mul(U, uinv) == eye
    assert intmat.sparse_mul(V, vinv) == {k: {k: 1} for k in range(n)}
    rows_only = intmat.smith_normal_form(rows, (m, n), track_cols=False)
    assert (rows_only.diag, rows_only.u_rows, rows_only.uinv_cols) == (
        snf.diag, snf.u_rows, snf.uinv_cols)
    # the dense views hold the sparse transforms, so the benchmark
    # tracer's entry count and bit count read the same matrices
    assert snf.U == [[snf.u_rows[k].get(a, 0) for a in range(m)]
                     for k in range(m)]
    assert snf.uinv == [[snf.uinv_cols[k].get(a, 0) for k in range(m)]
                        for a in range(m)]
    dense_bits = max((abs(x).bit_length() for mat in (snf.U, snf.uinv)
                      for row in mat for x in row), default=0)
    sparse_bits = max((abs(x).bit_length() for vecs in (U, uinv)
                       for vec in vecs.values() for x in vec.values()),
                      default=0)
    assert (snf.m, snf.n, dense_bits) == (m, n, sparse_bits)


def _det(M):
    """Exact determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j, a in enumerate(M[0]) if a)


def determinantal_factors(A):
    """Invariant factors as d_k = D_k / D_(k-1), with D_k the gcd of the
    k x k minors: an oracle that shares no code with the elimination."""
    m, n = len(A), len(A[0])
    factors, prev = [], 1
    for k in range(1, min(m, n) + 1):
        D = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                D = gcd(D, _det([[A[i][j] for j in cs] for i in rs]))
        if D == 0:
            break
        factors.append(D // prev)
        prev = D
    return factors


# up to 5 x 5, so the minors stay cheap; scaled rows and columns give
# non-unit invariant factors that are not already a divisibility chain
oracle_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                     min_size=m, max_size=m),
            st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=m, max_size=m),
            st.lists(st.sampled_from([1, 2, 3, 5]), min_size=n, max_size=n),
        ).map(lambda t: [[a * t[1][i] * t[2][j] for j, a in enumerate(row)]
                         for i, row in enumerate(t[0])])
    )
)


@given(oracle_matrices)
@settings(max_examples=200, deadline=None)
def test_sparse_factors_agree_with_dense(A):
    expected = determinantal_factors(A)
    assert snf_of(A).invariant_factors == expected
    assert intmat.sparse_invariant_factors(intmat.dense_to_sparse(A)) == expected


def test_snf_examples():
    assert snf_of([[2, 4], [6, 8]]).invariant_factors == [2, 4]
    assert snf_of([[1, 0], [0, 1]]).invariant_factors == [1, 1]
    assert snf_of([[0]]).invariant_factors == []
    A = [[2, 0], [0, 3]]
    snf = snf_of(A)
    assert snf.diag == [1, 6]
    assert mat_mul(mat_mul(snf.U, A), dense_cols(snf.v_cols, 2)) == [
        [1, 0], [0, 6]]


def test_solve_int():
    A = {0: {0: 2}, 1: {1: 3}}
    assert intmat.solve_int(A, (2, 2), {0: 4, 1: 9}) == {0: 2, 1: 3}
    assert intmat.solve_int(A, (2, 2), {0: 1}) is None
    A2 = {0: {0: 1, 1: 2}, 1: {0: 2, 1: 4}}
    x = intmat.solve_int(A2, (2, 2), {0: 3, 1: 6})
    assert x is not None and x.get(0, 0) + 2 * x.get(1, 0) == 3
    # a zero row with a nonzero right-hand side, and a 2 x 0 system
    assert intmat.solve_int({0: {0: 1}}, (2, 1), {1: 1}) is None
    assert intmat.solve_int({}, (2, 0), {}) == {}


def test_kernels():
    A = [[1, 2], [2, 4]]
    rows = intmat.dense_to_sparse(A)
    left = intmat.right_kernel(intmat.sparse_transpose(rows), (2, 2))
    assert len(left) == 1
    x = [left[0].get(j, 0) for j in range(2)]
    assert x[0] * 1 + x[1] * 2 == 0 and x[0] * 2 + x[1] * 4 == 0
    right = intmat.right_kernel(rows, (2, 2))
    assert len(right) == 1
    v = right[0]
    assert v.get(0, 0) + 2 * v.get(1, 0) == 0
    # the kernel of a map with no rows is everything
    assert intmat.right_kernel({}, (0, 3)) == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_saturated():
    # kernel vectors span a saturated lattice: solving against them is
    # integral for any integer combination of them
    rng = random.Random(2)
    for _ in range(50):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = intmat.dense_to_sparse(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        K = intmat.right_kernel(A, (m, n))
        if not K:
            continue
        coeffs = [rng.randint(-3, 3) for _ in K]
        vec = [sum(c * k.get(j, 0) for c, k in zip(coeffs, K))
               for j in range(n)]
        vec = {j: x for j, x in enumerate(vec) if x}
        # the columns of the system are the kernel vectors
        system = intmat.sparse_transpose(dict(enumerate(K)))
        sol = intmat.solve_int(system, (n, len(K)), vec)
        assert sol is not None
        assert intmat.sparse_mul(A, intmat.sparse_transpose({0: vec})) == {}


def test_invert_unimodular():
    A = {0: {0: 1, 1: 2}, 1: {1: 1}}
    inv = intmat.invert_unimodular(A, 2)
    assert intmat.sparse_mul(A, inv) == {0: {0: 1}, 1: {1: 1}}
    try:
        intmat.invert_unimodular({0: {0: 2}, 1: {1: 1}}, 2)
        raised = False
    except ValueError:
        raised = True
    assert raised


def test_sparse_mul_matches_dense():
    rng = random.Random(4)
    for _ in range(60):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        dense = mat_mul(A, B)
        sparse = intmat.sparse_mul(
            intmat.dense_to_sparse(A), intmat.dense_to_sparse(B)
        )
        assert intmat.sparse_to_dense(sparse, m, n) == dense
        assert intmat.sparse_to_dense(
            intmat.sparse_transpose(intmat.dense_to_sparse(A)), k, m) == (
            transpose(A))


def test_sparse_mul_tolerates_stored_zeros():
    # the format forbids stored zeros, but no entry point checks for
    # them: a zero product on a key not yet summed leaves no entry
    assert intmat.sparse_mul({0: {1: 0}}, {1: {0: 1}}) == {}
    assert intmat.sparse_mul({0: {0: 2, 1: 0}}, {0: {0: 1}, 1: {0: 5}}) == {
        0: {0: 2}}
    assert intmat.sparse_mul({0: {0: 1}}, {0: {0: 0, 1: 3}}) == {0: {1: 3}}


def test_sparse_invariant_factors_ignore_stored_zeros():
    assert intmat.sparse_invariant_factors({0: {0: 0, 1: 2}}) == [2]
    assert intmat.sparse_invariant_factors({0: {0: 0}, 1: {1: 0}}) == []
    rows = {0: {0: 0, 1: 2}, 1: {0: 4, 1: 0}, 2: {2: 0}}
    stripped = {0: {1: 2}, 1: {0: 4}}
    assert intmat.sparse_invariant_factors(rows) == (
        intmat.sparse_invariant_factors(stripped)) == [2, 4]
    assert rows[0] == {0: 0, 1: 2}  # the input is not changed


def fraction_abs_det(A):
    """|det A| by Gaussian elimination over the rationals: an oracle that
    shares no code with the fraction-free one."""
    M = [[Fraction(x) for x in row] for row in A]
    n, det = len(M), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        M[k], M[piv] = M[piv], M[k]
        det *= M[k][k]
        for i in range(k + 1, n):
            q = M[i][k] / M[k][k]
            M[i] = [a - q * b for a, b in zip(M[i], M[k])]
    return abs(int(det))


@seed(1968)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=300, deadline=None)
def test_abs_determinant_matches_cofactors(A):
    n = len(A)
    assert intmat.abs_determinant(intmat.dense_to_sparse(A), n) == abs(_det(A))


def sparse_user_matrix(s, m, n, nnz):
    """The dense m x n matrix with nnz entries in [-40, 40], none zero,
    at places drawn from random.Random(s)."""
    rng = random.Random(s)
    A = [[0] * n for _ in range(m)]
    for pos in rng.sample(range(m * n), nnz):
        v = 0
        while not v:
            v = rng.randint(-40, 40)
        A[pos // n][pos % n] = v
    return A


# an elimination by xgcd row and column combinations ran for seconds to
# minutes on these square matrices, and never finished on some of the
# wide ones
SQUARE_USER_MATRICES = [sparse_user_matrix(s, 24, 24, 62)
                        for s in range(1, 13)]
WIDE_USER_MATRICES = [sparse_user_matrix(s, 23, 25, 61) for s in range(30)]


def test_abs_determinant_of_sparse_user_matrices_is_fast():
    for A in SQUARE_USER_MATRICES:
        start = time.perf_counter()
        got = intmat.abs_determinant(intmat.dense_to_sparse(A), 24)
        assert time.perf_counter() - start < 1.0
        assert got == fraction_abs_det(A)
    # a unimodular matrix far from a permutation
    rng = random.Random(7)
    U = identity(12)
    for _ in range(60):
        a, b = rng.sample(range(12), 2)
        q = rng.choice((-1, 1))
        U[a] = [x + q * y for x, y in zip(U[a], U[b])]
    assert intmat.abs_determinant(intmat.dense_to_sparse(U), 12) == 1


def test_smith_form_of_sparse_user_matrices_is_fast():
    # U*A*V = S, with U and V invertible and S a divisibility chain,
    # pins the Smith form down, since it is unique
    for A in SQUARE_USER_MATRICES + WIDE_USER_MATRICES:
        m, n = len(A), len(A[0])
        rows = intmat.dense_to_sparse(A)
        start = time.perf_counter()
        factors = intmat.sparse_invariant_factors(rows)
        full = intmat.smith_normal_form(rows, (m, n))
        rows_only = intmat.smith_normal_form(rows, (m, n), track_cols=False)
        assert time.perf_counter() - start < 1.0
        U, uinv = full.u_rows, intmat.sparse_transpose(full.uinv_cols)
        V, vinv = intmat.sparse_transpose(full.v_cols), full.vinv_rows
        S = {k: {k: d} for k, d in enumerate(full.diag) if d}
        assert intmat.sparse_mul(intmat.sparse_mul(U, rows), V) == S
        assert intmat.sparse_mul(U, uinv) == {k: {k: 1} for k in range(m)}
        assert intmat.sparse_mul(V, vinv) == {k: {k: 1} for k in range(n)}
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert full.invariant_factors == factors
        assert (rows_only.diag, rows_only.u_rows, rows_only.uinv_cols) == (
            full.diag, full.u_rows, full.uinv_cols)


def test_field_rank_and_kernel():
    A = [[1, 1], [1, 1]]
    assert intmat.field_rank(2, A) == 1
    ker = intmat.field_left_kernel(2, A)
    assert len(ker) == 1 and ker[0] == [1, 1]


def test_field_solve_in_rowspace():
    rows = [[1, 2, 0], [0, 1, 1]]
    c, missing = intmat.field_solve_in_rowspace(
        5, rows, [enumerate([1, 0, 3]), [(2, 1)]], 3)
    assert c is not None
    got = [(c[0] * rows[0][j] + c[1] * rows[1][j]) % 5 for j in range(3)]
    assert got == [1, 0, 3]
    assert missing is None
    # the second of two equal non-members gets no pivot of its own
    assert intmat.field_solve_in_rowspace(
        5, rows, [[(2, 1)], [(2, 1)], []], 3) == [None, None, [0, 0]]
    # with no rows only vectors that vanish mod p are in the span
    assert intmat.field_solve_in_rowspace(
        3, [], [[], [(1, 3)], [(0, 1)]], 2) == [[], [], None]


def one_vector_solve(p, rows, vec):
    """The one-vector solver the batched one replaced: the full reduced
    row echelon form of [rows^T | vec] over GF(p), then a read of its
    last column."""
    if not rows:
        return [] if all(x % p == 0 for x in vec) else None
    m = len(rows)
    R = [[rows[i][j] % p for i in range(m)] + [vec[j] % p]
         for j in range(len(vec))]
    pivots = []
    for j in range(m + 1):
        r = len(pivots)
        piv = next((i for i in range(r, len(R)) if R[i][j]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][j], p - 2, p)
        R[r] = [inv * x % p for x in R[r]]
        for i in range(len(R)):
            c = R[i][j]
            if i != r and c:
                R[i] = [(x - c * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(j)
    if m in pivots:
        return None
    c = [0] * m
    for ridx, pj in enumerate(pivots):
        c[pj] = R[ridx][m]
    return c


@st.composite
def solve_batches(draw):
    """A prime, a width, up to four rows, and a batch holding random
    vectors, combinations of the rows and a zero vector, each twice."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    vectors = st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4)
    rows = draw(vectors)
    vecs = draw(vectors)
    combos = draw(st.lists(st.lists(entries, min_size=len(rows),
                                    max_size=len(rows)), max_size=3))
    vecs += [mat_mul([c], rows)[0] if rows else [0] * n for c in combos]
    vecs += [[0] * n]
    return p, n, rows, vecs + vecs


@given(solve_batches())
@settings(max_examples=300, deadline=None)
def test_batched_solve_matches_one_vector_solver(case):
    p, n, rows, vecs = case
    pairs = [[(j, x) for j, x in enumerate(v) if x] for v in vecs]
    assert intmat.field_solve_in_rowspace(p, rows, pairs, n) == [
        one_vector_solve(p, rows, v) for v in vecs]
