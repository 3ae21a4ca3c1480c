import random
from itertools import combinations
from math import gcd

from hypothesis import given, settings, strategies as st

from hurstab import intmat


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
    snf = intmat.smith_normal_form(A)
    S = intmat.mat_mul(intmat.mat_mul(snf.U, A), snf.V)
    for i, row in enumerate(S):
        for j, v in enumerate(row):
            assert v == (snf.diag[i] if i == j and i < len(snf.diag) else 0)
    assert intmat.mat_mul(snf.U, snf.uinv) == intmat.identity(len(A))
    assert intmat.mat_mul(snf.V, snf.vinv) == intmat.identity(len(A[0]))
    factors = snf.invariant_factors
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in factors)


@given(small_matrices)
@settings(max_examples=200, deadline=None)
def test_snf_without_column_transforms(A):
    full = intmat.smith_normal_form(A)
    rows_only = intmat.smith_normal_form(A, track_cols=False)
    assert rows_only.V is None and rows_only.vinv is None
    assert rows_only.diag == full.diag
    assert rows_only.U == full.U and rows_only.uinv == full.uinv
    # U*A = S*vinv: the row transform alone carries A to S up to columns
    S = [[d if i == j else 0 for j in range(full.n)]
         for i, d in enumerate(full.diag + [0] * (full.m - len(full.diag)))]
    assert intmat.mat_mul(full.U, A) == intmat.mat_mul(S, full.vinv)


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


# up to 4 x 4, so the minors stay cheap; scaled rows and columns give
# non-unit invariant factors that are not already a divisibility chain
oracle_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
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
    assert intmat.smith_normal_form(A).invariant_factors == expected
    assert intmat.sparse_invariant_factors(intmat.dense_to_sparse(A)) == expected


def test_snf_examples():
    assert intmat.smith_normal_form([[2, 4], [6, 8]]).invariant_factors == [2, 4]
    assert intmat.smith_normal_form([[1, 0], [0, 1]]).invariant_factors == [1, 1]
    assert intmat.smith_normal_form([[0]]).invariant_factors == []
    A = [[2, 0], [0, 3]]
    snf = intmat.smith_normal_form(A)
    assert snf.diag == [1, 6]
    assert intmat.mat_mul(intmat.mat_mul(snf.U, A), snf.V) == [[1, 0], [0, 6]]


def test_solve_int():
    A = [[2, 0], [0, 3]]
    assert intmat.solve_int(A, [4, 9]) == [2, 3]
    assert intmat.solve_int(A, [1, 0]) is None
    A2 = [[1, 2], [2, 4]]
    x = intmat.solve_int(A2, [3, 6])
    assert x is not None and A2[0][0] * x[0] + A2[0][1] * x[1] == 3


def test_kernels():
    A = [[1, 2], [2, 4]]
    left = intmat.left_kernel(A)
    assert len(left) == 1
    x = left[0]
    assert x[0] * 1 + x[1] * 2 == 0 and x[0] * 2 + x[1] * 4 == 0
    right = intmat.right_kernel(A)
    assert len(right) == 1
    v = right[0]
    assert v[0] + 2 * v[1] == 0


def test_kernel_saturated():
    # left kernel rows span a saturated lattice: solving against them is
    # integral for any integer cycle
    rng = random.Random(2)
    for _ in range(50):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        K = intmat.left_kernel(A)
        if not K:
            continue
        coeffs = [rng.randint(-3, 3) for _ in K]
        vec = [sum(c * K[t][j] for t, c in enumerate(coeffs))
               for j in range(m)]
        sol = intmat.solve_int(intmat.transpose(K), vec)
        assert sol is not None


def test_invert_unimodular():
    A = [[1, 2], [0, 1]]
    inv = intmat.invert_unimodular(A)
    assert intmat.mat_mul(A, inv) == intmat.identity(2)
    try:
        intmat.invert_unimodular([[2, 0], [0, 1]])
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
        dense = intmat.mat_mul(A, B)
        sparse = intmat.sparse_mul(
            intmat.dense_to_sparse(A), intmat.dense_to_sparse(B)
        )
        assert intmat.sparse_to_dense(sparse, m, n) == dense


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
    vecs += [intmat.mat_mul([c], rows)[0] if rows else [0] * n for c in combos]
    vecs += [[0] * n]
    return p, n, rows, vecs + vecs


@given(solve_batches())
@settings(max_examples=300, deadline=None)
def test_batched_solve_matches_one_vector_solver(case):
    p, n, rows, vecs = case
    pairs = [[(j, x) for j, x in enumerate(v) if x] for v in vecs]
    assert intmat.field_solve_in_rowspace(p, rows, pairs, n) == [
        one_vector_solve(p, rows, v) for v in vecs]
