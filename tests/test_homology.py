from math import gcd
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from hurstab import homology as hm
from hurstab import intmat
from hurstab import resolution as R
from hurstab.groups import FiniteGroup, conjugacy_closure

S3 = FiniteGroup.symmetric(3)
TRANSPOSITIONS = conjugacy_closure({S3.element_names.index("(1 2)")}, S3)


# ---------------------------------------------------------------------------
# dense oracles, local to the tests: intmat works on sparse rows only


def mat_mul(A, B):
    n = len(B[0]) if B else 0
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(n)]
            for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def relation_columns(orders):
    """Columns d*e_j spanning the relations of a presented group."""
    return [[d * (t == j) for t in range(len(orders))]
            for j, d in enumerate(orders) if d > 1]


def dense_solve(A, b):
    """One integer solution x of A x = b for a dense A with at least one
    row, as a dense list, or None."""
    x = intmat.solve_int(intmat.dense_to_sparse(A), (len(A), len(A[0])),
                         sparse_chain(b))
    return None if x is None else [x.get(j, 0) for j in range(len(A[0]))]


def left_kernel(A):
    """Dense rows spanning {x : x A = 0}, a saturated lattice."""
    m = len(A)
    n = len(A[0]) if m else 0
    vecs = intmat.right_kernel(
        intmat.sparse_transpose(intmat.dense_to_sparse(A)), (n, m))
    return [[v.get(a, 0) for a in range(m)] for v in vecs]


def sparse_chain(vec):
    """The chain {cell: value} of a dense vector."""
    return {a: x for a, x in enumerate(vec) if x}


def two_term_complex(entry):
    """0 -> Z --entry--> Z -> 0 with the map in degree 1."""
    mats = {1: {0: {0: entry}}} if entry else {1: {}}
    return R.IntegerComplex(
        dims=[1, 1], mats=mats, complete=True,
        cell_labels=[[()], [(1,)]],
    )


def test_homology_of_multiplication_by_two():
    C = two_term_complex(2)
    assert hm.homology(C, 0) == hm.HomologyGroup(0, (2,))
    assert hm.homology(C, 1) == hm.HomologyGroup(0)
    assert hm.homology(C, 0, hm.Q) == hm.HomologyGroup(0)
    assert hm.homology(C, 0, hm.Coeff("Fp", 2)) == hm.HomologyGroup(1)
    assert hm.homology(C, 1, hm.Coeff("Fp", 2)) == hm.HomologyGroup(1)
    assert hm.homology(C, 0, hm.Coeff("Fp", 3)) == hm.HomologyGroup(0)


def test_homology_of_zero_complex():
    C = R.IntegerComplex(dims=[0, 0], mats={1: {}}, complete=True,
                         cell_labels=[[], []])
    assert hm.homology(C, 0).is_trivial()
    assert hm.homology(C, 1).is_trivial()


def test_h1_of_b2_is_z():
    IC = R.specialize(R.salvetti_complex(2, 1), R.TrivialModule(2, 1))
    assert hm.homology(IC, 1) == hm.HomologyGroup(1)


def test_truncation_trust_rule():
    IC = R.specialize(R.salvetti_complex(4, 2), R.TrivialModule(4, 1))
    assert not IC.complete
    hm.homology(IC, 1)  # fine: below the truncation
    with pytest.raises(hm.HomologyError):
        hm.homology(IC, 2)  # top degree of a truncation: refused
    with pytest.raises(hm.HomologyError):
        hm.homology(IC, 3)
    full = R.specialize(R.salvetti_complex(4, 3), R.TrivialModule(4, 1))
    assert full.complete
    hm.homology(full, 3)  # complete resolution: top degree certified
    assert hm.homology(full, 7).is_trivial()  # beyond a complete complex


def test_homology_group_validation():
    with pytest.raises(hm.HomologyError):
        hm.HomologyGroup(0, (1,))
    with pytest.raises(hm.HomologyError):
        hm.HomologyGroup(0, (4, 2))
    assert str(hm.HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


def test_coeff_parsing():
    assert hm.Coeff.parse("Z").kind == "Z"
    assert hm.Coeff.parse("Q").kind == "Q"
    assert hm.Coeff.parse("Fp:5") == hm.Coeff("Fp", 5)
    with pytest.raises(hm.HomologyError):
        hm.Coeff.parse("Fp:4")
    with pytest.raises(hm.HomologyError):
        hm.Coeff.parse("R")
    # a modulus past 2**31 is refused at once, however long
    for text in ("Fp:" + "9" * 400, "Fp:1000000000000000000000000000057",
                 f"Fp:{2**31}"):
        with pytest.raises(hm.HomologyError, match="2\\*\\*31"):
            hm.Coeff.parse(text)
    assert hm.Coeff.parse("Fp:2147483647") == hm.Coeff("Fp", 2**31 - 1)


def test_groups_and_rings_compare_by_every_field():
    # the homology checks of this suite compare groups with ==, so == and
    # hash must see the torsion as well as the rank, and p as well as
    # the kind
    for cls, values in (
            (hm.HomologyGroup, [(0, ()), (1, ()), (0, (2,)), (1, (2,)),
                                (1, (2, 4))]),
            (hm.Coeff, [("Z", 0), ("Q", 0), ("Fp", 2), ("Fp", 3)])):
        for x in values:
            for y in values:
                assert (cls(*x) == cls(*y)) == (x == y)
            assert hash(cls(*x)) == hash(cls(*x))
            assert cls(*x) != x


def identity_chain_map(C):
    mats = {
        j: {i: {i: 1} for i in range(C.dims[j])}
        for j in range(C.top_degree + 1)
    }
    return R.ChainMap(source=C, target=C, mats=mats)


def test_induced_identity_is_iso():
    M = R.HurwitzModule(TRANSPOSITIONS, 2, TRANSPOSITIONS.elements[0])
    C = R.specialize(R.salvetti_complex(2, 1), M)
    for i in (0, 1):
        m = hm.induced_map(identity_chain_map(C), i)
        assert m.is_iso and m.is_split_injective


def test_non_chain_map_rejected():
    M = R.HurwitzModule(TRANSPOSITIONS, 2, TRANSPOSITIONS.elements[0])
    C = R.specialize(R.salvetti_complex(2, 1), M)
    mats = {j: {t: {t: 1} for t in range(C.dims[j])} for j in (0, 1)}
    # scale a degree-0 column whose boundary column is nonzero (basis 1
    # is a mixed tuple, displaced by the move): commutation breaks
    mats[0][1] = {1: 2}
    broken = R.ChainMap(source=C, target=C, mats=mats)
    with pytest.raises(R.ResolutionError):
        hm.induced_map(broken, 1)


def test_induced_multiplication_by_two():
    C = R.IntegerComplex(dims=[1], mats={}, complete=True,
                         cell_labels=[[()]])
    cm = R.ChainMap(source=C, target=C, mats={0: {0: {0: 2}}})
    m = hm.induced_map(cm, 0)
    assert m.is_injective and not m.is_surjective and not m.is_split_injective


def test_induced_coordinate_inclusion_split():
    src = R.IntegerComplex(dims=[2], mats={}, complete=True,
                           cell_labels=[[()]])
    tgt = R.IntegerComplex(dims=[3], mats={}, complete=True,
                           cell_labels=[[()]])
    cm = R.ChainMap(source=src, target=tgt,
                    mats={0: {0: {0: 1}, 1: {1: 1}}})
    m = hm.induced_map(cm, 0)
    assert m.is_injective and m.is_split_injective and not m.is_surjective


def test_split_injectivity_examples():
    assert hm.is_split_injective([0], [0], [[1]])  # Z --1--> Z
    assert not hm.is_split_injective([0], [0], [[2]])  # Z --2--> Z
    assert not hm.is_split_injective([2], [4], [[2]])  # Z/2 --2--> Z/4
    assert hm.is_split_injective([2], [2], [[1]])  # Z/2 = Z/2
    assert hm.is_split_injective([2], [0, 2], [[0], [1]])  # into a summand
    assert hm.is_split_injective([], [0], [])  # from the zero group
    # Z/2 -> Z/6 sending 1 to 3 splits (Z/6 = Z/2 + Z/3)
    assert hm.is_split_injective([2], [6], [[3]])


def dense_split_oracle(src_orders, tgt_orders, M):
    """Split-injectivity from the whole retraction system in one dense
    integer system: X M - R_A V = I and X R_B - R_A W = 0 in the
    unknowns X (a x b), V (ta x a) and W (ta x tb), where R_A and R_B
    hold the source and target relations as columns."""
    a = len(src_orders)
    if a == 0:
        return True
    b = len(tgt_orders)
    rel_a = relation_columns(src_orders)
    rel_b = relation_columns(tgt_orders)
    ta = len(rel_a)
    tb = len(rel_b)
    n_unknowns = a * b + ta * a + ta * tb

    def xi(i, k):
        return i * b + k

    def vi(t, j):
        return a * b + t * a + j

    def wi(t, l):
        return a * b + ta * a + t * tb + l

    rows = []
    rhs = []
    for i in range(a):
        for j in range(a):
            row = [0] * n_unknowns
            for k in range(b):
                row[xi(i, k)] = M[k][j]
            for t in range(ta):
                row[vi(t, j)] = -rel_a[t][i]
            rows.append(row)
            rhs.append(1 if i == j else 0)
    for i in range(a):
        for l in range(tb):
            row = [0] * n_unknowns
            for k in range(b):
                row[xi(i, k)] = rel_b[l][k]
            for t in range(ta):
                row[wi(t, l)] = -rel_a[t][i]
            rows.append(row)
            rhs.append(0)
    return dense_solve(rows, rhs) is not None


ORDERS = st.sampled_from([0, 2, 3, 4, 6, 12])


@st.composite
def presented_maps(draw):
    """A homomorphism of presented groups: the image of a source
    generator of order d > 1 in a target generator of order e is a
    multiple of e / gcd(d, e), and 0 when e = 0."""
    src = draw(st.lists(ORDERS, max_size=4))
    tgt = draw(st.lists(ORDERS, max_size=5))
    M = []
    for e in tgt:
        row = []
        for d in src:
            x = draw(st.integers(-6, 6))
            if d > 1:
                x = x * (e // gcd(d, e)) if e else 0
            row.append(x)
        M.append(row)
    return src, tgt, M


@settings(max_examples=400, deadline=None)
@given(presented_maps())
def test_split_blocks_match_dense_system(case):
    src, tgt, M = case
    assert hm.is_split_injective(src, tgt, M) == dense_split_oracle(src, tgt, M)


def test_split_matches_invariant_factors_on_free_maps():
    # a map of free groups Z^a -> Z^b splits exactly when its b x a
    # matrix has a invariant factors, all 1
    S4 = FiniteGroup.symmetric(4)
    trans = conjugacy_closure({S4.element_names.index("(1 2)")}, S4)
    built = grid_complexes(S4, trans.elements, 1, 4)
    for k in range(1, 4):
        cm = R.stabilisation_chain_map(built[k][1], built[k + 1][1],
                                       built[k][0], built[k + 1][0])
        for i in range(2):
            m = hm.induced_map(cm, i)
            assert not any(m.src_orders) and not any(m.tgt_orders)
            factors = intmat.sparse_invariant_factors(
                intmat.dense_to_sparse(m.matrix))
            assert m.is_split_injective == (factors == [1] * len(m.src_orders))


def test_injective_surjective_presented_maps():
    # Z -> Z/4 by 1: surjective, not injective
    assert hm.map_is_surjective([0], [4], [[1]])
    assert not hm.map_is_injective([0], [4], [[1]])
    # Z/2 -> Z/4 by 2: injective, not surjective
    assert hm.map_is_injective([2], [4], [[2]])
    assert not hm.map_is_surjective([2], [4], [[2]])
    # zero map from trivial group
    assert hm.map_is_injective([], [0], [])


def test_induced_map_functoriality():
    # composite of stabilisation chain maps induces the composite map
    mods = {k: R.HurwitzModule(TRANSPOSITIONS, k, TRANSPOSITIONS.elements[0])
            for k in (2, 3, 4)}
    cx = {
        2: R.specialize(R.salvetti_complex(2, 1), mods[2]),
        3: R.specialize(R.salvetti_complex(3, 2), mods[3]),
        4: R.specialize(R.salvetti_complex(4, 2), mods[4]),
    }
    f = R.stabilisation_chain_map(cx[2], cx[3], mods[2], mods[3])
    g = R.stabilisation_chain_map(cx[3], cx[4], mods[3], mods[4])
    comp_mats = {
        j: intmat.sparse_mul(f.mats[j], g.mats[j])
        for j in f.mats
        if j in g.mats
    }
    comp = R.ChainMap(source=cx[2], target=cx[4], mats=comp_mats)
    comp.verify()
    for i in (0, 1):
        mf = hm.induced_map(f, i)
        mg = hm.induced_map(g, i)
        mc = hm.induced_map(comp, i)
        # compare matrices modulo target orders
        a = len(mf.src_orders)
        prod = [
            [
                sum(mg.matrix[t][s] * mf.matrix[s][j]
                    for s in range(len(mf.tgt_orders)))
                for j in range(a)
            ]
            for t in range(len(mg.tgt_orders))
        ]
        for t, order in enumerate(mc.tgt_orders):
            for j in range(a):
                diff = prod[t][j] - mc.matrix[t][j]
                assert diff % order == 0 if order else diff == 0


def test_field_induced_maps():
    mods = {k: R.HurwitzModule(TRANSPOSITIONS, k, TRANSPOSITIONS.elements[0])
            for k in (2, 3)}
    c2 = R.specialize(R.salvetti_complex(2, 1), mods[2])
    c3 = R.specialize(R.salvetti_complex(3, 2), mods[3])
    cm = R.stabilisation_chain_map(c2, c3, mods[2], mods[3])
    for coeff in (hm.Q, hm.Coeff("Fp", 2), hm.Coeff("Fp", 3)):
        m0 = hm.induced_map(cm, 0, coeff)
        assert m0.source.free_rank == 5  # orbit count at k=2
        assert m0.is_split_injective == m0.is_injective


# ---------------------------------------------------------------------------
# cycle coordinates read from the boundary's SNF, against a linear solve

boundaries = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


def one_boundary_complex(D):
    """0 -> Z^m --D--> Z^n -> 0 with D acting on row vectors."""
    m, n = len(D), len(D[0])
    return R.IntegerComplex(
        dims=[n, m], mats={1: intmat.dense_to_sparse(D)}, complete=True,
        cell_labels=[[()] * n, [(1,)] * m],
    )


@given(boundaries, st.lists(st.integers(-5, 5), min_size=5, max_size=5),
       st.lists(st.integers(-5, 5), min_size=5, max_size=5))
@settings(max_examples=200, deadline=None)
def test_kernel_coords_match_solve(D, coeffs, chain):
    hb = hm._ZHomologyBasis(one_boundary_complex(D), 1)
    kernel = intmat.sparse_to_dense(hb.kernel, len(hb.kernel), len(D))
    if kernel:
        x = mat_mul([coeffs[: len(kernel)]], kernel)[0]
        assert hb._kernel_coords(sparse_chain(x)) == sparse_chain(
            dense_solve(transpose(kernel), x))
    x = chain[: len(D)]
    if any(mat_mul([x], D)[0]):
        with pytest.raises(hm.HomologyError):
            hb._kernel_coords(sparse_chain(x))


@pytest.mark.parametrize("basis", [
    lambda C: hm._ZHomologyBasis(C, 1),
    lambda C: hm._FieldHomologyBasis(C, 1, 2),
    lambda C: hm._FieldHomologyBasis(C, 1, 3),
    lambda C: hm._ReducedBasis(C, 1, hm.Z),
    lambda C: hm._ReducedBasis(C, 1, hm.Coeff("Fp", 2)),
    lambda C: hm._ReducedBasis(C, 1, hm.Coeff("Fp", 3)),
], ids=["Z", "Fp:2", "Fp:3", "reduced-Z", "reduced-Fp:2", "reduced-Fp:3"])
def test_non_cycle_anywhere_in_a_batch_raises(basis):
    # x D = 0 for x = (1, -1) over every ring; (1, 0) is never a cycle
    hb = basis(one_boundary_complex([[1, 1], [1, 1]]))
    assert len(hb.classes_of([{0: 1, 1: -1}, {}])) == 2
    with pytest.raises(hm.HomologyError, match="not a cycle"):
        hb.classes_of([{0: 1, 1: -1}, {}, {0: 1}])


class SolveBasis(hm._ZHomologyBasis):
    """The cycle basis as a left kernel, with coordinates found by one
    integer linear solve per vector: the slow path the SNF read replaces."""

    def __init__(self, C, i):
        hm._trusted_degree(C, i)
        self.trivial_beyond = i > C.top_degree
        if self.trivial_beyond:
            self.orders = []
            return
        self.dense_kernel = left_kernel(hm._boundary(C, i))
        self.kernel = intmat.dense_to_sparse(self.dense_kernel)
        z = len(self.dense_kernel)
        self.width = C.dims[i]
        n_upper = C.dims[i + 1] if i < C.top_degree else 0
        cols = [self._kernel_coords(C.mats[i + 1].get(t, {}))
                for t in range(n_upper)]
        self._present(intmat.sparse_transpose(dict(enumerate(cols))),
                      (z, n_upper))

    def _kernel_coords(self, chain):
        vec = [0] * self.width
        for j, v in chain.items():
            vec[j] += v
        if not self.kernel:
            if any(vec):
                raise hm.HomologyError("vector is not a cycle")
            return {}
        y = dense_solve(transpose(self.dense_kernel), vec)
        if y is None:
            raise hm.HomologyError("vector is not a cycle")
        return sparse_chain(y)


def test_induced_maps_match_solve_basis(monkeypatch):
    from hurstab import experiments as xp

    g = TRANSPOSITIONS.elements[0]
    fast = xp.stability_table(S3, TRANSPOSITIONS, g, i_max=1, k_max=3,
                              coeff=hm.Z)
    monkeypatch.setattr(hm, "_ZHomologyBasis", SolveBasis)
    slow = xp.stability_table(S3, TRANSPOSITIONS, g, i_max=1, k_max=3,
                              coeff=hm.Z)
    assert fast.to_json() == slow.to_json()
    for key, m in fast.maps.items():
        assert m.matrix == slow.maps[key].matrix


# ---------------------------------------------------------------------------
# homology groups from boundary ranks and invariant factors, with no bases


def invariant_factor_homology(C, i, coeff):
    """H_i from the boundaries alone: invariant factors of the sparse D_i
    and D_{i+1} over Z and Q, ranks mod p of the dense ones over F_p.
    No homology basis is built, so over F_p this stays independent of
    the Z computation that the universal-coefficient check compares."""
    hm._trusted_degree(C, i)
    if i > C.top_degree:
        return hm.HomologyGroup(0)
    if coeff.kind == "Fp":
        ranks = [intmat.field_rank(coeff.p, _boundary(C, j)) for j in (i, i + 1)]
        return hm.HomologyGroup(C.dims[i] - sum(ranks))
    lower = len(intmat.sparse_invariant_factors(C.mats[i])) if i >= 1 else 0
    upper = (intmat.sparse_invariant_factors(C.mats[i + 1])
             if i + 1 <= C.top_degree else [])
    free = C.dims[i] - lower - len(upper)
    if coeff.kind == "Q":
        return hm.HomologyGroup(free)
    return hm.HomologyGroup(free, tuple(d for d in upper if d > 1))


ALL_COEFFS = (hm.Z, hm.Q, hm.Coeff("Fp", 2), hm.Coeff("Fp", 3))


def grid_complexes(group, elems, i_max, k_max):
    from hurstab import experiments as xp
    from hurstab.groups import ClassSet

    classes = ClassSet(group, tuple(elems))
    return {k: xp._complex_for(classes, classes.elements[0], k, i_max)
            for k in range(1, k_max + 1)}


GRIDS = [
    (S3, TRANSPOSITIONS.elements, 1, 3),
    (FiniteGroup.dihedral(4), (1, 3), 1, 3),
    (FiniteGroup.cyclic(3), (1, 2), 2, 4),
    (S3, TRANSPOSITIONS.elements, 1, 4),  # the dense-fp2 benchmark grid
]


ORACLE_GRIDS = GRIDS + [(FiniteGroup.cyclic(2), (1,), 2, 9)]


@pytest.mark.parametrize("group, elems, i_max, k_max", ORACLE_GRIDS)
def test_homology_matches_invariant_factors(group, elems, i_max, k_max):
    for k, (_, C) in grid_complexes(group, elems, i_max, k_max).items():
        for coeff in ALL_COEFFS:
            for i in range(i_max + 1):
                assert hm.homology(C, i, coeff) \
                    == invariant_factor_homology(C, i, coeff), (k, i, coeff)


def unreduced_bases():
    """A stand-in for ``homology._basis`` that builds the bases directly
    on the unreduced complexes, once per complex, degree and ring."""
    cache = {}

    def basis(C, i, coeff):
        key = (id(C), i, hm._ring(coeff))
        if key not in cache:
            cache[key] = (hm._FieldHomologyBasis(C, i, coeff.p) if coeff.p
                          else hm._ZHomologyBasis(C, i))
        return cache[key]

    return basis


@pytest.mark.parametrize("group, elems, i_max, k_max", ORACLE_GRIDS)
def test_reduced_bases_match_unreduced(monkeypatch, group, elems, i_max, k_max):
    built = grid_complexes(group, elems, i_max, k_max)
    maps = {k: R.stabilisation_chain_map(built[k][1], built[k + 1][1],
                                         built[k][0], built[k + 1][0])
            for k in range(1, k_max)}

    def grid():
        out = {}
        for coeff in ALL_COEFFS:
            for i in range(i_max + 1):
                for k, (_, C) in built.items():
                    out[("cell", k, i, str(coeff))] = hm._basis(C, i, coeff).orders
                for k, cm in maps.items():
                    m = hm.induced_map(cm, i, coeff)
                    out[("map", k, i, str(coeff))] = (
                        m.src_orders, m.tgt_orders, m.is_injective,
                        m.is_surjective, m.is_split_injective, m.is_iso)
        return out

    reduced = grid()
    monkeypatch.setattr(hm, "_basis", unreduced_bases())
    assert reduced == grid()


@pytest.mark.parametrize("group, elems, i_max, k_max", ORACLE_GRIDS)
def test_generators_have_unit_coordinates(group, elems, i_max, k_max):
    # classes_of reads the generator chains back as the identity, on the
    # reduced bases and on the unreduced ones
    unreduced = unreduced_bases()
    for k, (_, C) in grid_complexes(group, elems, i_max, k_max).items():
        for coeff in ALL_COEFFS:
            for i in range(i_max + 1):
                for basis in (hm._basis, unreduced):
                    hb = basis(C, i, coeff)
                    n = len(hb.orders)
                    gens = [hb.generator_chain(j) for j in range(n)]
                    assert hb.classes_of(gens) == [
                        [int(s == t) for t in range(n)] for s in range(n)
                    ], (k, i, coeff, basis)


@pytest.mark.parametrize("coeff", [hm.Z, hm.Q, hm.Coeff("Fp", 2)],
                         ids=["Z", "Q", "Fp:2"])
def test_grid_builds_each_basis_once(monkeypatch, coeff):
    from hurstab import experiments as xp

    built, reduced = [], []
    init, reduce_complex = hm._ReducedBasis.__init__, intmat.reduce_complex

    def counting_init(self, C, i, coeff):
        built.append((id(C), i))
        init(self, C, i, coeff)

    def counting_reduce(mats, dims, p=0, **kwargs):
        reduced.append((id(mats), p))
        return reduce_complex(mats, dims, p, **kwargs)

    monkeypatch.setattr(hm._ReducedBasis, "__init__", counting_init)
    monkeypatch.setattr(intmat, "reduce_complex", counting_reduce)
    i_max, k_max = 1, 4
    rep = xp.stability_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0],
                             i_max=i_max, k_max=k_max, coeff=coeff)
    # one build per grid cell (k, i), shared by the cell and both maps,
    # and one reduction per complex, shared by its degrees
    assert len(built) == len(set(built)) == k_max * (i_max + 1)
    assert len(reduced) == len(set(reduced)) == k_max
    for (k, i), group in rep.cells.items():
        if k < k_max:
            assert group == rep.maps[(k, i)].source, (k, i)
        if k >= 2:
            assert group == rep.maps[(k - 1, i)].target, (k, i)


@pytest.mark.parametrize("coeff", [hm.Z, hm.Coeff("Fp", 2)], ids=["Z", "Fp:2"])
def test_grid_holds_two_complexes_at_a_time(monkeypatch, coeff):
    from hurstab import experiments as xp

    build, built, alive = xp._complex_for, [], []

    def watched_build(*args):
        module, C = build(*args)
        built.append(weakref.ref(C))
        alive.append(sum(ref() is not None for ref in built))
        return module, C

    monkeypatch.setattr(xp, "_complex_for", watched_build)
    xp.stability_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0],
                       i_max=1, k_max=4, coeff=coeff)
    # complex k+1 is built beside complex k alone: complex k-1, its
    # bases and the chain map into complex k are gone
    assert alive == [1, 2, 2, 2]


# ---------------------------------------------------------------------------
# induced-map flags over Q and F_p from chain-level ranks, with no bases


def _rank_and_kernel(coeff):
    if coeff.kind == "Q":
        return (lambda A: len(intmat.sparse_invariant_factors(
                    intmat.dense_to_sparse(A))),
                left_kernel)
    return (lambda A: intmat.field_rank(coeff.p, A),
            lambda A: intmat.field_left_kernel(coeff.p, A))


def _boundary(C, j):
    if j < 1 or j > C.top_degree:
        return []
    return intmat.sparse_to_dense(C.mats[j], C.dims[j], C.dims[j - 1])


def chain_rank_flags(cm, i, coeff):
    """(dim H_i(src), dim H_i(tgt), inj, surj) of f_* from ranks alone:
    rank f_* = rank [K F_i ; D^tgt_{i+1}] - rank D^tgt_{i+1}, where the
    rows K span the cycles, the left kernel of D^src_i."""
    rank, kernel = _rank_and_kernel(coeff)
    src, tgt = cm.source, cm.target

    def dim_h(C):
        if i > C.top_degree:
            return 0
        return C.dims[i] - rank(_boundary(C, i)) - rank(_boundary(C, i + 1))

    h_src, h_tgt = dim_h(src), dim_h(tgt)
    if i > src.top_degree or i > tgt.top_degree:
        r = 0
    else:
        K = (kernel(_boundary(src, i)) if i >= 1
             else identity(src.dims[0]))
        F = intmat.sparse_to_dense(cm.mats[i], src.dims[i], tgt.dims[i])
        upper = _boundary(tgt, i + 1)
        r = rank(mat_mul(K, F) + upper) - rank(upper)
    return h_src, h_tgt, r == h_src, r == h_tgt


FIELD_COEFFS = (hm.Q, hm.Coeff("Fp", 2), hm.Coeff("Fp", 3))


def assert_flags_match_chain_ranks(cm, i):
    for coeff in FIELD_COEFFS:
        m = hm.induced_map(cm, i, coeff)
        h_src, h_tgt, inj, surj = chain_rank_flags(cm, i, coeff)
        assert (m.source, m.target) == (hm.HomologyGroup(h_src),
                                        hm.HomologyGroup(h_tgt)), (coeff, i)
        assert (m.is_injective, m.is_surjective, m.is_split_injective) \
            == (inj, surj, inj), (coeff, i)


@pytest.mark.parametrize("group, elems, i_max, k_max", GRIDS)
def test_field_flags_match_chain_ranks(group, elems, i_max, k_max):
    built = grid_complexes(group, elems, i_max, k_max)
    for k in range(1, k_max):
        (mod_k, c_k), (mod_k1, c_k1) = built[k], built[k + 1]
        cm = R.stabilisation_chain_map(c_k, c_k1, mod_k, mod_k1)
        for i in range(i_max + 1):
            assert_flags_match_chain_ranks(cm, i)


def test_field_flags_where_z_differs():
    # Z --2--> Z: a Q-iso that is not onto over Z, nor over F_2
    C = R.IntegerComplex(dims=[1], mats={}, complete=True,
                         cell_labels=[[()]])
    double = R.ChainMap(source=C, target=C, mats={0: {0: {0: 2}}})
    assert hm.induced_map(double, 0, hm.Q).is_iso
    assert not hm.induced_map(double, 0, hm.Coeff("Fp", 2)).is_surjective
    assert_flags_match_chain_ranks(double, 0)
    # Z -> Z + Z/2, 1 |-> (1, 1): the torsion coordinate vanishes over Q
    tgt = R.IntegerComplex(dims=[2, 1], mats={1: {0: {1: 2}}}, complete=True,
                           cell_labels=[[()], [(1,)]])
    into = R.ChainMap(source=C, target=tgt, mats={0: {0: {0: 1, 1: 1}}})
    assert hm.induced_map(into, 0).tgt_orders == [2, 0]
    m = hm.induced_map(into, 0, hm.Q)
    assert m.is_iso and m.tgt_orders == [0] and m.matrix == [[1]]
    assert_flags_match_chain_ranks(into, 0)
    # the identity of Z + Z/2: a torsion source generator vanishes too
    ident = identity_chain_map(tgt)
    assert hm.induced_map(ident, 0, hm.Q).src_orders == [0]
    assert_flags_match_chain_ranks(ident, 0)
    # Z^2 --[[1, 2], [2, 1]]--> Z^2: determinant -3, so a Q-iso and an
    # F_2-iso, but of rank 1 over F_3
    C2 = R.IntegerComplex(dims=[2], mats={}, complete=True,
                          cell_labels=[[()]])
    det3 = R.ChainMap(source=C2, target=C2,
                      mats={0: {0: {0: 1, 1: 2}, 1: {0: 2, 1: 1}}})
    assert hm.induced_map(det3, 0, hm.Q).is_iso
    m = hm.induced_map(det3, 0, hm.Coeff("Fp", 3))
    assert not m.is_injective and not m.is_surjective
    assert_flags_match_chain_ranks(det3, 0)


# ---------------------------------------------------------------------------
# unit-pivot reduction of random complexes


@st.composite
def random_complexes(draw, piece_orders, max_shear):
    """(dims, mats) of a random complex: a direct sum of free cells and
    pieces Z --d--> Z (d from piece_orders), written in a random basis
    of each degree, reached by up to max_shear elementary row operations
    with multipliers in [-2, 2], plus a signed permutation."""
    top = draw(st.integers(1, 3))
    free = draw(st.lists(st.integers(0, 2), min_size=top + 1, max_size=top + 1))
    pieces = {j: draw(st.lists(st.sampled_from(piece_orders), max_size=3))
              for j in range(1, top + 1)}
    dims = [free[j] + len(pieces.get(j, [])) + len(pieces.get(j + 1, []))
            for j in range(top + 1)]
    # cells of degree j: free ones, then the lower ends of the degree-(j+1)
    # pieces, then the upper ends of the degree-j pieces
    mats = {}
    for j in range(1, top + 1):
        lo = free[j - 1]
        hi = free[j] + len(pieces.get(j + 1, []))
        mats[j] = [[0] * dims[j - 1] for _ in range(dims[j])]
        for n, d in enumerate(pieces[j]):
            mats[j][hi + n][lo + n] = d
    bases = []
    for n in dims:
        A, Ainv = identity(n), identity(n)
        for _ in range(draw(st.integers(0, max_shear)) if n > 1 else 0):
            t, s = draw(st.sampled_from([(t, s) for t in range(n)
                                         for s in range(n) if s != t]))
            q = draw(st.sampled_from([-2, -1, 1, 2]))
            A[t] = [x + q * y for x, y in zip(A[t], A[s])]
            for row in Ainv:
                row[s] -= q * row[t]
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        bases.append(([[signs[a] * x for x in A[perm[a]]] for a in range(n)],
                      [[row[perm[a]] * signs[a] for a in range(n)]
                       for row in Ainv]))
    # in the new basis D_j becomes A_j D_j A_{j-1}^-1
    sparse = {j: intmat.dense_to_sparse(mat_mul(
        mat_mul(bases[j][0], D), bases[j - 1][1]) if D and D[0] else D)
        for j, D in mats.items()}
    for j in range(1, top):
        assert not intmat.sparse_mul(sparse[j + 1], sparse[j])
    return dims, sparse


def as_complex(dims, mats):
    return R.IntegerComplex(dims=list(dims), mats=mats, complete=True,
                            cell_labels=[[()] * n for n in dims])


def push(entries, rows, p):
    """The sparse product of a chain {cell: value} with boundary rows,
    reduced mod p when p > 0."""
    out = intmat.sparse_mul({0: entries}, rows).get(0, {})
    return {b: v % p if p else v for b, v in out.items() if (v % p if p else v)}


def check_reduction(dims, mats, p):
    C = as_complex(dims, mats)
    red = intmat.reduce_complex(mats, dims, p)
    core = as_complex(red.dims, red.mats)
    top = len(dims) - 1
    for j in range(top + 1):
        for n in range(red.dims[j]):
            lifted = red.lift(j, {n: 1})
            # pi o iota is the identity of the core
            assert red.project(j, lifted) == {n: 1}, (j, n)
            if j >= 1:
                # iota commutes with the boundaries
                down = red.lift(j - 1, red.mats[j].get(n, {}))
                assert push(lifted, mats[j], p) == down, (j, n)
        if j >= 1:
            for a in range(dims[j]):
                # pi commutes with the boundaries
                lhs = red.project(j - 1, mats[j].get(a, {}))
                rhs = push(red.project(j, {a: 1}), red.mats[j], p)
                assert lhs == rhs, (j, a)
    if not p:
        # the cancellation runs to a fixed point: no unit is left in the
        # core (over F_p the callers check that the core boundaries vanish)
        assert not [v for rows in red.mats.values() for row in rows.values()
                    for v in row.values() if v in (1, -1)]
    coeff = hm.Coeff("Fp", p) if p else hm.Z
    for i in range(top + 1):
        assert invariant_factor_homology(core, i, coeff) \
            == invariant_factor_homology(C, i, coeff), i
    return red


@given(random_complexes([1, -1, 1, 2, -3, 4, 6], 6), st.sampled_from([0, 2, 3]))
@settings(max_examples=150, deadline=None)
# a first sweep visits row 1 (no unit) before it cancels row 2 on its
# unit, whose Schur update turns row 1 into {3: 1}: only a second sweep
# leaves no unit in the core
@example(complex_=([4, 3], {1: {0: {1: 1}, 1: {2: 2, 3: 5}, 2: {2: 1, 3: 2}}}),
         p=0)
def test_reduction_is_a_homotopy_equivalence(complex_, p):
    dims, mats = complex_
    red = check_reduction(dims, mats, p)
    if p:
        # every entry nonzero mod p is a unit, so the core is the homology
        assert not any(red.mats.values())


@given(random_complexes([2, -2, 3, 4, 6], 6), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_reduction_without_units_keeps_the_complex(complex_, m):
    dims, mats = complex_
    scaled = {j: {a: {b: m * v for b, v in row.items()}
                  for a, row in rows.items()} for j, rows in mats.items()}
    # no entry is +-1, nor nonzero mod m: no pair is cancelled
    for p in (0, m):
        red = check_reduction(dims, scaled, p)
        assert red.dims == dims and red.cells == [list(range(n)) for n in dims]
        if not p:
            assert red.mats == scaled


@given(random_complexes([1, -1], 0))
@settings(max_examples=60, deadline=None)
def test_reduction_of_unit_pieces_is_the_homology(complex_):
    dims, mats = complex_
    # a signed permutation of pieces Z --+-1--> Z and free cells: every
    # entry is a unit, and the core is the free homology
    red = check_reduction(dims, mats, 0)
    assert not any(red.mats.values())
    assert red.dims == [invariant_factor_homology(as_complex(dims, mats), i,
                                                  hm.Z).free_rank
                        for i in range(len(dims))]


def test_reduction_without_top_inclusion():
    C = R.specialize(R.salvetti_complex(4, 2), R.TrivialModule(4, 1))
    red = intmat.reduce_complex(C.mats, C.dims, lift_top=False)
    assert red.lift(1, dict.fromkeys(range(red.dims[1]), 1))
    with pytest.raises(ValueError):
        red.lift(2, {})
