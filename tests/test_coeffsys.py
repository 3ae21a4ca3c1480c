import itertools
import math
import random

import pytest
from hypothesis import given, seed, settings, strategies as st
from system_oracle import check_extension, constant_system

from hurstab import braid, cost
from hurstab import coeffsys as cs
from hurstab.groups import FiniteGroup, conjugacy_closure

S3 = FiniteGroup.symmetric(3)
TRANSPOSITIONS = conjugacy_closure({S3.element_names.index("(1 2)")}, S3)
Z2 = FiniteGroup.cyclic(2)
CENTRAL = conjugacy_closure({1}, Z2)


@pytest.fixture(scope="module")
def hurwitz_s3():
    return cs.build_hurwitz_system(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 6)


@pytest.fixture(scope="module")
def hurwitz_z2():
    return cs.build_hurwitz_system(Z2, CENTRAL, 1, 6)


def test_hurwitz_system_shapes(hurwitz_s3, hurwitz_z2):
    assert hurwitz_z2.dims == [1] * 7
    assert all(mat == cs.UnitColumns([0], [1]) for mat in hurwitz_z2.structs)
    assert hurwitz_s3.dims == [3**k for k in range(7)]
    # k=2 generator is the 9x9 permutation of the move
    gen = hurwitz_s3.gens[2][0]
    assert isinstance(gen, cs.UnitColumns)
    assert all(len(col) == 1 and list(col.values()) == [1]
               for col in cs.columns(gen))
    image_rows = sorted(next(iter(col)) for col in cs.columns(gen))
    assert image_rows == list(range(9))


def test_hurwitz_system_refuses_above_the_bound(monkeypatch):
    # K_max = 3 on transpositions: the generators of B_2 and B_3 and
    # their inverses hold 2 * (1 * 3**2 + 2 * 3**3) = 126 columns, and
    # F(2) and F(3) have comb(2, 2) + comb(3, 2) = 4 relations checked
    g_hat = TRANSPOSITIONS.elements[0]
    count = 126 + cost.RELATION_WEIGHT * 4
    monkeypatch.setattr(cost, "BOUND", count)
    system = cs.build_hurwitz_system(S3, TRANSPOSITIONS, g_hat, 3)
    assert sum(len(m) for mats in system.gens + system.gen_invs
               for m in mats) == 126
    monkeypatch.setattr(cost, "BOUND", count - 1)
    with pytest.raises(cost.ResourceRefusal):
        cs.build_hurwitz_system(S3, TRANSPOSITIONS, g_hat, 3)


def test_braid_relation_validation_catches_mutants(hurwitz_s3):
    bad_gens = [list(m) for m in hurwitz_s3.gens]
    bad_gens[3] = list(bad_gens[3])
    # replace sigma_1 at k=3 by a wrong permutation (swap two columns)
    cols = [dict(c) for c in cs.columns(bad_gens[3][0])]
    cols[0], cols[1] = cols[1], cols[0]
    bad_gens[3][0] = cols
    with pytest.raises(cs.CoeffSystemError):
        cs.CoeffSystem.build(
            hurwitz_s3.K_max, hurwitz_s3.dims, bad_gens, hurwitz_s3.structs
        )


def cols_compose(outer, inner):
    """Columns of outer o inner, for sparse columns."""
    return [cs.cols_apply(outer, col) for col in inner]


def _relations_on_columns(system):
    """The oracle: every relation checked by composing sparse columns."""
    dims = system.dims
    gens = [[cs.columns(m) for m in mats] for mats in system.gens]
    gen_invs = [[cs.columns(system.generator(k, i, -1)) for i in range(1, k)]
                for k in range(len(dims))]
    for k in range(2, len(dims)):
        for i in range(1, k - 1):
            a, b = gens[k][i - 1], gens[k][i]
            if cols_compose(a, cols_compose(b, a)) != \
                    cols_compose(b, cols_compose(a, b)):
                raise cs.CoeffSystemError(f"braid relation fails at k={k}, i={i}")
        for i, j in itertools.combinations(range(1, k), 2):
            if j - i >= 2:
                a, b = gens[k][i - 1], gens[k][j - 1]
                if cols_compose(a, b) != cols_compose(b, a):
                    raise cs.CoeffSystemError(
                        f"commuting relation fails at k={k}, ({i},{j})"
                    )
        for i in range(1, k):
            if cols_compose(gens[k][i - 1], gen_invs[k][i - 1]) != \
                    [{j: 1} for j in range(dims[k])]:
                raise cs.CoeffSystemError(f"inverse wrong at k={k}, i={i}")


def _relations_verdict(check, system):
    try:
        check(system)
    except cs.CoeffSystemError as e:
        return str(e)
    return None


def _perturbed(system, k, i, perturb):
    """``system`` rebuilt, unvalidated, with generator i at object k
    replaced by ``perturb`` of a copy of its columns."""
    gens = [list(mats) for mats in system.gens]
    cols = [dict(c) for c in cs.columns(gens[k][i - 1])]
    perturb(cols)
    gens[k][i - 1] = cols
    return cs.CoeffSystem.build(system.K_max, system.dims, gens,
                                system.structs, validate=False)


def _swap_columns(cols):
    cols[0], cols[1] = cols[1], cols[0]


def _flip_sign(cols):
    (r, v), = cols[0].items()
    cols[0] = {r: -v}


@pytest.mark.parametrize("n", [3, 4])
def test_relations_on_permutations_match_columns(n):
    # every system that `degree --group sym:n --kmax 5` builds, for each
    # class: the Hurwitz system and its five difference systems
    group = FiniteGroup.symmetric(n)
    for cls in group.conjugacy_classes():
        if 0 in cls:
            continue
        classes = conjugacy_closure(set(cls), group)
        system = cs.build_hurwitz_system(group, classes, classes.elements[0], 5)
        for i, perturb in ((1, _swap_columns), (2, _flip_sign)):
            mutant = _perturbed(system, 3, i, perturb)
            verdict = _relations_verdict(_relations_on_columns, mutant)
            assert verdict is not None
            assert _relations_verdict(
                cs.CoeffSystem.check_braid_relations, mutant) == verdict
        for step in range(6):
            # every generator and inverse is a signed permutation
            assert all(isinstance(mat, cs.UnitColumns) and 0 not in mat.signs
                       and sorted(mat.rows) == list(range(len(mat)))
                       for k in range(len(system.dims)) for i in range(1, k)
                       for mat in (system.generator(k, i, 1),
                                   system.generator(k, i, -1)))
            assert _relations_verdict(_relations_on_columns, system) is None
            system.check_braid_relations()
            if step < 5:
                system = cs.delta(system).system


def _pair_system_unchecked(tables, base, digit, K_max):
    """The system of ``cs.pair_table_system``, every inverse read from
    the inverse table, built with no relation checked."""
    dims = [base**k for k in range(K_max + 1)]
    codes = [list(range(n)) for n in dims]
    gens, invs = (
        [[cs.UnitColumns(braid.pair_images(pairs, base, codes[k], k, i),
                         [1] * dims[k]) for i in range(1, k)]
         for k in range(K_max + 1)]
        for pairs in tables)
    structs = [cs.UnitColumns(codes[k + 1][digit::base], [1] * dims[k])
               for k in range(K_max)]
    return cs.CoeffSystem.build(K_max, dims, gens, structs, validate=False,
                                gen_invs=invs)


# every class of 2 to 4 elements closed from one or two elements of a
# small group, abelian ones included
PAIR_CLASSES = list({
    (group.name, tuple(c.elements)): c
    for group in ([FiniteGroup.cyclic(n) for n in range(2, 7)]
                  + [FiniteGroup.dihedral(n) for n in range(3, 7)]
                  + [S3, FiniteGroup.symmetric(4)])
    for picks in itertools.combinations_with_replacement(range(group.order), 2)
    for c in [conjugacy_closure(set(picks), group)]
    if 2 <= len(c.elements) <= 4}.values())


def _inverse_table(table):
    inv = [0] * len(table)
    for p, q in enumerate(table):
        inv[q] = p
    return inv


@st.composite
def pair_tables(draw):
    """(forward, inverse, base, digit, K_max): the Hurwitz pair tables of
    a class of 2 to 4 elements, or those tables with two entries of one
    swapped, or the forward one swapped and the inverse its inverse."""
    classes = draw(st.sampled_from(PAIR_CLASSES))
    base = len(classes.elements)
    tables = [braid.hurwitz_pairs(classes, 1), braid.hurwitz_pairs(classes, -1)]
    mode = draw(st.sampled_from(["true", "forward", "inverse", "both"]))
    if mode != "true":
        p, q = draw(st.lists(st.integers(0, base * base - 1), min_size=2,
                             max_size=2, unique=True))
        t = tables[mode == "inverse"]
        t[p], t[q] = t[q], t[p]
        if mode == "both":
            tables[1] = _inverse_table(tables[0])
    return (tables[0], tables[1], base, draw(st.integers(0, base - 1)),
            draw(st.integers(5, 6)))


@seed(3162)
@settings(max_examples=60, deadline=None)
@given(pair_tables())
def test_pair_table_system_checks_relations_as_the_whole_check(case):
    # relations checked on k <= 4 raise exactly when, and as, the check
    # of every object raises
    forward, inverse, base, digit, K_max = case
    unchecked = _pair_system_unchecked((forward, inverse), base, digit, K_max)
    expected = _relations_verdict(cs.CoeffSystem.check_braid_relations,
                                  unchecked)
    try:
        system = cs.pair_table_system((forward, inverse), base, digit, K_max,
                                      name="pairs")
    except cs.CoeffSystemError as e:
        assert str(e) == expected
        return
    assert expected is None
    assert system.dims == unchecked.dims and system.structs == unchecked.structs
    assert system.gens == unchecked.gens
    # inverses above k = 4 are computed on first read, and agree with the
    # inverse table's
    assert all(inv is None for k in range(5, K_max + 1)
               for inv in system.gen_invs[k])
    assert all(system.generator(k, i, -1) == unchecked.generator(k, i, -1)
               for k in range(K_max + 1) for i in range(1, k))


def _random_single_entries(rng, rows, cols):
    """Columns each empty or one nonzero entry, not injective in general."""
    return [{rng.randrange(rows): rng.choice((1, -1, 1, -1, 2, -3))}
            if rows and rng.random() < 0.7 else {} for _ in range(cols)]


def test_composites_of_single_entry_columns_match_sparse_columns():
    # a o b == c o d on the stored forms exactly when it holds on the
    # sparse columns: random matrices, and pairs made equal on purpose;
    # all-+-1 ones are unit columns, the rest keep their sparse columns
    rng = random.Random(12)
    agreed, forms = set(), set()
    for _ in range(3000):
        n, ell, m = (rng.randint(0, 5) for _ in range(3))
        a = _random_single_entries(rng, n, ell)
        b = _random_single_entries(rng, ell, m)
        if rng.random() < 0.5:
            # c differs from a only off the image of b
            hit = {r for col in b for r in col}
            c = [col if j in hit else _random_single_entries(rng, n, 1)[0]
                 for j, col in enumerate(a)]
            d = b
        else:
            c = _random_single_entries(rng, n, ell)
            d = _random_single_entries(rng, ell, m)
        expect = cols_compose(a, b) == cols_compose(c, d)
        stored = [cs.as_matrix(x) for x in (a, b, c, d)]
        for x, mat in zip((a, b, c, d), stored):
            unit = all(set(col.values()) <= {1, -1} for col in x)
            assert isinstance(mat, cs.UnitColumns) == unit
            assert cs.columns(mat) == x
            forms.add(unit)
        ab, cd = cs.compose(*stored[:2]), cs.compose(*stored[2:])
        assert cs.columns(ab) == cols_compose(a, b)
        assert (ab == cd) == expect
        agreed.add(expect)
    assert agreed == {True, False} and forms == {True, False}
    assert not isinstance(cs.as_matrix([{0: 1, 1: 1}, {}]), cs.UnitColumns)
    partial = cs.as_matrix([{1: -1}, {}])
    assert (partial.rows, partial.signs) == ([1, -1], [-1, 0])
    full = cs.as_matrix([{2: 1}, {0: -1}])
    assert (full.rows, full.signs) == ([2, 0], [1, -1])


def test_stored_zeros_are_no_entries():
    # a zero given in a sparse column is dropped, not read as an entry
    assert cs.cols_apply([{0: 2}, {1: 1}], {0: 0, 1: 1}) == {1: 1}
    assert cs.compose([{0: 2}, {1: 1}], [{0: 0, 1: 1}]) == \
        cs.UnitColumns([1], [1])
    assert cs.as_matrix([{0: 1, 1: 0}, {1: 1}]) == cs.identity(2)
    assert cs.as_matrix([{0: 3, 1: 0}]) == [{0: 3}]
    # so a zero matrix is always unit columns, all empty
    zero = cs.as_matrix([{0: 0}, {}])
    assert zero == cs.UnitColumns([-1, -1], [0, 0]) and cs.is_zero(zero)
    assert cs.is_zero(cs.compose([{0: 2}], [{0: 0}]))
    assert not cs.is_zero(cs.as_matrix([{0: 2}]))
    assert not cs.is_zero(cs.identity(1))
    system = cs.CoeffSystem.build(
        2, [1, 2, 2], [[], [], [[{0: 1, 1: 0}, {1: 1}]]],
        [[{0: 1}], [{0: 1}, {1: 1}]])
    assert system.gens[2][0] == cs.identity(2)


def test_cokernel_matrices_project_onto_representatives():
    # proj o I = 0, proj o reps = id and split o I = id, on unit columns
    # and through the Smith form
    for struct, n_small, n_big in (
            (cs.UnitColumns([3, 0], [1, 1]), 2, 5),
            ([{0: 1, 3: 2}, {1: 1, 4: -1}], 2, 5),
            (cs.UnitColumns([1, 0], [-1, 1]), 2, 3)):
        cok = cs._CokernelData(struct, n_small, n_big)
        assert cok.rank == n_big - n_small
        assert cs.is_zero(cs.compose(cok.proj, cok.struct))
        assert cs.compose(cok.proj, cok.reps) == cs.identity(cok.rank)
        assert cs.compose(cok.split, cok.struct) == cs.identity(n_small)
    unit = cs._CokernelData(cs.UnitColumns([3, 0], [1, 1]), 2, 5)
    assert unit.reps == cs.UnitColumns([1, 2, 4], [1, 1, 1])
    assert unit.proj == cs.UnitColumns([-1, 0, 1, -1, 2], [0, 1, 1, 0, 1])


def test_check_extension_passes(hurwitz_s3, hurwitz_z2):
    assert check_extension(hurwitz_z2, ell_max=3)["passed"]
    rep = check_extension(hurwitz_s3, ell_max=3)
    assert rep["passed"]
    assert any(c["diagram"] == "b" for c in rep["cells"])


def test_check_extension_fails_with_witness(hurwitz_s3):
    mutant = cs.CoeffSystem(
        K_max=hurwitz_s3.K_max,
        dims=list(hurwitz_s3.dims),
        gens=[list(m) for m in hurwitz_s3.gens],
        gen_invs=[list(m) for m in hurwitz_s3.gen_invs],
        structs=list(hurwitz_s3.structs),
    )
    # transpose one generator matrix (turns the action into its inverse)
    k = 3
    gen = mutant.gens[k][0]
    transposed = [dict() for _ in range(len(gen))]
    for j, col in enumerate(cs.columns(gen)):
        for r, v in col.items():
            transposed[r][j] = v
    mutant.gens[k] = [cs.as_matrix(transposed)] + list(mutant.gens[k][1:])
    mutant.gen_invs[k] = [gen] + list(mutant.gen_invs[k][1:])
    rep = check_extension(mutant, ell_max=2)
    assert not rep["passed"]
    assert rep["failure"] is not None and "k" in rep["failure"]
    # a wrong stored inverse alone fails at its one-letter word, first
    # where diagram (a) carries sigma_1^-1 from object k - 1 to k
    mutant.gens[k] = list(hurwitz_s3.gens[k])
    mutant.gen_invs[k] = [cs.identity(hurwitz_s3.dims[k])] + mutant.gen_invs[k][1:]
    rep = check_extension(mutant, ell_max=2)
    assert rep["failure"] == {"diagram": "a", "k": k - 1, "word": [-1], "basis": 1}


def test_delta_examples(hurwitz_s3, hurwitz_z2):
    # constant system: delta = 0
    const = constant_system(5, rank=1)
    res = cs.delta(const)
    assert res.system.is_zero()
    # |c| = 1 Hurwitz: delta = 0, degree 0
    assert cs.degree(hurwitz_z2, 4).value == 0
    # |c| = 3: cokernel ranks 2 * 3^k
    res3 = cs.delta(hurwitz_s3)
    assert res3.system.dims == [2 * 3**k for k in range(6)]
    assert res3.naturally_split


def test_difference_systems_invert_nothing(monkeypatch, hurwitz_s3):
    # degree never reads a difference system's inverses, so it computes
    # none; one read through ``generator`` is computed then and kept
    def refuse(mat, n):
        raise AssertionError("an inverse was computed")

    monkeypatch.setattr(cs, "_inverse", refuse)
    assert cs.degree(hurwitz_s3, 4).value == ">cutoff"
    diff = cs.delta(hurwitz_s3).system
    assert all(inv is None for mats in diff.gen_invs for inv in mats)
    monkeypatch.undo()
    inv = diff.generator(3, 1, -1)
    assert cs.compose(diff.generator(3, 1), inv) == cs.identity(diff.dims[3])
    assert diff.gen_invs[3][0] is inv


def test_non_invertible_generator_raises_coeff_system_error():
    gens = [[], [], [[{0: 2}]]]
    with pytest.raises(cs.CoeffSystemError, match="no inverse"):
        cs.CoeffSystem.build(2, [1, 1, 1], gens, [cs.identity(1)] * 2)


def test_rows_out_of_range_are_refused():
    # row -1 must not be read as the last row on the fast path, nor
    # reach the Smith form on the generic one
    for struct in ([{-1: 1}], cs.UnitColumns([-1], [1]), [{-1: 1, 0: 1}],
                   [{2: 1}], cs.UnitColumns([2], [-1])):
        with pytest.raises(cs.CoeffSystemError, match="row (-1|2)"):
            cs._CokernelData(struct, 1, 2)
    # the empty unit column stays legal: this map is refused for not
    # being injective, not for its row
    with pytest.raises(cs.DeltaUndefined):
        cs._CokernelData(cs.UnitColumns([-1], [0]), 1, 2)
    gens = [[], [], [cs.UnitColumns([1], [1])]]
    with pytest.raises(cs.CoeffSystemError,
                       match="^generator at k=2, i=1 has an entry in row 1"):
        cs.CoeffSystem.build(2, [1, 1, 1], gens, [cs.identity(1)] * 2)
    with pytest.raises(cs.CoeffSystemError,
                       match="^structure map at k=1 has an entry in row -1"):
        cs.CoeffSystem.build(2, [1, 1, 1], [[], [], [cs.identity(1)]],
                             [cs.identity(1), [{-1: 1}]])


def test_permutation_append_system_has_degree_one():
    # F(k) = Z^k with coordinate-transposition action and basis append
    K = 6
    dims = list(range(K + 1))
    gens = []
    for k in range(K + 1):
        mats = []
        for i in range(1, k):
            cols = []
            for j in range(k):
                tgt = j
                if j == i - 1:
                    tgt = i
                elif j == i:
                    tgt = i - 1
                cols.append({tgt: 1})
            mats.append(cols)
        gens.append(mats)
    structs = [[{j: 1} for j in range(k)] for k in range(K)]
    sys = cs.CoeffSystem.build(K, dims, gens, structs, name="coords")
    res = cs.delta(sys)
    assert res.system.dims == [1] * K  # constant Z
    assert cs.degree(sys, 3).value == 1


def test_degree_of_s3_exceeds_cutoff(hurwitz_s3):
    rep = cs.degree(hurwitz_s3, 4)
    assert rep.value == ">cutoff"
    assert rep.delta_ranks[1] == [2 * 3**k for k in range(6)]
    assert rep.k_max_consulted == 6


def test_degree_undefined_on_torsion_cokernel():
    # structure map Z --2--> Z is injective but not split
    K = 3
    dims = [1] * (K + 1)
    gens = [[cs.identity(1) for _ in range(max(k - 1, 0))]
            for k in range(K + 1)]
    structs = [[{0: 2}] for _ in range(K)]
    sys = cs.CoeffSystem.build(K, dims, gens, structs, name="doubling")
    with pytest.raises(cs.DeltaUndefined):
        cs.delta(sys)
    rep = cs.degree(sys, 2)
    assert rep.value == "undefined"
    assert "split" in rep.reason


def test_kunneth_examples():
    point, circle = cs.GradedModule.point(), cs.GradedModule.circle()
    F1 = cs.build_kunneth_system(point, circle, 1, 8)
    assert F1.dims == [k for k in range(9)]
    F0 = cs.build_kunneth_system(point, circle, 0, 8)
    assert F0.dims == [1] * 9
    assert cs.degree(F0, 3).value == 0
    F2 = cs.build_kunneth_system(point, circle, 2, 8)
    assert F2.dims == [math.comb(k, 2) for k in range(9)]
    # Koszul sign: the generator on two degree-1 slots acts by -swap;
    # at k=2, i=2 the module is rank 1 and sigma_1 acts by -1
    assert F2.gens[2][0] == cs.UnitColumns([0], [-1])
    assert cs.columns(F2.gens[2][0]) == [{0: -1}]


def test_kunneth_rank_recursion():
    point, circle = cs.GradedModule.point(), cs.GradedModule.circle()
    for i in (1, 2, 3):
        F = cs.build_kunneth_system(point, circle, i, 9)
        rep = cs.degree(F, i)
        assert rep.value == i
        for m, ranks in enumerate(rep.delta_ranks):
            expect = [math.comb(k, i - m) if i - m >= 0 else 0
                      for k in range(10 - m)]
            assert ranks == expect


def test_kunneth_delta_rank_identity_multi_degree():
    # delta F_i should have rank sum_j F_{i-j}(k) * rank H_j degreewise,
    # here with a fibre factor carrying ranks (1, 2, 1) in degrees 0..2
    point = cs.GradedModule.point()
    HZ = cs.GradedModule(((0, 1), (1, 2), (2, 1)))
    K = 7
    systems = {i: cs.build_kunneth_system(point, HZ, i, K) for i in range(4)}
    for i in (1, 2, 3):
        res = cs.delta(systems[i])
        for k in range(K):
            expected = 2 * systems[i - 1].dims[k] + (
                systems[i - 2].dims[k] if i >= 2 else 0
            )
            assert res.system.dims[k] == expected, (i, k)
        assert res.naturally_split


def test_kunneth_validation():
    point = cs.GradedModule.point()
    disconnected = cs.GradedModule(((0, 2), (1, 1)))
    with pytest.raises(cs.CoeffSystemError):
        cs.build_kunneth_system(point, disconnected, 1, 4)
    torsion = cs.GradedModule(((0, 1),), torsion=((1, (2,)),))
    with pytest.raises(cs.CoeffSystemError):
        cs.build_kunneth_system(point, torsion, 1, 4)
    with pytest.raises(cs.CoeffSystemError):
        cs.build_kunneth_system(point, cs.GradedModule.circle(), 1, 4,
                                cZ={0: [[-1]]})


def test_kunneth_guard_counts_the_built_system(monkeypatch):
    # the guard's ranks, read off P_HZ(t)^k, are the built system's: at
    # the bound sum max(k, 1) dims[k] + comb(k, 2) times cost.COLUMN_WEIGHT
    # the system is built, and one below it is refused
    G = cs.GradedModule
    specs = [(G.point(), G.circle(), 1, 9, None),
             (G(((0, 1), (1, 2))), G(((0, 1), (1, 2), (2, 1))), 2, 6, None),
             (G(((1, 1), (3, 2))), G(((0, 1), (2, 3))), 3, 5, None),
             (G.point(), G(((0, 1), (1, 2))), 2, 6, {1: [[1, 1], [0, 1]]}),
             (G(((2, 1),)), G.circle(), 1, 7, None)]
    built = [cs.build_kunneth_system(HY, HZ, i, K, cZ=cZ)
             for HY, HZ, i, K, cZ in specs]
    assert [sum(F.dims) > 0 for F in built] == [True] * 4 + [False]
    for (HY, HZ, i, K, cZ), F in zip(specs, built):
        count = sum(max(k, 1) * d + math.comb(k, 2)
                    for k, d in enumerate(F.dims))
        weight = cost.COLUMN_WEIGHT * count
        monkeypatch.setattr(cost, "BOUND", weight)
        assert cs.build_kunneth_system(HY, HZ, i, K, cZ=cZ).dims == F.dims
        monkeypatch.setattr(cost, "BOUND", weight - 1)
        with pytest.raises(cost.ResourceRefusal,
                           match=f"Kunneth system of {count} columns and "
                                 f"relations up to k={K}, weighing 16 each, "
                                 f"exceeds the bound {weight - 1}"):
            cs.build_kunneth_system(HY, HZ, i, K, cZ=cZ)


def test_kunneth_huge_ranks_that_no_rank_reads():
    # ranks of HY and HZ in degrees that no basis element of degree i
    # reaches are never enumerated, so these build at once
    G = cs.GradedModule
    big = 10 ** 30
    for HY, HZ in ((G(((1, 1), (2, big))), G.point()),
                   (G(((1, 1),)), G(((0, 1), (1, big)))),
                   (G(((0, big), (1, 1))), G.point())):
        assert cs.build_kunneth_system(HY, HZ, 1, 5).dims == [1] * 6


def test_kunneth_nontrivial_HY():
    # HY with two degree-0 classes doubles every rank
    HY = cs.GradedModule(((0, 2),))
    F1 = cs.build_kunneth_system(HY, cs.GradedModule.circle(), 1, 6)
    assert F1.dims == [2 * k for k in range(7)]
    assert cs.degree(F1, 3).value == 1


def test_extension_criterion_on_kunneth():
    F2 = cs.build_kunneth_system(
        cs.GradedModule.point(), cs.GradedModule.circle(), 2, 6
    )
    assert check_extension(F2, ell_max=3)["passed"]
