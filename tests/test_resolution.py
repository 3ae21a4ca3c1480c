import collections
import itertools
import math

import pytest

import braid_oracle as O
from hurstab import garside
from hurstab import homology as hm
from hurstab import intmat
from hurstab import resolution as R
from hurstab.groups import FiniteGroup, conjugacy_closure

S3 = FiniteGroup.symmetric(3)
TRANSPOSITIONS = conjugacy_closure({S3.element_names.index("(1 2)")}, S3)


def test_salvetti_ranks():
    C = R.salvetti_complex(4, 2)
    assert C.ranks == [1, 3, 3]
    for k in range(2, 7):
        for d in range(1, k):
            assert R.salvetti_complex(k, d).ranks == [
                math.comb(k - 1, j) for j in range(d + 1)
            ]
    with pytest.raises(R.ResolutionError):
        R.salvetti_complex(4, 4)
    with pytest.raises(R.ResolutionError):
        R.salvetti_complex(4, 0)


def test_salvetti_d1_is_sigma_minus_one():
    C = R.salvetti_complex(3, 2)
    for row, label in enumerate(C.basis_labels[1]):
        (i,) = label
        entry = O.boundary_entry(C, 1, row, 0)
        expected = O.GroupRingElement.from_word(3, [(i, 1)]) - O.GroupRingElement.one(3)
        assert entry == expected


def _length(p):
    """Coxeter length: the number of inversions."""
    return sum(a > b for a, b in itertools.combinations(p, 2))


def _parabolic_elements(k, gens):
    """All elements of the parabolic subgroup of S_k generated by the
    adjacent transpositions with 1-based indices in ``gens``, by
    breadth-first search."""
    ident = garside.perm_id(k)
    seen = {ident}
    frontier = [ident]
    ts = [garside.transposition(k, i) for i in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for t in ts:
                q = garside.perm_mul(p, t)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _min_coset_reps(k, gamma, sub):
    """Minimal-length representatives of cosets w W_sub inside W_gamma:
    the elements with no right descent in ``sub``.  The oracle for the
    shuffle table."""
    sub = set(sub)
    return [
        w
        for w in _parabolic_elements(k, gamma)
        if not (O.right_descents(w) & sub)
    ]


def test_shuffle_table_matches_coset_search():
    for r in range(1, 7):
        run = range(1, r + 1)
        for t in run:
            expected = {
                beta: -1 if _length(beta) % 2 else 1
                for beta in _min_coset_reps(r + 1, run, set(run) - {t})
            }
            table = R._shuffle_reps(r, t)
            assert len(table) == len(expected) == math.comb(r + 1, t)
            assert dict(table) == expected, (r, t)


def _boundaries_per_face(k, d_max):
    """The Salvetti boundaries summed afresh for every (Gamma, tau): the
    minimal coset representatives of W_{Gamma - tau} in all of W_Gamma
    by search, each lifted through the normal form of a reduced word.
    The oracle for the per-run sums of shuffles and the direct lift."""
    gens = range(1, k)
    boundaries = {}
    for j in range(1, d_max + 1):
        index_below = {
            label: i for i, label in enumerate(itertools.combinations(gens, j - 1))
        }
        mat = {}
        for row, gamma in enumerate(itertools.combinations(gens, j)):
            for pos, tau in enumerate(gamma, start=1):
                sub = tuple(g for g in gamma if g != tau)
                terms = {}
                for beta in _min_coset_reps(k, gamma, sub):
                    word = garside.reduced_word(beta)
                    lift = O.normal_form(k, [(i, 1) for i in word])
                    terms[lift] = -1 if (_length(beta) + pos) % 2 else 1
                mat[row, index_below[sub]] = terms
        boundaries[j] = mat
    return boundaries


def test_salvetti_boundaries_match_per_face_sums():
    for k in range(2, 10):
        for d in range(1, min(4, k - 1) + 1):
            assert R.salvetti_complex(k, d).boundaries == \
                _boundaries_per_face(k, d), (k, d)


def test_salvetti_lifts_each_permutation_once(monkeypatch):
    lift = garside.form_from_positive_permutation
    needed = {
        beta
        for j in range(1, 4)
        for gamma in itertools.combinations(range(1, 9), j)
        for tau in gamma
        for beta in _min_coset_reps(9, gamma, [g for g in gamma if g != tau])
    }
    calls = collections.Counter()

    def counted(k, p):
        calls[k, p] += 1
        return lift(k, p)

    monkeypatch.setattr(garside, "form_from_positive_permutation", counted)
    R.salvetti_complex(9, 3)
    assert set(calls) == {(9, beta) for beta in needed}
    assert set(calls.values()) == {1}


def test_salvetti_ring_level_square_zero():
    for k in range(2, 6):
        for d in range(1, k):
            assert O.ring_square_is_zero(R.salvetti_complex(k, d))


def test_augmentation_of_d1_is_zero():
    C = R.salvetti_complex(4, 3)
    for row in range(C.ranks[1]):
        assert O.boundary_entry(C, 1, row, 0).augmentation() == 0


def test_fox_derivative_example():
    # d/da (aba) = 1 + ab
    d = O._fox_derivatives(3, [(1, 1), (2, 1), (1, 1)], 2)
    expected = O.GroupRingElement.one(3) + O.GroupRingElement.from_word(
        3, [(1, 1), (2, 1)]
    )
    assert d[0] == expected


def test_fox_ranks():
    assert O.fox_complex(2).ranks == [1, 1, 0]
    assert O.fox_complex(3).ranks == [1, 2, 1]
    assert O.fox_complex(5).ranks == [1, 4, 6]
    f2 = O.fox_complex(2)
    assert O.boundary_entry(f2, 1, 0, 0) == O.GroupRingElement.from_word(
        2, [(1, 1)]
    ) - O.GroupRingElement.one(2)


def test_group_ring_arithmetic():
    one = O.GroupRingElement.one(3)
    s1 = O.GroupRingElement.from_word(3, [(1, 1)])
    s2 = O.GroupRingElement.from_word(3, [(2, 1)])
    # braid relation holds under ring multiplication
    assert s1 * s2 * s1 == s2 * s1 * s2
    assert (s1 - s1).is_zero()
    assert (s1 * (one - s2)).augmentation() == 0
    inv = O.GroupRingElement.from_word(3, [(1, -1)])
    assert s1 * inv == one


def test_trivial_specialization_k2():
    IC = R.specialize(R.salvetti_complex(2, 1), R.TrivialModule(2, 1))
    assert IC.dims == [1, 1]
    assert IC.mats[1] == {}  # augmentation kills sigma - 1


def test_trivial_specializations_keep_their_matrices():
    # each boundary entry specialises to its augmentation times the
    # identity block, as the trivial module's branch of ``specialize``
    # once built it
    for k in (2, 3, 4, 5):
        complexes = [R.salvetti_complex(k, d) for d in range(1, k)]
        complexes += [O.fox_complex(k)]
        for free, rank in itertools.product(complexes, (1, 2)):
            IC = R.specialize(free, R.TrivialModule(k, rank))
            assert IC.dims == [r * rank for r in free.ranks]
            for j in range(1, free.d_max + 1):
                expected = intmat.sparse_from_entries(
                    (row * rank + t, col * rank + t, sum(elt.values()))
                    for (row, col), elt in free.boundaries[j].items()
                    for t in range(rank))
                assert IC.mats[j] == expected


def test_word_permutation_rejects_invalid_letters():
    M = R.HurwitzModule(TRANSPOSITIONS, 3, TRANSPOSITIONS.elements[0])
    for letters in ([(0, 1)], [(3, 1)], [(-1, 1)], [(1, 0)], [(2, 2)],
                    [(1, 1), (3, -1)]):
        with pytest.raises(R.ResolutionError):
            M.word_permutation(letters)
    M1 = R.HurwitzModule(TRANSPOSITIONS, 1, TRANSPOSITIONS.elements[0])
    with pytest.raises(R.ResolutionError):
        M1.word_permutation([(1, 1)])
    assert M1.word_permutation([]) == [0, 1, 2]


def test_rank_one_form_permutation_skips_the_word():
    # a rank-1 module returns its one code without spelling the form as
    # letters; it is what the letters' permutation would be
    c2 = FiniteGroup.cyclic(2)
    for classes in (conjugacy_closure({1}, c2), conjugacy_closure({0}, S3)):
        for k in range(2, 9):
            M = R.HurwitzModule(classes, k, classes.elements[0])
            assert M.dim == 1
            free = R.salvetti_complex(k, k - 1)
            forms = {form for j in range(1, k)
                     for elt in free.boundaries[j].values()
                     for form in elt}
            for form in forms:
                assert M.form_permutation(form) == \
                    M.word_permutation(form.to_word_letters()) == [0]


def test_hurwitz_specialization_k2_is_permutation_difference():
    M = R.HurwitzModule(TRANSPOSITIONS, 2, TRANSPOSITIONS.elements[0])
    IC = R.specialize(R.salvetti_complex(2, 1), M)
    assert IC.dims == [9, 9]
    perm = M.word_permutation([(1, 1)])
    dense = intmat.sparse_to_dense(IC.mats[1], 9, 9)
    # block convention: D[alpha, beta] = [alpha = w.beta] - [alpha = beta]
    for beta in range(9):
        for alpha in range(9):
            expected = (1 if perm[beta] == alpha else 0) - (1 if alpha == beta else 0)
            assert dense[alpha][beta] == expected


def test_specialization_failure_detected():
    # breaking a boundary entry must trip the chain check; use Hurwitz
    # coefficients, where the broken composite cannot augment away
    C = R.salvetti_complex(3, 2)
    C.boundaries[2][(0, 0)] = (O.GroupRingElement(3, C.boundaries[2][(0, 0)])
                               + O.GroupRingElement.one(3)).terms
    M = R.HurwitzModule(TRANSPOSITIONS, 3, TRANSPOSITIONS.elements[0])
    with pytest.raises(R.ResolutionError):
        R.specialize(C, M)


def test_k2_closed_forms():
    # H0 = coinvariants (orbit count), H1 = invariants of the single move
    from hurstab.braid import orbits

    for classes in (TRANSPOSITIONS,
                    conjugacy_closure({S3.element_names.index("(1 2 3)")}, S3)):
        M = R.HurwitzModule(classes, 2, classes.elements[0])
        IC = R.specialize(R.salvetti_complex(2, 1), M)
        n_orbits = len(orbits(classes, 2))
        h0 = hm.homology(IC, 0)
        h1 = hm.homology(IC, 1)
        assert h0 == hm.HomologyGroup(n_orbits)
        # the action is a permutation: invariants are free on orbits too
        assert h1 == hm.HomologyGroup(n_orbits)


def test_k3_trivial_coefficients_aspherical():
    IC = R.specialize(R.salvetti_complex(3, 2), R.TrivialModule(3, 1))
    assert hm.homology(IC, 0) == hm.HomologyGroup(1)
    assert hm.homology(IC, 1) == hm.HomologyGroup(1)
    assert hm.homology(IC, 2) == hm.HomologyGroup(0)


def test_fox_matches_closed_forms_k3():
    IC = R.specialize(O.fox_complex(3), R.TrivialModule(3, 1))
    assert hm.homology(IC, 0) == hm.HomologyGroup(1)
    assert hm.homology(IC, 1) == hm.HomologyGroup(1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_oracle_equivalence_small(k):
    groups = [
        (S3, TRANSPOSITIONS),
        (FiniteGroup.cyclic(6), conjugacy_closure({1}, FiniteGroup.cyclic(6))),
    ]
    for _, classes in groups:
        for module in (R.TrivialModule(k, 1),
                       R.HurwitzModule(classes, k, classes.elements[0])):
            sal = R.specialize(R.salvetti_complex(k, min(2, k - 1)), module)
            fox = R.specialize(O.fox_complex(k), module)
            assert hm.homology(sal, 0) == hm.homology(fox, 0)
            if k >= 3:
                assert hm.homology(sal, 1) == hm.homology(fox, 1)


def test_salvetti_h2_matches_aspherical_presentation_k3():
    # the one-relator presentation of the 3-strand group is aspherical,
    # so the kernel of the Fox second boundary IS degree-2 homology;
    # this checks the degree-2 Salvetti boundary against an independent
    # model, beyond the d^2 = 0 gate
    for classes in (TRANSPOSITIONS,
                    conjugacy_closure({S3.element_names.index("(1 2 3)")}, S3)):
        module = R.HurwitzModule(classes, 3, classes.elements[0])
        sal = R.specialize(R.salvetti_complex(3, 2), module)
        fox = R.specialize(O.fox_complex(3), module)
        h2_sal = hm.homology(sal, 2)  # complete: top degree certified
        rank_d2 = len(intmat.sparse_invariant_factors(fox.mats[2]))
        h2_fox = hm.HomologyGroup(fox.dims[2] - rank_d2)
        assert h2_sal == h2_fox


def test_homology_independent_of_truncation_depth():
    for k in (5, 6):
        module = R.TrivialModule(k, 1)
        per_depth = []
        for d in (3, k - 1):
            ic = R.specialize(R.salvetti_complex(k, d), module)
            per_depth.append([hm.homology(ic, i) for i in range(3)])
        assert per_depth[0] == per_depth[1]
    module = R.HurwitzModule(TRANSPOSITIONS, 4, TRANSPOSITIONS.elements[0])
    shallow = R.specialize(R.salvetti_complex(4, 2), module)
    deep = R.specialize(R.salvetti_complex(4, 3), module)
    for i in (0, 1):
        assert hm.homology(shallow, i) == hm.homology(deep, i)


def test_stabilisation_chain_map_shapes():
    M2 = R.HurwitzModule(TRANSPOSITIONS, 2, TRANSPOSITIONS.elements[0])
    M3 = R.HurwitzModule(TRANSPOSITIONS, 3, TRANSPOSITIONS.elements[0])
    C2 = R.specialize(R.salvetti_complex(2, 1), M2)
    C3 = R.specialize(R.salvetti_complex(3, 2), M3)
    cm = R.stabilisation_chain_map(C2, C3, M2, M3)
    # degree 0: one 1 per source row
    for row in range(9):
        assert list(cm.mats[0][row].values()) == [1]
    # degree 1: 9 x 54 block landing in the {s1}-indexed block (cols < 27)
    for row, cols in cm.mats[1].items():
        for col in cols:
            assert col < 27
    # rank-1 module: identity-shaped inclusion
    z2 = FiniteGroup.cyclic(2)
    c1 = conjugacy_closure({1}, z2)
    N2, N3 = R.HurwitzModule(c1, 2, 1), R.HurwitzModule(c1, 3, 1)
    D2 = R.specialize(R.salvetti_complex(2, 1), N2)
    D3 = R.specialize(R.salvetti_complex(3, 2), N3)
    cm1 = R.stabilisation_chain_map(D2, D3, N2, N3)
    assert cm1.mats[0] == {0: {0: 1}}
    assert cm1.mats[1] == {0: {0: 1}}


def test_chain_map_commutation_guard():
    # mismatched stabiliser between modules must fail the class-set check
    M2 = R.HurwitzModule(TRANSPOSITIONS, 2, TRANSPOSITIONS.elements[0])
    M4 = R.HurwitzModule(TRANSPOSITIONS, 4, TRANSPOSITIONS.elements[0])
    C2 = R.specialize(R.salvetti_complex(2, 1), M2)
    C4 = R.specialize(R.salvetti_complex(4, 2), M4)
    with pytest.raises(R.ResolutionError):
        R.stabilisation_chain_map(C2, C4, M2, M4)


def test_point_complex():
    M1 = R.HurwitzModule(TRANSPOSITIONS, 1, TRANSPOSITIONS.elements[0])
    P = R.point_complex(M1)
    assert P.dims == [3] and P.complete
    assert hm.homology(P, 0) == hm.HomologyGroup(3)
    assert hm.homology(P, 1) == hm.HomologyGroup(0)

