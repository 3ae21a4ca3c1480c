"""Cross-validation against independent models.

These tests check core engines against implementations that share no
code with them: the reduced Burau representation (faithful on three
strands) as a word-problem oracle for Garside normal forms, and a
random unimodular change of basis to force the difference operator off
its unit-column fast path.
"""

import random

from braid_oracle import normal_form
from system_oracle import check_extension

from hurstab import coeffsys as cs
from hurstab import intmat
from hurstab.groups import FiniteGroup, conjugacy_closure

# ---------------------------------------------------------------------------
# reduced Burau over Z[t, t^-1]: Laurent polynomials as {exponent: coeff}


def lp(d):
    return {e: c for e, c in d.items() if c}


def lp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return lp(out)


def lp_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return lp(out)


def bmat_mul(A, B):
    return [
        [
            lp_add(lp_mul(A[i][0], B[0][j]), lp_mul(A[i][1], B[1][j]))
            for j in range(2)
        ]
        for i in range(2)
    ]


ONE = {0: 1}
ZERO = {}
BURAU = {
    (1, 1): [[{1: -1}, ONE], [ZERO, ONE]],
    (1, -1): [[{-1: -1}, {-1: 1}], [ZERO, ONE]],
    (2, 1): [[ONE, ZERO], [{1: 1}, {1: -1}]],
    (2, -1): [[ONE, ZERO], [{0: 1}, {-1: -1}]],
}


def burau_of_word(letters):
    M = [[ONE, ZERO], [ZERO, ONE]]
    for letter in letters:
        M = bmat_mul(M, BURAU[letter])
    return M


def test_burau_generators_are_inverse_pairs():
    for i in (1, 2):
        prod = bmat_mul(BURAU[(i, 1)], BURAU[(i, -1)])
        assert prod == [[ONE, ZERO], [ZERO, ONE]]
    lhs = burau_of_word([(1, 1), (2, 1), (1, 1)])
    rhs = burau_of_word([(2, 1), (1, 1), (2, 1)])
    assert lhs == rhs


def test_normal_form_agrees_with_burau_on_three_strands():
    # reduced Burau is faithful for the 3-strand group, so equality of
    # Burau matrices is an independent word-problem oracle
    rng = random.Random(31)

    def rand_word(n):
        return [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(n)]

    for _ in range(400):
        u = rand_word(rng.randint(0, 12))
        if rng.random() < 0.5:
            # build a provably equal word: insert relators and
            # cancelling pairs, then append a shared suffix
            v = list(u)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randint(0, len(v))
                kind = rng.random()
                if kind < 0.4:
                    ins = [(1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1)]
                elif kind < 0.7:
                    i = rng.randint(1, 2)
                    ins = [(i, 1), (i, -1)]
                else:
                    ins = [(2, -1), (1, -1), (2, -1), (1, 1), (2, 1), (1, 1)]
                v = v[:pos] + ins + v[pos:]
        else:
            v = rand_word(rng.randint(0, 12))
        nf_equal = normal_form(3, u) == normal_form(3, v)
        burau_equal = burau_of_word(u) == burau_of_word(v)
        assert nf_equal == burau_equal, (u, v)


# ---------------------------------------------------------------------------
# generic cokernel path of the difference operator


def mat_mul(A, B):
    n = len(B[0]) if B else 0
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(n)]
            for row in A]


def random_unimodular(rng, n):
    """Product of elementary column shears, determinant +-1, and its
    inverse, the product of the inverse shears in reverse order."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    U_inv = [list(row) for row in U]
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        q = rng.randint(-2, 2)
        for row in U:
            row[a] += q * row[b]
        U_inv[b] = [x - q * y for x, y in zip(U_inv[b], U_inv[a])]
    return U, U_inv


def conjugated_system(system, rng):
    """An isomorphic system in scrambled bases: G -> U G U^-1,
    I_k -> U_{k+1} I_k U_k^-1.  Structure maps stop being unit columns,
    forcing the generic Smith-form cokernel path.  Dense products here
    share no code with the sparse ones of intmat."""
    pairs = [random_unimodular(rng, n) for n in system.dims]
    for (u, u_inv), n in zip(pairs, system.dims):
        assert mat_mul(u, u_inv) == [[int(i == j) for j in range(n)]
                                     for i in range(n)]

    def conj(mat, k_src, k_tgt):
        cols = cs.columns(mat)
        dense = [[col.get(r, 0) for col in cols]
                 for r in range(system.dims[k_tgt])]
        out = mat_mul(pairs[k_tgt][0], mat_mul(dense, pairs[k_src][1]))
        return [{r: row[j] for r, row in enumerate(out) if row[j]}
                for j in range(len(cols))]

    gens = []
    for k in range(system.K_max + 1):
        gens.append([conj(m, k, k) for m in system.gens[k]])
    structs = [conj(system.structs[k], k, k + 1)
               for k in range(system.K_max)]
    return cs.CoeffSystem.build(
        system.K_max, list(system.dims), gens, structs,
        name=f"conjugated({system.name})",
    )


def test_generic_delta_path_matches_fast_path(monkeypatch):
    s3 = FiniteGroup.symmetric(3)
    threecycles = conjugacy_closure({s3.element_names.index("(1 2 3)")}, s3)
    base = cs.build_hurwitz_system(s3, threecycles, threecycles.elements[0], 4)
    rng = random.Random(77)
    scrambled = conjugated_system(base, rng)
    # delta takes a cokernel through the Smith form on the scrambled
    # system (at least one structure map has left the unit columns),
    # and on the base system never
    calls = []
    smith = intmat.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(args[1])
        return smith(*args, **kwargs)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    # the scrambled bases move the canonical splitting off naturality
    assert cs.delta(scrambled).naturally_split is False
    assert calls
    calls.clear()
    assert cs.delta(base).naturally_split is True
    assert calls == []
    assert check_extension(scrambled, ell_max=2)["passed"]
    rep_fast = cs.degree(base, 3)
    rep_generic = cs.degree(scrambled, 3)
    assert rep_fast.value == rep_generic.value == ">cutoff"
    assert rep_fast.delta_ranks == rep_generic.delta_ranks


def test_generic_delta_path_on_kunneth():
    F2 = cs.build_kunneth_system(
        cs.GradedModule.point(), cs.GradedModule.circle(), 2, 7
    )
    rng = random.Random(5)
    scrambled = conjugated_system(F2, rng)
    assert cs.delta(scrambled).naturally_split is False
    assert cs.delta(F2).naturally_split is True
    rep = cs.degree(scrambled, 5)
    assert rep.value == 2
    assert rep.delta_ranks == cs.degree(F2, 5).delta_ranks
