"""Coefficient systems and checks that only the tests build, kept beside
the tests.

No command builds these; the tests use them as fixtures and as the
one extension check:

* ``sigma_k`` and ``v_k_l``, the inclusions of braid groups that the
  extension criterion is stated with;
* ``check_extension``, the two extension-criterion diagrams, each
  letter checked on each basis vector in turn;
* ``direct_sum``, ``tensor`` and ``constant_system``, on which the
  degree laws for sums and tensors are checked;
* ``linearize``, the H_0 shadow of a monodromy model as a coefficient
  system.

Matrices follow ``hurstab.coeffsys``: column j is the image of basis
vector j, and a braid word acts with its rightmost letter first.
"""

from hurstab import coeffsys as cs
from hurstab.braid import BraidWord

# ---------------------------------------------------------------------------
# inclusions of braid groups


def sigma_k(w):
    """Inclusion B_k -> B_{k+1} fixing the new last strand."""
    return BraidWord(w.strands + 1, w.letters)


def v_k_l(w, k):
    """B_l -> B_{k+l}: shift every letter index by k."""
    return BraidWord(
        w.strands + k, tuple((i + k, s) for i, s in w.letters)
    )


# ---------------------------------------------------------------------------
# the extension criterion on basis vectors


def apply_matrix(mat, vec):
    """A matrix in either stored form times a sparse vector."""
    if isinstance(mat, cs.UnitColumns):
        # only the columns that the vector reads
        mat = dict(zip(vec, cs.columns(cs.UnitColumns(
            list(map(mat.codes.__getitem__, vec))))))
    return cs.cols_apply(mat, vec)


def act_word(system, k, word, vec):
    """T(word) applied to a sparse vector over F(k); rightmost letter
    first."""
    assert word.strands == k
    out = dict(vec)
    for idx, sign in reversed(word.letters):
        out = apply_matrix(system.generator(k, idx, sign), out)
    return out


def struct_iterated(system, k, ell, vec):
    """I_k^ell = I_{k+ell-1} o ... o I_k applied to a vector."""
    for t in range(ell):
        vec = apply_matrix(system.structs[k + t], vec)
    return vec


def one_letter_words(strands):
    return [BraidWord(strands, ((i, sign),))
            for i in range(1, strands) for sign in (1, -1)]


def check_extension(system, ell_max=3):
    """The two extension-criterion diagrams, as a report dict.

    Diagram (a): I_k o T(alpha) = T(sigma_k(alpha)) o I_k for alpha in
    B_k.  Diagram (b): T(v_k^ell(beta)) o I_k^ell = I_k^ell for beta in
    B_ell, with I_k^ell = I_{k+ell-1} o ... o I_k.  T of a word is the
    product of its letters' matrices, so each diagram holds for every
    word exactly when it holds for each letter sigma_i^+-1, and each
    letter is checked on each basis vector in turn.  ``failure`` names
    the first failing (diagram, k, ell, one-letter word, basis vector).
    """
    cells = []
    for k in range(2, system.K_max):
        letters = one_letter_words(k)
        for alpha in letters:
            for t in range(system.dims[k]):
                vec = {t: 1}
                if apply_matrix(system.structs[k],
                                act_word(system, k, alpha, vec)) != \
                        act_word(system, k + 1, sigma_k(alpha),
                                 apply_matrix(system.structs[k], vec)):
                    return {"passed": False, "cells": cells, "failure": {
                        "diagram": "a", "k": k, "word": alpha.to_signed(),
                        "basis": t}}
        cells.append({"diagram": "a", "k": k, "checked": len(letters)})
    for ell in range(2, ell_max + 1):
        letters = one_letter_words(ell)
        for k in range(0, system.K_max - ell + 1):
            for beta in letters:
                word = v_k_l(beta, k)
                for t in range(system.dims[k]):
                    vec = struct_iterated(system, k, ell, {t: 1})
                    if act_word(system, k + ell, word, vec) != vec:
                        return {"passed": False, "cells": cells, "failure": {
                            "diagram": "b", "k": k, "ell": ell,
                            "word": beta.to_signed(), "basis": t}}
            cells.append(
                {"diagram": "b", "k": k, "ell": ell, "checked": len(letters)})
    return {"passed": True, "cells": cells, "failure": None}


# ---------------------------------------------------------------------------
# direct sums, tensor products and constant systems


def direct_sum(a, b):
    K = min(a.K_max, b.K_max)
    dims = [a.dims[k] + b.dims[k] for k in range(K + 1)]

    def stack(mat_a, mat_b, off):
        out = [dict(c) for c in cs.columns(mat_a)]
        for c in cs.columns(mat_b):
            out.append({r + off: v for r, v in c.items()})
        return out

    gens = []
    for k in range(K + 1):
        gens.append(
            [
                stack(a.gens[k][i], b.gens[k][i], a.dims[k])
                for i in range(k - 1)
            ]
        )
    structs = [
        stack(a.structs[k], b.structs[k], a.dims[k + 1]) for k in range(K)
    ]
    return cs.CoeffSystem.build(
        K, dims, gens, structs, name=f"({a.name})+({b.name})", validate=False
    )


def tensor(a, b):
    K = min(a.K_max, b.K_max)
    dims = [a.dims[k] * b.dims[k] for k in range(K + 1)]

    def kron(mat_a, mat_b, rows_b):
        cols_a, cols_b = cs.columns(mat_a), cs.columns(mat_b)
        n_a, n_b = len(cols_a), len(cols_b)
        out = []
        for ja in range(n_a):
            for jb in range(n_b):
                col = {}
                for ra, va in cols_a[ja].items():
                    for rb, vb in cols_b[jb].items():
                        col[ra * rows_b + rb] = va * vb
                out.append(col)
        return out

    gens = []
    for k in range(K + 1):
        gens.append(
            [
                kron(a.gens[k][i], b.gens[k][i], b.dims[k])
                for i in range(k - 1)
            ]
        )
    structs = [
        kron(a.structs[k], b.structs[k], b.dims[k + 1]) for k in range(K)
    ]
    return cs.CoeffSystem.build(
        K, dims, gens, structs, name=f"({a.name})x({b.name})", validate=False
    )


def constant_system(K_max, rank=1, name="constant"):
    dims = [rank] * (K_max + 1)
    gens = [[cs.identity(rank) for _ in range(max(k - 1, 0))]
            for k in range(K_max + 1)]
    structs = [cs.identity(rank) for _ in range(K_max)]
    return cs.CoeffSystem.build(K_max, dims, gens, structs, name=name,
                                validate=False)


# ---------------------------------------------------------------------------
# linearised monodromy models


def linearize(model, K_max):
    """The H_0 shadow: free modules on state tuples with the
    transposition action of total unlabeled injections, feeding the
    degree machinery: sigma_i swaps the states at i and i+1, and the
    structure map appends the basepoint."""
    z = model.states
    swap = [b * z + a for a in range(z) for b in range(z)]
    return cs.pair_table_system((swap, swap), z, model.basepoint, K_max,
                                name=f"linearized(|Z|={z})")
