"""Coefficient systems on the braid category: shift, difference operator,
degree recursion, and synthetic Kunneth systems.

A :class:`CoeffSystem` stores, for each object k in 0..K_max, a free
module F(k) with a chosen basis, an invertible integer matrix per braid
generator of B_k, and a structure map I_k: F(k) -> F(k+1).  Matrices use
the column convention (columns are images of basis vectors, stored as
sparse column dicts), and braid words act with the rightmost letter
first, matching the Hurwitz action convention.

Every system, Hurwitz or Kunneth, is made by :meth:`CoeffSystem.build`
from its forward generators and structure maps; ``build`` derives the
inverse generators and checks the braid relations, on the permutations
themselves when every generator is a signed permutation.

The difference operator takes objectwise cokernels of the structure
maps; the induced structure maps descend along s(iota_k), which is the
(k+1)-st generator of B_{k+2} composed with I_{k+1}.  A cokernel drops
the image rows when every column of I_k is a distinct unit column and
goes through the Smith form otherwise, and one routine induces both
the generators and the structure maps on cokernels.  The degree of a
system is the number of difference steps to reach the zero system,
minus one, with split-injectivity of the structure maps checked at
every stage.  Functor-category splitness is approximated soundly: the
canonical splitting constructed from the Smith form is tested for
naturality on all generators and structure morphisms up to K_max, and
the report distinguishes "naturally split" from "objectwise-split
only".
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

from . import braid, intmat
from .braid import BraidWord, sigma_k, v_k_l
from .resolution import HurwitzModule


class CoeffSystemError(ValueError):
    pass


class DeltaUndefined(CoeffSystemError):
    """Structure map not split at some object: torsion or non-injective
    cokernel, so the degree recursion cannot proceed honestly."""


# ---------------------------------------------------------------------------
# sparse column matrices


def cols_identity(n):
    return [{j: 1} for j in range(n)]


def cols_apply(cols, vec):
    """Matrix times sparse vector {index: value}."""
    out = {}
    for j, x in vec.items():
        for r, v in cols[j].items():
            w = out.get(r, 0) + x * v
            if w:
                out[r] = w
            else:
                del out[r]
    return out


def cols_compose(outer, inner):
    """Columns of outer o inner."""
    return [cols_apply(outer, col) for col in inner]


def _signed_perm(cols):
    """``(perm, sign)`` of a signed permutation matrix, whose column j
    is ``sign[j] * e_perm[j]``, or None if ``cols`` is not one."""
    if set(map(len, cols)) - {1}:
        return None
    perm = list(itertools.chain.from_iterable(cols))
    sign = list(itertools.chain.from_iterable(map(dict.values, cols)))
    # compared with range() lazily: a list of n fresh ints would raise
    # the peak memory of delta, which inverts its generators here
    if not all(map(operator.eq, sorted(perm), range(len(cols)))) \
            or not set(sign) <= {1, -1}:
        return None
    return perm, sign


def _perm_compose(outer, inner):
    """``(perm, sign)`` of outer o inner."""
    (po, so), (pi, si) = outer, inner
    return [po[t] for t in pi], [so[t] * s for t, s in zip(pi, si)]


class _ColumnEntries:
    """Sparse columns read as rows and values where each column holds at
    most one entry (``single``), as those of the Hurwitz generators and
    of the fast-path splittings do: the row of a column's entry and its
    value, or -1 and 0 for an empty column.  :meth:`table` keeps them as
    lists, each with one more -1 and 0 at the end for an empty inner
    column to read (index -1); the lists hold the keys and values of the
    columns, so no fresh ints.  :meth:`entries` reads the table once
    there is one, and the columns otherwise."""

    def __init__(self, cols):
        self.cols = cols
        lengths = set(map(len, cols))
        self.single = lengths <= {0, 1}
        self.full = 0 not in lengths
        self._table = None

    def entries(self):
        """The rows and the values, as iterables."""
        if self._table is not None:
            return self._table
        cols = self.cols
        if self.full:
            return (itertools.chain.from_iterable(cols),
                    itertools.chain.from_iterable(map(dict.values, cols)))
        # next(iter(col), default) per column, without a Python loop
        return (map(next, map(iter, cols), itertools.repeat(-1)),
                map(next, map(iter, map(dict.values, cols)),
                    itertools.repeat(0)))

    def table(self):
        if self._table is None:
            rows, values = map(list, self.entries())
            rows.append(-1)
            values.append(0)
            self._table = rows, values
        return self._table


def _composites_equal(a, b, c, d):
    """Whether a o b == c o d, for :class:`_ColumnEntries`.  When each
    column of all four holds at most one entry, column j of a o b is row
    ra[rb[j]] with value va[rb[j]] * vb[j] (-1 and 0 when empty; the
    sparse format stores no zeros), and the rows and values of both
    composites are compared entry by entry.  Only a and c are read as
    tables: lists of b and d, and of the composites, would raise the
    peak memory of delta.  Otherwise the sparse columns are compared."""
    if not (a.single and b.single and c.single and d.single):
        return cols_compose(a.cols, b.cols) == cols_compose(c.cols, d.cols)
    if len(b.cols) != len(d.cols):
        return False
    (ra, va), (rc, vc) = a.table(), c.table()
    eq, mul = operator.eq, operator.mul
    (rb, _), (rd, _) = b.entries(), d.entries()
    # map stops at the shorter input: a table's extra -1 and 0 go unread
    if not all(map(eq, map(ra.__getitem__, rb), map(rc.__getitem__, rd))):
        return False
    (rb, vb), (rd, vd) = b.entries(), d.entries()
    return all(map(eq, map(mul, map(va.__getitem__, rb), vb),
                   map(mul, map(vc.__getitem__, rd), vd)))


def _inverse_cols(cols, n):
    """Columns of the inverse of an invertible n x n matrix, read off
    the permutation when it is a signed permutation."""
    ps = _signed_perm(cols)
    if ps is None:
        # the columns are the rows of the transpose, and the rows of the
        # transpose's inverse are the inverse's columns
        inv = intmat.invert_unimodular(dict(enumerate(cols)), n)
        return [inv[j] for j in range(n)]
    inv = [None] * len(cols)
    for j, (r, v) in enumerate(zip(*ps)):
        inv[r] = {j: v}
    return inv


def _perm_identity(n):
    return list(range(n)), [1] * n


def _check_relations(dims, gens, gen_invs, compose, identity):
    """Braid, commuting and inverse relations of the generators
    ``gens[k]`` of B_k acting on rank ``dims[k]``, with their inverses
    ``gen_invs[k]``; ``compose(a, b)`` is a o b and ``identity(n)`` the
    rank-n identity, in whatever form the generators take."""
    for k in range(2, len(dims)):
        for i in range(1, k - 1):
            a, b = gens[k][i - 1], gens[k][i]
            if compose(a, compose(b, a)) != compose(b, compose(a, b)):
                raise CoeffSystemError(f"braid relation fails at k={k}, i={i}")
        for i, j in itertools.combinations(range(1, k), 2):
            if j - i >= 2:
                a, b = gens[k][i - 1], gens[k][j - 1]
                if compose(a, b) != compose(b, a):
                    raise CoeffSystemError(
                        f"commuting relation fails at k={k}, ({i},{j})"
                    )
        for i in range(1, k):
            if compose(gens[k][i - 1], gen_invs[k][i - 1]) != identity(dims[k]):
                raise CoeffSystemError(f"inverse wrong at k={k}, i={i}")


@dataclass
class CoeffSystem:
    """Functor data on the braid category, stored up to K_max.

    ``gens[k]`` lists the k-1 generator matrices of B_k (empty for
    k <= 1); ``gen_invs`` their inverses; ``structs[k]`` is I_k for
    0 <= k <= K_max - 1.  ``dims[k]`` is the rank of F(k).
    ``gradings[k]``, when present, assigns a degree to each basis
    element (Kunneth systems carry it).
    """

    K_max: int
    dims: list
    gens: list
    gen_invs: list
    structs: list
    gradings: dict = field(default_factory=dict)
    name: str = "system"

    def __post_init__(self):
        if len(self.dims) != self.K_max + 1:
            raise CoeffSystemError("dims must cover objects 0..K_max")
        if len(self.structs) != self.K_max:
            raise CoeffSystemError("structs must cover objects 0..K_max-1")

    @staticmethod
    def build(K_max, dims, gens, structs, gradings=None, name="system",
              validate=True):
        gen_invs = [
            [_inverse_cols(cols, dims[k]) for cols in mats]
            for k, mats in enumerate(gens)
        ]
        sys = CoeffSystem(
            K_max=K_max,
            dims=list(dims),
            gens=gens,
            gen_invs=gen_invs,
            structs=structs,
            gradings=gradings or {},
            name=name,
        )
        if validate:
            sys.check_braid_relations()
        return sys

    def is_zero(self):
        return all(d == 0 for d in self.dims)

    def generator(self, k, i, sign=1):
        """Matrix of sigma_i^sign acting on F(k) (1-based i <= k-1)."""
        if not 1 <= i <= k - 1:
            raise CoeffSystemError(f"generator {i} invalid at object {k}")
        return self.gens[k][i - 1] if sign == 1 else self.gen_invs[k][i - 1]

    def act_word(self, k, word, vec):
        """T(word) applied to a sparse vector over F(k); rightmost
        letter first."""
        if word.strands != k:
            raise CoeffSystemError("word strands must equal the object")
        out = dict(vec)
        for idx, sign in reversed(word.letters):
            out = cols_apply(self.generator(k, idx, sign), out)
        return out

    def struct_apply(self, k, vec):
        return cols_apply(self.structs[k], vec)

    def struct_iterated(self, k, ell, vec):
        """I_k^ell = I_{k+ell-1} o ... o I_k applied to a vector."""
        out = vec
        for t in range(ell):
            out = self.struct_apply(k + t, out)
        return out

    def check_braid_relations(self):
        """Check the braid, commuting and inverse relations: on
        ``(perm, sign)`` arrays when every generator and inverse is a
        signed permutation, as Hurwitz generators are, and on the
        sparse columns otherwise."""
        perms = [[_signed_perm(cols) for cols in mats]
                 for mats in self.gens + self.gen_invs]
        if all(ps is not None for mats in perms for ps in mats):
            half = len(self.gens)
            _check_relations(self.dims, perms[:half], perms[half:],
                             _perm_compose, _perm_identity)
        else:
            _check_relations(self.dims, self.gens, self.gen_invs,
                             cols_compose, cols_identity)

    def to_json(self):
        return {
            "K_max": self.K_max,
            "dims": list(self.dims),
            "name": self.name,
        }


def build_hurwitz_system(group, classes, g_hat, K_max):
    """The Hurwitz coefficient system: F(k) = Z[c^k], generators acting
    by the Hurwitz move, structure maps appending the stabiliser.

    The k-1 generators of B_k and their inverses hold |c|^k columns each;
    a system with more of them up to K_max than ``braid.DEFAULT_ORBIT_BOUND``
    is refused with OrbitSizeError before any module is built."""
    if g_hat not in classes:
        raise CoeffSystemError("stabiliser element must lie in the class set")
    columns = 0
    for k in range(2, K_max + 1):
        columns += 2 * (k - 1) * len(classes) ** k
        braid.refuse_above_bound(
            columns, f"generator and inverse columns {columns} up to k={k} exceed")
    modules = [HurwitzModule(classes, k, g_hat) for k in range(K_max + 1)]
    dims = [m.dim for m in modules]
    gens = []
    for k in range(K_max + 1):
        mats = []
        for i in range(1, k):
            word = [(i, 1)]
            perm = modules[k].word_permutation(word)
            mats.append([{perm[t]: 1} for t in range(dims[k])])
        gens.append(mats)
    structs = []
    for k in range(K_max):
        rows = modules[k].stabilisation_rows(modules[k + 1])
        structs.append([{rows[t]: 1} for t in range(dims[k])])
    return CoeffSystem.build(
        K_max, dims, gens, structs,
        name=f"hurwitz({group.name}, |c|={len(classes)})",
    )


# ---------------------------------------------------------------------------
# extension criterion


@dataclass
class ExtensionReport:
    passed: bool
    cells: list
    failure: dict | None = None

    def to_json(self):
        return {
            "passed": self.passed,
            "cells": self.cells,
            "failure": self.failure,
        }


def _random_word(rng, strands, max_len=10):
    if strands < 2:
        return BraidWord(strands, ())
    n = rng.randint(0, max_len)
    return BraidWord(
        strands,
        tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(n)
        ),
    )


def check_extension(system, ell_max=3, samples=50, seed=0):
    """Verify the two extension-criterion diagrams on sampled words.

    Diagram (a): I_k o T(alpha) = T(sigma_k(alpha)) o I_k for alpha in
    B_k.  Diagram (b): T(v_k^ell(beta)) o I_k^ell = I_k^ell for beta in
    B_ell.  Reports the first failing (k, ell, word).
    """
    rng = random.Random(seed)
    cells = []
    for k in range(2, system.K_max):
        checked = 0
        for _ in range(samples):
            alpha = _random_word(rng, k)
            for t in range(system.dims[k]):
                vec = {t: 1}
                lhs = system.struct_apply(k, system.act_word(k, alpha, vec))
                rhs = system.act_word(
                    k + 1, sigma_k(alpha), system.struct_apply(k, vec)
                )
                if lhs != rhs:
                    return ExtensionReport(
                        passed=False,
                        cells=cells,
                        failure={
                            "diagram": "a",
                            "k": k,
                            "word": alpha.to_signed(),
                            "basis": t,
                        },
                    )
            checked += 1
        cells.append({"diagram": "a", "k": k, "checked": checked})
    for ell in range(2, ell_max + 1):
        for k in range(0, system.K_max - ell + 1):
            checked = 0
            for _ in range(samples):
                beta = _random_word(rng, ell)
                word = v_k_l(beta, k)
                for t in range(system.dims[k]):
                    vec = system.struct_iterated(k, ell, {t: 1})
                    moved = system.act_word(k + ell, word, vec)
                    if moved != vec:
                        return ExtensionReport(
                            passed=False,
                            cells=cells,
                            failure={
                                "diagram": "b",
                                "k": k,
                                "ell": ell,
                                "word": beta.to_signed(),
                                "basis": t,
                            },
                        )
                checked += 1
            cells.append(
                {"diagram": "b", "k": k, "ell": ell, "checked": checked}
            )
    return ExtensionReport(passed=True, cells=cells)


# ---------------------------------------------------------------------------
# difference operator and degree


def _unit_column_rows(cols):
    """If every column is a distinct single +1 entry, return the image
    rows, else None.  This is the fast path for basis-inclusion
    structure maps (Hurwitz, Kunneth, and their sums/tensors)."""
    rows = []
    seen = set()
    for col in cols:
        if len(col) != 1:
            return None
        (r, v), = col.items()
        if v != 1 or r in seen:
            return None
        seen.add(r)
        rows.append(r)
    return rows


class _CokernelData:
    """Projection/section data for coker(I_k) in one object degree.

    Fast path, when every column of I_k is a distinct unit column: the
    cokernel basis is the rows ``keep`` that I_k misses, each row its
    own representative.  Generic path: with U I_k V = [I; 0] the Smith
    form, the projection is ``proj_rows = U[n_small:]`` and the
    representatives ``reps`` are the matching columns of U^-1.  Either
    way ``split_cols`` is the canonical splitting rho (rho I_k = id),
    and :meth:`images` feeds :func:`_induced`, which builds every matrix
    induced on cokernels.
    """

    def __init__(self, cols, n_small, n_big):
        image_rows = _unit_column_rows(cols)
        if image_rows is not None:
            image = set(image_rows)
            self.keep = [r for r in range(n_big) if r not in image]
            self.pos = {r: t for t, r in enumerate(self.keep)}
            self.rank = len(self.keep)
            # canonical splitting: send image row back to its source
            self.split_cols = [dict() for _ in range(n_big)]
            for src, r in enumerate(image_rows):
                self.split_cols[r] = {src: 1}
            return
        snf = intmat.smith_normal_form(
            intmat.sparse_transpose(dict(enumerate(cols))), (n_big, n_small))
        if snf.rank != n_small or any(d != 1 for d in snf.diag if d):
            raise DeltaUndefined(
                "structure map is not split injective objectwise "
                "(non-unit invariant factors); degree undefined at this stage"
            )
        self.keep = None
        self.rank = n_big - n_small
        self.proj_rows = [snf.u_rows[k] for k in range(n_small, n_big)]
        self.reps = [snf.uinv_cols[k] for k in range(n_small, n_big)]
        # canonical splitting rho = V [I 0] U, column j from column j of
        # the first n_small rows of U
        head = intmat.sparse_transpose(
            {k: snf.u_rows[k] for k in range(n_small)})
        V = [snf.v_cols[k] for k in range(n_small)]
        self.split_cols = [cols_apply(V, head.get(j, {}))
                           for j in range(n_big)]

    def project_vec(self, vec):
        if self.keep is not None:
            return {
                self.pos[r]: v for r, v in vec.items() if r in self.pos
            }
        out = {}
        for t, row in enumerate(self.proj_rows):
            acc = sum(row.get(r, 0) * v for r, v in vec.items())
            if acc:
                out[t] = acc
        return out

    def images(self, cols):
        """Images of the cokernel representatives under a map."""
        if self.keep is not None:
            return [cols[r] for r in self.keep]
        return [cols_apply(cols, rep) for rep in self.reps]


def _induced(src, tgt, cols):
    """Matrix induced from coker ``src`` to coker ``tgt`` by a map that
    carries the image of src's structure map into tgt's."""
    return [tgt.project_vec(c) for c in src.images(cols)]


@dataclass
class DeltaResult:
    system: CoeffSystem
    objectwise_split: bool
    naturally_split: bool


def delta(system):
    """The difference operator: objectwise cokernels of the structure
    maps, with induced generator actions and structure maps.

    Raises :class:`DeltaUndefined` when some I_k is not objectwise
    split-injective.  ``naturally_split`` reports whether the canonical
    splitting is natural on all generators and structure morphisms up
    to K_max (sound check of splitness in the functor category).
    """
    K = system.K_max
    if K < 1:
        raise CoeffSystemError("cannot apply delta with K_max < 1")
    coks = [
        _CokernelData(system.structs[k], system.dims[k], system.dims[k + 1])
        for k in range(K)
    ]
    naturally_split = True
    # the splittings are read at two objects each: their tables are kept
    splits = [_ColumnEntries(cok.split_cols) for cok in coks]
    new_gens = []
    for k in range(K):
        rho = splits[k]
        mats = []
        for i in range(1, k):
            big = system.gens[k + 1][i - 1]
            mats.append(_induced(coks[k], coks[k], big))
            if not _composites_equal(_ColumnEntries(system.gens[k][i - 1]),
                                     rho, rho, _ColumnEntries(big)):
                naturally_split = False
        new_gens.append(mats)
    new_structs = []
    for k in range(K - 1):
        # Ts(iota_k) = T(v_k^2(tau_1)) o I_{k+1}: generator k+1 at object k+2
        comp = cols_compose(
            system.generator(k + 2, k + 1), system.structs[k + 1]
        )
        new_structs.append(_induced(coks[k], coks[k + 1], comp))
        if not _composites_equal(_ColumnEntries(system.structs[k]), splits[k],
                                 splits[k + 1], _ColumnEntries(comp)):
            naturally_split = False

    new_gradings = {}
    for k in range(K):
        grading = system.gradings.get(k + 1)
        if grading is not None and coks[k].keep is not None:
            new_gradings[k] = tuple(grading[r] for r in coks[k].keep)
    out = CoeffSystem.build(
        K - 1,
        [cok.rank for cok in coks],
        new_gens,
        new_structs,
        gradings=new_gradings,
        name=f"delta({system.name})",
        validate=False,
    )
    return DeltaResult(
        system=out,
        objectwise_split=True,
        naturally_split=naturally_split,
    )


@dataclass
class DegreeReport:
    value: object  # -1, 0, 1, ..., ">cutoff", or "undefined"
    delta_ranks: list
    k_max_consulted: int
    naturally_split: bool
    reason: str = ""

    def to_json(self):
        return {
            "degree": self.value,
            "delta_ranks": self.delta_ranks,
            "k_max_consulted": self.k_max_consulted,
            "naturally_split": self.naturally_split,
            "reason": self.reason,
        }


def degree(system, cutoff):
    """Iterate the difference operator until zero or cutoff.

    The verdict is relative to K_max: each delta shrinks the object
    range by one, and the report states the largest k consulted.
    """
    ranks_trace = [list(system.dims)]
    if system.is_zero():
        return DegreeReport(
            value=-1,
            delta_ranks=ranks_trace,
            k_max_consulted=system.K_max,
            naturally_split=True,
        )
    if cutoff + 1 > system.K_max:
        raise CoeffSystemError(
            f"cutoff {cutoff} needs K_max >= {cutoff + 1}, have {system.K_max}"
        )
    current = system
    naturally_split = True
    for step in range(cutoff + 1):
        try:
            res = delta(current)
        except DeltaUndefined as e:
            return DegreeReport(
                value="undefined",
                delta_ranks=ranks_trace,
                k_max_consulted=system.K_max,
                naturally_split=naturally_split,
                reason=str(e),
            )
        naturally_split = naturally_split and res.naturally_split
        current = res.system
        ranks_trace.append(list(current.dims))
        if current.is_zero():
            return DegreeReport(
                value=step,
                delta_ranks=ranks_trace,
                k_max_consulted=system.K_max,
                naturally_split=naturally_split,
            )
    return DegreeReport(
        value=">cutoff",
        delta_ranks=ranks_trace,
        k_max_consulted=system.K_max,
        naturally_split=naturally_split,
    )


# ---------------------------------------------------------------------------
# synthetic Kunneth systems


@dataclass(frozen=True)
class GradedModule:
    """Graded free ranks (with optional torsion data, which the Kunneth
    construction refuses)."""

    ranks: tuple  # tuple of (degree, free_rank)
    torsion: tuple = ()

    def rank(self, d):
        for deg, r in self.ranks:
            if deg == d:
                return r
        return 0

    def degrees(self):
        return [d for d, r in self.ranks if r]

    @staticmethod
    def from_rank_list(ranks):
        """[r0, r1, ...] -> GradedModule."""
        if not all(intmat.is_int(r) and r >= 0 for r in ranks):
            raise CoeffSystemError(
                f"graded ranks must be integers >= 0, got {ranks!r}")
        return GradedModule(tuple((d, r) for d, r in enumerate(ranks) if r))

    @staticmethod
    def circle():
        return GradedModule(((0, 1), (1, 1)))

    @staticmethod
    def point():
        return GradedModule(((0, 1),))


def build_kunneth_system(HY, HZ, i, K_max, cZ=None):
    """Degree-i part of HY tensor HZ^k as a coefficient system.

    The braid generator acts by the Koszul-signed adjacent swap of
    tensor factors, with the automorphism cZ applied to the factor that
    moves left (identity by default); the structure map inserts the
    degree-0 unit of HZ in the last slot.  HZ must have rank 1 in
    degree 0 (connectedness hypothesis) and cZ must fix the unit.
    """
    if not intmat.is_int(i):
        raise CoeffSystemError(f"degree i must be an integer, got {i!r}")
    if HY.torsion or HZ.torsion:
        raise CoeffSystemError("Kunneth systems need torsion-free input")
    if HZ.rank(0) != 1:
        raise CoeffSystemError(
            "HZ must have rank 1 in degree 0 (connected fibre factor)"
        )
    cZ = dict(cZ or {})
    for d, M in cZ.items():
        _check_automorphism(d, M, HZ.rank(d))
    for d, r in HZ.ranks:
        cZ.setdefault(d, [[int(a == b) for b in range(r)] for a in range(r)])
    if cZ[0] != [[1]]:
        raise CoeffSystemError("cZ must restrict to the identity in degree 0")

    z_degs = HZ.degrees()
    y_parts = [(d, idx) for d, r in HY.ranks for idx in range(r)]

    def basis_of(k):
        out = []
        for yd, yi in y_parts:
            rem = i - yd
            if rem < 0:
                continue
            for combo in _degree_tuples(z_degs, k, rem):
                for idxs in itertools.product(
                    *[range(HZ.rank(d)) for d in combo]
                ):
                    out.append(((yd, yi), tuple(zip(combo, idxs))))
        out.sort()
        return out

    bases = [basis_of(k) for k in range(K_max + 1)]
    index = [{b: t for t, b in enumerate(bs)} for bs in bases]
    dims = [len(bs) for bs in bases]
    gradings = {k: tuple(i for _ in bases[k]) for k in range(K_max + 1)}

    def gen_matrix(k, gi):
        # x (x) y -> sign * cZ(y) (x) x
        cols = []
        for (y, slots) in bases[k]:
            a = slots[gi - 1]
            b = slots[gi]
            sign = -1 if (a[0] * b[0]) % 2 else 1
            mat = cZ[b[0]]
            col = {}
            for t in range(len(mat)):
                v = mat[t][b[1]]
                if v:
                    new = slots[: gi - 1] + ((b[0], t), a) + slots[gi + 1:]
                    col[index[k][(y, new)]] = sign * v
            cols.append(col)
        return cols

    gens = [[gen_matrix(k, gi) for gi in range(1, k)] for k in range(K_max + 1)]
    structs = []
    unit = (0, 0)
    for k in range(K_max):
        cols = []
        for (y, slots) in bases[k]:
            cols.append({index[k + 1][(y, slots + (unit,))]: 1})
        structs.append(cols)
    return CoeffSystem.build(K_max, dims, gens, structs, gradings=gradings,
                             name=f"kunneth(i={i})")


def _check_automorphism(d, M, n):
    """cZ[d] must be an integer unimodular n x n matrix, n = rank HZ_d > 0:
    |det| = 1, by fraction-free elimination, whose entries stay minors of
    cZ[d], so their bit lengths grow linearly."""
    if n == 0:
        raise CoeffSystemError(f"cZ is given in degree {d}, where HZ has rank 0")
    if not (isinstance(M, list) and len(M) == n and all(
            isinstance(row, list) and len(row) == n
            and all(intmat.is_int(x) for x in row) for row in M)):
        raise CoeffSystemError(
            f"cZ in degree {d} must be a {n}x{n} integer matrix, got {M!r}")
    if intmat.abs_determinant(intmat.dense_to_sparse(M), n) != 1:
        raise CoeffSystemError(f"cZ in degree {d} is not unimodular")


def _degree_tuples(degs, k, total):
    """All k-tuples over degs summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for d in degs:
        if d <= total:
            for rest in _degree_tuples(degs, k - 1, total - d):
                yield (d,) + rest


# ---------------------------------------------------------------------------
# direct sums and tensor products


def direct_sum(a, b):
    K = min(a.K_max, b.K_max)
    dims = [a.dims[k] + b.dims[k] for k in range(K + 1)]

    def stack(cols_a, cols_b, off):
        out = [dict(c) for c in cols_a]
        for c in cols_b:
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
    return CoeffSystem.build(
        K, dims, gens, structs, name=f"({a.name})+({b.name})", validate=False
    )


def tensor(a, b):
    K = min(a.K_max, b.K_max)
    dims = [a.dims[k] * b.dims[k] for k in range(K + 1)]

    def kron(cols_a, cols_b, rows_b):
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
    return CoeffSystem.build(
        K, dims, gens, structs, name=f"({a.name})x({b.name})", validate=False
    )


def constant_system(K_max, rank=1, name="constant"):
    dims = [rank] * (K_max + 1)
    gens = [[cols_identity(rank) for _ in range(max(k - 1, 0))]
            for k in range(K_max + 1)]
    structs = [cols_identity(rank) for _ in range(K_max)]
    return CoeffSystem.build(K_max, dims, gens, structs, name=name,
                             validate=False)
