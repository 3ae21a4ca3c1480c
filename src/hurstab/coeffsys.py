"""Coefficient systems on the braid category: shift, difference operator,
degree recursion, and synthetic Kunneth systems.

A :class:`CoeffSystem` stores, for each object k in 0..K_max, a free
module F(k) with a chosen basis, an invertible integer matrix per braid
generator of B_k, and a structure map I_k: F(k) -> F(k+1).  Matrices use
the column convention (column j is the image of basis vector j), and
braid words act with the rightmost letter first, matching the Hurwitz
action convention.  A matrix is stored in one of two forms (see
:class:`CoeffSystem`): :class:`UnitColumns`, flat ``rows`` and ``signs``
lists, or sparse column dicts ``{row: value}``; :func:`as_matrix` picks
the form, and :func:`compose`, which takes either, is the one way the
module reads a map: the braid relations, naturality and every map
induced on cokernels are composites.

Every system is made by :meth:`CoeffSystem.build` from its forward
generators and structure maps, checking the braid relations by
composing.  A system built from one pair table, as every Hurwitz system
is, has them checked on F(k) for k <= 4, where they hold for every k
(see :func:`pair_table_system`); a Kunneth system has them checked on
every object.  An inverse generator not given (as the pair-table
builder gives them up to k = 4) is computed on its first read, so a
difference system inverts none.

The difference operator takes objectwise cokernels of the structure
maps; the induced structure maps descend along s(iota_k), which is the
(k+1)-st generator of B_{k+2} composed with I_{k+1}.  A cokernel is two
matrices, a projection onto it and its basis representatives: unit
columns when I_k is unit columns, each +1 in a row of its own, and read
off the Smith form otherwise.  A map induced on cokernels is the
projection of the map of the representatives, once the projection of
the map of the image of I_k is checked to be zero.  The degree of a
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
from math import comb

from . import braid, cost, intmat


class CoeffSystemError(ValueError):
    pass


class DeltaUndefined(CoeffSystemError):
    """Structure map not split at some object: torsion or non-injective
    cokernel, so the degree recursion cannot proceed honestly."""


# ---------------------------------------------------------------------------
# matrices: unit columns or sparse columns


class UnitColumns:
    """A matrix whose column j is ``signs[j] * e_rows[j]``: each column
    is empty (row -1, sign 0) or holds one entry, +1 or -1.  ``rows`` and
    ``signs`` are flat lists, one item per column; they may be shared
    between matrices, so they are never changed in place.  Equal
    matrices have equal lists, so ``==`` compares the lists."""

    __slots__ = ("rows", "signs")

    def __init__(self, rows, signs):
        self.rows = rows
        self.signs = signs

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, UnitColumns) and self.rows == other.rows
                and self.signs == other.signs)

    def __repr__(self):
        return f"UnitColumns({self.rows}, {self.signs})"


def identity(n):
    return UnitColumns(list(range(n)), [1] * n)


def as_matrix(cols):
    """The stored form of a matrix given as sparse columns ``{row:
    value}`` or as :class:`UnitColumns`: zero entries dropped, then unit
    columns when every column is empty or one +1 or -1 entry, the sparse
    columns otherwise.  So a matrix has one stored form, and a zero
    matrix is unit columns (see :func:`is_zero`)."""
    if isinstance(cols, UnitColumns):
        return cols
    if not all(all(col.values()) for col in cols):
        cols = [{r: v for r, v in col.items() if v} for col in cols]
    if any(len(col) > 1 or set(col.values()) - {1, -1} for col in cols):
        return cols
    return UnitColumns([next(iter(col), -1) for col in cols],
                       [next(iter(col.values()), 0) for col in cols])


def columns(mat):
    """The sparse columns ``{row: value}`` of a matrix in either form."""
    if not isinstance(mat, UnitColumns):
        return mat
    return [{r: v} if v else {} for r, v in zip(mat.rows, mat.signs)]


def _check_rows(mat, n, where):
    """Raise CoeffSystemError naming an entry of ``mat`` outside rows
    0..n-1; an empty unit column (row -1, sign 0) has none."""
    if isinstance(mat, UnitColumns):
        if 0 <= min(mat.rows, default=0) and max(mat.rows, default=0) < n:
            return
        entries = zip(mat.rows, mat.signs)
    else:
        entries = ((r, 1) for col in mat for r in col)
    for r, v in entries:
        if not 0 <= r < n and (r, v) != (-1, 0):
            raise CoeffSystemError(f"{where} has an entry in row {r}, "
                                   f"outside 0..{n - 1}")


def cols_apply(cols, vec):
    """Sparse columns times sparse vector {index: value}."""
    out = {}
    for j, x in vec.items():
        for r, v in cols[j].items():
            w = out.get(r, 0) + x * v
            if w:
                out[r] = w
            else:
                out.pop(r, None)
    return out


def is_zero(mat):
    """Whether a matrix in its stored form (see :func:`as_matrix`) is
    zero: unit columns, all empty."""
    return isinstance(mat, UnitColumns) and not any(mat.signs)


def compose(outer, inner):
    """outer o inner, in the stored form (see :func:`as_matrix`).  On
    unit columns, column j is row outer.rows[inner.rows[j]] with sign
    outer.signs[inner.rows[j]] * inner.signs[j]; an empty inner column
    reads the empty column appended to outer at index -1."""
    if not (isinstance(outer, UnitColumns) and isinstance(inner, UnitColumns)):
        cols = columns(outer)
        return as_matrix([cols_apply(cols, col) for col in columns(inner)])
    rows = list(map((outer.rows + [-1]).__getitem__, inner.rows))
    if outer.signs.count(1) == len(outer.signs):
        # all +1: the composite's signs are inner's, empty columns and all
        return UnitColumns(rows, inner.signs)
    signs = outer.signs + [0]
    return UnitColumns(rows, list(map(
        operator.mul, map(signs.__getitem__, inner.rows), inner.signs)))


def _inverse(mat, n):
    """The inverse of an invertible n x n matrix, read off the
    permutation when it is a signed permutation."""
    if isinstance(mat, UnitColumns) and len(mat) == n \
            and 0 not in mat.signs and max(mat.rows, default=-1) < n:
        rows = [-1] * n
        for j, r in enumerate(mat.rows):
            rows[r] = j
        if -1 not in rows:  # no row hit twice
            # column r of the inverse is sign * e_j for column j = sign * e_r
            signs = mat.signs if mat.signs.count(1) == n else \
                list(map(mat.signs.__getitem__, rows))
            return UnitColumns(rows, signs)
    # the columns are the rows of the transpose, and the rows of the
    # transpose's inverse are the inverse's columns
    try:
        inv = intmat.invert_unimodular(dict(enumerate(columns(mat))), n)
    except ValueError as e:
        raise CoeffSystemError(f"generator has no inverse: {e}") from None
    return as_matrix([inv[j] for j in range(n)])


class CoeffSystem:
    """Functor data on the braid category, stored up to K_max.

    ``gens[k]`` lists the k-1 generator matrices of B_k (empty for
    k <= 1); ``gen_invs`` their inverses, None until :meth:`generator`
    computes one; ``structs[k]`` is I_k for 0 <= k <= K_max - 1.
    ``dims[k]`` is the rank of F(k).  A matrix is stored as
    :class:`UnitColumns` when each of its columns is empty or one +1 or
    -1 entry, as every matrix of a Hurwitz or identity-cZ Kunneth
    system and of their differences is; only a matrix with a column of
    two or more entries (or another value) keeps sparse columns ``{row:
    value}``, as those of a non-permutation cZ and of the generic
    Smith-form cokernel do.  Both forms store no zero entry, so a matrix
    has one stored form and ``==`` compares matrices.
    """

    def __init__(self, K_max, dims, gens, gen_invs, structs, name="system"):
        if len(dims) != K_max + 1:
            raise CoeffSystemError("dims must cover objects 0..K_max")
        if len(structs) != K_max:
            raise CoeffSystemError("structs must cover objects 0..K_max-1")
        self.K_max = K_max
        self.dims = dims
        self.gens = gens
        self.gen_invs = gen_invs
        self.structs = structs
        self.name = name

    @staticmethod
    def build(K_max, dims, gens, structs, name="system", validate=True,
              gen_invs=None):
        """The system of the forward generators and structure maps, in
        either form, stored by :func:`as_matrix`.  Unless ``gen_invs``
        gives the inverses, each is computed on its first read."""
        gens = [[as_matrix(mat) for mat in mats] for mats in gens]
        if gen_invs is None:
            gen_invs = [[None] * len(mats) for mats in gens]
        sys = CoeffSystem(
            K_max=K_max,
            dims=list(dims),
            gens=gens,
            gen_invs=gen_invs,
            structs=[as_matrix(mat) for mat in structs],
            name=name,
        )
        for k, (mats, n) in enumerate(zip(sys.gens, sys.dims)):
            for i, mat in enumerate(mats, start=1):
                _check_rows(mat, n, f"generator at k={k}, i={i}")
        for k, mat in enumerate(sys.structs):
            _check_rows(mat, sys.dims[k + 1], f"structure map at k={k}")
        if validate:
            sys.check_braid_relations()
        return sys

    def is_zero(self):
        return all(d == 0 for d in self.dims)

    def generator(self, k, i, sign=1):
        """Matrix of sigma_i^sign acting on F(k) (1-based i <= k-1); an
        inverse is computed on its first read and kept."""
        if not 1 <= i <= k - 1:
            raise CoeffSystemError(f"generator {i} invalid at object {k}")
        if sign == 1:
            return self.gens[k][i - 1]
        inv = self.gen_invs[k][i - 1]
        if inv is None:
            inv = self.gen_invs[k][i - 1] = _inverse(
                self.gens[k][i - 1], self.dims[k])
        return inv

    def check_braid_relations(self):
        """Check the braid, commuting and inverse relations of the
        generators by :func:`compose`, on the lists of unit columns."""
        gens, dims = self.gens, self.dims
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
            one = identity(dims[k])
            for i in range(1, k):
                if compose(gens[k][i - 1], self.generator(k, i, -1)) != one:
                    raise CoeffSystemError(f"inverse wrong at k={k}, i={i}")

    def to_json(self):
        return {
            "K_max": self.K_max,
            "dims": list(self.dims),
            "name": self.name,
        }


def pair_table_system(tables, base, digit, K_max, name):
    """F(k) = Z[base^k] on k-tuples of digits, coded in base ``base``,
    most significant entry first: sigma_i and its inverse move the
    entries i, i+1 by the pair tables ``tables`` = (forward, inverse),
    their images read by :func:`braid.pair_images`, and I_k sends code x
    to x base + ``digit`` (appends that digit).

    Every generator moves its pair by the same table, so each relation
    holds on every F(k) once it holds on the F(k) with k <= 4: the braid
    relation moves three adjacent entries as it does on F(3), far
    generators move disjoint pairs, which commute on any F(k), and
    sigma_i sigma_i^-1 moves one pair as it does on F(2).  So ``build``
    checks the relations, with the inverses read from the inverse
    table, on the system of the objects k <= min(K_max, 4) only, and
    raises as the check of every object would, at the same k and i.  The
    whole system keeps those inverses; an inverse above k = 4 is
    computed on its first read."""
    small = min(K_max, 4)
    dims = [base**k for k in range(K_max + 1)]
    codes = [list(range(n)) for n in dims]
    ones = [[1] * n for n in dims]

    def moves(pairs, top):
        return [[UnitColumns(braid.pair_images(pairs, base, codes[k], k, i),
                             ones[k]) for i in range(1, k)]
                for k in range(top + 1)]

    gens, gen_invs = moves(tables[0], K_max), moves(tables[1], small)
    structs = [UnitColumns(codes[k + 1][digit::base], ones[k])
               for k in range(K_max)]
    CoeffSystem.build(small, dims[:small + 1], gens[:small + 1],
                      structs[:small], name=name, gen_invs=gen_invs)
    gen_invs += [[None] * (k - 1) for k in range(small + 1, K_max + 1)]
    return CoeffSystem.build(K_max, dims, gens, structs, name=name,
                             validate=False, gen_invs=gen_invs)


def build_hurwitz_system(group, classes, g_hat, K_max):
    """The Hurwitz coefficient system: F(k) = Z[c^k], generators acting
    by the Hurwitz move, structure maps appending the stabiliser.

    Built by :func:`pair_table_system` from the Hurwitz pair tables of
    sign +1 and -1 (:func:`braid.hurwitz_pairs`), a tuple coded by the
    positions of its entries in the class set, as in
    ``resolution.HurwitzModule``.  Before any matrix is built, a system
    is refused with ResourceRefusal when its columns (the k-1 generators
    of B_k and their inverses hold |c|^k each) plus RELATION_WEIGHT
    times its relations (comb(k, 2) on F(k)) exceed ``cost.BOUND``.
    Both counts are upper bounds: only the inverses on k <= 4 are built,
    and relations are checked there only (see
    :func:`pair_table_system`)."""
    if g_hat not in classes:
        raise CoeffSystemError("stabiliser element must lie in the class set")
    columns = relations = 0
    for k in range(2, K_max + 1):
        columns += 2 * (k - 1) * len(classes) ** k
        relations += comb(k, 2)
        cost.refuse(columns + cost.RELATION_WEIGHT * relations, (
            f"Hurwitz system of {columns} columns and {relations} relations "
            f"up to k={k}, relations weighing {cost.RELATION_WEIGHT} each, exceeds"))
    return pair_table_system(
        (braid.hurwitz_pairs(classes, 1), braid.hurwitz_pairs(classes, -1)),
        len(classes.elements), classes.elements.index(g_hat), K_max,
        name=f"hurwitz({group.name}, |c|={len(classes)})",
    )


# ---------------------------------------------------------------------------
# difference operator and degree


class _CokernelData:
    """coker(I_k) in one object degree, as two matrices: ``proj``, from
    F(k+1) onto the cokernel (proj o I_k = 0), and ``reps``, sending each
    cokernel basis vector to a representative in F(k+1) (proj o reps =
    id).

    When I_k is unit columns, each a +1 entry in a row of its own, the
    cokernel basis is the rows that I_k misses, in order, each its own
    representative, and both matrices are unit columns: ``proj`` sends
    a missed row to its place among them and an image row to 0.
    Otherwise, with U I_k V = [I; 0] the Smith form, ``proj`` is the
    rows U[n_small:] and ``reps`` the matching columns of U^-1.  Either
    way ``split`` is the canonical splitting rho (rho I_k = id): for unit
    columns the unit columns sending each image row back to its source.
    :func:`_induced` builds every matrix induced on cokernels.
    """

    def __init__(self, struct, n_small, n_big, where="structure map"):
        self.struct = struct = as_matrix(struct)
        _check_rows(struct, n_big, where)
        if isinstance(struct, UnitColumns) and struct.signs.count(1) == n_small:
            split, signs = [-1] * n_big, [0] * n_big
            for src, r in enumerate(struct.rows):
                split[r], signs[r] = src, 1
            if signs.count(1) == n_small:  # no row hit twice
                missed = list(itertools.compress(range(n_big), map(
                    operator.not_, signs)))
                self.rank = len(missed)
                self.reps = UnitColumns(missed, [1] * self.rank)
                rows = [-1] * n_big
                for t, r in enumerate(missed):
                    rows[r] = t
                self.proj = UnitColumns(rows, list(map((1).__sub__, signs)))
                self.split = UnitColumns(split, signs)
                return
        snf = intmat.smith_normal_form(
            intmat.sparse_transpose(dict(enumerate(columns(struct)))),
            (n_big, n_small))
        if snf.rank != n_small or any(d != 1 for d in snf.diag if d):
            raise DeltaUndefined(
                "structure map is not split injective objectwise "
                "(non-unit invariant factors); degree undefined at this stage"
            )
        self.rank = n_big - n_small
        proj = intmat.sparse_transpose(
            {k - n_small: snf.u_rows[k] for k in range(n_small, n_big)})
        self.proj = as_matrix([proj.get(r, {}) for r in range(n_big)])
        self.reps = as_matrix([snf.uinv_cols[k] for k in range(n_small, n_big)])
        # the canonical splitting rho = V [I 0] U
        head = intmat.sparse_transpose(
            {k: snf.u_rows[k] for k in range(n_small)})
        self.split = compose([snf.v_cols[k] for k in range(n_small)],
                             [head.get(r, {}) for r in range(n_big)])


def _induced(src, tgt, mat, where):
    """Matrix induced from coker ``src`` to coker ``tgt`` by ``mat``,
    tgt.proj o mat o src.reps.  ``mat`` must carry the image of src's
    structure map I into tgt's: tgt.proj o mat o I is zero, else
    CoeffSystemError names ``where``."""
    if not is_zero(compose(tgt.proj, compose(mat, src.struct))):
        raise CoeffSystemError(f"{where} does not carry the image of I_k "
                               "into that of the target's structure map")
    return compose(tgt.proj, compose(mat, src.reps))


class DeltaResult:
    def __init__(self, system, naturally_split):
        self.system = system
        self.naturally_split = naturally_split


def delta(system):
    """The difference operator: objectwise cokernels of the structure
    maps, with induced generator actions and structure maps.

    Raises :class:`DeltaUndefined` when some I_k is not objectwise
    split-injective, and :class:`CoeffSystemError` when a map it induces
    on cokernels is not defined.  ``naturally_split`` reports whether
    the canonical splitting is natural on all generators and structure
    morphisms up to K_max (sound check of splitness in the functor
    category).
    """
    K = system.K_max
    if K < 1:
        raise CoeffSystemError("cannot apply delta with K_max < 1")
    coks = [
        _CokernelData(system.structs[k], system.dims[k], system.dims[k + 1],
                      f"structure map at k={k}")
        for k in range(K)
    ]
    naturally_split = True
    new_gens = []
    for k in range(K):
        rho = coks[k].split
        mats = []
        for i in range(1, k):
            big = system.gens[k + 1][i - 1]
            mats.append(_induced(coks[k], coks[k], big,
                                 f"generator at k={k}, i={i}"))
            if compose(system.gens[k][i - 1], rho) != compose(rho, big):
                naturally_split = False
        new_gens.append(mats)
    new_structs = []
    for k in range(K - 1):
        # Ts(iota_k) = T(v_k^2(tau_1)) o I_{k+1}: generator k+1 at object k+2
        comp = compose(system.generator(k + 2, k + 1), system.structs[k + 1])
        new_structs.append(_induced(coks[k], coks[k + 1], comp,
                                    f"Ts(iota_k) at k={k}, i={k + 1}"))
        if compose(system.structs[k], coks[k].split) \
                != compose(coks[k + 1].split, comp):
            naturally_split = False

    out = CoeffSystem.build(
        K - 1,
        [cok.rank for cok in coks],
        new_gens,
        new_structs,
        name=f"delta({system.name})",
        validate=False,
    )
    return DeltaResult(system=out, naturally_split=naturally_split)


class DegreeReport:
    def __init__(self, value, delta_ranks, k_max_consulted, naturally_split,
                 reason=""):
        self.value = value  # -1, 0, 1, ..., ">cutoff", or "undefined"
        self.delta_ranks = delta_ranks
        self.k_max_consulted = k_max_consulted
        self.naturally_split = naturally_split
        self.reason = reason

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


class GradedModule:
    """Graded free ranks (with optional torsion data, which the Kunneth
    construction refuses)."""

    def __init__(self, ranks, torsion=()):
        self.ranks = ranks  # tuple of (degree, free_rank)
        self.torsion = torsion

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

    F(k) has rank dims[k], the sum over d of rank_d(HY) times the
    coefficient of t^(i-d) in P(t)^k, P the Poincare polynomial of HZ.
    Before any basis is built, a system is refused with ResourceRefusal
    when its columns (of the k - 1 generators of F(k) and the structure
    map out of it) and its relations checked (comb(k, 2) on F(k)), each
    weighing COLUMN_WEIGHT, exceed ``cost.BOUND``.
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
    if cZ.get(0, [[1]]) != [[1]]:
        raise CoeffSystemError("cZ must restrict to the identity in degree 0")
    powers, count = [{0: 1}], 0  # P(t)^k, truncated above t^i
    for k in range(K_max + 1):
        power = powers[k]
        dim = sum(r * power.get(i - d, 0) for d, r in HY.ranks)
        count += max(k, 1) * dim + comb(k, 2)
        cost.refuse(cost.COLUMN_WEIGHT * count, (
            f"Kunneth system of {count} columns and relations up to k={k}, "
            f"weighing {cost.COLUMN_WEIGHT} each, exceeds"))
        nxt = {}
        for e, c in power.items():
            for d, r in HZ.ranks:
                if e + d <= i:
                    nxt[e + d] = nxt.get(e + d, 0) + c * r
        powers.append(nxt)

    z_degs = HZ.degrees()

    def basis_of(k):
        out = []
        for yd, r in HY.ranks:
            for combo in _degree_tuples(z_degs, k, i - yd, powers):
                for yi, idxs in itertools.product(
                    range(r), itertools.product(
                        *[range(HZ.rank(d)) for d in combo])):
                    out.append(((yd, yi), tuple(zip(combo, idxs))))
        out.sort()
        return out

    bases = [basis_of(k) for k in range(K_max + 1)]
    index = [{b: t for t, b in enumerate(bs)} for bs in bases]
    dims = [len(bs) for bs in bases]

    def gen_matrix(k, gi):
        # x (x) y -> sign * cZ(y) (x) x
        cols = []
        for (y, slots) in bases[k]:
            a = slots[gi - 1]
            b = slots[gi]
            sign = -1 if (a[0] * b[0]) % 2 else 1
            # cZ is the identity in a degree it does not give
            mat = cZ.get(b[0])
            images = [(b, 1)] if mat is None else [
                ((b[0], t), row[b[1]])
                for t, row in enumerate(mat) if row[b[1]]]
            col = {}
            for moved, v in images:
                new = slots[: gi - 1] + (moved, a) + slots[gi + 1:]
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
    return CoeffSystem.build(K_max, dims, gens, structs,
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


def _degree_tuples(degs, k, total, powers):
    """All k-tuples over degs summing to total.  powers[j] holds the
    coefficients of P(t)^j, which are nonzero exactly at the sums of
    j-tuples over degs, so every prefix visited extends to a tuple and
    the walk costs at most k steps a tuple."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for d in degs:
        if powers[k - 1].get(total - d):
            for rest in _degree_tuples(degs, k - 1, total - d, powers):
                yield (d,) + rest

