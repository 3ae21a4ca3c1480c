"""Exact homology of integer complexes and classification of induced maps.

Homology groups and induced maps are both read from one explicit
homology basis per complex, degree and ring, built on first use and
kept on the complex, so that a grid builds each basis once.  A group
is read from the basis' generator orders: over Z the group they
present, over Q the number of free generators, over F_p their number.

Each basis is built on a core a few cells wide.  Once per complex and
ring, the complex is reduced by cancelling unit boundary entries
(:func:`intmat.reduce_complex`: +-1 over Z, anything nonzero mod p over
F_p, which reads the input mod p, so F_p never reads the Z core).  The
core is chain-homotopy equivalent to the complex through the projection
pi and the inclusion iota, both chain maps with pi o iota = id; a cycle
is checked on the unreduced boundary and classified through pi, and a
generator is lifted through iota, as in Harker, Mischaikow, Mrozek and
Nanda (FoCM 2014).  Over Z the core basis comes from two Smith normal
forms per degree, both run by the same engine tracking the row
transforms only: the form of the boundary D_i gives the cycle basis and,
through the inverse row transform, the coordinates of any cycle in it
(one sparse vector-matrix product, no linear solve); the form of the
boundaries D_{i+1}, read row by row and written in those coordinates,
gives the generators and their orders.  Maps over Q read the same Z
basis, since H_i(C; Q) = H_i(C; Z) (x) Q: the torsion generators vanish
and the free ones span.  Over F_p the core's boundaries are zero, and
its basis is a kernel and quotient computed mod p, with one batched
elimination per basis and one per map.

Every chain, of a complex or of its core, is a sparse ``{cell: value}``
dict, as in :class:`intmat.ChainReduction`, from the projection to the
induced map's one sparse push of all generators.  So is every matrix
over Z, D_0 being the sparse dims[0] x 0 zero matrix, so that degree 0
is built like any other degree; only the GF(p) tier reads dense ones.

Coefficient rings are Z, Q, or F_p (p < 2**31), selected by a
``Coeff`` value.  A map of finitely generated abelian groups is
presented by the orders of its source/target generators (torsion
orders first, 0 for free) and an integer matrix of generator images;
injectivity, surjectivity and split-injectivity over Z are decided
exactly, the last by solving for a retraction one row at a time: the
retraction system is the direct sum of one small integer system per
source generator.
"""

from __future__ import annotations

import math

from . import intmat
from .intmat import smith_normal_form  # re-exported surface
from .resolution import IntegerComplex

__all__ = [
    "Coeff",
    "HomologyGroup",
    "InducedHomologyMap",
    "smith_normal_form",
    "homology",
    "induced_map",
    "is_split_injective",
    "HomologyError",
]


class HomologyError(ValueError):
    pass


class Coeff:
    """Coefficient ring: Z, Q, or F_p for a prime p < 2**31."""

    def __init__(self, kind, p=0):
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        if type(other) is not Coeff:
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    @staticmethod
    def parse(text):
        if text == "Z":
            return Coeff("Z")
        if text == "Q":
            return Coeff("Q")
        if text.startswith("Fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise HomologyError(
                    f"cannot parse coefficient spec {text!r}") from None
            if not 2 <= p < 2**31 or any(
                    p % q == 0 for q in range(2, math.isqrt(p) + 1)):
                raise HomologyError(f"{text}: need a prime p < 2**31")
            return Coeff("Fp", p)
        raise HomologyError(f"cannot parse coefficient spec {text!r}")

    def __str__(self):
        return self.kind if self.kind != "Fp" else f"Fp:{self.p}"


Z = Coeff("Z")
Q = Coeff("Q")


class HomologyGroup:
    """Isomorphism type: free rank plus invariant factors d1 | d2 | ...,
    each > 1."""

    def __init__(self, free_rank, torsion=()):
        for d in torsion:
            if d <= 1:
                raise HomologyError("torsion coefficients must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise HomologyError("torsion must form a divisibility chain")
        self.free_rank = free_rank
        self.torsion = torsion

    def __eq__(self, other):
        if type(other) is not HomologyGroup:
            return NotImplemented
        return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def to_json(self):
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _trusted_degree(C, i):
    if i < 0:
        raise HomologyError("negative homology degree")
    if i > C.top_degree:
        if C.complete:
            return  # zero beyond a complete resolution
        raise HomologyError(
            f"degree {i} exceeds the truncation (top degree {C.top_degree})"
        )
    if i == C.top_degree and not C.complete:
        raise HomologyError(
            f"degree {i} homology of a depth-{C.top_degree} truncation is not "
            "certified; rebuild with a deeper resolution"
        )


def homology(C, i, coeff=Z):
    """Homology of an integer complex in one degree, read from the
    generator orders of its homology basis (:func:`_basis`): over Z the
    group they present, over Q the number of free generators, over F_p
    the dimension.

    Degrees above a truncation are refused unless the complex is a
    complete resolution, in which case they are zero.
    """
    orders = _basis(C, i, coeff).orders
    if coeff.kind == "Q":
        return HomologyGroup(orders.count(0))
    return _presented_group(orders)


def _basis(C, i, coeff):
    """The degree-i homology basis of C, built once per complex and ring
    and kept in ``C.bases``: Z and Q share the Z basis, F_p has its own."""
    key = (i, _ring(coeff))
    if key not in C.bases:
        C.bases[key] = _ReducedBasis(C, i, coeff)
    return C.bases[key]


def _ring(coeff):
    return str(coeff) if coeff.p else "Z"


def _reduction(C, coeff):
    """The unit-pivot reduction of C over Z (for Z and Q) or F_p, and its
    core as a complex; built once per complex and ring and kept in
    ``C.bases`` beside the bases read from it."""
    key = ("reduction", _ring(coeff))
    if key not in C.bases:
        red = intmat.reduce_complex(C.mats, C.dims, coeff.p,
                                    lift_top=C.complete)
        C.bases[key] = red, IntegerComplex(dims=red.dims, mats=red.mats,
                                           complete=C.complete)
    return C.bases[key]


# ---------------------------------------------------------------------------
# explicit homology bases


class _ReducedBasis:
    """The homology basis of C in degree i, read on the core of C's
    reduction (:func:`_reduction`): a :class:`_ZHomologyBasis` of the
    core over Z and Q, a :class:`_FieldHomologyBasis` over F_p.  Chains
    of C reach the core through the projection pi and come back through
    the inclusion iota, chain maps that induce inverse isomorphisms on
    homology.  Exposes the surface of the core basis, on chains of C.
    """

    def __init__(self, C, i, coeff):
        _trusted_degree(C, i)
        self.i, self.p = i, coeff.p
        self.boundary = C.mats.get(i, {})
        self.reduction, core = _reduction(C, coeff)
        self.core = (_FieldHomologyBasis(core, i, coeff.p) if coeff.p
                     else _ZHomologyBasis(core, i))
        self.orders = self.core.orders

    def classes_of(self, chains):
        """Coordinates of the class of each cycle ``{cell: value}`` of C
        in the kept generators: the whole batch is checked for cycles on
        the unreduced boundary D_i, and each class is read from the
        cycle's projection to the core; raises HomologyError on a
        non-cycle."""
        if self.core.trivial_beyond:
            return [[] for _ in chains]
        p = self.p
        image = intmat.sparse_mul(dict(enumerate(chains)), self.boundary)
        if any(w % p if p else w
               for row in image.values() for w in row.values()):
            raise HomologyError("vector is not a cycle")
        return self.core.classes_of(
            [self.reduction.project(self.i, chain) for chain in chains])

    def generator_chain(self, idx):
        """A cycle ``{cell: value}`` of C representing the idx-th kept
        generator: the inclusion of the core generator."""
        return self.reduction.lift(self.i, self.core.generator_chain(idx))


def _boundary(C, i):
    """The boundary D_i of C as a dense matrix for the GF(p) tier, and D_0
    as the dims[0] x 0 zero matrix, whose left kernel is everything."""
    return intmat.sparse_to_dense(C.mats.get(i, {}), C.dims[i],
                                  C.dims[i - 1] if i else 0)


class _ZHomologyBasis:
    """Kernel basis + presentation data for H_i(C; Z).

    The SNF U*D_i*V = S of the sparse boundary D_i, of shape dims[i] x
    dims[i-1] (so D_0 is the dims[0] x 0 zero matrix), gives the cycle
    lattice as the rows U[r:], r = rank D_i.  A chain x has the unique
    expansion x = w*U with w = x*uinv, and x*D_i = w*S*vinv, so x is a
    cycle exactly when w[:r] == 0, and then w[r:] are its coordinates
    in the cycle basis.  Neither SNF here reads V, so neither tracks it;
    the cycle basis ``kernel``, ``uinv`` and the generators' cycle
    coordinates are the SNFs' sparse transforms, ``uinv`` turned to rows.

    Generator orders list torsion orders first (the SNF diagonal entries
    bigger than 1, in divisibility order) and then zeros for the free
    generators.  :class:`_ReducedBasis` builds it on a reduced core.
    """

    def __init__(self, C, i):
        _trusted_degree(C, i)
        self.trivial_beyond = i > C.top_degree
        if self.trivial_beyond:
            self.orders = []
            return
        m = C.dims[i]
        snf = smith_normal_form(C.mats.get(i, {}),
                                (m, C.dims[i - 1] if i else 0),
                                track_cols=False)
        self.rank = r = snf.rank
        self.kernel = {s - r: snf.u_rows[s] for s in range(r, m)}
        self.uinv = intmat.sparse_transpose(snf.uinv_cols)
        # the kernel coordinates of each upper boundary are a column of P
        P = intmat.sparse_transpose(
            {t: self._kernel_coords(row)
             for t, row in C.mats.get(i + 1, {}).items()})
        self._present(P, (m - r, C.dims[i + 1] if i < C.top_degree else 0))

    def _present(self, P, shape):
        """Generators and orders of Z^z modulo the columns of the sparse
        z x n matrix P, (z, n) = ``shape``.  Of the SNF's transforms only
        the kept generators' rows of U and columns of ``uinv`` are read,
        so only those are kept."""
        z = shape[0]
        snf = smith_normal_form(P, shape, track_cols=False) if z else None
        diag = list(snf.diag) if snf else []
        diag += [0] * (z - len(diag))
        self.kept = [j for j in range(z) if diag[j] != 1]
        self.orders = [diag[j] for j in self.kept]
        self.class_rows = [snf.u_rows[j] for j in self.kept]
        self.gen_coords = [snf.uinv_cols[j] for j in self.kept]

    def _kernel_coords(self, chain):
        """Cycle-basis coordinates ``{index: value}`` of the chain
        ``{cell: value}``; raises HomologyError on a non-cycle."""
        w = intmat.sparse_mul({0: chain}, self.uinv).get(0, {})
        if any(t < self.rank for t in w):
            raise HomologyError("vector is not a cycle")
        return {t - self.rank: v for t, v in w.items()}

    def classes_of(self, chains):
        """Coordinates of the homology class of each cycle
        ``{cell: value}`` in the kept generators; raises HomologyError
        on a non-cycle."""
        if self.trivial_beyond:
            return [[] for _ in chains]
        out = []
        for chain in chains:
            y = self._kernel_coords(chain)
            w = [sum(v * row.get(s, 0) for s, v in y.items())
                 for row in self.class_rows]
            out.append([v % d if d > 1 else v for v, d in zip(w, self.orders)])
        return out

    def generator_chain(self, idx):
        """A cycle ``{cell: value}`` for the idx-th kept generator."""
        return intmat.sparse_mul({0: self.gen_coords[idx]},
                                 self.kernel).get(0, {})


class _FieldHomologyBasis:
    """Kernel basis + quotient coordinates for H_i(C; F_p).

    Exposes the same surface as ``_ZHomologyBasis``: ``orders`` (all 0,
    one per basis vector), ``classes_of`` on integer chains
    ``{cell: value}`` (reduced mod p here) and ``generator_chain``.  The
    kernel is the left kernel of :func:`_boundary` mod p, so also in
    degree 0.  Kernel coordinates come from batched
    ``field_solve_in_rowspace`` calls, one elimination each: one for all
    rows of D_{i+1}, read from the sparse matrix, when the basis is
    built, and one per ``classes_of`` call.  :class:`_ReducedBasis`
    builds it on a reduced core, whose boundaries are zero mod p.
    """

    def __init__(self, C, i, p):
        _trusted_degree(C, i)
        self.p = p
        self.trivial_beyond = i > C.top_degree
        if self.trivial_beyond:
            self.orders = []
            return
        self.kernel = intmat.field_left_kernel(p, _boundary(C, i))
        self.width = C.dims[i]
        z = len(self.kernel)
        n_upper = C.dims[i + 1] if i < C.top_degree else 0
        img_coords = intmat.field_solve_in_rowspace(
            p, self.kernel,
            [C.mats[i + 1].get(t, {}).items() for t in range(n_upper)],
            self.width)
        if None in img_coords:
            raise HomologyError("boundary escaped the cycle space")
        self.img_rref, self.img_pivots = intmat.field_rref(p, img_coords)
        self.quotient_coords = [j for j in range(z) if j not in self.img_pivots]
        self.orders = [0] * len(self.quotient_coords)

    def classes_of(self, chains):
        """Quotient coordinates of the class of each cycle
        ``{cell: value}``; raises HomologyError on a non-cycle."""
        if self.trivial_beyond:
            return [[] for _ in chains]
        p = self.p
        out = []
        for y in intmat.field_solve_in_rowspace(
                p, self.kernel, [c.items() for c in chains], self.width):
            if y is None:
                raise HomologyError("vector is not a cycle")
            for row, piv in zip(self.img_rref, self.img_pivots):
                c = y[piv]
                if c:
                    y = [(a - c * b) % p for a, b in zip(y, row)]
            out.append([y[j] for j in self.quotient_coords])
        return out

    def generator_chain(self, idx):
        """A cycle ``{cell: value}`` for the idx-th basis vector."""
        row = self.kernel[self.quotient_coords[idx]]
        return {a: x for a, x in enumerate(row) if x}


# ---------------------------------------------------------------------------
# maps of presented abelian groups


def _map_system(M, a, tgt_orders, sign):
    """Sparse rows and shape of the b x (a + r) matrix [M | sign*R], for
    the dense b x a matrix M of a presented map (``[]`` when a = 0): R
    has one relation column d*e_t per target generator t of order
    d > 1, in order."""
    rows = {}
    width = a
    for t, d in enumerate(tgt_orders):
        row = {j: x for j, x in enumerate(M[t]) if x} if M else {}
        if d > 1:
            row[width] = sign * d
            width += 1
        if row:
            rows[t] = row
    return rows, (len(tgt_orders), width)


def map_is_surjective(src_orders, tgt_orders, M):
    b = len(tgt_orders)
    if b == 0:
        return True
    rows, shape = _map_system(M, len(src_orders), tgt_orders, 1)
    if not shape[1]:
        return False
    factors = intmat.sparse_invariant_factors(rows)
    return len(factors) == b and all(d == 1 for d in factors)


def map_is_injective(src_orders, tgt_orders, M):
    if not src_orders:
        return True
    # solutions (x, y) of M x = R_B y; test containment of x in the
    # source relation lattice
    for v in intmat.right_kernel(*_map_system(M, len(src_orders),
                                              tgt_orders, -1)):
        for j, d in enumerate(src_orders):
            x = v.get(j, 0)
            if d > 1 and x % d or d == 0 and x:
                return False
    return True


def is_split_injective(src_orders, tgt_orders, M):
    """Whether the presented map admits an integer retraction r with
    r o f = id, decided exactly one source generator at a time.

    Row i of r is an x in Z^b with (x M)_j = delta_ij for every source
    generator j and e x_k = 0 for every target generator k of order
    e > 1, all taken modulo the order d_i of generator i (through one
    slack unknown per equation when d_i > 1).  These blocks are
    independent, so r exists exactly when every block has an integer
    solution; the first block without one decides.
    """
    a, b = len(src_orders), len(tgt_orders)
    # the transpose of [M | R]: one equation per source generator, then
    # one per relation of the target
    rows, (_, n) = _map_system(M, a, tgt_orders, 1)
    coeffs = intmat.sparse_transpose(rows)
    for i, d in enumerate(src_orders):
        system = ({r: {**coeffs.get(r, {}), b + r: -d} for r in range(n)}
                  if d > 1 else coeffs)
        if intmat.solve_int(system, (n, b + n if d > 1 else b),
                            {i: 1}) is None:
            return False
    return True


class InducedHomologyMap:
    """Map on homology induced by a chain map, with decided properties.

    ``matrix[i][j]`` is the i-th target-generator coordinate of the
    image of the j-th source generator; generator orders follow the
    HomologyGroup convention (torsion first, then zeros for free).
    """

    def __init__(self, source, target, src_orders, tgt_orders, matrix,
                 is_injective, is_surjective, is_split_injective):
        self.source = source
        self.target = target
        self.src_orders = src_orders
        self.tgt_orders = tgt_orders
        self.matrix = matrix
        self.is_injective = is_injective
        self.is_surjective = is_surjective
        self.is_split_injective = is_split_injective

    @property
    def is_iso(self):
        return self.is_injective and self.is_surjective

    def to_json(self):
        return {
            "iso": self.is_iso,
            "surj": self.is_surjective,
            "inj": self.is_injective,
            "split": self.is_split_injective,
        }


def _presented_group(orders):
    """The group presented by generators of these orders (0 = free)."""
    free = sum(1 for d in orders if d == 0)
    return HomologyGroup(free, tuple(d for d in orders if d > 1))


def induced_map(chain_map, i, coeff=Z):
    """The induced map on degree-i homology, with exact property flags.

    Commutation of the chain map with both boundaries is verified
    first (memoized).  Z and Q read the Z homology basis, F_p its own
    basis mod p, both through the complexes' caches (:func:`_basis`);
    one sparse product of every source generator chain with F_i
    assembles the matrix for all three.
    Over Q and F_p the flags come from a rank, and split-injectivity
    equals injectivity.
    """
    chain_map.verify()
    src, tgt = chain_map.source, chain_map.target
    hb_s, hb_t = _basis(src, i, coeff), _basis(tgt, i, coeff)
    n = len(hb_s.orders)
    pushed = intmat.sparse_mul(
        {j: hb_s.generator_chain(j) for j in range(n)},
        chain_map.mats.get(i, {}))
    cols = hb_t.classes_of([pushed.get(j, {}) for j in range(n)])
    src_orders, tgt_orders = hb_s.orders, hb_t.orders
    M = [[col[t] for col in cols] for t in range(len(tgt_orders))]
    if coeff.kind == "Z":
        inj = map_is_injective(src_orders, tgt_orders, M)
        surj = map_is_surjective(src_orders, tgt_orders, M)
        split = is_split_injective(src_orders, tgt_orders, M)
    else:
        if coeff.kind == "Q":
            # torsion generators vanish over Q; the free ones are a basis
            fs = [j for j, d in enumerate(src_orders) if d == 0]
            ft = [t for t, d in enumerate(tgt_orders) if d == 0]
            M = [[M[t][j] for j in fs] for t in ft]
            src_orders, tgt_orders = [0] * len(fs), [0] * len(ft)
            rank = len(intmat.sparse_invariant_factors(intmat.dense_to_sparse(M)))
        else:
            rank = intmat.field_rank(coeff.p, M)
        inj = split = rank == len(src_orders)
        surj = rank == len(tgt_orders)
    return InducedHomologyMap(
        source=_presented_group(src_orders),
        target=_presented_group(tgt_orders),
        src_orders=list(src_orders),
        tgt_orders=list(tgt_orders),
        matrix=M,
        is_injective=inj,
        is_surjective=surj,
        is_split_injective=split,
    )

