"""Truncated free resolutions over braid-group rings and their integer
specialisations with Hurwitz coefficients.

The chain model is the type-A Salvetti complex, truncated at d_max:
the degree-j basis is the set of j-element subsets Gamma of the
standard generators {s_1..s_{k-1}}, so rank_j = C(k-1, j), and

    d(Gamma) = sum over tau in Gamma, beta minimal coset rep of
               W_{Gamma - tau} in W_Gamma of
               (-1)^(l(beta) + position of tau in Gamma) lift(beta) (Gamma - tau)

with lift(beta) the simple braid of beta, its own normal form.  A
boundary entry is that sum as a plain {simple braid: +-1} dict: no
product in the group ring is ever formed, so the package needs no
normal forms of arbitrary words.  W_Gamma is the direct product of the
parabolics of Gamma's maximal runs of consecutive generators, so the
sum over beta runs over W_B for the run B holding tau and depends only
on (B, tau); ``salvetti_complex`` reads its betas from a shuffle table
and reuses each sum, with the sign of tau's position, for every Gamma
that contains B as a run.  The sign convention is validated, not
trusted: every specialisation checks the composite of consecutive
boundaries is exactly zero, and the test suite checks d^2 = 0 over the
group ring and cross-checks the module homology against the Fox
presentation complex in degrees 0 and 1.

Matrix conventions for the integer specialisation: the degree-j matrix
has shape dims_j x dims_{j-1} (rows are the source basis), acting on
row vectors, so the chain condition reads D_{j+1} * D_j = 0.  A
group-ring coefficient sum(n_w w) specialises to the integer block
sum(n_w P_w) where P_w[alpha, beta] = 1 iff alpha = w . beta under the
Hurwitz action; with these conventions homology of the specialised
complex is group homology of B_k with coefficients in the module.
The Hurwitz module permutes digit codes by the pair-table moves of
``braid``, as the Hurwitz systems and orbits do; the trivial module's
permutation is the identity, so ``specialize`` has one loop.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import garside, intmat
from .braid import hurwitz_pairs, pair_images


class ResolutionError(ValueError):
    pass


class FreeComplex:
    """Free complex over Z[B_k], degrees 0..d_max.

    ``boundaries[j]`` (1 <= j <= d_max) is a sparse dict
    {(row, col): entry} of shape ranks[j] x ranks[j-1], each entry a
    group-ring element as a {simple braid: coefficient} dict keyed by
    normal forms.  Entries may share one dict, so none is changed in
    place.  ``basis_labels[j]`` names the degree-j basis.
    """

    def __init__(self, strands, d_max, ranks, boundaries, basis_labels,
                 complete=False):
        self.strands = strands
        self.d_max = d_max
        self.ranks = ranks
        self.boundaries = boundaries
        self.basis_labels = basis_labels
        self.complete = complete


@lru_cache(maxsize=None)
def _shuffle_reps(r, t):
    """The minimal coset representatives of S_t x S_(r+1-t) in S_(r+1)
    (a run of r generators without its t-th), each with its sign
    (-1)^length: the inverses of the shuffles S + complement, S a
    t-subset of {0..r}, which have sum(S) - t(t-1)/2 inversions."""
    out = []
    for head in itertools.combinations(range(r + 1), t):
        rest = tuple(x for x in range(r + 1) if x not in head)
        length = sum(head) - t * (t - 1) // 2
        out.append((garside.perm_inv(head + rest), -1 if length % 2 else 1))
    return tuple(out)


def _runs(gamma):
    """The maximal runs of consecutive generators in a sorted subset."""
    runs = []
    for g in gamma:
        if runs and runs[-1][-1] == g - 1:
            runs[-1].append(g)
        else:
            runs.append([g])
    return [tuple(r) for r in runs]


def salvetti_complex(k, d_max):
    """The truncated type-A Salvetti free complex for B_k.

    Exact in degrees below d_max; the full complex (d_max = k-1) is a
    complete free resolution of the trivial module.

    W_Gamma is the direct product of the parabolics of Gamma's maximal
    runs of consecutive generators, so the minimal coset
    representatives of W_{Gamma - tau} in W_Gamma are those of
    W_{B - tau} in W_B for the run B holding tau: the shuffle table of
    B's length and tau's place in it, shifted to B's first strand.  The
    boundary sum therefore depends only on (B, tau), with the sign of
    tau's position in Gamma on top: each distinct sum is built once per
    call with both signs, as two dicts that every entry of that (B, tau)
    and sign shares, and each permutation is lifted once per call.
    """
    if not 1 <= d_max <= k - 1:
        raise ResolutionError(f"need 1 <= d_max <= k-1, got d_max={d_max}, k={k}")
    gens = list(range(1, k))
    basis_labels = [
        [tuple(c) for c in itertools.combinations(gens, j)]
        for j in range(d_max + 1)
    ]
    ranks = [len(b) for b in basis_labels]
    lifts, sums = {}, {}

    def run_sums(run, tau):
        """sum over beta of (-1)^l(beta) lift(beta), beta a minimal
        coset rep of W_{run - tau} in W_run, and its negative."""
        off = run[0] - 1
        head, tail = tuple(range(off)), tuple(range(off + len(run) + 1, k))
        terms = {}
        for local, sign in _shuffle_reps(len(run), tau - run[0] + 1):
            beta = head + tuple(off + x for x in local) + tail
            if beta not in lifts:
                lifts[beta] = garside.form_from_positive_permutation(k, beta)
            terms[lifts[beta]] = sign
        return terms, {form: -sign for form, sign in terms.items()}

    boundaries = {}
    for j in range(1, d_max + 1):
        index_below = {label: i for i, label in enumerate(basis_labels[j - 1])}
        mat = {}
        for row, gamma in enumerate(basis_labels[j]):
            pos = 0
            for run in _runs(gamma):
                for tau in run:
                    pos += 1
                    if (run, tau) not in sums:
                        sums[run, tau] = run_sums(run, tau)
                    col = index_below[tuple(g for g in gamma if g != tau)]
                    mat[row, col] = sums[run, tau][pos % 2]
        boundaries[j] = mat
    return FreeComplex(
        strands=k,
        d_max=d_max,
        ranks=ranks,
        boundaries=boundaries,
        basis_labels=basis_labels,
        complete=(d_max == k - 1),
    )


# ---------------------------------------------------------------------------
# coefficient modules


class HurwitzModule:
    """Free module on c^k with the Hurwitz permutation action.

    The basis is the digit codes of c^k (entries' positions in the class
    set, base |c|, most significant first), in lexicographic order of the
    tuples; a letter's move (:func:`braid.pair_images`) is built once per
    module.  ``g_hat`` is the stabiliser element appended by the
    structure map into the (k+1)-module.
    """

    def __init__(self, classes, k, g_hat):
        if g_hat not in classes:
            raise ResolutionError("stabiliser element must lie in the class set")
        self.classes = classes
        self.k = k
        self.g_hat = g_hat
        self._base = len(classes.elements)
        self._codes = list(range(self._base**k))
        self._pairs = {sign: hurwitz_pairs(classes, sign) for sign in (1, -1)}
        self._moves = {}

    @property
    def dim(self):
        return len(self._codes)

    def word_permutation(self, letters):
        """The permutation of the basis given by a braid word (list p
        with p[beta] = alpha meaning basis_beta maps to basis_alpha):
        the letters' permutations composed, the rightmost letter first."""
        perm = self._codes
        for idx, sign in reversed(letters):
            move = self._moves.get((idx, sign))
            if move is None:
                if not 1 <= idx <= self.k - 1 or sign not in (1, -1):
                    raise ResolutionError(
                        f"letter {(idx, sign)} invalid with {self.k} strands")
                move = self._moves[idx, sign] = pair_images(
                    self._pairs[sign], self._base, self._codes, self.k, idx)
            perm = list(map(move.__getitem__, perm))
        return perm

    def form_permutation(self, form):
        if self.dim == 1:
            return self._codes
        return self.word_permutation(form.to_word_letters())

    def stabilisation_rows(self, target):
        """Row indices in the (k+1)-module basis of each appended tuple:
        code x goes to x |c| + digit(g_hat)."""
        digit = self.classes.elements.index(self.g_hat)
        return range(digit, target.dim, self._base)


class TrivialModule:
    """Rank-r module with trivial braid action."""

    def __init__(self, k, rank=1):
        self.k = k
        self.rank = rank

    @property
    def dim(self):
        return self.rank

    def form_permutation(self, form):
        return range(self.rank)


class IntegerComplex:
    """Specialised integer chain complex.

    ``mats[j]`` has shape dims[j] x dims[j-1] acting on row vectors;
    the chain condition is mats[j+1] * mats[j] = 0, verified exactly at
    construction.  ``complete`` marks a full (untruncated) resolution,
    whose top homology is also trustworthy.  ``cell_labels`` names the
    cells of each degree, whose (cell, module-basis) blocks make up the
    basis; dims[j] = len(cell_labels[j]) * (module dimension).
    """

    def __init__(self, dims, mats, complete=False, cell_labels=None):
        self.dims = dims
        self.mats = mats
        self.complete = complete
        self.cell_labels = [] if cell_labels is None else cell_labels
        # homology bases, built on first use by ``homology._basis`` and
        # kept as long as the complex (a grid holds two complexes at a
        # time); keyed by (degree, "Z" or "Fp:p"), beside the ring's
        # unit-pivot reduction under ("reduction", "Z" or "Fp:p")
        self.bases = {}

    @property
    def top_degree(self):
        return len(self.dims) - 1

    def verify_chain(self):
        for j in range(1, self.top_degree):
            prod = intmat.sparse_mul(self.mats[j + 1], self.mats[j])
            if prod:
                raise ResolutionError(
                    f"boundary composite in degrees {j + 1},{j} is nonzero; "
                    "sign convention or action bug"
                )


def specialize(complex_, module):
    """Specialise a free complex at a coefficient module.

    Fails loudly if the composite of consecutive specialised boundaries
    is nonzero (which would signal a boundary-formula bug).
    """
    k = complex_.strands
    if getattr(module, "k", k) != k:
        raise ResolutionError("module strand count does not match the complex")
    m = module.dim
    dims = [r * m for r in complex_.ranks]
    mats = {}
    perm_cache = {}
    for j in range(1, complex_.d_max + 1):
        entries = []
        for (row, col), elt in complex_.boundaries[j].items():
            for form, coeff in elt.items():
                perm = perm_cache.get(form)
                if perm is None:
                    perm = module.form_permutation(form)
                    perm_cache[form] = perm
                base_r = row * m
                base_c = col * m
                for beta in range(m):
                    entries.append((base_r + perm[beta], base_c + beta, coeff))
        mats[j] = intmat.sparse_from_entries(entries)
    out = IntegerComplex(
        dims=dims,
        mats=mats,
        complete=complex_.complete,
        cell_labels=[list(lbls) for lbls in complex_.basis_labels],
    )
    out.verify_chain()
    return out


def point_complex(module):
    """The complete complex for B_1 (trivial group): one degree, no
    boundaries.  Lets the stabilisation pipeline start at k = 1."""
    return IntegerComplex(
        dims=[module.dim],
        mats={},
        complete=True,
        cell_labels=[[()]],
    )


class ChainMap:
    """Chain map between integer complexes, one matrix per shared degree.

    ``mats[j]`` has shape source.dims[j] x target.dims[j] (row
    convention).  Commutation with both boundaries is exact:
    D^src_j * F_{j-1} = F_j * D^tgt_j.
    """

    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        self.mats = mats
        self.verified = False

    def verify(self):
        if self.verified:
            return
        top = min(self.source.top_degree, self.target.top_degree)
        for j in range(1, top + 1):
            lhs = intmat.sparse_mul(self.source.mats[j], self.mats[j - 1])
            rhs = intmat.sparse_mul(self.mats[j], self.target.mats[j])
            if lhs != rhs:
                raise ResolutionError(
                    f"chain map fails to commute with boundaries in degree {j}"
                )
        self.verified = True


def stabilisation_chain_map(source_complex, target_complex, module_k, module_k1):
    """Chain-level stabilisation map from the k-complex to the (k+1)-complex.

    Degree-j basis subsets of {s_1..s_{k-1}} include into subsets of
    {s_1..s_k}; on coefficients, tuples are appended by the stabiliser.
    The square with both boundaries is asserted to commute exactly.
    """
    if module_k1.k != module_k.k + 1:
        raise ResolutionError("target module must have one more strand")
    if module_k1.classes is not module_k.classes and (
        module_k1.classes.elements != module_k.classes.elements
    ):
        raise ResolutionError("modules must share a class set")
    rows_map = module_k.stabilisation_rows(module_k1)
    m_src = module_k.dim
    m_tgt = module_k1.dim
    mats = {}
    shared = min(source_complex.top_degree, target_complex.top_degree)
    for j in range(0, shared + 1):
        # each source cell label (a generator subset) also names a
        # target cell; map labels explicitly rather than by position
        tgt_index = {lbl: i for i, lbl in enumerate(target_complex.cell_labels[j])}
        entries = []
        for cell, label in enumerate(source_complex.cell_labels[j]):
            tgt_cell = tgt_index[label]
            for beta in range(m_src):
                entries.append(
                    (cell * m_src + beta, tgt_cell * m_tgt + rows_map[beta], 1)
                )
        mats[j] = intmat.sparse_from_entries(entries)
    cm = ChainMap(source=source_complex, target=target_complex, mats=mats)
    cm.verify()
    return cm
