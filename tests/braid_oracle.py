"""The word-problem oracle for the braid groups, kept beside the tests.

The package computes with simple braids alone: every Salvetti boundary
term lifts a permutation, and a simple braid is its own Garside normal
form.  This module holds the engine the tests check that against, which
no command uses:

* left-greedy Garside normal forms of arbitrary braid words, so that
  words are equal in the braid group iff their normal forms are
  identical;
* the integral group ring of B_k, keyed by normal forms, whose products
  run through them;
* the Fox presentation complex of B_k, an independent model of degrees
  0 and 1 (and of degree 2 for k = 3, whose presentation is aspherical),
  stored like a Salvetti complex: each boundary entry is a
  ``{normal form: coefficient}`` dict, so ``resolution.specialize``
  reads it the same way.

Permutations multiply left-to-right, (p * q)(x) = q(p(x)), as in
``hurstab.garside``.  A normal form is Delta^inf followed by
left-weighted simple factors, none trivial and none equal to Delta.
"""

import itertools

from hurstab.braid import BraidError
from hurstab.garside import (
    GarsideForm,
    half_twist,
    left_descents,
    perm_id,
    perm_inv,
    perm_mul,
    transposition,
)
from hurstab.resolution import FreeComplex, ResolutionError

# ---------------------------------------------------------------------------
# Garside normal forms


def right_descents(p):
    """{i : l(p * s_i) < l(p)}: value i appears before value i-1 (0-based)."""
    q = perm_inv(p)
    return {i for i in range(1, len(p)) if q[i - 1] > q[i]}


def is_identity(form):
    return form.infimum == 0 and not form.factors


def underlying_permutation(form):
    k = form.strands
    p = half_twist(k) if form.infimum % 2 else perm_id(k)
    for f in form.factors:
        p = perm_mul(p, f)
    return p


def _tau(p):
    """Conjugation by Delta: tau(a) = Delta^-1 a Delta, on permutations
    w0 * p * w0 (w0 is an involution)."""
    w0 = half_twist(len(p))
    return perm_mul(w0, perm_mul(p, w0))


def _normalize_pair(a, b):
    """Slide generators from b to a until (a, b) is left-weighted."""
    k = len(a)
    changed = False
    while True:
        movable = left_descents(b) - right_descents(a)
        if not movable:
            return a, b, changed
        i = min(movable)
        s = transposition(k, i)
        a = perm_mul(a, s)
        b = perm_mul(s, b)
        changed = True


def normal_form(strands, letters):
    """Left-greedy Garside normal form of a braid word.

    ``letters`` is a sequence of (generator index 1..strands-1, sign).
    """
    k = strands
    if k < 1:
        raise BraidError("strands must be >= 1")
    ident = perm_id(k)
    w0 = half_twist(k)
    power = 0
    simples = []
    for idx, sign in letters:
        if not 1 <= idx <= k - 1:
            raise BraidError(f"letter index {idx} out of range for {k} strands")
        if sign == 1:
            simples.append(transposition(k, idx))
        elif sign == -1:
            # sigma_i^-1 = Delta^-1 * lift(w0 * s_i); push Delta^-1 left
            power -= 1
            simples = [_tau(a) for a in simples]
            simples.append(perm_mul(w0, transposition(k, idx)))
        else:
            raise BraidError("letter sign must be +1 or -1")

    simples = [a for a in simples if a != ident]
    # local normalization passes until globally left-weighted
    changed = True
    while changed:
        changed = False
        out = []
        for b in simples:
            if b == ident:
                continue
            if out:
                a, b, moved = _normalize_pair(out[-1], b)
                if moved:
                    changed = True
                if a == ident:
                    out.pop()
                else:
                    out[-1] = a
            if b != ident:
                out.append(b)
        simples = out
    while simples and simples[0] == w0:
        simples.pop(0)
        power += 1
    return GarsideForm(k, power, tuple(simples))


# ---------------------------------------------------------------------------
# the group ring


class GroupRingElement:
    """Element of the integral group ring of B_k, keyed by normal forms."""

    __slots__ = ("strands", "terms")

    def __init__(self, strands, terms=None):
        self.strands = strands
        self.terms = {}
        if terms:
            for form, coeff in terms.items():
                if coeff:
                    self.terms[form] = coeff

    @staticmethod
    def zero(strands):
        return GroupRingElement(strands)

    @staticmethod
    def one(strands):
        return GroupRingElement(strands, {normal_form(strands, []): 1})

    @staticmethod
    def from_word(strands, letters, coeff=1):
        return GroupRingElement(strands, {normal_form(strands, letters): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for form, c in other.terms.items():
            v = out.get(form, 0) + c
            if v:
                out[form] = v
            else:
                del out[form]
        return GroupRingElement(self.strands, out)

    def __neg__(self):
        return GroupRingElement(self.strands, {f: -c for f, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for fa, ca in self.terms.items():
            wa = fa.to_word_letters()
            for fb, cb in other.terms.items():
                prod = normal_form(self.strands, wa + fb.to_word_letters())
                v = out.get(prod, 0) + ca * cb
                if v:
                    out[prod] = v
                else:
                    del out[prod]
        return GroupRingElement(self.strands, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.strands == other.strands
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.strands, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def augmentation(self):
        """Image under the trivial character (all generators -> 1)."""
        return sum(self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{f!r}" for f, c in self.terms.items())


def boundary_entry(complex_, j, row, col):
    """The (row, col) entry of a free complex's degree-j boundary, as a
    group-ring element."""
    return GroupRingElement(complex_.strands, complex_.boundaries[j].get((row, col)))


def ring_square_is_zero(complex_):
    """Whether d_j o d_{j+1} = 0 holds already over the group ring."""
    k = complex_.strands
    for j in range(1, complex_.d_max):
        upper = complex_.boundaries[j + 1]
        lower = complex_.boundaries[j]
        acc = {}
        for (r, m), elt in upper.items():
            for (m2, c), elt2 in lower.items():
                if m2 != m:
                    continue
                key = (r, c)
                prod = GroupRingElement(k, elt) * GroupRingElement(k, elt2)
                acc[key] = acc.get(key, GroupRingElement.zero(k)) + prod
        if any(not v.is_zero() for v in acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# the Fox presentation complex


def _fox_derivatives(strands, letters, gen_count):
    """Fox derivatives of a signed word, evaluated in the group ring.

    d(uv) = du + u dv; d(x_i)/d(x_j) = delta_ij; d(x^-1) = -x^-1 per
    generator.  Returns one GroupRingElement per generator.
    """
    derivs = [GroupRingElement.zero(strands) for _ in range(gen_count)]
    prefix = []
    for idx, sign in letters:
        if sign == 1:
            derivs[idx - 1] = derivs[idx - 1] + GroupRingElement.from_word(
                strands, prefix
            )
            prefix = prefix + [(idx, 1)]
        else:
            prefix = prefix + [(idx, -1)]
            derivs[idx - 1] = derivs[idx - 1] - GroupRingElement.from_word(
                strands, prefix
            )
    return derivs


def braid_relators(k):
    """Defining relators of B_k, labelled by the 2-subsets {i, j}."""
    rels = []
    for i, j in itertools.combinations(range(1, k), 2):
        if j == i + 1:
            word = [(i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1)]
        else:
            word = [(i, 1), (j, 1), (i, -1), (j, -1)]
        rels.append(((i, j), word))
    return rels


def fox_complex(k):
    """Presentation complex of B_k with Fox-derivative second boundary.

    Computes H_0 and H_1 exactly for any coefficients; the independent
    oracle against the Salvetti model.  Each entry is stored as its
    ``terms`` dict, as the Salvetti complex stores its entries.
    """
    if k < 2:
        raise ResolutionError("fox complex needs k >= 2")
    gens = list(range(1, k))
    rels = braid_relators(k)
    basis_labels = [[()], [(i,) for i in gens], [lab for lab, _ in rels]]
    ranks = [1, len(gens), len(rels)]
    boundaries = {1: {}, 2: {}}
    for row, i in enumerate(gens):
        boundaries[1][(row, 0)] = (GroupRingElement.from_word(
            k, [(i, 1)]
        ) - GroupRingElement.one(k)).terms
    for row, (_, word) in enumerate(rels):
        for col, d in enumerate(_fox_derivatives(k, word, len(gens))):
            if not d.is_zero():
                boundaries[2][(row, col)] = d.terms
    return FreeComplex(
        strands=k,
        d_max=2,
        ranks=ranks,
        boundaries=boundaries,
        basis_labels=basis_labels,
        complete=False,
    )
