"""Left-greedy Garside normal forms for braid words.

Words are equal in the braid group iff their normal forms are
identical, which is the equality oracle behind group-ring arithmetic.

Simple elements are permutations of {0..k-1} in one-line notation.
Permutations multiply left-to-right: (p * q)(x) = q(p(x)), so a braid
word maps to its permutation by multiplying letter images in word
order.  A normal form is Delta^inf followed by left-weighted simple
factors, none trivial and none equal to Delta.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


def perm_id(k):
    return tuple(range(k))


def perm_mul(p, q):
    """(p * q)(x) = q(p(x)): p applied first."""
    return tuple(q[x] for x in p)


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def transposition(k, i):
    """Adjacent transposition s_i swapping i-1, i (1-based generator index)."""
    p = list(range(k))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def half_twist(k):
    """w0, the longest element: x -> k-1-x."""
    return tuple(range(k - 1, -1, -1))


def left_descents(p):
    """{i : l(s_i * p) < l(p)}, 1-based: positions with p(i-1) > p(i)."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def right_descents(p):
    """{i : l(p * s_i) < l(p)}: value i appears before value i-1 (0-based)."""
    q = perm_inv(p)
    return {i for i in range(1, len(p)) if q[i - 1] > q[i]}


def reduced_word(p):
    """A reduced word (list of 1-based generator indices) for p.

    Peels the least left descent; p = s_{w[0]} * s_{w[1]} * ... in the
    left-to-right product convention.
    """
    k = len(p)
    word = []
    cur = p
    while True:
        ds = left_descents(cur)
        if not ds:
            break
        i = min(ds)
        word.append(i)
        cur = perm_mul(transposition(k, i), cur)
    return word


@lru_cache(maxsize=None)
def _delta_word(k):
    return tuple(reduced_word(half_twist(k)))


class BraidError(ValueError):
    pass


class GarsideForm(namedtuple("GarsideForm", "strands infimum factors")):
    """Normal form Delta^infimum * factors, hashable and comparable as
    the tuple (strands, infimum, factors); ``factors`` is a tuple of
    simple factors, each a permutation tuple."""

    __slots__ = ()

    def is_identity(self):
        return self.infimum == 0 and not self.factors

    def underlying_permutation(self):
        k = self.strands
        p = half_twist(k) if self.infimum % 2 else perm_id(k)
        for f in self.factors:
            p = perm_mul(p, f)
        return p

    def to_word_letters(self):
        """Signed letters multiplying out to this element (word order)."""
        k = self.strands
        letters = []
        dw = _delta_word(k)
        if self.infimum >= 0:
            for _ in range(self.infimum):
                letters.extend((i, 1) for i in dw)
        else:
            for _ in range(-self.infimum):
                letters.extend((i, -1) for i in reversed(dw))
        for f in self.factors:
            letters.extend((i, 1) for i in reduced_word(f))
        return letters


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


def form_from_positive_permutation(k, p):
    """The simple braid lifting permutation p, as a normal form: a
    simple braid is its own left-greedy normal form (Elrifai-Morton)."""
    if p == perm_id(k):
        return GarsideForm(k, 0, ())
    if p == half_twist(k):
        return GarsideForm(k, 1, ())
    return GarsideForm(k, 0, (p,))
