"""Permutations of {0..k-1} and the simple braids lifting them.

Every term of a Salvetti boundary is the simple braid lifting a
permutation, and a simple braid is its own left-greedy Garside normal
form (Elrifai-Morton), so :func:`form_from_positive_permutation` keys
each term by its normal form without reducing a word.  The normal forms
of arbitrary words, the word-problem oracle, live with the tests.

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


class GarsideForm(namedtuple("GarsideForm", "strands infimum factors")):
    """Normal form Delta^infimum * factors, hashable and comparable as
    the tuple (strands, infimum, factors); ``factors`` is a tuple of
    simple factors, each a permutation tuple."""

    __slots__ = ()

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


def form_from_positive_permutation(k, p):
    """The simple braid lifting permutation p, as a normal form: a
    simple braid is its own left-greedy normal form (Elrifai-Morton)."""
    if p == perm_id(k):
        return GarsideForm(k, 0, ())
    if p == half_twist(k):
        return GarsideForm(k, 1, ())
    return GarsideForm(k, 0, (p,))
