import random

from hypothesis import given, settings, strategies as st

from braid_oracle import (
    is_identity,
    normal_form,
    right_descents,
    underlying_permutation,
)
from hurstab import garside
from hurstab.braid import BraidWord


def nf(strands, signed):
    return normal_form(strands, BraidWord.from_signed(strands, signed).letters)


def test_defining_relations():
    assert nf(3, [1, 2, 1]) == nf(3, [2, 1, 2])
    assert nf(4, [1, 3]) == nf(4, [3, 1])


def test_free_reduction_and_identity():
    assert is_identity(nf(2, [1, -1]))
    assert is_identity(nf(5, []))
    assert is_identity(nf(3, [1, 2, -2, -1]))


def test_distinct_words_distinguished():
    assert nf(3, [1, 2]) != nf(3, [2, 1])
    assert nf(2, [1]) != nf(2, [-1])
    assert nf(2, [1, 1]) != nf(2, [1])


def test_half_twist_normalization():
    form = nf(3, [1, 2, 1])
    assert form.infimum == 1 and form.factors == ()
    form2 = nf(3, [1, 2, 1, 1, 2, 1])  # Delta^2, central
    assert form2.infimum == 2 and form2.factors == ()


def test_form_left_weighted_invariant():
    rng = random.Random(3)
    for _ in range(400):
        k = rng.randint(2, 6)
        signed = [rng.choice([1, -1]) * rng.randint(1, k - 1)
                  for _ in range(rng.randint(0, 16))]
        form = nf(k, signed)
        ident = garside.perm_id(k)
        w0 = garside.half_twist(k)
        for f in form.factors:
            assert f != ident and f != w0
        for a, b in zip(form.factors, form.factors[1:]):
            assert garside.left_descents(b) <= right_descents(a)
        # round trip through letters
        assert normal_form(k, form.to_word_letters()) == form


@st.composite
def word_and_relator_insertion(draw):
    k = draw(st.integers(min_value=3, max_value=5))
    n = draw(st.integers(min_value=0, max_value=10))
    signed = [
        draw(st.sampled_from([1, -1])) * draw(st.integers(1, k - 1))
        for _ in range(n)
    ]
    pos = draw(st.integers(0, n))
    use_braid_rel = draw(st.booleans())
    if use_braid_rel:
        i = draw(st.integers(1, k - 2))
        relator = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    else:
        pairs = [(i, j) for i in range(1, k) for j in range(1, k)
                 if abs(i - j) >= 2]
        if not pairs:
            relator = []
        else:
            i, j = draw(st.sampled_from(pairs))
            relator = [i, j, -i, -j]
    invert = draw(st.booleans())
    if invert:
        relator = [-x for x in reversed(relator)]
    return k, signed, signed[:pos] + relator + signed[pos:]


@given(word_and_relator_insertion())
@settings(max_examples=300, deadline=None)
def test_normal_form_metamorphic_relators(data):
    k, plain, augmented = data
    assert nf(k, plain) == nf(k, augmented)


@given(st.integers(2, 5), st.lists(st.integers(-4, 4).filter(bool), max_size=12))
@settings(max_examples=300, deadline=None)
def test_word_times_inverse_is_identity(k, signed):
    signed = [s for s in signed if abs(s) <= k - 1]
    w = BraidWord.from_signed(k, signed)
    assert is_identity(normal_form(k, (w * w.inverse()).letters))


def test_permutation_projection_consistency():
    # the underlying permutation of the form equals the word's image
    rng = random.Random(9)
    for _ in range(200):
        k = rng.randint(2, 6)
        signed = [rng.choice([1, -1]) * rng.randint(1, k - 1)
                  for _ in range(rng.randint(0, 12))]
        form = nf(k, signed)
        p = garside.perm_id(k)
        for idx, _sign in BraidWord.from_signed(k, signed).letters:
            p = garside.perm_mul(p, garside.transposition(k, idx))
        assert underlying_permutation(form) == p


def _max_descent_word(p):
    """The reduced word of p that peels the greatest left descent, the
    other greedy choice to ``garside.reduced_word``."""
    k, word = len(p), []
    while garside.left_descents(p):
        i = max(garside.left_descents(p))
        word.append(i)
        p = garside.perm_mul(garside.transposition(k, i), p)
    return word


def test_positive_lift_matsumoto():
    # the direct simple-braid lift equals the normal form of the
    # positive word of either greedy reduced word (Matsumoto)
    import itertools

    rng = random.Random(21)
    perms = [p for k in range(1, 7) for p in itertools.permutations(range(k))]
    for k in range(7, 11):
        for _ in range(60):
            p = list(range(k))
            rng.shuffle(p)
            perms.append(tuple(p))
    for p in perms:
        k = len(p)
        lift = garside.form_from_positive_permutation(k, p)
        for word in (garside.reduced_word(p), _max_descent_word(p)):
            assert lift == normal_form(k, [(i, 1) for i in word]), p
