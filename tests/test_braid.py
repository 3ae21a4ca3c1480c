from array import array
import itertools
import json
import random

import pytest
from hypothesis import given, seed, settings, strategies as st
from system_oracle import sigma_k, v_k_l

from hurstab import braid, cost
from hurstab import experiments as xp
from hurstab.braid import (
    BraidError,
    BraidWord,
    HurwitzTuple,
    hurwitz_act,
    orbits,
    stabilize_tuple,
    total_product,
)
from hurstab.groups import FiniteGroup, conjugacy_closure

S3 = FiniteGroup.symmetric(3)
NAMES = S3.element_names
T12, T13, T23 = (NAMES.index(x) for x in ("(1 2)", "(1 3)", "(2 3)"))
TRANSPOSITIONS = conjugacy_closure({T12}, S3)


def word(strands, *signed):
    return BraidWord.from_signed(strands, list(signed))


def test_generator_rule():
    t = HurwitzTuple(TRANSPOSITIONS, (T12, T13))
    assert hurwitz_act(word(2, 1), t).entries == (T23, T12)
    assert hurwitz_act(word(2, -1), HurwitzTuple(TRANSPOSITIONS, (T23, T12))
                       ).entries == (T12, T13)
    assert hurwitz_act(BraidWord(2, ()), t).entries == t.entries


def test_left_action_composition_order():
    # leftmost letter acts last: w = [1, 2] on 3 strands means sigma_2 first
    t = HurwitzTuple(TRANSPOSITIONS, (T12, T13, T23))
    w = word(3, 1, 2)
    step = hurwitz_act(word(3, 2), t)
    expect = hurwitz_act(word(3, 1), step)
    assert hurwitz_act(w, t).entries == expect.entries


def test_strand_mismatch_rejected():
    t = HurwitzTuple(TRANSPOSITIONS, (T12, T13))
    with pytest.raises(BraidError):
        hurwitz_act(word(3, 1), t)


def test_braid_relations_exhaustive_small():
    for classes in (TRANSPOSITIONS,
                    conjugacy_closure({NAMES.index("(1 2 3)")}, S3)):
        for k in (3, 4):
            group = classes.group
            for entries in itertools.product(classes.elements, repeat=k):
                for i in range(1, k - 1):
                    lhs = braid.act_on_entries(
                        [(i, 1), (i + 1, 1), (i, 1)], entries, group)
                    rhs = braid.act_on_entries(
                        [(i + 1, 1), (i, 1), (i + 1, 1)], entries, group)
                    assert lhs == rhs
                for i, j in itertools.combinations(range(1, k), 2):
                    if j - i >= 2:
                        lhs = braid.act_on_entries([(i, 1), (j, 1)], entries, group)
                        rhs = braid.act_on_entries([(j, 1), (i, 1)], entries, group)
                        assert lhs == rhs


def test_action_randomized_properties():
    rng = random.Random(11)
    d4 = FiniteGroup.dihedral(4)
    classes_pool = [
        TRANSPOSITIONS,
        conjugacy_closure({2}, d4),
        conjugacy_closure({1}, FiniteGroup.cyclic(6)),
    ]
    for _ in range(200):
        classes = rng.choice(classes_pool)
        k = rng.randint(2, 6)
        entries = tuple(rng.choice(classes.elements) for _ in range(k))
        t = HurwitzTuple(classes, entries)
        letters = [(rng.randint(1, k - 1), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 10))]
        w = BraidWord(k, tuple(letters))
        res = hurwitz_act(w, t)
        # inverse undoes
        assert hurwitz_act(w.inverse(), res).entries == entries
        # total product conserved
        assert total_product(res) == total_product(t)


def test_central_constant_tuples_fixed():
    z4 = FiniteGroup.cyclic(4)
    c = conjugacy_closure({1}, z4)
    assert c.is_central()
    t = HurwitzTuple(c, (1, 1, 1))
    for signed in ([1], [2], [1, -2, 1]):
        assert hurwitz_act(BraidWord.from_signed(3, signed), t).entries == t.entries


def test_stabilize_and_intertwining():
    rng = random.Random(5)
    g_hat = TRANSPOSITIONS.elements[1]
    for _ in range(100):
        k = rng.randint(2, 5)
        entries = tuple(rng.choice(TRANSPOSITIONS.elements) for _ in range(k))
        t = HurwitzTuple(TRANSPOSITIONS, entries)
        letters = [(rng.randint(1, k - 1), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 8))]
        w = BraidWord(k, tuple(letters))
        lhs = hurwitz_act(sigma_k(w), stabilize_tuple(t, g_hat))
        rhs = stabilize_tuple(hurwitz_act(w, t), g_hat)
        assert lhs.entries == rhs.entries
    assert stabilize_tuple(HurwitzTuple(TRANSPOSITIONS, ()), g_hat).entries == (g_hat,)
    with pytest.raises(BraidError):
        stabilize_tuple(HurwitzTuple(TRANSPOSITIONS, (T12,)), 0)


def test_total_product_examples():
    t = HurwitzTuple(TRANSPOSITIONS, (T12, T13))
    assert NAMES[total_product(t)] == "(1 3 2)"
    assert total_product(HurwitzTuple(TRANSPOSITIONS, ())) == 0
    assert total_product(HurwitzTuple(TRANSPOSITIONS, (T13,))) == T13


def test_sigma_k_and_v_k_l():
    w = word(2, 1)
    assert sigma_k(w).strands == 3 and sigma_k(w).letters == w.letters
    shifted = v_k_l(w, 3)
    assert shifted.strands == 5 and shifted.to_signed() == [4]
    assert v_k_l(BraidWord(2, ()), 1).strands == 3
    assert v_k_l(word(2, 1, 1), 1).to_signed() == [2, 2]


def test_word_serialization_round_trip():
    w = BraidWord.from_signed(3, [1, -2, 1])
    assert w.to_signed() == [1, -2, 1]
    assert json.loads(json.dumps(w.to_signed())) == [1, -2, 1]
    with pytest.raises(BraidError):
        BraidWord.from_signed(2, [0])
    with pytest.raises(BraidError):
        BraidWord.from_signed(2, [2])


def test_orbit_counts_match_bruteforce_fixture():
    import os

    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "orbit_counts_s3_transpositions.json")
    with open(path) as fh:
        fixture = json.load(fh)
    for k_str, count in fixture.items():
        assert len(orbits(TRANSPOSITIONS, int(k_str))) == count


def test_orbit_partition_details():
    part = orbits(TRANSPOSITIONS, 2)
    assert len(part) == 5
    assert sorted(part.sizes) == [1, 1, 1, 3, 3]
    # representatives are lexicographically least; diagonal tuples are singletons
    reps = part.representative_tuples()
    for g in TRANSPOSITIONS.elements:
        assert (g, g) in reps
    # orbit invariance of total product
    for rep_code, size in zip(part.reps, part.sizes):
        entries = part.decode(rep_code)
        prod = S3.product(entries)
        # every tuple in the orbit has the same total product
        for code in range(9):
            if part.root[code] == rep_code:
                assert S3.product(part.decode(code)) == prod


def test_orbits_trivial_cases():
    singleton = conjugacy_closure({1}, FiniteGroup.cyclic(2))
    assert len(orbits(singleton, 5)) == 1
    assert len(orbits(TRANSPOSITIONS, 1)) == 3


def test_orbit_size_bound(monkeypatch):
    # the orbit work of k = 4 counts k |c|^k = 4 * 81
    monkeypatch.setattr(cost, "BOUND", 324)
    assert sum(orbits(TRANSPOSITIONS, 4).sizes) == 81
    monkeypatch.setattr(cost, "BOUND", 323)
    with pytest.raises(cost.ResourceRefusal, match="over k=4 exceeds the bound 323"):
        orbits(TRANSPOSITIONS, 4)


def _union_find_roots(classes, k):
    """A union-find over every code of c^k, one pass per generator, with
    the least code as each root: the array of every code's root."""
    base = len(classes.elements)
    total = base**k
    group, elems = classes.group, classes.elements
    digit_conj = [[elems.index(group.conj(a, b)) for b in elems] for a in elems]
    parent = array("q", range(total))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    # sigma_i rewrites the digit pair at positions (i-1, i)
    for i in range(k - 1):
        right_width = base ** (k - 2 - i)
        pair_width = right_width * base * base
        for code in range(total):
            rest, low = divmod(code, pair_width)
            pair, tail = divmod(low, right_width)
            da, db = divmod(pair, base)
            image = (rest * pair_width + (digit_conj[da][db] * base + da)
                     * right_width + tail)
            rx, ry = sorted((find(code), find(image)))
            parent[ry] = rx
    for code in range(total):
        parent[code] = find(code)
    return parent


def _union_find_orbits(classes, k):
    """Slow reference for ``orbits``: the union-find of every level
    m <= k.  Level m's maps are read off its roots at every code of
    c^(m-1), not only at representatives, and ``root`` is the
    union-find's own array, not one built from the maps."""
    base = len(classes.elements)
    levels, parent = [], array("q", [0])
    for m in range(1, k + 1):
        parent = _union_find_roots(classes, m)
        levels.append([{x: parent[x * base + l] for x in range(base ** (m - 1))}
                       for l in range(base)])
    roots = {}
    for r in parent:
        roots[r] = roots.get(r, 0) + 1
    reps = sorted(roots)
    part = braid.OrbitPartition(classes, k, reps, [roots[r] for r in reps], levels)
    part._root = parent
    return part


def assert_same_partition(part, ref):
    assert part.k == ref.k
    assert part.reps == ref.reps
    assert part.sizes == ref.sizes
    assert list(part.root) == list(ref.root)
    # the maps agree at every representative the build keys them by
    assert len(part.levels) == part.k
    for level, ref_level in zip(part.levels, ref.levels):
        for ext, ref_ext in zip(level, ref_level):
            assert all(ref_ext[r] == c for r, c in ext.items())


BUILTIN_GROUPS = ([FiniteGroup.cyclic(n) for n in range(1, 9)]
                  + [FiniteGroup.dihedral(n) for n in range(1, 7)]
                  + [S3, FiniteGroup.symmetric(4)])


@st.composite
def classes_and_k(draw):
    group = draw(st.sampled_from(BUILTIN_GROUPS))
    picks = draw(st.sets(st.integers(0, group.order - 1), min_size=1, max_size=3))
    classes = conjugacy_closure(picks, group)
    k_max = 10
    while len(classes) ** k_max > 5000:
        k_max -= 1
    return classes, draw(st.integers(0, k_max))


@seed(20200)
@settings(max_examples=120, deadline=None)
@given(classes_and_k())
def test_level_build_matches_union_find(case):
    classes, k = case
    assert_same_partition(orbits(classes, k), _union_find_orbits(classes, k))


def test_level_build_matches_union_find_on_sym4():
    classes = conjugacy_closure({1}, FiniteGroup.symmetric(4))
    for k in range(1, 7):
        assert_same_partition(orbits(classes, k), _union_find_orbits(classes, k))
    assert orbits(classes, 0).reps == [0] and orbits(classes, 0).sizes == [1]


def test_orbit_representatives_up_to_k12():
    # the CI level of sym:3 transpositions, past what the union-find
    # reaches in a test: the sizes cover c^k, and each representative
    # is its own root
    for k in range(1, 13):
        part = orbits(TRANSPOSITIONS, k)
        assert sum(part.sizes) == 3**k
        root = part.root
        assert len(root) == 3**k
        assert all(root[r] == r for r in part.reps)


def test_h0_table_matches_union_find(monkeypatch):
    sym4 = FiniteGroup.symmetric(4)
    classes = conjugacy_closure({1}, sym4)
    fast = xp.h0_table(sym4, classes, classes.elements[0], 5).to_json()
    monkeypatch.setattr(xp, "orbits", _union_find_orbits)
    assert xp.h0_table(sym4, classes, classes.elements[0], 5).to_json() == fast


def test_entries_validated():
    with pytest.raises(BraidError):
        HurwitzTuple(TRANSPOSITIONS, (0,))
