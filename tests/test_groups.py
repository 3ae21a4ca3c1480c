import itertools
import json
import math
import random
import time

import pytest

from hurstab import cost, groups
from hurstab.groups import (
    ClassSet,
    FiniteGroup,
    GroupError,
    conjugacy_closure,
)


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.symmetric(3)


def elt(group, name):
    return group.element_names.index(name)


def test_builtin_orders():
    assert FiniteGroup.cyclic(6).order == 6
    assert FiniteGroup.dihedral(4).order == 8
    assert FiniteGroup.symmetric(4).order == 24
    assert FiniteGroup.quaternion().order == 8
    # every builtin passes the associativity check, also above order 64
    for n in range(1, 7):
        assert FiniteGroup.symmetric(n).order == math.factorial(n)
    for n in (1, 2, 3, 31, 32, 33, 64, 65, 100, 257):
        assert FiniteGroup.cyclic(n).order == n
        assert FiniteGroup.dihedral(n).order == 2 * n


def oracle_cyclic(n):
    return ([[(i + j) % n for j in range(n)] for i in range(n)],
            [(-i) % n for i in range(n)])


def oracle_dihedral(n):
    """r^i is i and r^i s is n + i, multiplied entry by entry."""
    def mul(a, b):
        ai, af = a % n, a // n
        bi, bf = b % n, b // n
        # (r^ai s^af)(r^bi s^bf): s r^b = r^-b s
        if af == 0:
            return (ai + bi) % n + n * bf
        return (ai - bi) % n + n * (1 - bf)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return table, [row.index(0) for row in table]


def oracle_symmetric(n):
    """Sorted permutations, composed as (p*q)(x) = p(q(x))."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms]
             for p in perms]
    inverse = [index[tuple(sorted(range(n), key=lambda x: p[x]))]
               for p in perms]
    return table, inverse


def oracle_quaternion():
    """x = 2 axis + sign, axes 1, i, j, k: i j = k, j k = i, k i = j and
    the squares of i, j and k are -1."""
    prod = {}
    for a in range(4):
        prod[0, a] = prod[a, 0] = (0, a)
    for a in range(1, 4):
        prod[a, a] = (1, 0)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        prod[a, b] = (0, c)
        prod[b, a] = (1, c)

    def mul(x, y):
        s, a = prod[x // 2, y // 2]
        return 2 * a + (x + y + s) % 2

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return table, [row.index(0) for row in table]


def test_builtins_match_entry_by_entry_products():
    # the tables closed from the generators' rows against the products
    # taken entry by entry, and the inverses read off the table against
    # the closed forms
    cases = ([(FiniteGroup.cyclic(n), oracle_cyclic(n)) for n in range(1, 41)]
             + [(FiniteGroup.dihedral(n), oracle_dihedral(n))
                for n in range(1, 41)]
             + [(FiniteGroup.symmetric(n), oracle_symmetric(n))
                for n in range(1, 7)]
             + [(FiniteGroup.quaternion(), oracle_quaternion())])
    for group, (table, inverse) in cases:
        assert group.order == len(table), group.name
        assert group.table == tuple(map(tuple, table)), group.name
        assert group.inverse == tuple(inverse), group.name


def test_table_invariants(s3):
    n = s3.order
    for row in s3.table:
        assert sorted(row) == list(range(n))
    for g in range(n):
        assert s3.mul(0, g) == g == s3.mul(g, 0)
        assert s3.mul(g, s3.inv(g)) == 0


def test_mul_example(s3):
    assert s3.element_names[s3.mul(elt(s3, "(1 2)"), elt(s3, "(1 3)"))] == "(1 3 2)"


def test_quaternion_structure():
    q = FiniteGroup.quaternion()
    i = q.element_names.index("i")
    j = q.element_names.index("j")
    k = q.element_names.index("k")
    minus_one = q.element_names.index("-1")
    assert q.mul(i, j) == k
    assert q.mul(i, i) == minus_one
    assert q.mul(j, i) == q.element_names.index("-k")
    assert not q.is_abelian()


def test_conjugacy_closure_examples(s3):
    c = conjugacy_closure({elt(s3, "(1 2)")}, s3)
    assert {s3.element_names[x] for x in c.elements} == {"(1 2)", "(1 3)", "(2 3)"}
    assert conjugacy_closure({0}, s3).elements == (0,)
    z4 = FiniteGroup.cyclic(4)
    assert conjugacy_closure({1}, z4).elements == (1,)


def test_closure_is_the_union_of_conjugacy_classes():
    rng = random.Random(5)
    for g in (FiniteGroup.symmetric(4), FiniteGroup.dihedral(6),
              FiniteGroup.quaternion(), FiniteGroup.cyclic(5),
              FiniteGroup.symmetric(5)):
        classes = g.conjugacy_classes()
        for size in (1, 2, 3, 5):
            seed = set(rng.sample(range(g.order), size))
            union = sorted(x for cl in classes if seed & set(cl) for x in cl)
            assert conjugacy_closure(seed, g).elements == tuple(union)


def test_closure_refuses_elements_out_of_range(s3):
    # -1 would otherwise index the last element's row
    for bad in (s3.order, -1, 99):
        with pytest.raises(GroupError, match="out of range"):
            conjugacy_closure({1, bad}, s3)
        with pytest.raises(GroupError, match="out of range"):
            ClassSet.from_json({"representative": bad}, s3)


def test_closure_idempotent_monotone(s3):
    for seed in itertools.combinations(range(s3.order), 2):
        c = conjugacy_closure(set(seed), s3)
        again = conjugacy_closure(set(c.elements), s3)
        assert again.elements == c.elements
        assert set(seed) <= set(c.elements)
        bigger = conjugacy_closure(set(seed) | {0}, s3)
        assert set(c.elements) <= set(bigger.elements)


def test_class_predicates(s3):
    transpositions = conjugacy_closure({elt(s3, "(1 2)")}, s3)
    assert not transpositions.is_central()
    assert transpositions.is_inversion_closed()
    assert transpositions.generates()
    assert transpositions.is_non_splitting()

    identity = conjugacy_closure({0}, s3)
    assert identity.is_central()
    assert not identity.generates()
    assert identity.is_non_splitting()

    z4 = FiniteGroup.cyclic(4)
    r = conjugacy_closure({1}, z4)
    assert r.is_central() and r.generates()
    z3 = FiniteGroup.cyclic(3)
    assert not conjugacy_closure({1}, z3).is_inversion_closed()
    # {r, r^3} in Z/4 is a union of two classes of the abelian group
    union = ClassSet(z4, (1, 3))
    assert not union.is_non_splitting()


def test_abelian_singletons_always_central():
    z6 = FiniteGroup.cyclic(6)
    for g in z6.elements():
        c = conjugacy_closure({g}, z6)
        assert len(c) == 1 and c.is_central()


def test_threecycles_not_generating(s3):
    threecycles = conjugacy_closure({elt(s3, "(1 2 3)")}, s3)
    assert not threecycles.generates()  # closure is A3


def subgroups(group):
    """All subgroups of ``group``, by closing every set of at most two
    elements: complete for the groups below, whose subgroups are all
    2-generated."""
    els = range(1, group.order)
    gens = itertools.chain(itertools.combinations(els, 1),
                           itertools.combinations(els, 2))
    return {frozenset({0})} | {group.closure(s) for s in gens}


def oracle_is_non_splitting(classes, subs):
    """Every subgroup meets the class set in at most one of its own
    conjugacy classes, checked subgroup by subgroup."""
    g = classes.group
    for h in subs:
        meet = set(classes.elements) & h
        if meet and meet - {g.conj(a, next(iter(meet))) for a in h}:
            return False
    return True


def test_non_splitting_matches_subgroup_enumeration(s3):
    orders = sorted(len(h) for h in subgroups(s3))
    assert orders == [1, 2, 2, 2, 3, 6]  # 1, three <transposition>, A3, S3
    groups = ([FiniteGroup.symmetric(n) for n in range(1, 5)]
              + [FiniteGroup.cyclic(n) for n in range(1, 13)]
              + [FiniteGroup.dihedral(n) for n in range(1, 25)]
              + [FiniteGroup.quaternion()])
    checked = splitting = 0
    for g in groups:
        subs = subgroups(g)
        classes = g.conjugacy_classes()
        unions = [u for r in (1, 2, 3)
                  for u in itertools.combinations(classes, r)][:60]
        for u in unions:
            c = ClassSet(g, tuple(sorted(itertools.chain(*u))))
            expected = oracle_is_non_splitting(c, subs)
            assert c.is_non_splitting() == expected, (g.name, c.elements)
            checked += 1
            splitting += not expected
    assert checked == 1642 and 0 < splitting < checked
    # refused above order 48, as the subgroup enumeration was
    with pytest.raises(GroupError):
        conjugacy_closure({1}, FiniteGroup.symmetric(5)).is_non_splitting()


def test_class_set_validation(s3):
    with pytest.raises(GroupError):
        ClassSet(s3, (elt(s3, "(1 2)"),))  # not conjugation closed
    with pytest.raises(GroupError):
        conjugacy_closure(set(), s3)


def test_json_group_round_trip(s3):
    spec = {"builtin": {"family": "symmetric", "n": 3}}
    g = FiniteGroup.from_json(spec)
    assert g.table == s3.table
    g2 = FiniteGroup.from_json(json.dumps(g.to_json()))
    assert g2.table == s3.table


def test_json_table_reindexing():
    # Z/3 with the identity listed second
    z3 = FiniteGroup.cyclic(3)
    perm = [1, 0, 2]  # old index -> position
    table = [[perm.index(z3.mul(perm[i], perm[j])) for j in range(3)]
             for i in range(3)]
    g = FiniteGroup.from_table(table)
    assert g.table == z3.table


def test_json_class_specs(s3):
    c = ClassSet.from_json({"representative": elt(s3, "(1 2)")}, s3)
    assert len(c) == 3
    c2 = ClassSet.from_json({"elements": list(c.elements)}, s3)
    assert c2.elements == c.elements
    with pytest.raises(GroupError):
        ClassSet.from_json({"elements": [elt(s3, "(1 2)")]}, s3)


def test_bad_tables_rejected():
    with pytest.raises(GroupError):
        FiniteGroup.from_table([[0, 1], [1, 1]])
    # ragged rows whose entries are still 0..n-1
    # (the second needs re-indexing, which once dropped the extra column)
    for ragged in ([[0, 1, 0], [1, 0, 1]], [[1, 0, 1], [0, 1, 0]], [[0, 0]],
                   [[0, 1], [1, 0, 0]], [[0], [1, 0]]):
        with pytest.raises(GroupError, match="rows must be permutations"):
            FiniteGroup.from_table(ragged)
    with pytest.raises(GroupError, match="may not be empty"):
        FiniteGroup(())
    # broken associativity hidden in a Latin square with identity:
    # rows/cols are permutations but (1*1)*2 != 1*(1*2)
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError):
        FiniteGroup.from_table(bad)
    # the same loop times cyclic:13, of order 65, is refused too
    loop65 = [[bad[a][b] * 13 + (x + y) % 13 for b in range(5)
               for y in range(13)] for a in range(5) for x in range(13)]
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup.from_table(loop65)


def reduced_latin_squares(n):
    """Every n x n Latin square over 0..n-1 whose first row and column
    are 0..n-1: the Cayley tables with identity 0 of every loop."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield tuple(map(tuple, rows))
            return
        i, j = divmod(cell, n)
        if rows[i][j] is not None:
            yield from fill(cell + 1)
            return
        used = set(rows[i]) | {rows[r][j] for r in range(n)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(cell + 1)
        rows[i][j] = None

    yield from fill(0)


def test_associativity_check_matches_the_triple_loop():
    # Light's test on a generating set against every triple, on every
    # loop of order <= 6: 1, 1, 1, 4, 56 and 9408 tables
    verdicts = {}
    for n in range(1, 7):
        for table in reduced_latin_squares(n):
            t = table
            expect = all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n)
                         for b in range(n) for c in range(n))
            try:
                FiniteGroup(table)
                accepted = True
            except GroupError:
                accepted = False
            assert accepted == expect, table
            verdicts[n, accepted] = verdicts.get((n, accepted), 0) + 1
    # the groups are the labelings that fix 0: 4!/|Aut| = 6 of cyclic:5,
    # and 5!/|Aut| = 60 of cyclic:6 and 20 of sym:3
    assert verdicts == {(1, True): 1, (2, True): 1, (3, True): 1,
                        (4, True): 4, (5, True): 6, (5, False): 50,
                        (6, True): 80, (6, False): 9328}


def test_group_tables_refused_above_the_bound(monkeypatch):
    # cyclic:5 has 25 table entries, dihedral:3 has 6^2 = 36 and a raw
    # table of 2 rows has 4, each weighing ENTRY_WEIGHT (10); each passes
    # at that bound and is refused one below, before the table is built
    for build, entries, what in (
            (lambda: FiniteGroup.cyclic(5), 25, "cyclic:5"),
            (lambda: FiniteGroup.dihedral(3), 36, "dihedral:3"),
            (lambda: FiniteGroup.from_table([[0, 1], [1, 0]], "z2"), 4, "z2")):
        weight = cost.ENTRY_WEIGHT * entries
        monkeypatch.setattr(cost, "BOUND", weight)
        assert build().order ** 2 == entries
        monkeypatch.setattr(cost, "BOUND", weight - 1)
        with pytest.raises(cost.ResourceRefusal,
                           match=f"{what} table of {entries} entries, "
                                 f"weighing 10 each, exceeds the bound "
                                 f"{weight - 1}"):
            build()


def test_largest_accepted_tables():
    # at the real bound, tables of 1000 rows are accepted and built (the
    # dihedral builder is the slowest, about 1 s for dihedral:500 as a
    # whole process); one row more is refused before anything is built
    assert FiniteGroup.cyclic(1000).order == 1000
    assert FiniteGroup.dihedral(500).order == 1000
    for build, what in (
            (lambda: FiniteGroup.cyclic(1001), "cyclic:1001 table of 1002001"),
            (lambda: FiniteGroup.dihedral(501), "dihedral:501 table of 1004004"),
            (lambda: FiniteGroup.from_table([[0]] * 1001, "big"),
             "big table of 1002001")):
        start = time.perf_counter()
        with pytest.raises(cost.ResourceRefusal,
                           match=f"{what} entries, weighing 10 each, exceeds "
                                 "the bound 10000000"):
            build()
        assert time.perf_counter() - start < 0.5


def test_class_validation_is_linear_in_the_class():
    # every element of cyclic:1000: 10^6 conjugates, each looked up in
    # one member set (a set per lookup made this 10^9 inserts)
    start = time.perf_counter()
    c = ClassSet(FiniteGroup.cyclic(1000), tuple(range(1000)))
    assert 999 in c and 1000 not in c and c.is_inversion_closed()
    assert time.perf_counter() - start < 5.0


def test_closure_check_by_generators_matches_all_elements():
    # a set closed under conjugation by each generator is closed under
    # conjugation by every element, on every subset of three small
    # groups and on random subsets of sym:4
    def closed(group, subset):
        return all(group.conj(a, x) in subset
                   for x in subset for a in group.elements())

    def accepted(group, subset):
        try:
            ClassSet(group, tuple(sorted(subset)))
            return True
        except GroupError:
            return False

    rng = random.Random(30)
    s4 = FiniteGroup.symmetric(4)
    cases = [(g, set(sub)) for g in (FiniteGroup.symmetric(3),
                                     FiniteGroup.dihedral(4),
                                     FiniteGroup.quaternion())
             for r in range(1, g.order + 1)
             for sub in itertools.combinations(g.elements(), r)]
    cases += [(s4, set(rng.sample(range(24), rng.randint(1, 24))))
              for _ in range(300)]
    cases += [(s4, set(cl) | set(rng.choice(s4.conjugacy_classes())))
              for cl in s4.conjugacy_classes() for _ in range(3)]
    verdicts = set()
    for group, subset in cases:
        expect = closed(group, subset)
        assert accepted(group, subset) == expect, (group.name, subset)
        verdicts.add(expect)
    assert verdicts == {True, False}


def test_tables_without_the_column_check():
    # every table of order <= 4 with permutation rows and identity 0
    # (1, 1, 4 and 216 of them) is accepted exactly when it is
    # associative, and then its columns are permutations; the tables
    # accepted are the 1, 1, 1 and 3 + 1 labelings of the groups
    counts = {}
    for n in range(1, 5):
        rows = [itertools.permutations(range(n))]
        rows += [[p for p in itertools.permutations(range(n)) if p[0] == x]
                 for x in range(1, n)]
        for table in itertools.product(*rows):
            if table[0] != tuple(range(n)):
                continue
            t = table
            expect = all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n)
                         for b in range(n) for c in range(n))
            try:
                FiniteGroup(table)
                accepted = True
            except GroupError as e:
                assert "not associative" in str(e), table
                accepted = False
            assert accepted == expect, table
            if accepted:
                assert all(sorted(col) == list(range(n)) for col in zip(*t))
            counts[n, accepted] = counts.get((n, accepted), 0) + 1
    assert counts == {(1, True): 1, (2, True): 1, (3, True): 1, (3, False): 3,
                      (4, True): 4, (4, False): 212}
