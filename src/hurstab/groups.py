"""Finite groups as explicit Cayley tables, and conjugation-closed class sets.

Elements are indices 0..order-1 with 0 always the identity.  Tables
loaded from JSON are re-indexed if their identity is elsewhere.
All values are immutable after construction.
"""

from __future__ import annotations

import itertools
import json

from . import cost
from .intmat import is_int

SUBGROUP_ORDER_BOUND = 48


class GroupError(ValueError):
    pass


def _refuse_table(rows, name):
    """ResourceRefusal before a table of rows^2 entries, each weighing
    ENTRY_WEIGHT, is built or checked past ``cost.BOUND``."""
    cost.refuse(cost.ENTRY_WEIGHT * rows * rows, (
        f"{name} table of {rows * rows} entries, weighing {cost.ENTRY_WEIGHT} "
        "each, exceeds"))


class FiniteGroup:
    """A finite group as its Cayley table, checked on construction: rows
    are permutations of 0..n-1, 0 is the identity, and the table is
    associative at every order, so ``inverse`` is read off the rows.
    Associativity is Light's test (Clifford-Preston, The Algebraic
    Theory of Semigroups I, 1961, section 1.2): the elements s with
    (x s) y = x (s y) for all x and y are closed under products, so it
    suffices to check them on a generating set S, chosen greedily from
    :meth:`closure` and kept as ``generators``.  That is n^2 |S|
    lookups, with |S| <= log2(n) for a group.  The columns need no
    check: a finite monoid in which every element has a right inverse
    (row x holds 0) is a group, whose columns are permutations.  The
    builtins close the rows of their generators into the table with
    :func:`_table_from_generators` (Cayley's theorem)."""

    def __init__(self, table, name="group", element_names=()):
        self.table = t = table
        self.name = name
        self.element_names = element_names
        self.order = n = len(t)
        if n < 1:
            raise GroupError("table may not be empty")
        rng = set(range(n))
        for row in t:
            if len(row) != n or set(row) != rng:
                raise GroupError("table rows must be permutations of 0..order-1")
        for x in range(n):
            if t[0][x] != x or t[x][0] != x:
                raise GroupError("element 0 must be the identity")
        # Light's test: (x s) y == x (s y) for every x and y, with s
        # running over a generating set, proves the table associative
        gens = []
        reached = {0}
        for g in range(n):
            if g not in reached:
                gens.append(g)
                reached = self.closure(gens)
        for s in gens:
            row_s = t[s]
            for row_x in t:
                if t[row_x[s]] != tuple(map(row_x.__getitem__, row_s)):
                    raise GroupError("multiplication is not associative")
        self.generators = tuple(gens)
        self.inverse = tuple(row.index(0) for row in t)

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.inverse[g]

    def conj(self, a, b):
        """a * b * a^-1."""
        return self.table[self.table[a][b]][self.inverse[a]]

    def elements(self):
        return range(self.order)

    def product(self, elems):
        acc = 0
        for g in elems:
            acc = self.table[acc][g]
        return acc

    def is_abelian(self):
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order)
        )

    def closure(self, gens):
        """Subgroup generated by gens, as a frozenset of elements."""
        seen = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def conjugacy_class(self, g):
        return frozenset(self.conj(a, g) for a in self.elements())

    def conjugacy_classes(self):
        seen = set()
        classes = []
        for g in self.elements():
            if g not in seen:
                cl = self.conjugacy_class(g)
                seen |= cl
                classes.append(tuple(sorted(cl)))
        return classes

    def to_json(self):
        return {"table": [list(row) for row in self.table], "name": self.name}

    # ------------------------------------------------------------------
    # builtin families, each given by the rows of its generators

    @staticmethod
    def cyclic(n):
        """Cyclic group of order n, generated by r = 1."""
        if n < 1:
            raise GroupError("cyclic order must be >= 1")
        _refuse_table(n, f"cyclic:{n}")
        r = tuple(range(1, n)) + (0,)
        names = tuple("e" if i == 0 else f"r^{i}" if i > 1 else "r" for i in range(n))
        return FiniteGroup(_table_from_generators(n, [r]), f"cyclic:{n}", names)

    @staticmethod
    def dihedral(n):
        """Dihedral group of order 2n: rotations r^i = i and reflections
        r^i s = n + i, generated by r and s, where s r^i = r^-i s."""
        if n < 1:
            raise GroupError("dihedral parameter must be >= 1")
        _refuse_table(2 * n, f"dihedral:{n}")
        rot, ref = tuple(range(n)), tuple(range(n, 2 * n))
        r = rot[1:] + rot[:1] + ref[1:] + ref[:1]
        s = ref[:1] + ref[:0:-1] + rot[:1] + rot[:0:-1]
        names = tuple(
            ("e" if i == 0 else f"r^{i}" if i > 1 else "r") if i < n
            else ("s" if i == n else f"r^{i - n}s" if i - n > 1 else "rs")
            for i in range(2 * n)
        )
        return FiniteGroup(_table_from_generators(2 * n, [r, s]),
                           f"dihedral:{n}", names)

    @staticmethod
    def symmetric(n):
        """Symmetric group on {0..n-1}, its permutations in sorted order,
        generated by the adjacent transpositions; composition applies
        the right factor first: (p*q)(x) = p(q(x))."""
        if not 1 <= n <= 6:
            raise GroupError("symmetric builtin supports 1 <= n <= 6")
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
                 for i in range(n - 1)]
        gens = [tuple(index[tuple(map(t.__getitem__, q))] for q in perms)
                for t in swaps]
        names = tuple(_cycle_name(p) for p in perms)
        return FiniteGroup(_table_from_generators(len(perms), gens),
                           f"sym:{n}", names)

    @staticmethod
    def quaternion():
        """Quaternion group {1, -1, i, -i, j, -j, k, -k}, generated by i
        and j, where i j = k, j k = i, k i = j and i^2 = j^2 = k^2 = -1."""
        names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
        i = (2, 3, 1, 0, 6, 7, 5, 4)
        j = (4, 5, 7, 6, 1, 0, 2, 3)
        return FiniteGroup(_table_from_generators(8, [i, j]), "quaternion", names)

    @staticmethod
    def from_table(rows, name="group"):
        """Build from a raw Cayley table, re-indexing so identity = 0."""
        n = len(rows)
        _refuse_table(n, name)
        rows = [list(r) for r in rows]
        # before the search and the re-indexing, which read n columns
        if any(len(r) != n for r in rows):
            raise GroupError("table rows must be permutations of 0..order-1")
        ident = None
        for e in range(n):
            if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("table has no identity element")
        if ident != 0:
            perm = [ident] + [x for x in range(n) if x != ident]
            pos = {x: i for i, x in enumerate(perm)}
            rows = [[pos[rows[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
        return FiniteGroup(tuple(map(tuple, rows)), name)

    @staticmethod
    def from_json(spec):
        """JSON spec: {"builtin": {"family": ..., "n": ...}} or {"table": [[...]]}.

        Content of the wrong shape raises GroupError."""
        try:
            if isinstance(spec, str):
                spec = json.loads(spec)
            if "builtin" in spec:
                b = spec["builtin"]
                family = b["family"]
                if family == "quaternion":
                    return FiniteGroup.quaternion()
                if family not in FAMILIES:
                    raise GroupError(f"unknown builtin family {family!r}")
                if not is_int(b["n"]):
                    raise GroupError(f"builtin n must be an integer, got {b['n']!r}")
                return FAMILIES[family](b["n"])
            if "table" in spec:
                rows = spec["table"]
                if not all(isinstance(r, list) and all(map(is_int, r))
                           for r in rows):
                    raise GroupError("table entries must be integers")
                return FiniteGroup.from_table(rows, spec.get("name", "group"))
        except GroupError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise GroupError(f"malformed group spec: {e!r}") from None
        raise GroupError("group spec needs 'builtin' or 'table'")


# the builtin families that take a parameter n, by their JSON names
FAMILIES = {"cyclic": FiniteGroup.cyclic,
            "dihedral": FiniteGroup.dihedral,
            "symmetric": FiniteGroup.symmetric}


def _table_from_generators(order, gen_rows):
    """The Cayley table of the group of the given order generated by
    gen_rows, each the row of left multiplication by a generator g, so
    row[0] = g.  Row g a is row g composed with row a, one map each."""
    rows = [None] * order
    rows[0] = tuple(range(order))
    todo = [0]
    while todo:
        a = todo.pop()
        for row_g in gen_rows:
            ga = row_g[a]
            if rows[ga] is None:
                rows[ga] = tuple(map(row_g.__getitem__, rows[a]))
                todo.append(ga)
    return tuple(rows)


def _cycle_name(p):
    n = len(p)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def conjugacy_closure(elements, group):
    """Smallest conjugation-closed superset of a non-empty element set."""
    elements = set(elements)
    if not elements:
        raise GroupError("class set may not be empty")
    for x in sorted(elements):
        if not 0 <= x < group.order:
            raise GroupError(f"class element {x} out of range for a group "
                             f"of order {group.order}")
    # the union of the elements' conjugacy classes
    closed = {group.conj(a, x) for x in elements for a in group.elements()}
    return ClassSet(group, tuple(sorted(closed)))


class ClassSet:
    """A non-empty, conjugation-closed set of group elements.  Closure is
    checked under conjugation by the group's generators: every element
    is a product of them, and conjugation by a product is conjugation by
    each factor in turn."""

    def __init__(self, group, elements):
        self.group = group
        self.elements = elements
        # the elements as a set, for membership tests
        self._members = frozenset(elements)
        if not self.elements:
            raise GroupError("class set may not be empty")
        if tuple(sorted(self._members)) != self.elements:
            raise GroupError("class elements must be sorted and distinct")
        for x in self.elements:
            if not 0 <= x < self.group.order:
                raise GroupError("class element out of range")
            for s in self.group.generators:
                if self.group.conj(s, x) not in self._members:
                    raise GroupError("class set is not closed under conjugation")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self._members

    def is_central(self):
        g = self.group
        return all(
            g.mul(x, a) == g.mul(a, x) for x in self.elements for a in g.elements()
        )

    def is_inversion_closed(self):
        return all(self.group.inv(x) in self._members for x in self._members)

    def generates(self):
        return len(self.group.closure(self.elements)) == self.group.order

    def is_non_splitting(self):
        """Whether every subgroup meets this set in at most one of its
        own conjugacy classes (empty intersections allowed).

        Decided on pairs: x, y in the set that are not conjugate in a
        subgroup H are not conjugate in <x, y> <= H either, so the set
        is non-splitting exactly when each y is a <x, y>-conjugate of x.
        Refused above order ``SUBGROUP_ORDER_BOUND``."""
        g = self.group
        if g.order > SUBGROUP_ORDER_BOUND:
            raise GroupError(
                f"non-splitting check refused for order {g.order} > "
                f"{SUBGROUP_ORDER_BOUND}"
            )
        return all(
            y in {g.conj(a, x) for a in g.closure((x, y))}
            for x, y in itertools.combinations(self.elements, 2)
        )

    @staticmethod
    def from_json(spec, group):
        """JSON spec: {"representative": i} or {"elements": [...]}.

        Content of the wrong shape raises GroupError."""
        try:
            if isinstance(spec, str):
                spec = json.loads(spec)
            if "representative" in spec:
                rep = spec["representative"]
                if not is_int(rep):
                    raise GroupError(f"representative must be an integer, got {rep!r}")
                return conjugacy_closure({rep}, group)
            if "elements" in spec:
                elems = spec["elements"]
                if not isinstance(elems, list) or not all(map(is_int, elems)):
                    raise GroupError(
                        f"elements must be a list of integers, got {elems!r}")
                return ClassSet(group, tuple(sorted(set(elems))))
        except GroupError:
            raise
        except (TypeError, ValueError) as e:
            raise GroupError(f"malformed class spec: {e!r}") from None
        raise GroupError("class spec needs 'representative' or 'elements'")
