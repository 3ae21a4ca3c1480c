"""Braid words, the Hurwitz action on tuples, and orbit enumeration.

Conventions (fixed here and documented in the CLI manual):

* Words act on the LEFT and letters compose as left actions, so for
  w = l1 l2 ... ln the rightmost letter acts first:
  act(w) = act(l1) o act(l2) o ... o act(ln).
* The generator rule is (..., a, b, ...) -> (..., a b a^-1, a, ...) at
  positions (i, i+1); the inverse generator applies (a, b) -> (b, b^-1 a b).
* Tuple products read left to right; the total product is conserved by
  the action in this convention.
* Serialized words are signed integer lists, e.g. [1, -2, 1] is
  sigma_1 sigma_2^-1 sigma_1 with the leftmost letter acting last.
"""

from __future__ import annotations

import itertools
import operator
from array import array

from . import cost


class BraidError(ValueError):
    pass


class BraidWord:
    def __init__(self, strands, letters):
        if strands < 1:
            raise BraidError("strands must be >= 1")
        for idx, sign in letters:
            if not 1 <= idx <= strands - 1:
                raise BraidError(
                    f"letter index {idx} invalid with {strands} strands"
                )
            if sign not in (-1, 1):
                raise BraidError("letter sign must be +1 or -1")
        self.strands = strands
        self.letters = letters

    @staticmethod
    def from_signed(strands, signed):
        """[1, -2] -> sigma_1 sigma_2^-1."""
        letters = []
        for s in signed:
            if s == 0:
                raise BraidError("0 is not a valid signed letter")
            letters.append((abs(s), 1 if s > 0 else -1))
        return BraidWord(strands, tuple(letters))

    def to_signed(self):
        return [idx * sign for idx, sign in self.letters]

    def __mul__(self, other):
        if self.strands != other.strands:
            raise BraidError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self):
        return BraidWord(
            self.strands, tuple((i, -s) for i, s in reversed(self.letters))
        )


class HurwitzTuple:
    def __init__(self, classes, entries):
        for g in entries:
            if g not in classes:
                raise BraidError(f"tuple entry {g} is not in the class set")
        self.classes = classes
        self.entries = entries

    @property
    def length(self):
        return len(self.entries)


def _act_letter(entries, idx, sign, group):
    """Apply one generator in place on a list of element indices."""
    i = idx - 1
    a, b = entries[i], entries[i + 1]
    if sign == 1:
        entries[i] = group.conj(a, b)
        entries[i + 1] = a
    else:
        entries[i] = b
        entries[i + 1] = group.conj(group.inv(b), a)


def act_on_entries(letters, entries, group):
    """Raw Hurwitz action on a tuple of element indices (new tuple).

    Letters are applied rightmost first, making this a left action.
    """
    out = list(entries)
    for idx, sign in reversed(letters):
        _act_letter(out, idx, sign, group)
    return tuple(out)


def hurwitz_act(w, t):
    """The braid action on tuples over a conjugation-closed class set."""
    if w.strands != t.length:
        raise BraidError(
            f"word on {w.strands} strands cannot act on a length-{t.length} tuple"
        )
    group = t.classes.group
    out = act_on_entries(w.letters, t.entries, group)
    members = set(t.classes.elements)
    assert all(g in members for g in out), "action left the class set"
    return HurwitzTuple(t.classes, out)


def total_product(t):
    """Left-to-right product of the tuple entries; an orbit invariant."""
    return t.classes.group.product(t.entries)


def stabilize_tuple(t, g_hat):
    """Append the stabiliser element, modelling one added branch point."""
    if g_hat not in t.classes:
        raise BraidError("stabiliser element must lie in the class set")
    return HurwitzTuple(t.classes, t.entries + (g_hat,))


class OrbitPartition:
    """Partition of c^k under the Hurwitz action of B_k.

    Tuples are encoded as base-|c| integers, most significant digit
    first, so lexicographic order on tuples is numeric order on codes.
    Orbit representatives are the least codes.  ``orbits`` builds the
    partition level by level from representatives only, and keeps the
    maps it glues with: ``levels[m - 1][l]`` sends each representative r
    of c^(m-1) to the representative of r |c| + l in c^m, for m = 1..k.
    ``root``, which maps every code of c^k to the least code of its
    orbit, is built from these maps on its first read.
    """

    __slots__ = ("classes", "k", "reps", "sizes", "levels", "_root")

    def __init__(self, classes, k, reps, sizes, levels):
        self.classes = classes
        self.k = k
        self.reps = reps
        self.sizes = sizes
        self.levels = levels
        self._root = None

    def __len__(self):
        return len(self.reps)

    @property
    def root(self):
        """The least code of each code's orbit, an array of |c|^k."""
        if self._root is None:
            base = len(self.classes.elements)
            root = array("q", [0])  # the one empty tuple
            for level in self.levels:
                new = array("q", [0]) * (len(root) * base)
                for l, ext in enumerate(level):
                    new[l::base] = array("q", map(ext.__getitem__, root))
                root = new
            self._root = root
        return self._root

    def decode(self, code):
        base = len(self.classes.elements)
        digits = []
        for _ in range(self.k):
            digits.append(code % base)
            code //= base
        return tuple(self.classes.elements[d] for d in reversed(digits))

    def representative_tuples(self):
        return [self.decode(r) for r in self.reps]


def refuse_orbit_range(classes, ks):
    """Refuse the k range ``ks`` when the work of ``orbits``, counted as
    k |c|^k per k, sums past the bound.  The count is an upper bound: the
    level-by-level build glues |c|^2 digit pairs per orbit of each
    level, far fewer than the |c|^k tuples.  The sum stops at the bound,
    so a long range costs nothing."""
    base, bound = len(classes.elements), cost.BOUND
    work = 0
    for k in ks:
        # past the bound's bit length k 2^k exceeds it: skip the power
        work += k * base**k if base == 1 or k <= bound.bit_length() else bound + 1
        if work > bound:
            break
    span = f"{ks[0]}..{ks[-1]}" if len(ks) > 1 else ks[0]
    cost.refuse(work, f"orbit work k |c|^k at |c|={base} over k={span} exceeds")


def hurwitz_pairs(classes, sign=1):
    """The move of sigma^sign on pairs of class entries, by digits: entry
    a |c| + b is the digit code of the image of (c_a, c_b), which is
    (c_a c_b c_a^-1, c_a) for sign 1 and (c_b, c_b^-1 c_a c_b) for -1."""
    group, elems = classes.group, classes.elements
    base = len(elems)
    pos = {x: t for t, x in enumerate(elems)}
    if sign == 1:
        return [pos[group.conj(a, b)] * base + s
                for s, a in enumerate(elems) for b in elems]
    return [t * base + pos[group.conj(group.inv(b), a)]
            for a in elems for t, b in enumerate(elems)]


def pair_images(pairs, base, codes, k, i, first=0):
    """The images of the codes of c^k (|c| = ``base``) under the move of
    the pair table ``pairs`` on the entries i, i+1, as by sigma_i^sign
    for a table of :func:`hurwitz_pairs`.  A tuple's code is
    hi base^2 w + p w + lo with p the code of its entries at i, i+1 and
    w = base^(k-i-1), and goes to hi base^2 w + pairs[p] w + lo: code
    plus (pairs[p] - p) w.  The images are counted from ``first`` (1 for
    the codes of :class:`coeffsys.UnitColumns`) and read from ``codes``
    = list(range(base^k + first)), so every image list on base^k tuples
    holds the same int objects."""
    w = base ** (k - i - 1)
    block = []
    for p, q in enumerate(pairs):
        block += [(q - p) * w] * w
    shifts = block * base ** (i - 1)
    starts = itertools.islice(codes, first, None) if first else codes
    return list(map(codes.__getitem__, map(operator.add, starts, shifts)))


def orbits(classes, k, start=None):
    """Orbit partition of c^k under sigma_1..sigma_{k-1}, built level by
    level from the orbit representatives of c^(m-1), m = 1..k.  Given
    ``start``, the partition of c^j for some j <= k, the levels continue
    from its ``levels``, ``reps`` and ``sizes`` at m = j + 1.

    sigma_1..sigma_{m-2} fix the last entry, so the tuples with prefix
    in the orbit of least code r and last entry l form one class inside
    a B_m-orbit, with least code r |c| + l.  sigma_{m-1}, which maps
    (p, d, l) to (p, d l d^-1, d), glues these classes into the
    B_m-orbits; each orbit's least code is its least class code.  The
    class of (p, d, l) depends on p only through the representative q of
    p's orbit in c^(m-2): its r is the representative of q |c| + d, read
    from level m-1's map.  So level m glues |c|^2 digit pairs per orbit
    of c^(m-2), and no level walks its tuples.
    """
    refuse_orbit_range(classes, range(k, k + 1))
    base = len(classes.elements)
    # sigma_{m-1} moves the last pair (d, l) to (d l d^-1, d), and
    # d l d^-1 has digit firsts[d |c| + l]
    firsts = [q // base for q in hurwitz_pairs(classes)]
    if start is None:
        sizes, levels = {0: 1}, []  # the one empty tuple
    else:
        sizes, levels = dict(zip(start.reps, start.sizes)), list(start.levels)
    for m in range(len(levels) + 1, k + 1):
        up = {}  # class code -> a smaller class code of the same orbit

        def find(x):
            while x in up:  # path halving
                up[x] = x = up.get(up[x], up[x])
            return x

        if m > 1:
            # every map of a level is keyed by the same representatives,
            # in the same order, so their values zip by prefix orbit q
            prev = levels[-1]
            for d in range(base):
                ends = prev[d].values()
                for l in range(base):
                    moved = prev[firsts[d * base + l]].values()
                    for r, s in set(zip(ends, moved)):
                        x, y = find(r * base + l), find(s * base + d)
                        if x != y:
                            up[max(x, y)] = min(x, y)
        level, new_sizes = [], {}
        for l in range(base):
            ext = {r: find(r * base + l) for r in sizes}
            for r, c in ext.items():
                new_sizes[c] = new_sizes.get(c, 0) + sizes[r]
            level.append(ext)
        levels.append(level)
        sizes = new_sizes
    reps = sorted(sizes)
    return OrbitPartition(classes, k, reps, [sizes[r] for r in reps], levels)
