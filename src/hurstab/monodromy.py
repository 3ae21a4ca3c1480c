"""Combinatorial labeled-injection categories and their point-level
monodromy actions.

A morphism m -> n is a partial injection from {1..m} to {1..n} whose
defined strands carry labels in a finite group Q.  Composition forgets
strands that do not continue, and labels multiply along the composed
strand, outer label times inner label.

A :class:`MonodromyModel` fixes a pointed finite state set Z, a left
Q-action on Z, a sign homomorphism Q -> {+-1}, and a pointed involution
(the reflection).  A morphism acts contravariantly on state tuples: the
entry at a position with an incoming strand is pulled back along the
strand, transformed by the inverse label's action and reflected when
the label has sign -1; positions with no strand are filled with the
basepoint.  Applying the inverse of the label (pulling the state
backwards along the strand) is what makes the action strictly
functorial with the chosen label-composition order, provided the
reflection commutes with the action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffsys import CoeffSystem


class MonodromyError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledInjection:
    """Partial injection {1..m} -> {1..n} with Q-labels on its domain.

    ``pairs`` maps domain positions to target positions; ``labels``
    maps the same domain positions to group element indices.
    """

    m: int
    n: int
    pairs: tuple  # sorted ((i, j), ...)
    labels: tuple  # ((i, q), ...) aligned with pairs

    def __post_init__(self):
        dom = [i for i, _ in self.pairs]
        img = [j for _, j in self.pairs]
        if dom != sorted(set(dom)) or len(set(img)) != len(img):
            raise MonodromyError("pairs must be injective with sorted domain")
        for i, j in self.pairs:
            if not (1 <= i <= self.m and 1 <= j <= self.n):
                raise MonodromyError("strand endpoints out of range")
        if tuple(i for i, _ in self.labels) != tuple(dom):
            raise MonodromyError("labels must cover exactly the domain")

    @staticmethod
    def make(m, n, mapping, labels=None):
        """mapping: dict {i: j}; labels: dict {i: q} (default identity)."""
        pairs = tuple(sorted(mapping.items()))
        labels = labels or {}
        lab = tuple((i, labels.get(i, 0)) for i, _ in pairs)
        return LabeledInjection(m, n, pairs, lab)

    @staticmethod
    def identity(n):
        return LabeledInjection.make(n, n, {i: i for i in range(1, n + 1)})

    def mapping(self):
        return dict(self.pairs)

    def label_map(self):
        return dict(self.labels)

    def is_total(self):
        return len(self.pairs) == self.m


def compose(psi, phi, group):
    """psi o phi for phi: m -> l and psi: l -> n.

    The composed strand keeps label(psi at phi(i)) * label(phi at i).
    """
    if phi.n != psi.m:
        raise MonodromyError(
            f"cannot compose {psi.m}->{psi.n} after {phi.m}->{phi.n}"
        )
    psi_map = psi.mapping()
    psi_lab = psi.label_map()
    mapping = {}
    labels = {}
    for (i, j), (_, q) in zip(phi.pairs, phi.labels):
        if j in psi_map:
            mapping[i] = psi_map[j]
            labels[i] = group.mul(psi_lab[j], q)
    return LabeledInjection.make(phi.m, psi.n, mapping, labels)


@dataclass(frozen=True)
class MonodromyModel:
    """Pointed state set with a Q-action, sign character, and reflection.

    ``action[q]`` is a permutation of the states (a left action:
    action[q1*q2] = action[q1] o action[q2]); ``sign`` maps each q to
    +-1 and must be a homomorphism; ``reflection`` is an involution.
    Both the action and the reflection fix the basepoint (state 0).
    """

    group: object  # FiniteGroup for Q
    states: int
    action: tuple  # tuple of permutations (tuples), one per q
    sign: tuple  # tuple of +-1 per q
    reflection: tuple

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order or len(self.sign) != g.order:
            raise MonodromyError("action and sign must cover the group")
        for q in range(g.order):
            if sorted(self.action[q]) != list(range(self.states)):
                raise MonodromyError("action entries must be permutations")
        if self.sign[0] != 1:
            raise MonodromyError("sign of the identity must be +1")
        for a in range(g.order):
            for b in range(g.order):
                if self.sign[g.mul(a, b)] != self.sign[a] * self.sign[b]:
                    raise MonodromyError("sign must be a homomorphism")
                lhs = tuple(
                    self.action[a][self.action[b][z]] for z in range(self.states)
                )
                if lhs != self.action[g.mul(a, b)]:
                    raise MonodromyError("action must be a left group action")
        if tuple(self.reflection[self.reflection[z]] for z in range(self.states)) \
                != tuple(range(self.states)):
            raise MonodromyError("reflection must be an involution")
        if self.reflection[0] != 0 or any(self.action[q][0] != 0
                                          for q in range(self.group.order)):
            raise MonodromyError("action and reflection must fix the basepoint")

    @property
    def basepoint(self):
        return 0

    def reflection_commutes(self):
        """Optional stricter compatibility: the reflection commutes with
        the whole action (needed for strict functoriality of act)."""
        return all(
            tuple(self.reflection[self.action[q][z]] for z in range(self.states))
            == tuple(self.action[q][self.reflection[z]] for z in range(self.states))
            for q in range(self.group.order)
        )

    def strand_operator(self, q):
        """The state map used when pulling back along a strand labeled q."""
        g_inv = self.group.inv(q)
        act = self.action[g_inv]
        if self.sign[q] == -1:
            refl = self.reflection
            return tuple(refl[act[z]] for z in range(self.states))
        return act

    @staticmethod
    def from_json(spec, group):
        """{"states": n, "action": [[...] per q], "sign": [...],
        "reflection": [...]}; content of the wrong shape raises
        MonodromyError."""
        try:
            return MonodromyModel(
                group=group,
                states=int(spec["states"]),
                action=tuple(tuple(row) for row in spec["action"]),
                sign=tuple(int(s) for s in spec["sign"]),
                reflection=tuple(spec["reflection"]),
            )
        except MonodromyError:
            raise
        except (IndexError, KeyError, TypeError, ValueError) as e:
            raise MonodromyError(f"malformed model spec: {e!r}") from None


def act(model, morphism, state):
    """Contravariant action of a morphism m -> n on a state n-tuple,
    returning a state m-tuple; undefined positions become the basepoint.
    """
    if len(state) != morphism.n:
        raise MonodromyError(
            f"state tuple has length {len(state)}, expected {morphism.n}"
        )
    out = [model.basepoint] * morphism.m
    lab = morphism.label_map()
    for i, j in morphism.pairs:
        op = model.strand_operator(lab[i])
        out[i - 1] = op[state[j - 1]]
    return tuple(out)


def linearize(model, K_max):
    """The H_0 shadow: free modules on state tuples with the
    transposition action of total unlabeled injections, feeding the
    degree machinery."""
    z = model.states
    dims = [z**k for k in range(K_max + 1)]

    def idx(tup):
        code = 0
        for v in tup:
            code = code * z + v
        return code

    import itertools

    gens = []
    for k in range(K_max + 1):
        mats = []
        for i in range(1, k):
            cols = []
            for tup in itertools.product(range(z), repeat=k):
                swapped = list(tup)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                cols.append({idx(swapped): 1})
            mats.append(cols)
        gens.append(mats)
    structs = []
    for k in range(K_max):
        cols = []
        for code in range(dims[k]):
            cols.append({code * z + model.basepoint: 1})
        structs.append(cols)
    return CoeffSystem.build(
        K_max, dims, gens, structs, name=f"linearized(|Z|={z})"
    )
