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
reflection commutes with the action.  :func:`check_model` decides
every composable triple at once and exactly, from the strand operators:
the label table is associative (``FiniteGroup`` proves it), so only
functoriality can fail, and it fails exactly when
ops[q2 q1] != ops[q1] o ops[q2] for some labels q1 and q2.
"""

from __future__ import annotations

import itertools
import math

from . import cost
from .intmat import is_int


class MonodromyError(ValueError):
    pass


class LabeledInjection:
    """Partial injection {1..m} -> {1..n} with Q-labels on its domain.

    ``pairs`` maps domain positions to target positions (sorted
    ((i, j), ...)); ``labels`` maps the same domain positions to group
    element indices (((i, q), ...), aligned with pairs).  ``strands`` is
    derived: {domain position: (target, label)}; equality, hashing and
    repr ignore it.
    """

    def __init__(self, m, n, pairs, labels):
        if len(labels) != len(pairs):
            raise MonodromyError("labels must cover exactly the domain")
        strands = {}
        images = set()
        prev = 0
        for (i, j), (li, q) in zip(pairs, labels):
            if not (1 <= i <= m and 1 <= j <= n):
                raise MonodromyError("strand endpoints out of range")
            if i <= prev or j in images:
                raise MonodromyError("pairs must be injective with sorted domain")
            if li != i:
                raise MonodromyError("labels must cover exactly the domain")
            prev = i
            images.add(j)
            strands[i] = (j, q)
        self.m = m
        self.n = n
        self.pairs = pairs
        self.labels = labels
        self.strands = strands

    def _key(self):
        return (self.m, self.n, self.pairs, self.labels)

    def __eq__(self, other):
        if type(other) is not LabeledInjection:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"LabeledInjection(m={self.m!r}, n={self.n!r}, "
                f"pairs={self.pairs!r}, labels={self.labels!r})")

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
    strands = psi.strands
    mul = group.mul
    pairs = []
    labels = []
    # phi's domain is sorted, so the composite's needs no re-sort
    for (i, j), (_, q) in zip(phi.pairs, phi.labels):
        hit = strands.get(j)
        if hit is not None:
            pairs.append((i, hit[0]))
            labels.append((i, mul(hit[1], q)))
    return LabeledInjection(phi.m, psi.n, tuple(pairs), tuple(labels))


class MonodromyModel:
    """Pointed state set with a Q-action, sign character, and reflection.

    ``group`` is the FiniteGroup Q.  ``action[q]`` is a permutation of
    the states (a left action: action[q1*q2] = action[q1] o action[q2]),
    one tuple per q; ``sign`` maps each q to +-1 and must be a
    homomorphism; ``reflection`` is an involution.  Both the action and
    the reflection fix the basepoint (state 0).  ``strand_operators[q]``
    is derived: the state map used when pulling back along a strand
    labeled q, action[q^-1] followed by the reflection when
    sign[q] = -1; equality and hashing ignore it.  The action and sign
    are checked on (a, b) for every a and b in (0,) + the generators S,
    |Q| (|S|+1) |Z| steps, refused past ``cost.BOUND`` with
    ResourceRefusal: the b that pass for every a are closed under
    products, and b = 0 (needed when S is empty) makes action[0] the
    identity, since action[a] is a permutation.
    """

    def __init__(self, group, states, action, sign, reflection):
        self.group = group
        self.states = states
        self.action = action
        self.sign = sign
        self.reflection = reflection
        g = self.group
        if len(self.action) != g.order or len(self.sign) != g.order:
            raise MonodromyError("action and sign must cover the group")
        gens = (0,) + g.generators
        n = g.order * len(gens) * self.states
        cost.refuse(n, f"action checks {n} at |Q|={g.order}, |S|={len(gens) - 1}, "
                       f"|Z|={self.states} exceed")
        for q in range(g.order):
            if sorted(self.action[q]) != list(range(self.states)):
                raise MonodromyError("action entries must be permutations")
        if self.sign[0] != 1:
            raise MonodromyError("sign of the identity must be +1")
        for a in range(g.order):
            for b in gens:
                if self.sign[g.mul(a, b)] != self.sign[a] * self.sign[b]:
                    raise MonodromyError("sign must be a homomorphism")
                lhs = tuple(
                    self.action[a][self.action[b][z]] for z in range(self.states)
                )
                if lhs != self.action[g.mul(a, b)]:
                    raise MonodromyError("action must be a left group action")
        refl = self.reflection
        if sorted(refl) != list(range(self.states)):
            raise MonodromyError("reflection must be a permutation of the states")
        if any(refl[refl[z]] != z for z in range(self.states)):
            raise MonodromyError("reflection must be an involution")
        if refl[0] != 0 or any(self.action[q][0] != 0 for q in range(g.order)):
            raise MonodromyError("action and reflection must fix the basepoint")
        ops = []
        for q in range(g.order):
            act = self.action[g.inv(q)]
            ops.append(tuple(refl[z] for z in act) if self.sign[q] == -1 else act)
        self.strand_operators = tuple(ops)

    def _key(self):
        return (self.group, self.states, self.action, self.sign,
                self.reflection)

    def __eq__(self, other):
        if type(other) is not MonodromyModel:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def basepoint(self):
        return 0

    def reflection_commutes(self):
        """Whether the reflection commutes with the whole action.  When
        some label has sign -1, ``act`` is a functor exactly when it
        does, so :func:`check_model` fails exactly when
        ``any(s == -1 for s in sign) and not reflection_commutes()``."""
        return all(
            tuple(self.reflection[self.action[q][z]] for z in range(self.states))
            == tuple(self.action[q][self.reflection[z]] for z in range(self.states))
            for q in range(self.group.order)
        )

    @staticmethod
    def from_json(spec, group):
        """{"states": n, "action": [[...] per q], "sign": [...],
        "reflection": [...]}; content of the wrong shape, or a number
        that is not a JSON integer (a float, bool or string), raises
        MonodromyError."""

        def ints(values, what):
            if not isinstance(values, list) or not all(map(is_int, values)):
                raise MonodromyError(f"{what} must be a list of integers")
            return tuple(values)

        try:
            if not is_int(spec["states"]):
                raise MonodromyError("states must be an integer")
            return MonodromyModel(
                group=group,
                states=spec["states"],
                action=tuple(ints(row, "action rows") for row in spec["action"]),
                sign=ints(spec["sign"], "sign"),
                reflection=ints(spec["reflection"], "reflection"),
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
    ops = model.strand_operators
    for (i, j), (_, q) in zip(morphism.pairs, morphism.labels):
        out[i - 1] = ops[q][state[j - 1]]
    return tuple(out)


# blank fill is checked on objects 0..MAX_OBJECT
MAX_OBJECT = 3


def labeled_injections(m, n, order):
    """Every labeled injection m -> n over a group of the given order,
    by size k, then domain (``itertools.combinations`` order), image
    (``itertools.permutations`` order) and labels
    (``itertools.product`` order): sum_k C(m, k) P(n, k) order^k."""
    for k in range(min(m, n) + 1):
        for dom in itertools.combinations(range(1, m + 1), k):
            for img in itertools.permutations(range(1, n + 1), k):
                pairs = tuple(zip(dom, img))
                for labels in itertools.product(range(order), repeat=k):
                    yield LabeledInjection(m, n, pairs, tuple(zip(dom, labels)))


def witness(chi, psi, phi, state):
    """A functoriality failure of the composable triple phi: a -> b,
    psi: b -> c and chi: c -> d on a state tuple on d, with what is
    needed to check it again: the objects [a, b, c, d], each
    injection's ``pairs`` and ``labels`` as lists of [i, j] and [i, q],
    and the state tuple.  ``LabeledInjection(m, n, pairs, labels)`` with
    the lists made tuples rebuilds each injection."""
    out = {"kind": "functoriality", "objects": [phi.m, phi.n, psi.n, chi.n],
           "state": list(state)}
    for name, mu in (("phi", phi), ("psi", psi), ("chi", chi)):
        out[name] = {"pairs": [list(p) for p in mu.pairs],
                     "labels": [list(q) for q in mu.labels]}
    return out


def _functoriality_failure(model):
    """The witness of the first (q1, q2, s), in that order, with q1 a
    generator and ops[q2 q1](s) != ops[q1](ops[q2](s)), or None when
    there is none: |S| |Q| |Z| steps.  That decides every q1, since
    ops[0] is the identity and the law for q1 and a generator t gives
    ops[q2 q1 t] = ops[t] o ops[q1] o ops[q2] = ops[q1 t] o ops[q2].
    The triple is phi = identity(1), psi: 1 -> 1 labeled q1 and
    chi: 1 -> 1 labeled q2, on the state (s,)."""
    table = model.group.table
    ops = model.strand_operators
    for q1 in model.group.generators:
        for q2, op2 in enumerate(ops):
            op = ops[table[q2][q1]]
            composite = tuple(map(ops[q1].__getitem__, op2))
            if op != composite:
                s = next(s for s, t in enumerate(composite) if op[s] != t)
                psi = LabeledInjection(1, 1, ((1, 1),), ((1, q1),))
                chi = LabeledInjection(1, 1, ((1, 1),), ((1, q2),))
                return witness(chi, psi, LabeledInjection.identity(1), (s,))
    return None


def check_model(model, samples):
    """Check that the labeled injections form a category and that
    ``act`` is a functor on it, for one model.  Every check is exact.

    The identity laws are decided by :func:`compose` on the 20 label-0
    shapes between objects <= 2, since ``compose`` reads labels only
    through ``group.mul`` and 0 is a two-sided identity of the table;
    blank fill by :func:`act` on one basepoint tuple per pair of objects
    <= MAX_OBJECT, since ``act`` on an empty injection reads no state.
    Each is reported for the labeled injections, sum of C(m, k) P(n, k)
    |Q|^k, and the (MAX_OBJECT+1) * sum_{n <= MAX_OBJECT} |Z|^n state
    tuples, that it decides.

    Associativity and functoriality are decided on composable triples
    phi: a -> b, psi: b -> c and chi: c -> d at every object.  Both
    composites of a triple have the same strands, and a strand of phi
    that continues through psi and chi carries (qc qb) qa on one side
    and qc (qb qa) on the other: equal, since the group table is
    associative (``FiniteGroup`` proves it).  A strand of psi that stops
    at chi gives the basepoint on both sides of functoriality, since
    every strand operator fixes it; one with label q1 that continues
    through a strand of chi with label q2 to a state s fails exactly
    when ops[q2 q1](s) != ops[q1](ops[q2](s)).  So functoriality holds
    on every triple exactly when it holds for every q1, q2 and s, which
    :func:`_functoriality_failure` decides from the generators q1.  The
    first failing (q1, q2, s) is reported as one witness.

    ``samples`` is reported as the count of ``composition_assoc`` and
    ``act_functorial``; it is accepted so that existing command lines
    and reports stay as they are.

    Returns ``(checks, failures)``: counts per check and one dict per
    failure.  A sample weighs SAMPLE_WEIGHT (8) against ``cost.BOUND``,
    and the samples are refused past it with ResourceRefusal before
    anything is checked.
    """
    z = model.states
    group = model.group
    cost.refuse(cost.SAMPLE_WEIGHT * samples, (
        f"samples {samples}, weighing {cost.SAMPLE_WEIGHT} each, exceed"))
    injections = sum(math.comb(m, k) * math.perm(n, k) * group.order**k
                     for m in range(3) for n in range(3)
                     for k in range(min(m, n) + 1))
    tuples = (MAX_OBJECT + 1) * sum(z**n for n in range(MAX_OBJECT + 1))
    checks = {"composition_identity": injections, "composition_assoc": samples,
              "act_functorial": samples, "blank_fill": tuples}
    failures = []
    for m in range(3):
        for n in range(3):
            ident_l = LabeledInjection.identity(n)
            ident_r = LabeledInjection.identity(m)
            for psi in labeled_injections(m, n, 1):
                if compose(ident_l, psi, group) != psi or \
                        compose(psi, ident_r, group) != psi:
                    failures.append({"kind": "identity", "psi": str(psi)})
    failure = _functoriality_failure(model)
    if failure is not None:
        failures.append(failure)
    for n in range(MAX_OBJECT + 1):
        for m in range(MAX_OBJECT + 1):
            mu = LabeledInjection.make(m, n, {})
            if act(model, mu, (model.basepoint,) * n) != (model.basepoint,) * m:
                failures.append({"kind": "blank_fill", "m": m, "n": n})
    return checks, failures
