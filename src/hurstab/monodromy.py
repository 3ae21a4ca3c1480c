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
composable triples on their chained strands: all of them at once, by
the label table and the strand operators, when that costs less than
the samples, and otherwise a sample of them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from . import braid
from .coeffsys import pair_table_system
from .intmat import is_int


class MonodromyError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class LabeledInjection:
    """Partial injection {1..m} -> {1..n} with Q-labels on its domain.

    ``pairs`` maps domain positions to target positions; ``labels``
    maps the same domain positions to group element indices.
    ``strands`` is derived: {domain position: (target, label)}.
    """

    m: int
    n: int
    pairs: tuple  # sorted ((i, j), ...)
    labels: tuple  # ((i, q), ...) aligned with pairs
    strands: dict = field(repr=False, compare=False)

    def __init__(self, m, n, pairs, labels):
        # one pass over the arguments: the identity checks of
        # monodromy-check compose two of these per labeled injection
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
        # frozen: bypass the generated __setattr__, which refuses writes
        vars(self).update(m=m, n=n, pairs=pairs, labels=labels,
                          strands=strands)

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


@dataclass(frozen=True)
class MonodromyModel:
    """Pointed state set with a Q-action, sign character, and reflection.

    ``action[q]`` is a permutation of the states (a left action:
    action[q1*q2] = action[q1] o action[q2]); ``sign`` maps each q to
    +-1 and must be a homomorphism; ``reflection`` is an involution.
    Both the action and the reflection fix the basepoint (state 0).
    ``strand_operators[q]`` is derived: the state map used when pulling
    back along a strand labeled q, action[q^-1] followed by the
    reflection when sign[q] = -1.  Checking the action takes |Q|^2 |Z|
    steps, refused past ``braid.DEFAULT_ORBIT_BOUND`` with OrbitSizeError.
    """

    group: object  # FiniteGroup for Q
    states: int
    action: tuple  # tuple of permutations (tuples), one per q
    sign: tuple  # tuple of +-1 per q
    reflection: tuple
    strand_operators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order or len(self.sign) != g.order:
            raise MonodromyError("action and sign must cover the group")
        n = g.order**2 * self.states
        braid.refuse_above_bound(
            n, f"action checks {n} at |Q|={g.order}, |Z|={self.states} exceed")
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
        object.__setattr__(self, "strand_operators", tuple(ops))

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


# monodromy-check samples and enumerates objects 0..MAX_OBJECT
MAX_OBJECT = 3

# what one identity-check injection costs against the bound, in
# blank-fill tuples: about 12 us against 1.3 us for a tuple (Python 3.11)
IDENTITY_CHECK_WEIGHT = 9

# what one sample costs, in blank-fill tuples: about 9 us at |Q| >= 300,
# where most injections it decodes are new (3.5 us at cyclic:2), against
# 1.14 us for a tuple (Python 3.11)
SAMPLE_WEIGHT = 8


def _digits(code, base, length):
    """The ``length`` lowest base-``base`` digits of code, most
    significant first (the order of ``itertools.product``)."""
    out = [0] * length
    for t in range(length - 1, -1, -1):
        code, out[t] = divmod(code, base)
    return out


class InjectionSampler:
    """Labeled injections m -> n between objects 0..MAX_OBJECT, decoded
    from residues or enumerated from per-(m, n) tables of shapes.

    ``shapes[m, n][k]`` lists the unlabeled partial injections of size
    k as (domain, image) pairs: domains in ``itertools.combinations``
    order, each with its images in ``itertools.permutations`` order.
    There are ``sizes[m, n][k]`` = len(shapes[m, n][k]) * |Q|**k labeled
    ones, numbered by index = shape * |Q|**k + label code, where the
    label code lists the labels of the domain in base |Q|, most
    significant first.  With B the lcm of ``sizes[m, n]``, a residue x
    mod L_mn = (min(m, n) + 1) * B picks k = x // B and then index
    (x % B) % sizes[m, n][k].  Every k takes B residues and every index
    of size k takes B / sizes[m, n][k] of them, so a uniform residue
    picks k uniformly in 0..min(m, n), then a shape and its label code
    uniformly: an injection of size k has probability
    1/(min(m, n)+1) * 1/C(m, k) * 1/P(n, k) * 1/|Q|**k.

    A composable triple is decoded from one residue mod ``triples`` =
    (MAX_OBJECT+1)**4 * L**3, L the lcm of every L_mn: its residue mod
    (MAX_OBJECT+1)**4 gives the objects a, b, c, d (independent and
    uniform), then three residues mod L give phi: a -> b, psi: b -> c
    and chi: c -> d in turn.  Python integers keep this exact at any |Q|.

    ``built`` keeps each decoded injection under its key
    (m, n, k, index): at most 3 new entries per sample.
    """

    def __init__(self, group):
        self.group = group
        self.order = group.order
        self.shapes = {}
        self.sizes = {}
        self.residues = {}  # (m, n) -> (L_mn, B, sizes[m, n])
        for m in range(MAX_OBJECT + 1):
            for n in range(MAX_OBJECT + 1):
                shapes = self.shapes[m, n] = tuple(
                    tuple(
                        (dom, img)
                        for dom in itertools.combinations(range(1, m + 1), k)
                        for img in itertools.permutations(range(1, n + 1), k)
                    )
                    for k in range(min(m, n) + 1)
                )
                sizes = self.sizes[m, n] = tuple(
                    len(by_k) * self.order**k for k, by_k in enumerate(shapes)
                )
                block = math.lcm(*sizes)
                self.residues[m, n] = (len(sizes) * block, block, sizes)
        span = MAX_OBJECT + 1
        self.objects = tuple(itertools.product(range(span), repeat=4))
        self.modulus = math.lcm(*(r[0] for r in self.residues.values()))
        self.triples = span**4 * self.modulus**3
        self.built = {}

    def injection(self, m, n, x):
        """The labeled injection m -> n that the residue x mod L_mn
        picks (see the class docstring)."""
        modulus, block, sizes = self.residues[m, n]
        k, x = divmod(x % modulus, block)
        key = (m, n, k, x % sizes[k])
        phi = self.built.get(key)
        if phi is None:
            shape, code = divmod(key[3], self.order**k)
            dom, img = self.shapes[m, n][k][shape]
            labels = _digits(code, self.order, k)
            phi = self.built[key] = LabeledInjection(
                m, n, tuple(zip(dom, img)), tuple(zip(dom, labels)))
        return phi

    def triple(self, code):
        """``(chi, psi, phi, rest)`` decoded from one integer: phi: a -> b,
        psi: b -> c and chi: c -> d from the residue of code mod
        ``triples``, and rest = code // triples."""
        code, objects = divmod(code, len(self.objects))
        a, b, c, d = self.objects[objects]
        modulus = self.modulus
        code, x = divmod(code, modulus)
        phi = self.injection(a, b, x)
        code, x = divmod(code, modulus)
        psi = self.injection(b, c, x)
        code, x = divmod(code, modulus)
        return self.injection(c, d, x), psi, phi, code

    def all_injections(self, m, n):
        """Every labeled injection m -> n, by size, shape and label code.

        Built afresh and not kept: an enumeration visits each once, and
        keeping them would hold |Q|**k objects per shape.
        """
        for k, by_k in enumerate(self.shapes[m, n]):
            for dom, img in by_k:
                pairs = tuple(zip(dom, img))
                for labels in itertools.product(range(self.order), repeat=k):
                    yield LabeledInjection(m, n, pairs, tuple(zip(dom, labels)))


def witness(kind, chi, psi, phi, state=None):
    """A failure of a sampled triple phi: a -> b, psi: b -> c and
    chi: c -> d, with what is needed to check it again: the objects
    [a, b, c, d], each injection's ``pairs`` and ``labels`` as lists of
    [i, j] and [i, q], and the state tuple on d when one was acted on.
    ``LabeledInjection(m, n, pairs, labels)`` with the lists made tuples
    rebuilds each injection."""
    out = {"kind": kind, "objects": [phi.m, phi.n, psi.n, chi.n]}
    for name, mu in (("phi", phi), ("psi", psi), ("chi", chi)):
        out[name] = {"pairs": [list(p) for p in mu.pairs],
                     "labels": [list(q) for q in mu.labels]}
    if state is not None:
        out["state"] = list(state)
    return out


def _cannot_fail(model):
    """Whether no sampled triple can fail: the label table is associative,
    t[t[c][b]][a] == t[c][t[b][a]] for every a, b and c, and
    ops[t[q2][q1]] == ops[q1] o ops[q2] for every q1 and q2, at
    |Q|^3 + |Q|^2 |Z| steps.  The table is checked again here, since a
    group above ``groups.ASSOC_CHECK_BOUND`` was accepted unchecked."""
    table = model.group.table
    for row_c in table:
        for cb, row_b in zip(row_c, table):
            row_cb = table[cb]
            if any(row_cb[a] != row_c[ba] for a, ba in enumerate(row_b)):
                return False
    ops = model.strand_operators
    for op2, row in zip(ops, table):
        for op1, q in zip(ops, row):
            if ops[q] != tuple(map(op1.__getitem__, op2)):
                return False
    return True


def _sampled_failures(model, sampler, rng, samples):
    """The witnesses of ``samples`` composable triples drawn by
    ``rng.randrange(sampler.triples * |Z|**MAX_OBJECT)``, each with a
    state tuple, and decided on their chained strands (see
    :func:`check_model`)."""
    z = model.states
    table = model.group.table
    ops = model.strand_operators
    draws = sampler.triples * z**MAX_OBJECT
    triple = sampler.triple
    failures = []
    for _ in range(samples):
        chi, psi, phi, code = triple(rng.randrange(draws))
        # (0, 0) is no strand: positions start at 1
        for j, qa in phi.strands.values():
            l, qb = psi.strands.get(j, (0, 0))
            p, qc = chi.strands.get(l, (0, 0))
            if p and table[table[qc][qb]][qa] != table[qc][table[qb][qa]]:
                failures.append(witness("assoc", chi, psi, phi))
                break
        d = chi.n
        for l, q1 in psi.strands.values():
            p, q2 = chi.strands.get(l, (0, 0))
            s = code // z**(d - p) % z
            if p and ops[table[q2][q1]][s] != ops[q1][ops[q2][s]]:
                failures.append(witness("functoriality", chi, psi, phi,
                                        _digits(code, z, d)))
                break
    return failures


def check_model(model, samples, seed):
    """Check that the labeled injections form a category and that
    ``act`` is a functor on it, for one model.

    The identity laws are checked on every labeled injection between
    objects <= 2 (sum of C(m, k) P(n, k) |Q|^k), blank fill on the
    (MAX_OBJECT+1) * sum_{n <= MAX_OBJECT} |Z|^n state tuples between
    objects <= MAX_OBJECT, and associativity and functoriality on
    ``samples`` random composable triples phi: a -> b, psi: b -> c and
    chi: c -> d between objects <= MAX_OBJECT, each with a uniform state
    tuple on d.  Each sample is one ``randrange`` over
    ``sampler.triples * |Z|**MAX_OBJECT``: the triple comes from its
    residue mod ``sampler.triples`` (see :class:`InjectionSampler`) and
    the state tuple from the low base-|Z| digits of the rest.

    A sample is decided on its chained strands from the group table and
    the strand operators, without composing or acting.  Both composites
    of the triple have the same strands, so associativity fails exactly
    when a strand of phi continues through psi and chi, with labels qa,
    qb and qc, and (qc qb) qa != qc (qb qa).  A strand of psi that stops
    at chi gives the basepoint on both sides of functoriality, since
    every strand operator fixes it; one with label q1 that continues
    through a strand of chi with label q2 to a state s fails exactly
    when ops[q2 q1](s) != ops[q1](ops[q2](s)).  The state tuple is
    decoded only for a witness.

    So no sample can fail when the label table is associative and
    ops[q2 q1] = ops[q1] o ops[q2] for every q1 and q2.  When that
    exact check, |Q|^3 + |Q|^2 |Z| steps, weighs at most the samples
    (SAMPLE_WEIGHT each), it runs first, and if it holds nothing is
    drawn and ``seed`` is not read; otherwise the samples are drawn as
    :func:`_sampled_failures` does.  Either way the report is the same.
    Returns ``(checks, failures)``: counts per check and one dict per
    failure, which for a sampled triple is its :func:`witness`.

    Against ``braid.DEFAULT_ORBIT_BOUND``, a sample weighs SAMPLE_WEIGHT
    (8) tuples and an injection IDENTITY_CHECK_WEIGHT (9); the samples,
    and the injections and tuples together, are each refused past it
    with OrbitSizeError before anything is checked.
    """
    z = model.states
    group = model.group
    braid.refuse_above_bound(SAMPLE_WEIGHT * samples, (
        f"samples {samples}, weighing {SAMPLE_WEIGHT} each, exceed"))
    sampler = InjectionSampler(group)
    injections = sum(sum(sampler.sizes[m, n]) for m in range(3) for n in range(3))
    tuples = (MAX_OBJECT + 1) * sum(z**n for n in range(MAX_OBJECT + 1))
    braid.refuse_above_bound(IDENTITY_CHECK_WEIGHT * injections + tuples, (
        f"identity-check injections {injections} at |Q|={group.order}, "
        f"weighing {IDENTITY_CHECK_WEIGHT} each, plus blank-fill tuples "
        f"{tuples} at |Z|={z} exceed"))
    checks = {"composition_identity": injections, "composition_assoc": samples,
              "act_functorial": samples, "blank_fill": tuples}
    failures = []
    for m in range(3):
        for n in range(3):
            ident_l = LabeledInjection.identity(n)
            ident_r = LabeledInjection.identity(m)
            for psi in sampler.all_injections(m, n):
                if compose(ident_l, psi, group) != psi or \
                        compose(psi, ident_r, group) != psi:
                    failures.append({"kind": "identity", "psi": str(psi)})
    order = group.order
    if order**3 + order**2 * z > SAMPLE_WEIGHT * samples \
            or not _cannot_fail(model):
        failures += _sampled_failures(model, sampler, random.Random(seed),
                                      samples)
    for n in range(MAX_OBJECT + 1):
        for m in range(MAX_OBJECT + 1):
            mu = LabeledInjection.make(m, n, {})
            for state in itertools.product(range(z), repeat=n):
                if act(model, mu, state) != (model.basepoint,) * m:
                    failures.append({"kind": "blank_fill", "m": m, "n": n})
    return checks, failures


def linearize(model, K_max):
    """The H_0 shadow: free modules on state tuples with the
    transposition action of total unlabeled injections, feeding the
    degree machinery: sigma_i swaps the states at i and i+1, and the
    structure map appends the basepoint."""
    z = model.states
    swap = [b * z + a for a in range(z) for b in range(z)]
    return pair_table_system((swap, swap), z, model.basepoint, K_max,
                             name=f"linearized(|Z|={z})")
