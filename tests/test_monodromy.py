import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st
from system_oracle import check_extension, linearize

from hurstab import cost
from hurstab import coeffsys as cs
from hurstab import monodromy as md
from hurstab.groups import FiniteGroup

Z2 = FiniteGroup.cyclic(2)

# Z = {*, a, b}; reflection swaps a and b; the nontrivial group element
# also swaps a and b (so the reflection commutes with the action)
SWAP_MODEL = md.MonodromyModel(
    group=Z2,
    states=3,
    action=((0, 1, 2), (0, 2, 1)),
    sign=(1, -1),
    reflection=(0, 2, 1),
)

TRIVIAL_MODEL = md.MonodromyModel(
    group=Z2,
    states=3,
    action=((0, 1, 2), (0, 1, 2)),
    sign=(1, -1),
    reflection=(0, 2, 1),
)


def all_labeled_injections(group, m, n):
    for dom_size in range(0, min(m, n) + 1):
        for dom in itertools.combinations(range(1, m + 1), dom_size):
            for img in itertools.permutations(range(1, n + 1), dom_size):
                for labels in itertools.product(range(group.order),
                                                repeat=dom_size):
                    yield md.LabeledInjection.make(
                        m, n, dict(zip(dom, img)), dict(zip(dom, labels))
                    )


def satisfies_injection_rules(m, n, pairs, labels):
    """The rules a LabeledInjection enforces, stated one by one."""
    dom = [i for i, _ in pairs]
    img = [j for _, j in pairs]
    return (dom == sorted(set(dom)) and len(set(img)) == len(img)
            and all(1 <= i <= m and 1 <= j <= n for i, j in pairs)
            and tuple(i for i, _ in labels) == tuple(dom))


def test_labeled_injection_validation():
    # random partial injections with at most one entry of the pairs or
    # of the labels changed, checked against the rules stated one by one
    rng = random.Random(11)
    outcomes = set()
    for _ in range(4000):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        size = rng.randint(0, min(m, n))
        dom = sorted(rng.sample(range(1, m + 1), size))
        pairs = [list(p) for p in zip(dom, rng.sample(range(1, n + 1), size))]
        labels = [[i, rng.randrange(2)] for i in dom]
        entries = [(p, t) for p in pairs + labels for t in (0, 1)]
        if entries and rng.random() < 0.6:
            p, t = rng.choice(entries)
            p[t] = rng.randint(0, 4)
        if rng.random() < 0.1:
            labels.append([4, 0])
        if rng.random() < 0.1:
            pairs.reverse()
        if rng.random() < 0.5:
            # labels that follow the pairs, so that only the pairs are wrong
            labels = [[i, q] for (i, _), (_, q) in zip(pairs, labels)]
        pairs = tuple(map(tuple, pairs))
        labels = tuple(map(tuple, labels))
        expect = satisfies_injection_rules(m, n, pairs, labels)
        try:
            md.LabeledInjection(m, n, pairs, labels)
            valid = True
        except md.MonodromyError:
            valid = False
        assert valid == expect, (m, n, pairs, labels)
        outcomes.add((valid, len(pairs)))
    assert outcomes == {(v, k) for v in (True, False) for k in range(4)}


def test_identity_laws():
    for m in range(0, 3):
        for n in range(0, 3):
            for phi in all_labeled_injections(Z2, m, n):
                assert md.compose(md.LabeledInjection.identity(n), phi, Z2) == phi
                assert md.compose(phi, md.LabeledInjection.identity(m), Z2) == phi


def test_strand_forgetting_example():
    phi = md.LabeledInjection.make(1, 2, {1: 2})
    psi = md.LabeledInjection.make(2, 3, {1: 1})
    comp = md.compose(psi, phi, Z2)
    assert comp.pairs == () and comp.m == 1 and comp.n == 3


def test_unlabeled_composition_is_partial_function_composition():
    for m, ell, n in itertools.product(range(0, 4), repeat=3):
        for phi in all_labeled_injections(FiniteGroup.cyclic(1), m, ell):
            fmap = phi.mapping()
            for psi in all_labeled_injections(FiniteGroup.cyclic(1), ell, n):
                pmap = psi.mapping()
                comp = md.compose(psi, phi, FiniteGroup.cyclic(1))
                expect = {
                    i: pmap[j] for i, j in fmap.items() if j in pmap
                }
                assert comp.mapping() == expect


def test_associativity_randomized_with_labels():
    rng = random.Random(17)
    def rand_inj(m, n):
        size = rng.randint(0, min(m, n))
        dom = sorted(rng.sample(range(1, m + 1), size))
        img = rng.sample(range(1, n + 1), size)
        labels = {i: rng.randrange(2) for i in dom}
        return md.LabeledInjection.make(m, n, dict(zip(dom, img)), labels)

    for _ in range(2000):
        a, b, c, d = (rng.randint(0, 4) for _ in range(4))
        phi, psi, chi = rand_inj(a, b), rand_inj(b, c), rand_inj(c, d)
        lhs = md.compose(md.compose(chi, psi, Z2), phi, Z2)
        rhs = md.compose(chi, md.compose(psi, phi, Z2), Z2)
        assert lhs == rhs


def test_act_examples():
    ident = md.LabeledInjection.identity(2)
    assert md.act(TRIVIAL_MODEL, ident, (1, 2)) == (1, 2)
    # strand labeled r maps a to b under the trivial action with sign -1
    mu = md.LabeledInjection.make(1, 1, {1: 1}, {1: 1})
    assert md.act(TRIVIAL_MODEL, mu, (1,)) == (2,)
    # empty domain morphism fills with the basepoint
    blank = md.LabeledInjection.make(1, 2, {})
    assert md.act(TRIVIAL_MODEL, blank, (1, 2)) == (0,)


def test_blank_fill_all_empty_morphisms():
    for m in range(0, 4):
        for n in range(0, 4):
            mu = md.LabeledInjection.make(m, n, {})
            for state in itertools.product(range(3), repeat=n):
                assert md.act(SWAP_MODEL, mu, state) == (0,) * m


def test_check_model_refuses_above_the_bound(monkeypatch):
    # SWAP_MODEL: the identity laws decide 9 + 9*2 + 2*2**2 = 35 labeled
    # injections and blank fill 4 * (1 + 3 + 9 + 27) = 160 state tuples;
    # neither count weighs against the bound, which only the samples
    # reach, so a bound of 40 (5 samples weighing 8) still runs them all
    monkeypatch.setattr(cost, "BOUND", 40)
    checks, failures = md.check_model(SWAP_MODEL, 5)
    assert checks == {"composition_identity": 35, "composition_assoc": 5,
                      "act_functorial": 5, "blank_fill": 160}
    assert not failures
    monkeypatch.setattr(cost, "BOUND", 39)
    with pytest.raises(cost.ResourceRefusal,
                       match="samples 5, weighing 8 each, exceed the bound "
                             "39"):
        md.check_model(SWAP_MODEL, 5)
    # the counts are not enumerated: a one-state model over cyclic:1000
    # reports 9 + 9 |Q| + 2 |Q|^2 injections at once
    monkeypatch.setattr(cost, "BOUND", 10**7)
    group = FiniteGroup.cyclic(1000)
    one = md.MonodromyModel(group, 1, ((0,),) * 1000, (1,) * 1000, (0,))
    start = time.perf_counter()
    checks, failures = md.check_model(one, 0)
    assert checks["composition_identity"] == 2009009
    assert checks["blank_fill"] == 16 and not failures
    assert time.perf_counter() - start < 1.0


def test_check_model_refuses_too_many_samples(monkeypatch):
    # 60 samples weigh 8 * 60 = 480, and nothing else check_model does
    # weighs against the bound
    monkeypatch.setattr(cost, "BOUND", 480)
    checks, failures = md.check_model(SWAP_MODEL, 60)
    assert checks["composition_assoc"] == checks["act_functorial"] == 60
    assert not failures
    with pytest.raises(cost.ResourceRefusal,
                       match="samples 61, weighing 8 each, exceed the bound "
                             "480"):
        md.check_model(SWAP_MODEL, 61)


def test_model_refuses_above_the_bound(monkeypatch):
    # the action check composes each of the |Q| elements with 0 and the
    # |S| generators on every state: 2 * 2 * 3 on SWAP_MODEL, and
    # 6 * 3 * 7 = 126 (not 6 * 6 * 7) for sym:3 acting on itself
    def rebuild(model):
        return md.MonodromyModel(model.group, model.states, model.action,
                                 model.sign, model.reflection)

    regular = regular_model(SYM3)
    assert len(SYM3.generators) == 2
    for model, count, what in ((SWAP_MODEL, 12, r"\|Q\|=2, \|S\|=1, \|Z\|=3"),
                               (regular, 126, r"\|Q\|=6, \|S\|=2, \|Z\|=7")):
        monkeypatch.setattr(cost, "BOUND", count)
        assert rebuild(model) == model
        monkeypatch.setattr(cost, "BOUND", count - 1)
        with pytest.raises(cost.ResourceRefusal,
                           match=rf"action checks {count} at {what} exceed "
                                 rf"the bound {count - 1}"):
            rebuild(model)


def test_act_functoriality_seeded():
    rng = random.Random(23)

    def rand_inj(m, n):
        size = rng.randint(0, min(m, n))
        dom = sorted(rng.sample(range(1, m + 1), size))
        img = rng.sample(range(1, n + 1), size)
        labels = {i: rng.randrange(2) for i in dom}
        return md.LabeledInjection.make(m, n, dict(zip(dom, img)), labels)

    assert SWAP_MODEL.reflection_commutes()
    for _ in range(1000):
        a, b, c = (rng.randint(0, 4) for _ in range(3))
        phi, psi = rand_inj(a, b), rand_inj(b, c)
        state = tuple(rng.randrange(3) for _ in range(c))
        lhs = md.act(SWAP_MODEL, md.compose(psi, phi, Z2), state)
        rhs = md.act(SWAP_MODEL, phi, md.act(SWAP_MODEL, psi, state))
        assert lhs == rhs


def test_full_tuple_automorphisms_form_wreath_like_group():
    # automorphisms of the object 2 are Q^2 x| Sigma_2: order 8 for Q = Z/2
    autos = [
        phi for phi in all_labeled_injections(Z2, 2, 2) if phi.is_total()
        and len(phi.pairs) == 2
    ]
    assert len(autos) == 8
    # closed under composition and every element has an inverse
    table = {}
    for f in autos:
        for g in autos:
            comp = md.compose(f, g, Z2)
            assert comp in autos
            table[(autos.index(f), autos.index(g))] = autos.index(comp)
    ident = autos.index(md.LabeledInjection.identity(2))
    for i in range(8):
        assert any(table[(i, j)] == ident for j in range(8))


def test_appended_strand_commutes():
    # appending an identity-labeled strand commutes with every action
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        total = [phi for phi in all_labeled_injections(Z2, n, n)
                 if phi.is_total() and len(phi.pairs) == n]
        phi = rng.choice(total)
        appended = md.LabeledInjection.make(
            n + 1, n + 1,
            {**phi.mapping(), n + 1: n + 1},
            {**phi.label_map(), n + 1: 0},
        )
        state = tuple(rng.randrange(3) for _ in range(n))
        extra = rng.randrange(3)
        lhs = md.act(SWAP_MODEL, appended, state + (extra,))
        rhs = md.act(SWAP_MODEL, phi, state) + (extra,)
        assert lhs == rhs


def digits(code, base, length):
    """The ``length`` lowest base-``base`` digits of code, most
    significant first (the order of ``itertools.product``)."""
    out = [0] * length
    for t in range(length - 1, -1, -1):
        code, out[t] = divmod(code, base)
    return out


class InjectionSampler:
    """The sampling oracle's draws: labeled injections m -> n between
    objects 0..md.MAX_OBJECT, decoded from residues through per-(m, n)
    tables of shapes.

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
    (md.MAX_OBJECT+1)**4 * L**3, L the lcm of every L_mn: its residue mod
    (md.MAX_OBJECT+1)**4 gives the objects a, b, c, d (independent and
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
        for m in range(md.MAX_OBJECT + 1):
            for n in range(md.MAX_OBJECT + 1):
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
        span = md.MAX_OBJECT + 1
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
            labels = digits(code, self.order, k)
            phi = self.built[key] = md.LabeledInjection(
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


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sampler_distribution_is_exact(order):
    # every residue mod L_mn once: each labeled injection comes out as
    # often as its probability says, exactly
    group = FiniteGroup.cyclic(order)
    sampler = InjectionSampler(group)
    for m in range(4):
        for n in range(4):
            modulus = sampler.residues[m, n][0]
            assert modulus == (min(m, n) + 1) * math.lcm(*sampler.sizes[m, n])
            assert sampler.modulus % modulus == 0
            counts = collections.Counter(
                sampler.injection(m, n, x) for x in range(modulus))
            dist = {phi: Fraction(c, modulus) for phi, c in counts.items()}
            K = min(m, n)
            expect = {
                phi: Fraction(1, (K + 1) * math.comb(m, len(phi.pairs))
                              * math.perm(n, len(phi.pairs))
                              * order ** len(phi.pairs))
                for phi in all_labeled_injections(group, m, n)
            }
            assert dist == expect


def test_sampler_objects_are_uniform():
    # the residue mod 4**4 picks the objects a, b, c, d, the next three
    # residues mod L the injections phi, psi and chi, and the rest is
    # handed back for the state tuple
    sampler = InjectionSampler(Z2)
    L = sampler.modulus
    assert sampler.triples == 4**4 * L**3
    rng = random.Random(2)
    seen = []
    for first in range(4**4):
        x = [rng.randrange(L) for _ in range(3)]
        rest = rng.randrange(10**6)
        code = first + 4**4 * (x[0] + L * (x[1] + L * (x[2] + L * rest)))
        chi, psi, phi, left = sampler.triple(code)
        a, b, c, d = phi.m, phi.n, psi.n, chi.n
        assert (psi.m, chi.m) == (b, c) and left == rest
        assert phi is sampler.injection(a, b, x[0])
        assert psi is sampler.injection(b, c, x[1])
        assert chi is sampler.injection(c, d, x[2])
        seen.append((a, b, c, d))
    assert sorted(seen) == list(itertools.product(range(4), repeat=4))


def test_sampler_builds_what_make_builds():
    sampler = InjectionSampler(FiniteGroup.cyclic(3))
    rng = random.Random(4)
    drawn = [sampler.injection(m, n, rng.randrange(sampler.modulus))
             for _ in range(300) for m in range(4) for n in range(4)]
    for m in range(4):
        for n in range(4):
            listed = list(md.labeled_injections(m, n, 3))
            assert listed == list(
                all_labeled_injections(FiniteGroup.cyclic(3), m, n))
            drawn += listed
    for phi in drawn:
        made = md.LabeledInjection.make(phi.m, phi.n, phi.mapping(),
                                        phi.label_map())
        assert phi == made and phi.strands == made.strands


class InterningSampler(InjectionSampler):
    """The sampler with every injection interned by value: a decoded
    one and each composite :meth:`composite` makes are one object per
    value in ``interned``, and ``composed`` maps the addresses
    id(psi), id(phi) of two interned injections to the interned
    psi o phi, so ``md.compose`` runs once per distinct pair."""

    def __init__(self, group):
        super().__init__(group)
        self.interned = {}
        self.composed = {}

    def injection(self, m, n, x):
        phi = super().injection(m, n, x)
        return self.interned.setdefault((m, n, phi.pairs, phi.labels), phi)

    def composite(self, psi, phi):
        key = id(psi) << 64 | id(phi)
        out = self.composed.get(key)
        if out is None:
            out = md.compose(psi, phi, self.group)
            out = self.composed[key] = self.interned.setdefault(
                (out.m, out.n, out.pairs, out.labels), out)
        return out


def test_sampler_composes_each_pair_once(monkeypatch):
    # composites are interned by value, so equal injections are one
    # object, and compose runs once per distinct pair
    group = FiniteGroup.cyclic(3)
    sampler = InterningSampler(group)
    calls = []

    def counted(psi, phi, group):
        calls.append((psi, phi))
        return compose(psi, phi, group)

    compose = md.compose
    monkeypatch.setattr(md, "compose", counted)
    rng = random.Random(6)
    for _ in range(3000):
        chi, psi, phi, _ = sampler.triple(rng.randrange(sampler.triples))
        for outer, inner in ((chi, psi), (psi, phi)):
            out = sampler.composite(outer, inner)
            assert out == compose(outer, inner, group)
            assert out is sampler.composite(outer, inner)
            assert out is sampler.interned[out.m, out.n, out.pairs, out.labels]
        lhs = sampler.composite(sampler.composite(chi, psi), phi)
        assert lhs is sampler.composite(chi, sampler.composite(psi, phi))
    pairs = [(psi.m, psi.n, psi.pairs, psi.labels, phi.m, phi.n, phi.pairs,
              phi.labels) for psi, phi in calls]
    assert len(pairs) == len(set(pairs)) == len(sampler.composed)
    assert len(calls) < 3000


def regular_model(group):
    """Q acting on itself by left multiplication, plus a basepoint: an
    action that is not abelian when Q is not."""
    order = group.order
    action = tuple((0,) + tuple(1 + group.mul(q, g) for g in range(order))
                   for q in range(order))
    return md.MonodromyModel(group=group, states=order + 1, action=action,
                             sign=(1,) * order,
                             reflection=tuple(range(order + 1)))


NONCOMMUTING_MODEL = md.MonodromyModel(
    group=Z2, states=4, action=((0, 1, 2, 3), (0, 2, 1, 3)), sign=(1, -1),
    reflection=(0, 1, 3, 2))


def expected_witness(kind, chi, psi, phi, state=None):
    out = {"kind": kind, "objects": [phi.m, psi.m, chi.m, chi.n],
           "phi": {"pairs": [[i, j] for i, j in phi.pairs],
                   "labels": [[i, q] for i, q in phi.labels]},
           "psi": {"pairs": [[i, j] for i, j in psi.pairs],
                   "labels": [[i, q] for i, q in psi.labels]},
           "chi": {"pairs": [[i, j] for i, j in chi.pairs],
                   "labels": [[i, q] for i, q in chi.labels]}}
    if state is not None:
        out["state"] = state
    return out


def oracle_check_model(model, samples, seed):
    """The sampling oracle for ``md.check_model``: the same identity and
    blank-fill checks, and associativity and functoriality on
    ``samples`` composable triples drawn by
    ``random.Random(seed).randrange(sampler.triples * |Z|**MAX_OBJECT)``.
    Each triple comes from the residue mod ``sampler.triples`` (see
    :class:`InjectionSampler`) and its state tuple on d from the low
    base-|Z| digits of the rest.  The composites are built by
    ``md.compose`` (once per distinct pair, through
    :class:`InterningSampler`) and compared whole, and the state tuple
    is acted on by ``md.act``; a failing triple is reported as its
    :func:`expected_witness`."""
    z = model.states
    group = model.group
    rng = random.Random(seed)
    sampler = InterningSampler(group)
    checks = {"composition_identity": 0, "composition_assoc": 0,
              "act_functorial": 0, "blank_fill": 0}
    failures = []
    for m in range(3):
        for n in range(3):
            ident_l = md.LabeledInjection.identity(n)
            ident_r = md.LabeledInjection.identity(m)
            for psi in all_labeled_injections(group, m, n):
                if md.compose(ident_l, psi, group) != psi or \
                        md.compose(psi, ident_r, group) != psi:
                    failures.append({"kind": "identity", "psi": str(psi)})
                checks["composition_identity"] += 1
    draws = sampler.triples * z**md.MAX_OBJECT
    composite = sampler.composite
    for _ in range(samples):
        chi, psi, phi, code = sampler.triple(rng.randrange(draws))
        chi_psi = composite(chi, psi)
        if composite(chi_psi, phi) != composite(chi, composite(psi, phi)):
            failures.append(expected_witness("assoc", chi, psi, phi))
        checks["composition_assoc"] += 1
        state = tuple(code // z**t % z for t in reversed(range(chi.n)))
        one = md.act(model, chi_psi, state)
        two = md.act(model, psi, md.act(model, chi, state))
        if one != two:
            failures.append(expected_witness("functoriality", chi, psi, phi,
                                             list(state)))
        checks["act_functorial"] += 1
    for n in range(md.MAX_OBJECT + 1):
        for m in range(md.MAX_OBJECT + 1):
            mu = md.LabeledInjection.make(m, n, {})
            for state in itertools.product(range(z), repeat=n):
                if md.act(model, mu, state) != (model.basepoint,) * m:
                    failures.append({"kind": "blank_fill", "m": m, "n": n})
                checks["blank_fill"] += 1
    return checks, failures


def replays(model, failure):
    """Whether a functoriality witness fails again when rebuilt from
    the report, composed by ``md.compose`` and acted on by ``md.act``."""
    a, b, c, d = failure["objects"]
    phi, psi, chi = (
        md.LabeledInjection(m, n, tuple(map(tuple, failure[name]["pairs"])),
                            tuple(map(tuple, failure[name]["labels"])))
        for name, m, n in (("phi", a, b), ("psi", b, c), ("chi", c, d)))
    state = tuple(failure["state"])
    group = model.group
    return (failure["kind"] == "functoriality" and len(state) == d
            and md.act(model, md.compose(chi, psi, group), state)
            != md.act(model, psi, md.act(model, chi, state)))


@pytest.mark.parametrize("model", [SWAP_MODEL, NONCOMMUTING_MODEL,
                                   regular_model(FiniteGroup.symmetric(3))])
def test_check_model_matches_a_direct_oracle(model):
    # the sampling oracle composes and acts on 2000 drawn triples: it
    # fails where check_model fails, with the same counts, and the one
    # witness check_model reports fails again when composed and acted on
    checks, failures = md.check_model(model, 2000)
    expect_checks, expect = oracle_check_model(model, 2000, 5)
    assert checks == expect_checks
    assert checks["composition_assoc"] == checks["act_functorial"] == 2000
    assert bool(failures) == bool(expect) == (model is NONCOMMUTING_MODEL)
    assert {f["kind"] for f in expect} <= {"functoriality"}
    assert all(replays(model, f) for f in failures + expect)
    if failures:
        # the first (q1, q2, s): q1 = 0 has sign +1, and q1 = 1 fails
        # first with q2 = 1 on the state 1
        assert failures == [{
            "kind": "functoriality", "objects": [1, 1, 1, 1],
            "phi": {"pairs": [[1, 1]], "labels": [[1, 0]]},
            "psi": {"pairs": [[1, 1]], "labels": [[1, 1]]},
            "chi": {"pairs": [[1, 1]], "labels": [[1, 1]]},
            "state": [1]}]


def test_check_model_finds_a_wrong_label_order(monkeypatch):
    # check_model reads labels off the group table, the oracle composes
    # them: a wrong label order in compose makes the two disagree.
    # Composing labels inner times outer is still associative, but over
    # sym:3 acting on itself the action is no longer a functor
    group = FiniteGroup.symmetric(3)
    model = regular_model(group)
    checks, failures = md.check_model(model, 500)
    assert (checks, failures) == oracle_check_model(model, 500, 1)
    assert not failures

    def wrong_order(psi, phi, group):
        out = compose(psi, phi, group)
        labels = tuple((i, group.mul(q, psi.strands[phi.strands[i][0]][1]))
                       for i, q in phi.labels if i in out.strands)
        return md.LabeledInjection(out.m, out.n, out.pairs, labels)

    compose = md.compose
    monkeypatch.setattr(md, "compose", wrong_order)
    wrong = oracle_check_model(model, 500, 1)
    kinds = {f["kind"] for f in wrong[1]}
    assert "functoriality" in kinds and "assoc" not in kinds
    assert md.check_model(model, 500) == (checks, failures) != wrong


def sign_characters(group):
    """Every homomorphism from the group to {+-1}."""
    order = group.order
    return [sign for sign in ((1,) + rest for rest in itertools.product(
                (1, -1), repeat=order - 1))
            if all(sign[group.mul(a, b)] == sign[a] * sign[b]
                   for a in range(order) for b in range(order))]


def pointed_involution(rng, states):
    """A random involution of range(states) that fixes 0."""
    rest = rng.sample(range(1, states), states - 1)
    out = list(range(states))
    for t in range(rng.randint(0, (states - 1) // 2)):
        a, b = rest[2 * t], rest[2 * t + 1]
        out[a], out[b] = b, a
    return tuple(out)


def cyclic_action(rng, order, states):
    """g^q for q in cyclic:order, g a random permutation of range(states)
    fixing 0 whose cycle lengths divide the order."""
    rest = rng.sample(range(1, states), states - 1)
    gen = list(range(states))
    while rest:
        length = rng.choice([d for d in range(1, len(rest) + 1)
                             if order % d == 0])
        cycle, rest = rest[:length], rest[length:]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            gen[a] = b
    action = [tuple(range(states))]
    for _ in range(1, order):
        action.append(tuple(gen[x] for x in action[-1]))
    return tuple(action)


SYM3 = FiniteGroup.symmetric(3)


def random_model(rng, kind):
    """A random model of one kind: ``cyclic`` (cyclic:1..6 acting
    through a random permutation), ``left`` and ``conj`` (sym:3 acting
    on itself by left multiplication and by conjugation), each with a
    random sign character and a random pointed involution as its
    reflection."""
    if kind == "cyclic":
        group = FiniteGroup.cyclic(rng.randint(1, 6))
        states = rng.randint(1, 5)
        action = cyclic_action(rng, group.order, states)
    else:
        group, states = SYM3, 7
        move = group.mul if kind == "left" else group.conj
        action = tuple((0,) + tuple(1 + move(q, g) for g in range(6))
                       for q in range(6))
    return md.MonodromyModel(
        group=group, states=states, action=action,
        sign=rng.choice(sign_characters(group)),
        reflection=pointed_involution(rng, states))


def test_check_model_draws_nothing(monkeypatch):
    # the most samples the bound accepts cost nothing: check_model draws
    # nothing
    monkeypatch.setattr(cost, "BOUND", 10**12)
    start = time.perf_counter()
    for model in (SWAP_MODEL, NONCOMMUTING_MODEL, regular_model(SYM3)):
        checks, failures = md.check_model(model, 10**11)
        assert checks["composition_assoc"] == checks["act_functorial"] \
            == 10**11
        assert md.check_model(model, 0) == (
            {**checks, "composition_assoc": 0, "act_functorial": 0}, failures)
    assert time.perf_counter() - start < 2.0


# enough draws for the sampling oracle to find the failure of every
# failing model that the test below generates
ORACLE_SAMPLES = 2000


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(model_seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["cyclic", "left", "conj"]))
def test_check_model_matches_the_oracle_on_random_models(model_seed, kind):
    # the sampling oracle finds a failure exactly when check_model does,
    # with the same counts, and every witness fails again
    model = random_model(random.Random(model_seed), kind)
    checks, failures = md.check_model(model, ORACLE_SAMPLES)
    expect_checks, expect = oracle_check_model(model, ORACLE_SAMPLES, 0)
    assert checks == expect_checks
    assert bool(failures) == bool(expect), model
    assert len(failures) <= 1
    assert all(replays(model, f) for f in failures + expect)


def test_random_models_fail_every_sampled_check():
    # check_model fails exactly when some label has sign -1 and the
    # reflection does not commute with the action; the random models
    # include passing and failing ones of every kind
    verdicts = collections.Counter()
    for t in range(300):
        for kind in ("cyclic", "left", "conj"):
            model = random_model(random.Random(t), kind)
            failures = md.check_model(model, 0)[1]
            assert bool(failures) == (any(s == -1 for s in model.sign)
                                      and not model.reflection_commutes())
            assert all(replays(model, f) for f in failures)
            verdicts[kind, bool(failures)] += 1
    assert set(verdicts) == {(kind, v) for kind in ("cyclic", "left", "conj")
                             for v in (True, False)}


# groups with 0, 1 and 2 generators, abelian and not
ORACLE_GROUPS = [FiniteGroup.cyclic(n) for n in (1, 2, 4, 6)] + [
    FiniteGroup.dihedral(3), FiniteGroup.dihedral(4), SYM3,
    FiniteGroup.quaternion()]


def coset_action(rng, group):
    """Q acting by left multiplication on the left cosets of a random
    subgroup, in one or two copies, on the states 1.. in random order
    beside the basepoint 0, and the involution swapping the copies
    (which commutes with the action) or None."""
    order = group.order
    sub = group.closure(rng.sample(range(order),
                                   min(order, rng.randint(0, 2))))
    reps = sorted({min(group.mul(g, h) for h in sub) for g in range(order)})
    which = {group.mul(r, h): c for c, r in enumerate(reps) for h in sub}
    copies = rng.randint(1, 2)
    points = [(c, t) for t in range(copies) for c in range(len(reps))]
    code = dict(zip(points, rng.sample(range(1, len(points) + 1),
                                       len(points))))
    action = tuple((0,) + tuple(
        code[which[group.mul(q, reps[c])], t]
        for c, t in sorted(points, key=code.get)) for q in range(order))
    states = len(points) + 1
    swap = None
    if copies == 2:
        swap = list(range(states))
        for c in range(len(reps)):
            swap[code[c, 0]], swap[code[c, 1]] = code[c, 1], code[c, 0]
        swap = tuple(swap)
    return action, states, swap


def oracle_model(rng, group):
    """The arguments of a MonodromyModel over ``group``: a coset action,
    changed in one row about half the time (two entries swapped, the
    basepoint moved, an entry repeated, or another row copied), a sign
    character or a random sign, and a reflection that is the identity,
    the swap of two copies, a random pointed involution, or a random
    permutation."""
    action, states, swap = coset_action(rng, group)
    action = [list(row) for row in action]
    row = action[rng.randrange(group.order)]
    change = rng.choice(["none"] * 4 + ["swap", "swap", "base", "repeat",
                                        "copy"])
    if change == "swap" and states >= 3:
        a, b = rng.sample(range(1, states), 2)
        row[a], row[b] = row[b], row[a]
    elif change == "base" and states >= 2:
        b = rng.randrange(1, states)
        row[0], row[b] = row[b], row[0]
    elif change == "repeat" and states >= 2:
        row[rng.randrange(states)] = row[rng.randrange(states)]
    elif change == "copy":
        row[:] = action[rng.randrange(group.order)]
    if rng.random() < 0.8:
        sign = rng.choice(sign_characters(group))
    else:
        sign = (1,) + tuple(rng.choice((1, -1))
                            for _ in range(group.order - 1))
    refl = rng.choice(["identity", "swap", "swap", "involution", "involution",
                       "any"])
    if refl == "swap" and swap is not None:
        reflection = swap
    elif refl == "involution":
        reflection = pointed_involution(rng, states)
    elif refl == "any":
        reflection = tuple(rng.sample(range(states), states))
    else:
        reflection = tuple(range(states))
    return (group, states, tuple(map(tuple, action)), sign, reflection)


def full_loop_accepts(group, states, action, sign, reflection):
    """Whether the arguments make a model, checked on every pair of
    labels: a left action by pointed permutations, a sign homomorphism
    and a pointed involution."""
    labels = range(group.order)
    perm = list(range(states))
    return (all(sorted(row) == perm and row[0] == 0 for row in action)
            and sorted(reflection) == perm and reflection[0] == 0
            and all(reflection[reflection[z]] == z for z in perm)
            and all(sign[group.mul(a, b)] == sign[a] * sign[b]
                    and all(action[group.mul(a, b)][z]
                            == action[a][action[b][z]] for z in perm)
                    for a in labels for b in labels))


def full_loop_fails(group, states, action, sign, reflection):
    """Whether pulling states back along strands fails to be functorial
    for some pair of labels q1, q2 and state s."""
    ops = [tuple(reflection[z] if sign[q] == -1 else z
                 for z in action[group.inv(q)]) for q in range(group.order)]
    return any(ops[group.mul(q2, q1)][s] != ops[q1][ops[q2][s]]
               for q1 in range(group.order) for q2 in range(group.order)
               for s in range(states))


def oracle_verdict(group, args):
    """For a model's arguments: whether ``MonodromyModel`` accepts them
    (compared with :func:`full_loop_accepts`), and if so whether
    ``check_model`` fails (compared with :func:`full_loop_fails`), with
    every witness failing again."""
    try:
        model = md.MonodromyModel(*args)
    except md.MonodromyError:
        assert not full_loop_accepts(*args), args
        return "rejected"
    assert full_loop_accepts(*args), args
    failures = md.check_model(model, 0)[1]
    assert bool(failures) == full_loop_fails(*args), args
    assert len(failures) <= 1 and all(replays(model, f) for f in failures)
    return "fails" if failures else "passes"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(group=st.sampled_from(ORACLE_GROUPS),
       model_seed=st.integers(0, 2**32 - 1))
def test_generator_checks_match_full_loops(group, model_seed):
    # the action, the sign and functoriality checked on generators
    # decide what checking every pair of labels decides
    oracle_verdict(group, oracle_model(random.Random(model_seed), group))


def test_oracle_models_reach_every_verdict():
    # the models of the property above are rejected, pass and fail, and
    # over cyclic:1, which has no generators, rejected and passing ones
    verdicts = collections.Counter()
    for t in range(100):
        for group in ORACLE_GROUPS:
            args = oracle_model(random.Random(t), group)
            verdicts[group.order == 1, oracle_verdict(group, args)] += 1
    assert set(verdicts) == {(False, "rejected"), (False, "passes"),
                             (False, "fails"), (True, "rejected"),
                             (True, "passes")}, verdicts


def test_model_validation():
    # a non-identity action of the trivial group, which has no
    # generators, is not a group action
    with pytest.raises(md.MonodromyError, match="left group action"):
        md.MonodromyModel(group=FiniteGroup.cyclic(1), states=3,
                          action=((0, 2, 1),), sign=(1,),
                          reflection=(0, 1, 2))
    with pytest.raises(md.MonodromyError):
        md.MonodromyModel(group=Z2, states=2, action=((0, 1), (0, 1)),
                          sign=(1, 1), reflection=(1, 0))  # moves basepoint
    with pytest.raises(md.MonodromyError):
        md.MonodromyModel(group=Z2, states=2, action=((0, 1), (0, 1)),
                          sign=(-1, 1), reflection=(0, 1))  # sign(e) != 1
    with pytest.raises(md.MonodromyError):
        md.MonodromyModel(group=Z2, states=3, action=((0, 1, 2), (0, 1, 2)),
                          sign=(1, -1), reflection=(0, 1, 1))  # not involution


def test_linearize_shapes_and_degree():
    one = md.MonodromyModel(
        group=FiniteGroup.cyclic(1), states=1, action=((0,),),
        sign=(1,), reflection=(0,),
    )
    sys1 = linearize(one, 5)
    assert sys1.dims == [1] * 6
    assert cs.degree(sys1, 3).value == 0

    sys2 = linearize(SWAP_MODEL, 5)
    assert sys2.dims == [3**k for k in range(6)]
    # sigma_1 on pairs of states swaps the two digits of the code, and
    # I_1 appends the basepoint 0: unit columns
    assert sys2.gens[2][0] == cs.UnitColumns([0, 3, 6, 1, 4, 7, 2, 5, 8], [1] * 9)
    assert sys2.gen_invs[2][0] == sys2.gens[2][0]
    assert sys2.structs[1] == cs.UnitColumns([0, 3, 6], [1] * 3)
    res = cs.delta(sys2)
    assert res.system.dims == [2 * 3**k for k in range(5)]
    assert cs.degree(sys2, 3).value == ">cutoff"
    assert check_extension(sys2, ell_max=2)["passed"]

    # |Z| = 2, trivial labels: delta ranks (|Z|-1) * |Z|^k
    two = md.MonodromyModel(
        group=FiniteGroup.cyclic(1), states=2, action=((0, 1),),
        sign=(1,), reflection=(0, 1),
    )
    sys3 = linearize(two, 5)
    assert cs.delta(sys3).system.dims == [2**k for k in range(5)]
    assert cs.degree(sys3, 3).value == ">cutoff"


def test_injections_and_models_compare_by_every_field():
    # compose is checked against identities with ==, and a failure
    # reports the injection by its repr
    psi = md.LabeledInjection.make(2, 3, {1: 3, 2: 1}, {2: 1})
    same = md.LabeledInjection(2, 3, ((1, 3), (2, 1)), ((1, 0), (2, 1)))
    assert psi == same and hash(psi) == hash(same)
    for other in (md.LabeledInjection.make(2, 3, {1: 3, 2: 1}),
                  md.LabeledInjection.make(2, 4, {1: 3, 2: 1}, {2: 1}),
                  md.LabeledInjection.make(3, 3, {1: 3, 2: 1}, {2: 1}),
                  md.LabeledInjection.make(2, 3, {1: 3}, {})):
        assert psi != other
    assert repr(psi) == ("LabeledInjection(m=2, n=3, pairs=((1, 3), (2, 1)), "
                         "labels=((1, 0), (2, 1)))")
    assert SWAP_MODEL != TRIVIAL_MODEL


def test_json_round_trip():
    spec = {
        "states": 3,
        "action": [[0, 1, 2], [0, 2, 1]],
        "sign": [1, -1],
        "reflection": [0, 2, 1],
    }
    model = md.MonodromyModel.from_json(spec, Z2)
    assert model == SWAP_MODEL
