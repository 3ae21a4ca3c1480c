"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Run with `pytest tests/test_acceptance.py -v`.
"""

import itertools
import json
import math
import os
import time

import pytest
from braid_oracle import fox_complex
from system_oracle import (
    check_extension,
    constant_system,
    direct_sum,
    tensor,
)

from hurstab import braid
from hurstab import cli
from hurstab import coeffsys as cs
from hurstab import experiments as xp
from hurstab import homology as hm
from hurstab import monodromy as md
from hurstab import resolution as rs
from hurstab.groups import FiniteGroup, conjugacy_closure

S3 = FiniteGroup.symmetric(3)
D4 = FiniteGroup.dihedral(4)
Z6 = FiniteGroup.cyclic(6)
Z2 = FiniteGroup.cyclic(2)
CENTRAL_Z2 = conjugacy_closure({1}, Z2)
TRANSPOSITIONS = conjugacy_closure({S3.element_names.index("(1 2)")}, S3)


def all_classes(group):
    return [conjugacy_closure({cl[0]}, group) for cl in group.conjugacy_classes()]


TEST_MATRIX = [(g, c) for g in (S3, D4, Z6) for c in all_classes(g)]


def report(n, label, t0):
    print(f"ACCEPTANCE {n} PASS ({time.time() - t0:.1f}s): {label}")


def test_criterion_1_braid_action_soundness():
    t0 = time.time()
    for group, classes in TEST_MATRIX:
        for k in range(2, 6):
            for entries in itertools.product(classes.elements, repeat=k):
                for i in range(1, k - 1):
                    lhs = braid.act_on_entries(
                        [(i, 1), (i + 1, 1), (i, 1)], entries, group
                    )
                    rhs = braid.act_on_entries(
                        [(i + 1, 1), (i, 1), (i + 1, 1)], entries, group
                    )
                    assert lhs == rhs
                for i, j in itertools.combinations(range(1, k), 2):
                    if j - i >= 2:
                        assert braid.act_on_entries(
                            [(i, 1), (j, 1)], entries, group
                        ) == braid.act_on_entries(
                            [(j, 1), (i, 1)], entries, group
                        )
                for i in range(1, k):
                    round_trip = braid.act_on_entries(
                        [(i, 1), (i, -1)], entries, group
                    )
                    assert round_trip == tuple(entries)
                    moved = braid.act_on_entries([(i, 1)], entries, group)
                    assert group.product(moved) == group.product(entries)
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 1 exceeded its 10 s budget: {elapsed:.1f}s"
    report(1, "braid relations, inverses, total product (S3, D4, Z/6; k<=5)", t0)


def test_criterion_2_orbit_ground_truth():
    t0 = time.time()
    path = os.path.join(
        os.path.dirname(__file__), "fixtures",
        "orbit_counts_s3_transpositions.json",
    )
    with open(path) as fh:
        fixture = json.load(fh)
    assert fixture["1"] == 3 and fixture["2"] == 5
    for k_str, count in fixture.items():
        assert len(braid.orbits(TRANSPOSITIONS, int(k_str))) == count
    report(2, "orbit counts match the committed brute-force fixture", t0)


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    from hurstab.braid import orbits as orbit_part

    for group, classes in TEST_MATRIX:
        for k in range(2, 7):
            modules = [
                rs.TrivialModule(k, 1),
                rs.HurwitzModule(classes, k, classes.elements[0]),
            ]
            for module in modules:
                sal = rs.specialize(rs.salvetti_complex(k, min(2, k - 1)), module)
                fox = rs.specialize(fox_complex(k), module)
                assert hm.homology(sal, 0) == hm.homology(fox, 0)
                if k >= 3:
                    assert hm.homology(sal, 1) == hm.homology(fox, 1)
            # k = 2 closed forms: coinvariants and invariants of the move
            if k == 2:
                module = modules[1]
                sal = rs.specialize(rs.salvetti_complex(2, 1), module)
                n_orb = len(orbit_part(classes, 2))
                assert hm.homology(sal, 0) == hm.HomologyGroup(n_orb)
                assert hm.homology(sal, 1) == hm.HomologyGroup(n_orb)
        # k = 3, trivial coefficients: H_2 = 0
        sal3 = rs.specialize(rs.salvetti_complex(3, 2), rs.TrivialModule(3, 1))
        assert hm.homology(sal3, 2) == hm.HomologyGroup(0)
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 3 exceeded its 2 min budget: {elapsed:.1f}s"
    report(3, "Salvetti = Fox oracle in degrees 0,1; closed forms", t0)


@pytest.fixture(scope="module")
def z_grid():
    return xp.stability_table(Z2, CENTRAL_Z2, 1, i_max=2, k_max=9, coeff=hm.Z)


def test_criterion_4_stability_ranges(z_grid):
    t0 = time.time()
    assert z_grid.asserted and z_grid.assertion_passed, z_grid.range_violations
    for coeff in (hm.Q, hm.Coeff("Fp", 2), hm.Coeff("Fp", 3)):
        rep = xp.stability_table(Z2, CENTRAL_Z2, 1, i_max=2, k_max=9,
                                 coeff=coeff)
        assert rep.assertion_passed, (str(coeff), rep.range_violations)
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 4 exceeded its 5 min budget: {elapsed:.1f}s"
    report(4, "stability ranges over Z (2i+4/2i+2) and fields (2i+2/2i), "
              "|c|=1, i<=2, k<=9", t0)


def test_criterion_5_split_injectivity(z_grid):
    t0 = time.time()
    assert z_grid.coeff == "Z" and z_grid.asserted
    assert z_grid.maps and all(
        m.is_split_injective for m in z_grid.maps.values())
    report(5, "every Z-grid stabilisation map is split-injective", t0)


def test_criterion_6_degree_machinery():
    t0 = time.time()
    # (a) singleton class: degree 0
    sys_z2 = cs.build_hurwitz_system(Z2, CENTRAL_Z2, 1, 6)
    assert cs.degree(sys_z2, 4).value == 0
    # (b) S3 transpositions: >cutoff at 4 with trace exactly 2 * 3^k
    sys_s3 = cs.build_hurwitz_system(
        S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 6
    )
    rep = cs.degree(sys_s3, 4)
    assert rep.value == ">cutoff"
    assert rep.delta_ranks[1] == [2 * 3**k for k in range(6)]
    # (c) Kunneth from H(S^1): degree(F_i) = i, rank F_i(k) = C(k,i)
    point, circle = cs.GradedModule.point(), cs.GradedModule.circle()
    for i in range(0, 4):
        F = cs.build_kunneth_system(point, circle, i, 10)
        assert F.dims == [math.comb(k, i) for k in range(11)]
        assert cs.degree(F, max(i, 4)).value == i
    report(6, "degree 0 for |c|=1; 2*3^k trace for S3; Kunneth degree = i", t0)


def _mutant_transposed_generator(sys_):
    m = _clone(sys_)
    k = 3
    gen = m.gens[k][0]
    transposed = [dict() for _ in range(len(gen))]
    for j, col in enumerate(cs.columns(gen)):
        for r, v in col.items():
            transposed[r][j] = v
    m.gens[k] = [cs.as_matrix(transposed)] + list(m.gens[k][1:])
    m.gen_invs[k] = [gen] + list(m.gen_invs[k][1:])
    return m


def _mutant_prepend_structure(sys_):
    # appended tuples are code * |c| + g_digit; prepending puts the
    # stabiliser digit in front instead: g_digit * |c|^k + code
    m = _clone(sys_)
    base = sys_.dims[1]
    structs = []
    for k, cols in enumerate(map(cs.columns, sys_.structs)):
        size = sys_.dims[k]
        new_cols = []
        for code in range(size):
            (app_row,) = cols[code].keys()
            g_digit = app_row % base
            new_cols.append({g_digit * size + code: 1})
        structs.append(cs.as_matrix(new_cols))
    m.structs = structs
    return m


def _mutant_doubled_structure(sys_):
    m = _clone(sys_)
    structs = []
    for cols in map(cs.columns, sys_.structs):
        new_cols = []
        for col in cols:
            (r, v), = col.items()
            other = r + 1 if r + 1 < max(rr for c in cols for rr in c) else r - 1
            new_cols.append({r: v, other: v})
        structs.append(new_cols)
    m.structs = structs
    return m


def _mutant_identity_generator(sys_):
    m = _clone(sys_)
    k = 4
    n = sys_.dims[k]
    ident = cs.identity(n)
    m.gens[k] = [sys_.gens[k][0], ident] + list(sys_.gens[k][2:])
    m.gen_invs[k] = [sys_.gen_invs[k][0], ident] + list(sys_.gen_invs[k][2:])
    return m


def _mutant_scrambled_high_strand(sys_):
    m = _clone(sys_)
    k = 5
    m.gens[k] = list(sys_.gens[k][:3]) + [sys_.gens[k][0]]
    m.gen_invs[k] = list(sys_.gen_invs[k][:3]) + [sys_.gen_invs[k][0]]
    return m


def _clone(sys_):
    return cs.CoeffSystem(
        K_max=sys_.K_max,
        dims=list(sys_.dims),
        gens=[list(g) for g in sys_.gens],
        gen_invs=[list(g) for g in sys_.gen_invs],
        structs=list(sys_.structs),
    )


MUTANTS = [
    _mutant_transposed_generator,
    _mutant_prepend_structure,
    _mutant_doubled_structure,
    _mutant_identity_generator,
    _mutant_scrambled_high_strand,
]


def test_criterion_7_extension_criterion():
    t0 = time.time()
    for group, classes in TEST_MATRIX:
        system = cs.build_hurwitz_system(group, classes, classes.elements[0], 6)
        rep = check_extension(system, ell_max=3)
        assert rep["passed"], (group.name, classes.elements, rep["failure"])
    base = cs.build_hurwitz_system(
        S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 6
    )
    for mutate in MUTANTS:
        mutant = mutate(base)
        rep = check_extension(mutant, ell_max=3)
        assert not rep["passed"], mutate.__name__
        assert rep["failure"] is not None and "word" in rep["failure"]
    report(7, "extension diagrams pass on the matrix; 5 mutants fail "
              "with witnesses", t0)


def test_delta_refuses_maps_not_defined_on_cokernels():
    # prepending the stabiliser makes an image of I_k that sigma_1 does
    # not keep, so no map is induced on the cokernel
    base = cs.build_hurwitz_system(
        S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 6
    )
    mutant = _mutant_prepend_structure(base)
    # the same with every structure map negated, through the Smith form
    negated = _clone(mutant)
    negated.structs = [cs.as_matrix([{r: -v for r, v in col.items()}
                                     for col in cs.columns(m)])
                       for m in mutant.structs]
    for system in (mutant, negated):
        for run in (cs.delta, lambda system: cs.degree(system, 4)):
            with pytest.raises(cs.CoeffSystemError,
                               match="^generator at k=2, i=1 does not"):
                run(system)


def test_delta_refuses_structure_rows_out_of_range():
    # doubling the one entry of I_0 reaches row -1 of F(1)
    base = cs.build_hurwitz_system(
        S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 6
    )
    mutant = _mutant_doubled_structure(base)
    with pytest.raises(cs.CoeffSystemError,
                       match="^structure map at k=0 has an entry in row -1"):
        cs.delta(mutant)


def test_criterion_8_monodromy_model():
    t0 = time.time()
    group = Z2
    model = md.MonodromyModel(
        group=group,
        states=3,
        action=((0, 1, 2), (0, 2, 1)),
        sign=(1, -1),
        reflection=(0, 2, 1),
    )
    # exhaustive composition identity/associativity, objects <= 3, |Q| = 2
    morphisms = []
    for m in range(0, 4):
        for n in range(0, 4):
            for dom_size in range(0, min(m, n) + 1):
                for dom in itertools.combinations(range(1, m + 1), dom_size):
                    for img in itertools.permutations(range(1, n + 1), dom_size):
                        for labels in itertools.product((0, 1), repeat=dom_size):
                            morphisms.append(
                                md.LabeledInjection.make(
                                    m, n,
                                    dict(zip(dom, img)),
                                    dict(zip(dom, labels)),
                                )
                            )
    index = {phi: t for t, phi in enumerate(morphisms)}
    by_shape = {}
    for phi in morphisms:
        by_shape.setdefault((phi.m, phi.n), []).append(phi)
    for (m, n), phis in by_shape.items():
        ident_n = md.LabeledInjection.identity(n)
        ident_m = md.LabeledInjection.identity(m)
        for phi in phis:
            assert md.compose(ident_n, phi, group) == phi
            assert md.compose(phi, ident_m, group) == phi
    comp = {}
    for (b, c), psis in by_shape.items():
        for (a, b2), phis in by_shape.items():
            if b2 != b:
                continue
            for psi in psis:
                pi = index[psi]
                for phi in phis:
                    comp[(pi, index[phi])] = index[
                        md.compose(psi, phi, group)
                    ]
    for (b, c), psis in by_shape.items():
        chis = [x for (c2, _), xs in by_shape.items() if c2 == c for x in xs]
        phis = [x for (_, b2), xs in by_shape.items() if b2 == b for x in xs]
        for psi in psis:
            pi = index[psi]
            for chi in chis:
                left = comp[(index[chi], pi)]
                for phi in phis:
                    fi = index[phi]
                    assert comp[(left, fi)] == comp[(index[chi], comp[(pi, fi)])]
    # act functoriality on 1000 seeded random triples
    import random

    rng = random.Random(123)

    def rand_inj(m, n):
        size = rng.randint(0, min(m, n))
        dom = sorted(rng.sample(range(1, m + 1), size))
        img = rng.sample(range(1, n + 1), size)
        return md.LabeledInjection.make(
            m, n, dict(zip(dom, img)), {i: rng.randrange(2) for i in dom}
        )

    for _ in range(1000):
        a, b, c = (rng.randint(0, 4) for _ in range(3))
        phi, psi = rand_inj(a, b), rand_inj(b, c)
        state = tuple(rng.randrange(3) for _ in range(c))
        assert md.act(model, md.compose(psi, phi, group), state) == md.act(
            model, phi, md.act(model, psi, state)
        )
    # blank-fill on all empty-domain morphisms with n <= 3
    for m in range(0, 4):
        for n in range(0, 4):
            mu = md.LabeledInjection.make(m, n, {})
            for state in itertools.product(range(3), repeat=n):
                assert md.act(model, mu, state) == (0,) * m
    elapsed = time.time() - t0
    assert elapsed < 30, f"criterion 8 exceeded its 30 s budget: {elapsed:.1f}s"
    report(8, "labeled-injection laws exhaustive; act functorial; blanks "
              "fill with the basepoint", t0)


def test_criterion_9_degree_laws():
    t0 = time.time()
    point, circle = cs.GradedModule.point(), cs.GradedModule.circle()
    pool = {i: cs.build_kunneth_system(point, circle, i, 8) for i in range(4)}
    pairs_checked = 0
    for a in range(4):
        for b in range(4):
            s = direct_sum(pool[a], pool[b])
            assert cs.degree(s, 7).value == max(a, b)
            t = tensor(pool[a], pool[b])
            tv = cs.degree(t, 7).value
            assert isinstance(tv, int) and tv <= a + b
            pairs_checked += 1
    for rank in (1, 2, 3, 4):
        t = tensor(pool[2], constant_system(8, rank))
        tv = cs.degree(t, 7).value
        assert isinstance(tv, int) and tv <= 2
        pairs_checked += 1
    assert pairs_checked >= 20
    report(9, f"degree laws on {pairs_checked} generated pairs "
              "(max for sums, subadditive for tensors)", t0)


def test_criterion_10_determinism_and_cache(tmp_path):
    t0 = time.time()
    cache_dir = str(tmp_path / "cache")
    argv = [
        "stability", "--group", "cyclic:2", "--class", "elems:[1]",
        "--imax", "2", "--kmax", "9", "--coeff", "Z", "--format", "json",
        "--cache-dir", cache_dir,
    ]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    out3 = tmp_path / "run3.json"
    assert cli.run(argv + ["--out", str(out1)]) == 0
    assert cli.run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert cli.run(argv + ["--no-cache", "--out", str(out3)]) == 0
    fresh = json.loads(out3.read_text())
    cached = json.loads(out1.read_text())
    assert fresh["report"] == cached["report"]
    report(10, "byte-identical reports across reruns, cache on and off", t0)
