"""The Hurwitz action on digit codes and the unit-column form of
coefficient systems against oracles.

``HurwitzModule``'s permutations and the Hurwitz generators built from
pair tables are both checked against a per-tuple oracle: the tuples of
c^k, moved letter by letter by ``braid.act_on_entries`` and looked up in
a dict from tuple to code.  ``delta`` and ``degree`` are checked against
a copy of the difference operator on sparse column dicts, the form
every matrix had before unit columns: objectwise cokernels as in
``_CokernelData``, induced maps as in ``_induced``, naturality and
inverses by composing and inverting sparse columns.  The one extension
check, ``system_oracle.check_extension``, which applies each generator
and structure map to one basis vector at a time, must pass Hurwitz,
Kunneth, linearised and scrambled systems, and fail mutants whose
swapped or transposed generators the diagrams tell apart.
"""

import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st
from system_oracle import (
    check_extension,
    constant_system,
    direct_sum,
    linearize,
    tensor,
)

from hurstab import braid
from hurstab import coeffsys as cs
from hurstab import intmat
from hurstab import monodromy as md
from hurstab.groups import FiniteGroup, conjugacy_closure
from hurstab.resolution import HurwitzModule

GROUPS = ([FiniteGroup.cyclic(n) for n in range(1, 7)]
          + [FiniteGroup.dihedral(n) for n in range(2, 6)]
          + [FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)])


@st.composite
def hurwitz_systems(draw, limit=5000, k_top=5):
    """A builtin group, a class set, a stabiliser and K_max <= k_top with
    |c|^K_max <= limit."""
    group = draw(st.sampled_from(GROUPS))
    picks = draw(st.sets(st.integers(0, group.order - 1), min_size=1, max_size=3))
    classes = conjugacy_closure(picks, group)
    k_max = k_top
    while len(classes) ** k_max > limit:
        k_max -= 1
    K = draw(st.integers(0, k_max))
    g_hat = draw(st.sampled_from(classes.elements))
    return group, classes, g_hat, K


def oracle_codes(classes, k):
    """The tuples of c^k in lexicographic order, and the dict from each
    tuple to its code."""
    tuples = list(itertools.product(classes.elements, repeat=k))
    return tuples, {t: code for code, t in enumerate(tuples)}


def oracle_word_permutation(classes, k, letters):
    tuples, code = oracle_codes(classes, k)
    group = classes.group
    return [code[braid.act_on_entries(letters, t, group)] for t in tuples]


def oracle_stabilisation_rows(classes, k, g_hat):
    _, code = oracle_codes(classes, k + 1)
    return [code[t + (g_hat,)]
            for t in itertools.product(classes.elements, repeat=k)]


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(hurwitz_systems(), st.data())
def test_module_matches_per_tuple_oracle(case, data):
    _, classes, g_hat, k = case
    letters = data.draw(st.lists(
        st.tuples(st.integers(1, max(k - 1, 1)), st.sampled_from((1, -1))),
        max_size=8 if k >= 2 else 0))
    module = HurwitzModule(classes, k, g_hat)
    assert module.dim == len(classes) ** k
    assert module.word_permutation(letters) == \
        oracle_word_permutation(classes, k, letters)
    target = HurwitzModule(classes, k + 1, g_hat)
    assert list(module.stabilisation_rows(target)) == \
        oracle_stabilisation_rows(classes, k, g_hat)


def _assert_generators_match_oracle(classes, g_hat, system):
    for k in range(system.K_max + 1):
        assert system.dims[k] == len(classes) ** k
        for i in range(1, k):
            for sign in (1, -1):
                mat = system.generator(k, i, sign)
                assert isinstance(mat, cs.UnitColumns)
                assert cs.columns(mat) == [{r: 1} for r in oracle_word_permutation(
                    classes, k, [(i, sign)])]
        if k < system.K_max:
            rows = oracle_stabilisation_rows(classes, k, g_hat)
            assert cs.columns(system.structs[k]) == [{r: 1} for r in rows]


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(hurwitz_systems())
def test_pair_table_generators_match_word_permutations(case):
    group, classes, g_hat, K = case
    system = cs.build_hurwitz_system(group, classes, g_hat, K)
    _assert_generators_match_oracle(classes, g_hat, system)


def test_pair_table_generators_on_sym4_and_dihedral():
    for group, rep in ((FiniteGroup.symmetric(4), 1), (FiniteGroup.dihedral(4), 1),
                       (FiniteGroup.symmetric(3), 3), (FiniteGroup.cyclic(5), 2)):
        classes = conjugacy_closure({rep}, group)
        g_hat = classes.elements[-1]
        system = cs.build_hurwitz_system(group, classes, g_hat, 5)
        _assert_generators_match_oracle(classes, g_hat, system)


# ---------------------------------------------------------------------------
# the difference operator on sparse column dicts


def cols_compose(outer, inner):
    return [cs.cols_apply(outer, col) for col in inner]


def oracle_inverse(cols, n):
    if all(len(col) == 1 for col in cols) and \
            sorted(r for col in cols for r in col) == list(range(n)) and \
            all(v in (1, -1) for col in cols for v in col.values()):
        inv = [None] * n
        for j, col in enumerate(cols):
            (r, v), = col.items()
            inv[r] = {j: v}
        return inv
    inv = intmat.invert_unimodular(dict(enumerate(cols)), n)
    return [inv[j] for j in range(n)]


NOT_SPLIT = ("structure map is not split injective objectwise "
             "(non-unit invariant factors); degree undefined at this stage")


def unit_column_rows(cols):
    rows, seen = [], set()
    for col in cols:
        if len(col) != 1:
            return None
        (r, v), = col.items()
        if v != 1 or r in seen:
            return None
        seen.add(r)
        rows.append(r)
    return rows


class OracleCokernel:
    def __init__(self, cols, n_small, n_big):
        image_rows = unit_column_rows(cols)
        if image_rows is not None:
            image = set(image_rows)
            self.keep = [r for r in range(n_big) if r not in image]
            self.pos = {r: t for t, r in enumerate(self.keep)}
            self.rank = len(self.keep)
            self.split_cols = [dict() for _ in range(n_big)]
            for src, r in enumerate(image_rows):
                self.split_cols[r] = {src: 1}
            return
        snf = intmat.smith_normal_form(
            intmat.sparse_transpose(dict(enumerate(cols))), (n_big, n_small))
        if snf.rank != n_small or any(d != 1 for d in snf.diag if d):
            raise cs.DeltaUndefined(NOT_SPLIT)
        self.keep = None
        self.rank = n_big - n_small
        self.proj_rows = [snf.u_rows[k] for k in range(n_small, n_big)]
        self.reps = [snf.uinv_cols[k] for k in range(n_small, n_big)]
        head = intmat.sparse_transpose({k: snf.u_rows[k] for k in range(n_small)})
        V = [snf.v_cols[k] for k in range(n_small)]
        self.split_cols = [cs.cols_apply(V, head.get(j, {})) for j in range(n_big)]

    def project_vec(self, vec):
        if self.keep is not None:
            return {self.pos[r]: v for r, v in vec.items() if r in self.pos}
        out = {}
        for t, row in enumerate(self.proj_rows):
            acc = sum(row.get(r, 0) * v for r, v in vec.items())
            if acc:
                out[t] = acc
        return out

    def images(self, cols):
        if self.keep is not None:
            return [cols[r] for r in self.keep]
        return [cs.cols_apply(cols, rep) for rep in self.reps]


def oracle_induced(src, tgt, cols):
    return [tgt.project_vec(c) for c in src.images(cols)]


NOT_CARRIED = ("{} does not carry the image of I_k into that of the "
               "target's structure map")


def oracle_carries_image(src_struct, tgt, cols):
    return not any(tgt.project_vec(cs.cols_apply(cols, col)) for col in src_struct)


def oracle_delta(dims, gens, structs):
    """(dims, gens, gen_invs, structs, naturally_split) of the
    difference system, all matrices as sparse column dicts."""
    K = len(dims) - 1
    coks = [OracleCokernel(structs[k], dims[k], dims[k + 1]) for k in range(K)]
    natural = True
    new_gens = []
    for k in range(K):
        rho = coks[k].split_cols
        mats = []
        for i in range(1, k):
            big = gens[k + 1][i - 1]
            if not oracle_carries_image(structs[k], coks[k], big):
                raise cs.CoeffSystemError(NOT_CARRIED.format(
                    f"generator at k={k}, i={i}"))
            mats.append(oracle_induced(coks[k], coks[k], big))
            if cols_compose(gens[k][i - 1], rho) != cols_compose(rho, big):
                natural = False
        new_gens.append(mats)
    new_structs = []
    for k in range(K - 1):
        comp = cols_compose(gens[k + 2][k], structs[k + 1])
        if not oracle_carries_image(structs[k], coks[k + 1], comp):
            raise cs.CoeffSystemError(NOT_CARRIED.format(
                f"Ts(iota_k) at k={k}, i={k + 1}"))
        new_structs.append(oracle_induced(coks[k], coks[k + 1], comp))
        if cols_compose(structs[k], coks[k].split_cols) != \
                cols_compose(coks[k + 1].split_cols, comp):
            natural = False
    new_dims = [cok.rank for cok in coks]
    invs = [[oracle_inverse(m, new_dims[k]) for m in mats]
            for k, mats in enumerate(new_gens)]
    return new_dims, new_gens, invs, new_structs, natural


def inverses(system):
    """Every inverse generator, read through ``generator``."""
    return [[system.generator(k, i, -1) for i in range(1, k)]
            for k in range(system.K_max + 1)]


def as_columns(system):
    return (list(system.dims),
            [[cs.columns(m) for m in mats] for mats in system.gens],
            [[cs.columns(m) for m in mats] for mats in inverses(system)],
            [cs.columns(m) for m in system.structs])


def outcome(fn):
    """What ``fn()`` returns, or the type and message of the
    CoeffSystemError it raises."""
    try:
        return fn()
    except cs.CoeffSystemError as e:
        return type(e), str(e)


def assert_delta_and_degree_match_oracle(system, cutoff):
    """Each difference step of ``system`` against the oracle, then the
    whole degree report; returns the naturally_split verdicts."""
    dims, gens, _, structs = as_columns(system)
    current, verdicts = system, []
    for _ in range(cutoff + 1):
        if current.K_max < 1 or current.is_zero():
            break
        expect = outcome(lambda: oracle_delta(dims, gens, structs))
        res = outcome(lambda: cs.delta(current))
        if not isinstance(res, cs.DeltaResult):
            assert res == expect
            break
        assert len(expect) == 5, f"delta defined where the oracle's is not: {expect}"
        dims, gens, invs, structs, natural = expect
        assert as_columns(res.system) == (dims, gens, invs, structs)
        for mats in res.system.gens + inverses(res.system) + [res.system.structs]:
            for mat in mats:
                # dict columns only where a column holds two or more
                # entries, or an entry other than +1 and -1
                assert isinstance(mat, cs.UnitColumns) or any(
                    len(col) > 1 or set(col.values()) - {1, -1} for col in mat)
        assert res.naturally_split == natural
        verdicts.append(natural)
        current = res.system
    if system.K_max >= cutoff + 1 or system.is_zero():
        assert outcome(lambda: cs.degree(system, cutoff).to_json()) == \
            outcome(lambda: oracle_degree(system, cutoff))
    return verdicts


def oracle_degree(system, cutoff):
    dims, gens, _, structs = as_columns(system)
    trace, natural = [list(dims)], True
    if not any(dims):
        return _report(-1, trace, system.K_max, True)
    for step in range(cutoff + 1):
        try:
            dims, gens, _, structs, nat = oracle_delta(dims, gens, structs)
        except cs.DeltaUndefined as e:
            return _report("undefined", trace, system.K_max, natural, str(e))
        natural = natural and nat
        trace.append(list(dims))
        if not any(dims):
            return _report(step, trace, system.K_max, natural)
    return _report(">cutoff", trace, system.K_max, natural)


def _report(value, trace, k_max, natural, reason=""):
    return {"degree": value, "delta_ranks": trace, "k_max_consulted": k_max,
            "naturally_split": natural, "reason": reason}


def transposed_generator(system, k):
    """``system`` with sigma_1 at object k replaced by its transpose, the
    inverse permutation (and the inverse by sigma_1), unvalidated."""
    gens = [list(m) for m in system.gens]
    invs = [list(m) for m in system.gen_invs]
    gen = gens[k][0]
    transposed = [dict() for _ in range(len(gen))]
    for j, col in enumerate(cs.columns(gen)):
        for r, v in col.items():
            transposed[r][j] = v
    gens[k][0], invs[k][0] = cs.as_matrix(transposed), gen
    return cs.CoeffSystem(system.K_max, list(system.dims), gens, invs,
                          list(system.structs))


POINT, CIRCLE = cs.GradedModule.point(), cs.GradedModule.circle()
MODELS = [
    md.MonodromyModel(group=FiniteGroup.cyclic(2), states=3,
                      action=((0, 1, 2), (0, 2, 1)), sign=(1, -1),
                      reflection=(0, 2, 1)),
    md.MonodromyModel(group=FiniteGroup.cyclic(1), states=2,
                      action=((0, 1),), sign=(1,), reflection=(0, 1)),
]


def small_system(kind, arg, K):
    if kind == "constant":
        return constant_system(K, rank=arg)
    if kind == "kunneth":
        HY = cs.GradedModule(((0, 1 + arg // 4),))
        return cs.build_kunneth_system(HY, CIRCLE if arg % 2 else POINT, arg % 4, K)
    if kind == "kunneth-multi":
        HZ = cs.GradedModule(((0, 1), (1, 2), (2, 1)))
        return cs.build_kunneth_system(POINT, HZ, arg % 4, min(K, 5))
    if kind == "kunneth-rotation":
        # cZ of order 4 on two degree-1 classes: signed, not involutions
        HZ = cs.GradedModule(((0, 1), (1, 2)))
        return cs.build_kunneth_system(POINT, HZ, arg % 4, min(K, 5),
                                       cZ={1: [[0, -1], [1, 0]]})
    return linearize(MODELS[arg % 2], min(K, 5))


KINDS = st.sampled_from(["constant", "kunneth", "kunneth-multi",
                         "kunneth-rotation", "linearize"])


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(hurwitz_systems(limit=1500), st.booleans())
def test_hurwitz_delta_matches_column_oracle(case, mutate):
    group, classes, g_hat, K = case
    system = cs.build_hurwitz_system(group, classes, g_hat, K)
    if mutate and K >= 4:
        system = transposed_generator(system, 3)
    assert_delta_and_degree_match_oracle(system, max(K - 1, 0))


@seed(20261021)
@settings(max_examples=40, deadline=None)
@given(KINDS, st.integers(0, 7), KINDS, st.integers(0, 7), st.integers(2, 6))
def test_sums_and_tensors_match_column_oracle(kind_a, arg_a, kind_b, arg_b, K):
    a, b = small_system(kind_a, arg_a, K), small_system(kind_b, arg_b, K)
    for system in (a, b, direct_sum(a, b), tensor(a, b)):
        assert_delta_and_degree_match_oracle(system, system.K_max - 1)


def test_identity_cz_kunneth_is_unit_columns():
    # cZ given as the identity takes the same unit columns as no cZ
    HZ = cs.GradedModule(((0, 1), (1, 2)))
    given_id = cs.build_kunneth_system(POINT, HZ, 2, 5,
                                       cZ={1: [[1, 0], [0, 1]]})
    default = cs.build_kunneth_system(POINT, HZ, 2, 5)
    assert as_columns(given_id) == as_columns(default)
    assert all(isinstance(m, cs.UnitColumns)
               for mats in given_id.gens + [given_id.structs] for m in mats)
    assert_delta_and_degree_match_oracle(given_id, 4)
    # a non-permutation cZ keeps dict columns where they have two entries
    shear = cs.build_kunneth_system(POINT, HZ, 1, 4, cZ={1: [[1, 1], [0, 1]]})
    assert any(not isinstance(m, cs.UnitColumns) for mats in shear.gens for m in mats)
    assert_delta_and_degree_match_oracle(shear, 3)


def test_mutated_hurwitz_generator_is_not_naturally_split():
    # sigma_1 transposed at one object k: the first difference step is
    # not naturally split, seen by the check that reads it (as the
    # generator at k, and as the one at k + 1 for object k - 1).  The
    # mutant is no functor: for k < 5 a later step meets a structure map
    # that is not defined on cokernels, and degree raises
    s3 = FiniteGroup.symmetric(3)
    classes = conjugacy_closure({s3.element_names.index("(1 2)")}, s3)
    base = cs.build_hurwitz_system(s3, classes, classes.elements[0], 5)
    for k in range(2, 6):
        system = transposed_generator(base, k)
        assert isinstance(system.gens[k][0], cs.UnitColumns)
        verdicts = assert_delta_and_degree_match_oracle(system, 4)
        assert verdicts[0] is False
        if k < 5:
            assert len(verdicts) == k - 1
            with pytest.raises(cs.CoeffSystemError, match=r"^Ts\(iota_k\)"):
                cs.degree(system, 4)
        else:
            assert cs.degree(system, 4).naturally_split is False
    assert assert_delta_and_degree_match_oracle(base, 4) == [True] * 5


# ---------------------------------------------------------------------------
# the extension check on basis vectors


def swapped_generators(system, k):
    """``system`` with sigma_1 and sigma_2 at object k >= 3 swapped,
    with their inverses, unvalidated."""
    gens = [list(m) for m in system.gens]
    invs = [list(system.generator(j, i, -1) for i in range(1, j))
            for j in range(system.K_max + 1)]
    gens[k][:2], invs[k][:2] = gens[k][1::-1], invs[k][1::-1]
    return cs.CoeffSystem(system.K_max, list(system.dims), gens, invs,
                          list(system.structs))


@seed(20261022)
@settings(max_examples=40, deadline=None)
@given(hurwitz_systems(limit=1500), st.sampled_from([None, 2, 3, 4]))
def test_hurwitz_extension_check_sees_transposed_generators(case, mutate):
    # the transpose of sigma_1 at object m is its inverse, which diagram
    # (a) at k = m tells apart unless sigma_1 is an involution on F(m)
    group, classes, g_hat, K = case
    system = cs.build_hurwitz_system(group, classes, g_hat, K)
    involution = True
    if mutate is not None and K >= mutate:
        involution = system.gens[mutate][0] == system.generator(mutate, 1, -1)
        system = transposed_generator(system, mutate)
    report = check_extension(system)
    if involution:
        assert report["passed"]
        # diagram (a) at k = 2..K-1, (b) at ell = 2 and 3, k = 0..K-ell
        assert len(report["cells"]) == \
            max(K - 2, 0) + max(K - 1, 0) + max(K - 2, 0)
    elif mutate < K:
        assert not report["passed"]


SHEAR, ROTATION = [[1, 1], [0, 1]], [[0, -1], [1, 0]]


@pytest.mark.parametrize("cZ", [SHEAR, ROTATION])
def test_kunneth_extension_check_sees_swapped_generators(cZ):
    HZ = cs.GradedModule(((0, 1), (1, 2)))
    for i in range(4):
        system = cs.build_kunneth_system(POINT, HZ, i, 6, cZ={1: cZ})
        assert check_extension(system)["passed"]
        # sparse columns that differ: sigma_1 and sigma_2 swapped, which
        # only the rank-1 system of i = 0 (all identities) does not see
        for k in (3, 5):
            mutant = swapped_generators(system, k)
            assert check_extension(mutant)["passed"] == (i == 0)


def test_linearized_extension_check_sees_swapped_generators():
    for model in MODELS:
        system = linearize(model, 5)
        assert check_extension(system)["passed"]
        assert not check_extension(
            swapped_generators(system, 4))["passed"]


def test_conjugated_extension_check_sees_swapped_generators():
    # the systems of test_crossvalidation, in scrambled bases (no unit
    # columns left), and their sums with a mutant
    from test_crossvalidation import conjugated_system

    s3 = FiniteGroup.symmetric(3)
    threecycles = conjugacy_closure({s3.element_names.index("(1 2 3)")}, s3)
    hurwitz = cs.build_hurwitz_system(s3, threecycles, threecycles.elements[0], 4)
    kunneth = cs.build_kunneth_system(POINT, CIRCLE, 2, 7)
    for system, rng_seed in ((hurwitz, 77), (kunneth, 5)):
        scrambled = conjugated_system(system, random.Random(rng_seed))
        assert check_extension(scrambled)["passed"]
        mutant = swapped_generators(scrambled, 4)
        assert not check_extension(mutant)["passed"]
