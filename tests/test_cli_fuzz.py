"""Fuzz the CLI's failure contract on group and class specs: every spec
exits 0, 3, 64 or 65, with at most one line on stderr and no traceback,
in bounded time, and a JSON table is accepted only if it is a group.
Kunneth system files and monodromy model files may also exit 2, a check
that ran and failed, which like 0 prints nothing on stderr.  The
commands' own flags (``--imax``, ``--kmax``, ``--k``, ``--coeff``) go
through the same contract, with exits 2 and 74 allowed too, so that
every resource guard is checked to refuse what it cannot finish in
time."""

import contextlib
import io
import itertools
import json
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hurstab import cli, cost

EXITS = {cli.EXIT_OK, cli.EXIT_RESOURCE, cli.EXIT_USAGE, cli.EXIT_VALIDATION}
FILE_EXITS = EXITS | {cli.EXIT_ASSERTION}

# a small bound keeps every accepted build cheap: tables of up to 31
# rows, orbit ranges of up to 10^4 tuples, and Kunneth systems of up to
# 625 columns and relations
BOUND = 10 ** 4
SECONDS_PER_CALL = 10

# mostly small, so that most specs name real elements of small groups
numbers = st.one_of(st.integers(-2, 12), st.integers(-3, 40),
                    st.just(10 ** 30))
junk = st.one_of(st.floats(allow_nan=False), st.booleans(), st.none(),
                 st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2))
json_values = st.one_of(numbers, junk)
families = st.sampled_from(["sym", "symmetric", "cyclic", "dihedral"])
bad_families = st.sampled_from(["quaternion", "nope", "", "Cyclic"])
n_texts = st.one_of(
    st.integers(1, 7).map(str), numbers.map(str),
    st.sampled_from(["", "x", "1.5", "-", "0x10", " 3", "3 ", "٣"]))
family_specs = st.one_of(
    st.builds("{}:{}".format, families, st.integers(1, 7)),
    st.builds("{}:{}".format, st.one_of(families, bad_families), n_texts))
json_families = st.sampled_from(["cyclic", "dihedral", "symmetric"])
builtins = st.one_of(
    st.fixed_dictionaries({"family": json_families, "n": st.integers(1, 7)}),
    st.fixed_dictionaries({"family": st.just("quaternion")}),
    st.fixed_dictionaries(
        {}, optional={"family": st.one_of(json_families, bad_families, junk),
                      "n": json_values}),
    junk)
builtin_specs = builtins.map(lambda b: json.dumps({"builtin": b}))
# square, ragged or empty tables with entries a little out of range
raw_tables = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-1, n), min_size=max(n - 1, 0),
                                max_size=n + 1),
                       min_size=n, max_size=n))


def relabelled(table_perm):
    """A group table with its elements relabelled, so the identity may
    sit anywhere and the table must be re-indexed."""
    table, perm = table_perm
    pos = {x: i for i, x in enumerate(perm)}
    n = len(perm)
    return [[pos[table[perm[i]][perm[j]]] for j in range(n)]
            for i in range(n)]


small_groups = st.sampled_from([
    [[0]], [[0, 1], [1, 0]],
    [[(i + j) % 4 for j in range(4)] for i in range(4)],
    [[i ^ j for j in range(4)] for i in range(4)],
    [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
     [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]])
group_tables = small_groups.flatmap(
    lambda t: st.tuples(st.just(t), st.permutations(range(len(t))))
).map(relabelled)
# group tables whose rows from the m-th on repeat their first k entries:
# ragged, yet every row still holds every element
padded_tables = st.builds(
    lambda t, k, m: [row + row[:k] if i >= m else row
                     for i, row in enumerate(t)],
    group_tables, st.integers(1, 2), st.integers(0, 3))
table_specs = st.one_of(group_tables, raw_tables, padded_tables).map(
    lambda t: json.dumps({"table": t}))
group_specs = st.one_of(family_specs, builtin_specs, table_specs,
                        st.sampled_from(["quaternion", "", "{", "{}", "[]"]))
# groups that are accepted, to reach the class spec
good_groups = st.one_of(
    st.builds("{}:{}".format, families, st.integers(1, 5)),
    st.builds(lambda f, n: json.dumps({"builtin": {"family": f, "n": n}}),
              json_families, st.integers(1, 5)),
    st.just("quaternion"),
    group_tables.map(lambda t: json.dumps({"table": t})))

names = st.sampled_from(["transposition", "e", "r", "s", "i", "-1", "(1 2)",
                         "(1 2 3)", "zz", ""])
class_specs = st.one_of(
    st.one_of(numbers, names).map("rep:{}".format),
    st.lists(numbers, max_size=4).map(lambda e: f"elems:{json.dumps(e)}"),
    json_values.map(lambda r: json.dumps({"representative": r})),
    st.lists(numbers, max_size=4).map(
        lambda e: json.dumps({"elements": e})),
    junk.map(lambda e: f"elems:{json.dumps(e)}"),
    junk.map(lambda e: json.dumps({"elements": e})),
    st.sampled_from(["", "rep", "{", "{}", "[1]", "nope:1"]))


def is_group(table):
    """Brute force over every triple, on a list of lists."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        return False
    if any(x not in range(n) for row in table for x in row):
        return False
    ids = [e for e in range(n)
           if all(table[e][x] == x == table[x][e] for x in range(n))]
    return (len(ids) == 1
            and all(any(table[a][b] == ids[0] for b in range(n))
                    for a in range(n))
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a, b, c in itertools.product(range(n), repeat=3)))


class Hang(Exception):
    pass


def _alarm(signum, frame):
    raise Hang


def run_contract(argv, exits, seconds=SECONDS_PER_CALL):
    """Run a command in process under the small bound and an alarm of
    ``seconds``, and check that it exits in exits, with one stderr line
    exactly when it exits neither 0 nor 2; returns the exit code."""
    err = io.StringIO()
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stderr(err):
            mp.setattr(cost, "BOUND", BOUND)
            signal.alarm(seconds)
            code = cli.run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    lines = err.getvalue().splitlines()
    assert code in exits, (argv, code, lines)
    assert len(lines) <= 1, (argv, lines)
    assert not any("Traceback" in line for line in lines), (argv, lines)
    refused = code not in (cli.EXIT_OK, cli.EXIT_ASSERTION)
    assert refused == bool(lines), (argv, code, lines)
    return code


def check_contract(group, cls):
    """Run orbits at k = 1 on a group and class spec."""
    argv = ["orbits", "--group", group, "--class", cls, "--k", "1",
            "--out", os.devnull]
    code = run_contract(argv, EXITS)
    if code == cli.EXIT_OK and group.startswith('{"table"'):
        assert is_group(json.loads(group)["table"]), argv


def check_file_contract(path, spec, argv):
    """Write a spec file and run a command on it."""
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    run_contract(argv + ["--out", os.devnull], FILE_EXITS)


fuzz = settings(max_examples=150, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])
needs_alarm = pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                                 reason="needs SIGALRM")


@needs_alarm
@fuzz
@given(group=group_specs, cls=st.sampled_from(["rep:0", "rep:1"]))
def test_group_specs_keep_the_failure_contract(group, cls):
    check_contract(group, cls)


@needs_alarm
@fuzz
@given(group=good_groups, cls=class_specs)
def test_class_specs_keep_the_failure_contract(group, cls):
    check_contract(group, cls)


def perturbed(draw, spec, alternatives):
    """spec as drawn (half of the time), with one key replaced by a draw
    from its alternatives or dropped, or a value that is not a spec."""
    keys = list(alternatives)
    kind = draw(st.sampled_from(["keep"] * 5 + ["replace"] * 3 + ["drop", "junk"]))
    key = draw(st.sampled_from(keys))
    if kind == "replace":
        spec[key] = draw(alternatives[key])
    elif kind == "drop":
        spec.pop(key, None)
    elif kind == "junk":
        return draw(st.one_of(json_values, st.sampled_from(["", "{", "[]"])))
    return spec


# Kunneth system specs: graded ranks, some large enough to be refused
ranks = st.one_of(st.integers(0, 3), st.integers(0, 60), st.integers(-1, 1),
                  st.just(10 ** 30))
rank_lists = st.one_of(st.lists(ranks, max_size=4), junk)
square = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                       min_size=n, max_size=n))
automorphisms = st.one_of(
    st.just([[1]]), st.just([[1, 1], [0, 1]]), st.just([[0, 1], [1, 0]]),
    st.just([[-1]]), square, junk)


@st.composite
def system_specs(draw):
    hz = [1] + draw(st.lists(st.integers(0, 3), max_size=3))
    spec = {"HZ": hz, "i": draw(st.integers(0, 4))}
    if draw(st.booleans()):
        spec["HY"] = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    if len(hz) > 1 and hz[1] == 2 and draw(st.booleans()):
        spec["cZ"] = {"1": draw(st.sampled_from(
            [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]]]))}
    return perturbed(draw, spec, {
        "HZ": st.one_of(rank_lists, st.lists(ranks, max_size=4).map(
            lambda r: [1] + r)),
        "HY": rank_lists,
        "i": st.one_of(st.integers(-1, 8), st.just(10 ** 30), junk),
        "cZ": st.one_of(st.dictionaries(st.sampled_from(
            ["0", "1", "2", "3", "x"]), automorphisms, max_size=2), junk)})


@needs_alarm
@fuzz
@given(spec=system_specs(), kmax=st.sampled_from([0, 4, 5, 6, 8, 400]))
def test_system_specs_keep_the_failure_contract(tmp_path_factory, spec, kmax):
    path = tmp_path_factory.getbasetemp() / "system.json"
    check_file_contract(path, spec, ["degree", "--system", str(path),
                                     "--kmax", str(kmax), "--cutoff", "3"])


def involution(states, swaps):
    """The product of the disjoint swaps among states 1..states-1."""
    perm = list(range(states))
    for a, b in swaps:
        if 0 < a < states and 0 < b < states and perm[a] == a and perm[b] == b:
            perm[a], perm[b] = b, a
    return perm


swap_lists = st.lists(st.sampled_from([(1, 2), (2, 3), (3, 4), (1, 3)]),
                      min_size=1, max_size=2)


@st.composite
def model_specs(draw):
    # mostly cyclic:n acting through an involution that fixes state 0
    # (for even n), with a sign character and an involutive reflection,
    # so that most models reach the check and some fail it
    n = draw(st.integers(1, 4))
    states = draw(st.integers(1, 5))
    perm = involution(states, draw(swap_lists))
    odd_sign = n % 2 == 0 and draw(st.booleans())
    spec = {
        "group": {"builtin": {"family": "cyclic", "n": n}},
        "states": states,
        "action": [perm if q % 2 and n % 2 == 0 else list(range(states))
                   for q in range(n)],
        "sign": [-1 if q % 2 and odd_sign else 1 for q in range(n)],
        "reflection": involution(states, draw(swap_lists)),
    }
    return perturbed(draw, spec, {
        "group": st.one_of(
            st.integers(1, 4).map(
                lambda k: {"builtin": {"family": "cyclic", "n": k}}),
            st.sampled_from([{"builtin": {"family": "symmetric", "n": 3}},
                             {"builtin": {"family": "quaternion"}}, "sym:3",
                             {"table": [[0, 1], [1, 1]]}, {}]),
            junk),
        "states": st.one_of(numbers, junk),
        "action": st.one_of(
            st.lists(st.lists(numbers, max_size=5), max_size=4), junk),
        "sign": st.one_of(
            st.lists(st.sampled_from([1, -1, 0, 2]), max_size=4), junk),
        "reflection": st.one_of(st.lists(numbers, max_size=5), junk)})


@needs_alarm
@fuzz
@given(spec=model_specs())
def test_model_specs_keep_the_failure_contract(tmp_path_factory, spec):
    path = tmp_path_factory.getbasetemp() / "model.json"
    check_file_contract(path, spec, ["monodromy-check", "--model", str(path),
                                     "--samples", "50", "--seed", "1"])


# small groups and classes, singletons among them (cyclic:n elems:[1]
# and the centre of quaternion), and k from a few up to past the point
# where an unweighted singleton grid at imax 0 runs for seconds
command_groups = st.sampled_from(["cyclic:1", "cyclic:2", "cyclic:4", "sym:3",
                                  "dihedral:3", "quaternion"])
command_classes = st.sampled_from(["rep:0", "rep:1", "elems:[1]",
                                   "rep:transposition"])
ks = st.one_of(st.integers(1, 12), st.integers(100, 700),
               st.sampled_from(range(100, 800, 100)))
coeffs = st.sampled_from(["Z", "Q", "Fp:2", "Fp:3", "Fp:4", "Fp:x"])


@st.composite
def command_argvs(draw):
    command = draw(st.sampled_from(["stability", "homology", "degree",
                                    "orbits"]))
    argv = [command, "--group", draw(command_groups),
            "--class", draw(command_classes)]
    if command == "orbits":
        lo, hi = draw(ks), draw(ks)
        argv += ["--k", draw(st.sampled_from([str(lo), f"{lo}..{hi}"]))]
    elif command == "degree":
        argv += ["--kmax", str(draw(ks)),
                 "--cutoff", str(draw(st.integers(0, 4)))]
    else:
        argv += ["--imax", str(draw(st.one_of(st.just(0), st.integers(-1, 4)))),
                 "--kmax", str(draw(ks)), "--coeff", draw(coeffs)]
        if command == "stability":
            argv.append("--no-cache")
    return argv


@needs_alarm
@settings(fuzz, max_examples=2500)
@given(argv=command_argvs())
def test_command_flags_keep_the_failure_contract(argv):
    run_contract(argv + ["--out", os.devnull], FILE_EXITS | {cli.EXIT_IO},
                 seconds=5)
