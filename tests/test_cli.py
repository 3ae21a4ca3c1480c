import hashlib
import json
import os
import random
import subprocess
import sys
import time

from hurstab import cli, cost
from hurstab import experiments as xp
from hurstab import monodromy as md
from hurstab.groups import FiniteGroup


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.run(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_cli_import_loads_no_code_generation_modules():
    # start-up cost: dataclasses brings inspect, ast, dis and tokenize,
    # and with typing they cost more than the rest of the import
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = (f"import sys; sys.path.insert(0, {src!r}); import hurstab.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & "
             "sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_canonical_argv_loads_no_argparse():
    # start-up cost: building the argparse parsers and the locale import
    # of argparse's first message take about 3 ms of each call, so the
    # canonical argv is read straight from the flag table
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = (f"import sys; sys.path.insert(0, {src!r}); import hurstab.cli; "
             "loaded = lambda: sorted({'argparse', 'locale'} & "
             "sys.modules.keys()); print(loaded()); "
             "hurstab.cli.parse_argv(['stability', '--group', 'sym:3', "
             "'--class', 'rep:1', '--kmax', '2', '--no-cache']); "
             "print(loaded())")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n[]\n"


def test_selftest_passes(tmp_path):
    code, body = run_to_file(tmp_path, "self.json", ["selftest"])
    assert code == cli.EXIT_OK
    doc = json.loads(body)
    assert doc["passed"] and doc["failures"] == []


def test_orbits_command(tmp_path):
    code, body = run_to_file(
        tmp_path, "orb.tsv",
        ["orbits", "--group", "sym:3", "--class", "rep:transposition",
         "--k", "1..4"],
    )
    assert code == cli.EXIT_OK
    lines = body.decode().strip().split("\n")
    assert lines[1].startswith("1\t3")
    assert lines[2].startswith("2\t5")
    code, body = run_to_file(
        tmp_path, "orb.json",
        ["orbits", "--group", "sym:3", "--class", "rep:transposition",
         "--k", "2", "--format", "json"],
    )
    doc = json.loads(body)
    assert doc["orbits"]["2"]["count"] == 5


def test_orbit_resource_refusal(tmp_path, monkeypatch):
    # the range counts k 3^k per k: 3 + 18 + 81 + 324 = 426
    argv = ["orbits", "--group", "sym:3", "--class", "rep:transposition",
            "--k", "1..4", "--out", str(tmp_path / "o.tsv")]
    monkeypatch.setattr(cost, "BOUND", 426)
    assert cli.run(argv) == cli.EXIT_OK
    monkeypatch.setattr(cost, "BOUND", 425)
    assert cli.run(argv) == cli.EXIT_RESOURCE


def test_orbit_range_refusal_on_a_singleton_class(monkeypatch, capsys):
    # |c|^k = 1 at every k, but each k still counts k |c|^k = k: the
    # range 1..100000 sums to 5 000 050 000 and is refused at once
    def no_enumeration(*args, **kwargs):
        raise AssertionError("orbits enumerated before the range was checked")

    monkeypatch.setattr(cli, "orbits", no_enumeration)
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.run(["orbits", "--group", "cyclic:2", "--class", "elems:[1]",
                    "--k", "1..100000"]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource refusal: orbit work k |c|^k at |c|=1 over k=1..100000 "
        "exceeds the bound 10000000\n")
    # exact threshold: 1 + 2 + ... + 9 = 45, above the 4 table entries
    # of cyclic:2, which weigh 40
    monkeypatch.undo()
    argv = ["orbits", "--group", "cyclic:2", "--class", "elems:[1]",
            "--k", "1..9", "--out", os.devnull]
    monkeypatch.setattr(cost, "BOUND", 45)
    assert cli.run(argv) == cli.EXIT_OK
    monkeypatch.setattr(cost, "BOUND", 44)
    capsys.readouterr()
    assert cli.run(argv) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err.startswith(
        "resource refusal: orbit work k |c|^k")


def test_degree_resource_refusal(monkeypatch):
    # 2 * sum_{k=2..12} (k-1) 3^k = 16 740 396 generator and inverse
    # columns, past the default bound: refused before the pair tables
    # that every generator is built from
    def no_table(*args, **kwargs):
        raise AssertionError("pair table built before the size was checked")

    monkeypatch.setattr(cli.cs.braid, "hurwitz_pairs", no_table)
    code = cli.run(["degree", "--group", "sym:3", "--class",
                    "rep:transposition", "--kmax", "12", "--cutoff", "3"])
    assert code == cli.EXIT_RESOURCE


def test_hurwitz_system_refused_at_once(capsys):
    # a singleton class has one column per generator, but comb(k, 2)
    # relations checked at k: up to --kmax 400 that is about 20 s of
    # checks; the guard refuses it at k = 310
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.run(["degree", "--group", "cyclic:2", "--class", "elems:[1]",
                    "--kmax", "400", "--cutoff", "3",
                    "--out", os.devnull]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource refusal: Hurwitz system of 95790 columns and 4965115 "
        "relations up to k=310, relations weighing 2 each, exceeds the "
        "bound 10000000\n")


def test_kunneth_system_refused_at_once(tmp_path, capsys):
    # HZ = (1, 1) at i = 1 has rank k at k: up to --kmax 400 that is
    # over 2.7 GiB and 100 s of build; the guard refuses it at k = 108
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"HZ": [1, 1], "i": 1}))
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.run(["degree", "--system", str(path), "--kmax", "400",
                    "--cutoff", "3", "--out", os.devnull]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource refusal: Kunneth system of 635688 columns and relations up "
        "to k=108, weighing 16 each, exceeds the bound 10000000\n")


def test_kunneth_system_without_a_degree_i_part_builds_at_once(tmp_path):
    # P(t)^k = (1 + t)^k has no t^50 term below k = 50, so every rank is
    # 0; the basis walk follows only prefixes that reach degree 50, where
    # walking every prefix of degree <= 50 took about 2^32 steps
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"HZ": [1, 1], "i": 50}))
    out = tmp_path / "degree.json"
    start = time.perf_counter()
    assert cli.run(["degree", "--system", str(path), "--kmax", "30",
                    "--cutoff", "3", "--out", str(out)]) == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert json.loads(out.read_text())["degree"]["degree"] == -1


def test_grid_guard_finds_a_far_refusal_at_once(capsys):
    # a singleton class at i_max 0 counts k cells at k, each weighing 16,
    # and 2 k (k - 1) key strands, 16 to a unit; the columns 2..564 sum
    # past the bound, so the running total stops at k = 564.  kmax 2000
    # took about 386 s and 160 MiB while only the largest column was
    # weighed
    for kmax in ("100000000", "2000"):
        capsys.readouterr()
        start = time.perf_counter()
        assert cli.run(["stability", "--group", "cyclic:2", "--class",
                        "elems:[1]", "--imax", "0", "--kmax", kmax,
                        "--no-cache", "--out", os.devnull]) == cli.EXIT_RESOURCE
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "resource refusal: grid of 159329 cells and 119603720 key strands "
            "up to k=564, weighing 16 and 1/16 each, exceeds the bound "
            "10000000\n")


def test_grid_too_costly_refused_at_once(capsys):
    # sym:3 transpositions i1/k11 would need about 12 GiB; the guard
    # refuses it at k = 9, where the cells of columns 2..9 sum to
    # 981 684, before any complex is built
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.run(["stability", "--group", "sym:3", "--class",
                    "rep:transposition", "--imax", "1", "--kmax", "11",
                    "--no-cache", "--out", os.devnull]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource refusal: grid of 981684 cells and 1656 key strands up to "
        "k=9, weighing 16 and 1/16 each, exceeds the bound 10000000\n")


def test_large_group_table_refused_before_it_is_built(capsys):
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.run(["orbits", "--group", "cyclic:20000", "--class", "rep:1",
                    "--k", "1", "--out", os.devnull]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource refusal: cyclic:20000 table of 400000000 entries, "
        "weighing 10 each, exceeds the bound 10000000\n")


def test_usage_and_validation_errors(tmp_path, monkeypatch, capsys):
    assert cli.run(["orbits", "--group", "nope:3", "--class", "rep:0",
                    "--k", "1"]) == cli.EXIT_USAGE
    assert cli.run(["orbits", "--group", "sym:3", "--class", "rep:99",
                    "--k", "1"]) == cli.EXIT_USAGE
    assert cli.run(["orbits", "--group", "sym:3",
                    "--class", "elems:[2]", "--k", "1"]) == cli.EXIT_VALIDATION
    assert cli.run(["nonsense"]) == cli.EXIT_USAGE
    assert cli.run(["orbits", "--group", "sym:3", "--class", "rep:1",
                    "--k", "abc"]) == cli.EXIT_USAGE
    assert cli.run(["orbits", "--group", "sym:x", "--class", "rep:1",
                    "--k", "1"]) == cli.EXIT_USAGE
    assert cli.run(["orbits", "--group", "sym:3", "--class", "rep:1",
                    "--k", "1..y"]) == cli.EXIT_USAGE
    # malformed JSON in a group or class spec
    for group, cls in (("{bad", "rep:0"), ("sym:3", "{bad"),
                       ("sym:3", "elems:[1,")):
        assert cli.run(["orbits", "--group", group, "--class", cls,
                        "--k", "1"]) == cli.EXIT_USAGE
    # well-formed JSON of the wrong shape
    for group, cls, code in (
            ("sym:3", "elems:5", cli.EXIT_USAGE),
            ("sym:3", 'elems:["a"]', cli.EXIT_USAGE),
            ("sym:3", '{"elements": "x"}', cli.EXIT_VALIDATION),
            ('{"builtin": 5}', "rep:0", cli.EXIT_VALIDATION),
            ('{"table": 3}', "rep:0", cli.EXIT_VALIDATION)):
        assert cli.run(["orbits", "--group", group, "--class", cls,
                        "--k", "1"]) == code
    # a number must be a JSON integer: not a float, bool or string
    for group, cls, code in (
            ("cyclic:2", 'elems:"1"', cli.EXIT_USAGE),
            ("cyclic:2", "elems:[1.5]", cli.EXIT_USAGE),
            ("cyclic:2", "elems:[true]", cli.EXIT_USAGE),
            ("cyclic:2", 'elems:{"1": 2}', cli.EXIT_USAGE),
            ("cyclic:2", '{"elements": [1.5]}', cli.EXIT_VALIDATION),
            ("cyclic:2", '{"representative": true}', cli.EXIT_VALIDATION),
            ("cyclic:2", '{"representative": 1.9}', cli.EXIT_VALIDATION),
            ('{"builtin": {"family": "cyclic", "n": 2.7}}', "rep:1",
             cli.EXIT_VALIDATION),
            ('{"builtin": {"family": "cyclic", "n": "2"}}', "rep:1",
             cli.EXIT_VALIDATION),
            ('{"table": [[0, true], [true, 0]]}', "rep:1",
             cli.EXIT_VALIDATION)):
        assert cli.run(["orbits", "--group", group, "--class", cls,
                        "--k", "1"]) == code, (group, cls)
    for n, system in enumerate((
            {"HZ": [1, 1], "i": "x"},
            {"HZ": [1, 1], "i": 1, "cZ": {"1": 5}},
            {"HZ": [1, 1], "i": 1, "cZ": {"1": [[2]]}},
            {"HZ": [1, 1], "i": 1, "cZ": {"1": [[1, 0]]}},
            {"HZ": [1, 1], "i": 1, "cZ": {"2": [[1]]}},
            {"HZ": [1, 1], "i": 1, "cZ": {"1": [[1.0]]}},
            {"HZ": [1, -1], "i": 1},
            {"HZ": [1, 1.5], "i": 1})):
        path = tmp_path / f"system{n}.json"
        path.write_text(json.dumps(system))
        assert cli.run(["degree", "--system", str(path), "--kmax", "3"]) \
            == cli.EXIT_VALIDATION, system
    # unimodularity of cZ is decided by a fraction-free determinant: an
    # elimination by xgcd row and column combinations ran on this
    # singular 24 x 24 matrix for minutes
    rng = random.Random(3)
    M = [[0] * 24 for _ in range(24)]
    for pos in rng.sample(range(576), 62):
        v = 0
        while not v:
            v = rng.randint(-40, 40)
        M[pos // 24][pos % 24] = v
    path = tmp_path / "singular24.json"
    path.write_text(json.dumps({"HZ": [1, 24], "i": 1, "cZ": {"1": M}}))
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.run(["degree", "--system", str(path), "--kmax", "3",
                    "--cutoff", "1"]) == cli.EXIT_VALIDATION
    assert time.perf_counter() - start < 2.0
    assert len(capsys.readouterr().err.splitlines()) == 1
    # a unimodular cZ that is not a signed permutation is accepted, and
    # its report is the one the Smith-form check gave
    path = tmp_path / "unimodular.json"
    path.write_text(json.dumps(
        {"HY": [1, 1], "HZ": [1, 2, 1], "i": 2, "cZ": {"1": [[2, 1], [1, 1]]}}))
    code, body = run_to_file(tmp_path, "unimodular.out.json", [
        "degree", "--system", str(path), "--kmax", "5", "--cutoff", "3",
        "--format", "json"])
    assert code == cli.EXIT_OK
    assert json.loads(body)["degree"] == {
        "degree": 2, "k_max_consulted": 5, "naturally_split": True,
        "reason": "", "delta_ranks": [[0, 3, 10, 21, 36, 55],
                                      [3, 7, 11, 15, 19], [4, 4, 4, 4],
                                      [0, 0, 0]]}
    for name, text in (("bad.json", "{bad"), ("nohz.json", '{"HY": [1]}'),
                       ("g5.json", '{"group": 5}')):
        (tmp_path / name).write_text(text)
    assert cli.run(["degree", "--system", str(tmp_path / "bad.json"),
                    "--kmax", "3"]) == cli.EXIT_USAGE
    assert cli.run(["degree", "--system", str(tmp_path / "nohz.json"),
                    "--kmax", "3"]) == cli.EXIT_VALIDATION
    assert cli.run(["monodromy-check", "--model",
                    str(tmp_path / "bad.json")]) == cli.EXIT_USAGE
    assert cli.run(["monodromy-check", "--model",
                    str(tmp_path / "g5.json")]) == cli.EXIT_VALIDATION
    # a reflection that leaves range(states) is refused up front
    (tmp_path / "refl.json").write_text(json.dumps(
        {"group": {"builtin": {"family": "cyclic", "n": 2}}, "states": 2,
         "action": [[0, 1], [0, 1]], "sign": [1, -1],
         "reflection": [0, 2, 1]}))
    assert cli.run(["monodromy-check", "--model",
                    str(tmp_path / "refl.json")]) == cli.EXIT_VALIDATION
    # a number in a model spec must be a JSON integer: not a float,
    # bool or string
    c2 = {"builtin": {"family": "cyclic", "n": 2}}
    for n, model in enumerate((
            {"group": c2, "states": 3.9, "action": [[0, 1, 2], [0, 2, 1]],
             "sign": [1.0, -1.5], "reflection": [0, 2, 1]},
            {"group": c2, "states": 3, "action": [[0, 1, 2], [0, 2, 1]],
             "sign": [1.0, -1.5], "reflection": [0, 2, 1]},
            {"group": c2, "states": True, "action": [[0, 1], [0, 1]],
             "sign": [1, 1], "reflection": [0, 1]},
            {"group": c2, "states": 3, "action": [[0, 1.0, 2], [0, 2, 1]],
             "sign": [1, -1], "reflection": [0, 2, 1]},
            {"group": c2, "states": 3, "action": [[0, 1, 2], [0, 2, 1]],
             "sign": [1, -1], "reflection": [0, "2", 1]})):
        path = tmp_path / f"model{n}.json"
        path.write_text(json.dumps(model))
        assert cli.run(["monodromy-check", "--model", str(path)]) \
            == cli.EXIT_VALIDATION, model
    grid =["stability", "--group", "cyclic:2", "--class", "elems:[1]",
            "--no-cache"]
    assert cli.run(grid + ["--imax", "-1", "--kmax", "3"]) == cli.EXIT_USAGE
    assert cli.run(grid + ["--imax", "1", "--kmax", "0"]) == cli.EXIT_USAGE
    for coeff in ("Fp:x", "Fp:" + "9" * 400,
                  "Fp:1000000000000000000000000000057"):
        assert cli.run(grid + ["--kmax", "2", "--coeff", coeff]) \
            == cli.EXIT_VALIDATION, coeff
    # a config file must hold a JSON object
    (tmp_path / "list.json").write_text("[1, 2]")
    assert cli.run(grid + ["--kmax", "2", "--config",
                           str(tmp_path / "list.json")]) == cli.EXIT_USAGE
    # a negative count is a usage error
    for argv in (["degree", "--group", "sym:3", "--class", "rep:transposition",
                  "--kmax", "3", "--cutoff", "-1"],
                 ["degree", "--group", "sym:3", "--class", "rep:transposition",
                  "--kmax", "-1"],
                 ["monodromy-check", "--samples", "-3"],
                 # --mem-limit is gone: an unknown flag
                 ["orbits", "--group", "sym:3", "--class", "rep:1", "--k", "2",
                  "--mem-limit", "-5"],
                 grid + ["--imax", "0", "--kmax", "2", "--mem-limit", "-5"]):
        assert cli.run(argv) == cli.EXIT_USAGE, argv
    # a config value is read as the same text on the command line would
    # be; a flag that names a file takes a string, --cache a boolean
    capsys.readouterr()
    for n, (config, code) in enumerate((
            ({"kmax": 2.5}, cli.EXIT_USAGE),
            ({"kmax": [3]}, cli.EXIT_USAGE),
            ({"group": 5}, cli.EXIT_USAGE),
            ({"coeff": 2}, cli.EXIT_VALIDATION),
            ({"stabiliser": 1}, cli.EXIT_OK),
            ({"class": {"elements": [1]}}, cli.EXIT_OK),
            ({"cache-dir": 3}, cli.EXIT_USAGE),
            ({"format": "xml"}, cli.EXIT_USAGE),
            ({"cache": "no"}, cli.EXIT_USAGE))):
        path = tmp_path / f"config{n}.json"
        path.write_text(json.dumps(
            {"group": "cyclic:2", "class": "elems:[1]", **config}))
        start = time.perf_counter()
        assert cli.run(["stability", "--config", str(path), "--kmax", "2",
                        "--no-cache", "--out", os.devnull]) == code, config
        assert time.perf_counter() - start < 2.0, config
        err = capsys.readouterr().err
        assert len(err.splitlines()) == (code != cli.EXIT_OK), (config, err)
    # --seed belongs to monodromy-check alone
    for argv in (["orbits", "--group", "sym:3", "--class", "rep:1", "--k", "1"],
                 ["homology", "--group", "cyclic:2", "--class", "elems:[1]"],
                 grid):
        assert cli.run(argv + ["--seed", "1"]) == cli.EXIT_USAGE
    # a k range is refused at its largest k before any k is enumerated,
    # with one line on stderr
    def no_enumeration(*args, **kwargs):
        raise AssertionError("orbits enumerated before the range was checked")

    monkeypatch.setattr(cli, "orbits", no_enumeration)
    capsys.readouterr()
    for k in ("1..15", "1..1000000000000000"):
        assert cli.run(["orbits", "--group", "sym:3", "--class",
                        "rep:transposition", "--k", k]) == cli.EXIT_RESOURCE, k
        assert len(capsys.readouterr().err.splitlines()) == 1, k


def test_out_of_range_representative_exits_65(capsys):
    # a representative past the table, or negative, is a validation
    # error on every command that reads a class, not an IndexError
    capsys.readouterr()
    for rep in (6, -1):
        cls = json.dumps({"representative": rep})
        for argv in (["orbits", "--k", "1"],
                     ["stability", "--imax", "0", "--kmax", "2", "--no-cache"],
                     ["degree", "--kmax", "3", "--cutoff", "1"]):
            assert cli.run(argv + ["--group", "sym:3", "--class", cls,
                                   "--out", os.devnull]) \
                == cli.EXIT_VALIDATION, (rep, argv)
            assert capsys.readouterr().err == (
                f"validation error: class element {rep} out of range for "
                "a group of order 6\n")


def test_ragged_tables_exit_65(capsys):
    # rows that hold every element but are too long are not a group, nor
    # is a table with permutation rows and identity 0 whose column 1 is
    # (1, 0, 0): such a table is never associative, and is refused as such
    capsys.readouterr()
    rows = ("validation error: table rows must be permutations of "
            "0..order-1\n")
    for table, message in (
            ([[0, 1, 0], [1, 0, 1]], rows), ([[0, 0]], rows),
            ([[0, 1, 2], [1, 0, 2], [2, 0, 1]],
             "validation error: multiplication is not associative\n")):
        assert cli.run(["orbits", "--group", json.dumps({"table": table}),
                        "--class", "rep:0", "--k", "1..2",
                        "--out", os.devnull]) == cli.EXIT_VALIDATION, table
        assert capsys.readouterr().err == message, table


def test_io_errors_exit_74(tmp_path):
    grid = ["stability", "--group", "cyclic:2", "--class", "elems:[1]",
            "--imax", "0", "--kmax", "2"]
    assert cli.run(grid + ["--no-cache", "--out",
                           str(tmp_path / "missing" / "r.tsv")]) == cli.EXIT_IO
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.run(grid + ["--cache-dir", str(blocker / "cache"),
                           "--out", str(tmp_path / "r.tsv")]) == cli.EXIT_IO


def test_violated_range_exits_2_from_stability_only(tmp_path, monkeypatch):
    real = xp.stability_table

    def violated(*args, **kwargs):
        report = real(*args, **kwargs)
        report.range_violations.append({"k": 2, "i": 0, "expected": "iso"})
        return report

    monkeypatch.setattr(xp, "stability_table", violated)
    grid = ["--group", "cyclic:2", "--class", "elems:[1]",
            "--imax", "0", "--kmax", "2"]
    for cmd, extra, code in (("stability", ["--no-cache"], cli.EXIT_ASSERTION),
                             ("homology", [], cli.EXIT_OK)):
        rc, body = run_to_file(tmp_path, f"{cmd}.json",
                               [cmd] + grid + extra + ["--format", "json"])
        assert rc == code, cmd
        assert json.loads(body)["report"]["assertion_passed"] is False


def test_stability_command_and_cache_determinism(tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "stability", "--group", "cyclic:2", "--class", "elems:[1]",
        "--imax", "1", "--kmax", "6", "--coeff", "Z", "--format", "json",
        "--cache-dir", cache_dir,
    ]
    code1, body1 = run_to_file(tmp_path, "r1.json", argv)
    assert code1 == cli.EXIT_OK
    # second run hits the cache and must be byte-identical
    code2, body2 = run_to_file(tmp_path, "r2.json", argv)
    assert code2 == cli.EXIT_OK
    assert body1 == body2
    assert os.listdir(cache_dir)
    # cache off: still byte-identical
    code3, body3 = run_to_file(tmp_path, "r3.json", argv + ["--no-cache"])
    doc_cached = json.loads(body1)
    doc_fresh = json.loads(body3)
    assert doc_cached["report"] == doc_fresh["report"]
    doc = json.loads(body1)
    assert doc["report"]["assertion_passed"] is True
    assert doc["config"]["version"]


def test_cache_version_bump_invalidates(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    argv = [
        "stability", "--group", "cyclic:2", "--class", "elems:[1]",
        "--imax", "0", "--kmax", "2", "--format", "json",
        "--cache-dir", str(cache_dir),
    ]
    assert cli.run(argv + ["--out", str(tmp_path / "x.json")]) == cli.EXIT_OK
    before = set(os.listdir(cache_dir))
    monkeypatch.setattr(cli, "MODEL_VERSION", "999.0")
    assert cli.run(argv + ["--out", str(tmp_path / "y.json")]) == cli.EXIT_OK
    after = set(os.listdir(cache_dir))
    assert before < after  # a fresh key was written


def test_cache_corruption_recovers(tmp_path):
    cache_dir = tmp_path / "cache"
    argv = [
        "stability", "--group", "cyclic:2", "--class", "elems:[1]",
        "--imax", "0", "--kmax", "3", "--format", "json",
        "--cache-dir", str(cache_dir),
    ]
    code1, body1 = run_to_file(tmp_path, "a.json", argv)
    assert code1 == cli.EXIT_OK
    for name in os.listdir(cache_dir):
        (cache_dir / name).write_text("{broken")
    code2, body2 = run_to_file(tmp_path, "b.json", argv)
    assert code2 == cli.EXIT_OK and body1 == body2


def test_cache_entry_checksum_is_the_payload_key(tmp_path):
    # put writes key_of(payload), the sha256 of its compact sorted JSON,
    # as the checksum, and get checks the payload against it
    cache = cli.ResultCache(str(tmp_path))
    payload = {"b": [1, 2], "a": {"y": None, "x": "z"}}
    key = cli.ResultCache.key_of(payload)
    assert key == hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    cache.put("entry", payload)
    raw = (tmp_path / "entry.json").read_text()
    wrapped = {"checksum": key, "payload": payload}
    assert raw == json.dumps(wrapped, sort_keys=True)
    assert cache.get("entry") == payload
    (tmp_path / "entry.json").write_text(
        json.dumps({**wrapped, "checksum": "0" * 64}))
    assert cache.get("entry") is None


def test_stability_tsv_output(tmp_path):
    code, body = run_to_file(
        tmp_path, "st.tsv",
        ["stability", "--group", "cyclic:2", "--class", "elems:[1]",
         "--imax", "1", "--kmax", "4", "--no-cache"],
    )
    assert code == cli.EXIT_OK
    lines = body.decode().strip().split("\n")
    assert lines[0].split("\t")[:3] == ["k", "i", "homology"]
    assert len(lines) == 1 + 4 * 2


def test_homology_command(tmp_path):
    code, body = run_to_file(
        tmp_path, "h.json",
        ["homology", "--group", "sym:3", "--class", "rep:transposition",
         "--kmax", "3", "--imax", "1", "--coeff", "Fp:2",
         "--format", "json"],
    )
    assert code == cli.EXIT_OK
    doc = json.loads(body)
    assert doc["report"]["cells"]["2,0"]["free"] == 5


def test_degree_command(tmp_path):
    code, body = run_to_file(
        tmp_path, "d.json",
        ["degree", "--group", "sym:3", "--class", "rep:transposition",
         "--kmax", "5", "--cutoff", "3"],
    )
    assert code == cli.EXIT_OK
    doc = json.loads(body)
    assert doc["degree"]["degree"] == ">cutoff"
    assert doc["degree"]["delta_ranks"][1] == [2 * 3**k for k in range(5)]

    system = {"HY": [1], "HZ": [1, 1], "i": 2}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, body = run_to_file(
        tmp_path, "d2.json",
        ["degree", "--system", str(path), "--kmax", "8", "--cutoff", "4"],
    )
    assert code == cli.EXIT_OK
    assert json.loads(body)["degree"]["degree"] == 2


def test_degree_tsv_format(tmp_path):
    code, body = run_to_file(
        tmp_path, "d.tsv",
        ["degree", "--group", "cyclic:2", "--class", "elems:[1]",
         "--kmax", "5", "--cutoff", "3", "--format", "tsv"],
    )
    assert code == cli.EXIT_OK
    lines = body.decode().strip().split("\n")
    assert lines[0] == "delta_step\tranks"
    assert lines[-1] == "degree\t0"


def test_degree_needs_input():
    assert cli.run(["degree", "--kmax", "4"]) == cli.EXIT_USAGE


def test_monodromy_check(tmp_path):
    code, body = run_to_file(
        tmp_path, "m.json", ["monodromy-check", "--samples", "200",
                             "--seed", "7"]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(body)
    assert doc["passed"]
    assert doc["checks"]["act_functorial"] == 200
    # identical seeds reproduce identical verdict bytes
    code, again = run_to_file(
        tmp_path, "m2.json", ["monodromy-check", "--samples", "200",
                              "--seed", "7"]
    )
    assert again == body
    # a reflection that does not commute with the action breaks
    # functoriality, and the exact check finds it
    model = tmp_path / "noncommuting.json"
    model.write_text(json.dumps(
        {"group": {"builtin": {"family": "cyclic", "n": 2}}, "states": 4,
         "action": [[0, 1, 2, 3], [0, 2, 1, 3]], "sign": [1, -1],
         "reflection": [0, 1, 3, 2]}))
    code, body = run_to_file(
        tmp_path, "m3.json", ["monodromy-check", "--model", str(model),
                              "--samples", "1000", "--seed", "0"]
    )
    assert code == cli.EXIT_ASSERTION
    doc = json.loads(body)
    assert not doc["passed"]
    assert [f["kind"] for f in doc["failures"]] == ["functoriality"]
    assert doc["checks"]["act_functorial"] == 1000
    # the failure carries its witness: rebuilt from the report, the
    # triple fails again when composed and acted on directly
    spec = json.loads(model.read_text())
    group = FiniteGroup.from_json(spec["group"])
    md_model = md.MonodromyModel.from_json(spec, group)
    for failure in doc["failures"]:
        a, b, c, d = failure["objects"]
        phi, psi, chi = (
            md.LabeledInjection(m, n, tuple(map(tuple, failure[name]["pairs"])),
                                tuple(map(tuple, failure[name]["labels"])))
            for name, m, n in (("phi", a, b), ("psi", b, c), ("chi", c, d)))
        state = tuple(failure["state"])
        assert len(state) == d
        one = md.act(md_model, md.compose(chi, psi, group), state)
        assert one != md.act(md_model, psi, md.act(md_model, chi, state))
        assert md.compose(md.compose(chi, psi, group), phi, group) == \
            md.compose(chi, md.compose(psi, phi, group), group)


def test_monodromy_check_refuses_large_models(tmp_path, capsys):
    # blank fill decides 4 * (1 + 300 + 300^2 + 300^3) state tuples from
    # one tuple per pair of objects, so 300 states over cyclic:2 run to
    # a report; 3 000 000 states are refused by the action check, before
    # the rows are read
    def model_file(name, states, row):
        path = tmp_path / name
        path.write_text(json.dumps(
            {"group": {"builtin": {"family": "cyclic", "n": 2}},
             "states": states, "action": [row] * 2, "sign": [1, 1],
             "reflection": row}))
        return str(path)

    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = cli.run(["monodromy-check", "--model",
                    model_file("big.json", 300, list(range(300))),
                    "--samples", "10", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert time.perf_counter() - start < 2.0
    assert json.loads(out.read_text())["checks"] == {
        "composition_identity": 35, "composition_assoc": 10,
        "act_functorial": 10, "blank_fill": 4 * (1 + 300 + 300**2 + 300**3)}
    capsys.readouterr()
    start = time.perf_counter()
    code = cli.run(["monodromy-check", "--model",
                    model_file("huge.json", 3_000_000, [0]),
                    "--samples", "10", "--out", os.devnull])
    assert code == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource refusal: action checks 12000000 at |Q|=2, |S|=1, "
        "|Z|=3000000 exceed the bound 10000000\n")


def test_monodromy_check_refuses_large_group_actions(tmp_path, capsys):
    # the action of cyclic:1000, the largest cyclic table accepted, is
    # checked on 0 and its one generator: on 11 states that is
    # 1000 * 2 * 11 steps, which run to a report, and on 5001 states
    # 10 002 000, refused before the rows are read
    def model_file(name, states, row):
        path = tmp_path / name
        path.write_text(json.dumps(
            {"group": {"builtin": {"family": "cyclic", "n": 1000}},
             "states": states, "action": [row] * 1000, "sign": [1] * 1000,
             "reflection": row}))
        return str(path)

    start = time.perf_counter()
    code = cli.run(["monodromy-check", "--model",
                    model_file("big-group.json", 11, list(range(11))),
                    "--samples", "10", "--out", os.devnull])
    assert code == cli.EXIT_OK
    assert time.perf_counter() - start < 2.0
    capsys.readouterr()
    start = time.perf_counter()
    code = cli.run(["monodromy-check", "--model",
                    model_file("huge-group.json", 5001, [0]),
                    "--samples", "10", "--out", os.devnull])
    assert code == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == (
        "resource refusal: action checks 10002000 at |Q|=1000, |S|=1, "
        "|Z|=5001 exceed the bound 10000000\n")


def test_monodromy_check_refuses_too_many_samples(capsys):
    # 10^11 samples weigh 8 * 10^11 against the bound: refused before
    # anything is checked
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.run(["monodromy-check", "--samples", str(10**11),
                    "--out", os.devnull]) == cli.EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "resource refusal: samples 100000000000, weighing 8 each, exceed "
        "the bound 10000000\n")


def test_stabiliser_flag(tmp_path):
    code, body = run_to_file(
        tmp_path, "s.json",
        ["homology", "--group", "sym:3", "--class", "rep:transposition",
         "--stabiliser", "(1 3)", "--kmax", "2", "--imax", "0",
         "--format", "json"],
    )
    assert code == cli.EXIT_OK
    doc = json.loads(body)
    assert doc["report"]["stabiliser"] == 5  # index of (1 3) in sym:3


SMALL_GRID = ["--group", "sym:3", "--class", "rep:transposition",
              "--imax", "1", "--kmax", "3"]


def test_homology_is_stability_without_cache(tmp_path):
    for coeff in ("Z", "Fp:2"):
        grid = SMALL_GRID + ["--coeff", coeff]
        bodies = {}
        for fmt in ("tsv", "json"):
            for cmd, extra in (("homology", []), ("stability", ["--no-cache"])):
                code, bodies[cmd, fmt] = run_to_file(
                    tmp_path, f"{cmd}.{fmt}",
                    [cmd] + grid + ["--format", fmt] + extra)
                assert code == cli.EXIT_OK
        assert bodies["homology", "tsv"] == bodies["stability", "tsv"]
        assert json.loads(bodies["homology", "json"])["report"] \
            == json.loads(bodies["stability", "json"])["report"]


def test_homology_ignores_config_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cache": True, "cache_dir": str(cache_dir)}))
    code, _ = run_to_file(tmp_path, "h.tsv",
                          ["homology", "--config", str(cfg)] + SMALL_GRID)
    assert code == cli.EXIT_OK
    assert not cache_dir.exists() or not os.listdir(cache_dir)
