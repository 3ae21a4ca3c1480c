"""The two parse paths of the CLI agree.  `cli.read_canonical` reads the
canonical `--flag value` argv straight from `cli.COMMANDS`; every other
argv goes to the argparse parser that `cli.build_parser` builds from the
same table.  Nothing here runs a command except the fallback runs, which
are help, usage errors and small grids."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from hurstab import cli

GRID = ["--group", "cyclic:2", "--class", "elems:[1]", "--imax", "0"]

# the README's CLI examples and the benchmark's command lines
CANONICAL = [
    ["orbits", "--group", "sym:3", "--class", "rep:transposition",
     "--k", "1..4"],
    ["stability", "--group", "cyclic:2", "--class", "elems:[1]", "--imax", "2",
     "--kmax", "9", "--coeff", "Z"],
    ["homology", "--group", "sym:3", "--class", "rep:(1 2 3)", "--kmax", "5",
     "--imax", "1", "--coeff", "Fp:2"],
    ["degree", "--group", "sym:3", "--class", "rep:transposition",
     "--kmax", "5", "--cutoff", "4"],
    ["degree", "--system", "system.json", "--kmax", "10", "--cutoff", "4"],
    ["monodromy-check", "--samples", "1000", "--seed", "0"],
    ["selftest"],
    ["stability", "--group", "sym:3", "--class", "rep:1", "--imax", "1",
     "--kmax", "4", "--coeff", "Fp:2", "--workers", "1", "--format", "json",
     "--cache-dir", "cache"],
    ["orbits", "--group", "sym:4", "--class", "rep:1", "--k", "1..6",
     "--workers", "1"],
    ["stability", "--no-cache", "--cache", "--cache-dir", "a", "--out", "b",
     "--format", "tsv", "--workers", "1", "--stabiliser", "1"] + GRID,
]


def argparse_namespace(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")


@pytest.mark.parametrize("argv", CANONICAL, ids=" ".join)
def test_canonical_argv_is_read_directly(argv):
    args = cli.read_canonical(argv)
    assert args is not None
    assert vars(args) == vars(argparse_namespace(argv))


FLAGS = sorted({option for _, flags, _ in cli.COMMANDS.values()
                for option, _ in flags})
VALUES = ["1", "3", "0", "-1", "--", "-", "x", "1..3", "tsv", "json", "xml",
          "sym:3", "elems:[1]", "rep:1", "Z", "Fp:2", "", " 2", "2 ", "2_0",
          "٣", "a b", "--x", "stray", "stability"]
values = st.one_of(st.sampled_from(VALUES), st.integers(-3, 40).map(str))
flags = st.sampled_from(FLAGS + ["-h", "--help", "--version", "--config"])
# every token form: exact flags, their prefixes, --flag=value, values and
# stray words; a flag drawn last has its value missing
tokens = st.one_of(
    flags,
    st.builds(lambda f, n: f[:n], flags, st.integers(2, 12)),
    st.builds("{}={}".format, flags, values),
    values)
commands = st.sampled_from(list(cli.COMMANDS) + ["nonsense", "stabil", ""])
grammar_argvs = st.builds(lambda c, rest: [c] + rest, commands,
                          st.lists(tokens, max_size=8))


def flag_with_value(option, kw):
    """A flag of a command with a value of its kind, mostly a good one."""
    if "action" in kw:
        return st.just([option])
    if kw.get("type") is int:
        value = st.integers(-2, 30).map(str)
    elif "choices" in kw:
        value = st.sampled_from(kw["choices"] + ("xml",))
    else:
        value = st.sampled_from(["sym:3", "elems:[1]", "rep:1", "Z", "1..3",
                                 "", "a b", "-x"])
    return value.map(lambda v: [option, v])


def canonical_for(command):
    """Flags of the command in any order, possibly repeated, with the
    required ones appended, so most of these argvs are canonical."""
    _, flag_specs, _ = cli.COMMANDS[command]
    pairs = st.one_of([flag_with_value(o, kw) for o, kw in flag_specs])
    required = [flag_with_value(o, kw) for o, kw in flag_specs
                if kw.get("required")]
    return st.builds(
        lambda body, tail: [command] + [t for pair in body + tail
                                        for t in pair],
        st.lists(pairs, max_size=8), st.tuples(*required).map(list))


canonical_argvs = st.sampled_from(list(cli.COMMANDS)).flatmap(canonical_for)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(canonical_argvs, grammar_argvs))
def test_direct_reader_matches_argparse(argv):
    args = cli.read_canonical(argv)
    if {"-h", "--help", "--config"} & set(argv[1:]):
        assert args is None
    if args is not None:
        assert vars(args) == vars(argparse_namespace(argv))


def test_direct_reader_declines_the_other_forms():
    for argv in ([], ["--help"], ["stability", "-h"],
                 ["stability", "--kma", "2"] + GRID,
                 ["stability", "--kmax=2"] + GRID,
                 ["stability", "--kmax"] + GRID,
                 ["stability", "--kmax", "-1"] + GRID,
                 ["stability", "--kmax", "x"] + GRID,
                 ["stability", "--format", "xml"] + GRID,
                 ["stability", "--group", "--", "--class", "elems:[1]"],
                 ["stability", "stray"] + GRID,
                 ["stability", "--no-cache", "x"] + GRID,
                 ["stability", "--config", "c.json"] + GRID,
                 ["orbits", "--group", "sym:3", "--class", "rep:1"],
                 ["degree", "--group", "sym:3", "--class", "rep:1"],
                 ["stability", "--seed", "1"] + GRID):
        assert cli.read_canonical(argv) is None, argv


# an unknown flag after a command is reported by the command's parser
UNKNOWN = [["stability", "--bogus"], ["orbits", "--k", "1", "--bogus"]]

# each argparse exits on: its output and exit code are the parser's own
EXITING = [[], ["--help"], ["-h"], ["--version"], ["nonsense"],
           ["stability", "--kmax", "x"]] + UNKNOWN + [
    [command, "--help"] for command in cli.COMMANDS]


@pytest.mark.parametrize("argv", EXITING, ids=lambda a: " ".join(a) or "-")
def test_fallback_prints_what_argparse_prints(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    code = cli.run(argv)
    got = capsys.readouterr()
    parser, words = cli.build_parser(), argv
    if argv in UNKNOWN:
        parser, words = parser._subcommands[argv[0]], argv[1:]
    with pytest.raises(SystemExit) as exit_:
        parser.parse_args(words)
    want = capsys.readouterr()
    assert code == (cli.EXIT_USAGE if exit_.value.code else cli.EXIT_OK)
    assert (got.out, got.err) == (want.out, want.err)
    assert want.out or want.err
    if argv[1:] == ["--help"] or argv in (["--help"], ["-h"], ["--version"]):
        assert code == cli.EXIT_OK and want.out and not want.err
    else:
        assert code == cli.EXIT_USAGE and want.err.startswith("usage: ")
    if argv in UNKNOWN:
        assert want.err.startswith(f"usage: hurstab {argv[0]} ")
        assert want.err.endswith(": error: unrecognized arguments: --bogus\n")


def cli_output(tmp_path, argv):
    out = tmp_path / "out.tsv"
    code = cli.run(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_fallback_reads_abbreviations_equals_forms_and_config(tmp_path):
    explicit = ["stability", "--kmax", "2", "--no-cache"] + GRID
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"group": "cyclic:2", "class": "elems:[1]",
                                  "kmax": 3, "imax": 0}))
    read = vars(cli.parse_argv(explicit))
    want = cli_output(tmp_path, explicit)
    assert want[0] == cli.EXIT_OK
    for argv in (["stability", "--kma", "2", "--no-cache"] + GRID,
                 ["stability", "--kmax=2", "--no-cache"] + GRID,
                 ["stability", "--config", str(config), "--kmax", "2",
                  "--no-cache"],
                 ["stability", "--kmax", "2", "--no-c"] + GRID):
        assert cli.read_canonical(argv) is None
        args = vars(cli.parse_argv(argv))
        assert args.pop("config") in (None, str(config))
        assert args == {k: v for k, v in read.items() if k != "config"}, argv
        assert cli_output(tmp_path, argv) == want, argv
