"""Golden report digests: each command line in
``fixtures/report_digests.json`` is run in process through ``cli.run``,
and the sha256 of its stdout and stderr and its exit code must match
the recorded ones, so a change that claims byte-identical reports is
checked by the suite.

The input files the command lines name are written by this module into
a fresh directory, which is the working directory of each run, so the
paths a report records are the same everywhere.  An intended output
change re-records the digests with

    PYTHONPATH=src python tests/test_report_digests.py

and names each changed entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from hurstab import cli

DIGESTS = pathlib.Path(__file__).parent / "fixtures" / "report_digests.json"


def _loop65_table():
    """The Cayley table of a loop of order 65 that is not a group: the
    order-5 loop of ``test_groups.test_bad_tables_rejected`` times
    cyclic:13.  Every command that reads it refuses it as not
    associative."""
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    return [[loop[a][b] * 13 + (x + y) % 13 for b in range(5)
             for y in range(13)] for a in range(5) for x in range(13)]


INPUTS = {
    "two50.json": {"group": {"builtin": {"family": "cyclic", "n": 50}},
                   "states": 2, "action": [[0, 1]] * 50, "sign": [1] * 50,
                   "reflection": [0, 1]},
    "noncommuting.json": {"group": {"builtin": {"family": "cyclic", "n": 2}},
                          "states": 4,
                          "action": [[0, 1, 2, 3], [0, 2, 1, 3]],
                          "sign": [1, -1], "reflection": [0, 1, 3, 2]},
    "loop65.json": {"group": {"table": _loop65_table()}, "states": 2,
                    "action": [[0, 1]] * 65, "sign": [1] * 65,
                    "reflection": [0, 1]},
    "loop65-group.json": {"table": _loop65_table()},
    "shear.json": {"HZ": [1, 2], "i": 2, "cZ": {"1": [[1, 1], [0, 1]]}},
}


def write_inputs(directory):
    for name, spec in INPUTS.items():
        (directory / name).write_text(json.dumps(spec), encoding="utf-8")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_captured(argv):
    """``cli.run(argv)`` with stdout and stderr captured: (exit code,
    sha256 of stdout, sha256 of stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, sha256(out.getvalue()), sha256(err.getvalue())


def load():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["entries"]


@pytest.mark.parametrize("entry", load(), ids=lambda e: e["id"])
def test_report_digest(entry, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_captured(entry["argv"]) == \
        (entry["exit"], entry["stdout"], entry["stderr"]), entry["argv"]


def record():
    """Re-run every entry and rewrite its exit code and digests."""
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            for entry in doc["entries"]:
                code, out, err = run_captured(entry["argv"])
                entry.update(exit=code, stdout=out, stderr=err)
                print(entry["id"], code, out[:8], file=sys.stderr)
        finally:
            os.chdir(here)
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
