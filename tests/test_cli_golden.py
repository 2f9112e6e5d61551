"""Golden CLI outputs: replay every recorded `gm4` run on `manifests/` and
`tests/invalid_manifests/` in process and require stdout, stderr and the
exit code to be byte-identical.

The record covers `validate`, `invariants` and `reduce` on each
`manifests/*.gm` file and `compare` on every ordered pair of them, then
`validate`, `invariants` and `reduce` on each `tests/invalid_manifests/*.gm`
file and `compare` of it with `manifests/double.gm`, either way round: the
rejected inputs pin the diagnostics and exit 12.  It was written, from the
repository root, by

    PYTHONPATH=src python tests/test_cli_golden.py

Rewrite it only when a change of output is intended, and say so.

`tests/cli_usage_golden.json`, written by the same command, pins the
argparse side of `main`: help, usage errors and their exit codes (0 for
help, 2 for a usage error), at a terminal width of 80 columns.  argparse
words these differently in other CPython releases, so that record is
replayed only on CPython 3.11, which wrote it.  On any interpreter and at
several widths, `main`, which builds the parser of one command when its
first argument names one, must print what it prints with the parser of
every command.
"""
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gm4 import cli
from gm4.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
USAGE_GOLDEN = Path(__file__).resolve().parent / "cli_usage_golden.json"
USAGE_ARGVS = (
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["validate"],
    ["validate", "-h"],
    ["compare", "x"],
    ["compare", "a", "b", "c"],
    ["psi"],
    ["matclass", "-h"],
    ["-h", "validate"],
    ["validate", "--", "-x"],
    ["reduce", "--bogus", "f"],
)


def _files(directory):
    return sorted(f"{directory}/{p.name}" for p in (ROOT / directory).glob("*.gm"))


def _argvs():
    files = _files("manifests")
    out = [[cmd, f] for f in files for cmd in ("validate", "invariants", "reduce")]
    out += [["compare", f1, f2] for f1 in files for f2 in files]
    for f in _files("tests/invalid_manifests"):
        out += [[cmd, f] for cmd in ("validate", "invariants", "reduce")]
        out += [["compare", f, "manifests/double.gm"], ["compare", "manifests/double.gm", f]]
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            rc = exc.code
    return {"argv": argv, "exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load(path=GOLDEN):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_manifest_run():
    assert [r["argv"] for r in _load()] == _argvs()


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_cli_output_is_byte_identical(argv, monkeypatch):
    record = next(r for r in _load() if r["argv"] == argv)
    monkeypatch.chdir(ROOT)
    assert _run(argv) == record


def test_usage_golden_covers_every_usage_run():
    assert [r["argv"] for r in _load(USAGE_GOLDEN)] == list(USAGE_ARGVS)


def _usage_id(argv):
    return " ".join(argv) or "(no arguments)"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse wording of CPython 3.11")
@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=_usage_id)
def test_usage_output_is_byte_identical(argv, monkeypatch):
    record = next(r for r in _load(USAGE_GOLDEN) if r["argv"] == argv)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(argv) == record


@pytest.mark.parametrize("columns", ["30", "80", "200"])
@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=_usage_id)
def test_usage_output_is_that_of_the_full_parser(argv, columns, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", columns)
    got = _run(argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda commands: full())
    assert got == _run(argv)


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    for path, argvs in ((GOLDEN, _argvs()), (USAGE_GOLDEN, USAGE_ARGVS)):
        records = [_run(list(argv)) for argv in argvs]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(records)} records to {path.relative_to(ROOT)}", file=sys.stderr)
