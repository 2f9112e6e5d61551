"""Golden CLI outputs: replay every recorded `gm4` run on `manifests/` and
`tests/invalid_manifests/` in process and require stdout, stderr and the
exit code to be byte-identical.

The record covers `validate`, `invariants` and `reduce` on each
`manifests/*.gm` file and `compare` on every ordered pair of them, then
`validate`, `invariants` and `reduce` on each `tests/invalid_manifests/*.gm`
file and `compare` of it with `manifests/double.gm`, either way round: the
rejected inputs pin the diagnostics, each after the name of the file it
rejects, and exit 12.  It was written, from the repository root, by

    PYTHONPATH=src python tests/test_cli_golden.py

Rewrite it only when a change of output is intended, and say so.

`main` runs a well-formed call from the command table (`cli._table_args`)
and every other call through argparse.  Two paths, one record: each
recorded run is replayed as is and again with the table declining, which
sends it through argparse, and both must equal the record.  Wherever the
table accepts an argv, it must give the attributes argparse gives, and a
well-formed call must neither build a parser nor import argparse.

`tests/cli_usage_golden.json`, written by the same command, pins the
argparse side of `main`: help, usage errors and their exit codes (0 for
help, 2 for a usage error), at a terminal width of 80 columns.  argparse
words these differently in other CPython releases, so that record is
replayed only on CPython 3.11, which wrote it.  On any interpreter and at
several widths, `main` must print for these calls what the parser of
every command prints, or, where that parser accepts the call, what the
command prints on the parser's arguments.
"""
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gm4 import cli
from gm4.cli import COMMANDS, build_parser, main

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


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_cli_output_through_argparse_is_byte_identical(argv, monkeypatch):
    record = next(r for r in _load() if r["argv"] == argv)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "_table_args", lambda argv: None)
    assert _run(argv) == record


# arguments that argparse reads in different ways: options, the end of
# options, a negative number, the empty string, spaces and non-ASCII
ARGUMENTS = st.one_of(
    st.sampled_from(["-", "--", "-5", "-h", "--help", "--file", "", "a=b", "a b", " -x", "é.gm", "x"]),
    st.text(),
)


def _well_formed(argv):
    positionals = {name: len(args) for name, _, args, _ in COMMANDS}
    return (
        bool(argv)
        and positionals.get(argv[0]) == len(argv) - 1
        and not any(arg.startswith("-") for arg in argv)
    )


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([c[0] for c in COMMANDS] + ["bogus"]),
    st.lists(ARGUMENTS, max_size=4),
)
def test_table_args_are_those_of_argparse(command, rest):
    argv = [command] + rest
    args = cli._table_args(argv)
    assert (args is not None) == _well_formed(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_table_declines_every_usage_argv():
    for argv in USAGE_ARGVS:
        assert cli._table_args(argv) is None, argv


WELL_FORMED_ARGVS = (
    ["validate", "manifests/double.gm"],
    ["invariants", "manifests/double.gm"],
    ["reduce", "manifests/chain3.gm"],
    ["compare", "manifests/double.gm", "manifests/double.gm"],
    ["matclass", "[[2,1],[1,1]]"],
    ["psi", "[[2,1],[1,1]]"],
)


def test_well_formed_argvs_cover_every_command():
    assert sorted(argv[0] for argv in WELL_FORMED_ARGVS) == sorted(c[0] for c in COMMANDS)


@pytest.mark.parametrize("argv", WELL_FORMED_ARGVS, ids=" ".join)
def test_well_formed_call_builds_no_parser(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = _run(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed call built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    got = _run(argv)
    assert got == want
    assert (got["exit"], got["stderr"]) == (0, "")


def test_well_formed_call_imports_no_argparse():
    code = (
        "import sys\n"
        "from gm4.cli import main\n"
        "rc = main(['validate', 'manifests/double.gm'])\n"
        "print(rc, 'argparse' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "valid\n0 False\n"


def test_valid_call_that_the_table_declines_goes_through_argparse(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["validate", "--", "manifests/double.gm"]
    assert cli._table_args(argv) is None
    assert _run(argv) == {"argv": argv, "exit": 0, "stdout": "valid\n", "stderr": ""}


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
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        want = {"argv": argv, "exit": exc.code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    else:  # a valid call that the table declines, such as `validate -- -x`
        monkeypatch.setattr(cli, "_table_args", lambda argv: args)
        want = _run(argv)
    assert got == want


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    for path, argvs in ((GOLDEN, _argvs()), (USAGE_GOLDEN, USAGE_ARGVS)):
        records = [_run(list(argv)) for argv in argvs]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(records)} records to {path.relative_to(ROOT)}", file=sys.stderr)
