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
"""
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gm4.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


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
        rc = main(argv)
    return {"argv": argv, "exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_manifest_run():
    assert [r["argv"] for r in _load()] == _argvs()


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_cli_output_is_byte_identical(argv, monkeypatch):
    record = next(r for r in _load() if r["argv"] == argv)
    monkeypatch.chdir(ROOT)
    assert _run(argv) == record


if __name__ == "__main__":
    os.chdir(ROOT)
    records = [_run(argv) for argv in _argvs()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
