"""Command line interface.

Exit codes: 0 success (or comparison "Yes"), 10 comparison "No",
11 comparison "Inconclusive", 12 validation or parse failure.
Results go to stdout, diagnostics to stderr.

Each command only does its work and prints its result.  Rejected input has
one handler: `main` catches every error in `INPUT_ERRORS`, prints its
message to stderr, after `<file>: ` for the commands that read files (for
`compare`, the file that failed to load or whose structure it rejected),
and exits 12, so no input ends in a traceback.

`main` runs a well-formed call straight from the `COMMANDS` table
(`_table_args`) and imports argparse only for the rest: help, usage errors
and calls such as one with `--`.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from . import assembly, manifest, meyer
from .bundles import UnsupportedOperationError
from .gl2z import NotInSL2ZError, classify, int_str

EXIT_OK = 0
EXIT_NO = 10
EXIT_INCONCLUSIVE = 11
EXIT_INVALID = 12

# the longest hyperbolic word `matclass` prints; R^n L is a 4-entry matrix
# whose word has n + 1 letters, so the input does not bound the output
MATCLASS_MAX_LETTERS = 10**6


class WordTooLongError(ValueError):
    """A hyperbolic class whose word is longer than `matclass` prints."""


# every error a bad manifest, matrix or file raises; a caught one exits 12
INPUT_ERRORS = (
    manifest.ManifestError,
    assembly.StructureError,
    assembly.NotReducedError,
    assembly.ClosedBaseError,
    UnsupportedOperationError,
    NotInSL2ZError,
    WordTooLongError,
    OSError,
    UnicodeDecodeError,
)


def _load(path: str) -> assembly.GraphStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return manifest.load_structure(fh.read())


def cmd_validate(args) -> int:
    diags = assembly.validate_structure(_load(args.file))
    if diags:
        for d in diags:
            print(f"{args.file}: {d}", file=sys.stderr)
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def cmd_invariants(args) -> int:
    sys.stdout.write(assembly.invariant_report(_load(args.file)).render())
    return EXIT_OK


def cmd_reduce(args) -> int:
    sys.stdout.write(manifest.dump_structure(assembly.reduce_structure(_load(args.file))))
    return EXIT_OK


def cmd_compare(args) -> int:
    files = (args.file1, args.file2)
    structures = []
    try:
        for path in files:
            structures.append(_load(path))
        result = assembly.isomorphic_reduced(*structures)
    except INPUT_ERRORS as exc:
        # for `main`: the file that did not load, else the one rejected
        operand = getattr(exc, "operand", len(structures))
        if operand < len(files):
            args.file = files[operand]
        raise
    if result.verdict == "yes":
        print(f"Yes ({result.witness})")
        return EXIT_OK
    if result.verdict == "no":
        print(f"No (separated by {result.separating})")
        return EXIT_NO
    print("Inconclusive")
    return EXIT_INCONCLUSIVE


def cmd_matclass(args) -> int:
    cls = classify(manifest.parse_matrix(args.matrix, 1))
    if cls.length > MATCLASS_MAX_LETTERS:
        raise WordTooLongError(
            f"hyperbolic word of {int_str(cls.length)} letters; matclass prints at most {MATCLASS_MAX_LETTERS}"
        )
    print(cls)
    return EXIT_OK


def cmd_psi(args) -> int:
    print(int_str(meyer.psi(manifest.parse_matrix(args.matrix, 1))))
    return EXIT_OK


# (name, help, positional arguments, function) of each subcommand
COMMANDS = (
    ("validate", "validate a .gm manifest", ("file",), cmd_validate),
    ("invariants", "print the invariant report", ("file",), cmd_invariants),
    ("reduce", "contract fiber-preserving glueings", ("file",), cmd_reduce),
    ("compare", "compare two reduced structures", ("file1", "file2"), cmd_compare),
    ("matclass", "SL(2,Z) conjugacy class of a matrix", ("matrix",), cmd_matclass),
    ("psi", "characteristic function value of a matrix", ("matrix",), cmd_psi),
)


def build_parser():
    """The argparse parser of every command in COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gm4",
        description="4-dimensional graph-manifold structures: validation, "
        "invariants, reduction and comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func)
    return parser


def _table_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The attributes `build_parser().parse_args(argv)` gives a
    well-formed call, a command and as many positionals as it takes, none
    starting with `-` (the subparsers take positionals only, and argparse
    reads every other string, the empty one too, as one); else None."""
    if argv and not any(arg.startswith("-") for arg in argv):
        for name, _, positionals, func in COMMANDS:
            if argv[0] == name and len(argv) == len(positionals) + 1:
                return SimpleNamespace(command=name, func=func, **dict(zip(positionals, argv[1:])))
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _table_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        prefix = f"{args.file}: " if hasattr(args, "file") else ""
        print(f"{prefix}{exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
