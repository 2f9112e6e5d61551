"""Command line interface.

Exit codes: 0 success (or comparison "Yes"), 10 comparison "No",
11 comparison "Inconclusive", 12 validation or parse failure.
Results go to stdout, diagnostics to stderr.

Each command only does its work and prints its result.  Rejected input has
one handler: `main` catches every error in `INPUT_ERRORS`, prints its
message to stderr, after `<file>: ` for the commands that read one file,
and exits 12, so no input ends in a traceback.

`main` builds the parser of the one command that its first argument names,
and the parser of every command only when that argument names none (help,
no arguments or a typo).  The top-level usage line names every command
either way, so help and usage errors read as from the parser of every
command.
"""
from __future__ import annotations

import argparse
import sys
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
    result = assembly.isomorphic_reduced(_load(args.file1), _load(args.file2))
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


def build_parser(commands: Sequence[tuple] = COMMANDS) -> argparse.ArgumentParser:
    """The parser of `commands`, which are entries of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="gm4",
        description="4-dimensional graph-manifold structures: validation, "
        "invariants, reduction and comparison",
    )
    # argparse's own usage metavar of every command, so that a parser of
    # fewer commands reports a left-over argument under the same usage line;
    # only the parser of every command names the argument in an error
    names = None if commands is COMMANDS else "{" + ",".join(c[0] for c in COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, help_text, positionals, func in commands:
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    named = [c for c in COMMANDS if argv and c[0] == argv[0]]
    args = build_parser(named or COMMANDS).parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        prefix = f"{args.file}: " if hasattr(args, "file") else ""
        print(f"{prefix}{exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
